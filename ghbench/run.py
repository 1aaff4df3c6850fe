"""Benchmark of the ghct package: exact Gomory-Hu tree builds and checks.

Run from the repository root:

    python3 ghbench/run.py --workload randomized-mix --seed 0 --seconds 40 --trace 0

One process, one thread, closed loop: a single caller runs the workload's
job list (a *pass*) through the package's public entry points
(`gomory_hu_classic`, `gh_via_oc1`, `gh_via_weak_oc`, `verify_gh_tree`)
and starts each job only after the previous one returned.  Whole passes
repeat for about --seconds, so every run measures the same job mix.  An
*op* is one tree build, or one tree verification in verify-allpairs.

Instances (generator, arguments, seed and the SHA-256 of their DIMACS
text) and the seeds of the randomized methods are pinned in
workloads.json; --seed only shuffles the job order of each pass.  The
randomized methods are Las-Vegas, and their work varies several-fold
between method seeds (weak-oc on ER n=32: coefficient of variation about
0.7 over ten seeds), so a seed-dependent job list would make every
figure of randomized-mix a property of the seed rather than of the code.

--trace 0 reports the end-to-end metrics, measured untraced; setup_s is
the median of 11 set-ups spread over the run.  --trace 1 alternates
untraced and traced passes (spans.Tracer wraps the package's public
functions from outside) and reports per-layer metrics:
calls and traced self seconds per pass, and self time as a share of
traced op time.  Compare shares rather than seconds, because tracing slows
the many tiny calls; `trace.overhead_frac` says by how much.
The spans themselves are written to ghbench/out/<workload>/spans-*.csv.

Every op is checked after its timed phase.  A built tree must pass the
n-1-flow certificate: it spans the graph, and each tree edge (u, v, w) has
min_cut(g, {u}, {v}).cost == w and induces a cut of cost w in g.  A
verification report must be ok, and the tree it verified must pass the
certificate.  Work counters and an output digest are recorded per job;
every repeat of a job within the run must match its first op exactly.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 1 when any check failed
and 2 (with no result) when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 11
MAX_ATTEMPTS = 10_000  # the package default, fixed here so the environment cannot change it


class BenchError(Exception):
    """The benchmark cannot run: missing package, bad argument or pin mismatch."""


def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


def import_package():
    """Import ghct from this checkout's src/, discarding any earlier import."""
    src = ROOT / "src"
    if not (src / "ghct" / "__init__.py").is_file():
        raise BenchError(f"no ghct package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "ghct" or n.startswith("ghct.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ghct")
    importlib.import_module("ghct.generators")
    if Path(pkg.__file__).resolve().parent != src / "ghct":
        raise BenchError(f"imported ghct from {pkg.__file__}, not from {src}")
    return pkg


@dataclass
class Env:
    pkg: object
    graphs: dict  # instance name -> Graph parsed from its DIMACS file
    trees: dict   # instance name -> classic tree checked by verify jobs


def setup(spec: dict, out_dir: Path, traced: bool = False):
    """Import the package, generate, write and parse every instance, and
    build the reference trees of verify jobs.  Returns (env, tracer)."""
    pkg = import_package()
    tracer = spans.Tracer(pkg) if traced else None
    with tracer if tracer is not None else contextlib.nullcontext():
        graphs = {}
        for inst in spec["instances"]:
            make = getattr(pkg.generators, inst["generator"])
            text = pkg.write_dimacs(make(*inst["args"], random.Random(inst["seed"])))
            if sha256(text) != inst["sha256"]:
                raise BenchError(f"instance {inst['name']} does not match its pinned SHA-256")
            path = out_dir / f"{inst['name']}.dimacs"
            path.write_text(text)
            graphs[inst["name"]] = pkg.parse_dimacs(path.read_text())
        trees = {job["instance"]: pkg.gomory_hu_classic(graphs[job["instance"]],
                                                        pkg.WorkCounter())
                 for job in spec["jobs"] if job["method"] == "verify"}
    return Env(pkg, graphs, trees), tracer


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def job_label(job: dict) -> str:
    parts = [job["instance"], job["method"]]
    if "certify" in job:
        parts.append(f"certify={job['certify']}")
    if "seed" in job:
        parts.append(f"seed={job['seed']}")
    return " ".join(parts)


def run_job(env: Env, job: dict):
    """One op through the package's public API; returns (output, counter, stats)."""
    pkg = env.pkg
    g = env.graphs[job["instance"]]
    counter, stats = pkg.WorkCounter(), pkg.PipelineStats()
    method = job["method"]
    if method == "classic":
        out = pkg.gomory_hu_classic(g, counter)
    elif method == "oc1":
        out = pkg.gh_via_oc1(g, random.Random(job["seed"]), counter, stats=stats,
                             max_attempts=MAX_ATTEMPTS)
    elif method == "weak-oc":
        out = pkg.gh_via_weak_oc(g, random.Random(job["seed"]), counter, stats=stats,
                                 max_attempts=MAX_ATTEMPTS,
                                 certify=job.get("certify", "isolating"))
    elif method == "verify":
        out = pkg.verify_gh_tree(g, env.trees[job["instance"]])
    else:
        raise BenchError(f"unknown method {method!r}")
    return out, counter, stats


@dataclass
class Op:
    job: int         # index into the job list
    seconds: float
    out: object      # GHTree, Report, or the AttemptLimitError raised
    work: tuple      # (maxflow_calls, nodes_total, edges_total, invocations, attempts)


def measure(env: Env, jobs: list, seconds: float, rng: random.Random, after_pass=None):
    """Run whole passes, at least one, until the measured time is nearer to
    `seconds` than it would be after another pass of average length, so
    that runs measure `seconds` on average.  `after_pass(measured)`, if
    given, runs between passes, outside the measured time.

    Returns (ops in pass order, passes, measured seconds).
    """
    clock = time.perf_counter
    ops = []
    order = list(range(len(jobs)))
    passes = 0
    measured = 0.0
    while passes == 0 or measured + measured / passes / 2 < seconds:
        rng.shuffle(order)
        start = clock()
        for j in order:
            t = clock()
            try:
                out, counter, stats = run_job(env, jobs[j])
            except env.pkg.AttemptLimitError as exc:
                ops.append(Op(j, clock() - t, exc, ()))
                continue
            dt = clock() - t
            ops.append(Op(j, dt, out, (counter.calls, counter.nodes_total,
                                       counter.edges_total, stats.invocations,
                                       stats.attempts_total)))
        measured += clock() - start
        passes += 1
        if after_pass is not None:
            after_pass(measured)
    return ops, passes, measured


def measure_alternating(env: Env, jobs: list, seconds: float, rng: random.Random,
                        tracer: spans.Tracer):
    """Alternate one untraced and one traced pass for about `seconds` in
    all, so that a drift in machine speed touches both sides alike.

    Returns (untraced ops, traced ops, the ratio of traced to untraced
    time of each pair of passes).
    """
    untraced, traced, ratios = [], [], []
    measured = 0.0
    while not ratios or measured + measured / len(ratios) / 2 < seconds:
        ops, _, plain_s = measure(env, jobs, 0, rng)
        untraced += ops
        with tracer:
            ops, _, traced_s = measure(env, jobs, 0, rng)
        traced += ops
        measured += plain_s + traced_s
        ratios.append(traced_s / plain_s)
    return untraced, traced, ratios


# -- checks (never inside a timed region) ---------------------------------


def _side(adj: dict, start, cut_edge=None) -> set:
    """Tree nodes reachable from start, optionally without one edge."""
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen and {x, y} != cut_edge:
                seen.add(y)
                stack.append(y)
    return seen


def certificate_problem(pkg, g, tree) -> str:
    """n-1-flow certificate of a cut tree; empty string when it holds.

    By λ(s,t) >= min(λ(s,x), λ(x,t)), a spanning tree whose every edge
    (u, v, w) has λ(u, v) = w and induces a cut of cost w in g is a
    Gomory-Hu tree (Gomory & Hu 1961; Gusfield 1990).
    """
    if set(tree.nodes) != set(g.labels) or len(tree.nodes) != g.num_nodes:
        return "tree nodes differ from the graph's"
    if len(tree.edges) != g.num_nodes - 1:
        return f"tree has {len(tree.edges)} edges, expected {g.num_nodes - 1}"
    adj = {v: [] for v in tree.nodes}
    for u, v, _ in tree.edges:
        adj[u].append(v)
        adj[v].append(u)
    if len(_side(adj, tree.nodes[0])) != g.num_nodes:
        return "tree does not span the graph"
    counter = pkg.WorkCounter()
    for u, v, w in tree.edges:
        flow = pkg.min_cut(g, {u}, {v}, counter).cost
        induced = pkg.cut_cost(g, _side(adj, u, {u, v}))
        if flow != w or induced != w:
            return f"tree edge ({u}, {v}, {w}): min cut {flow}, induced cut {induced}"
    return ""


def output_digest(pkg, out) -> str:
    if isinstance(out, pkg.Report):
        return sha256(out.to_json())
    return sha256(pkg.write_dimacs(out.to_graph()))


def output_problem(env: Env, job: dict, out) -> str:
    pkg = env.pkg
    g = env.graphs[job["instance"]]
    if job["method"] == "verify":
        if not out.ok:
            return f"verification found {len(out.violations)} violations"
        return certificate_problem(pkg, g, env.trees[job["instance"]])
    return certificate_problem(pkg, g, out)


def verify_work(env: Env, job: dict):
    """Engine work of one verification, with its report.

    verify_gh_tree counts its flows on WorkCounters of its own, so it is
    replayed once with the oracle's counter class replaced by a factory
    that hands out one shared counter.
    """
    pkg = env.pkg
    shared = pkg.WorkCounter()
    original = pkg.oracle.WorkCounter
    pkg.oracle.WorkCounter = lambda: shared
    try:
        report = pkg.verify_gh_tree(env.graphs[job["instance"]], env.trees[job["instance"]])
    finally:
        pkg.oracle.WorkCounter = original
    return report, (shared.calls, shared.nodes_total, shared.edges_total, 0, 0)


def check(env: Env, jobs: list, ops: list):
    """Check every op; returns (failed ops, work per job, problems).

    The determinism guard: each job's first op fixes its output digest and
    work counters, and every repeat must match them exactly.
    """
    first = {}    # job index -> (digest, work)
    verdict = {}  # job index -> problem ("" when the output is correct)
    problems = []
    failed = 0
    for op in ops:
        label = job_label(jobs[op.job])
        if isinstance(op.out, Exception):
            failed += 1
            problems.append(f"{label}: {op.out}")
            continue
        fingerprint = (output_digest(env.pkg, op.out), op.work)
        if first.setdefault(op.job, fingerprint) != fingerprint:
            failed += 1
            problems.append(f"{label}: repeat differs from the job's first op")
            continue
        if op.job not in verdict:
            verdict[op.job] = output_problem(env, jobs[op.job], op.out)
            if verdict[op.job]:
                problems.append(f"{label}: {verdict[op.job]}")
        if verdict[op.job]:
            failed += 1
    work = {}
    for j, (digest, counts) in first.items():
        if jobs[j]["method"] == "verify":
            report, counts = verify_work(env, jobs[j])
            if output_digest(env.pkg, report) != digest:
                problems.append(f"{job_label(jobs[j])}: replayed report differs")
        work[j] = counts
    return failed, work, problems


# -- metrics ----------------------------------------------------------------


def pass_work(work: dict) -> dict:
    calls, nodes, edges, invocations, attempts = (sum(w[k] for w in work.values())
                                                  for k in range(5))
    return {"maxflow_calls": calls, "nodes_total": nodes, "edges_total": edges,
            "invocations": invocations, "attempts": attempts}


def end_to_end(setup_times, ops, elapsed, per_pass, failed) -> dict:
    lat = sorted(op.seconds for op in ops)
    p90 = statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0]
    invocations, attempts = per_pass["invocations"], per_pass["attempts"]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(ops) / elapsed, "1/s"),
        "op_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "op_ms_p90": (p90 * 1e3, "ms"),
        "maxflow_calls": (per_pass["maxflow_calls"], "count"),
        "nodes_total": (per_pass["nodes_total"], "count"),
        "edges_total": (per_pass["edges_total"], "count"),
        # Classic builds and verification make no Las-Vegas attempts: each
        # step succeeds at its first and only attempt.
        "attempts_per_invocation": (attempts / invocations if invocations else 1.0, "ratio"),
        "ok_frac": ((len(ops) - failed) / len(ops), "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(setup_summary, setup_wall, summary, traced_ops, passes, ratios,
              per_pass) -> dict:
    wall = sum(op.seconds for op in traced_ops)
    out = {}
    for name, f in summary["functions"].items():
        if name == "graph.parse_dimacs":  # only set-up parses: per set-up, share of it
            f, per, base = setup_summary["functions"][name], 1, setup_wall
        else:
            per, base = passes, wall
        out[f"{name}.calls"] = (f["calls"] / per, "count")
        out[f"{name}.self_s"] = (f["self_s"] / per, "s")
        out[f"{name}.self_share"] = (f["self_s"] / base, "frac")
    buckets = summary["engine_calls_by_nodes"]
    for key in ("le3", "4_16", "gt16"):
        out[f"maxflow.calls_{key}"] = (buckets[key] / passes, "count")
    engine_self = sum(summary["functions"][name]["self_s"] for name in spans.ENGINE)
    out["maxflow.share"] = (engine_self / wall, "frac")
    invocations, attempts = per_pass["invocations"], per_pass["attempts"]
    out["pipeline.attempts_total"] = (attempts, "count")
    out["pipeline.accept_ratio"] = (invocations / attempts if attempts else 1.0, "ratio")
    rejects = (summary["functions"]["pipeline.select_source"]["calls"]
               - summary["generalized_steps"])
    out["ghtree.family_rejects"] = (rejects / passes, "count")
    out["trace.overhead_frac"] = (statistics.median(ratios) - 1, "frac")
    return out


def times_by_job(ops) -> dict:
    times = {}
    for op in ops:
        times.setdefault(op.job, []).append(op.seconds)
    return times


def job_rows(env: Env, jobs: list, ops: list, work: dict) -> list:
    """One report line per job: size, median op time and work per op."""
    rows = ["# job | n | m | median ms | maxflow_calls | nodes_total | edges_total"
            " | attempts/invocations"]
    times = times_by_job(ops)
    for j, job in enumerate(jobs):
        g = env.graphs[job["instance"]]
        w = work.get(j, (0,) * 5)
        median = statistics.median(times[j]) * 1e3 if j in times else float("nan")
        rows.append(f"# {job_label(job)} | {g.num_nodes} | {g.num_edges} | {median:.1f}"
                    f" | {w[0]} | {w[1]} | {w[2]} | {w[4]}/{w[3]}")
    return rows


# -- entry point --------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Set up, measure and check one run; returns (result dict, report lines)."""
    workloads = load_workloads()
    if workload not in workloads:
        raise BenchError(f"unknown workload {workload!r}; choose from {sorted(workloads)}")
    spec = workloads[workload]
    jobs = spec["jobs"]
    out_dir = OUT / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    clock = time.perf_counter

    if trace:
        t = clock()
        env, setup_tracer = setup(spec, out_dir, traced=True)
        setup_wall = clock() - t
        tracer = spans.Tracer(env.pkg)
        untraced_ops, traced_ops, ratios = measure_alternating(env, jobs, seconds, rng,
                                                               tracer)
        passes = len(ratios)
        ops = untraced_ops + traced_ops
    else:
        # Set-up is short enough to sit in one state of a machine whose speed
        # drifts over seconds, so its repeats are spread evenly over the run,
        # between passes; each repeat imports the package afresh.
        setup_times = []

        def timed_setup():
            t = clock()
            env, _ = setup(spec, out_dir)
            setup_times.append(clock() - t)
            return env

        def setup_again(measured: float):
            due = (SETUP_REPEATS if measured >= seconds
                   else 1 + int((SETUP_REPEATS - 1) * measured / seconds))
            while len(setup_times) < due:
                timed_setup()

        env = timed_setup()
        gc.collect()
        ops, passes, elapsed = measure(env, jobs, seconds, rng, after_pass=setup_again)
        setup_again(seconds)

    failed, work, problems = check(env, jobs, ops)
    per_pass = pass_work(work)
    lines = job_rows(env, jobs, ops, work)
    lines.append(f"# workload {workload}, seed {seed}, trace {int(trace)}:"
                 f" {len(ops)} ops, {failed} failed")
    if trace:
        summary = tracer.summary()
        metrics = per_layer(setup_tracer.summary(), setup_wall, summary, traced_ops,
                            passes, ratios, per_pass)
        traced_calls = sum(summary["engine_calls_by_nodes"].values())
        if traced_calls != passes * per_pass["maxflow_calls"]:
            problems.append(f"traced engine calls {traced_calls} != {passes} passes"
                            f" x {per_pass['maxflow_calls']} counted")
        setup_tracer.write(out_dir / "spans-setup.csv", setup_tracer.start[0])
        tracer.write(out_dir / "spans-ops.csv", tracer.start[0])
        lines.append(f"# traced: {passes} passes, {len(tracer.fid)} spans;"
                     f" untraced: {len(untraced_ops)} ops")
        for name, f in summary["functions"].items():
            lines.append(f"# {name}: {f['calls'] / passes:g} calls/pass,"
                         f" {f['self_s'] / passes:.6f} s self/pass (traced)")
    else:
        metrics = end_to_end(setup_times, ops, elapsed, per_pass, failed)
        p90_s = metrics["op_ms_p90"][0] / 1e3
        beyond = sum(op.seconds > p90_s for op in ops)
        lines.append(f"# {passes} passes, {len(ops)} op samples in {elapsed:.2f} s,"
                     f" {beyond} beyond p90, failed_frac {failed / len(ops):g}")
    lines.extend(f"# problem: {p}" for p in problems)
    lines.extend(f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items())
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
