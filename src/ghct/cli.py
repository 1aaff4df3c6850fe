"""Command-line frontend: compute, verify, bench, and ordered-cuts.

Exit codes: 0 success, 1 input/parse problems or a bad flag or
environment value, 2 Las-Vegas attempt cap reached (no tree is written),
3 verification found violations.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import random
import statistics
import sys
import time
from pathlib import Path

from .generators import default_corpus, erdos_renyi_m
from .ghtree import GHTree, gomory_hu_classic
from .graph import Graph, GraphFormatError, parse_dimacs, write_dimacs
from .maxflow import WorkCounter
from .octree import format_oc_tree, ordered_cuts, validate
from .oracle import reference_cut_values, verify_gh_tree
from .pipeline import DEFAULT_MAX_ATTEMPTS, AttemptLimitError, PipelineStats, gh_via_oc1, \
    gh_via_weak_oc

GAMMA_REFERENCE = 0.584  # log2(1.5), the expected work-scaling exponent offset
METHODS = ("classic", "oc1", "weak-oc")
# Largest --scaling-sizes value: 16x the largest size the scaling fit is
# meant for, and a bound on the ER graph `bench --generate` builds.
MAX_SCALING_SIZE = 4096


class _InputError(Exception):
    """Bad input file or value: one `error:` line on stderr, exit 1."""


def _read_graph(path) -> Graph:
    try:
        return parse_dimacs(Path(path).read_text())
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror}") from None
    except (UnicodeDecodeError, GraphFormatError) as exc:
        raise _InputError(f"{path}: {exc}") from None


def _attempt_cap(explicit: int | None) -> int:
    """The attempt cap: the flag, else OC_MAX_ATTEMPTS, else the default."""
    name, value = "max_attempts", explicit
    if value is None:
        name, value = "OC_MAX_ATTEMPTS", os.environ.get("OC_MAX_ATTEMPTS")
        if not value:
            return DEFAULT_MAX_ATTEMPTS
    try:
        cap = int(value)
    except ValueError:
        cap = -1
    if cap < 0:
        raise _InputError(f"{name} must be a non-negative integer, got {value!r}")
    return cap


def _write_text(path: str | Path | None, text: str) -> None:
    """Write `text` to `path` as is, or to stdout when `path` is None."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, newline="")
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror}") from None


def _check_writable(*paths) -> None:
    """Refuse an output path that cannot be written.  Called before any work
    starts, so that a run that cannot write all its outputs writes none."""
    for path in filter(None, paths):
        target = Path(path)
        if not target.parent.is_dir():
            code = errno.ENOTDIR if target.parent.exists() else errno.ENOENT
        elif target.is_dir():
            code = errno.EISDIR
        elif not os.access(target.parent, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise _InputError(f"{path}: {os.strerror(code)}")


def run_method(g: Graph, method: str, seed: int,
               max_attempts: int = DEFAULT_MAX_ATTEMPTS, certify: str = "isolating"):
    """Build a cut tree; returns (tree, stats dict).

    The stats hold `depth_stats`, {"<depth>": [nodes, edges]} summed over
    the refinement steps at each depth, in depth order.
    """
    counter = WorkCounter()
    stats = PipelineStats()
    depth: dict = {}
    rng = random.Random(seed)
    started = time.perf_counter()
    if method == "classic":
        tree = gomory_hu_classic(g, counter, depth_stats=depth)
    elif method == "oc1":
        tree = gh_via_oc1(g, rng, counter, stats=stats, max_attempts=max_attempts,
                          depth_stats=depth)
    elif method == "weak-oc":
        tree = gh_via_weak_oc(g, rng, counter, stats=stats, max_attempts=max_attempts,
                              certify=certify, depth_stats=depth)
    else:
        raise ValueError(f"unknown method {method!r}")
    wall_ms = (time.perf_counter() - started) * 1000.0
    payload = counter.snapshot()
    payload.update({
        "attempts": stats.attempts_max,
        "invocations": stats.invocations,
        "attempts_total": stats.attempts_total,
        "wall_ms": round(wall_ms, 3),
        "seed": seed,
        "method": method,
        "depth_stats": {str(d): depth[d] for d in sorted(depth)},
    })
    return tree, payload


def tree_to_text(tree: GHTree, method: str, seed: int) -> str:
    return write_dimacs(tree.to_graph(), comments=[f"method={method} seed={seed}"])


def cmd_compute(args) -> int:
    cap = _attempt_cap(args.max_attempts)
    _check_writable(args.out, args.stats_out)
    g = _read_graph(args.input)
    tree, stats = run_method(g, args.method, args.seed, max_attempts=cap,
                             certify=args.certify)
    _write_text(args.out, tree_to_text(tree, args.method, args.seed))
    if args.stats_out:
        _write_text(args.stats_out, json.dumps(stats, indent=2) + "\n")
    return 0


def cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    tree_graph = _read_graph(args.tree)
    tree = GHTree(tree_graph.labels, tuple(tree_graph.edge_labels()))
    try:
        report = verify_gh_tree(g, tree)
    except ValueError as exc:
        raise _InputError(exc) from None
    if report.ok:
        print(json.dumps({"kind": "gh-tree", "ok": True, "violations": []}))
        return 0
    print(report.to_json())
    return 3


def cmd_ordered_cuts(args) -> int:
    _check_writable(args.out, args.stats_out)
    g = _read_graph(args.input)
    if args.sequence is not None:
        try:
            seq = tuple(int(tok) for tok in args.sequence.split(","))
        except ValueError:
            raise _InputError("--sequence must be comma-separated integers") from None
        unknown = [v for v in seq if not g.has_node(v)]
        if unknown:
            raise _InputError(f"sequence nodes {unknown} are not in the graph")
        if len(set(seq)) != len(seq):
            raise _InputError("--sequence nodes must be distinct")
    else:
        nodes = sorted(g.labels)
        random.Random(args.seed).shuffle(nodes)
        seq = tuple(nodes)
    counter = WorkCounter()
    started = time.perf_counter()
    tree = ordered_cuts(seq, g, counter)
    wall_ms = (time.perf_counter() - started) * 1000.0
    if args.check:
        result = validate(tree, g)
        if not result:
            print(f"error: produced tree failed validation: {result.reason}",
                  file=sys.stderr)
            return 3
    _write_text(args.out, format_oc_tree(tree))
    if args.stats_out:
        payload = counter.snapshot()
        payload.update({"wall_ms": round(wall_ms, 3), "seed": args.seed})
        _write_text(args.stats_out, json.dumps(payload, indent=2) + "\n")
    return 0


def _bench_row(g: Graph, instance: str, method: str, seed: int, max_attempts: int):
    tree, stats = run_method(g, method, seed, max_attempts=max_attempts)
    stats.pop("depth_stats")  # rows stay flat
    row = {"instance": instance, "n": g.num_nodes, "m": g.num_edges}
    row.update(stats)
    return tree, row


_worker_graphs: dict = {}  # instance name -> Graph, in a bench worker process


def _load_worker(graphs: dict) -> None:
    """Pool initializer: each worker receives the parsed corpus once."""
    _worker_graphs.update(graphs)


def _worker_row(instance: str, method: str, seed: int, max_attempts: int):
    return _bench_row(_worker_graphs[instance], instance, method, seed, max_attempts)


def _oc_scaling_runs(graphs: dict, seeds):
    """Ordered-cuts work counts on the erdos-renyi families, as
    {n: {family: [nodes_total, ...]}}.  A family is the instance name up
    to its first "_", so unit-weight and weighted graphs of one size
    never share a list."""
    by_n: dict = {}
    for name, g in graphs.items():
        family = name.partition("_")[0]
        if not family.startswith("erdos-renyi"):
            continue
        if g.num_nodes < 2:  # no cut to order
            continue
        for seed in seeds:
            rng = random.Random((seed << 16) ^ g.num_nodes)
            nodes = sorted(g.labels)
            rng.shuffle(nodes)
            counter = WorkCounter()
            ordered_cuts(tuple(nodes), g, counter)
            by_n.setdefault(g.num_nodes, {}).setdefault(family, []).append(
                counter.nodes_total)
    return by_n


def fit_exponent(by_n: dict) -> float | None:
    """Least-squares slope of log(mean work) against log(n), with one
    intercept per family: each family's points are centred on their own
    means, so a family's weights move only its intercept.  A point of
    mean work 0 (on a graph of 3 nodes or fewer every cut is read off
    without a flow) has no logarithm and is left out.  None unless some
    family has two sizes left."""
    points: dict = {}
    for n, families in by_n.items():
        for family, values in families.items():
            mean = statistics.fmean(values)
            if mean:
                points.setdefault(family, []).append((math.log(n), math.log(mean)))
    sxy = sxx = 0.0
    for pts in points.values():
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
    return sxy / sxx if sxx else None


def cmd_bench(args) -> int:
    cap = _attempt_cap(args.max_attempts)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise _InputError(f"--methods must name at least one of {', '.join(METHODS)}")
    for m in methods:
        if m not in METHODS:
            raise _InputError(f"unknown method {m!r}")
    try:
        seeds = [int(tok) for tok in args.seeds.split(",") if tok.strip()]
    except ValueError:
        seeds = []
    if not seeds:
        raise _InputError("--seeds must be comma-separated integers")
    for flag, entries in (("--methods", methods), ("--seeds", seeds)):
        repeated = [e for i, e in enumerate(entries) if e in entries[:i]]
        if repeated:
            raise _InputError(f"{flag} repeats {repeated[0]!r}")
    corpus = Path(args.corpus)
    if args.generate:
        try:
            corpus.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _InputError(f"{corpus}: {exc.strerror}") from None
        rng = random.Random(args.generate_seed)
        for name, g in default_corpus(rng).items():
            _write_text(corpus / f"{name}.dimacs", write_dimacs(g))
        for n in args.scaling_sizes:
            g = erdos_renyi_m(n, 4 * n, rng, weights=(1, 1))
            _write_text(corpus / f"erdos-renyi-unit_n{n}.dimacs", write_dimacs(g))
    paths = sorted(corpus.glob("*.dimacs")) if corpus.is_dir() else []
    if not paths:
        raise _InputError(f"no .dimacs instances under {corpus}")
    # After --generate, which may create the report's directory.
    _check_writable(args.report)

    graphs = {path.stem: _read_graph(path) for path in paths}
    jobs = [(name, method, seed, cap) for name in graphs
            for method in methods for seed in seeds]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # Each worker gets the graphs once; the jobs name their instance.
        with ProcessPoolExecutor(max_workers=args.jobs, initializer=_load_worker,
                                 initargs=(graphs,)) as pool:
            results = list(pool.map(_worker_row, *zip(*jobs)))
    else:
        results = [_bench_row(graphs[job[0]], *job) for job in jobs]
    rows = []
    # Jobs run instance by instance, so each instance's all-pairs values
    # are computed once, shared by its rows and dropped before the next.
    ref_graph = reference = None
    for (name, *_), (tree, row) in zip(jobs, results):
        if args.verify:
            g = graphs[name]
            if g is not ref_graph:
                ref_graph, reference = g, reference_cut_values(g)
            row["verified"] = verify_gh_tree(g, tree, reference).ok
        rows.append(row)

    by_n = _oc_scaling_runs(graphs, seeds)
    exponent = fit_exponent(by_n)
    scaling = {
        "gamma_reference": GAMMA_REFERENCE,
        "expected_exponent": 1 + GAMMA_REFERENCE,
        "fitted_exponent": exponent,
        "nodes_total_by_n": {str(n): families for n, families in sorted(by_n.items())},
    }
    print(f"bench: {len(rows)} rows "
          f"({len(paths)} instances x {len(methods)} methods x {len(seeds)} seeds)")
    if exponent is not None:
        print(f"ordered-cuts scaling: fitted exponent {exponent:.3f} "
              f"(reference gamma {GAMMA_REFERENCE} -> expected ~{1 + GAMMA_REFERENCE:.3f})")
    if args.report:
        if Path(args.report).suffix == ".csv":
            text = io.StringIO()
            writer = csv.DictWriter(text, fieldnames=sorted({k for row in rows for k in row}))
            writer.writeheader()
            writer.writerows(rows)
            _write_text(args.report, text.getvalue())
        else:
            _write_text(args.report, json.dumps(
                {"rows": rows, "oc_scaling": scaling}, indent=2) + "\n")
    return 0


def _int_in(low: int, high: int):
    """An argparse type accepting the integers from low to high."""
    def parse(text: str) -> int:
        if not text.isdecimal() or not low <= int(text) <= high:
            raise argparse.ArgumentTypeError(
                f"expected an integer of at least {low} and at most {high}, got {text!r}")
        return int(text)
    return parse


class _Parser(argparse.ArgumentParser):
    """Bad flags exit 1 like other input problems; 2 means the attempt cap."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ghct",
        description="Exact Gomory-Hu cut trees by three interchangeable methods,"
                    " with work instrumentation and brute-force verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="build a cut tree for a DIMACS graph")
    p.add_argument("input")
    p.add_argument("--method", choices=METHODS, default="classic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="tree output path (default: stdout)")
    p.add_argument("--stats-out", help="where to write the stats JSON")
    p.add_argument("--max-attempts", type=int, default=None,
                   help="Las-Vegas harness cap (default: OC_MAX_ATTEMPTS or 10000)")
    p.add_argument("--certify", choices=("isolating", "octree"), default="isolating",
                   help="certification backend for the weak-oc method")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="check a tree file against its graph")
    p.add_argument("graph")
    p.add_argument("tree")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ordered-cuts", help="compute an ordered-cut tree")
    p.add_argument("input")
    p.add_argument("--sequence", help="comma-separated node sequence (source first)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for a random full permutation when --sequence is absent")
    p.add_argument("--out", help="tree output path (default: stdout)")
    p.add_argument("--stats-out")
    p.add_argument("--check", action="store_true",
                   help="validate the tree against the graph before writing")
    p.set_defaults(func=cmd_ordered_cuts)

    p = sub.add_parser("bench", help="work-count comparison over a corpus")
    p.add_argument("corpus", help="directory of .dimacs instances")
    p.add_argument("--methods", default="classic,oc1,weak-oc")
    p.add_argument("--seeds", default="0,1")
    p.add_argument("--report", help="write rows to this .json or .csv file")
    p.add_argument("--generate", action="store_true",
                   help="populate the corpus with the built-in families first")
    p.add_argument("--generate-seed", type=int, default=0)
    p.add_argument("--scaling-sizes", type=_int_in(2, MAX_SCALING_SIZE), nargs="*",
                   default=(64, 128), help="extra unit-weight ER sizes for the scaling fit")
    p.add_argument("--jobs", type=_int_in(1, os.cpu_count() or 1), default=1,
                   help="worker processes, all started at once (at most the CPU count)")
    p.add_argument("--verify", action="store_true",
                   help="verify every produced tree against the oracle")
    p.add_argument("--max-attempts", type=int, default=None)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AttemptLimitError as exc:  # no tree or report has been written
        print(f"error: attempt cap reached: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
