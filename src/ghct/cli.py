"""Command-line frontend: compute, verify, bench, and ordered-cuts.

Exit codes: 0 success, 1 input/parse problems or a bad flag or
environment value, 2 Las-Vegas attempt cap reached (no tree is written),
3 verification found violations.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
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
from .oracle import verify_gh_tree
from .pipeline import AttemptLimitError, PipelineStats, gh_via_oc1, gh_via_weak_oc, \
    max_attempts_cap

GAMMA_REFERENCE = 0.584  # log2(1.5), the expected work-scaling exponent offset
METHODS = ("classic", "oc1", "weak-oc")


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
    try:
        return max_attempts_cap(explicit)
    except ValueError as exc:
        raise _InputError(exc) from None


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def run_method(g: Graph, method: str, seed: int, max_attempts: int | None = None,
               scale_alpha: float = 1.0, scale_beta: float = 1.0,
               certify: str = "isolating"):
    """Build a cut tree; returns (tree, stats dict)."""
    counter = WorkCounter()
    stats = PipelineStats()
    rng = random.Random(seed)
    started = time.perf_counter()
    if method == "classic":
        tree = gomory_hu_classic(g, counter)
    elif method == "oc1":
        tree = gh_via_oc1(g, rng, counter, stats=stats, max_attempts=max_attempts,
                          scale_alpha=scale_alpha, scale_beta=scale_beta)
    elif method == "weak-oc":
        tree = gh_via_weak_oc(g, rng, counter, stats=stats,
                              max_attempts=max_attempts,
                              scale_alpha=scale_alpha, certify=certify)
    else:
        raise ValueError(f"unknown method {method!r}")
    wall_ms = (time.perf_counter() - started) * 1000.0
    payload = counter.snapshot()
    payload.update({
        "attempts": stats.attempts_max,
        "attempts_total": stats.attempts_total,
        "wall_ms": round(wall_ms, 3),
        "seed": seed,
        "method": method,
    })
    return tree, payload


def tree_to_text(tree: GHTree, method: str, seed: int) -> str:
    return write_dimacs(tree.to_graph(), comments=[f"method={method} seed={seed}"])


def cmd_compute(args) -> int:
    cap = _attempt_cap(args.max_attempts)
    g = _read_graph(args.input)
    tree, stats = run_method(
        g, args.method, args.seed, max_attempts=cap,
        scale_alpha=args.schedule_c1, scale_beta=args.schedule_c2,
        certify=args.certify)
    _write_text(args.out, tree_to_text(tree, args.method, args.seed))
    if args.stats_out:
        Path(args.stats_out).write_text(json.dumps(stats, indent=2) + "\n")
    return 0


def cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    tree_graph = _read_graph(args.tree)
    if set(tree_graph.labels) != set(g.labels):
        raise _InputError("tree and graph node sets differ")
    if tree_graph.num_edges != g.num_nodes - 1:
        raise _InputError("tree must have exactly n-1 edges")
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
    g = _read_graph(args.input)
    if args.sequence:
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
            return 2
    _write_text(args.out, format_oc_tree(tree))
    if args.stats_out:
        payload = counter.snapshot()
        payload.update({"wall_ms": round(wall_ms, 3), "seed": args.seed})
        Path(args.stats_out).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


def _bench_row(path: Path, method: str, seed: int, max_attempts: int):
    g = _read_graph(path)
    tree, stats = run_method(g, method, seed, max_attempts=max_attempts)
    row = {"instance": path.stem, "n": g.num_nodes, "m": g.num_edges}
    row.update(stats)
    return g, tree, row


def _oc_scaling_runs(paths, seeds):
    """Ordered-cuts work counts on the erdos-renyi family, grouped by n."""
    by_n: dict = {}
    for path in paths:
        if not path.stem.startswith("erdos-renyi"):
            continue
        g = _read_graph(path)
        for seed in seeds:
            rng = random.Random((seed << 16) ^ g.num_nodes)
            nodes = sorted(g.labels)
            rng.shuffle(nodes)
            counter = WorkCounter()
            ordered_cuts(tuple(nodes), g, counter)
            by_n.setdefault(g.num_nodes, []).append(counter.nodes_total)
    return by_n


def fit_exponent(by_n: dict) -> float | None:
    """Least-squares slope of log(mean work) against log(n)."""
    if len(by_n) < 2:
        return None
    lx, ly = [], []
    for n, values in sorted(by_n.items()):
        lx.append(math.log(n))
        ly.append(math.log(statistics.fmean(values)))
    return statistics.linear_regression(lx, ly).slope


def cmd_bench(args) -> int:
    cap = _attempt_cap(args.max_attempts)
    corpus = Path(args.corpus)
    if args.generate:
        corpus.mkdir(parents=True, exist_ok=True)
        rng = random.Random(args.generate_seed)
        for name, g in default_corpus(rng).items():
            (corpus / f"{name}.dimacs").write_text(write_dimacs(g))
        for n in args.scaling_sizes:
            g = erdos_renyi_m(n, 4 * n, rng, weights=(1, 1))
            (corpus / f"erdos-renyi_n{n}.dimacs").write_text(write_dimacs(g))
    paths = sorted(corpus.glob("*.dimacs")) if corpus.is_dir() else []
    if not paths:
        raise _InputError(f"no .dimacs instances under {corpus}")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise _InputError(f"unknown method {m!r}")
    try:
        seeds = [int(tok) for tok in args.seeds.split(",") if tok.strip()]
    except ValueError:
        raise _InputError("--seeds must be comma-separated integers") from None

    jobs = [(path, method, seed, cap) for path in paths
            for method in methods for seed in seeds]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_bench_row, *zip(*jobs)))
    else:
        results = [_bench_row(*job) for job in jobs]
    rows = []
    for g, tree, row in results:
        if args.verify:
            row["verified"] = verify_gh_tree(g, tree).ok
        rows.append(row)

    by_n = _oc_scaling_runs(paths, seeds)
    exponent = fit_exponent(by_n)
    scaling = {
        "gamma_reference": GAMMA_REFERENCE,
        "expected_exponent": 1 + GAMMA_REFERENCE,
        "fitted_exponent": exponent,
        "nodes_total_by_n": {str(n): vals for n, vals in sorted(by_n.items())},
    }
    print(f"bench: {len(rows)} rows "
          f"({len(paths)} instances x {len(methods)} methods x {len(seeds)} seeds)")
    if exponent is not None:
        print(f"ordered-cuts scaling: fitted exponent {exponent:.3f} "
              f"(reference gamma {GAMMA_REFERENCE} -> expected ~{1 + GAMMA_REFERENCE:.3f})")
    if args.report:
        report_path = Path(args.report)
        if report_path.suffix == ".csv":
            fields = sorted({k for row in rows for k in row})
            with report_path.open("w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=fields)
                writer.writeheader()
                writer.writerows(rows)
        else:
            report_path.write_text(json.dumps(
                {"rows": rows, "oc_scaling": scaling}, indent=2) + "\n")
    return 0


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
    p.add_argument("--schedule-c1", type=float, default=1.0,
                   help="scale for the partition-schedule repeat count")
    p.add_argument("--schedule-c2", type=float, default=1.0,
                   help="scale for the source-schedule stage length")
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
    p.add_argument("--scaling-sizes", type=int, nargs="*", default=(64, 128),
                   help="extra unit-weight ER sizes for the scaling fit")
    p.add_argument("--jobs", type=int, default=1)
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
