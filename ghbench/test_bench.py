"""Self-tests of the benchmark on tiny instances.

Run from the repository root:  python3 -m pytest ghbench -q
"""

import json
import random

import pytest

import run as bench
import spans


def tiny_spec() -> dict:
    """A cycle and a small ER graph, built by every method and verified."""
    pkg = bench.import_package()
    instances = [
        {"name": "cycle8", "generator": "cycle", "args": [8], "seed": 0},
        {"name": "er10", "generator": "erdos_renyi_m", "args": [10, 30], "seed": 0},
    ]
    for inst in instances:
        g = getattr(pkg.generators, inst["generator"])(*inst["args"],
                                                       random.Random(inst["seed"]))
        inst["sha256"] = bench.sha256(pkg.write_dimacs(g))
    jobs = []
    for name in ("cycle8", "er10"):
        jobs += [
            {"instance": name, "method": "classic"},
            {"instance": name, "method": "oc1", "seed": 3},
            {"instance": name, "method": "weak-oc", "seed": 3},
            {"instance": name, "method": "weak-oc", "certify": "octree", "seed": 3},
            {"instance": name, "method": "verify"},
        ]
    return {"instances": instances, "jobs": jobs}


def fingerprints(env, ops) -> dict:
    return {op.job: (bench.output_digest(env.pkg, op.out), op.work) for op in ops}


def test_tracing_changes_neither_work_nor_output(tmp_path):
    spec = tiny_spec()
    env, _ = bench.setup(spec, tmp_path)
    untraced, _, _ = bench.measure(env, spec["jobs"], 0, random.Random(0))
    with spans.Tracer(env.pkg) as tracer:
        traced, _, _ = bench.measure(env, spec["jobs"], 0, random.Random(1))
    assert len(tracer.fid) > 0
    assert fingerprints(env, traced) == fingerprints(env, untraced)
    failed, _, problems = bench.check(env, spec["jobs"], untraced + traced)
    assert (failed, problems) == (0, [])


def test_self_times_sum_to_at_most_wall_time(tmp_path):
    spec = tiny_spec()
    env, _ = bench.setup(spec, tmp_path)
    with spans.Tracer(env.pkg) as tracer:
        ops, _, _ = bench.measure(env, spec["jobs"], 0, random.Random(0))
    summary = tracer.summary()["functions"]
    self_times = [f["self_s"] for f in summary.values()]
    assert min(self_times) >= -1e-9
    assert sum(self_times) <= sum(op.seconds for op in ops)
    assert summary["octree.ordered_cuts"]["calls"] > 0  # recursion is traced too


def _bindings(pkg) -> dict:
    out = {(m.__name__, name): value for m in spans.package_modules(pkg)
           for name, value in vars(m).items()}
    out[("GHTree", "query")] = pkg.ghtree.GHTree.query
    return out


def test_every_wrapper_is_restored(tmp_path):
    spec = tiny_spec()
    env, _ = bench.setup(spec, tmp_path)
    before = _bindings(env.pkg)
    tracer = spans.Tracer(env.pkg)
    for _ in range(2):  # a tracer is installed once per traced pass
        with pytest.raises(RuntimeError):
            with tracer:
                assert getattr(env.pkg.octree.min_cut, "ghbench_span", False)
                assert getattr(env.pkg.ghtree.GHTree.query, "ghbench_span", False)
                raise RuntimeError("leave the traced block early")
    after = _bindings(env.pkg)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(getattr(v, "ghbench_span", False) for v in after.values())


def test_checks_catch_a_wrong_tree_and_a_differing_repeat(tmp_path):
    spec = tiny_spec()
    env, _ = bench.setup(spec, tmp_path)
    jobs = [{"instance": "er10", "method": "classic"}]
    (op,), _, _ = bench.measure(env, jobs, 0, random.Random(0))
    g = env.graphs["er10"]
    (u, v, w), *rest = op.out.edges
    wrong = env.pkg.GHTree(op.out.nodes, ((u, v, w + 1), *rest))
    assert bench.certificate_problem(env.pkg, g, wrong)
    # A flow-equivalent tree that is no cut tree: every edge carries the
    # right min-cut value, but edge (2, 3) induces the cut {3} of cost 5.
    star = env.pkg.Graph((1, 2, 3), ((3, 1, 2), (3, 2, 3)))
    assert not bench.certificate_problem(env.pkg, star,
                                         env.pkg.GHTree((1, 2, 3), ((1, 3, 2), (2, 3, 3))))
    assert "induced cut 5" in bench.certificate_problem(
        env.pkg, star, env.pkg.GHTree((1, 2, 3), ((1, 2, 2), (2, 3, 3))))
    repeat =bench.Op(op.job, op.seconds, op.out, (op.work[0] + 1, *op.work[1:]))
    failed, _, problems = bench.check(env, jobs, [op, repeat])
    assert failed == 1 and "differs" in problems[0]


def test_pinned_instances_regenerate(tmp_path):
    for spec in bench.load_workloads().values():
        env, _ = bench.setup(spec, tmp_path)  # raises BenchError on a mismatch
        assert set(env.graphs) == {inst["name"] for inst in spec["instances"]}


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_exactly_the_declared_metrics(trace):
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    result, _ = bench.run("verify-allpairs", 0, 0, bool(trace))
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == names
