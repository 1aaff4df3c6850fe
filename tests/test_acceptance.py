"""Acceptance suite: one test per criterion, printing a pass/fail line.

Everything is seeded, so runs are bit-reproducible.  The two long-running
pieces are the 200-graph cross-method corpus and the work-scaling trend;
the whole module targets a desk-scale budget (several minutes).
"""

import math
import random
import statistics
from itertools import combinations

import pytest

from ghct.cli import run_method, tree_to_text
from ghct.generators import erdos_renyi_m
from ghct.graph import cut_cost, parse_dimacs, write_dimacs
from ghct.isolating import isolating_cuts_with_depth
from ghct.maxflow import WorkCounter, min_cut
from ghct.octree import certified_source_cuts, certifying_prefix, ordered_cuts, \
    validate
from ghct.oracle import brute_all_min_cuts, brute_min_cut, verify_gh_tree
from ghct.pipeline import certified_ordered_cuts

from conftest import connected_random_graph, perturbed, random_graph

METHODS = ("classic", "oc1", "weak-oc")


def report(criterion: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


# -- shared corpora -------------------------------------------------------


@pytest.fixture(scope="module")
def method_corpus():
    """200 seeded random graphs with trees and stats for all methods."""
    results = []
    for i in range(200):
        rng = random.Random(100_000 + i)
        n = rng.randint(2, 24)
        g = random_graph(rng, n, density=rng.uniform(0.3, 0.9), max_weight=16)
        per_method = {}
        for method in METHODS:
            tree, stats = run_method(g, method, seed=i)
            per_method[method] = (tree, stats)
        results.append((g, per_method))
    return results


@pytest.fixture(scope="module")
def oc_instances():
    """200 random (sequence, graph) pairs with solved ordered-cut trees."""
    counter = WorkCounter()
    out = []
    for i in range(200):
        rng = random.Random(200_000 + i)
        n = rng.randint(2, 24)
        g = random_graph(rng, n, density=rng.uniform(0.3, 0.9), max_weight=16)
        labels = sorted(g.labels)
        rng.shuffle(labels)
        seq = tuple(labels[: rng.randint(1, min(12, n))])
        tree = ordered_cuts(seq, g, counter)
        out.append((seq, g, tree))
    return out


# -- criteria --------------------------------------------------------------


def test_criterion_01_cross_method_agreement(method_corpus):
    bad = 0
    for g, per_method in method_corpus:
        reference = {}
        values = {}
        for method in METHODS:
            tree, _ = per_method[method]
            if not verify_gh_tree(g, tree, reference).ok:
                bad += 1
                break
            values[method] = {
                (s, t): tree.query(s, t)[0]
                for s, t in combinations(sorted(g.labels), 2)
            }
        else:
            if not (values["classic"] == values["oc1"] == values["weak-oc"]):
                bad += 1
    report("1 cross-method agreement", bad == 0,
           f"{len(method_corpus)} graphs x {len(METHODS)} methods, {bad} failures")


def test_criterion_02_oc_tree_validity(oc_instances):
    bad = [seq for seq, g, tree in oc_instances if not validate(tree, g)]
    report("2 oc-tree validity", not bad,
           f"{len(oc_instances)} instances, {len(bad)} invalid")


def test_criterion_03_prefix_certification(oc_instances):
    counter = WorkCounter()
    bad = 0
    for seq, g, tree in oc_instances:
        for u in tree.order[1:]:
            prefix = certifying_prefix(tree, u)
            if cut_cost(g, tree.down_set(u)) != min_cut(g, set(prefix), {u},
                                                        counter).cost:
                bad += 1
        for u, cut in certified_source_cuts(tree).items():
            if cut.cost != min_cut(g, {seq[0]}, {u}, counter).cost:
                bad += 1
    report("3 certifying-prefix cuts", bad == 0,
           f"{len(oc_instances)} instances, {bad} mismatches")


def test_criterion_04_work_scaling_trend():
    sizes = (128, 256, 512, 1024)
    seeds = 20
    means = {}
    for n in sizes:
        totals = []
        for seed in range(seeds):
            rng = random.Random(505 + seed * 7919 + n)
            g = erdos_renyi_m(n, 4 * n, rng, weights=(1, 1))
            nodes = sorted(g.labels)
            rng.shuffle(nodes)
            counter = WorkCounter()
            ordered_cuts(tuple(nodes), g, counter)
            totals.append(counter.nodes_total)
        means[n] = statistics.fmean(totals)
    slope = statistics.linear_regression(
        [math.log(n) for n in means],
        [math.log(v) for v in means.values()]).slope
    report("4 work-scaling trend", 1.30 <= slope <= 1.80,
           f"fitted exponent {slope:.3f}, window [1.30, 1.80], "
           f"means {[round(v) for v in means.values()]}")


def test_criterion_05_isolating_cuts():
    counter = WorkCounter()
    bad = 0
    for i in range(200):
        rng = random.Random(300_000 + i)
        n = rng.randint(3, 24)
        g = random_graph(rng, n, density=rng.uniform(0.3, 0.9))
        labels = sorted(g.labels)
        s = labels[0]
        terminals = set(rng.sample(labels[1:], rng.randint(1, min(8, n - 1))))
        cuts, depth = isolating_cuts_with_depth(s, terminals, g, counter)
        if depth > (len(terminals) - 1).bit_length():
            bad += 1
            continue
        seen = set()
        for v in terminals:
            others = (terminals - {v}) | {s}
            if cuts[v].cost != min_cut(g, others, {v}, counter).cost:
                bad += 1
            if cuts[v].members & seen:
                bad += 1
            seen |= cuts[v].members
    report("5 isolating cuts", bad == 0, f"200 instances, {bad} failures")


def test_criterion_06_certified_ordered_cuts():
    counter = WorkCounter()
    bad = 0
    for i in range(500):
        rng = random.Random(400_000 + i)
        n = rng.randint(2, 16)
        g = random_graph(rng, n, density=rng.uniform(0.3, 0.9))
        labels = sorted(g.labels)
        rng.shuffle(labels)
        s = labels[0]
        seq = tuple(labels[1: rng.randint(2, len(labels) + 1)])
        if not seq:
            continue
        estimates, certified = certified_ordered_cuts(s, seq, g, counter)
        for v in g.labels:
            if v != s and estimates[v] < min_cut(g, {s}, {v}, counter).cost:
                bad += 1
        seen = set()
        for v, cut in certified.items():
            if cut.cost != min_cut(g, {s}, {v}, counter).cost:
                bad += 1
            if cut.members & seen:
                bad += 1
            seen |= cut.members
    report("6 certified ordered cuts", bad == 0, f"500 instances, {bad} failures")


def test_criterion_07_running_minimum_collapse():
    counter = WorkCounter()
    checked = 0
    bad = 0
    for i in range(500):
        rng = random.Random(500_000 + i)
        n = rng.randint(3, 14)
        g = random_graph(rng, n, density=rng.uniform(0.3, 0.9))
        labels = sorted(g.labels)
        rng.shuffle(labels)
        seq = labels[: rng.randint(3, n)]
        values = [min_cut(g, set(seq[:k]), {seq[k]}, counter).cost
                  for k in range(1, len(seq))]
        for k in range(1, len(values)):
            if values[k] <= min(values[:k]):
                checked += 1
                if values[k] != min_cut(g, {seq[0]}, {seq[k + 1]}, counter).cost:
                    bad += 1
    # 500 sequences; the event count just guards against vacuity.
    report("7 running-minimum collapse", bad == 0 and checked >= 100,
           f"{checked} running minima checked, {bad} mismatches")


def test_criterion_08_perturbation_safety():
    # Connected corpus: a disconnected graph has every separating cut at
    # exact cost 0 in any perturbation, so all-pairs uniqueness is only
    # meaningful on connected instances.
    unsafe = 0
    unique_instances = 0
    total = 100
    for i in range(total):
        rng = random.Random(600_000 + i)
        n = rng.randint(2, 10)
        g = connected_random_graph(rng, n, density=rng.uniform(0.2, 0.8))
        h = perturbed(g, rng)
        all_unique = True
        for s, t in combinations(sorted(g.labels), 2):
            original = set(brute_all_min_cuts(g, {s}, {t}))
            perturbed_sides = brute_all_min_cuts(h, {s}, {t})
            if any(side not in original for side in perturbed_sides):
                unsafe += 1
            if len(perturbed_sides) != 1:
                all_unique = False
        unique_instances += all_unique
    report("8 perturbation safety", unsafe == 0 and unique_instances >= 0.9 * total,
           f"{unsafe} unsafe pairs, {unique_instances}/{total} fully unique")


def test_criterion_09_las_vegas_accounting(method_corpus):
    # The corpus fixture already proves termination within the cap: a
    # cap overrun raises and no tree would have been produced.
    ok = True
    detail = []
    for method in ("oc1", "weak-oc"):
        attempts = [per_method[method][1]["attempts"]
                    for _, per_method in method_corpus]
        med = statistics.median(attempts)
        detail.append(f"{method}: median attempts {med}, max {max(attempts)}")
        if med > 3 or min(attempts) < 1:
            ok = False
    report("9 las-vegas accounting", ok, "; ".join(detail))


def test_criterion_10_engine_vs_oracle():
    counter = WorkCounter()
    bad = 0
    for i in range(1000):
        rng = random.Random(700_000 + i)
        n = rng.randint(2, 12)
        g = random_graph(rng, n, density=rng.uniform(0.3, 0.9))
        s, t = rng.sample(sorted(g.labels), 2)
        res = min_cut(g, {s}, {t}, counter)
        ref = brute_min_cut(g, {s}, {t})
        if res.cost != ref.cost:
            bad += 1
        from ghct.maxflow import latest_min_cut
        latest = latest_min_cut(g, s, t, counter)
        sides = brute_all_min_cuts(g, {s}, {t})
        if latest.members != frozenset.intersection(*sides):
            bad += 1
    report("10 engine vs oracle", bad == 0, f"1000 instances, {bad} mismatches")


def test_criterion_11_deterministic_serialization(method_corpus):
    bad = 0
    for i in range(40):
        rng = random.Random(800_000 + i)
        g = random_graph(rng, rng.randint(1, 20))
        text = write_dimacs(g)
        if write_dimacs(parse_dimacs(text)) != text:
            bad += 1
    reruns = 0
    for i, (g, per_method) in enumerate(method_corpus[:10]):
        for method in METHODS:
            tree_a, stats_a = per_method[method]
            tree_b, stats_b = run_method(g, method, seed=i)
            reruns += 1
            if tree_to_text(tree_a, method, i) != tree_to_text(tree_b, method, i):
                bad += 1
            # Wall time is the one stat that cannot be bit-stable.
            drop = lambda st: {k: v for k, v in st.items() if k != "wall_ms"}
            if drop(stats_a) != drop(stats_b):
                bad += 1
    report("11 deterministic serialization", bad == 0,
           f"40 round-trips + {reruns} re-runs, {bad} mismatches")
