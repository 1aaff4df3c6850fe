import ast
import json
import random
import types

import pytest

from ghct import oracle
from ghct.generators import erdos_renyi_m, grid
from ghct.ghtree import GHTree, gomory_hu_classic
from ghct.graph import Graph, cut_cost, sorted_labels
from ghct.maxflow import WorkCounter, min_cut
from ghct.oracle import (
    Report,
    brute_all_min_cuts,
    brute_min_cut,
    is_laminar,
    reference_cut_values,
    verify_gh_tree,
    verify_oc1,
)

from conftest import connected_random_graph, random_graph, scrambled


def _pairs(g):
    nodes = sorted_labels(g.labels)
    return [(s, t) for i, s in enumerate(nodes) for t in nodes[i + 1:]]


class TestBruteMinCut:
    def test_triangle(self, tri):
        res = brute_min_cut(tri, {1}, {2})
        assert res.cost == 3
        assert res.num_minimum == 1
        assert res.sink_side == {2, 3}

    def test_single_edge(self, g2):
        assert brute_min_cut(g2, {1}, {2}).cost == 5

    def test_four_cycle_multiple_minima(self):
        # Opposite corners of an unweighted 4-cycle: every sink side
        # {3}, {2,3}, {3,4}, {2,3,4} costs 2.
        g = Graph([1, 2, 3, 4], [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1)])
        res = brute_min_cut(g, {1}, {3})
        assert res.cost == 2
        assert res.num_minimum == 4
        assert res.minimal_sink_side == {3}

    def test_all_min_cuts_have_equal_cost(self):
        rng = random.Random(2)
        g = random_graph(rng, 8)
        sides = brute_all_min_cuts(g, {1}, {8})
        assert len(set(map(frozenset, sides))) == len(sides)

    def test_rejects_large_graphs(self):
        g = Graph(range(1, 25), [(1, 2, 1)])
        with pytest.raises(ValueError):
            brute_min_cut(g, {1}, {2})


class TestVerifyGhTree:
    def test_star_tree_passes(self, tri):
        tree = GHTree((1, 2, 3), ((1, 3, 3), (2, 3, 4)))
        assert verify_gh_tree(tri, tree).ok

    def test_wrong_tree_fails(self, tri):
        # Path 1-2-3 with weights 3, 4: edge (2,3) claims 4, but the
        # induced cut {3} costs 5.
        tree = GHTree((1, 2, 3), ((1, 2, 3), (2, 3, 4)))
        report = verify_gh_tree(tri, tree)
        assert not report.ok
        assert any(v["s"] == 2 and v["t"] == 3 for v in report.violations)

    def test_single_edge_graph(self, g2):
        tree = GHTree((1, 2), ((1, 2, 5),))
        assert verify_gh_tree(g2, tree).ok

    def test_node_set_mismatch(self, tri):
        tree = GHTree((1, 2), ((1, 2, 5),))
        with pytest.raises(ValueError):
            verify_gh_tree(tri, tree)

    @pytest.mark.parametrize("nodes, edges, message", [
        ((1, 2, 3), ((1, 3, 3),), "tree must have exactly n-1 edges"),
        ((1, 2, 3), ((1, 2, 3), (2, 3, 4), (1, 3, 3)), "tree must have exactly n-1 edges"),
        # n-1 edges around a cycle, so node 4 is cut off
        ((1, 2, 3, 4), ((1, 2, 1), (2, 3, 1), (1, 3, 1)), "tree is not connected"),
        ((1, 2, 3), ((1, 2, 3), (2, 9, 4)), "tree edge (2, 9) leaves the tree's nodes"),
    ], ids=["too-few-edges", "too-many-edges", "cycle", "foreign-endpoint"])
    def test_malformed_tree_raises_one_line(self, nodes, edges, message):
        g = Graph(range(1, len(nodes) + 1), [(1, 2, 1)])
        tree = types.SimpleNamespace(nodes=nodes, edges=edges)
        with pytest.raises(ValueError) as exc:
            verify_gh_tree(g, tree)
        assert str(exc.value) == message

    def test_report_serializes(self, tri):
        tree = GHTree((1, 2, 3), ((1, 2, 3), (2, 3, 4)))
        payload = json.loads(verify_gh_tree(tri, tree).to_json())
        assert payload["ok"] is False
        assert payload["violations"]


def _with_zero_weights(rng, n):
    """Random graph whose weights include 0 (a zero edge is no bridge)."""
    edges = [(u, v, rng.randint(0, 3)) for u in range(1, n + 1)
             for v in range(u + 1, n + 1) if rng.random() < 0.4]
    return Graph(range(1, n + 1), edges)


def _two_components(rng, n):
    """Two random halves with no edge between them: lambda 0 across."""
    edges = [(u, v, rng.randint(1, 9)) for u in range(1, n + 1)
             for v in range(u + 1, n + 1)
             if (u <= n // 2) == (v <= n // 2) and rng.random() < 0.5]
    return Graph(range(1, n + 1), edges)


class TestReferenceCutValues:
    """Above the pairwise enumeration limit the table comes from n-1 flows;
    enumeration still runs up to 20 nodes, so it judges the flow path."""

    @pytest.mark.parametrize("make", [
        lambda rng: _with_zero_weights(rng, 13),
        lambda rng: _two_components(rng, 14),
        # scrambled's Random(2) draws tuple labels, ordered by label_key
        lambda rng: scrambled(random.Random(2), random_graph(rng, 15, density=0.15)),
    ], ids=["zero-weights-13", "two-components-14", "sparse-tuple-labels-15"])
    def test_matches_enumeration(self, make):
        g = make(random.Random(13))
        assert g.num_nodes > oracle.MAX_PAIRWISE_ENUM_NODES
        table = reference_cut_values(g)
        assert list(table) == _pairs(g)
        for (s, t), value in table.items():
            assert value == brute_min_cut(g, {s}, {t}).cost, (s, t)

    def test_counts_n_minus_1_flows_on_the_oracle_counter(self, monkeypatch):
        # A benchmark replays verification with oracle.WorkCounter swapped
        # for a shared counter; every engine call must land on it.
        g = connected_random_graph(random.Random(5), 16)
        tree = gomory_hu_classic(g, WorkCounter())
        shared = WorkCounter()
        calls = []

        def counted_min_cut(*args):
            calls.append(args)
            return min_cut(*args)

        monkeypatch.setattr(oracle, "WorkCounter", lambda: shared)
        monkeypatch.setattr(oracle, "min_cut", counted_min_cut)
        assert verify_gh_tree(g, tree).ok
        assert shared.calls == len(calls) == g.num_nodes - 1
        assert shared.nodes_total == (g.num_nodes - 1) * g.num_nodes


def _per_pair_report(g, tree):
    """The verification report with one min_cut per pair as the reference."""
    report = Report("gh-tree")
    for s, t in _pairs(g):
        expected = min_cut(g, {s}, {t}, WorkCounter()).cost
        value, cut = tree.query(s, t)
        induced = cut_cost(g, cut.members)
        if value != expected or induced != expected:
            report.add(s=s, t=t, tree_value=value, expected=expected,
                       induced_cut_cost=induced, cut=cut.members)
    return report


def _bumped(tree, k):
    edges = list(tree.edges)
    u, v, w = edges[k]
    edges[k] = (u, v, w + 1)
    return GHTree(tree.nodes, tuple(edges))


def _u_side(tree, k):
    """The nodes on the first endpoint's side of tree edge k."""
    edges = [e for i, e in enumerate(tree.edges) if i != k]
    side = {tree.edges[k][0]}
    for _ in tree.nodes:
        side |= {b for a, b, _ in edges if a in side} | {a for a, b, _ in edges if b in side}
    return side


def _moved(tree, k):
    """Tree edge k = (u, v, w) reattached from u to another node on u's
    side, so the result is still a spanning tree."""
    edges = list(tree.edges)
    u, v, w = edges.pop(k)
    x = min(_u_side(tree, k) - {u}, key=sorted_labels(tree.nodes).index)
    return GHTree(tree.nodes, tuple(edges + [(x, v, w)]))


class TestVerifyReportIdentity:
    @pytest.mark.parametrize("make", [
        lambda rng: connected_random_graph(rng, 14),
        lambda rng: scrambled(rng, connected_random_graph(rng, 13, density=0.3)),
        lambda rng: grid(4, 4, rng),
    ], ids=["random-14", "scrambled-13", "grid-4x4"])
    def test_reports_match_per_pair_reference(self, make, monkeypatch):
        g = make(random.Random(7))
        tree = gomory_hu_classic(g, WorkCounter())
        k = next(k for k in range(len(tree.edges)) if len(_u_side(tree, k)) > 1)
        moved = _moved(tree, k)
        for candidate in (tree, _bumped(tree, 0), moved):
            expected = _per_pair_report(g, candidate)
            assert candidate is tree or not expected.ok
            assert verify_gh_tree(g, candidate).to_json() == expected.to_json()

        reference = {}
        first = verify_gh_tree(g, moved, reference)
        assert set(reference) == set(_pairs(g))

        def no_engine(*args):
            raise AssertionError("engine called with a full reference")

        monkeypatch.setattr(oracle, "min_cut", no_engine)
        assert verify_gh_tree(g, moved, reference).to_json() == first.to_json()


class TestVerifyReadsOnlyTreeEdges:
    """The oracle judges a tree from its nodes and edges alone: it runs no
    code of the tree, and its pair loop does no per-pair graph work."""

    def test_reports_without_calling_the_tree(self, monkeypatch):
        g = connected_random_graph(random.Random(7), 14)
        tree = gomory_hu_classic(g, WorkCounter())
        k = next(k for k in range(len(tree.edges)) if len(_u_side(tree, k)) > 1)
        candidates = (tree, _bumped(tree, 0), _moved(tree, k))
        expected = [_per_pair_report(g, c).to_json() for c in candidates]

        def no_query(*args):
            raise AssertionError("the oracle called the tree it judges")

        monkeypatch.setattr(GHTree, "query", no_query)
        for candidate, report in zip(candidates, expected):
            assert verify_gh_tree(g, candidate).to_json() == report
            plain = types.SimpleNamespace(nodes=candidate.nodes, edges=candidate.edges)
            assert verify_gh_tree(g, plain).to_json() == report

    def test_n_minus_1_flows_and_at_most_n_minus_1_cut_costs(self, monkeypatch):
        g = erdos_renyi_m(40, 160, random.Random(3))
        tree = gomory_hu_classic(g, WorkCounter())
        flows, costs = [], []

        def counted_min_cut(*args):
            flows.append(args)
            return min_cut(*args)

        def counted_cut_cost(*args):
            costs.append(args)
            return cut_cost(*args)

        monkeypatch.setattr(oracle, "min_cut", counted_min_cut)
        monkeypatch.setattr(oracle, "cut_cost", counted_cut_cost)
        assert verify_gh_tree(g, tree).ok
        assert len(flows) == g.num_nodes - 1
        assert 0 < len(costs) <= g.num_nodes - 1


def test_oracle_imports_none_of_the_algorithms_it_judges():
    with open(oracle.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rsplit(".", 1)[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    assert not imported & {"ghtree", "pipeline", "octree", "isolating"}


class TestIsLaminar:
    def test_nested_and_disjoint(self):
        assert is_laminar([{1}, {1, 2}, {3}])

    def test_crossing(self):
        assert not is_laminar([{1, 2}, {2, 3}])

    def test_empty(self):
        assert is_laminar([])


class TestVerifyOc1:
    def test_valid_partition(self, tri):
        assert verify_oc1({2: frozenset({2, 3})}, (1, 2, 3), tri).ok

    def test_wrong_block_cost(self, tri):
        report = verify_oc1({2: frozenset({2})}, (1, 2, 3), tri)
        assert not report.ok
        assert any(v["condition"] == "block-minimality" for v in report.violations)

    def test_uncovered_node(self, tri):
        report = verify_oc1({3: frozenset({3})}, (1, 2, 3), tri)
        assert not report.ok
        assert any(v["condition"] == "coverage" and v["node"] == 2
                   for v in report.violations)

    def test_empty_sequence_vacuous(self, g2):
        assert verify_oc1({}, (1,), g2).ok
