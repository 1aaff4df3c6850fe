import json
import random

import pytest

from ghct.ghtree import GHTree
from ghct.graph import Graph
from ghct.oracle import (
    brute_all_min_cuts,
    brute_min_cut,
    is_laminar,
    verify_gh_tree,
    verify_oc1,
)

from conftest import random_graph


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

    def test_report_serializes(self, tri):
        tree = GHTree((1, 2, 3), ((1, 2, 3), (2, 3, 4)))
        payload = json.loads(verify_gh_tree(tri, tree).to_json())
        assert payload["ok"] is False
        assert payload["violations"]


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
