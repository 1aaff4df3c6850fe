import random

import pytest

from ghct.graph import Graph, cut_cost
from ghct.maxflow import WorkCounter, latest_min_cut, min_cut, min_cut_minimal_sink
from ghct.oracle import brute_all_min_cuts, brute_min_cut

from conftest import random_graph


@pytest.fixture
def counter():
    return WorkCounter()


class TestMinCut:
    def test_triangle(self, tri, counter):
        res = min_cut(tri, {1}, {2}, counter)
        assert res.cost == 3
        assert res.sink_side == {2, 3}

    def test_path_bottleneck(self, p3, counter):
        res = min_cut(p3, {1}, {3}, counter)
        assert res.cost == 2
        assert res.sink_side == {3}

    def test_multi_source(self, tri, counter):
        res = min_cut(tri, {1, 2}, {3}, counter)
        assert res.cost == 5
        assert res.sink_side == {3}

    def test_counter_records_graph_size(self, tri):
        c = WorkCounter()
        min_cut(tri, {1}, {2}, c)
        assert (c.calls, c.nodes_total, c.edges_total) == (1, 3, 3)

    def test_rejects_bad_sides(self, tri, counter):
        with pytest.raises(ValueError):
            min_cut(tri, set(), {2}, counter)
        with pytest.raises(ValueError):
            min_cut(tri, {1, 2}, {2}, counter)

    def test_cost_symmetric_in_sides(self, counter):
        # f(S,T) = f(T,S), and complementing a sink side yields a minimum
        # cut of the reversed instance.
        rng = random.Random(17)
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 10))
            labels = sorted(g.labels)
            k = rng.randint(1, len(labels) - 1)
            s_side = set(labels[:k])
            t_side = set(labels[k:])
            a = min_cut(g, s_side, t_side, counter)
            b = min_cut(g, t_side, s_side, counter)
            assert a.cost == b.cost
            assert cut_cost(g, g.node_set - a.sink_side) == b.cost
            assert cut_cost(g, g.node_set - b.sink_side) == a.cost

    def test_matches_brute_force(self, counter):
        rng = random.Random(23)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 10))
            labels = sorted(g.labels)
            s, t = rng.sample(labels, 2)
            res = min_cut(g, {s}, {t}, counter)
            ref = brute_min_cut(g, {s}, {t})
            assert res.cost == ref.cost
            assert cut_cost(g, res.sink_side) == ref.cost


class TestLatestMinCut:
    def test_triangle_unique(self, tri, counter):
        cut = latest_min_cut(tri, 1, 2, counter)
        assert cut.members == {2, 3}
        assert cut.cost == 3

    def test_single_edge(self, g2, counter):
        assert latest_min_cut(g2, 1, 2, counter).members == {2}

    def test_path(self, p3, counter):
        cut = latest_min_cut(p3, 1, 2, counter)
        assert cut.members == {2, 3}
        assert cut.cost == 3

    def test_rejects_equal_terminals(self, g2, counter):
        with pytest.raises(ValueError):
            latest_min_cut(g2, 1, 1, counter)

    def test_is_inclusion_minimal(self, counter):
        rng = random.Random(31)
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 9))
            u, v = rng.sample(sorted(g.labels), 2)
            cut = latest_min_cut(g, u, v, counter)
            sides = brute_all_min_cuts(g, {u}, {v})
            assert cut.members in sides
            assert cut.members == frozenset.intersection(*sides)

    def test_fixed_source_family_laminar(self, counter):
        rng = random.Random(37)
        for _ in range(20):
            g = random_graph(rng, rng.randint(3, 10))
            labels = sorted(g.labels)
            s = labels[0]
            cuts = [latest_min_cut(g, s, v, counter).members for v in labels[1:]]
            for i, a in enumerate(cuts):
                for b in cuts[i + 1:]:
                    assert not (a & b) or a <= b or b <= a


class TestMinimalSink:
    def test_unique_cut(self, tri, counter):
        assert min_cut_minimal_sink(tri, {1}, {2}, counter).sink_side == {2, 3}

    def test_leaf_isolation(self, counter):
        g = Graph(["c", "a", "b"], [("c", "a", 2), ("c", "b", 3)])
        res = min_cut_minimal_sink(g, {"c", "b"}, {"a"}, counter)
        assert res.sink_side == {"a"}

    def test_path_smallest_side(self, p3, counter):
        assert min_cut_minimal_sink(p3, {1}, {3}, counter).sink_side == {3}

    def test_minimal_among_enumeration(self, counter):
        rng = random.Random(41)
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 9))
            labels = sorted(g.labels)
            rng.shuffle(labels)
            k = rng.randint(1, len(labels) - 1)
            s_side, t_side = set(labels[:k]), set(labels[k:])
            res = min_cut_minimal_sink(g, s_side, t_side, counter)
            sides = brute_all_min_cuts(g, s_side, t_side)
            assert res.sink_side == frozenset.intersection(*sides)

    def test_nested_instance_monotonicity(self, counter):
        # Growing the source side / shrinking the sink side can only
        # shrink the minimal sink side, and it stays inside every minimum
        # sink side of the looser instance.
        rng = random.Random(43)
        for _ in range(40):
            g = random_graph(rng, rng.randint(4, 9))
            labels = sorted(g.labels)
            rng.shuffle(labels)
            s_small = {labels[0]}
            t_big = set(labels[2:])
            t_small = set(rng.sample(sorted(t_big), rng.randint(1, len(t_big))))
            s_big = s_small | {labels[1]} - t_small
            tight = min_cut_minimal_sink(g, s_big, t_small, counter)
            for side in brute_all_min_cuts(g, s_small, t_big):
                assert tight.sink_side <= side


def test_goldberg_running_minimum_property():
    # Whenever the prefix cut value is a running minimum, it collapses to
    # the plain two-terminal value for the first node.
    rng = random.Random(47)
    counter = WorkCounter()
    checked = 0
    for _ in range(60):
        g = random_graph(rng, rng.randint(3, 10))
        labels = sorted(g.labels)
        rng.shuffle(labels)
        seq = labels[: rng.randint(2, len(labels))]
        values = [
            min_cut(g, set(seq[:i]), {seq[i]}, counter).cost
            for i in range(1, len(seq))
        ]
        for k in range(1, len(values)):
            if values[k] <= min(values[:k]):
                direct = min_cut(g, {seq[0]}, {seq[k + 1]}, counter).cost
                assert values[k] == direct
                checked += 1
    assert checked > 20
