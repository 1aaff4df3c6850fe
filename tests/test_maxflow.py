import random

import pytest

from ghct.generators import grid
from ghct.graph import Graph, cut_cost
from ghct.maxflow import WorkCounter, latest_min_cut, min_cut, min_cut_minimal_sink
from ghct.oracle import brute_all_min_cuts, brute_min_cut
from ghct.pipeline import perturb

from conftest import random_graph


@pytest.fixture
def counter():
    return WorkCounter()


def random_sides(rng, g):
    """Disjoint multi-node terminal sides that leave at least one node free."""
    labels = sorted(g.labels)
    rng.shuffle(labels)
    k = rng.randint(1, len(labels) - 2)
    j = rng.randint(k + 1, len(labels) - 1)
    return set(labels[:k]), set(labels[k:j])


def complete_graph(n):
    nodes = range(1, n + 1)
    return Graph(nodes, [(u, v, 1) for u in nodes for v in nodes if u < v])


def diamond_chain(links=3, width=3):
    """(graph, sink): source 1 reaches hub 2 over one weight-1 edge; each
    hub fans out to `width` middle nodes that meet again at the next hub,
    and the last hub is the sink.  A disjoint path of the same length runs
    beside the chain.  Every search-tree path through the middle nodes
    crosses the edge (1, 2), so once one of them is augmented the others
    of the same search have zero residual."""
    edges = [(1, 2, 1)]
    hub, nxt = 2, 3
    for _ in range(links):
        new_hub = nxt + width
        for m in range(nxt, new_hub):
            edges += [(hub, m, 2), (m, new_hub, 2)]
        hub, nxt = new_hub, new_hub + 1
    prev = 1
    for _ in range(2 * links):
        edges.append((prev, nxt, 2))
        prev, nxt = nxt, nxt + 1
    edges.append((prev, hub, 2))
    return Graph(range(1, nxt), edges), hub


def shared_arc_cases(rng):
    """(graph, s_side, t_side) on graphs with many equal-length s-t paths
    that share arcs: K5-K8, K_{3,4}, the 3x3 and 3x4 grids and a diamond
    chain.  Each graph comes with unit, 1-3 and perturbed weights, and
    with singleton and multi-node terminal sides."""
    k34 = Graph(range(1, 8), [(u, v, 1) for u in range(1, 4) for v in range(4, 8)])
    chain, hub = diamond_chain()
    graphs = [(complete_graph(n), 1, n) for n in range(5, 9)]
    graphs += [(k34, 1, 2), (k34, 1, 7), (grid(3, 3, rng, (1, 1)), 1, 9),
               (grid(3, 4, rng, (1, 1)), 1, 12), (chain, 1, hub)]
    for g, s, t in graphs:
        weighted = Graph(g.labels, [(u, v, rng.randint(1, 3)) for u, v, _ in g.edge_labels()])
        for h in (g, weighted, perturb(g, rng)):
            yield h, {s}, {t}
            yield (h, *random_sides(rng, h))


class TestMinCut:
    def test_triangle(self, tri, counter):
        res = min_cut(tri, {1}, {2}, counter)
        assert res.cost == 3
        assert res.members == {2, 3}

    def test_path_bottleneck(self, p3, counter):
        res = min_cut(p3, {1}, {3}, counter)
        assert res.cost == 2
        assert res.members == {3}

    def test_multi_source(self, tri, counter):
        res = min_cut(tri, {1, 2}, {3}, counter)
        assert res.cost == 5
        assert res.members == {3}

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
            assert cut_cost(g, g.node_set - a.members) == b.cost
            assert cut_cost(g, g.node_set - b.members) == a.cost

    def test_matches_brute_force(self, counter):
        rng = random.Random(23)
        for _ in range(60):
            g = random_graph(rng, rng.randint(3, 10))
            s_side, t_side = random_sides(rng, g)
            for h in (g, perturb(g, rng)):  # perturbed: weights about m * n^2 larger
                res = min_cut(h, s_side, t_side, counter)
                ref = brute_min_cut(h, s_side, t_side)
                assert res.cost == ref.cost
                assert cut_cost(h, res.members) == ref.cost
                sides = brute_all_min_cuts(h, s_side, t_side)
                assert res.members == frozenset.union(*sides)
        for h, s_side, t_side in shared_arc_cases(rng):
            res = min_cut(h, s_side, t_side, counter)
            assert res.cost == brute_min_cut(h, s_side, t_side).cost
            assert cut_cost(h, res.members) == res.cost
            assert res.members == frozenset.union(*brute_all_min_cuts(h, s_side, t_side))


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
        assert min_cut_minimal_sink(tri, {1}, {2}, counter).members == {2, 3}

    def test_leaf_isolation(self, counter):
        g = Graph(["c", "a", "b"], [("c", "a", 2), ("c", "b", 3)])
        res = min_cut_minimal_sink(g, {"c", "b"}, {"a"}, counter)
        assert res.members == {"a"}

    def test_path_smallest_side(self, p3, counter):
        assert min_cut_minimal_sink(p3, {1}, {3}, counter).members == {3}

    def test_minimal_among_enumeration(self, counter):
        rng = random.Random(41)
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 9))
            s_side, t_side = random_sides(rng, g)
            for h in (g, perturb(g, rng)):
                res = min_cut_minimal_sink(h, s_side, t_side, counter)
                sides = brute_all_min_cuts(h, s_side, t_side)
                assert res.members == frozenset.intersection(*sides)
        for h, s_side, t_side in shared_arc_cases(rng):
            res = min_cut_minimal_sink(h, s_side, t_side, counter)
            assert res.cost == brute_min_cut(h, s_side, t_side).cost
            assert cut_cost(h, res.members) == res.cost
            assert res.members == frozenset.intersection(*brute_all_min_cuts(h, s_side, t_side))

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
                assert tight.members <= side


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
