import random

import pytest

from ghct import maxflow
from ghct.generators import grid
from ghct.graph import Cut, Graph, _quotient, cut_cost
from ghct.maxflow import WorkCounter, latest_min_cut, min_cut, min_cut_minimal_sink
from ghct.oracle import brute_all_min_cuts, brute_min_cut

from conftest import perturbed, random_graph, scrambled


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
    chain both ways round (from the sink hub, the paths of one search
    share the weight-1 arc next to the sink).  Each graph comes with unit,
    1-3 and perturbed weights, and with singleton and multi-node terminal
    sides."""
    k34 = Graph(range(1, 8), [(u, v, 1) for u in range(1, 4) for v in range(4, 8)])
    chain, hub = diamond_chain()
    graphs = [(complete_graph(n), 1, n) for n in range(5, 9)]
    graphs += [(k34, 1, 2), (k34, 1, 7), (grid(3, 3, rng, (1, 1)), 1, 9),
               (grid(3, 4, rng, (1, 1)), 1, 12), (chain, 1, hub), (chain, hub, 1)]
    for g, s, t in graphs:
        weighted = Graph(g.labels, [(u, v, rng.randint(1, 3)) for u, v, _ in g.edge_labels()])
        for h in (g, weighted, perturbed(g, rng)):
            yield h, {s}, {t}
            yield (h, *random_sides(rng, h))


def with_pendants(g, anchor, length):
    """(graph, end): g plus a path of `length` new nodes hanging off
    `anchor` by weight-1 edges; `end` is the path's far end.  Every
    minimum cut separating `end` from g cuts the path, so the minimal and
    the maximal sink sides differ once the path has two nodes."""
    labels = sorted(g.labels)
    nxt = labels[-1] + 1
    edges = list(g.edge_labels())
    prev = anchor
    for v in range(nxt, nxt + length):
        edges.append((prev, v, 1))
        prev = v
    return Graph(labels + list(range(nxt, nxt + length)), edges), prev


def closing_cases(rng):
    """(graph, s_side, t_side, closed) on 6-12 nodes where one search tree
    closes first: the backward tree (closed "back") behind a pendant sink
    or sink pair, the forward tree ("front") behind a pendant source or
    source pair.  Bases are K5-K10 and grids with unit or 1-3 weights; the
    far terminal is a base node or a random multi-node side of the base."""
    bases = [complete_graph(n) for n in range(5, 11)]
    bases += [grid(2, 3, rng, (1, 1)), grid(3, 3, rng, (1, 1)), grid(2, 5, rng, (1, 1))]
    for base in bases:
        for g in (base, Graph(base.labels, [(u, v, rng.randint(1, 3))
                                            for u, v, _ in base.edge_labels()])):
            anchor = max(g.labels)
            for length in (1, 2):
                h, end = with_pendants(g, anchor, length)
                far = sorted(g.labels)[:rng.randint(1, len(g.labels) - 1)]
                for other in ({1}, set(rng.sample(far, min(len(far), 3)))):
                    yield h, other, {end}, "back"
                    yield h, {end}, other, "front"


class TestBidirectionalSearch:
    @pytest.fixture
    def searches(self, monkeypatch):
        """Every _grow call as (residual distance before it, its meets'
        path lengths, front, back), distance None when the sink is cut off.
        Each call first checks that no residual capacity is negative; rows
        of None are nodes merged into a terminal, which _max_flow allows."""
        calls = []
        grow = maxflow._grow

        def recording(res, fwd, bwd, source, sink):
            assert all(c >= 0 for arcs in res if arcs is not None for c in arcs.values())
            dist = [-1] * len(res)
            dist[source] = 0
            queue = [source]
            for x in queue:
                for y, c in res[x].items():
                    if c and dist[y] < 0:
                        dist[y] = dist[x] + 1
                        queue.append(y)
            meets, front, back = grow(res, fwd, bwd, source, sink)
            lengths = []
            for x, y in meets:
                length = 1
                while x != source:
                    x, length = fwd[x], length + 1
                while y != sink:
                    y, length = bwd[y], length + 1
                lengths.append(length)
            calls.append((dist[sink] if dist[sink] >= 0 else None, lengths, front, back))
            return meets, front, back

        monkeypatch.setattr(maxflow, "_grow", recording)
        return calls

    @staticmethod
    def check_both_modes(h, s_side, t_side, counter):
        sides = brute_all_min_cuts(h, s_side, t_side)
        cost = brute_min_cut(h, s_side, t_side).cost
        res = min_cut(h, s_side, t_side, counter)
        assert (res.members, res.cost) == (frozenset.union(*sides), cost)
        res = min_cut_minimal_sink(h, s_side, t_side, counter)
        assert (res.members, res.cost) == (frozenset.intersection(*sides), cost)

    def test_closing_tree(self, searches, counter):
        # The search that ends the flow closes the tree the case expects,
        # and both modes still return the maximal and the minimal side.
        rng = random.Random(53)
        for h, s_side, t_side, closed in closing_cases(rng):
            assert 6 <= h.num_nodes <= 12
            searches.clear()
            self.check_both_modes(h, s_side, t_side, counter)
            assert searches[-1][1] == []
            front, back = searches[-1][2:]
            assert not (back if closed == "back" else front)

    def test_meets_close_shortest_paths(self, searches, counter):
        # Every meet of a search closes a path as short as the residual
        # network allows at that moment; the last search finds none.
        rng = random.Random(59)
        cases = [case[:3] for case in closing_cases(rng)]
        cases += list(shared_arc_cases(rng))
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 10))
            cases.append((perturbed(g, rng), *random_sides(rng, g)))
        for h, s_side, t_side in cases:
            searches.clear()
            self.check_both_modes(h, s_side, t_side, counter)
            for dist, lengths, _, _ in searches:
                assert (dist is None) == (not lengths)
                assert all(length == dist for length in lengths)


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
        # A rejected call is no engine work: the counter stays at zero.
        for s_side, t_side in (({1}, {1}), ({9}, {2}), (set(), {2}), ({1, 2}, {2})):
            for solve in (min_cut, min_cut_minimal_sink):
                with pytest.raises(ValueError):
                    solve(tri, s_side, t_side, counter)
        for u, v in ((1, 1), (9, 2)):
            with pytest.raises(ValueError):
                latest_min_cut(tri, u, v, counter)
        assert counter == WorkCounter()

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
            for h in (g, perturbed(g, rng)):  # perturbed: weights about m * n^2 larger
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
            for h in (g, perturbed(g, rng)):
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


class TestGroups:
    """min_cut and min_cut_minimal_sink on (g, adj) are the same calls on
    the contracted graph H that the kept adjacency adj gives, each node of
    H named by one node of g, with sides of one node of H or several.  A
    call with adj takes and returns node indices of g; `labelled` reads
    its cut in g's labels, which are H's."""

    @staticmethod
    def labelled(g, cut):
        return Cut(frozenset(g.labels[x] for x in cut.members), cut.cost)

    @staticmethod
    def kept(g, h):
        """H's adjacency over g's node indices; H's labels are g's labels."""
        index = {lab: i for i, lab in enumerate(g.labels)}
        adj = {index[lab]: {} for lab in h.labels}
        for u, v, w in h.edge_labels():
            adj[index[u]][index[v]] = adj[index[v]][index[u]] = w
        return adj

    @staticmethod
    def random_grouping(rng, g):
        """(H's labels in a random order, g index -> H label): some nodes of
        g stay on their own, the others go to a few groups, and each group
        is named by a random member."""
        group = [i if rng.random() < 0.5 else ("grp", rng.randint(1, 4))
                 for i in range(g.num_nodes)]
        names = {}
        for i in rng.sample(range(g.num_nodes), g.num_nodes):
            names.setdefault(group[i], g.labels[i])
        rep_of = [names[k] for k in group]
        labels = list(dict.fromkeys(rep_of))
        rng.shuffle(labels)
        return labels, rep_of

    def test_matches_quotient(self):
        rng = random.Random(61)
        checked = 0
        for _ in range(300):
            n = rng.randint(2, 12)
            weights = rng.choice((1, 3, 16))
            g = scrambled(rng, Graph(range(1, n + 1), [
                (u, v, rng.randint(0, weights)) for u in range(1, n + 1)
                for v in range(u + 1, n + 1) if rng.random() < rng.random()]))
            labels, rep_of = self.random_grouping(rng, g)
            if len(labels) < 2:
                continue
            h = _quotient(g, labels, rep_of)
            s, t = rng.sample(labels, 2)
            on_h, on_g = WorkCounter(), WorkCounter()
            cut = min_cut(g, g.indices({s}), g.indices({t}), on_g, adj=self.kept(g, h))
            assert self.labelled(g, cut) == min_cut(h, {s}, {t}, on_h)
            assert on_g == on_h
            checked += 1
        assert checked > 250

    def test_multi_node_sides_match_quotient(self):
        # Sides of several nodes of H are merged while H is copied; cut
        # and counter are those of the plain call on H, in both modes.
        rng = random.Random(71)
        checked = 0
        for _ in range(300):
            n = rng.randint(3, 12)
            weights = rng.choice((1, 3, 16))
            g = scrambled(rng, Graph(range(1, n + 1), [
                (u, v, rng.randint(0, weights)) for u in range(1, n + 1)
                for v in range(u + 1, n + 1) if rng.random() < rng.random()]))
            labels, rep_of = self.random_grouping(rng, g)
            if len(labels) < 3:
                continue
            h = _quotient(g, labels, rep_of)
            adj = self.kept(g, h)
            picked = rng.sample(labels, len(labels))
            k = rng.randint(1, len(picked) - 1)
            s_side = set(picked[:k])
            t_side = set(picked[k:rng.randint(k + 1, len(picked))])
            for solve in (min_cut, min_cut_minimal_sink):
                on_h, on_g = WorkCounter(), WorkCounter()
                cut = solve(g, g.indices(s_side), g.indices(t_side), on_g, adj=adj)
                assert self.labelled(g, cut) == solve(h, s_side, t_side, on_h)
                assert on_g == on_h
            assert adj == self.kept(g, h)  # the caller's adjacency is only copied
            checked += max(len(s_side), len(t_side)) > 1
        assert checked > 150

    def test_identity_grouping_is_the_plain_call(self):
        # Where the two counting rules meet they agree: a call on a kept
        # graph records its adjacency entries / 2, a plain one g's edges.
        rng = random.Random(67)
        for _ in range(300):
            n = rng.randint(2, 12)
            g = scrambled(rng, Graph(range(1, n + 1), [
                (u, v, rng.randint(0, 5)) for u in range(1, n + 1)
                for v in range(u + 1, n + 1) if rng.random() < rng.random()]))
            s, t = rng.sample(g.labels, 2)
            plain, kept = WorkCounter(), WorkCounter()
            cut = min_cut(g, g.indices({s}), g.indices({t}), kept, adj=self.kept(g, g))
            assert self.labelled(g, cut) == min_cut(g, {s}, {t}, plain)
            assert kept == plain

    def test_rejects_bad_groups(self, tri, counter):
        # Unknown, empty and overlapping sides, and sides holding a node of
        # g that is no node of H, are rejected; a rejected call is no
        # engine work: the counter stays at zero.  Labels 1, 2, 3 are node
        # indices 0, 1, 2, and index 3 is no node of tri.
        pair = _quotient(tri, (1, 3), (1, 1, 3))  # 2 lies inside node 1
        adj = self.kept(tri, pair)
        for s_side, t_side in (({0}, {3}), ({0}, {1}), ({1}, {2}), (set(), {2}),
                               ({0}, set()), ({0}, {0}), ({0, 1}, {2}), ({2}, {0, 1}),
                               ({0, 2}, {2})):
            for solve in (min_cut, min_cut_minimal_sink):
                with pytest.raises(ValueError):
                    solve(tri, s_side, t_side, counter, adj=adj)
        assert counter == WorkCounter()
        assert self.labelled(tri, min_cut(tri, {0}, {2}, counter, adj=adj)) == min_cut(
            pair, {1}, {3}, WorkCounter())

    def test_accepts_multi_node_sides(self, counter):
        # Path 1-2-3-4 with 2 merged into 1: H is 1-3-4, and {1, 4} against
        # {3} cuts both of 3's edges.  Labels 1-4 are node indices 0-3.
        p4 = Graph([1, 2, 3, 4], [(1, 2, 5), (2, 3, 2), (3, 4, 7)])
        h = _quotient(p4, (1, 3, 4), (1, 1, 3, 4))
        adj = self.kept(p4, h)
        cut = self.labelled(p4, min_cut_minimal_sink(p4, {0, 3}, {2}, counter, adj=adj))
        assert cut == min_cut_minimal_sink(h, {1, 4}, {3}, WorkCounter()) == Cut(frozenset({3}), 9)
        assert min_cut(p4, {2}, {0, 3}, counter, adj=adj) == Cut(frozenset({0, 3}), 9)
        assert (counter.calls, counter.nodes_total, counter.edges_total) == (2, 6, 4)


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
