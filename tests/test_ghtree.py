import copy
import random

import pytest

from ghct import ghtree
from ghct.ghtree import (
    GHTree,
    PartitionTree,
    StrategyError,
    auxiliary_graph,
    gomory_hu_classic,
    gomory_hu_generalized,
)
from ghct.graph import Graph, cut_cost, label_key, sorted_labels
from ghct.maxflow import WorkCounter, min_cut, min_cut_minimal_sink
from ghct.oracle import verify_gh_tree
from ghct.pipeline import gh_via_oc1, gh_via_weak_oc

from conftest import kept_cost, random_graph, scrambled


def branches(tree, xi):
    """{node of g outside supernode xi: the tree neighbour of xi whose
    branch holds it}, walked over `tree.edges` alone."""
    adj = {i: [] for i in range(len(tree.supernodes))}
    for i, j, _ in tree.edges:
        adj[i].append(j)
        adj[j].append(i)
    branch = {}
    for nb in adj[xi]:
        stack, seen = [nb], {xi, nb}
        while stack:
            k = stack.pop()
            branch.update((x, nb) for x in tree.supernodes[k])
            stack += [j for j in adj[k] if j not in seen]
            seen.update(adj[k])
    return branch


def splittable(tree):
    return {i for i, sn in enumerate(tree.supernodes) if len(sn) > 1}


def check_kept(g, tree, xi):
    """Assert that the graph the tree keeps for supernode xi is g with
    every branch off xi contracted to one node, once each kept node is
    renamed to its own member or to the branch it lies on.  A contracted
    edge exists if any edge it merges does, so weight-0 edges count."""
    branch = branches(tree, xi)

    def name(x):
        return ("branch", branch[x]) if x in branch else ("member", x)

    expected = {name(x): {} for x in range(g.num_nodes)}
    for u, v, w in g.edges:
        a, b = name(u), name(v)
        if a != b:
            expected[a][b] = expected[b][a] = expected[a].get(b, 0) + w
    kept = tree.kept[xi]
    names = {x: name(x) for x in kept}
    assert len(set(names.values())) == len(names)
    assert {names[x]: {names[y]: w for y, w in nbrs.items()}
            for x, nbrs in kept.items()} == expected


def weight_zero_draw(rng, n):
    """A scrambled graph with weights from 0; sparse draws leave it
    disconnected."""
    g = scrambled(rng, random_graph(rng, n, density=rng.random() ** 2,
                                    max_weight=rng.choice((1, 4))))
    return Graph(g.labels, [(u, v, w - 1) for u, v, w in g.edge_labels()])


class TestPartitionTree:
    def test_works_over_node_indices(self):
        # Labels scrambled against g's node order: supernodes hold indices
        # in label order, and rank is each index's place in that order.
        g = Graph(["c", "a", "b"], [("c", "a", 1), ("a", "b", 2)])
        tree = PartitionTree(g)
        assert tree.supernodes == [[1, 2, 0]]
        assert tree.rank == [2, 0, 1]
        tree.split(0, {0}, 1)
        assert tree.supernodes == [[1, 2], [0]]
        assert tree.ends == [(1, 0)]
        assert list(tree.neighbours(0)) == [0]
        assert list(tree.neighbours(1)) == [1]

    @pytest.mark.parametrize("xi, side", [(0, set()), (0, {0, 1, 2}), (0, {2}), (0, {0, 1}),
                                          (0, {0, 9}), (1, {2})],
                             ids=["empty", "every-node", "branch-only", "every-member",
                                  "foreign-node", "singleton"])
    def test_bad_side_changes_nothing(self, p3, xi, side):
        # After one split, supernode 0 holds nodes 0 and 1 (labels 1, 2),
        # node 2 (label 3) is the branch node of its one edge, and
        # supernode 1 is the singleton of node 2.
        tree = PartitionTree(p3)
        tree.split(0, {2}, 2)
        state = copy.deepcopy({k: v for k, v in vars(tree).items() if k != "g"})
        with pytest.raises(ValueError, match="side must hold some but not all"):
            tree.split(xi, side, 0)
        assert {k: v for k, v in vars(tree).items() if k != "g"} == state


class TestAuxiliaryGraph:
    def test_single_supernode_is_identity(self, tri):
        tree = PartitionTree(tri)
        h, nodes = auxiliary_graph(tree, 0)
        assert h is tree.kept[0]
        assert h == tri.adjacency
        assert nodes == [0, 1, 2]

    def test_path_one_branch(self, p3):
        tree = PartitionTree(p3)
        tree.split(0, {2}, 2)
        h, nodes = auxiliary_graph(tree, 0)
        assert len(h) == 3
        assert nodes == [0, 1, 2]  # labels 1 and 2, then the branch node of label 3
        assert h == {0: {1: 3}, 1: {0: 3, 2: 2}, 2: {1: 2}}

    def test_star_of_branches(self):
        g = Graph(range(1, 6), [(1, 2, 1), (1, 3, 2), (1, 4, 3), (1, 5, 4)])
        tree = PartitionTree(g)
        for x, w in ((1, 1), (2, 2), (3, 3)):
            tree.split(0, {x}, w)
        h, nodes = auxiliary_graph(tree, 0)
        assert len(h) == 5
        assert nodes == [0, 4, 1, 2, 3]
        assert [g.labels[x] for x in nodes[:2]] == [1, 5]
        for i, w in ((2, 1), (3, 2), (4, 3)):
            assert kept_cost(h, {nodes[i]}) == w
        # No driver asks a singleton for its auxiliary graph.
        with pytest.raises(ValueError, match="fewer than two members"):
            auxiliary_graph(tree, 1)

    def test_branches_preserve_cut_costs(self):
        # Contracting the far side of a tree edge keeps costs of cuts
        # inside the supernode.
        g = Graph(range(1, 6),
                  [(1, 2, 2), (2, 3, 1), (3, 4, 4), (4, 5, 1), (2, 5, 3)])
        tree = PartitionTree(g)
        tree.split(0, {3, 4}, 4)
        h, nodes = auxiliary_graph(tree, 0)
        assert nodes[3] == 3  # the branch node: label 4, b's first member
        assert kept_cost(h, {nodes[3]}) == cut_cost(g, {4, 5})
        assert kept_cost(h, {0}) == cut_cost(g, {1})
        assert kept_cost(h, {0, 1}) == cut_cost(g, {1, 2})

    def test_equals_reference_on_random_trees(self):
        # Random splits build the partition tree, each along a random side
        # of the kept graph: a subset of its nodes, members and branch
        # nodes alike, holding at least one member and not all.  Exactly
        # the edges whose branch node is in the side move, every kept graph
        # is its supernode's auxiliary graph, and the auxiliary graph must
        # be g's edges with every branch behind a tree neighbour of xi
        # merged into its branch node.
        rng = random.Random(13)
        for _ in range(60):
            g = scrambled(rng, random_graph(rng, rng.randint(2, 12), density=rng.random()))
            tree = PartitionTree(g)
            for _ in range(rng.randint(0, g.num_nodes - 1)):
                xi = rng.randrange(len(tree.supernodes))
                members = tree.supernodes[xi]
                if len(members) < 2:
                    continue
                side = set(rng.sample(members, rng.randint(1, len(members) - 1)))
                side.update(x for x in tree.neighbours(xi) if rng.random() < 0.5)
                assert side <= tree.kept[xi].keys()
                incident = list(tree.incident[xi])
                moved = [e for e, y in zip(incident, tree.neighbours(xi)) if y in side]
                k = len(tree.edges)
                tree.split(xi, side, 0)
                assert tree.incident[-1] == moved + [k]
                assert tree.incident[xi] == [e for e in incident if e not in moved] + [k]
                assert set(tree.kept) == splittable(tree)
                for i in tree.kept:
                    check_kept(g, tree, i)
            owner = {}
            for i, sn in enumerate(tree.supernodes):
                assert [g.labels[x] for x in sn] == sorted_labels(g.labels[x] for x in sn)
                assert [tree.rank[x] for x in sn] == sorted(tree.rank[x] for x in sn)
                owner.update(dict.fromkeys(sn, i))
            assert sorted(owner) == list(range(g.num_nodes))
            assert sum(map(len, tree.supernodes)) == g.num_nodes
            assert [g.labels[x] for x in sorted(owner, key=tree.rank.__getitem__)] == list(
                g.label_order)
            for i, incident in enumerate(tree.incident):
                assert incident == [k for k, (a, b, _) in enumerate(tree.edges) if i in (a, b)]
            for k, (a, b, _) in enumerate(tree.edges):
                # The component of the tree without edge k that holds a.
                side, stack = {a}, [a]
                while stack:
                    x = stack.pop()
                    for e, (i, j, _) in enumerate(tree.edges):
                        y = j if i == x else i if j == x else None
                        if e != k and y is not None and y not in side:
                            side.add(y)
                            stack.append(y)
                assert b not in side
                assert owner[tree.ends[k][0]] in side
                assert owner[tree.ends[k][1]] not in side
            keys = [(-len(sn), min(label_key(g.labels[x]) for x in sn))
                    for sn in tree.supernodes]
            big = [i for i, sn in enumerate(tree.supernodes) if len(sn) > 1]
            assert tree.pick_supernode() == min(big, key=keys.__getitem__, default=None)

            for xi in set(range(len(tree.supernodes))) - splittable(tree):
                with pytest.raises(ValueError, match="fewer than two members"):
                    auxiliary_graph(tree, xi)
            if not big:
                continue
            xi = rng.choice(big)
            h, nodes = auxiliary_graph(tree, xi)
            assert h is tree.kept[xi]
            m = len(tree.supernodes[xi])
            assert nodes[:m] == sorted(tree.supernodes[xi])
            branch = branches(tree, xi)
            assert [branch[y] for y in nodes[m:]] == [j if i == xi else i for i, j, _ in tree.edges
                                                      if xi in (i, j)]
            assert len(set(nodes)) == len(nodes)
            node_of = {branch[y]: y for y in nodes[m:]}
            rep = [node_of[branch[x]] if x in branch else x for x in range(g.num_nodes)]
            expected = {x: {} for x in nodes}
            for u, v, w in g.edges:
                a, b = rep[u], rep[v]
                if a != b:
                    expected[a][b] = expected[b][a] = expected[a].get(b, 0) + w
            assert h == expected


class TestClassic:
    def test_single_edge(self, g2):
        tree = gomory_hu_classic(g2, WorkCounter())
        assert tree.edges == ((1, 2, 5),)

    def test_triangle_star(self, tri):
        tree = gomory_hu_classic(tri, WorkCounter())
        assert tree.edges == ((1, 3, 3), (2, 3, 4))

    def test_path_is_its_own_tree(self, p3):
        tree = gomory_hu_classic(p3, WorkCounter())
        assert tree.edges == ((1, 2, 3), (2, 3, 2))

    def test_single_node(self):
        tree = gomory_hu_classic(Graph([1]), WorkCounter())
        assert tree.nodes == (1,)
        assert tree.edges == ()

    def test_trees_of_one_graph_share_their_nodes(self):
        # A caller keeping many trees of one graph keeps one node tuple.
        g = scrambled(random.Random(5), random_graph(random.Random(5), 9))
        first, second = (gomory_hu_classic(g, WorkCounter()) for _ in range(2))
        assert first.nodes == tuple(sorted_labels(g.labels))
        assert first.nodes is second.nodes is g.label_order

    def test_passes_oracle_on_random_instances(self):
        rng = random.Random(103)
        counter = WorkCounter()
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 14))
            tree = gomory_hu_classic(g, counter)
            assert verify_gh_tree(g, tree).ok

    @staticmethod
    def reference(g, counter, depth_stats):
        """Classic built on graphs: each step cuts the auxiliary graph H,
        built as a Graph whose labels are its kept nodes, and costs the cut
        in H."""
        tree = PartitionTree(g)
        while (xi := tree.pick_supernode()) is not None:
            s, t = tree.supernodes[xi][:2]
            kept, _ = auxiliary_graph(tree, xi)
            h = Graph(kept, [(x, y, w) for x, nbrs in kept.items()
                             for y, w in nbrs.items() if x < y])
            total_nodes, total_edges = depth_stats.get(tree.depth[xi], (0, 0))
            depth_stats[tree.depth[xi]] = [total_nodes + h.num_nodes,
                                           total_edges + h.num_edges]
            cut = min_cut(h, {s}, {t}, counter).members
            tree.split(xi, cut, cut_cost(h, cut))
            tree.depth[xi] += 1
        return tree.finish()

    def test_equals_auxiliary_graph_reference(self):
        # Classic keeps each supernode's H as an adjacency and never
        # builds it as a graph; tree, counter and depth_stats must be those
        # of cutting the auxiliary graph H itself.
        rng = random.Random(109)
        for _ in range(120):
            n = rng.randint(1, 16)
            weights = rng.choice((1, 4, 16))
            g = scrambled(rng, Graph(range(1, n + 1), [
                (u, v, rng.randint(0, weights)) for u in range(1, n + 1)
                for v in range(u + 1, n + 1) if rng.random() < rng.random()]))
            counter, depth_stats = WorkCounter(), {}
            ref_counter, ref_depth_stats = WorkCounter(), {}
            assert (gomory_hu_classic(g, counter, depth_stats=depth_stats)
                    == self.reference(g, ref_counter, ref_depth_stats))
            assert counter == ref_counter
            assert depth_stats == ref_depth_stats

    def test_every_engine_call_goes_through_min_cut(self, monkeypatch):
        # Tracers count engine work at the public entry point, so each
        # counted call must pass through ghtree's min_cut name.
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return min_cut(*args, **kwargs)

        monkeypatch.setattr(ghtree, "min_cut", counting)
        rng = random.Random(113)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 14))
            counter = WorkCounter()
            gomory_hu_classic(g, counter)
            assert len(calls) == counter.calls == g.num_nodes - 1
            assert all(arg is g for arg in calls)
            calls.clear()

    def test_kept_graph_is_the_auxiliary_graph(self, monkeypatch):
        # At every step the graph classic cuts is the one the tree keeps
        # for the supernode, and it is that supernode's auxiliary graph
        # (check_kept); weights from 0 and sparse draws give weight-0 edges
        # and disconnected graphs.
        trees, steps = [], []

        class Recording(PartitionTree):
            def __init__(self, g):
                super().__init__(g)
                trees.append(self)

        def checking(g, s_side, t_side, counter, adj):
            tree = trees[-1]
            xi, = (i for i, sn in enumerate(tree.supernodes) if s_side <= set(sn))
            assert adj is tree.kept[xi]
            assert set(tree.kept) == splittable(tree)
            check_kept(g, tree, xi)
            steps.append(xi)
            return min_cut(g, s_side, t_side, counter, adj=adj)

        monkeypatch.setattr(ghtree, "PartitionTree", Recording)
        monkeypatch.setattr(ghtree, "min_cut", checking)
        rng = random.Random(127)
        for _ in range(150):
            n = rng.randint(1, 16)
            g = weight_zero_draw(rng, n)
            steps.clear()
            assert verify_gh_tree(g, gomory_hu_classic(g, WorkCounter())).ok
            assert len(steps) == n - 1

    def test_depth_accounting(self):
        # Per recursion depth the auxiliary graphs stay within a small
        # multiple of the input size (measured constant, asserted as a
        # regression tripwire).
        rng = random.Random(107)
        for _ in range(10):
            g = random_graph(rng, rng.randint(6, 16), density=0.7)
            depth_stats = {}
            gomory_hu_classic(g, WorkCounter(), depth_stats=depth_stats)
            for nodes, edges in depth_stats.values():
                assert nodes <= 3 * g.num_nodes + 2
                assert edges <= 2 * g.num_edges + g.num_nodes


class TestTreeQuery:
    def test_triangle_star_query(self, tri):
        tree = gomory_hu_classic(tri, WorkCounter())
        value, cut = tree.query(1, 2)
        assert value == 3
        assert cut.members == {2, 3}
        assert cut_cost(tri, cut.members) == 3

    def test_single_edge_query(self, g2):
        tree = GHTree((1, 2), ((1, 2, 5),))
        value, cut = tree.query(1, 2)
        assert value == 5
        assert cut.members == {2}

    def test_query_cost_symmetric(self):
        rng = random.Random(109)
        for _ in range(10):
            g = random_graph(rng, rng.randint(2, 10))
            tree = gomory_hu_classic(g, WorkCounter())
            labels = sorted(g.labels)
            for _ in range(5):
                s, t = rng.sample(labels, 2)
                assert tree.query(s, t)[0] == tree.query(t, s)[0]

    def test_rejects_equal_endpoints(self, g2):
        tree = GHTree((1, 2), ((1, 2, 5),))
        with pytest.raises(ValueError):
            tree.query(1, 1)

    @staticmethod
    def random_tree(rng, n):
        labels = list(range(n)) if rng.random() < 0.5 else [(rng.choice("bv"), v) for v in range(n)]
        rng.shuffle(labels)
        edges = []
        for i in range(1, n):
            u, v = labels[rng.randrange(i)], labels[i]
            if rng.random() < 0.5:
                u, v = v, u
            edges.append((u, v, rng.choice((1, 2, 3))))
        rng.shuffle(edges)
        return labels, edges

    def test_matches_brute_reference_with_ties(self):
        # With weights in {1, 2, 3} most paths hold tied minimum edges: the
        # query must pick the one nearest s, and its members must be t's
        # component once that edge is removed.
        rng = random.Random(127)
        for _ in range(80):
            labels, edges = self.random_tree(rng, rng.randint(2, 15))
            tree = GHTree(tuple(labels), tuple(edges))
            adj = {v: [] for v in labels}
            for k, (u, v, w) in enumerate(edges):
                adj[u].append((v, k))
                adj[v].append((u, k))

            def component(start, removed):
                seen, stack = {start}, [start]
                while stack:
                    for y, k in adj[stack.pop()]:
                        if k != removed and y not in seen:
                            seen.add(y)
                            stack.append(y)
                return seen

            for s in labels:
                back = {s: None}
                stack = [s]
                while stack:
                    x = stack.pop()
                    for y, k in adj[x]:
                        if y not in back:
                            back[y] = (x, k)
                            stack.append(y)
                for t in labels:
                    if t == s:
                        continue
                    path = []  # edge indices from s to t
                    x = t
                    while back[x] is not None:
                        x, k = back[x]
                        path.append(k)
                    path.reverse()
                    low = min(edges[k][2] for k in path)
                    nearest = next(k for k in path if edges[k][2] == low)
                    value, cut = tree.query(s, t)
                    assert value == cut.cost == low
                    assert cut.members == component(t, nearest)

    def test_forest_is_not_connected(self):
        rng = random.Random(131)
        for _ in range(20):
            labels, edges = self.random_tree(rng, rng.randint(2, 15))
            u, v, _ = edges.pop(rng.randrange(len(edges)))
            tree = GHTree(tuple(labels), tuple(edges))
            with pytest.raises(ValueError, match="tree is not connected"):
                tree.query(u, v)


# Second-step families for test_invalid_family_raises on the path 1-2-3-4,
# whose labels are node indices 0-3: source 2 (node 1), supernode {2, 3, 4}
# (nodes {1, 2, 3}), and one branch node (the side holding 1, node 0).
BAD_FAMILIES = {
    "empty-family": (lambda h, x: [], "empty family"),
    "cut-holds-source": (lambda h, x: [{1, 2}], "minus the source"),
    "empty-cut": (lambda h, x: [set()], "empty cut"),
    "no-supernode-member": (lambda h, x: [h.keys() - x], "supernode member"),
    "crossing-pair": (lambda h, x: [{2, 3}, {3} | (h.keys() - x)], "disjoint"),
    "nested-pair": (lambda h, x: [{3}, {2, 3}], "disjoint"),
}


# Second-step sources for test_invalid_source_raises, with a family that
# passes every other check.
BAD_SOURCES = {
    "branch-source": (lambda h, x: (next(iter(h.keys() - x)), [x])),
    "foreign-source": (lambda h, x: ("nowhere", [{2}])),
}


class TestGeneralized:
    def test_single_cut_strategy_matches_classic_step(self, tri):
        # A strategy returning one pivot cut behaves exactly like the
        # classic algorithm.
        counter = WorkCounter()

        def strategy(h, nodes, x):
            s, t = x[0], x[1]
            res = min_cut(tri, {s}, {t}, counter, adj=h)
            return s, [res.members]

        tree = gomory_hu_generalized(tri, strategy)
        assert tree.edges == gomory_hu_classic(tri, WorkCounter()).edges

    def test_triangle_explicit_family(self, tri):
        def strategy(h, nodes, x):
            if x == [0, 1, 2]:  # labels 1, 2, 3
                return 0, [frozenset({1, 2})]
            res = min_cut(tri, {x[0]}, {x[1]}, WorkCounter(), adj=h)
            return x[0], [res.members]

        tree = gomory_hu_generalized(tri, strategy)
        assert verify_gh_tree(tri, tree).ok
        assert (1, 3, 3) in tree.edges

    @pytest.mark.parametrize("bad, reason", BAD_FAMILIES.values(), ids=list(BAD_FAMILIES))
    def test_invalid_family_raises(self, bad, reason):
        # Path 1-2-3-4: a pivot cut first splits off {2, 3, 4}; the second
        # step's family breaks the contract and is rejected without a retry.
        g = Graph([1, 2, 3, 4], [(1, 2, 5), (2, 3, 4), (3, 4, 3)])
        calls = []

        def strategy(h, nodes, x):
            calls.append(x)
            if 0 in x:
                return 0, [min_cut(g, {0}, {1}, WorkCounter(), adj=h).members]
            return 1, bad(h, set(x))

        with pytest.raises(StrategyError, match=reason):
            gomory_hu_generalized(g, strategy)
        assert len(calls) == 2

    @pytest.mark.parametrize("bad", BAD_SOURCES.values(), ids=list(BAD_SOURCES))
    def test_invalid_source_raises(self, bad):
        # Path 1-2-3-4 as above: a second-step source outside the
        # supernode {2, 3, 4} is rejected without a retry.
        g = Graph([1, 2, 3, 4], [(1, 2, 5), (2, 3, 4), (3, 4, 3)])
        calls = []

        def strategy(h, nodes, x):
            calls.append(x)
            if 0 in x:
                return 0, [min_cut(g, {0}, {1}, WorkCounter(), adj=h).members]
            return bad(h, set(x))

        with pytest.raises(StrategyError, match="source is not a supernode member"):
            gomory_hu_generalized(g, strategy)
        assert len(calls) == 2

    @staticmethod
    def random_family(rng, g):
        """A strategy returning a random family of disjoint minimum cuts:
        the inclusion-minimal sink sides of minimum s-t cuts for a random
        source s, taken in random order while disjoint from those taken."""
        def strategy(h, nodes, x):
            s, *targets = rng.sample(x, len(x))
            family = []
            for t in targets[:rng.randint(1, len(targets))]:
                cut = min_cut_minimal_sink(g, {s}, {t}, WorkCounter(), adj=h).members
                if not any(cut & c for c in family):
                    family.append(cut)
            return s, family

        return strategy

    def test_kept_graph_is_the_auxiliary_graph(self, monkeypatch):
        # At every step of the generalized driver, under a random
        # multi-cut strategy, oc1 and weak-oc, the graph the tree keeps
        # for the supernode refined is its auxiliary graph (check_kept).
        steps = []

        def checking(tree, xi):
            assert set(tree.kept) == splittable(tree)
            check_kept(tree.g, tree, xi)
            steps.append(xi)
            return auxiliary_graph(tree, xi)

        monkeypatch.setattr(ghtree, "auxiliary_graph", checking)
        rng = random.Random(131)
        methods = (
            lambda g: gomory_hu_generalized(g, self.random_family(rng, g)),
            lambda g: gh_via_oc1(g, rng, WorkCounter()),
            lambda g: gh_via_weak_oc(g, rng, WorkCounter()),
        )
        for k in range(60):
            g = weight_zero_draw(rng, rng.randint(1, 12))
            steps.clear()
            assert verify_gh_tree(g, methods[k % 3](g)).ok
            assert len(steps) >= (g.num_nodes > 1)

    def test_family_costs_in_one_pass(self):
        # Per cut of a random disjoint family of kept nodes: its cut_cost
        # in the graph.
        rng = random.Random(157)
        for _ in range(150):
            g = weight_zero_draw(rng, rng.randint(2, 14))
            nodes = list(range(g.num_nodes))
            rng.shuffle(nodes)
            cuts, start = [], 1  # nodes[0] is the source, in no cut
            while start < len(nodes) and rng.random() < 0.8:
                end = rng.randint(start + 1, len(nodes))
                cuts.append(frozenset(nodes[start:end]))
                start = end
            costs = ghtree._family_costs(g.adjacency, cuts)
            assert costs == [cut_cost(g, {g.labels[x] for x in cut}) for cut in cuts]

    def test_supernodes_stay_a_partition(self):
        # Exercised implicitly by finish(); spot-check on random graphs
        # by confirming every produced tree spans the node set.
        rng = random.Random(113)
        counter = WorkCounter()

        def strategy(g):
            def pivot(h, nodes, x):
                s, t = rng.sample(x, 2)
                res = min_cut(g, {s}, {t}, counter, adj=h)
                return s, [res.members]
            return pivot

        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 12))
            tree = gomory_hu_generalized(g, strategy(g))
            assert set(tree.nodes) == set(g.labels)
            assert len(tree.edges) == g.num_nodes - 1
            assert verify_gh_tree(g, tree).ok
