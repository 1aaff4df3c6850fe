import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghct.graph import (
    Graph,
    GraphFormatError,
    contract,
    contract_kept,
    contract_set_to_node,
    cut_cost,
    forced_min_cut,
    parse_dimacs,
    write_dimacs,
)
from ghct.isolating import isolating_cuts, isolating_cuts_with_depth
from ghct.maxflow import WorkCounter, min_cut, min_cut_minimal_sink
from ghct.octree import ordered_cuts, validate
from ghct.oracle import brute_all_min_cuts

from conftest import random_graph, scrambled


class TestConstruction:
    def test_parallel_edges_merge(self):
        g = Graph([1, 2], [(1, 2, 2), (2, 1, 3)])
        assert g.num_edges == 1
        assert g.edge_labels() == [(1, 2, 5)]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph([1, 2], [(1, 1, 3)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Graph([1, 2], [(1, 2, -1)])

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError):
            Graph([1, 1], [])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Graph([], [])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError):
            Graph([1, 2], [(1, 3, 1)])


class TestCutCost:
    def test_single_edge(self, g2):
        assert cut_cost(g2, {2}) == 5

    def test_triangle_pair_side(self, tri):
        assert cut_cost(tri, {2, 3}) == 3

    def test_triangle_singleton(self, tri):
        assert cut_cost(tri, {2}) == 4

    def test_rejects_empty_and_full(self, tri):
        with pytest.raises(ValueError):
            cut_cost(tri, set())
        with pytest.raises(ValueError):
            cut_cost(tri, {1, 2, 3})

    def test_symmetry_random(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 10))
            k = rng.randint(1, g.num_nodes - 1)
            side = set(rng.sample(list(g.labels), k))
            assert cut_cost(g, side) == cut_cost(g, g.node_set - side)

    def test_submodularity_random(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 10))
            labels = list(g.labels)
            a = {v for v in labels if rng.random() < 0.5}
            b = {v for v in labels if rng.random() < 0.5}
            sides = [a, b, a & b, a | b]
            if any(not s or len(s) == g.num_nodes for s in sides):
                continue
            assert (cut_cost(g, a) + cut_cost(g, b)
                    >= cut_cost(g, a & b) + cut_cost(g, a | b))


class TestContract:
    def test_triangle_block(self, tri):
        got = contract(tri, {2, 3}, 2)
        assert got.node_set == {2, 3}
        assert got.edge_labels() == [(2, 3, 5)]

    def test_identity(self, tri):
        assert contract(tri, {1, 2, 3}, 1) == tri

    def test_path_skip_middle(self, p3):
        got = contract(p3, {1, 3}, 1)
        assert got.node_set == {1, 3}
        assert got.edge_labels() == [(1, 3, 2)]

    def test_requires_s_in_keep(self, tri):
        with pytest.raises(ValueError):
            contract(tri, {2, 3}, 1)

    def test_preserves_inner_cut_costs(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_graph(rng, rng.randint(4, 10))
            labels = list(g.labels)
            keep = set(rng.sample(labels, rng.randint(2, g.num_nodes - 1)))
            s = rng.choice(sorted(keep))
            sub = contract(g, keep, s)
            inner = keep - {s}
            if not inner:
                continue
            side = set(rng.sample(sorted(inner), rng.randint(1, len(inner))))
            assert cut_cost(sub, side) == cut_cost(g, side)

    def test_equals_constructor_on_relabelled_edges(self):
        # contract merges parallel edges on its own keys; the result must be
        # what the public constructor builds from the relabelled edges, with
        # the same labels and the same edges in the same order.
        rng = random.Random(5)
        for _ in range(80):
            g = scrambled(rng, random_graph(rng, rng.randint(2, 12), density=rng.random()))
            keep = set(rng.sample(g.labels, rng.randint(1, g.num_nodes)))
            s = rng.choice(sorted(keep, key=repr))
            rep = {v: v if v in keep else s for v in g.labels}
            kept = [v for v in g.labels if v in keep]
            got = contract(g, keep, s)
            assert got == Graph(kept, [(rep[u], rep[v], w) for u, v, w in g.edge_labels()
                                       if rep[u] != rep[v]])
            pos = {v: i for i, v in enumerate(kept)}
            merged = {}
            for u, v, w in g.edge_labels():
                a, b = sorted((pos[rep[u]], pos[rep[v]]))
                if a != b:
                    merged[a, b] = merged.get((a, b), 0) + w
            assert got.edges == tuple((a, b, w) for (a, b), w in sorted(merged.items()))


def labelled(g, adj):
    """adj over g's node indices, as {label: {label: weight}}."""
    lab = g.labels
    return {lab[x]: {lab[y]: w for y, w in nbrs.items()} for x, nbrs in adj.items()}


def fresh_adjacency(g):
    adj = {v: {} for v in g.labels}
    for u, v, w in g.edge_labels():
        adj[u][v] = adj[v][u] = w
    return adj


def sparse_graph(rng):
    """Two random parts with no edge between them, weights from 0."""
    n = rng.randint(2, 12)
    cut = rng.randint(1, n)
    edges = [(u, v, rng.randint(0, rng.choice((1, 5))))
             for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if (u <= cut) == (v <= cut) and rng.random() < rng.random()]
    return scrambled(rng, Graph(range(1, n + 1), edges))


class TestContractKept:
    def test_equals_contract(self):
        # Node set, weights and edge count are contract's, weight-0 edges
        # included, and contracting the result again matches contracting
        # contract's graph again.
        rng = random.Random(7)
        for _ in range(200):
            g = sparse_graph(rng)
            adj = g.adjacency
            keep = set(rng.sample(g.labels, rng.randint(1, g.num_nodes)))
            s = rng.choice(sorted(keep, key=repr))
            got = contract_kept(adj, g.indices(keep), g.indices([s]).pop())
            want = contract(g, keep, s)
            assert labelled(g, got) == fresh_adjacency(want)
            assert sum(map(len, got.values())) // 2 == want.num_edges
            assert labelled(g, adj) == fresh_adjacency(g)
            again = set(rng.sample(sorted(keep, key=repr), rng.randint(1, len(keep))))
            t = rng.choice(sorted(again, key=repr))
            got = contract_kept(got, g.indices(again), g.indices([t]).pop())
            assert labelled(g, got) == fresh_adjacency(contract(want, again, t))

    def test_whole_keep_returns_the_adjacency(self, tri):
        adj = tri.adjacency
        assert contract_kept(adj, {0, 1, 2}, 1) is adj
        assert tri.adjacency is adj  # built once


class TestForcedMinCut:
    @staticmethod
    def kept_sides(rng, free):
        """(g, adj, h, s_side, t_side): a random kept graph adj of g, the
        same graph h as a Graph, and random disjoint sides of its nodes
        leaving `free` nodes outside both."""
        while True:
            g = sparse_graph(rng)
            if g.num_nodes >= free + 2:
                break
        keep = rng.sample(g.labels, rng.randint(free + 2, g.num_nodes))
        s = rng.choice(keep)
        adj = contract_kept(g.adjacency, g.indices(keep), g.indices([s]).pop())
        h = contract(g, keep, s)
        sided = keep[:]
        rng.shuffle(sided)
        sided = sided[:len(sided) - free]
        k = rng.randint(1, len(sided) - 1)
        return g, adj, h, set(sided[:k]), set(sided[k:])

    @pytest.mark.parametrize("free", [0, 1])
    def test_equals_the_intersection_of_all_minimum_cuts(self, free):
        # Weight-0 edges and disconnected parts make ties common, and the
        # sides hold several nodes as often as one.
        rng = random.Random(157 + free)
        grown = multi = 0
        for _ in range(300):
            g, adj, h, s_side, t_side = self.kept_sides(rng, free)
            cut = forced_min_cut(adj, g.indices(s_side), g.indices(t_side))
            members = {g.labels[x] for x in cut.members}
            assert members == frozenset.intersection(*brute_all_min_cuts(h, s_side, t_side))
            assert cut.cost == cut_cost(h, members)
            engine = min_cut_minimal_sink(g, g.indices(s_side), g.indices(t_side),
                                          WorkCounter(), adj=adj)
            assert cut == engine
            grown += len(members) > len(t_side)
            multi += len(s_side) > 1 and len(t_side) > 1
        assert multi > 50
        assert grown > 50 if free else grown == 0

    def test_two_free_nodes_return_none(self):
        rng = random.Random(163)
        for _ in range(100):
            g, adj, _, s_side, t_side = self.kept_sides(rng, rng.randint(2, 4))
            assert forced_min_cut(adj, g.indices(s_side), g.indices(t_side)) is None

    def test_two_node_ordered_cuts_make_no_engine_call(self):
        for w in (0, 1, 7):
            g = Graph(["a", "b"], [("a", "b", w)])
            counter = WorkCounter()
            tree = ordered_cuts(("b", "a"), g, counter)
            assert counter == WorkCounter()
            assert tree.costs == {"a": w}
            assert validate(tree, g)


class TestAdjacencyUnchanged:
    def test_readers_leave_it_as_built(self):
        # The engine, ordered_cuts, validate and isolating_cuts read the
        # cached adjacency and never write to it.
        rng = random.Random(11)
        counter = WorkCounter()
        for _ in range(60):
            g = sparse_graph(rng)
            if g.num_nodes < 3:
                continue
            labels = sorted(g.labels, key=repr)
            rng.shuffle(labels)
            k = rng.randint(1, len(labels) - 1)
            min_cut(g, set(labels[:k]), set(labels[k:]), counter)
            tree = ordered_cuts(labels[:rng.randint(1, len(labels))], g, counter)
            assert validate(tree, g, counter)
            isolating_cuts(labels[0], set(labels[1:rng.randint(2, len(labels))]), g, counter)
            assert labelled(g, g.adjacency) == fresh_adjacency(g)


# Every public entry point that names nodes, called with one node its graph
# lacks, x, beside two nodes it has, a and b.
MISSING_NODE_CALLS = {
    "min_cut-source": lambda g, a, b, x, c, adj: min_cut(g, {x}, {b}, c, adj=adj),
    "min_cut-sink": lambda g, a, b, x, c, adj: min_cut(g, {a}, {x}, c, adj=adj),
    "minimal_sink-source": lambda g, a, b, x, c, adj: min_cut_minimal_sink(g, {x}, {b}, c, adj=adj),
    "minimal_sink-sink": lambda g, a, b, x, c, adj: min_cut_minimal_sink(g, {a}, {x}, c, adj=adj),
    "ordered_cuts": lambda g, a, b, x, c, adj: ordered_cuts((a, x), g, c, adj=adj),
    "isolating-source": lambda g, a, b, x, c, adj: isolating_cuts(x, {b}, g, c, adj=adj),
    "isolating-terminal": lambda g, a, b, x, c, adj: isolating_cuts(a, {b, x}, g, c, adj=adj),
    "with_depth-source": lambda g, a, b, x, c, adj: isolating_cuts_with_depth(x, {b}, g, c, adj),
    "with_depth-terminal":
        lambda g, a, b, x, c, adj: isolating_cuts_with_depth(a, {b, x}, g, c, adj),
}


@pytest.mark.parametrize("call", MISSING_NODE_CALLS.values(), ids=list(MISSING_NODE_CALLS))
@pytest.mark.parametrize("form", ["labels", "adj-merged", "adj-foreign"])
def test_a_missing_node_raises_value_error(form, call):
    # On the path 1-2-3-4, a label call names label 9, which is no node of
    # g.  An adj= call names node 3 (label 4), which the kept graph merges
    # into node 2 (label 3), or 9, which is no node index of g.  No call
    # records any work.
    g = Graph([1, 2, 3, 4], [(1, 2, 5), (2, 3, 4), (3, 4, 3)])
    counter = WorkCounter()
    kept = {0: {1: 5}, 1: {0: 5, 2: 4}, 2: {1: 4}}
    if form == "labels":
        args = (1, 2, 9, counter, None)
    else:
        args = (0, 1, 3 if form == "adj-merged" else 9, counter, kept)
    with pytest.raises(ValueError):
        call(g, *args)
    assert counter == WorkCounter()


class TestContractSetToNode:
    def test_triangle(self, tri):
        got = contract_set_to_node(tri, {2, 3}, "z")
        assert got.node_set == {1, "z"}
        assert got.edge_labels() == [(1, "z", 3)]

    def test_singleton_identity(self, g2):
        assert contract_set_to_node(g2, {2}, 2) == g2

    def test_path_prefix(self, p3):
        got = contract_set_to_node(p3, {1, 2}, "a")
        assert got.node_set == {"a", 3}
        assert sorted(got.edge_labels()) == [(3, "a", 2)] or got.edge_labels() == [("a", 3, 2)]

    def test_label_collision_rejected(self, tri):
        with pytest.raises(ValueError):
            contract_set_to_node(tri, {2, 3}, 1)


class TestDimacs:
    def test_parse_simple(self, g2):
        assert parse_dimacs("p ghct 2 1\ne 1 2 5\n") == g2

    def test_write_canonical(self, tri):
        assert write_dimacs(tri) == "p ghct 3 3\ne 1 2 1\ne 1 3 2\ne 2 3 3\n"

    def test_duplicate_lines_merge(self):
        g = parse_dimacs("p ghct 2 2\ne 1 2 2\ne 2 1 3\n")
        assert g.edge_labels() == [(1, 2, 5)]

    def test_roundtrip_byte_identical(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 12))
            text = write_dimacs(g)
            assert write_dimacs(parse_dimacs(text)) == text

    def test_comments_ignored(self):
        g = parse_dimacs("c hello\np ghct 2 1\nc mid\ne 1 2 5\n")
        assert g.num_edges == 1

    @pytest.mark.parametrize("text,line", [
        ("p ghct x 1\ne 1 2 5\n", 1),
        ("e 1 2 5\n", 1),
        ("p ghct 2 1\ne 1 3 5\n", 2),
        ("p ghct 2 1\ne 1 2 -5\n", 2),
        ("p ghct 2 1\ne 1 1 5\n", 2),
        ("p ghct 2 2\ne 1 2 5\n", 2),
        ("q ghct 2 1\n", 1),
        ("c rejected before any label is built\np ghct 1000000000 0\n", 2),
    ])
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(GraphFormatError) as err:
            parse_dimacs(text)
        assert err.value.line_no == line

    def test_write_requires_canonical_labels(self):
        g = Graph([5, 7], [(5, 7, 1)])
        with pytest.raises(ValueError):
            write_dimacs(g)


@given(st.integers(2, 9), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_cut_symmetry_property(n, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n)
    side = {v for v in g.labels if rng.random() < 0.5}
    if not side or len(side) == n:
        side = {next(iter(g.labels))}
    assert cut_cost(g, side) == cut_cost(g, g.node_set - side)


@given(st.text(alphabet="pce 0123456789-\n\t", max_size=200))
@settings(max_examples=200, deadline=None)
def test_parser_total_error_handling(text):
    # Arbitrary junk either parses or raises the typed format error,
    # never anything else.
    try:
        g = parse_dimacs(text)
    except GraphFormatError:
        return
    assert g.num_nodes >= 1
