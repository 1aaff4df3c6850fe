import random

import pytest

from ghct.graph import contract, cut_cost
from ghct.maxflow import WorkCounter, min_cut
from ghct.octree import (
    OCTree,
    certified_source_cuts,
    certifying_prefix,
    compose_trees,
    covering_cut_costs,
    flatten_to_star,
    format_oc_tree,
    ordered_cuts,
    remove_leaf,
    splice_trees,
    validate,
)
from ghct.oracle import verify_oc1

from conftest import connected_random_graph, random_graph


@pytest.fixture
def tri_tree():
    """Valid tree for sequence (1, 2, 3) on the triangle fixture."""
    return OCTree((1, 2, 3), {2: 1, 3: 2},
                  {1: {1}, 2: {2}, 3: {3}})


def random_sequence(rng, g, max_len=None):
    labels = sorted(g.labels)
    rng.shuffle(labels)
    top = max_len or len(labels)
    return tuple(labels[: rng.randint(1, min(top, len(labels)))])


class TestDownSet:
    def test_chain(self, tri_tree):
        assert tri_tree.down_set(2) == {2, 3}
        assert tri_tree.down_set(3) == {3}

    def test_root_covers_everything(self, tri_tree):
        assert tri_tree.down_set(1) == {1, 2, 3}

    def test_unknown_node(self, tri_tree):
        with pytest.raises(ValueError):
            tri_tree.down_set(9)


class TestValidate:
    def test_valid_tree(self, tri, tri_tree):
        assert validate(tri_tree, tri)

    def test_broken_partition_reported(self, tri):
        broken = OCTree((1, 2), {2: 1}, {1: {1, 3}, 2: {2, 3}}, check=False)
        result = validate(broken, tri)
        assert not result
        assert result.reason

    def test_wrong_cut_cost(self, tri):
        bad = OCTree((1, 2), {2: 1}, {1: {1, 3}, 2: {2}})
        result = validate(bad, tri)
        assert not result
        assert "costs 4" in result.reason

    def test_counts_flows_in_counter(self, tri, tri_tree):
        c = WorkCounter()
        validate(tri_tree, tri, c)
        assert c.calls == 2


class TestRemoveLeaf:
    def test_merges_into_parent(self, tri_tree):
        got = remove_leaf(tri_tree, 3)
        assert got.order == (1, 2)
        assert got.blocks[2] == {2, 3}
        assert got.parent == {2: 1}

    def test_two_node_tree(self, g2):
        tree = OCTree((1, 2), {2: 1}, {1: {1}, 2: {2}})
        got = remove_leaf(tree, 2)
        assert got.order == (1,)
        assert got.blocks[1] == {1, 2}

    def test_internal_node_rejected(self, tri_tree):
        with pytest.raises(ValueError):
            remove_leaf(tri_tree, 2)
        with pytest.raises(ValueError):
            remove_leaf(tri_tree, 1)

    def test_preserves_surviving_down_sets(self):
        rng = random.Random(19)
        for _ in range(25):
            g = random_graph(rng, rng.randint(3, 10))
            seq = random_sequence(rng, g)
            tree = ordered_cuts(seq, g, WorkCounter())
            kids = tree.children()
            leaves = [v for v in tree.order[1:] if not kids[v]]
            if not leaves:
                continue
            u = rng.choice(leaves)
            smaller = remove_leaf(tree, u)
            for w in smaller.order:
                assert smaller.down_set(w) == tree.down_set(w)

    def test_dropping_last_node_keeps_validity(self):
        # The last sequence node is always a free leaf.
        rng = random.Random(29)
        for _ in range(20):
            g = random_graph(rng, rng.randint(3, 10))
            seq = random_sequence(rng, g)
            if len(seq) < 2:
                continue
            tree = ordered_cuts(seq, g, WorkCounter())
            assert validate(remove_leaf(tree, seq[-1]), g)


class TestCertifyingPrefix:
    def test_chain(self, tri_tree):
        assert certifying_prefix(tri_tree, 3) == (1, 2)

    def test_star_earliest_child(self):
        tree = OCTree((1, 2, 3), {2: 1, 3: 1}, {1: {1}, 2: {2}, 3: {3}})
        assert certifying_prefix(tree, 2) == (1,)
        assert certifying_prefix(tree, 3) == (1, 2)

    def test_always_starts_at_root(self):
        rng = random.Random(59)
        for _ in range(20):
            g = random_graph(rng, rng.randint(3, 10))
            seq = random_sequence(rng, g)
            tree = ordered_cuts(seq, g, WorkCounter())
            for u in tree.order[1:]:
                assert certifying_prefix(tree, u)[0] == seq[0]

    def test_cut_property_matches_engine(self):
        # The down-set is an exact minimum (prefix)-u cut.
        rng = random.Random(61)
        counter = WorkCounter()
        for _ in range(25):
            g = random_graph(rng, rng.randint(3, 10))
            seq = random_sequence(rng, g)
            tree = ordered_cuts(seq, g, counter)
            for u in tree.order[1:]:
                prefix = certifying_prefix(tree, u)
                expected = min_cut(g, set(prefix), {u}, counter).cost
                assert cut_cost(g, tree.down_set(u)) == expected


class TestCertifiedSourceCuts:
    def test_triangle_chain(self, tri, tri_tree):
        certified = certified_source_cuts(tri_tree, tri)
        assert set(certified) == {2}
        assert certified[2].members == {2, 3}
        assert certified[2].cost == 3

    def test_single_follower_always_certified(self, g2):
        tree = OCTree((1, 2), {2: 1}, {1: {1}, 2: {2}})
        certified = certified_source_cuts(tree, g2)
        assert set(certified) == {2}

    def test_certified_cuts_are_true_source_cuts(self):
        rng = random.Random(67)
        counter = WorkCounter()
        for _ in range(25):
            g = random_graph(rng, rng.randint(3, 10))
            seq = random_sequence(rng, g)
            tree = ordered_cuts(seq, g, counter)
            for u, cut in certified_source_cuts(tree, g).items():
                assert cut.cost == min_cut(g, {seq[0]}, {u}, counter).cost


class TestCoveringCutCosts:
    def test_triangle(self, tri, tri_tree):
        costs = covering_cut_costs(tri_tree, tri)
        assert costs == {2: 3, 3: 3}

    def test_two_nodes(self, g2):
        tree = OCTree((1, 2), {2: 1}, {1: {1}, 2: {2}})
        assert covering_cut_costs(tree, g2) == {2: 5}

    def test_upper_bounds_source_cut_value(self):
        rng = random.Random(71)
        counter = WorkCounter()
        for _ in range(25):
            g = random_graph(rng, rng.randint(3, 10))
            seq = random_sequence(rng, g)
            tree = ordered_cuts(seq, g, counter)
            costs = covering_cut_costs(tree, g)
            for v, bound in costs.items():
                exact = min_cut(g, {seq[0]}, {v}, counter).cost
                assert bound >= exact


class TestComposeSplice:
    def test_identity_composition(self, tri, tri_tree):
        outer = OCTree((1,), {}, {1: {1, 2, 3}})
        got = compose_trees((1, 2, 3), outer, {1: tri_tree})
        assert got == tri_tree

    def test_triangle_composition(self, tri, tri_tree):
        outer = OCTree((1, 2), {2: 1}, {1: {1}, 2: {2, 3}})
        inner_graph = contract(tri, {2, 3}, 2)
        inner = ordered_cuts((2, 3), inner_graph, WorkCounter())
        got = compose_trees((1, 2, 3), outer, {1: OCTree((1,), {}, {1: {1}}),
                                               2: inner})
        assert got == tri_tree

    def test_block_mismatch_rejected(self, tri, tri_tree):
        outer = OCTree((1, 2), {2: 1}, {1: {1}, 2: {2, 3}})
        with pytest.raises(ValueError):
            compose_trees((1, 2, 3), outer, {1: OCTree((1,), {}, {1: {1, 2}}),
                                             2: tri_tree})

    def test_splice_empty_sink_sequence(self, tri):
        src = OCTree((1, 2), {2: 1}, {1: {1}, 2: {2}})
        sink = OCTree((1,), {}, {1: {1, 3}})
        got = splice_trees((1, 2), src, sink)
        assert got.blocks[1] == {1, 3}
        assert got.blocks[2] == {2}

    def test_splice_overlap_rejected(self, tri):
        src = OCTree((1, 2), {2: 1}, {1: {1, 3}, 2: {2}})
        sink = OCTree((1,), {}, {1: {1, 3}})
        with pytest.raises(ValueError):
            splice_trees((1, 2), src, sink)

    def test_splice_random_instances_validate(self):
        # Split a graph along a source-vs-rest minimum cut, solve each side,
        # splice, and check validity of the whole.
        rng = random.Random(73)
        counter = WorkCounter()
        done = 0
        while done < 15:
            g = connected_random_graph(rng, rng.randint(4, 10))
            seq = random_sequence(rng, g)
            if len(seq) < 3:
                continue
            s = seq[0]
            head = seq[1: 1 + rng.randint(1, len(seq) - 2)]
            res = min_cut(g, {s}, set(head), counter)
            sink = res.sink_side
            source_side = g.node_set - sink
            src_tree = ordered_cuts(tuple(v for v in seq if v in source_side),
                                    contract(g, source_side, s), counter)
            sink_seq = (s,) + tuple(v for v in seq[1:] if v in sink)
            sink_tree = ordered_cuts(sink_seq, contract(g, sink | {s}, s), counter)
            got = splice_trees(seq, src_tree, sink_tree)
            assert validate(got, g)
            done += 1


class TestOrderedCuts:
    def test_split_rule(self):
        # A five-node sequence sends three nodes to the head recursion.
        assert (5 + 2) // 2 == 3

    def test_triangle(self, tri):
        tree = ordered_cuts((1, 2, 3), tri, WorkCounter())
        assert tree.down_set(2) == {2, 3}
        assert tree.down_set(3) == {3}

    def test_single_node_sequence(self, tri):
        tree = ordered_cuts((2,), tri, WorkCounter())
        assert tree.blocks[2] == {1, 2, 3}

    def test_rejects_bad_sequences(self, tri):
        with pytest.raises(ValueError):
            ordered_cuts((), tri, WorkCounter())
        with pytest.raises(ValueError):
            ordered_cuts((1, 1), tri, WorkCounter())
        with pytest.raises(ValueError):
            ordered_cuts((1, 9), tri, WorkCounter())

    def test_outputs_validate_on_random_instances(self):
        rng = random.Random(79)
        counter = WorkCounter()
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 14))
            seq = random_sequence(rng, g, max_len=10)
            tree = ordered_cuts(seq, g, counter)
            assert validate(tree, g, counter)

    def test_prefix_cuts_match_brute_enumeration(self):
        # Independent of the flow engine: every prefix cut checked by
        # exhaustive enumeration.
        from ghct.oracle import brute_min_cut

        rng = random.Random(97)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 9))
            seq = random_sequence(rng, g)
            tree = ordered_cuts(seq, g, WorkCounter())
            for k, v in enumerate(seq):
                if k == 0:
                    continue
                expected = brute_min_cut(g, set(seq[:k]), {v}).cost
                assert cut_cost(g, tree.down_set(v)) == expected


class TestFlattenToStar:
    def test_triangle_chain(self, tri, tri_tree):
        part = flatten_to_star(tri_tree)
        assert part.reps == (2,)
        assert part.blocks[2] == {2, 3}

    def test_already_star_unchanged(self):
        tree = OCTree((1, 2, 3), {2: 1, 3: 1}, {1: {1}, 2: {2}, 3: {3}})
        part = flatten_to_star(tree)
        assert part.reps == (2, 3)
        assert part.blocks[2] == {2}
        assert part.blocks[3] == {3}

    def test_deep_chain_collapses(self):
        tree = OCTree(("s", "a", "b", "c"), {"a": "s", "b": "a", "c": "b"},
                      {"s": {"s"}, "a": {"a"}, "b": {"b"}, "c": {"c"}})
        part = flatten_to_star(tree)
        assert part.reps == ("a",)
        assert part.blocks["a"] == {"a", "b", "c"}

    def test_outputs_satisfy_star_definition(self):
        rng = random.Random(89)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 12))
            seq = random_sequence(rng, g, max_len=8)
            tree = ordered_cuts(seq, g, WorkCounter())
            part = flatten_to_star(tree)
            assert verify_oc1(part, seq, g).ok


def test_format_oc_tree(tri_tree):
    text = format_oc_tree(tri_tree)
    assert text == "1 - | 1\n2 1 | 2\n3 2 | 3\n"
