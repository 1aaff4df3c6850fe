import random

import pytest

from ghct import octree
from ghct.generators import star
from ghct.graph import Cut, Graph, cut_cost
from ghct.maxflow import WorkCounter, min_cut, min_cut_minimal_sink
from ghct.octree import (
    OCTree,
    certified_source_cuts,
    certifying_prefix,
    covering_cut_costs,
    flatten_to_star,
    format_oc_tree,
    ordered_cuts,
    validate,
)
from ghct.oracle import verify_oc1

from conftest import random_graph


@pytest.fixture
def tri_tree():
    """Valid tree for sequence (1, 2, 3) on the triangle fixture."""
    return OCTree((1, 2, 3), {2: 1, 3: 2},
                  {1: {1}, 2: {2}, 3: {3}}, {2: 3, 3: 5})


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
        broken = OCTree((1, 2), {2: 1}, {1: {1, 3}, 2: {2, 3}}, {2: 3})
        result = validate(broken, tri)
        assert not result
        assert result.reason

    def test_wrong_cut_cost(self, tri):
        bad = OCTree((1, 2), {2: 1}, {1: {1, 3}, 2: {2}}, {2: 4})
        result = validate(bad, tri)
        assert not result
        assert "costs 4" in result.reason

    def test_wrong_recorded_cost(self, tri):
        # Blocks are right; the recorded cost of node 3's down-set {3} is not.
        tree = OCTree((1, 2, 3), {2: 1, 3: 2}, {1: {1}, 2: {2}, 3: {3}}, {2: 3, 3: 6})
        result = validate(tree, tri)
        assert not result
        assert "recorded cost of 3 is 6" in result.reason

    @pytest.mark.parametrize("costs", [{2: 3}, {2: 3, 3: 5, 1: 0}])
    def test_cost_keys_must_be_the_non_root_nodes(self, tri, costs):
        tree = OCTree((1, 2, 3), {2: 1, 3: 2}, {1: {1}, 2: {2}, 3: {3}}, costs)
        assert tree.structural_problem() == (
            "costs must cover exactly the non-root sequence nodes")
        assert not validate(tree, tri)

    def test_counts_flows_in_counter(self, tri, tri_tree):
        c = WorkCounter()
        validate(tri_tree, tri, c)
        assert c.calls == 2


class TestCertifyingPrefix:
    def test_chain(self, tri_tree):
        assert certifying_prefix(tri_tree, 3) == (1, 2)

    def test_star_earliest_child(self):
        tree = OCTree((1, 2, 3), {2: 1, 3: 1}, {1: {1}, 2: {2}, 3: {3}}, {2: 4, 3: 5})
        assert certifying_prefix(tree, 2) == (1,)
        assert certifying_prefix(tree, 3) == (1, 2)

    def test_unknown_node(self, tri_tree):
        with pytest.raises(ValueError, match="9 is not a sequence node"):
            certifying_prefix(tri_tree, 9)

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


def random_labelled_graph(rng, n, density=0.5):
    """Random graph with weights 0-3, labelled by tuples about half the time."""
    labels = [("t", i) for i in range(n)] if rng.random() < 0.5 else list(range(1, n + 1))
    edges = [(labels[i], labels[j], rng.randint(0, 3))
             for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    return Graph(labels, edges)


class TestRecordedCosts:
    def test_costs_and_certified_cuts_match_references(self):
        # Recorded costs against re-costed down-sets, and the one-pass
        # certification against the chain-by-chain certifying_prefix rule.
        rng = random.Random(101)
        for _ in range(120):
            g = random_labelled_graph(rng, rng.randint(2, 14))
            tree = ordered_cuts(random_sequence(rng, g), g, WorkCounter())
            cost = {v: cut_cost(g, tree.down_set(v)) for v in tree.order[1:]}
            assert tree.costs == cost
            expected = {u: Cut(tree.down_set(u), cost[u]) for u in tree.order[1:]
                        if all(cost[w] >= cost[u] for w in certifying_prefix(tree, u)[1:])}
            got = certified_source_cuts(tree)
            assert list(got.items()) == list(expected.items())
            # On the root's children the rule is a running minimum.
            children = [v for v in tree.order[1:] if tree.parent[v] == tree.root]
            star = [v for i, v in enumerate(children)
                    if all(cost[w] >= cost[v] for w in children[:i])]
            assert [u for u in got if tree.parent[u] == tree.root] == star


class TestCertifiedSourceCuts:
    def test_triangle_chain(self, tri_tree):
        certified = certified_source_cuts(tri_tree)
        assert set(certified) == {2}
        assert certified[2].members == {2, 3}
        assert certified[2].cost == 3

    def test_single_follower_always_certified(self):
        tree = OCTree((1, 2), {2: 1}, {1: {1}, 2: {2}}, {2: 5})
        certified = certified_source_cuts(tree)
        assert set(certified) == {2}

    def test_certified_cuts_are_true_source_cuts(self):
        rng = random.Random(67)
        counter = WorkCounter()
        for _ in range(25):
            g = random_graph(rng, rng.randint(3, 10))
            seq = random_sequence(rng, g)
            tree = ordered_cuts(seq, g, counter)
            for u, cut in certified_source_cuts(tree).items():
                assert cut.cost == min_cut(g, {seq[0]}, {u}, counter).cost


class TestCoveringCutCosts:
    def test_triangle(self, tri_tree):
        costs = covering_cut_costs(tri_tree)
        assert costs == {2: 3, 3: 3}

    def test_two_nodes(self):
        tree = OCTree((1, 2), {2: 1}, {1: {1}, 2: {2}}, {2: 5})
        assert covering_cut_costs(tree) == {2: 5}

    def test_upper_bounds_source_cut_value(self):
        rng = random.Random(71)
        counter = WorkCounter()
        for _ in range(25):
            g = random_graph(rng, rng.randint(3, 10))
            seq = random_sequence(rng, g)
            tree = ordered_cuts(seq, g, counter)
            costs = covering_cut_costs(tree)
            for v, bound in costs.items():
                exact = min_cut(g, {seq[0]}, {v}, counter).cost
                assert bound >= exact


class TestOrderedCuts:
    def test_one_target_costs_one_flow(self):
        # A head node whose block holds one tail node keeps the minimal
        # sink side as that node's block instead of cutting again.
        g = star(8, random.Random(0))
        counter = WorkCounter()
        ordered_cuts((1, 2, 3), g, counter)
        assert counter.calls == 2
        counter = WorkCounter()
        tree = ordered_cuts((2, 1), g, counter)
        assert counter.calls == 1
        assert tree.down_set(1) == g.node_set - {2}

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
        # exhaustive enumeration, members against the minimal sink side.
        from ghct.oracle import brute_min_cut

        rng = random.Random(97)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 9))
            seq = random_sequence(rng, g)
            tree = ordered_cuts(seq, g, WorkCounter())
            for k, v in enumerate(seq):
                if k == 0:
                    continue
                expected = brute_min_cut(g, set(seq[:k]), {v})
                assert cut_cost(g, tree.down_set(v)) == expected.cost
                assert tree.down_set(v) == expected.minimal_sink_side


    def test_every_engine_call_goes_through_min_cut_minimal_sink(self, monkeypatch):
        # Tracers count engine work at the public entry point and size it
        # by its first argument, so each counted call must pass through
        # octree's min_cut_minimal_sink name with g first.
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return min_cut_minimal_sink(*args, **kwargs)

        monkeypatch.setattr(octree, "min_cut_minimal_sink", counting)
        rng = random.Random(127)
        total = 0
        for _ in range(60):  # enough draws for > 60 calls: small cuts skip the engine
            g = random_graph(rng, rng.randint(2, 14))
            counter = WorkCounter()
            ordered_cuts(random_sequence(rng, g), g, counter)
            assert len(calls) == counter.calls
            assert all(arg is g for arg in calls)
            total += len(calls)
            calls.clear()
        assert total > 60


def head_lengths(length):
    """The lengths of the chain of heads `_build` solves for a sequence of
    `length` nodes, longest first, down to 2."""
    lengths = []
    while length > 2:
        length = min((length + 2) // 2, length - 1)
        lengths.append(length)
    return lengths


class TestPrefixMemo:
    """`ordered_cuts(..., prefixes=memo)` reuses the trees an earlier call
    with the same memo built for a head prefix or a whole sequence."""

    @staticmethod
    def draw(rng):
        """A graph with weights from 0 that sparse draws leave disconnected."""
        return random_labelled_graph(rng, rng.randint(2, 14), density=rng.random() ** 2)

    @staticmethod
    def sharing(rng, seq, labels):
        """A sequence sharing a random prefix with seq, then going on in
        its own random order; sometimes from another source."""
        k = rng.randint(1, len(seq))
        head = list(seq[:k])
        if rng.random() < 0.3:
            others = [v for v in labels if v not in seq[1:]]
            head[0] = rng.choice(others)
        rest = [v for v in labels if v not in head]
        rng.shuffle(rest)
        return tuple(head + rest[:rng.randint(0, len(rest))])

    def test_shared_memo_equals_fresh_calls(self):
        rng = random.Random(137)
        hits = 0
        for _ in range(150):
            g = self.draw(rng)
            labels = list(g.labels)
            memo = {}
            seqs = [random_sequence(rng, g)]
            for _ in range(6):
                seqs.append(self.sharing(rng, rng.choice(seqs), labels))
            for seq in seqs:
                shared, fresh = WorkCounter(), WorkCounter()
                tree = ordered_cuts(seq, g, shared, prefixes=memo)
                assert tree == ordered_cuts(seq, g, fresh)
                assert shared.calls <= fresh.calls
                hits += shared.calls < fresh.calls
        assert hits > 100

    def test_repeated_chain_prefix_records_less_work(self):
        rng = random.Random(139)
        for _ in range(95):
            g = self.draw(rng)
            labels = list(g.labels)
            # On 3 nodes every cut is read off without a flow, so there is
            # no engine call for a stored prefix to save.
            if len(labels) < 4:
                continue
            rng.shuffle(labels)
            seq = tuple(labels[:rng.randint(3, len(labels))])
            k = rng.choice(head_lengths(len(seq)))
            # Store the prefix alone, or as the head of a sequence that
            # goes on differently, then solve seq.
            memo = {}
            rest = labels[k:]
            rng.shuffle(rest)
            first = seq[:k] + (tuple(rest[:len(seq) - k]) if rng.random() < 0.5 else ())
            ordered_cuts(first, g, WorkCounter(), prefixes=memo)
            shared, fresh = WorkCounter(), WorkCounter()
            tree = ordered_cuts(seq, g, shared, prefixes=memo)
            assert tree == ordered_cuts(seq, g, fresh)
            assert shared.calls < fresh.calls
            assert shared.nodes_total < fresh.nodes_total

    def test_whole_sequence_makes_no_engine_call(self):
        rng = random.Random(149)
        g = random_graph(rng, 10)
        memo = {}
        first = ordered_cuts((3, 1, 7, 2, 9), g, WorkCounter(), prefixes=memo)
        again = WorkCounter()
        assert ordered_cuts((3, 1, 7, 2, 9), g, again, prefixes=memo) == first
        assert again.calls == 0

    def test_stored_entries_hold_no_mutable_set(self):
        # Each stored block is a tuple, so a tree cannot edit the memo
        # through its blocks; a hit rebuilds the same tree.
        rng = random.Random(151)
        for _ in range(30):
            g = self.draw(rng)
            labels = list(g.labels)
            rng.shuffle(labels)
            seq = tuple(labels)
            memo = {}
            first = ordered_cuts(seq, g, WorkCounter(), prefixes=memo)
            entries = [entry for key, entry in memo.items() if key != "graph"]
            assert len(entries) == len(head_lengths(len(seq))) + (len(seq) > 1)
            for entry in entries:
                for _, _, block in entry:
                    assert type(block) is tuple
            again = WorkCounter()
            assert ordered_cuts(seq, g, again, prefixes=memo) == first
            assert first == ordered_cuts(seq, g, WorkCounter())
            assert again.calls == 0

    def test_memo_of_another_graph_raises(self, tri):
        memo = {}
        ordered_cuts((1, 2, 3), tri, WorkCounter(), prefixes=memo)
        twin = Graph(tri.labels, tri.edge_labels())
        with pytest.raises(ValueError, match="prefix memo belongs to another graph"):
            ordered_cuts((1, 2, 3), twin, WorkCounter(), prefixes=memo)
        with pytest.raises(ValueError, match="another graph"):
            ordered_cuts((2, 1), star(4, random.Random(0)), WorkCounter(), prefixes=memo)


class TestFlattenToStar:
    def test_triangle_chain(self, tri, tri_tree):
        assert flatten_to_star(tri_tree) == {2: {2, 3}}

    def test_already_star_unchanged(self):
        tree = OCTree((1, 2, 3), {2: 1, 3: 1}, {1: {1}, 2: {2}, 3: {3}}, {2: 4, 3: 5})
        star = flatten_to_star(tree)
        assert star == {2: {2}, 3: {3}}
        assert list(star) == [2, 3]

    def test_deep_chain_collapses(self):
        tree = OCTree(("s", "a", "b", "c"), {"a": "s", "b": "a", "c": "b"},
                      {"s": {"s"}, "a": {"a"}, "b": {"b"}, "c": {"c"}},
                      {"a": 1, "b": 2, "c": 1})
        assert flatten_to_star(tree) == {"a": {"a", "b", "c"}}

    def test_outputs_satisfy_star_definition(self):
        rng = random.Random(89)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 12))
            seq = random_sequence(rng, g, max_len=8)
            tree = ordered_cuts(seq, g, WorkCounter())
            assert verify_oc1(flatten_to_star(tree), seq, g).ok


def test_format_oc_tree(tri_tree):
    text = format_oc_tree(tri_tree)
    assert text == "1 - | 1\n2 1 | 2\n3 2 | 3\n"
