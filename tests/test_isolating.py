import random

import pytest

from ghct import isolating
from ghct.generators import star
from ghct.graph import Graph
from ghct.isolating import isolating_cuts, isolating_cuts_with_depth
from ghct.maxflow import WorkCounter, min_cut, min_cut_minimal_sink
from ghct.oracle import brute_min_cut

from conftest import random_graph


class TestExamples:
    def test_star_leaves(self):
        g = Graph(["c", "a", "b"], [("c", "a", 2), ("c", "b", 3)])
        cuts = isolating_cuts("c", {"a", "b"}, g, WorkCounter())
        assert cuts["a"].members == {"a"}
        assert cuts["a"].cost == 2
        assert cuts["b"].members == {"b"}
        assert cuts["b"].cost == 3

    def test_lone_right_terminal_costs_no_extra_flow(self):
        # The bipartition cut of a one-terminal right half is that
        # terminal's isolating cut; only the left half needs a flow.
        g = star(8, random.Random(0))
        counter = WorkCounter()
        cuts, depth = isolating_cuts_with_depth(1, {2, 3}, g, counter)
        assert counter.calls == 2
        assert list(cuts) == [2, 3]
        assert {v: cut.members for v, cut in cuts.items()} == {2: {2}, 3: {3}}
        assert depth == 1

    def test_triangle(self, tri):
        cuts = isolating_cuts(1, {2, 3}, g=tri, counter=WorkCounter())
        assert cuts[2].members == {2}
        assert cuts[2].cost == 4
        assert cuts[3].members == {3}
        assert cuts[3].cost == 5

    def test_single_terminal_is_direct_cut(self, p3):
        cuts, depth = isolating_cuts_with_depth(1, {3}, p3, WorkCounter())
        assert depth == 0
        assert cuts[3].members == {3}
        assert cuts[3].cost == 2

    def test_rejects_bad_inputs(self, tri):
        with pytest.raises(ValueError):
            isolating_cuts(1, set(), tri, WorkCounter())
        with pytest.raises(ValueError):
            isolating_cuts(1, {1, 2}, tri, WorkCounter())


class TestRandomInstances:
    def test_matches_direct_flows_and_disjoint(self):
        # Costs against the engine; on graphs small enough to enumerate,
        # members against the minimal sink side.  Unit weights, drawn last,
        # leave many minimum cuts to choose among.
        rng = random.Random(97)
        counter = WorkCounter()
        for i in range(80):
            g = random_graph(rng, rng.randint(3, 16), max_weight=16 if i < 40 else 1)
            labels = sorted(g.labels)
            s = labels[0]
            k = rng.randint(1, min(8, len(labels) - 1))
            terminals = set(rng.sample(labels[1:], k))
            cuts = isolating_cuts(s, terminals, g, counter)
            assert set(cuts) == terminals
            for v in terminals:
                others = (terminals - {v}) | {s}
                expected = min_cut(g, others, {v}, counter).cost
                assert cuts[v].cost == expected
                assert v in cuts[v].members
                assert not cuts[v].members & others
                if g.num_nodes <= 12:
                    assert cuts[v].members == brute_min_cut(g, others, {v}).minimal_sink_side
            seen = set()
            for v in terminals:
                assert not (cuts[v].members & seen)
                seen |= cuts[v].members

    def test_depth_bound(self):
        rng = random.Random(101)
        counter = WorkCounter()
        for _ in range(30):
            g = random_graph(rng, rng.randint(3, 16))
            labels = sorted(g.labels)
            k = rng.randint(1, min(8, len(labels) - 1))
            terminals = set(rng.sample(labels[1:], k))
            _, depth = isolating_cuts_with_depth(labels[0], terminals, g, counter)
            assert depth <= (k - 1).bit_length()

    def test_every_engine_call_goes_through_min_cut_minimal_sink(self, monkeypatch):
        # Tracers count engine work at the public entry point and size it
        # by its first argument, so each counted call must pass through
        # isolating's min_cut_minimal_sink name with g first.
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return min_cut_minimal_sink(*args, **kwargs)

        monkeypatch.setattr(isolating, "min_cut_minimal_sink", counting)
        rng = random.Random(131)
        total = 0
        for _ in range(60):  # enough draws for > 60 calls: small cuts skip the engine
            g = random_graph(rng, rng.randint(3, 14))
            labels = sorted(g.labels)
            k = rng.randint(1, min(8, len(labels) - 1))
            counter = WorkCounter()
            isolating_cuts(labels[0], set(rng.sample(labels[1:], k)), g, counter)
            assert len(calls) == counter.calls
            assert all(arg is g for arg in calls)
            total += len(calls)
            calls.clear()
        assert total > 60
