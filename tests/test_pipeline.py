import math
import random
import statistics

import pytest

from ghct import pipeline
from ghct.generators import cycle, erdos_renyi_m, star
from ghct.graph import Cut, Graph, cut_cost
from ghct.isolating import isolating_cuts
from ghct.maxflow import WorkCounter, min_cut
from ghct.oracle import brute_all_min_cuts, is_laminar, verify_gh_tree
from ghct.pipeline import (
    AttemptLimitError,
    _weighted_degrees,
    PipelineStats,
    certified_ordered_cuts,
    fixed_source_blocks,
    fixed_source_laminar,
    gh_via_oc1,
    gh_via_weak_oc,
    partition_schedule,
    perturb,
    random_subset,
    select_source_oc1,
    select_source_weak,
    source_schedule,
)

from conftest import connected_random_graph, kept_cost, perturbed, random_graph, scrambled, \
    whole


class TestPerturb:
    def test_scale_formula(self, g2):
        # n=2, m=1: offsets below 4, scale 4, so the weight lands in [20, 24).
        for seed in range(10):
            got = perturb(g2.adjacency, [0, 1], random.Random(seed))
            w = got[0][1]
            assert 20 <= w < 24

    def test_original_weight_recoverable(self):
        rng = random.Random(5)
        g = random_graph(rng, 8)
        scale = g.num_edges * g.num_nodes ** 2
        got = perturb(g.adjacency, range(g.num_nodes), rng)
        for u, v, w in g.edges:
            assert got[u][v] // scale == w

    def test_minimum_cuts_stay_minimum(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 8))
            got = perturbed(g, rng)
            labels = sorted(g.labels)
            s, t = rng.sample(labels, 2)
            original = set(brute_all_min_cuts(g, {s}, {t}))
            for side in brute_all_min_cuts(got, {s}, {t}):
                assert side in original

    def test_edgeless_graph_passthrough(self):
        h = Graph([1, 2]).adjacency
        assert perturb(h, [0, 1], random.Random(0)) is h


class TestRandomSubset:
    def test_rate_one_returns_everything(self):
        assert random_subset({1, 2, 3}, 1.0, random.Random(0)) == {1, 2, 3}

    def test_mean_size(self):
        rng = random.Random(1)
        sizes = [len(random_subset(range(100), 0.3, rng)) for _ in range(200)]
        assert 25 < sum(sizes) / len(sizes) < 35

    def test_fixed_seed_reproducible(self):
        a = random_subset(range(50), 0.4, random.Random(9))
        b = random_subset(range(50), 0.4, random.Random(9))
        assert a == b

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            random_subset({1}, 0.0, random.Random(0))


class TestSchedules:
    def test_partition_schedule_shape(self):
        for size in (1, 2, 5, 23, 100):
            depth = size.bit_length() - 1
            block = tuple(2.0 ** -j for j in range(depth + 1))
            assert partition_schedule(size) == block * 2

    def test_source_schedule_shape(self):
        for size, n in ((2, 6), (5, 30), (23, 24)):
            sched = source_schedule(size, n)
            depth = size.bit_length() - 1
            k = max(1, math.ceil(math.log2(math.log2(n + 4))))
            assert len(sched) == depth * k + 1
            assert sched[-1] == 1.0
            assert all(sched[i] <= sched[i + 1] for i in range(len(sched) - 1))


class TestCertifiedOrderedCuts:
    def test_triangle_nothing_certified(self, tri):
        estimates, certified = certified_ordered_cuts(1, (2, 3), tri, WorkCounter())
        assert estimates[2] == 3
        assert estimates[3] == 3
        assert certified == {}

    def test_single_edge_certified(self, g2):
        estimates, certified = certified_ordered_cuts(1, (2,), g2, WorkCounter())
        assert estimates[2] == 5
        assert set(certified) == {2}
        assert certified[2].members == {2}

    def test_estimates_upper_bound_true_values(self):
        rng = random.Random(13)
        counter = WorkCounter()
        for _ in range(30):
            g = random_graph(rng, rng.randint(3, 12))
            labels = sorted(g.labels)
            rng.shuffle(labels)
            s, seq = labels[0], tuple(labels[1: rng.randint(2, len(labels))])
            if not seq:
                continue
            estimates, certified = certified_ordered_cuts(s, seq, g, counter)
            for v in g.labels:
                if v == s:
                    continue
                exact = min_cut(g, {s}, {v}, counter).cost
                assert estimates[v] >= exact
            seen = set()
            for v, cut in certified.items():
                assert cut.cost == min_cut(g, {s}, {v}, counter).cost
                assert not (cut.members & seen)
                seen |= cut.members

    @pytest.mark.parametrize("mode", ["isolating", "octree"])
    def test_both_certification_modes_sound(self, mode):
        rng = random.Random(17)
        counter = WorkCounter()
        for _ in range(20):
            g = random_graph(rng, rng.randint(3, 10))
            labels = sorted(g.labels)
            rng.shuffle(labels)
            s, seq = labels[0], tuple(labels[1:])
            estimates, certified = certified_ordered_cuts(s, seq, g, counter,
                                                          certify=mode)
            seen = set()
            for v, cut in certified.items():
                assert cut.cost == min_cut(g, {s}, {v}, counter).cost
                assert not (cut.members & seen)
                seen |= cut.members

    def test_isolating_certification_matches_isolating_cuts(self):
        # Against the reference that runs isolating_cuts on every running
        # minimum.  When only seq[0] is kept, its cut comes off the tree,
        # so the call records exactly the tree's work.
        rng = random.Random(19)
        lone = 0
        for _ in range(120):
            g = scrambled(rng, random_graph(rng, rng.randint(2, 11),
                                            density=rng.random(), max_weight=4))
            g = Graph(g.labels, [(u, v, w - 1) for u, v, w in g.edge_labels()])
            labels = list(g.labels)
            rng.shuffle(labels)
            s, seq = labels[0], tuple(labels[1:rng.randint(2, len(labels))])
            counter, tree_work = WorkCounter(), WorkCounter()
            estimates, certified = certified_ordered_cuts(s, seq, g, counter)
            pipeline.ordered_cuts((s, *seq), g, tree_work)
            running, kept = math.inf, []
            for v in seq:
                if estimates[v] <= running:
                    kept.append(v)
                running = min(running, estimates[v])
            cuts = isolating_cuts(s, set(kept), g, WorkCounter())
            assert certified == {v: cut for v, cut in cuts.items()
                                 if cut.cost == estimates[v]}
            if kept == [seq[0]]:
                lone += 1
                assert certified == cuts
                assert counter.snapshot() == tree_work.snapshot()
        assert lone > 30

    def test_unknown_mode_rejected(self, g2):
        # Before any flow runs, and also for an empty sequence.
        for seq in ((), (2,)):
            counter = WorkCounter()
            with pytest.raises(ValueError):
                certified_ordered_cuts(1, seq, g2, counter, certify="x")
            assert counter.calls == 0


def test_weighted_degrees_are_singleton_cut_costs():
    # The starting estimates of both fixed-source loops.
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 12)
        g = scrambled(rng, Graph(range(1, n + 1), [
            (u, v, rng.randint(0, 16)) for u in range(1, n + 1)
            for v in range(u + 1, n + 1) if rng.random() < 0.5]))
        x = g.indices(rng.sample(g.labels, rng.randint(1, n)))
        assert _weighted_degrees(g.adjacency, x) == {v: cut_cost(g, {g.labels[v]}) for v in x}
    with pytest.raises(KeyError):
        _weighted_degrees(g.adjacency, {"missing"})


class TestFixedSourceBlocks:
    def test_singleton_ground_set(self, tri):
        # The block is the latest minimum 1-3 cut: {2,3} at cost 3, that is
        # node indices {1, 2}.
        blocks = fixed_source_blocks(0, {2}, tri, tri.adjacency, random.Random(0), WorkCounter())
        assert blocks == {2: {1, 2}}
        assert kept_cost(tri.adjacency, blocks[2]) == 3

    def test_triangle_covers_both(self, tri):
        # f(1,2) = f(1,3) = 3 via {2,3}; one representative owns the block.
        blocks = fixed_source_blocks(0, {1, 2}, tri, perturb(*whole(tri), random.Random(1)),
                                     random.Random(2), WorkCounter())
        assert list(blocks.values()) == [{1, 2}]

    def test_blocks_are_minimum_source_cuts(self):
        rng = random.Random(19)
        counter = WorkCounter()
        for _ in range(20):
            g = connected_random_graph(rng, rng.randint(3, 12))
            labels = sorted(g.labels)
            s = labels[0] - 1  # labels 1..n are node indices 0..n-1
            ground = g.indices(rng.sample(labels[1:], rng.randint(1, len(labels) - 1)))
            h = perturb(*whole(g), rng)
            blocks = fixed_source_blocks(s, ground, g, h, rng, counter)
            assert set(blocks) <= ground
            assert sum(map(len, blocks.values())) == len(set().union(*blocks.values()))
            for v, block in blocks.items():
                assert v in block
                assert kept_cost(h, block) == min_cut(g, {s}, {v}, counter, adj=h).cost
                # Prop-4.1 carryover: also minimum in the unperturbed graph.
                assert kept_cost(g.adjacency, block) == min_cut(
                    g, {s}, {v}, counter, adj=g.adjacency).cost

    def test_empty_ground_set(self, tri):
        assert fixed_source_blocks(0, set(), tri, tri.adjacency, random.Random(0),
                                   WorkCounter()) == {}


class TestSelectSourceOc1:
    def test_two_member_supernode(self, g2):
        s, family = select_source_oc1(g2, *whole(g2), {0, 1}, random.Random(3), WorkCounter())
        assert s in {0, 1}
        (block,) = family
        assert block == {0, 1} - {s}

    def test_family_disjoint_and_minimum(self):
        rng = random.Random(23)
        counter = WorkCounter()
        for _ in range(15):
            g = connected_random_graph(rng, rng.randint(3, 10))
            h, nodes = whole(g)
            x = set(nodes)
            stats = PipelineStats()
            s, family = select_source_oc1(g, h, nodes, x, rng, counter, stats=stats)
            assert s in x
            assert is_laminar(family)
            seen = set()
            for block in family:
                assert not (block & seen)
                seen |= block
                assert s not in block
                reps = block & x
                assert reps
                # Every block is a true minimum source cut of the
                # unperturbed graph for some member.
                costs = [min_cut(g, {s}, {v}, counter, adj=h).cost for v in reps]
                assert kept_cost(h, block) in costs
            assert x - {s} <= seen
            assert stats.attempts_max >= 1

    def test_attempt_cap_raises(self, tri):
        with pytest.raises(AttemptLimitError):
            select_source_oc1(tri, *whole(tri), {0, 1, 2}, random.Random(0), WorkCounter(),
                              max_attempts=0)

    def test_negative_cap_rejected(self, tri):
        with pytest.raises(ValueError, match="max_attempts"):
            select_source_oc1(tri, *whole(tri), {0, 1, 2}, random.Random(0), WorkCounter(),
                              max_attempts=-1)

    @pytest.mark.parametrize("tag", ["v", "x"])
    def test_walk_settles_on_tuple_labels(self, tag):
        # The walk's tie rule reads the label rank of x's members; the
        # branch nodes of h are node indices and carry no label of their own.
        g = Graph([(tag, k) for k in range(6)], [((tag, 4), (tag, 5), 1)])
        for seed in range(4):
            tree = gh_via_oc1(g, random.Random(seed), WorkCounter(), max_attempts=50)
            assert verify_gh_tree(g, tree).ok


class TestFixedSourceLaminar:
    def test_two_node_graph_full_limit(self, g2):
        family = fixed_source_laminar(0, {1}, 1, g2, g2.adjacency, random.Random(0),
                                      WorkCounter())
        assert family == [frozenset({1})]

    def test_members_pass_cut_oracle(self):
        rng = random.Random(29)
        counter = WorkCounter()
        for _ in range(15):
            g = connected_random_graph(rng, rng.randint(3, 10))
            labels = sorted(g.labels)
            s = labels[0] - 1  # labels 1..n are node indices 0..n-1
            ground = g.indices(labels[1:])
            limit = max(1, len(ground) // 2)
            h = perturb(*whole(g), rng)
            family = fixed_source_laminar(s, ground, limit, g, h, rng, counter)
            assert is_laminar(family)
            for block in family:
                assert len(block & ground) <= limit
                costs = [min_cut(g, {s}, {v}, counter, adj=g.adjacency).cost
                         for v in block & ground]
                assert kept_cost(g.adjacency, block) in costs

    class TakeAll:
        """Stands in for the rng: every sample takes every candidate."""

        def random(self):
            return 0.0

    def run_with_certified(self, monkeypatch, rounds):
        """Run on a path 0-8 with source 0, x = {1..8} and limit 4, the
        certified cuts of each round given by `rounds` (one list of member
        sets per round, none once they run out); returns the family, the
        number of rounds that cut and the rates every round drew at."""
        pending = iter(rounds)
        calls, rates = [], []

        def fake(s, seq, g, counter, certify, *, adj, prefixes):
            calls.append(seq)
            cuts = next(pending, [])
            certified = {v: Cut(frozenset(members), 1) for v, members in zip(seq, cuts)}
            return {v: 1 for v in seq}, certified

        def drawing(members, rate, rng, key):
            rates.append(rate)
            return random_subset(members, rate, rng, key)

        monkeypatch.setattr("ghct.pipeline.certified_ordered_cuts", fake)
        monkeypatch.setattr("ghct.pipeline.random_subset", drawing)
        path = Graph(range(9), [(i, i + 1, 1) for i in range(8)])
        family = fixed_source_laminar(0, set(range(1, 9)), 4, path, path.adjacency,
                                      self.TakeAll(), WorkCounter())
        return family, len(calls), rates

    def test_crossing_cut_rejects_in_its_round(self, monkeypatch):
        family, calls, _ = self.run_with_certified(monkeypatch, [[{1, 2}], [{2, 3}]])
        assert family == []
        assert calls == 2

    def test_nested_cuts_are_kept(self, monkeypatch):
        # {1, 2} inside {1, 2, 3, 4} does not cross it; the second round
        # leaves {0, 8} uncovered, so the family is accepted and only its
        # maximal members come back.
        family, calls, _ = self.run_with_certified(
            monkeypatch, [[{1, 2}], [{1, 2, 3, 4}, {5, 6, 7}]])
        assert family == [frozenset({5, 6, 7}), frozenset({1, 2, 3, 4})]
        assert calls == 2

    def test_first_accepted_round_ends_the_loop(self, monkeypatch):
        # {0, 7, 8} stay uncovered: 3 <= limit.
        family, calls, rates = self.run_with_certified(
            monkeypatch, [[{1, 2, 3, 4}, {5, 6}], [{7}]])
        assert family == [frozenset({5, 6}), frozenset({1, 2, 3, 4})]
        assert calls == 1
        assert rates == [1.0]

    def test_family_short_of_the_limit_runs_the_whole_schedule(self, monkeypatch):
        # {0, 4, ..., 8} stay uncovered: 6 > limit.
        family, calls, rates = self.run_with_certified(
            monkeypatch, [[{1, 2}], [{1, 2, 3}]])
        assert family == []
        assert calls == 3  # x - covered stays {4..8} from the third round on
        assert rates == list(partition_schedule(8) * 2)

    def test_crossing_cut_in_the_accepting_round_rejects(self, monkeypatch):
        # The second round alone would leave only {0, 8} uncovered.
        family, calls, _ = self.run_with_certified(
            monkeypatch, [[{1, 2}], [{2, 3}, {4, 5, 6, 7}]])
        assert family == []
        assert calls == 2

    def test_accepted_families_on_random_graphs(self):
        # Whatever round accepts, the family select_source_weak returns
        # is its maximal members: pairwise disjoint minimum source cuts,
        # each with at most `limit` of x, leaving at most `limit` of x
        # (the source included) uncovered.
        rng = random.Random(53)
        for trial in range(24):
            g = connected_random_graph(rng, rng.randint(2, 12))
            h, nodes = whole(g)
            x = g.indices(rng.sample(sorted(g.labels), rng.randint(2, g.num_nodes)))
            limit = math.ceil(len(x) / 2)
            certify = ("isolating", "octree")[trial % 2]
            counter = WorkCounter()
            s, family = select_source_weak(g, h, nodes, x, rng, counter, certify=certify)
            assert s in x and family
            for i, a in enumerate(family):
                assert s not in a
                assert len(a & x) <= limit
                assert all(not a & b for b in family[i + 1:])
                costs = [min_cut(g, {s}, {v}, counter, adj=h).cost for v in a & x]
                assert kept_cost(h, a) in costs
            assert len(x - set().union(*family)) <= limit
            tree = gh_via_weak_oc(g, random.Random(trial), counter, certify=certify)
            assert verify_gh_tree(g, tree).ok


class TestRepeatedRounds:
    """Within one fixed-source call, a round that draws a sequence an
    earlier round cut makes no engine call: `fixed_source_blocks` finds
    it in the call's `prefixes` memo, and `fixed_source_laminar` skips
    the round."""

    # Seed 0 on this graph draws at least one repeated sequence in each loop.
    SEED = 0

    def instance(self):
        """(g, h, x): label 1 is node 0, the source."""
        g = connected_random_graph(random.Random(self.SEED), 8)
        return g, pipeline.perturb(*whole(g), random.Random(self.SEED)), set(range(1, 8))

    def run_blocks(self, counter):
        g, h, x = self.instance()
        return pipeline.fixed_source_blocks(0, x, g, h, random.Random(self.SEED), counter)

    def run_laminar(self, counter, certify):
        g, h, x = self.instance()
        return pipeline.fixed_source_laminar(0, x, 3, g, h, random.Random(self.SEED),
                                             counter, certify)

    def test_blocks_repeat_makes_no_engine_call(self, monkeypatch):
        # Every (sequence, engine work) pair `ordered_cuts` is asked for.
        rounds = []
        solve = pipeline.ordered_cuts

        def ordered_cuts(order, g, counter, *, adj=None, prefixes=None):
            before = counter.snapshot()
            tree = solve(order, g, counter, adj=adj, prefixes=prefixes)
            after = counter.snapshot()
            rounds.append((tuple(order[1:]), {k: after[k] - before[k] for k in after}))
            return tree

        monkeypatch.setattr(pipeline, "ordered_cuts", ordered_cuts)
        self.run_blocks(WorkCounter())
        seen, repeats = set(), 0
        for seq, work in rounds:
            if seq in seen:
                assert set(work.values()) == {0}
                repeats += 1
            seen.add(seq)
        assert repeats  # some round did repeat a sequence

    @pytest.mark.parametrize("certify", ["isolating", "octree"])
    def test_laminar_solves_each_sequence_once(self, monkeypatch, certify):
        # Every non-empty sequence a round draws, and every sequence
        # handed to `certified_ordered_cuts`.
        drawn, solved = [], []
        by_estimate, solve = pipeline._by_estimate, pipeline.certified_ordered_cuts

        def drawing(sample, estimates, rank):
            seq = by_estimate(sample, estimates, rank)
            if seq:
                drawn.append(seq)
            return seq

        def certified_ordered_cuts(s, seq, g, counter, certify, *, adj, prefixes):
            solved.append(tuple(seq))
            return solve(s, seq, g, counter, certify, adj=adj, prefixes=prefixes)

        monkeypatch.setattr(pipeline, "_by_estimate", drawing)
        monkeypatch.setattr(pipeline, "certified_ordered_cuts", certified_ordered_cuts)
        self.run_laminar(WorkCounter(), certify)
        assert len(solved) == len(set(solved))
        assert set(solved) == set(drawn)
        assert len(drawn) > len(solved)  # some round did repeat a sequence

    @pytest.mark.parametrize("loop", ["blocks", "isolating", "octree"])
    def test_no_result_outlives_its_call(self, loop):
        def run(counter):
            if loop == "blocks":
                return self.run_blocks(counter)
            return self.run_laminar(counter, loop)

        first, second = WorkCounter(), WorkCounter()
        assert run(first) == run(second)
        assert first.calls > 0
        assert first.snapshot() == second.snapshot()


class TestAttemptMemo:
    """`select_source_oc1` hands one `prefixes` memo to every
    `fixed_source_blocks` call of an attempt; each call leaves only the
    entries of at most three nodes in it."""

    def test_shared_memo_changes_only_the_work(self, monkeypatch):
        g = connected_random_graph(random.Random(4), 12)
        h, nodes = whole(g)

        def run(counter):
            rng = random.Random(4)
            return select_source_oc1(g, h, nodes, set(nodes), rng, counter), rng.getstate()

        shared, fresh = WorkCounter(), WorkCounter()
        expected = run(shared)
        blocks = pipeline.fixed_source_blocks
        monkeypatch.setattr(pipeline, "fixed_source_blocks",
                            lambda s, x, g, h, rng, counter, prefixes=None:
                            blocks(s, x, g, h, rng, counter))
        assert run(fresh) == expected
        assert shared.calls < fresh.calls
        assert shared.nodes_total < fresh.nodes_total

    def test_calls_sharing_a_memo_return_what_fresh_calls_return(self):
        rng = random.Random(29)
        saved = 0
        for _ in range(20):
            g = connected_random_graph(rng, rng.randint(3, 12))
            h = perturb(*whole(g), rng)
            memo = {}
            for _ in range(2):
                s = rng.randrange(g.num_nodes)
                ground = set(rng.sample(sorted(set(h) - {s}), rng.randint(1, len(h) - 1)))
                seed = rng.random()
                shared, fresh = WorkCounter(), WorkCounter()
                assert (fixed_source_blocks(s, ground, g, h, random.Random(seed), shared, memo)
                        == fixed_source_blocks(s, ground, g, h, random.Random(seed), fresh))
                assert shared.nodes_total <= fresh.nodes_total
                saved += fresh.nodes_total - shared.nodes_total
                assert memo["graph"] is h
                assert all(len(key) <= 3 for key in memo if key != "graph")
        assert saved > 0


class TestSelectSourceWeak:
    def test_two_member_supernode(self, g2):
        s, family = select_source_weak(g2, *whole(g2), {0, 1}, random.Random(7), WorkCounter())
        other = ({0, 1} - {s}).pop()
        assert any(other in block for block in family)

    def test_accepted_families_are_antichains(self):
        rng = random.Random(31)
        counter = WorkCounter()
        for _ in range(10):
            g = connected_random_graph(rng, rng.randint(3, 10))
            h, nodes = whole(g)
            x = set(nodes)
            s, family = select_source_weak(g, h, nodes, x, rng, counter)
            for a in family:
                for b in family:
                    if a != b:
                        assert not (a <= b)
            uncovered = (h.keys() - set().union(*family)) & x
            assert len(uncovered) <= math.ceil(len(x) / 2)

    def test_attempt_cap_raises(self, tri):
        with pytest.raises(AttemptLimitError):
            select_source_weak(tri, *whole(tri), {0, 1, 2}, random.Random(0), WorkCounter(),
                               max_attempts=0)

    @staticmethod
    def _record_sources(monkeypatch, reject: int) -> list:
        """Patch fixed_source_laminar to append each attempt's source to the
        returned list, and to reject while the list holds at most `reject`
        sources; the caller clears the list between calls."""
        sources = []
        real = pipeline.fixed_source_laminar

        def recording(s, *args):
            sources.append(s)
            return [] if len(sources) <= reject else real(s, *args)

        monkeypatch.setattr(pipeline, "fixed_source_laminar", recording)
        return sources

    def test_first_source_is_heavy_later_sources_uniform(self, monkeypatch):
        sources = self._record_sources(monkeypatch, reject=3)
        g = erdos_renyi_m(16, 40, random.Random(0))
        h, nodes = whole(g)
        x = set(nodes)
        degree = _weighted_degrees(h, x)
        median = statistics.median_low(degree.values())
        assert min(degree.values()) < median  # x has light members
        later = []
        for seed in range(40):
            sources.clear()
            stats = PipelineStats()
            select_source_weak(g, h, nodes, x, random.Random(seed), WorkCounter(), stats=stats)
            assert stats.attempts_total == len(sources) >= 4
            assert degree[sources[0]] >= median
            later.extend(sources[1:])
        # The uniform fallback is live: later attempts also start light.
        assert any(degree[s] < median for s in later)
        assert any(degree[s] >= median for s in later)

    @pytest.mark.parametrize("g", [cycle(12, random.Random(0), weights=(1, 1)),
                                   star(9, random.Random(0), weights=(5, 5))],
                             ids=["unit-cycle", "equal-star"])
    def test_equal_degrees_draw_from_all_of_x(self, g, monkeypatch):
        # The lower median is the smallest degree, so every member is heavy
        # and the first draw is the uniform draw.
        sources = self._record_sources(monkeypatch, reject=0)
        for seed in range(10):
            sources.clear()
            tree = gh_via_weak_oc(g, random.Random(seed), WorkCounter())
            assert g.labels[sources[0]] == random.Random(seed).choice(sorted(g.labels))
            assert verify_gh_tree(g, tree).ok


class TestEndToEnd:
    def test_triangle_both_methods(self, tri):
        classic_costs = {(1, 2): 3, (1, 3): 3, (2, 3): 4}
        for builder in (gh_via_oc1, gh_via_weak_oc):
            tree = builder(tri, random.Random(5), WorkCounter())
            for (s, t), cost in classic_costs.items():
                assert tree.query(s, t)[0] == cost

    def test_default_cap_ignores_environment(self, tri, monkeypatch):
        # Only the CLI reads OC_MAX_ATTEMPTS; a library call without a cap
        # uses the default whatever the environment says.
        monkeypatch.setenv("OC_MAX_ATTEMPTS", "0")
        for builder in (gh_via_oc1, gh_via_weak_oc):
            tree = builder(tri, random.Random(0), WorkCounter())
            assert verify_gh_tree(tri, tree).ok

    def test_single_node(self):
        g = Graph([1])
        for builder in (gh_via_oc1, gh_via_weak_oc):
            tree = builder(g, random.Random(0), WorkCounter())
            assert tree.nodes == (1,)
            assert tree.edges == ()

    def test_methods_agree_on_random_instances(self):
        rng = random.Random(37)
        for trial in range(6):
            g = random_graph(rng, rng.randint(2, 12))
            reference = {}
            classic = __import__("ghct.ghtree", fromlist=["gomory_hu_classic"]) \
                .gomory_hu_classic(g, WorkCounter())
            assert verify_gh_tree(g, classic, reference).ok
            a = gh_via_oc1(g, random.Random(trial), WorkCounter(),
                           stats=PipelineStats())
            assert verify_gh_tree(g, a, reference).ok
            b = gh_via_weak_oc(g, random.Random(trial), WorkCounter(),
                               stats=PipelineStats())
            assert verify_gh_tree(g, b, reference).ok

    def test_weak_octree_certification_mode(self):
        rng = random.Random(41)
        for trial in range(4):
            g = random_graph(rng, rng.randint(2, 10))
            tree = gh_via_weak_oc(g, random.Random(trial), WorkCounter(),
                                  certify="octree")
            assert verify_gh_tree(g, tree).ok

    def test_depth_accounting_through_driver(self):
        rng = random.Random(43)
        for trial in range(5):
            g = random_graph(rng, rng.randint(6, 14), density=0.7)
            depth_stats = {}
            gh_via_oc1(g, random.Random(trial), WorkCounter(),
                       depth_stats=depth_stats)
            assert depth_stats
            for nodes, edges in depth_stats.values():
                assert nodes <= 3 * g.num_nodes + 2
                assert edges <= 2 * g.num_edges + g.num_nodes
