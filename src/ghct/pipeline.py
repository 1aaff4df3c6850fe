"""Randomized source-partition strategies for the generalized driver.

Two interchangeable ways to produce the per-supernode family of
pairwise-disjoint minimum source cuts that the driver splits off:

* the star-tree route: depth-1 ordered-cut trees plus a source-selection
  loop that walks toward a node none of whose cuts dwarf their complement;
* the weak route: certified ordered cuts (running-minimum filter plus
  isolating cuts) accumulated into a laminar family for a random source
  until the family is first accepted (it leaves at most half of x
  uncovered), of which the maximal members are returned.  The first
  attempt draws the source from x's members of at least the lower
  median weighted degree, every retry from all of x.

Both cut the auxiliary graph H the driver keeps over g's node indices
(`adj=`, see `maxflow`) and draw in g's label order (`Graph.rank`).
Both perturb edge weights first so minimum cuts are unique with high
probability, and both are Las-Vegas: outputs are always genuine minimum
cuts of the unperturbed graph, only the number of attempts is random.
`_las_vegas` is the one attempt loop: the driver does not retry, and a
family that breaks its contract raises `ghtree.StrategyError`.  Work is
tracked in perturbed-weight units within one attempt; the driver re-costs
the returned cuts in original units.

Within one call of a fixed-source loop the source, the perturbed graph
and the certification mode are fixed and the solvers are deterministic,
so the rounds of that call share one memo, `ordered_cuts`' `prefixes`:
a head prefix or whole sequence that an earlier round built is not cut
again, and a round that repeats an earlier sequence makes no engine
call.  A memo key is the whole order, source included, so the memo
stays exact across calls on the same graph: oc1 keeps one for each
Las-Vegas attempt, bound to that attempt's perturbed graph, and each of
its `fixed_source_blocks` calls leaves only the heads of at most three
nodes in it for the next.  weak-oc's memo lives for one
`fixed_source_laminar` call.  Every round still draws its sample, so
trees and random state do not change; only the engine work falls.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from .graph import Cut, Graph, label_key
from .ghtree import GHTree, gomory_hu_generalized
from .isolating import isolating_cuts
from .maxflow import WorkCounter
from .octree import certified_source_cuts, covering_cut_costs, flatten_to_star, \
    ordered_cuts

DEFAULT_MAX_ATTEMPTS = 10_000


class AttemptLimitError(RuntimeError):
    """The Las-Vegas harness cap was reached without a certified output."""


@dataclass
class PipelineStats:
    """Attempt accounting across strategy invocations."""

    invocations: int = 0
    attempts_total: int = 0
    attempts_max: int = 0

    def record(self, attempts: int) -> None:
        self.invocations += 1
        self.attempts_total += attempts
        self.attempts_max = max(self.attempts_max, attempts)


# -- randomness ----------------------------------------------------------


def random_subset(members, rate: float, rng, key=label_key) -> set:
    """Independent inclusion of each element with the given probability.

    Iterates in the deterministic order `key` sorts members in (label
    order by default), so a fixed seed reproduces the same subset.
    """
    if not 0 < rate <= 1:
        raise ValueError("sampling rate must be in (0, 1]")
    return {v for v in sorted(members, key=key) if rng.random() < rate}


def perturb(h: dict, nodes, rng) -> dict:
    """A copy of the kept graph h with every weight scaled by M = m * n^2
    plus a random offset below n^2.

    Any minimum s-t cut of the result is a minimum s-t cut of the input
    (the offsets over a cut sum to less than M), and with high probability
    all minimum cuts of the result are unique.  `nodes` lists h's nodes;
    the offsets are drawn edge by edge in the order of their ends'
    positions there, earlier end first.  Without edges, h itself is
    returned.
    """
    spread = len(h) ** 2
    scale = sum(map(len, h.values())) // 2 * spread
    if scale == 0:
        return h
    pos = {x: i for i, x in enumerate(nodes)}
    out = {x: {} for x in nodes}
    for x in nodes:
        row = h[x]
        for y in sorted([y for y in row if pos[y] > pos[x]], key=pos.__getitem__):
            out[x][y] = out[y][x] = scale * row[y] + rng.randrange(spread)
    return out


# -- schedules -----------------------------------------------------------


def partition_schedule(size: int) -> tuple:
    """Sampling rates: the geometric block (1, 1/2, ..., 2^-floor(log2 size))
    twice.

    The schedule sets only the work and the number of Las-Vegas attempts:
    the callers keep a cut only after a check that does not depend on it.
    """
    if size < 1:
        raise ValueError("schedule needs a positive ground-set size")
    depth = size.bit_length() - 1
    return tuple(2.0 ** -j for j in range(depth + 1)) * 2


def source_schedule(size: int, ambient_nodes: int) -> tuple:
    """Sampling rates: K copies of each rate 2^-d, ..., 2^-1 (K ~ log log of
    graph size), then a final full-sampling round."""
    if size < 1:
        raise ValueError("schedule needs a positive ground-set size")
    depth = size.bit_length() - 1
    k = max(1, math.ceil(math.log2(math.log2(ambient_nodes + 4))))
    rates = [2.0 ** -p for p in range(depth, 0, -1) for _ in range(k)]
    rates.append(1.0)
    return tuple(rates)


# -- certified ordered cuts (weak route) ---------------------------------


def certified_ordered_cuts(s, seq, g: Graph, counter: WorkCounter,
                           certify: str = "isolating", *, adj: dict | None = None,
                           prefixes: dict | None = None):
    """Cut-cost estimates for a sequence plus certified true source cuts.

    Runs the ordered-cuts solver (with `adj` as `ordered_cuts` takes it,
    and its head-prefix memo `prefixes`), keeps the sequence nodes whose
    estimate is a running minimum, and certifies those whose isolating cut
    matches the estimate exactly.  When only seq[0] is kept, its isolating
    cut is the tree's own minimal (s, seq[0]) cut, so no flow is run for
    it.  With certify="octree" the isolating-cut stage is replaced by
    certification straight off the tree (inclusion-minimal certified
    down-sets, which are pairwise disjoint).

    Returns (estimates over all non-source nodes, {node: Cut}).
    """
    if certify not in ("isolating", "octree"):
        raise ValueError(f"unknown certification mode {certify!r}")
    seq = tuple(seq)
    if not seq:
        return {}, {}
    tree = ordered_cuts((s, *seq), g, counter, adj=adj, prefixes=prefixes)
    estimates = covering_cut_costs(tree)

    if certify == "octree":
        certified = certified_source_cuts(tree)
        # Parents precede children, so a reverse pass sees every descendant
        # of u before u and can mark u's parent as above a certified node.
        above = set()
        for u in reversed(tree.order[1:]):
            if u in certified or u in above:
                above.add(tree.parent[u])
        return estimates, {u: cut for u, cut in certified.items() if u not in above}

    running = math.inf
    filtered = []
    for v in seq:
        if estimates[v] <= running:
            filtered.append(v)
        running = min(running, estimates[v])
    if len(filtered) == 1:
        # The tree's first step cut the graph between s and seq[0], minimal
        # sink side, as isolating_cuts would.
        cuts = {seq[0]: Cut(tree.down_set(seq[0]), tree.costs[seq[0]])}
    else:
        cuts = isolating_cuts(s, filtered, g, counter, adj=adj)
    certified = {v: cut for v, cut in cuts.items() if cut.cost == estimates[v]}
    return estimates, certified


# -- fixed-source partitions ---------------------------------------------


def _weighted_degrees(h: dict, x) -> dict:
    """{v: cost of the cut {v} in h} for every v in x: its row's sum."""
    return {v: sum(h[v].values()) for v in x}


# The longest memo entry, in nodes with the source, that `fixed_source_blocks`
# leaves to later calls: the cuts read again across oc1's source-walk rounds
# are nearly all on heads of two or three nodes, and every entry holds blocks
# over all of h.
_KEPT_HEAD = 3


def _by_estimate(sample, estimates, rank) -> tuple:
    """The sample in decreasing cost estimate, ties by `rank`."""
    return tuple(sorted(sample, key=lambda v: (-estimates[v], rank[v])))


def fixed_source_blocks(s, x, g: Graph, h: dict, rng, counter: WorkCounter,
                        prefixes: dict | None = None) -> dict:
    """Pairwise-disjoint minimum source cuts covering most of x, as
    {rep: block} in sequence order.

    Repeatedly samples x at scheduled rates, solves ordered cuts on the
    sample sorted by decreasing cost estimate, flattens to a star, and
    absorbs the blocks.  A final full-rate round follows; of its star, the
    blocks `certified_source_cuts` keeps (each costs no more than every
    earlier one) are genuine minimum source cuts of h.  Every round
    reuses the head prefixes and sequences earlier rounds of this call
    built (one `prefixes` memo), so a repeated sequence costs no engine
    call.

    `prefixes` is that memo, `ordered_cuts`' on h.  Given, it may hold
    the short heads of earlier calls on h, which this call reads too;
    before returning, the call drops every entry longer than
    `_KEPT_HEAD` nodes (source included), so the memo carries only short
    heads to the next call.  Without it, the call keeps a memo of its own.
    """
    live = set(x)
    if not live:
        return {}
    rank = g.rank
    estimates = _weighted_degrees(h, live)
    if prefixes is None:
        prefixes = {}
    # Every round keeps its representatives live, so the last sample is
    # not empty and `tree` is the full-rate round's.
    for rate in partition_schedule(len(live)) + (1.0,):
        seq = _by_estimate(random_subset(live, rate, rng, rank.__getitem__), estimates, rank)
        if not seq:
            continue
        tree = ordered_cuts((s, *seq), g, counter, adj=h, prefixes=prefixes)
        for v, block in flatten_to_star(tree).items():
            live -= block - {v}
            estimates[v] = min(estimates[v], tree.costs[v])
    for key in [k for k in prefixes if k != "graph" and len(k) > _KEPT_HEAD]:
        del prefixes[key]
    return {v: cut.members for v, cut in certified_source_cuts(tree).items()
            if tree.parent[v] == s}


def fixed_source_laminar(s, x, limit: int, g: Graph, h: dict, rng, counter: WorkCounter,
                         certify: str = "isolating") -> list:
    """The maximal members of the first accepted laminar family of
    minimum source cuts, each touching at most `limit` of x, or [].

    This is weak-oc's acceptance rule: certified cuts accumulate over
    twice the partition schedule, with per-node running estimates, until
    their union leaves at most `limit` of x and s uncovered.  Later
    rounds could only add cuts, so they are not run.  Returns [] as soon
    as the family stops being laminar, or if the schedule ends first (the
    caller re-perturbs and retries).  A round that repeats an earlier
    round's sequence is skipped after its draw: its estimates are already
    folded in and its certified cuts already in the family.  Every round
    reuses the head prefixes earlier rounds of this call built (one
    `prefixes` memo).  The members come sorted by size, then by the least
    label rank of each cut's members of x.
    """
    x = set(x)
    if not x:
        return []
    rank = g.rank
    with_source = x | {s}
    estimates = _weighted_degrees(h, x)
    rates = partition_schedule(len(x))
    family: set = set()
    covered: set = set()
    seen = set()  # the sequences this call has cut
    prefixes = {}  # ordered_cuts' memo of head prefixes and sequences on h, for this call only
    for rate in rates + rates:
        seq = _by_estimate(random_subset(x - covered, rate, rng, rank.__getitem__),
                           estimates, rank)
        if not seq or seq in seen:
            continue
        seen.add(seq)
        lam, certified = certified_ordered_cuts(s, seq, g, counter, certify, adj=h,
                                                prefixes=prefixes)
        for v in seq:
            estimates[v] = min(estimates[v], lam[v])
        added = [cut.members for cut in certified.values()
                 if len(cut.members & x) <= limit and cut.members not in family]
        family.update(added)
        covered.update(*added)
        # The family was laminar before this round, so only the new cuts
        # can cross another member.
        for a in added:
            if any(a & b and not (a <= b or b <= a) for b in family):
                return []
        if len(with_source - covered) <= limit:
            return sorted([a for a in family if not any(a < b for b in family)],
                          key=lambda c: (len(c), min(rank[v] for v in c & x)))
    return []


# -- source selection (the driver's line-4 strategies) --------------------


def _las_vegas(g: Graph, h: dict, x, stats: PipelineStats | None, max_attempts: int,
               attempt):
    """Run `attempt(xs, x_set)` until it returns a result other than None,
    at most `max_attempts` times.

    `xs` is x in g's label order.  Owns the PipelineStats record of
    accepted invocations and the AttemptLimitError.  The environment is
    not read: the public callers default the cap to DEFAULT_MAX_ATTEMPTS
    (10,000), and only the CLI consults OC_MAX_ATTEMPTS.
    """
    xs = sorted(x, key=g.rank.__getitem__)
    if len(xs) < 2:
        raise ValueError("need at least two supernode members")
    if max_attempts < 0:
        raise ValueError(
            f"max_attempts must be a non-negative integer, got {max_attempts!r}")
    x_set = set(xs)
    for attempts in range(1, max_attempts + 1):
        result = attempt(xs, x_set)
        if result is not None:
            if stats is not None:
                stats.record(attempts)
            return result
    raise AttemptLimitError(
        f"source selection exceeded {max_attempts} attempts"
        f" on a {len(h)}-node graph")


def select_source_oc1(g: Graph, h: dict, nodes, x, rng, counter: WorkCounter,
                      stats: PipelineStats | None = None,
                      max_attempts: int = DEFAULT_MAX_ATTEMPTS):
    """Pick a source and disjoint minimum source cuts covering x via
    star-shaped ordered-cut trees.

    h, nodes and x are what `gomory_hu_generalized` hands a strategy.
    Follows the source toward locally-heaviest nodes: whenever some block
    holds more than half of x, or exactly half without x's smallest
    label, the source jumps to that block's representative.  Terminates
    only once all of x minus the source is covered by blocks; otherwise
    re-perturbs and retries.

    Each attempt keeps one `prefixes` memo on its perturbed graph and
    hands it to every `fixed_source_blocks` call, so a round reads the
    short heads (at most three nodes, source included) that the
    attempt's earlier rounds cut; the memo ends with the attempt.
    """
    def attempt(xs, x_set):
        s = xs[0]
        perturbed = perturb(h, nodes, rng)
        prefixes = {}  # the short heads of `perturbed` this attempt's rounds have cut
        for rate in source_schedule(len(xs), len(h)):
            sample = random_subset(x_set - {s}, rate, rng, g.rank.__getitem__)
            blocks = fixed_source_blocks(s, sample, g, perturbed, rng, counter, prefixes)
            for v, block in blocks.items():
                inside = 2 * len(block & x_set)
                if inside > len(xs) or inside == len(xs) and xs[0] not in block:
                    s = v  # the block outweighs the rest of x: move there
                    break
            else:
                if x_set - {s} <= set().union(*blocks.values()):
                    return s, list(blocks.values())
        return None

    return _las_vegas(g, h, x, stats, max_attempts, attempt)


def select_source_weak(g: Graph, h: dict, nodes, x, rng, counter: WorkCounter,
                       stats: PipelineStats | None = None,
                       max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                       certify: str = "isolating"):
    """Pick a random source; accept once the laminar family of small-side
    cuts covers all but half of x; h, nodes and x as for
    `select_source_oc1`.

    An attempt draws s, perturbs h and returns the maximal members that
    `fixed_source_laminar`, the one owner of the acceptance rule, hands
    back; an empty answer rejects the attempt.

    The first attempt draws s uniformly from x's heavy members, those
    whose weighted degree in h is at least x's lower median (in label
    order); a light source's minimum cuts tend to hold most of h and
    exceed the limit.  Every later attempt draws s uniformly from all of
    x, as the paper analyses, so the expected number of attempts grows by
    at most one.  With all degrees equal the heavy members are all of x.
    """
    retry = False  # whether an earlier attempt of this call was rejected

    def attempt(xs, x_set):
        nonlocal retry
        limit = math.ceil(len(xs) / 2)
        if retry:
            s = rng.choice(xs)
        else:
            degree = _weighted_degrees(h, xs)
            median = statistics.median_low(degree.values())
            s = rng.choice([v for v in xs if degree[v] >= median])
            retry = True
        perturbed = perturb(h, nodes, rng)
        family = fixed_source_laminar(s, x_set - {s}, limit, g, perturbed, rng,
                                      counter, certify)
        return (s, family) if family else None

    return _las_vegas(g, h, x, stats, max_attempts, attempt)


# -- end-to-end constructions ---------------------------------------------


def gh_via_oc1(g: Graph, rng, counter: WorkCounter,
               stats: PipelineStats | None = None,
               max_attempts: int = DEFAULT_MAX_ATTEMPTS,
               depth_stats: dict | None = None) -> GHTree:
    """Cut tree via the star-tree (depth-1) strategy; each source selection
    makes at most `max_attempts` attempts (default 10,000, whatever the
    environment says)."""

    def strategy(h, nodes, x):
        return select_source_oc1(g, h, nodes, x, rng, counter, stats=stats,
                                 max_attempts=max_attempts)

    return gomory_hu_generalized(g, strategy, depth_stats=depth_stats)


def gh_via_weak_oc(g: Graph, rng, counter: WorkCounter,
                   stats: PipelineStats | None = None,
                   max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                   certify: str = "isolating",
                   depth_stats: dict | None = None) -> GHTree:
    """Cut tree via certified weak ordered cuts; each source selection
    makes at most `max_attempts` attempts (default 10,000, whatever the
    environment says)."""

    def strategy(h, nodes, x):
        return select_source_weak(g, h, nodes, x, rng, counter, stats=stats,
                                  max_attempts=max_attempts, certify=certify)

    return gomory_hu_generalized(g, strategy, depth_stats=depth_stats)
