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
call.  Every round still draws its sample, so trees and random state do
not change; only the engine work falls.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from .graph import Cut, Graph, label_key, sorted_labels
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


def random_subset(members, rate: float, rng) -> set:
    """Independent inclusion of each element with the given probability.

    Iterates in deterministic label order, so a fixed seed reproduces the
    same subset.
    """
    if not 0 < rate <= 1:
        raise ValueError("sampling rate must be in (0, 1]")
    return {v for v in sorted_labels(members) if rng.random() < rate}


def perturb(g: Graph, rng) -> Graph:
    """Scale weights by M = m * n^2 and add a random offset below n^2.

    Any minimum s-t cut of the result is a minimum s-t cut of the input
    (the offsets over a cut sum to less than M), and with high probability
    all minimum cuts of the result are unique.
    """
    spread = g.num_nodes ** 2
    scale = g.num_edges * spread
    if scale == 0:
        return g
    labels = g.labels
    edges = [(labels[iu], labels[iv], scale * w + rng.randrange(spread))
             for iu, iv, w in g.edges]
    return Graph(labels, edges)


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
                           certify: str = "isolating", *, prefixes: dict | None = None):
    """Cut-cost estimates for a sequence plus certified true source cuts.

    Runs the ordered-cuts solver (with `ordered_cuts`' head-prefix memo
    `prefixes`), keeps the sequence nodes whose estimate is a running
    minimum, and certifies those whose isolating cut matches the estimate
    exactly.  When only seq[0] is kept, its isolating cut is the tree's
    own minimal (s, seq[0]) cut, so no flow is run for it.  With
    certify="octree" the isolating-cut stage is replaced by certification
    straight off the tree (inclusion-minimal certified down-sets, which
    are pairwise disjoint).

    Returns (estimates over all non-source nodes, {node: Cut}).
    """
    if certify not in ("isolating", "octree"):
        raise ValueError(f"unknown certification mode {certify!r}")
    seq = tuple(seq)
    if not seq:
        return {}, {}
    tree = ordered_cuts((s, *seq), g, counter, prefixes=prefixes)
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
        # The tree's first step cut g itself between s and seq[0], minimal
        # sink side, as isolating_cuts would.
        cuts = {seq[0]: Cut(tree.down_set(seq[0]), tree.costs[seq[0]])}
    else:
        cuts = isolating_cuts(s, set(filtered), g, counter)
    certified = {v: cut for v, cut in cuts.items() if cut.cost == estimates[v]}
    return estimates, certified


# -- fixed-source partitions ---------------------------------------------


def _weighted_degrees(g: Graph, x) -> dict:
    """{v: cut_cost(g, {v})} for every v in x, from one pass over g's edges."""
    degree = [0] * g.num_nodes
    for iu, iv, w in g.edges:
        degree[iu] += w
        degree[iv] += w
    labels = g.labels
    return {labels[i]: degree[i] for i in g.indices(x)}


def _by_estimate(sample, estimates) -> tuple:
    """The sample in decreasing cost estimate, ties in label order."""
    return tuple(sorted(sample, key=lambda v: (-estimates[v], label_key(v))))


def fixed_source_blocks(s, x, g: Graph, rng, counter: WorkCounter) -> dict:
    """Pairwise-disjoint minimum source cuts covering most of x, as
    {rep: block} in sequence order.

    Repeatedly samples x at scheduled rates, solves ordered cuts on the
    sample sorted by decreasing cost estimate, flattens to a star, and
    absorbs the blocks.  A final full-rate round follows; of its star, the
    blocks `certified_source_cuts` keeps (each costs no more than every
    earlier one) are genuine minimum source cuts of g.  Every round
    reuses the head prefixes and sequences earlier rounds of this call
    built (one `prefixes` memo), so a repeated sequence costs no engine
    call.
    """
    live = set(x)
    if not live:
        return {}
    estimates = _weighted_degrees(g, live)
    prefixes = {}  # ordered_cuts' memo of head prefixes and sequences on g, for this call only
    # Every round keeps its representatives live, so the last sample is
    # not empty and `tree` is the full-rate round's.
    for rate in partition_schedule(len(live)) + (1.0,):
        seq = _by_estimate(random_subset(live, rate, rng), estimates)
        if not seq:
            continue
        tree = ordered_cuts((s, *seq), g, counter, prefixes=prefixes)
        for v, block in flatten_to_star(tree).items():
            live -= block - {v}
            estimates[v] = min(estimates[v], tree.costs[v])
    return {v: cut.members for v, cut in certified_source_cuts(tree).items()
            if tree.parent[v] == s}


def _covers_enough(x, covered, limit: int) -> bool:
    """Whether a family whose cuts' union is `covered` leaves at most
    `limit` members of x (source included) uncovered: weak-oc's
    acceptance test."""
    return len(x - covered) <= limit


def fixed_source_laminar(s, x, limit: int, g: Graph, rng, counter: WorkCounter,
                         certify: str = "isolating") -> list:
    """Laminar family of minimum source cuts touching at most `limit` of x.

    Accumulates certified cuts over twice the partition schedule until
    the family is first accepted (`_covers_enough` of x and s), keeping
    per-node running estimates; returns [] as soon as the family stops
    being laminar (the caller re-perturbs and retries).  Later rounds
    could only add cuts to an accepted family, so they are not run.  A
    round that repeats an earlier round's sequence is skipped after its
    draw: its estimates are already folded in and its certified cuts
    already in the family.  Every round reuses the head prefixes earlier
    rounds of this call built (one `prefixes` memo).
    """
    x = set(x)
    if not x:
        return []
    with_source = x | {s}
    estimates = _weighted_degrees(g, x)
    rates = partition_schedule(len(x))
    family: set = set()
    covered: set = set()
    seen = set()  # the sequences this call has cut
    prefixes = {}  # ordered_cuts' memo of head prefixes and sequences on g, for this call only
    for rate in rates + rates:
        candidates = x - covered
        if not candidates:
            break
        seq = _by_estimate(random_subset(candidates, rate, rng), estimates)
        if not seq or seq in seen:
            continue
        seen.add(seq)
        lam, certified = certified_ordered_cuts(s, seq, g, counter, certify,
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
        if _covers_enough(with_source, covered, limit):
            break
    return sorted(family, key=lambda c: (len(c), sorted(label_key(v) for v in c)))


# -- source selection (the driver's line-4 strategies) --------------------


def _las_vegas(h: Graph, x, stats: PipelineStats | None, max_attempts: int,
               attempt):
    """Run `attempt(xs, x_set)` until it returns a result other than None,
    at most `max_attempts` times.

    `xs` is x in label order.  Owns the PipelineStats record of accepted
    invocations and the AttemptLimitError.  The environment is not read:
    the public callers default the cap to DEFAULT_MAX_ATTEMPTS (10,000),
    and only the CLI consults OC_MAX_ATTEMPTS.
    """
    xs = sorted_labels(x)
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
        f" on a {h.num_nodes}-node graph")


def select_source_oc1(h: Graph, x, rng, counter: WorkCounter,
                      stats: PipelineStats | None = None,
                      max_attempts: int = DEFAULT_MAX_ATTEMPTS):
    """Pick a source and disjoint minimum source cuts covering x via
    star-shaped ordered-cut trees.

    Follows the source toward locally-heaviest nodes: whenever some block
    holds more than half of x, or exactly half without x's smallest
    label, the source jumps to that block's representative.  Terminates
    only once all of x minus the source is covered by blocks; otherwise
    re-perturbs and retries.
    """
    def attempt(xs, x_set):
        s = xs[0]
        perturbed = perturb(h, rng)
        for rate in source_schedule(len(xs), h.num_nodes):
            sample = random_subset(x_set - {s}, rate, rng)
            blocks = fixed_source_blocks(s, sample, perturbed, rng, counter)
            for v, block in blocks.items():
                inside = 2 * len(block & x_set)
                if inside > len(xs) or inside == len(xs) and xs[0] not in block:
                    s = v  # the block outweighs the rest of x: move there
                    break
            else:
                if x_set - {s} <= set().union(*blocks.values()):
                    return s, list(blocks.values())
        return None

    return _las_vegas(h, x, stats, max_attempts, attempt)


def select_source_weak(h: Graph, x, rng, counter: WorkCounter,
                       stats: PipelineStats | None = None,
                       max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                       certify: str = "isolating"):
    """Pick a random source; accept once the laminar family of small-side
    cuts covers all but half of x (`_covers_enough`).

    `fixed_source_laminar` accumulates the family until it is first
    accepted, so an attempt runs no round past the one that accepts it.

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
        perturbed = perturb(h, rng)
        family = fixed_source_laminar(s, x_set - {s}, limit, perturbed, rng,
                                      counter, certify)
        family = [c for c in family
                  if not any(c < other for other in family)]
        covered = set().union(*family) if family else set()
        if family and _covers_enough(x_set, covered, limit):
            return s, family
        return None

    return _las_vegas(h, x, stats, max_attempts, attempt)


# -- end-to-end constructions ---------------------------------------------


def gh_via_oc1(g: Graph, rng, counter: WorkCounter,
               stats: PipelineStats | None = None,
               max_attempts: int = DEFAULT_MAX_ATTEMPTS,
               depth_stats: dict | None = None) -> GHTree:
    """Cut tree via the star-tree (depth-1) strategy; each source selection
    makes at most `max_attempts` attempts (default 10,000, whatever the
    environment says)."""

    def strategy(h, x_members):
        return select_source_oc1(h, x_members, rng, counter, stats=stats,
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

    def strategy(h, x_members):
        return select_source_weak(h, x_members, rng, counter, stats=stats,
                                  max_attempts=max_attempts, certify=certify)

    return gomory_hu_generalized(g, strategy, depth_stats=depth_stats)
