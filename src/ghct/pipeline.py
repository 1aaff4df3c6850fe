"""Randomized source-partition strategies for the generalized driver.

Two interchangeable ways to produce the per-supernode laminar cut family:

* the star-tree route: depth-1 ordered-cut trees plus a source-selection
  loop that walks toward a node none of whose cuts dwarf their complement;
* the weak route: certified ordered cuts (running-minimum filter plus
  isolating cuts) accumulated into a laminar family for a random source.

Both perturb edge weights first so minimum cuts are unique with high
probability, and both are Las-Vegas: outputs are always genuine minimum
cuts of the unperturbed graph, only the number of attempts is random.
Work is tracked in perturbed-weight units within one attempt; the driver
re-costs the returned cuts in original units.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .graph import Graph, cut_cost, label_key, sorted_labels
from .ghtree import GHTree, gomory_hu_generalized
from .isolating import isolating_cuts
from .maxflow import WorkCounter
from .octree import NamedPartition, certified_source_cuts, covering_cut_costs, \
    flatten_to_star, ordered_cuts
from .oracle import is_laminar

DEFAULT_MAX_ATTEMPTS = 10_000


class AttemptLimitError(RuntimeError):
    """The Las-Vegas harness cap was reached without a certified output."""


def max_attempts_cap(explicit: int | None = None) -> int:
    """The attempt cap: `explicit`, else OC_MAX_ATTEMPTS, else the default.

    A value that is not a non-negative integer raises ValueError naming
    where it came from.
    """
    name, value = "max_attempts", explicit
    if value is None:
        name, value = "OC_MAX_ATTEMPTS", os.environ.get("OC_MAX_ATTEMPTS")
        if not value:
            return DEFAULT_MAX_ATTEMPTS
    try:
        cap = int(value)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return cap


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


@dataclass(frozen=True)
class Schedule:
    probabilities: tuple


def partition_schedule(size: int, scale: float = 1.0) -> Schedule:
    """Geometric block (1, 1/2, ..., 2^-floor(log2 size)) repeated
    ceil(scale * log2(size+1)^2) times."""
    if size < 1:
        raise ValueError("schedule needs a positive ground-set size")
    depth = size.bit_length() - 1
    block = [2.0 ** -j for j in range(depth + 1)]
    repeats = max(1, math.ceil(scale * math.log2(size + 1) ** 2))
    return Schedule(tuple(block * repeats))


def source_schedule(size: int, ambient_nodes: int, scale: float = 1.0) -> Schedule:
    """K copies of each rate 2^-d, ..., 2^-1 (K ~ log log of graph size),
    then a final full-sampling round."""
    if size < 1:
        raise ValueError("schedule needs a positive ground-set size")
    depth = size.bit_length() - 1
    k = max(1, math.ceil(scale * math.log2(math.log2(ambient_nodes + 4))))
    rates = [2.0 ** -p for p in range(depth, 0, -1) for _ in range(k)]
    rates.append(1.0)
    return Schedule(tuple(rates))


# -- total order on cuts -------------------------------------------------


def cut_less(a, b, a_cost: int, b_cost: int, x_members) -> bool:
    """Strict total order: cost, then |cut ∩ X|, then a lexicographic rule.

    The final tie-break compares membership of the smallest label in the
    symmetric difference, which makes the order total and deterministic.
    """
    if a_cost != b_cost:
        return a_cost < b_cost
    ax = len(a & x_members)
    bx = len(b & x_members)
    if ax != bx:
        return ax < bx
    diff = a ^ b
    if not diff:
        return False
    return min(diff, key=label_key) in a


# -- certified ordered cuts (weak route) ---------------------------------


def certified_ordered_cuts(s, seq, g: Graph, counter: WorkCounter,
                           certify: str = "isolating"):
    """Cut-cost estimates for a sequence plus certified true source cuts.

    Runs the ordered-cuts solver, keeps the sequence nodes whose estimate
    is a running minimum, and certifies those whose isolating cut matches
    the estimate exactly.  With certify="octree" the isolating-cut stage
    is replaced by certification straight off the tree (inclusion-minimal
    certified down-sets, which are pairwise disjoint).

    Returns (estimates over all non-source nodes, {node: Cut}).
    """
    seq = tuple(seq)
    if not seq:
        return {}, {}
    tree = ordered_cuts((s, *seq), g, counter)
    estimates = covering_cut_costs(tree, g)

    if certify == "octree":
        certified = certified_source_cuts(tree, g)
        kids = tree.children()
        minimal = {}
        for u, cut in certified.items():
            stack = list(kids[u])
            has_certified_descendant = False
            while stack:
                w = stack.pop()
                if w in certified:
                    has_certified_descendant = True
                    break
                stack.extend(kids[w])
            if not has_certified_descendant:
                minimal[u] = cut
        return estimates, minimal
    if certify != "isolating":
        raise ValueError(f"unknown certification mode {certify!r}")

    running = math.inf
    filtered = []
    for v in seq:
        if estimates[v] <= running:
            filtered.append(v)
        running = min(running, estimates[v])
    cuts = isolating_cuts(s, set(filtered), g, counter)
    certified = {v: cut for v, cut in cuts.items() if cut.cost == estimates[v]}
    return estimates, certified


# -- fixed-source partitions ---------------------------------------------


def fixed_source_blocks(s, x, g: Graph, rng, counter: WorkCounter,
                        scale: float = 1.0) -> NamedPartition:
    """Named partition of minimum source cuts covering most of x.

    Repeatedly samples x at scheduled rates, solves ordered cuts on the
    sample sorted by decreasing cost estimate, flattens to a star, and
    absorbs the blocks.  The final full-rate round is filtered by the
    running-minimum rule, which guarantees every kept block is a genuine
    minimum source cut of g.
    """
    live = set(x)
    if not live:
        return NamedPartition((), {})
    estimates = {v: cut_cost(g, {v}) for v in live}
    rates = partition_schedule(len(live), scale).probabilities

    for i, rate in enumerate((*rates, 1.0)):
        final = i == len(rates)
        sample = random_subset(live, rate, rng)
        seq = sorted(sample, key=lambda v: (-estimates[v], label_key(v)))
        if not seq:
            if final:
                return NamedPartition((), {})
            continue
        star = flatten_to_star(ordered_cuts((s, *seq), g, counter))
        if not final:
            for v in star.reps:
                block = star.blocks[v]
                live -= block - {v}
                cost = cut_cost(g, block)
                for u in block:
                    if cost < estimates.get(u, math.inf):
                        estimates[u] = cost
        else:
            reps = []
            best = math.inf
            for v in star.reps:
                cost = cut_cost(g, star.blocks[v])
                if cost <= best:
                    reps.append(v)
                    best = cost
            return NamedPartition(tuple(reps), {v: star.blocks[v] for v in reps})
    raise AssertionError("unreachable")


def fixed_source_laminar(s, x, limit: int, g: Graph, rng, counter: WorkCounter,
                         scale: float = 1.0, certify: str = "isolating") -> list:
    """Laminar family of minimum source cuts touching at most `limit` of x.

    Accumulates certified cuts over twice the partition schedule, keeping
    per-node running estimates; returns [] as soon as the family stops
    being laminar (the caller re-perturbs and retries).
    """
    x = set(x)
    if not x:
        return []
    estimates = {v: cut_cost(g, {v}) for v in g.labels if v != s}
    rates = partition_schedule(len(x), scale).probabilities
    family: set = set()
    covered: set = set()
    for rate in rates + rates:
        candidates = x - covered
        if not candidates:
            break
        sample = random_subset(candidates, rate, rng)
        seq = sorted(sample, key=lambda v: (-estimates[v], label_key(v)))
        if not seq:
            continue
        lam, certified = certified_ordered_cuts(s, seq, g, counter, certify)
        for v in sample:
            estimates[v] = min(estimates[v], lam[v])
        grew = False
        for cut in certified.values():
            if len(cut.members & x) <= limit and cut.members not in family:
                family.add(cut.members)
                covered |= cut.members
                grew = True
        if grew and not is_laminar(family):
            return []
    return sorted(family, key=lambda c: (len(c), sorted(label_key(v) for v in c)))


# -- source selection (the driver's line-4 strategies) --------------------


def _las_vegas(h: Graph, x, stats: PipelineStats | None,
               max_attempts: int | None, attempt):
    """Run `attempt(xs, x_set)` until it returns a result other than None.

    `xs` is x in label order.  Owns the attempt cap, the PipelineStats
    record of accepted invocations and the AttemptLimitError.
    """
    xs = sorted_labels(x)
    if len(xs) < 2:
        raise ValueError("need at least two supernode members")
    cap = max_attempts_cap(max_attempts)
    x_set = set(xs)
    for attempts in range(1, cap + 1):
        result = attempt(xs, x_set)
        if result is not None:
            if stats is not None:
                stats.record(attempts)
            return result
    raise AttemptLimitError(
        f"source selection exceeded {cap} attempts on a {h.num_nodes}-node graph")


def select_source_oc1(h: Graph, x, rng, counter: WorkCounter,
                      stats: PipelineStats | None = None,
                      max_attempts: int | None = None,
                      scale_alpha: float = 1.0, scale_beta: float = 1.0):
    """Pick a source and disjoint minimum source cuts covering x via
    star-shaped ordered-cut trees.

    Follows the source toward locally-heaviest nodes: whenever some block
    is larger (in the cut order) than its complement, the source jumps to
    that block's representative.  Terminates only once all of x minus the
    source is covered by blocks; otherwise re-perturbs and retries.
    """
    def attempt(xs, x_set):
        s = xs[0]
        perturbed = perturb(h, rng)
        whole = h.node_set
        for rate in source_schedule(len(xs), h.num_nodes, scale_beta).probabilities:
            sample = random_subset(x_set - {s}, rate, rng)
            part = fixed_source_blocks(s, sample, perturbed, rng, counter,
                                       scale_alpha)
            for v in part.reps:
                block = part.blocks[v]
                cost = cut_cost(h, block)
                if cut_less(whole - block, block, cost, cost, x_set):
                    s = v  # the block outweighs its complement: move there
                    break
            else:
                if x_set - {s} <= part.covered():
                    return s, [frozenset(part.blocks[v]) for v in part.reps]
        return None

    return _las_vegas(h, x, stats, max_attempts, attempt)


def select_source_weak(h: Graph, x, rng, counter: WorkCounter,
                       stats: PipelineStats | None = None,
                       max_attempts: int | None = None,
                       scale_alpha: float = 1.0,
                       certify: str = "isolating"):
    """Pick a uniformly random source; accept once the laminar family of
    small-side cuts covers all but half of x."""
    def attempt(xs, x_set):
        limit = math.ceil(len(xs) / 2)
        s = rng.choice(xs)
        perturbed = perturb(h, rng)
        family = fixed_source_laminar(s, x_set - {s}, limit, perturbed, rng,
                                      counter, scale_alpha, certify)
        family = [c for c in family
                  if not any(c < other for other in family)]
        covered = set().union(*family) if family else set()
        if len((h.node_set - covered) & x_set) <= limit and family:
            return s, family
        return None

    return _las_vegas(h, x, stats, max_attempts, attempt)


# -- end-to-end constructions ---------------------------------------------


def gh_via_oc1(g: Graph, rng, counter: WorkCounter,
               stats: PipelineStats | None = None,
               max_attempts: int | None = None,
               scale_alpha: float = 1.0, scale_beta: float = 1.0,
               depth_stats: dict | None = None) -> GHTree:
    """Cut tree via the star-tree (depth-1) strategy."""

    def strategy(h, x_members):
        return select_source_oc1(h, x_members, rng, counter, stats=stats,
                                 max_attempts=max_attempts,
                                 scale_alpha=scale_alpha, scale_beta=scale_beta)

    return gomory_hu_generalized(g, strategy, counter, depth_stats=depth_stats)


def gh_via_weak_oc(g: Graph, rng, counter: WorkCounter,
                   stats: PipelineStats | None = None,
                   max_attempts: int | None = None,
                   scale_alpha: float = 1.0,
                   certify: str = "isolating",
                   depth_stats: dict | None = None) -> GHTree:
    """Cut tree via certified weak ordered cuts."""

    def strategy(h, x_members):
        return select_source_weak(h, x_members, rng, counter, stats=stats,
                                  max_attempts=max_attempts,
                                  scale_alpha=scale_alpha, certify=certify)

    return gomory_hu_generalized(g, strategy, counter, depth_stats=depth_stats)
