"""Independent brute-force ground truth.

Deliberately naive: minimum cuts by exhaustive enumeration, cut-tree
verification by checking every node pair, laminarity by pairwise tests.
This module must stay independent of the algorithms it judges: it reads a
judged tree's nodes and edges and runs none of its code, and the only
engine it touches is the max-flow reference (and only above the
enumeration limit, or where the definition itself is flow-based).  There,
all-pairs values take n-1 max flows, not one per pair (Gusfield, "Very
simple methods for all pairs network flow analysis", SIAM J. Comput. 1990).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from .graph import Graph, cut_cost, sorted_labels
from .maxflow import WorkCounter, min_cut

MAX_ENUM_NODES = 20
# Above this size the all-pairs reference is Gusfield's n-1 max flows
# instead of per-pair enumeration.
MAX_PAIRWISE_ENUM_NODES = 12


@dataclass(frozen=True)
class BruteCutResult:
    """Exhaustive minimum S-T cut: value, witness, and tie census."""

    cost: int
    sink_side: frozenset
    num_minimum: int
    minimal_sink_side: frozenset


def _enumerate_min_sides(g: Graph, s_side, t_side):
    """Gray-code walk over all sink sides U with T <= U <= V - S."""
    s_idx = g.indices(s_side)
    t_idx = g.indices(t_side)
    if not s_idx or not t_idx:
        raise ValueError("terminal sides must be non-empty")
    if s_idx & t_idx:
        raise ValueError("terminal sides must be disjoint")
    if g.num_nodes > MAX_ENUM_NODES:
        raise ValueError(f"enumeration limited to {MAX_ENUM_NODES} nodes")

    free = [i for i in range(g.num_nodes) if i not in s_idx and i not in t_idx]
    adj = [[] for _ in g.labels]
    for iu, iv, w in g.edges:
        adj[iu].append((iv, w))
        adj[iv].append((iu, w))
    inside = [False] * g.num_nodes
    for i in t_idx:
        inside[i] = True
    cost = 0
    for iu, iv, w in g.edges:
        if inside[iu] != inside[iv]:
            cost += w

    def flip(i):
        nonlocal cost
        entering = not inside[i]
        for j, w in adj[i]:
            if inside[j]:
                cost += -w if entering else w
            else:
                cost += w if entering else -w
        inside[i] = entering

    best = cost
    best_sides = [frozenset(i for i in range(g.num_nodes) if inside[i])]
    for step in range(1, 1 << len(free)):
        # Gray code: between step-1 and step exactly bit (lowest set bit
        # of step) flips.
        bit = (step & -step).bit_length() - 1
        flip(free[bit])
        if cost < best:
            best = cost
            best_sides = [frozenset(i for i in range(g.num_nodes) if inside[i])]
        elif cost == best:
            best_sides.append(frozenset(i for i in range(g.num_nodes) if inside[i]))
    return best, best_sides


def brute_min_cut(g: Graph, s_side, t_side) -> BruteCutResult:
    """Exact minimum by exhaustive enumeration, with the tie count.

    `num_minimum` counts distinct minimum cuts (a uniqueness detector) and
    `minimal_sink_side` is the intersection of all minimum sink sides,
    which is itself a minimum cut.
    """
    best, sides = _enumerate_min_sides(g, s_side, t_side)
    labels = g.labels

    def as_labels(side):
        return frozenset(labels[i] for i in side)

    minimal = frozenset.intersection(*sides)
    first = min(sides, key=sorted)
    return BruteCutResult(best, as_labels(first), len(sides), as_labels(minimal))


def brute_all_min_cuts(g: Graph, s_side, t_side) -> list:
    """All minimum sink sides, as label sets."""
    _, sides = _enumerate_min_sides(g, s_side, t_side)
    labels = g.labels
    return [frozenset(labels[i] for i in side) for side in sides]


@dataclass(slots=True)  # slots: a caller may hold thousands of reports
class Report:
    """Verification outcome; serializes to JSON for CI consumption."""

    kind: str
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def add(self, **fields) -> None:
        self.violations.append(fields)

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "ok": self.ok,
            "violations": [
                {k: sorted_labels(v) if isinstance(v, (set, frozenset)) else v
                 for k, v in item.items()}
                for item in self.violations
            ],
        }
        return json.dumps(payload, indent=2, default=str)


def reference_cut_values(g: Graph) -> dict:
    """Exact {(s, t): lambda(s, t)} for every pair s < t in sorted_labels order.

    Up to MAX_PAIRWISE_ENUM_NODES nodes each pair is enumerated.  Above,
    Gusfield's equivalent-flow tree: one flow from each node i to an earlier
    node p[i]; lambda(s, t) is the least flow on the tree path from s to t.
    """
    nodes = sorted_labels(g.labels)
    n = len(nodes)
    if n <= MAX_PAIRWISE_ENUM_NODES:
        return {(s, t): brute_min_cut(g, {s}, {t}).cost
                for i, s in enumerate(nodes) for t in nodes[i + 1:]}
    counter = WorkCounter()  # the global at call time, so callers can swap it
    p = [0] * n
    flow = [0] * n
    for i in range(1, n):
        cut = min_cut(g, {nodes[i]}, {nodes[p[i]]}, counter)
        flow[i] = cut.cost
        for j in range(i + 1, n):
            if p[j] == p[i] and nodes[j] not in cut.members:
                p[j] = i
    # p[b] < b, so the tree path from a < b to b ends with the edge p[b]-b.
    table = {}
    for a, s in enumerate(nodes):
        for b in range(a + 1, n):
            q = p[b]
            rest = float("inf") if q == a else table[(s, nodes[q]) if a < q else (nodes[q], s)]
            table[s, nodes[b]] = min(rest, flow[b])
    return table


def _tree_adjacency(tree) -> dict:
    """{node: [(neighbour, weight, edge index), ...]} of a spanning tree.

    Raises ValueError when `tree.edges` do not span `tree.nodes` as a tree.
    """
    adj = {v: [] for v in tree.nodes}
    if len(tree.edges) != len(adj) - 1:
        raise ValueError("tree must have exactly n-1 edges")
    for k, (u, v, w) in enumerate(tree.edges):
        if u not in adj or v not in adj:
            raise ValueError(f"tree edge ({u!r}, {v!r}) leaves the tree's nodes")
        adj[u].append((v, w, k))
        adj[v].append((u, w, k))
    if len(_side(adj, next(iter(adj)), None)) != len(adj):
        raise ValueError("tree is not connected")
    return adj


def _side(adj: dict, start, k) -> frozenset:
    """The nodes reachable from `start` without crossing tree edge k."""
    members = {start}
    stack = [start]
    while stack:
        for y, _, j in adj[stack.pop()]:
            if j != k and y not in members:
                members.add(y)
                stack.append(y)
    return frozenset(members)


def verify_gh_tree(g: Graph, tree, reference: dict | None = None) -> Report:
    """Check the cut-tree property for every node pair.

    For each pair (s, t) the minimum edge on the tree path must equal the
    true minimum s-t cut value, and removing that edge must induce a cut
    of exactly that cost in `g`; on a tie the edge nearest s is taken, and
    a violation reports the side of it away from s.  Only `tree.nodes` and
    `tree.edges` are read; ValueError if they are not a spanning tree of
    g's nodes.  Cost: `reference_cut_values` (n-1 max flows, Gusfield
    1990), one tree walk per source, and at most n-1 induced-cut costs.
    `reference` may supply precomputed {(s, t): value} entries to avoid
    recomputing across methods; if a pair is missing, every missing pair
    is filled in.
    """
    report = Report("gh-tree")
    if set(tree.nodes) != set(g.labels):
        raise ValueError("tree and graph have different node sets")
    adj = _tree_adjacency(tree)
    nodes = sorted_labels(g.labels)
    if reference is None:
        reference = reference_cut_values(g)
    elif any((s, t) not in reference for i, s in enumerate(nodes) for t in nodes[i + 1:]):
        for pair, value in reference_cut_values(g).items():
            reference.setdefault(pair, value)
    induced_costs = {}  # tree edge index -> cost of either side
    for i, s in enumerate(nodes):
        # Walk from s; best[t] = (weight, edge index, endpoint away from s)
        # of the minimum edge on the s-t path, the one nearest s on a tie.
        best = {s: None}
        order = [s]
        for x in order:  # grows while it is read
            above = best[x]
            for y, w, k in adj[x]:
                if y not in best:
                    best[y] = above if above is not None and above[0] <= w else (w, k, y)
                    order.append(y)
        for t in nodes[i + 1:]:
            expected = reference[s, t]
            value, k, below = best[t]
            induced = induced_costs.get(k)
            if induced is None:
                induced = induced_costs[k] = cut_cost(g, _side(adj, below, k))
            if value != expected or induced != expected:
                report.add(s=s, t=t, tree_value=value, expected=expected,
                           induced_cut_cost=induced, cut=_side(adj, below, k))
    return report


def is_laminar(family: Iterable) -> bool:
    """True iff every pair of sets is nested or disjoint."""
    sets = [frozenset(s) for s in family]
    for i, a in enumerate(sets):
        for b in sets[i + 1:]:
            if a & b and not (a <= b or b <= a):
                return False
    return True


def verify_oc1(blocks: dict, seq, g: Graph) -> Report:
    """Check a depth-1 OC tree {rep: block} against its node sequence.

    Condition (i): the block of each representative v (at position k) is a
    minimum ({s} + earlier representatives)-v cut, checked via max flow.
    Condition (ii): every sequence node is covered by the block of some
    representative at an earlier-or-equal position.
    """
    report = Report("oc1")
    seq = tuple(seq)
    s = seq[0]
    counter = WorkCounter()
    earlier_reps: list = []
    for v in seq[1:]:
        if v in blocks:
            block = blocks[v]
            expected = min_cut(g, {s, *earlier_reps}, {v}, counter).cost
            actual = cut_cost(g, block)
            if actual != expected:
                report.add(condition="block-minimality", node=v,
                           block_cost=actual, expected=expected)
            covered = True  # v covers itself via its own block
            earlier_reps.append(v)
        else:
            covered = any(v in blocks[r] for r in earlier_reps)
        if not covered:
            report.add(condition="coverage", node=v)
    return report
