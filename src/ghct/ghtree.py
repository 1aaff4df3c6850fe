"""Partition trees, auxiliary graphs, and the Gomory-Hu drivers.

The classic algorithm refines one supernode per step with a single pivot
cut.  The generalized driver accepts a strategy that returns a whole
laminar family of source cuts per supernode and applies them minimal
first, re-contracting as it goes; both end with a complete partition tree
whose singletons form the cut tree.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .graph import Cut, Graph, _quotient, contract_set_to_node, cut_cost, label_key, \
    sorted_labels, unused_label
from .maxflow import WorkCounter, min_cut
from .oracle import is_laminar


@dataclass(frozen=True)
class PartitionTree:
    """Spanning tree over disjoint supernodes covering all graph nodes.

    Edges are (i, j, weight) index triples into `supernodes`; each weight
    equals the cost of the graph cut induced by removing that edge.
    """

    supernodes: tuple
    edges: tuple


@dataclass(frozen=True)
class GHTree:
    """Complete partition tree, exposed as a weighted spanning tree.

    The minimum-weight edge on the s-t path carries the exact minimum
    s-t cut value, and removing it yields an actual minimum cut.
    """

    nodes: tuple
    edges: tuple

    def _adjacency(self) -> dict:
        adj = {v: [] for v in self.nodes}
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj

    def query(self, s, t):
        """Minimum s-t cut value and the tree-induced cut containing t."""
        if s == t:
            raise ValueError("query endpoints must be distinct")
        adj = self._adjacency()
        if s not in adj or t not in adj:
            raise ValueError("query endpoints must be tree nodes")
        prev = {s: None}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            if x == t:
                break
            for y, w in adj[x]:
                if y not in prev:
                    prev[y] = (x, w)
                    queue.append(y)
        if t not in prev:
            raise ValueError("tree is not connected")
        best_edge = None
        best_w = None
        x = t
        while prev[x] is not None:
            p, w = prev[x]
            if best_w is None or w <= best_w:
                best_edge, best_w = (p, x), w
            x = p
        a, b = best_edge
        members = set()
        queue = deque([b])
        seen = {b}
        while queue:
            x = queue.popleft()
            members.add(x)
            for y, _ in adj[x]:
                if y not in seen and not (x == b and y == a):
                    seen.add(y)
                    queue.append(y)
        return best_w, Cut(frozenset(members), best_w)

    def to_graph(self) -> Graph:
        return Graph(self.nodes, self.edges)


def auxiliary_graph(g: Graph, tree: PartitionTree, xi: int):
    """Contract every tree branch hanging off supernode xi to one node.

    Returns (H, reps) where H's nodes are xi's members plus one fresh
    label per tree neighbor, and reps maps each neighbor's supernode index
    to the label of the branch behind it.
    """
    adj = {i: [] for i in range(len(tree.supernodes))}
    for i, j, _ in tree.edges:
        adj[i].append(j)
        adj[j].append(i)

    reps = {}
    branch_of = {}
    names = itertools.count()
    for start in adj[xi]:
        label = reps[start] = unused_label("b", names, g)
        component = {start}
        queue = deque([start])
        while queue:
            k = queue.popleft()
            for v in tree.supernodes[k]:
                branch_of[v] = label
            for nb in adj[k]:
                if nb != xi and nb not in component:
                    component.add(nb)
                    queue.append(nb)

    x_members = tree.supernodes[xi]
    nodes = [lab for lab in g.labels if lab in x_members] + list(reps.values())
    rep_of = [branch_of.get(lab, lab) for lab in g.labels]
    return _quotient(g, nodes, rep_of), reps


class _TreeState:
    """Mutable partition tree used while a driver runs."""

    def __init__(self, g: Graph):
        self.g = g
        self.supernodes = [set(g.labels)]
        self.edges = []  # [i, j, weight] triples, mutated in place
        self.depth = [0]

    def snapshot(self) -> PartitionTree:
        return PartitionTree(
            tuple(frozenset(sn) for sn in self.supernodes),
            tuple((i, j, w) for i, j, w in self.edges),
        )

    def pick_supernode(self):
        """Largest splittable supernode; ties by smallest member label."""
        best = None
        for i, sn in enumerate(self.supernodes):
            if len(sn) < 2:
                continue
            key = (-len(sn), min(label_key(v) for v in sn))
            if best is None or key < best[0]:
                best = (key, i)
        return None if best is None else best[1]

    def split(self, xi: int, b_members: set, weight: int, moved_to_b) -> int:
        """Replace supernode xi by (xi - b, b); returns b's index.

        `moved_to_b(other_index)` decides which side keeps each existing
        tree edge of xi.
        """
        self.supernodes[xi] -= b_members
        bi = len(self.supernodes)
        self.supernodes.append(set(b_members))
        self.depth.append(self.depth[xi] + 1)
        for edge in self.edges:
            if edge[0] == xi and moved_to_b(edge[1]):
                edge[0] = bi
            elif edge[1] == xi and moved_to_b(edge[0]):
                edge[1] = bi
        self.edges.append([xi, bi, weight])
        return bi

    def finish(self) -> GHTree:
        labels = []
        for sn in self.supernodes:
            if len(sn) != 1:
                raise AssertionError("partition tree is not complete")
            labels.append(next(iter(sn)))
        rows = []
        for i, j, w in self.edges:
            u, v = labels[i], labels[j]
            if label_key(v) < label_key(u):
                u, v = v, u
            rows.append((u, v, w))
        rows.sort(key=lambda e: (label_key(e[0]), label_key(e[1])))
        return GHTree(tuple(sorted_labels(self.g.labels)), tuple(rows))


def _record_depth(depth_stats, depth: int, h: Graph) -> None:
    if depth_stats is None:
        return
    nodes, edges = depth_stats.setdefault(depth, [0, 0])
    depth_stats[depth] = [nodes + h.num_nodes, edges + h.num_edges]


def gomory_hu_classic(g: Graph, counter: WorkCounter, depth_stats: dict | None = None) -> GHTree:
    """Classic construction: one pivot minimum cut per refinement step.

    The pivot pair is the two smallest labels of the chosen supernode, so
    the output is deterministic.
    """
    state = _TreeState(g)
    while True:
        xi = state.pick_supernode()
        if xi is None:
            break
        h, reps = auxiliary_graph(g, state.snapshot(), xi)
        _record_depth(depth_stats, state.depth[xi], h)
        members = sorted_labels(state.supernodes[xi])
        s, t = members[0], members[1]
        res = min_cut(h, {s}, {t}, counter)
        sink = res.sink_side
        b_members = state.supernodes[xi] & sink
        state.split(xi, b_members, res.cost, lambda other: reps[other] in sink)
        state.depth[xi] += 1
    return state.finish()


MAX_STRATEGY_RETRIES = 100


class StrategyError(ValueError):
    """A line-4 strategy returned an unusable cut family."""


def _check_family(family, s, h: Graph, x_members) -> list:
    sets = [frozenset(c) for c in family]
    if not sets:
        raise StrategyError("strategy returned an empty family")
    universe = h.node_set
    for c in sets:
        if not c:
            raise StrategyError("strategy returned an empty cut")
        if s in c or not c <= universe - {s}:
            raise StrategyError("cut is not a subset of the nodes minus the source")
        if not c & x_members:
            raise StrategyError("cut does not split off any supernode member")
    if not is_laminar(sets):
        raise StrategyError("strategy returned a non-laminar family")
    return sets


def gomory_hu_generalized(g: Graph, strategy, counter: WorkCounter,
                          depth_stats: dict | None = None) -> GHTree:
    """Generalized driver: apply a laminar family per supernode.

    `strategy(h, x_members)` must return (s, family) with every member a
    minimum s-t cut in h for some t in x.  Cuts are applied smallest
    first; the processed side is re-contracted into a fresh node and the
    remaining supersets are rewritten to reference it.  An invalid family
    is rejected and the strategy is simply invoked again, up to
    MAX_STRATEGY_RETRIES times in all.
    """
    state = _TreeState(g)
    vb_names = itertools.count()
    while True:
        xi = state.pick_supernode()
        if xi is None:
            break
        x_members = frozenset(state.supernodes[xi])
        h, rep_label = auxiliary_graph(g, state.snapshot(), xi)
        _record_depth(depth_stats, state.depth[xi], h)

        for attempt in range(MAX_STRATEGY_RETRIES):
            try:
                s, family = strategy(h, x_members)
                pi = _check_family(family, s, h, x_members)
                break
            except StrategyError:
                if attempt == MAX_STRATEGY_RETRIES - 1:
                    raise

        while pi:
            cut = min(pi, key=lambda c: (len(c), sorted(label_key(v) for v in c)))
            pi.remove(cut)
            weight = cut_cost(h, cut)
            b_members = {v for v in cut if v in x_members}
            if not b_members:
                raise AssertionError("cut lost all supernode members after rewriting")
            bi = state.split(xi, b_members, weight,
                             lambda other: rep_label.get(other) in cut)
            for other in [o for o, lab in rep_label.items() if lab in cut]:
                del rep_label[other]

            vb_label = unused_label("vb", vb_names, h, g)
            h = contract_set_to_node(h, cut, vb_label)
            rep_label[bi] = vb_label
            pi = [c if not (cut <= c) else (c - cut) | {vb_label} for c in pi]
        state.depth[xi] += 1
    return state.finish()
