"""Partition trees, auxiliary graphs, and the Gomory-Hu drivers.

Both drivers refine one PartitionTree in place: cut a supernode's
auxiliary graph H (every tree branch hanging off it contracted to one
node) and split each cut off the supernode.  The classic driver keeps
each splittable supernode's H as an adjacency over g's node indices and
cuts one pivot pair in a copy of it; a cut splits H into the two new
supernodes' graphs in time linear in the smaller side's degree.  A step
depends only on its supernode's H, so classic refines its kept graphs in
any order.  The generalized driver refines the largest supernode first,
builds H afresh (`auxiliary_graph`, from the map `branch_map` gives from
g's nodes to H's labels) and asks its caller's strategy for a source and
a family of pairwise-disjoint minimum source cuts in it; a family that
breaks the contract raises StrategyError at once.  Each driver ends with
a complete partition tree whose singletons form the cut tree.  g's labels
are sorted once, and that one order breaks the ties and orders the
finished tree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .graph import Cut, Graph, _quotient, cut_cost
from .maxflow import WorkCounter, min_cut


@dataclass(frozen=True)
class GHTree:
    """Complete partition tree, exposed as a weighted spanning tree.

    The minimum-weight edge on the s-t path carries the exact minimum
    s-t cut value, and removing it yields an actual minimum cut.
    """

    nodes: tuple
    edges: tuple

    @cached_property
    def _adjacency(self) -> dict:
        """{node: [(neighbour, weight), ...]}, built once per tree."""
        adj = {v: [] for v in self.nodes}
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj

    def query(self, s, t):
        """Minimum s-t cut value and the tree-induced cut containing t: the
        minimum edge nearest s on the path, and the subtree below it."""
        if s == t:
            raise ValueError("query endpoints must be distinct")
        adj = self._adjacency
        if s not in adj or t not in adj:
            raise ValueError("query endpoints must be tree nodes")
        prev = {s: None}
        order = [s]
        for x in order:  # grows while it is read
            for y, w in adj[x]:
                if y not in prev:
                    prev[y] = (x, w)
                    order.append(y)
        if t not in prev:
            raise ValueError("tree is not connected")
        best = None
        x = t
        while prev[x] is not None:
            p, w = prev[x]
            if best is None or w <= best[1]:
                best = x, w
            x = p
        below, best_w = best
        members = {below}
        for x in order[order.index(below) + 1:]:
            if prev[x][0] in members:
                members.add(x)
        return best_w, Cut(frozenset(members), best_w)

    def to_graph(self) -> Graph:
        return Graph(self.nodes, self.edges)


class PartitionTree:
    """Spanning tree over disjoint supernodes covering all graph nodes.

    Starts as one supernode holding every node of g and is refined in
    place by `split`.  `rank[v]` is label v's position in `sorted_labels`
    order; `supernodes[i]` lists supernode i's members in that order, and
    `supernode_of[v]` is the index of the supernode holding v.  Edges are
    [i, j, weight] index triples into `supernodes`; each weight equals the
    cost of the graph cut induced by removing that edge.  `incident[i]`
    lists the indices of supernode i's edges in ascending order, and
    `ends[k]` holds a node of g on each side of edge k, in the order of
    `edges[k]`'s ends; the sides of a tree edge never change.  `depth[i]`
    counts the refinement steps that supernode i and the supernodes it
    was split from have taken.
    """

    def __init__(self, g: Graph):
        self.g = g
        order = g.label_order
        self.rank = {v: r for r, v in enumerate(order)}
        self.supernodes = [list(order)]
        self.supernode_of = dict.fromkeys(order, 0)
        self.edges = []
        self.incident = [[]]
        self.ends = []
        self.depth = [0]

    def pick_supernode(self):
        """Largest splittable supernode; ties by smallest member label."""
        rank, sns = self.rank, self.supernodes
        return min((i for i, sn in enumerate(sns) if len(sn) > 1),
                   key=lambda i: (-len(sns[i]), rank[sns[i][0]]), default=None)

    def neighbours(self, i):
        """Yield (tree neighbour, node of g on its side) per edge of
        supernode i, in edge order."""
        for k in self.incident[i]:
            far = self.edges[k][0] == i  # the position of the other end
            yield self.edges[k][far], self.ends[k][far]

    def split(self, xi: int, b_members: set, weight: int, moved: set) -> None:
        """Replace supernode xi by (xi - b, b).

        Each tree edge of xi whose other end is in `moved` goes to b.  The
        new edge's ends are the smallest members of xi - b and of b.
        """
        members = self.supernodes[xi]
        bi, k = len(self.supernodes), len(self.edges)
        rest = self.supernodes[xi] = [v for v in members if v not in b_members]
        self.supernodes.append([v for v in members if v in b_members])
        self.supernode_of.update(dict.fromkeys(b_members, bi))
        self.depth.append(self.depth[xi] + 1)
        stay, go = [], []
        for e in self.incident[xi]:
            edge = self.edges[e]
            far = edge[0] == xi
            if edge[far] in moved:
                edge[not far] = bi
                go.append(e)
            else:
                stay.append(e)
        self.incident[xi] = stay + [k]
        self.incident.append(go + [k])
        self.edges.append([xi, bi, weight])
        self.ends.append((rest[0], self.supernodes[bi][0]))

    def finish(self) -> GHTree:
        if any(len(sn) != 1 for sn in self.supernodes):
            raise AssertionError("partition tree is not complete")
        rank = self.rank
        rows = []
        for i, j, w in self.edges:
            (u,), (v,) = self.supernodes[i], self.supernodes[j]
            if rank[v] < rank[u]:
                u, v = v, u
            rows.append((u, v, w))
        rows.sort(key=lambda e: (rank[e[0]], rank[e[1]]))
        return GHTree(self.g.label_order, tuple(rows))


def branch_map(tree: PartitionTree, xi: int):
    """Contract every tree branch hanging off supernode xi to one node, as
    a map over g's node indices.

    Returns (rep_of, reps): rep_of[i] is the label of g's i-th node in
    the auxiliary graph H (its own label inside xi, else the label of the
    branch holding it), and reps maps each tree neighbor's supernode index
    to the label of the branch behind it.  The branches take the labels
    ("b", k) that are not nodes of g, in order, in xi's edge order.
    """
    g = tree.g
    fresh = (("b", k) for k in itertools.count() if not g.has_node(("b", k)))
    reps = {}
    branch = [None] * len(tree.supernodes)  # supernode index -> label of its branch
    for (start, _), label in zip(tree.neighbours(xi), fresh):
        reps[start] = label
        branch[start] = label
        stack = [start]
        while stack:
            for nb, _ in tree.neighbours(stack.pop()):
                if nb != xi and branch[nb] is None:
                    branch[nb] = label
                    stack.append(nb)

    of = tree.supernode_of
    # Branch labels are non-empty tuples, so `or` keeps xi's own members.
    return [branch[of[lab]] or lab for lab in g.labels], reps


def auxiliary_graph(g: Graph, tree: PartitionTree, xi: int):
    """The auxiliary graph H of supernode xi, built from `branch_map`.

    Returns (H, reps) where H's nodes are xi's members plus one fresh
    label per tree neighbor, and reps maps each neighbor's supernode index
    to the label of the branch behind it.
    """
    rep_of, reps = branch_map(tree, xi)
    of = tree.supernode_of
    nodes = [lab for lab in g.labels if of[lab] == xi] + list(reps.values())
    return _quotient(g, nodes, rep_of), reps


def _record_depth(depth_stats, depth: int, nodes: int, edges: int) -> None:
    if depth_stats is not None:
        total = depth_stats.get(depth, (0, 0))
        depth_stats[depth] = [total[0] + nodes, total[1] + edges]


def _split_kept(h: dict, side, a, b) -> dict:
    """Split the kept graph h in two along `side`, a set of its nodes
    holding a, and the rest, holding b.

    Returns side's own graph, the rest contracted into the one node b.  h
    becomes the rest's graph in place, side contracted into the one node
    a.  A contracted edge sums the edges it merges, and exists if any of
    them does, so weight-0 edges stay.  Costs O(degree of side).
    """
    own = {x: h.pop(x) for x in side}
    outside = {}  # the rest's neighbours of side, with their summed weights
    to_rest = {}  # side's neighbours of the rest, likewise
    for x, nbrs in own.items():
        for y in [y for y in nbrs if y not in side]:
            w = nbrs.pop(y)
            del h[y][x]
            outside[y] = outside.get(y, 0) + w
            to_rest[x] = to_rest.get(x, 0) + w
        if x in to_rest:
            nbrs[b] = to_rest[x]
    for y, w in outside.items():
        h[y][a] = w
    h[a] = outside
    own[b] = to_rest
    return own


def gomory_hu_classic(g: Graph, counter: WorkCounter, depth_stats: dict | None = None) -> GHTree:
    """Classic construction: one pivot minimum cut per refinement step.

    The pivot pair is the two smallest labels of the supernode, taken by
    the partition tree's label rank, so the output is deterministic.  Each
    supernode of two or more members keeps its auxiliary graph H as an
    adjacency over g's node indices, each branch node named by the node
    of g that `PartitionTree.neighbours` gives for its tree edge; the
    engine cuts a copy of H and records H's size, which `depth_stats`
    reads off the counter.  A cut splits H in two: the smaller side's
    graph is read off its own adjacency, and the larger side's graph is H
    with the smaller side contracted in place.
    """
    tree = PartitionTree(g)
    index = g._index
    kept = {}  # splittable supernode index -> its H
    if g.num_nodes > 1:  # a copy: _split_kept edits each kept graph in place
        kept[0] = {i: nbrs.copy() for i, nbrs in g.adjacency.items()}
    while kept:
        xi, h = kept.popitem()
        members = tree.supernodes[xi]
        s, t = members[:2]
        nodes, edges = counter.nodes_total, counter.edges_total
        cut = min_cut(g, {s}, {t}, counter, adj=h)
        _record_depth(depth_stats, tree.depth[xi], counter.nodes_total - nodes,
                      counter.edges_total - edges)
        sink = g.indices(cut.members)
        moved = {j for j, x in tree.neighbours(xi) if index[x] in sink}
        si, ti = index[s], index[t]
        if 2 * len(sink) <= len(h):
            h_a, h_b = h, _split_kept(h, sink, ti, si)
        else:
            h_b, h_a = h, _split_kept(h, {x for x in h if x not in sink}, si, ti)
        tree.split(xi, cut.members.intersection(members), cut.cost, moved)
        tree.depth[xi] += 1
        for i, h in ((xi, h_a), (len(tree.supernodes) - 1, h_b)):
            if len(tree.supernodes[i]) > 1:
                kept[i] = h
    return tree.finish()


class StrategyError(ValueError):
    """A line-4 strategy returned an unusable cut family."""


def _check_family(family, s, h: Graph, x_members) -> list:
    sets = [frozenset(c) for c in family]
    if not sets:
        raise StrategyError("strategy returned an empty family")
    universe = h.node_set
    seen = set()
    for c in sets:
        if not c:
            raise StrategyError("strategy returned an empty cut")
        if s in c or not c <= universe:
            raise StrategyError("cut is not a subset of the nodes minus the source")
        if not c & x_members:
            raise StrategyError("cut does not split off any supernode member")
        if c & seen:
            raise StrategyError("strategy returned cuts that are not pairwise disjoint")
        seen |= c
    return sets


def gomory_hu_generalized(g: Graph, strategy, depth_stats: dict | None = None) -> GHTree:
    """Generalized driver: split each supernode by a family of disjoint cuts.

    `strategy(h, x_members)` must return (s, family): a source s in x and
    a non-empty family of pairwise-disjoint node sets of h, each a minimum
    s-t cut in h for some t in x, not holding s and holding a member of x.
    Every cut splits off its own piece of x.  A family that breaks this
    contract raises StrategyError; the driver does not call the strategy
    again.  The largest supernode is refined first: a randomized strategy
    draws in refinement order, so this order fixes its trees.
    """
    tree = PartitionTree(g)
    while (xi := tree.pick_supernode()) is not None:
        # Splitting off a disjoint cut changes neither the cost of another
        # nor the branches it holds, so every cut is costed in h.
        x_members = frozenset(tree.supernodes[xi])
        h, reps = auxiliary_graph(g, tree, xi)
        _record_depth(depth_stats, tree.depth[xi], h.num_nodes, h.num_edges)
        s, family = strategy(h, x_members)
        for cut in _check_family(family, s, h, x_members):
            tree.split(xi, cut & x_members, cut_cost(h, cut),
                       {other for other, label in reps.items() if label in cut})
        tree.depth[xi] += 1
    return tree.finish()
