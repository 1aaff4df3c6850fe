"""Partition trees, auxiliary graphs, and the Gomory-Hu drivers.

Both drivers refine one PartitionTree in place: cut a supernode's
auxiliary graph H (every tree branch hanging off it contracted to one
node) and split each cut off the supernode.  The tree works over g's
node indices.  It keeps each splittable supernode's H as an adjacency
over them, and a cut is a side of that kept graph: a set of its nodes,
members and branch nodes alike.  A split splits H into the two new
supernodes' graphs in time linear in the smaller side's degree.  The
classic driver cuts one pivot pair in a copy of a kept H; a step depends
only on its supernode's H, so it takes the kept graphs in any order.
The generalized driver refines the largest supernode first, hands its
caller's strategy the kept H itself with H's node order
(`auxiliary_graph`), and asks it for a source and a family of
pairwise-disjoint minimum source cuts in H; a family that breaks the
contract raises StrategyError at once.  Each driver ends with a complete
partition tree whose singletons form the cut tree.  g's labels are
sorted once (`Graph.rank`), and that one order breaks the ties and
orders the finished tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graph import Cut, Graph
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
    place by `split`.  It works over g's node indices: `rank[x]` is node
    x's position in g's `label_order` (`Graph.rank`), and `supernodes[i]`
    lists supernode i's members in that order.  Edges are [i, j, weight]
    index triples into `supernodes`; each weight equals the cost of the
    graph cut induced by removing that edge.  `incident[i]` lists the
    indices of supernode i's edges in ascending order, and `ends[k]` holds
    a node of g on each side of edge k, in the order of `edges[k]`'s ends;
    the sides of a tree edge never change.  `depth[i]` counts the
    refinement steps that supernode i and the supernodes it was split from
    have taken.  Labels are read only by `finish`.

    `kept[i]` is the auxiliary graph H of each supernode i of two or more
    members: every tree branch hanging off i contracted to one node.  It
    is an adjacency {node: {neighbour: weight}} over g's node indices;
    i's members are their own nodes, and the branch behind each of i's
    edges is the node `neighbours` gives for that edge.  Only `split`
    edits it.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.supernodes = [[g._index[v] for v in g.label_order]]
        self.rank = g.rank
        self.edges = []
        self.incident = [[]]
        self.ends = []
        self.depth = [0]
        self.kept = {}
        if g.num_nodes > 1:  # a copy: split edits each kept graph in place
            self.kept[0] = {i: nbrs.copy() for i, nbrs in g.adjacency.items()}

    def pick_supernode(self):
        """Largest supernode with a kept graph; ties by smallest member label."""
        rank, sns = self.rank, self.supernodes
        return min(self.kept, key=lambda i: (-len(sns[i]), rank[sns[i][0]]), default=None)

    def neighbours(self, i):
        """Yield the branch node, the node of g on the far side, of each
        edge of supernode i, in edge order."""
        for k in self.incident[i]:
            yield self.ends[k][self.edges[k][0] == i]

    def split(self, xi: int, side: set, weight: int) -> None:
        """Replace supernode xi by (xi - b, b) along `side`, a set of
        nodes of xi's kept graph.

        b is xi's members in side.  A side holding none or all of them, or
        a node outside the kept graph, raises ValueError and changes
        nothing.  Each tree edge of xi whose branch node is in side goes
        to b.  The new edge's ends are the first members of xi - b and of
        b.  xi's kept graph splits along side, walking the smaller part:
        side is contracted into the node of b's first member, and the rest
        into that of xi - b's.  A part of one member keeps no graph.
        """
        members = self.supernodes[xi]
        b = [x for x in members if x in side]
        if not b or len(b) == len(members) or not side <= self.kept[xi].keys():
            raise ValueError("side must hold some but not all of the supernode's"
                             " members, and only nodes of its kept graph")
        rest = self.supernodes[xi] = [x for x in members if x not in side]
        bi, k = len(self.supernodes), len(self.edges)
        self.supernodes.append(b)
        self.depth.append(self.depth[xi] + 1)
        stay, go = [], []
        for e in self.incident[xi]:
            edge = self.edges[e]
            far = edge[0] == xi
            if self.ends[e][far] in side:
                edge[not far] = bi
                go.append(e)
            else:
                stay.append(e)
        self.incident[xi] = stay + [k]
        self.incident.append(go + [k])
        self.edges.append([xi, bi, weight])
        self.ends.append((rest[0], b[0]))
        h = self.kept.pop(xi)
        if 2 * len(side) <= len(h):
            h_rest, h_b = h, _split_kept(h, side, b[0], rest[0])
        else:
            h_b, h_rest = h, _split_kept(h, {x for x in h if x not in side}, rest[0], b[0])
        for i, sn, kept in ((xi, rest, h_rest), (bi, b, h_b)):
            if len(sn) > 1:
                self.kept[i] = kept

    def finish(self) -> GHTree:
        if any(len(sn) != 1 for sn in self.supernodes):
            raise AssertionError("partition tree is not complete")
        rank, labels = self.rank, self.g.labels
        rows = []
        for i, j, w in self.edges:
            (u,), (v,) = self.supernodes[i], self.supernodes[j]
            if rank[v] < rank[u]:
                u, v = v, u
            rows.append((u, v, w))
        rows.sort(key=lambda e: (rank[e[0]], rank[e[1]]))
        return GHTree(self.g.label_order, tuple((labels[u], labels[v], w) for u, v, w in rows))


def auxiliary_graph(tree: PartitionTree, xi: int):
    """The auxiliary graph H of supernode xi, with H's node order.

    Returns (h, nodes): h is `tree.kept[xi]` itself, which no caller may
    edit, and nodes lists its nodes: xi's members by node index, then the
    branch node of each of xi's edges, in edge order.  A randomized
    strategy draws its edge weight offsets in this order.  A singleton has
    no kept graph and raises ValueError.
    """
    if xi not in tree.kept:
        raise ValueError(f"supernode {xi} has fewer than two members")
    return tree.kept[xi], sorted(tree.supernodes[xi]) + list(tree.neighbours(xi))


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
    the partition tree's label rank, so the output is deterministic.  The
    engine cuts a copy of the supernode's kept graph H and records H's
    size, which `depth_stats` reads off the counter; `PartitionTree.split`
    then splits H along the cut.  A step depends only on its supernode's
    H, so classic takes the kept graphs in any order: the last one kept.
    """
    tree = PartitionTree(g)
    while tree.kept:
        xi = next(reversed(tree.kept))
        s, t = tree.supernodes[xi][:2]
        nodes, edges = counter.nodes_total, counter.edges_total
        cut = min_cut(g, {s}, {t}, counter, adj=tree.kept[xi])
        _record_depth(depth_stats, tree.depth[xi], counter.nodes_total - nodes,
                      counter.edges_total - edges)
        tree.split(xi, cut.members, cut.cost)
        tree.depth[xi] += 1
    return tree.finish()


class StrategyError(ValueError):
    """A line-4 strategy returned an unusable cut family."""


def _check_family(family, s, h: dict, x_members: set) -> list:
    if s not in x_members:
        raise StrategyError("source is not a supernode member")
    sets = [frozenset(c) for c in family]
    if not sets:
        raise StrategyError("strategy returned an empty family")
    universe = h.keys()
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

    `strategy(h, nodes, x)` gets what `auxiliary_graph` returns for a
    supernode and x, its members in g's label order, all g's node indices.
    It must return (s, family): a source s in x and a non-empty family of
    pairwise-disjoint sets of h's nodes, each a minimum s-t cut in h for
    some t in x, not holding s and holding a member of x.  Every cut
    splits off its own piece of x.  A family that breaks this contract
    raises StrategyError; the driver does not call the strategy again.
    The largest supernode is refined first: a randomized strategy draws
    in refinement order, so this order fixes its trees.
    """
    tree = PartitionTree(g)
    while (xi := tree.pick_supernode()) is not None:
        x = tree.supernodes[xi]
        h, nodes = auxiliary_graph(tree, xi)
        _record_depth(depth_stats, tree.depth[xi], len(h), sum(map(len, h.values())) // 2)
        s, family = strategy(h, nodes, x)
        cuts = _check_family(family, s, h, set(x))
        # Splitting off a disjoint cut changes neither the cost of another
        # nor the kept nodes it holds, so every cut is costed in h first.
        for cut, cost in zip(cuts, _family_costs(h, cuts)):
            tree.split(xi, cut, cost)
        tree.depth[xi] += 1
    return tree.finish()


def _family_costs(h: dict, cuts: list) -> list:
    """The cost in h of each cut of a pairwise-disjoint family, from one
    pass over the rows of the cuts' nodes."""
    owner = {x: k for k, cut in enumerate(cuts) for x in cut}
    costs = [0] * len(cuts)
    for x, k in owner.items():
        for y, w in h[x].items():
            if owner.get(y) != k:
                costs[k] += w
    return costs
