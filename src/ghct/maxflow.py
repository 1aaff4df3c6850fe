"""Exact minimum S-T cut engine with minimal-side extraction.

A shortest-augmenting-path solver over exact integer capacities (Edmonds
& Karp 1972).  Each search is bidirectional: breadth-first trees grow
from the source and from the sink until they meet, and every meet of one
level expansion closes a shortest augmenting path, so one search serves
many augmentations.  Every higher-level routine that runs a flow funnels
through the three entry points here, each of which records the size of
the graph it cuts in a WorkCounter once its terminal sides pass
validation, and returns a `Cut`: the sink side as `members`, the flow
value as `cost`.  `octree` and `isolating` call the engine only for a
cut with two or more nodes outside its terminal sides; any other cut
they read off the graph in hand (`graph.forced_min_cut`), which records
no work.

Every call cuts a graph H: g itself, or, given `adj`, a contracted graph
of g its caller keeps as an adjacency `{node: {neighbour: weight}}` over
g's node indices, each node of H named by one node of g inside it.  A
plain call takes and returns g's labels; a call with `adj` takes and
returns nodes of H, that is node indices of g.  A plain call reads g's
own adjacency (`Graph.adjacency`), so both build their flow network one
way: copy H, merging each terminal side into one
of its nodes on the way (no infinite-capacity arcs, so all arithmetic
stays bounded).  One max-flow core then runs on that network.
Tie-breaking is deterministic: residual reachability decides which side
is returned, and no randomness is used.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Cut, Graph


@dataclass
class WorkCounter:
    """Accumulated sizes of graphs passed to the min-cut engine."""

    calls: int = 0
    nodes_total: int = 0
    edges_total: int = 0

    def record(self, nodes: int, edges: int) -> None:
        self.calls += 1
        self.nodes_total += nodes
        self.edges_total += edges

    def snapshot(self) -> dict:
        return {
            "maxflow_calls": self.calls,
            "nodes_total": self.nodes_total,
            "edges_total": self.edges_total,
        }


def _grow(res: list, fwd: list, bwd: list, source: int, sink: int):
    """Grow the forward tree from the source and the backward tree from
    the sink until they meet or one closes.

    Each step expands one whole level of the side whose frontier holds
    fewer nodes, recording tree predecessors in `fwd` and `bwd`.  Neither
    tree takes a node the other holds; a residual arc (x, y) from the
    forward into the backward tree is a meet instead.  The first expansion
    that finds meets ends the growth, so every meet returned closes a
    shortest s-t path.  Returns (meets, front, back), the last two the
    trees' frontiers; no meets means one frontier is empty.
    """
    front, back = [source], [sink]
    meets = []
    while front and back and not meets:
        if len(front) <= len(back):
            level, front = front, []
            for x in level:
                for y, c in res[x].items():
                    if c:
                        if bwd[y] >= 0:
                            meets.append((x, y))
                        elif fwd[y] < 0:
                            fwd[y] = x
                            front.append(y)
        else:
            level, back = back, []
            for y in level:
                for x in res[y]:
                    if res[x][y]:
                        if fwd[x] >= 0:
                            meets.append((x, y))
                        elif bwd[x] < 0:
                            bwd[x] = y
                            back.append(x)
    return meets, front, back


def _max_flow(res: list, source: int, sink: int, minimal_sink: bool):
    """Push a maximum flow from `source` to `sink` through the residual
    network `res`, in place: res[x][y] is the residual capacity from x to
    y, every arc paired with its reverse, and nodes the flow cannot reach
    (outside H, or merged into a terminal) may hold None.  Returns (flow
    value, tree): the predecessor list of the tree finished last, -1 off
    it (see below).

    Each search grows a forward tree from the source along residual arcs
    and a backward tree from the sink along reversed ones (`_grow`), and
    every meet it returns closes a shortest augmenting path.  Each such
    path is augmented in turn: its bottleneck is recomputed first, and a
    path left at zero is skipped.  Since augmenting along shortest paths
    never shortens a distance, the number of searches stays independent
    of the capacities (Edmonds & Karp 1972).

    A search ends without a meet when one tree closes, its frontier
    empty.  A closed forward tree is the residual source component, whose
    complement is the inclusion-maximal sink side; a closed backward tree
    is what can still reach the sink, the inclusion-minimal sink side.
    The side asked for comes from finishing its tree's search from where
    it stopped: the backward tree, the sink side itself, when
    minimal_sink; else the forward tree, the complement of the sink side.
    """
    flow = 0
    while True:
        # Tree predecessors, -1 off the tree: fwd[y] precedes y on the
        # path from the source, bwd[x] follows x on the path to the sink.
        fwd = [-1] * len(res)
        fwd[source] = source
        bwd = [-1] * len(res)
        bwd[sink] = sink
        meets, front, back = _grow(res, fwd, bwd, source, sink)
        if not meets:
            break
        for x, y in meets:
            aug = res[x][y]
            v = x
            while v != source and aug:
                u = fwd[v]
                c = res[u][v]
                if c < aug:
                    aug = c
                v = u
            v = y
            while v != sink and aug:
                w = bwd[v]
                c = res[v][w]
                if c < aug:
                    aug = c
                v = w
            if not aug:
                continue
            res[x][y] -= aug
            res[y][x] += aug
            v = x
            while v != source:
                u = fwd[v]
                res[u][v] -= aug
                res[v][u] += aug
                v = u
            v = y
            while v != sink:
                w = bwd[v]
                res[v][w] -= aug
                res[w][v] += aug
                v = w
            flow += aug
    # The flow is maximum, so neither tree can reach into the other, and
    # finishing one needs no check against the other.
    if minimal_sink:
        for y in back:
            for x in res[y]:
                if bwd[x] < 0 and res[x][y]:
                    bwd[x] = y
                    back.append(x)
        return flow, bwd
    for x in front:
        for y, c in res[x].items():
            if c and fwd[y] < 0:
                fwd[y] = x
                front.append(y)
    return flow, fwd


def _merge(res: list, side) -> int:
    """Merge the nodes of `side` into one of them in the residual network
    `res`, in place, and return that node.

    Edges inside the side drop out, and the arcs from one outside node
    into the side sum into one; each merged-away row becomes None.  Runs
    before any augmentation, while every arc still equals its reverse.
    Costs O(degree of the side less that node).
    """
    it = iter(side)
    r = next(it)
    row = res[r]
    for x in it:
        for y, w in res[x].items():
            ry = res[y]
            del ry[x]
            if y not in side:
                ry[r] = row[y] = row.get(y, 0) + w
        res[x] = None
    return r


def _solve(g: Graph, s_side, t_side, minimal_sink: bool, counter: WorkCounter,
           adj=None) -> Cut:
    """Minimum cut between the terminal sides, as the sink side's Cut.

    The cut is taken in H: the kept contracted graph `adj` of g (see the
    module docstring), or g's own adjacency when `adj` is None.  The sides
    and the returned members are nodes of H (labels of g when `adj` is
    None), any number each.  The network is a copy of H with each side
    merged into one node, so a side costs O(its degree) beyond the copy.
    H's size before the merge is recorded in `counter` once the sides are
    valid; on g's own adjacency that is (g.num_nodes, g.num_edges).
    """
    h = g.adjacency if adj is None else adj
    s_idx = g.indices(s_side) if adj is None else set(s_side)
    t_idx = g.indices(t_side) if adj is None else set(t_side)
    if not s_idx or not t_idx:
        raise ValueError("terminal sides must be non-empty")
    if s_idx & t_idx:
        raise ValueError("terminal sides must be disjoint")
    if not (h.keys() >= s_idx and h.keys() >= t_idx):
        raise ValueError("terminal sides must be nodes of the kept graph")
    res = [None] * g.num_nodes
    for x, nbrs in h.items():
        res[x] = nbrs.copy()
    counter.record(len(h), sum(map(len, h.values())) // 2)
    s = _merge(res, s_idx) if len(s_idx) > 1 else next(iter(s_idx))
    t = _merge(res, t_idx) if len(t_idx) > 1 else next(iter(t_idx))
    flow, tree = _max_flow(res, s, t, minimal_sink)
    # Merged-away nodes are off both trees: each joins the tree of its side.
    if minimal_sink:
        for x in t_idx:
            tree[x] = t
        sink = [x for x in h if tree[x] >= 0]
    else:
        for x in s_idx:
            tree[x] = s
        sink = [x for x in h if tree[x] < 0]
    if adj is None:
        sink = map(g.labels.__getitem__, sink)
    return Cut(frozenset(sink), flow)


def min_cut(g: Graph, s_side, t_side, counter: WorkCounter, adj=None) -> Cut:
    """An exact minimum S-T cut; deterministic for a fixed graph.

    The returned sink side is the inclusion-maximal one (complement of the
    residual source component).  With `adj`, the cut is taken in the kept
    contracted graph it gives: the sides and the members are its nodes,
    node indices of g, and either side may hold several of them (see
    `_solve`).
    """
    return _solve(g, s_side, t_side, False, counter, adj)


def min_cut_minimal_sink(g: Graph, s_side, t_side, counter: WorkCounter,
                         adj=None) -> Cut:
    """Among all minimum S-T cuts, the one with inclusion-minimal sink
    side; `adj` as for `min_cut`."""
    return _solve(g, s_side, t_side, True, counter, adj)


def latest_min_cut(g: Graph, u, v, counter: WorkCounter) -> Cut:
    """The unique inclusion-minimal minimum u-v cut containing v: the nodes
    that can still reach v in the residual network of a maximum flow."""
    return _solve(g, {u}, {v}, True, counter)
