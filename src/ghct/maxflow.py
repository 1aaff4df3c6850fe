"""Exact minimum S-T cut engine with minimal-side extraction.

A shortest-augmenting-path solver over exact integer capacities (Edmonds
& Karp 1972).  One breadth-first search serves many augmentations: it
augments the search-tree path to every sink in-neighbour one level short
of the sink, each a shortest path.  Every higher-level routine funnels
through the three entry points here, each of which records the size of
the graph it was handed in a WorkCounter and returns a `Cut`: the sink
side as `members`, the flow value as `cost`.

Multi-node terminals are handled by merging each side into a single
super-terminal while building the flow network (no infinite-capacity arcs,
so all arithmetic stays bounded).  Tie-breaking is deterministic: residual
reachability decides which side is returned, and no randomness is used.
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


def _solve(g: Graph, s_side, t_side, minimal_sink: bool) -> Cut:
    """Maximum flow between the merged terminal sides, as the sink side's Cut.

    Each breadth-first search from the source stops at the level that
    reaches the sink.  Then every sink in-neighbour on the level before it
    has its search-tree path augmented; each path's bottleneck is
    recomputed first, and a path left at zero is skipped.  Each such path
    is a shortest augmenting path in the residual network at that moment,
    since augmenting along shortest paths never shortens a distance, so
    the number of searches stays independent of the capacities.

    The search that misses the sink has reached exactly the residual
    source component, whose complement is the inclusion-maximal sink
    side; the minimal one is what can still reach the sink.
    """
    index = g._index
    try:
        s_idx = [index[lab] for lab in s_side]
        t_idx = [index[lab] for lab in t_side]
    except KeyError as exc:
        raise ValueError(f"{exc.args[0]!r} is not a node of this graph") from None
    if not s_idx or not t_idx:
        raise ValueError("terminal sides must be non-empty")
    node_of = [-1] * g.num_nodes  # source side -> 0, sink side -> 1, free -> 2, 3, ...
    for i in s_idx:
        node_of[i] = 0
    for i in t_idx:
        if node_of[i] == 0:
            raise ValueError("terminal sides must be disjoint")
        node_of[i] = 1
    n = 2
    for i, x in enumerate(node_of):
        if x < 0:
            node_of[i] = n
            n += 1
    # res[x][y]: residual capacity from x to y; merged parallel arcs are summed.
    res = [{} for _ in range(n)]
    for iu, iv, w in g.edges:
        x = node_of[iu]
        y = node_of[iv]
        if x > 1 and y > 1:  # g's edges are merged, so arcs between free nodes are too
            res[x][y] = w
            res[y][x] = w
        elif x != y:
            res[x][y] = res[x].get(y, 0) + w
            res[y][x] = res[y].get(x, 0) + w
    flow = 0
    while True:
        parent = [-1] * n  # BFS predecessor per network node; -1: unreached
        parent[0] = 0
        found = [0]
        while found and parent[1] < 0:
            level, found = found, []
            for x in level:
                for y, c in res[x].items():
                    if c and parent[y] < 0:
                        parent[y] = x
                        found.append(y)
                if parent[1] >= 0:
                    break
        if parent[1] < 0:
            break
        for u in level:  # the level before the sink
            aug = res[u].get(1)
            y = u
            while y and aug:
                x = parent[y]
                c = res[x][y]
                if c < aug:
                    aug = c
                y = x
            if not aug:
                continue
            res[u][1] -= aug
            res[1][u] += aug
            y = u
            while y:
                x = parent[y]
                res[x][y] -= aug
                res[y][x] += aug
                y = x
            flow += aug
    if minimal_sink:
        sink_side = [False] * n
        sink_side[1] = True
        queue = [1]
        for y in queue:
            for x in res[y]:
                if not sink_side[x] and res[x][y]:
                    sink_side[x] = True
                    queue.append(x)
    else:
        sink_side = [p < 0 for p in parent]
    labels = g.labels
    return Cut(frozenset(labels[i] for i, x in enumerate(node_of) if sink_side[x]), flow)


def min_cut(g: Graph, s_side, t_side, counter: WorkCounter) -> Cut:
    """An exact minimum S-T cut; deterministic for a fixed graph.

    The returned sink side is the inclusion-maximal one (complement of the
    residual source component).
    """
    counter.record(g.num_nodes, g.num_edges)
    return _solve(g, s_side, t_side, minimal_sink=False)


def min_cut_minimal_sink(g: Graph, s_side, t_side, counter: WorkCounter) -> Cut:
    """Among all minimum S-T cuts, the one with inclusion-minimal sink side."""
    counter.record(g.num_nodes, g.num_edges)
    return _solve(g, s_side, t_side, minimal_sink=True)


def latest_min_cut(g: Graph, u, v, counter: WorkCounter) -> Cut:
    """The unique inclusion-minimal minimum u-v cut containing v: the nodes
    that can still reach v in the residual network of a maximum flow."""
    if u == v:
        raise ValueError("terminals must be distinct")
    counter.record(g.num_nodes, g.num_edges)
    return _solve(g, {u}, {v}, minimal_sink=True)
