"""Exact minimum S-T cut engine with minimal-side extraction.

A Dinic-style augmenting-path solver over exact integer capacities.  Every
higher-level routine funnels through the three entry points here, each of
which records the size of the graph it was handed in a WorkCounter and
returns a `Cut`: the sink side as `members`, the flow value as `cost`.

Multi-node terminals are handled by merging each side into a single
super-terminal while building the flow network (no infinite-capacity arcs,
so all arithmetic stays bounded).  Tie-breaking is deterministic: residual
reachability decides which side is returned, and no randomness is used.
"""

from __future__ import annotations

from collections import deque
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


def _max_flow(adj, to, cap, src, snk):
    """Dinic blocking-flow loop; mutates cap in place, returns flow value."""
    n = len(adj)
    flow = 0
    while True:
        level = [-1] * n
        level[src] = 0
        queue = deque([src])
        while queue:
            x = queue.popleft()
            for e in adj[x]:
                y = to[e]
                if cap[e] > 0 and level[y] < 0:
                    level[y] = level[x] + 1
                    queue.append(y)
        if level[snk] < 0:
            return flow
        it = [0] * n
        path_nodes = [src]
        path_arcs = []
        while path_nodes:
            x = path_nodes[-1]
            if x == snk:
                aug = min(cap[e] for e in path_arcs)
                flow += aug
                cutoff = 0
                for k, e in enumerate(path_arcs):
                    cap[e] -= aug
                    cap[e ^ 1] += aug
                    if cap[e] == 0 and cutoff == 0:
                        cutoff = k + 1
                del path_arcs[cutoff - 1:]
                del path_nodes[cutoff:]
                continue
            arcs = adj[x]
            advanced = False
            while it[x] < len(arcs):
                e = arcs[it[x]]
                y = to[e]
                if cap[e] > 0 and level[y] == level[x] + 1:
                    path_arcs.append(e)
                    path_nodes.append(y)
                    advanced = True
                    break
                it[x] += 1
            if not advanced:
                level[x] = -1
                path_nodes.pop()
                if path_arcs:
                    path_arcs.pop()


def _solve(g: Graph, s_side, t_side, minimal_sink: bool) -> Cut:
    """Maximum flow between the merged terminal sides, as the sink side's Cut.

    The sink side comes from one residual search: forward from the source
    for the inclusion-maximal side (everything the source cannot reach), or
    backward from the sink for the inclusion-minimal one (everything that
    can still reach the sink).
    """
    s_idx = g.indices(s_side)
    t_idx = g.indices(t_side)
    if not s_idx or not t_idx:
        raise ValueError("terminal sides must be non-empty")
    if s_idx & t_idx:
        raise ValueError("terminal sides must be disjoint")
    node_of = [0] * g.num_nodes  # source side -> 0, sink side -> 1
    n = 2
    for i in range(g.num_nodes):
        if i in t_idx:
            node_of[i] = 1
        elif i not in s_idx:
            node_of[i] = n
            n += 1
    adj = [[] for _ in range(n)]
    to = []
    cap = []
    for iu, iv, w in g.edges:
        cu, cv = node_of[iu], node_of[iv]
        if cu == cv:
            continue
        adj[cu].append(len(to))
        to.append(cv)
        cap.append(w)
        adj[cv].append(len(to))
        to.append(cu)
        cap.append(w)
    flow = _max_flow(adj, to, cap, 0, 1)

    # Forward, x reaches y while arc e=(x,y) has capacity; backward, y
    # reaches the sink through x while the twin arc e^1=(y,x) has capacity.
    root = twin = 1 if minimal_sink else 0
    seen = {root}
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for e in adj[x]:
            y = to[e]
            if cap[e ^ twin] > 0 and y not in seen:
                seen.add(y)
                queue.append(y)
    labels = g.labels
    return Cut(frozenset(labels[i] for i in range(len(labels))
                         if (node_of[i] in seen) == minimal_sink), flow)


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
    """The unique inclusion-minimal minimum u-v cut containing v.

    Extracted as the set of nodes that can still reach v in the residual
    network after the flow is maximal.
    """
    if u == v:
        raise ValueError("terminals must be distinct")
    counter.record(g.num_nodes, g.num_edges)
    return _solve(g, {u}, {v}, minimal_sink=True)
