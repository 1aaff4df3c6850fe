"""All isolating cuts for a terminal set in logarithmically many rounds.

For each terminal v, the minimum cut separating v from the source and all
other terminals.  Instead of one flow per terminal, the terminal set is
halved: one bipartition cut splits the graph, each side is contracted to
a super-source, and the halves recurse independently.  The recursion
runs over g's node indices: each contracted graph is an adjacency over
them (`graph.contract_kept`), built at O(degree of the side it keeps) and
cut by the engine as a kept graph.  A cut whose graph has at most one
node outside its terminal sides (len(adj) - 1 - len(terminals) <= 1) is
read off without a flow (`graph.forced_min_cut`) and records no work.
The returned cuts are pairwise disjoint.
"""

from __future__ import annotations

from .graph import Cut, Graph, contract_kept, forced_min_cut
from .maxflow import WorkCounter, min_cut_minimal_sink


def _cut(g: Graph, s_side: set, t_side: set, work: WorkCounter, adj: dict):
    """The minimal-sink cut of adj between the sides: `forced_min_cut`'s
    when it has one, else the engine's."""
    cut = forced_min_cut(adj, s_side, t_side)
    if cut is None:
        cut = min_cut_minimal_sink(g, s_side, t_side, work, adj=adj)
    return cut


def _isolate(s, terminals, adj: dict, g: Graph, work: WorkCounter, depth: int):
    """(cuts, depth) for the terminals, nodes of the kept graph adj of g
    other than its node s, which holds the source."""
    if len(terminals) == 1:
        v = terminals[0]
        return {v: _cut(g, {s}, {v}, work, adj)}, depth

    mid = len(terminals) // 2
    left, right = terminals[:mid], terminals[mid:]
    cut = _cut(g, {s, *left}, set(right), work, adj)

    # Each half keeps its own side; the other side merges into s.  A lone
    # right terminal needs no recursion: its cut is the minimal sink side.
    sink = cut.members
    if len(right) == 1:
        right_cuts, right_depth = {right[0]: cut}, depth + 1
    else:
        right_cuts, right_depth = _isolate(
            s, right, contract_kept(adj, sink | {s}, s), g, work, depth + 1)
    left_cuts, left_depth = _isolate(
        s, left, contract_kept(adj, adj.keys() - sink, s), g, work, depth + 1)

    left_cuts.update(right_cuts)
    return left_cuts, max(left_depth, right_depth)


def isolating_cuts_with_depth(s, terminals, g: Graph, counter: WorkCounter, adj=None):
    """Isolating cuts plus the number of bipartition levels used.  With
    `adj`, as for `maxflow.min_cut`, every node taken or returned is a
    node of that kept graph, else a label of g.  Terminals are halved in
    g's label order."""
    if adj is None:
        (src,) = g.indices([s])
        cuts, depth = isolating_cuts_with_depth(src, g.indices(terminals), g, counter,
                                                g.adjacency)
        labels = g.labels
        return {labels[v]: Cut(frozenset(labels[x] for x in cut.members), cut.cost)
                for v, cut in cuts.items()}, depth
    terms = list(terminals)
    if any(v not in adj for v in (s, *terms)):
        raise ValueError("the source and terminals must be nodes of the kept graph")
    terms.sort(key=g.rank.__getitem__)
    if not terms:
        raise ValueError("terminal set must be non-empty")
    if s in terms:
        raise ValueError("source cannot be a terminal")
    cuts, depth = _isolate(s, terms, adj, g, counter, 0)
    bound = (len(terms) - 1).bit_length()  # ceil(log2 |terminals|)
    if depth > bound:
        raise AssertionError(f"recursion used {depth} levels, bound is {bound}")
    return cuts, depth


def isolating_cuts(s, terminals, g: Graph, counter: WorkCounter, adj=None) -> dict:
    """Map each terminal v to its minimum (others + source)-v cut; `adj`
    as for `isolating_cuts_with_depth`."""
    cuts, _ = isolating_cuts_with_depth(s, terminals, g, counter, adj)
    return cuts
