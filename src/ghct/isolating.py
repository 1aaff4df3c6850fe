"""All isolating cuts for a terminal set in logarithmically many rounds.

For each terminal v, the minimum cut separating v from the source and all
other terminals.  Instead of one flow per terminal, the terminal set is
halved: one bipartition cut splits the graph, each side is contracted to
a super-source, and the halves recurse independently.  Each contracted
graph is an adjacency over g's node indices (`graph.contract_kept`),
built at O(degree of the side it keeps) and cut by the engine as a kept
graph.  The returned cuts are pairwise disjoint.
"""

from __future__ import annotations

from .graph import Graph, contract_kept, sorted_labels
from .maxflow import WorkCounter, min_cut_minimal_sink


def _isolate(src, terminals, adj: dict, g: Graph, work: WorkCounter, depth: int):
    """(cuts, depth) for the terminal labels in the kept graph adj of g,
    whose node src holds the source."""
    if len(terminals) == 1:
        v = terminals[0]
        return {v: min_cut_minimal_sink(g, {src}, {v}, work, adj=adj)}, depth

    mid = len(terminals) // 2
    left, right = terminals[:mid], terminals[mid:]
    cut = min_cut_minimal_sink(g, {src, *left}, set(right), work, adj=adj)

    # Each half keeps its own side; the other side merges into src.  A lone
    # right terminal needs no recursion: its cut is the minimal sink side.
    s = g._index[src]
    sink = g.indices(cut.members)
    if len(right) == 1:
        right_cuts, right_depth = {right[0]: cut}, depth + 1
    else:
        right_cuts, right_depth = _isolate(
            src, right, contract_kept(adj, sink | {s}, s), g, work, depth + 1)
    left_cuts, left_depth = _isolate(
        src, left, contract_kept(adj, adj.keys() - sink, s), g, work, depth + 1)

    left_cuts.update(right_cuts)
    return left_cuts, max(left_depth, right_depth)


def isolating_cuts_with_depth(s, terminals, g: Graph, counter: WorkCounter):
    """Isolating cuts plus the number of bipartition levels used."""
    terms = sorted_labels(terminals)
    if not terms:
        raise ValueError("terminal set must be non-empty")
    if s in terms:
        raise ValueError("source cannot be a terminal")
    for v in terms:
        if not g.has_node(v):
            raise ValueError(f"terminal {v!r} is not a node of the graph")
    cuts, depth = _isolate(s, terms, g.adjacency, g, counter, 0)
    bound = (len(terms) - 1).bit_length()  # ceil(log2 |terminals|)
    if depth > bound:
        raise AssertionError(f"recursion used {depth} levels, bound is {bound}")
    return cuts, depth


def isolating_cuts(s, terminals, g: Graph, counter: WorkCounter) -> dict:
    """Map each terminal v to its minimum (others + source)-v cut."""
    cuts, _ = isolating_cuts_with_depth(s, terminals, g, counter)
    return cuts
