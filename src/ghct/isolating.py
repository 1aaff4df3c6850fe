"""All isolating cuts for a terminal set in logarithmically many rounds.

For each terminal v, the minimum cut separating v from the source and all
other terminals.  Instead of one flow per terminal, the terminal set is
halved: one bipartition cut splits the graph, each side is contracted to
a super-source, and the halves recurse independently.  The returned cuts
are pairwise disjoint.
"""

from __future__ import annotations

import itertools

from .graph import Graph, contract_set_to_node, sorted_labels, unused_label
from .maxflow import WorkCounter, latest_min_cut, min_cut_minimal_sink


def _isolate(src, terminals, g: Graph, work: WorkCounter, names: itertools.count,
             depth: int):
    if len(terminals) == 1:
        v = terminals[0]
        return {v: latest_min_cut(g, src, v, work)}, depth

    mid = len(terminals) // 2
    left, right = terminals[:mid], terminals[mid:]
    res = min_cut_minimal_sink(g, {src, *left}, set(right), work)
    sink = res.sink_side

    right_label = unused_label("iso", names, g)
    right_g = contract_set_to_node(g, g.node_set - sink, right_label)
    right_cuts, right_depth = _isolate(right_label, right, right_g, work, names,
                                       depth + 1)

    left_label = unused_label("iso", names, g)
    left_g = contract_set_to_node(g, sink | {src}, left_label)
    left_cuts, left_depth = _isolate(left_label, left, left_g, work, names,
                                     depth + 1)

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
    cuts, depth = _isolate(s, terms, g, counter, itertools.count(), 0)
    bound = (len(terms) - 1).bit_length()  # ceil(log2 |terminals|)
    if depth > bound:
        raise AssertionError(f"recursion used {depth} levels, bound is {bound}")
    return cuts, depth


def isolating_cuts(s, terminals, g: Graph, counter: WorkCounter) -> dict:
    """Map each terminal v to its minimum (others + source)-v cut."""
    cuts, _ = isolating_cuts_with_depth(s, terminals, g, counter)
    return cuts
