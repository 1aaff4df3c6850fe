"""Ordered-cut trees: compact storage for prefix minimum cuts.

An OC tree for a node sequence (s, v1, ..., vl) is a partition of the
graph's nodes into one block per sequence node, plus a parent map whose
edges always point to earlier sequence positions.  The down-set of v (the
union of blocks in v's subtree) is a minimum (prefix before v)-v cut, and
the tree records its cost as its cut returned it.

The divide-and-conquer solver `ordered_cuts` builds a valid tree with
max-flow work that stays subquadratic on random node orders.  A cut
whose graph has at most one node outside its terminal sides is read off
without a flow (`graph.forced_min_cut`) and records no work.  It solves
the head of the sequence first, so the entries of a head prefix depend
only on that prefix and the graph: calls that share a `prefixes` memo on
one graph build each head prefix once.  Its readers
(`covering_cut_costs`, `certified_source_cuts`, `flatten_to_star`) each
walk the tree once in sequence order, where parents precede children, and
read the recorded costs instead of re-costing down-sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import Cut, Graph, contract_kept, cut_cost, forced_min_cut, label_key
from .maxflow import WorkCounter, min_cut, min_cut_minimal_sink


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


class OCTree:
    """Partition + parent tree over a node sequence, with down-set costs.

    `order` is the sequence (first element is the source/root), `parent`
    maps every non-root sequence node to an earlier one, `blocks` maps
    each sequence node to its partition block, and `costs` maps every
    non-root sequence node to the cost of its down-set.  The constructor
    only stores these; `validate` checks them.
    """

    __slots__ = ("order", "parent", "blocks", "costs", "_down")

    def __init__(self, order, parent, blocks, costs):
        self.order = tuple(order)
        self.parent = dict(parent)
        self.blocks = {v: frozenset(b) for v, b in blocks.items()}
        self.costs = dict(costs)
        self._down = None

    @property
    def root(self):
        return self.order[0]

    def structural_problem(self) -> str:
        """Empty string if well-formed, else a description of the defect."""
        if not self.order:
            return "empty node sequence"
        if len(set(self.order)) != len(self.order):
            return "sequence nodes are not distinct"
        pos = {v: i for i, v in enumerate(self.order)}
        if set(self.parent) != set(self.order[1:]):
            return "parent map must cover exactly the non-root sequence nodes"
        if set(self.costs) != set(self.order[1:]):
            return "costs must cover exactly the non-root sequence nodes"
        for u, v in self.parent.items():
            if v not in pos:
                return f"parent of {u!r} is not a sequence node"
            if pos[v] >= pos[u]:
                return f"parent of {u!r} does not precede it in the sequence"
        if set(self.blocks) != set(self.order):
            return "blocks must cover exactly the sequence nodes"
        total = 0
        union: set = set()
        for v, block in self.blocks.items():
            if v not in block:
                return f"block of {v!r} does not contain it"
            if len(block & set(pos)) != 1:
                return f"block of {v!r} holds more than one sequence node"
            total += len(block)
            union |= block
        if total != len(union):
            return "blocks are not pairwise disjoint"
        return ""

    def down_set(self, v) -> frozenset:
        """Union of blocks over the subtree rooted at v."""
        if v not in self.blocks:
            raise ValueError(f"{v!r} is not a sequence node")
        if self._down is None:
            # Children follow their parent in the sequence, so a reverse
            # pass folds every subtree into its root before the root is read.
            down = {u: set(block) for u, block in self.blocks.items()}
            for u in reversed(self.order[1:]):
                down[self.parent[u]] |= down[u]
            self._down = {u: frozenset(d) for u, d in down.items()}
        return self._down[v]

    def __eq__(self, other):
        if not isinstance(other, OCTree):
            return NotImplemented
        return (self.order == other.order and self.parent == other.parent
                and self.blocks == other.blocks and self.costs == other.costs)

    def __repr__(self):
        return f"OCTree(order={self.order!r})"


def validate(tree: OCTree, g: Graph, counter: WorkCounter | None = None) -> ValidationResult:
    """Full validity check against the graph.

    Structural defects are reported as a falsy result with a reason; then
    every non-root sequence node's recorded cost must equal its down-set's
    cost, and that cost the exact minimum (prefix)-node cut value.
    """
    problem = tree.structural_problem()
    if problem:
        return ValidationResult(False, problem)
    if frozenset().union(*tree.blocks.values()) != g.node_set:
        return ValidationResult(False, "blocks do not partition the graph's nodes")
    counter = counter if counter is not None else WorkCounter()
    for k, v in enumerate(tree.order[1:], 1):
        prefix = tree.order[:k]
        cost = cut_cost(g, tree.down_set(v))
        if tree.costs[v] != cost:
            return ValidationResult(False, f"recorded cost of {v!r} is {tree.costs[v]}, "
                                           f"its down-set costs {cost}")
        expected = min_cut(g, set(prefix), {v}, counter).cost
        if cost != expected:
            return ValidationResult(
                False,
                f"down-set of {v!r} costs {cost}, minimum prefix cut is {expected}",
            )
    return ValidationResult(True)


def certifying_prefix(tree: OCTree, u) -> tuple:
    """The source sequence whose minimum cut the down-set of u attains.

    Chase from u: each step moves to the latest node before the current
    one in the sequence that is the current node's parent or a child of
    that parent, ending at the root.  Returned in root-first order.  The
    down-set of u is a minimum (returned sequence)-u cut.
    """
    if u not in tree.blocks:
        raise ValueError(f"{u!r} is not a sequence node")
    if u == tree.root:
        raise ValueError("the root has no certifying prefix")
    chain = []
    i = tree.order.index(u)
    while i:
        p = tree.parent[tree.order[i]]
        i -= 1
        while tree.order[i] != p and tree.parent.get(tree.order[i]) != p:
            i -= 1
        chain.append(tree.order[i])
    chain.reverse()
    return tuple(chain)


def certified_source_cuts(tree: OCTree) -> dict:
    """Down-sets provably equal to minimum source-u cuts.

    A node u qualifies when every non-root node on its certifying prefix
    has a down-set at least as expensive as u's own.  One step of that
    prefix goes to u's latest earlier sibling, or else to its parent, so
    one pass in sequence order carries the cheapest cost along each chain.
    """
    through = {tree.root: math.inf}  # cheapest cost on each chain, own included
    latest_child: dict = {}
    out = {}
    for u in tree.order[1:]:
        p = tree.parent[u]
        above = through[latest_child.get(p, p)]
        latest_child[p] = u
        cost = tree.costs[u]
        through[u] = min(above, cost)
        if above >= cost:
            out[u] = Cut(tree.down_set(u), cost)
    return out


def covering_cut_costs(tree: OCTree) -> dict:
    """Per node, the cheapest stored cut containing it.

    For every non-source node x this is min over the down-sets that cover
    x; it upper-bounds the exact source-x cut value.  Nodes inside the
    root's own block are covered by no stored cut and get +inf.
    """
    root = tree.root
    best = {root: math.inf}
    out = {x: math.inf for x in tree.blocks[root] if x != root}
    for v in tree.order[1:]:
        best[v] = min(best[tree.parent[v]], tree.costs[v])
        for x in tree.blocks[v]:
            out[x] = best[v]
    return out


def ordered_cuts(order, g: Graph, counter: WorkCounter, *, adj: dict | None = None,
                 prefixes: dict | None = None) -> OCTree:
    """Divide-and-conquer construction of a valid OC tree for (order, g).

    Splits the sequence in half, solves the head prefix, and for each head
    node cuts its block between the node and the tail nodes that landed
    there (minimal sink side), recursing on the sink side only.  A single
    node keeps the whole graph in one block.

    With `adj`, the tree is built for a contracted graph of g kept as an
    adjacency over g's node indices (see `maxflow`): `order` and the
    returned tree hold its nodes.  Without it, they hold g's labels.

    `prefixes`, if given, is a memo of the trees already built on the
    graph for head prefixes and whole sequences, shared between calls: the
    tree of a sequence depends only on that sequence and the graph, so a
    later call whose head (or whole sequence) is stored makes no engine
    call for it.  The memo belongs to the first graph (g, or `adj`) it is
    used with, and passing it with another graph raises ValueError.
    """
    order = tuple(order)
    if not order:
        raise ValueError("node sequence must be non-empty")
    if len(set(order)) != len(order):
        raise ValueError("sequence nodes must be distinct")
    h = g.adjacency if adj is None else adj
    seq = list(order) if adj is not None else [g._index.get(v) for v in order]
    for v, x in zip(order, seq):
        if x not in h:
            raise ValueError(f"{v!r} is not a node of the graph")
    if prefixes is not None and prefixes.setdefault("graph", h) is not h:
        raise ValueError("prefix memo belongs to another graph")
    parent: dict = {}
    blocks: dict = {}
    costs: dict = {}
    _build(seq, h, g, counter, parent, blocks, costs, prefixes)
    if adj is not None:
        return OCTree(order, parent, blocks, costs)
    labels = g.labels
    return OCTree(order, {labels[u]: labels[p] for u, p in parent.items()},
                  {labels[v]: [labels[i] for i in b] for v, b in blocks.items()},
                  {labels[u]: c for u, c in costs.items()})


def _build(order, adj: dict, g: Graph, counter: WorkCounter, parent: dict,
           blocks: dict, costs: dict, prefixes: dict | None = None) -> None:
    """Write the tree for (order, adj) into `parent`, `blocks` and `costs`,
    all over g's node indices.

    adj is a contraction of g kept as an adjacency over g's node indices
    (see `maxflow`), order a sequence of its nodes.  The blocks of order's
    nodes partition adj's nodes; a recursive call on a head node's sink
    side overwrites that node's block, and the caller adds back the source
    side it cut off.  A head node v cuts `contract_kept(adj, block, v)`,
    and its recursion runs on that graph with all but the sink side merged
    into v, each built at O(degree of what it keeps).  When at most one
    node of that graph is neither v nor a target (len(block) - 1 -
    len(targets) <= 1), the cut is read off by `forced_min_cut` and no
    engine call is made or counted.  A node's down-set is fixed by the
    one-target step that parents it; adj keeps the cost of every set
    without its source, so the cut's value is that down-set's cost in g.
    No block is edited in place: each step writes a new set.

    `prefixes` is given only while adj is the graph `ordered_cuts` was
    called on, that is for the sequence it was asked for and its chain of
    heads.  Each such call first looks its tuple up there, and writes the
    stored entries of its nodes instead of building, each block as a new
    set; otherwise it builds and stores them, each block as a tuple,
    which takes less memory than a set.  The recursions on contracted
    graphs are not stored: their order alone does not name their graph.
    """
    if len(order) == 1:
        blocks[order[0]] = set(adj)
        return
    if prefixes is not None:
        key = tuple(order)
        stored = prefixes.get(key)
        if stored is not None:
            for v, (p, c, b) in zip(order, stored):
                if p is not None:  # every node but the root, order[0]
                    parent[v] = p
                    costs[v] = c
                blocks[v] = set(b)
            return

    half = min((len(order) + 1 + 1) // 2, len(order) - 1)  # ceil((len + 1) / 2), tail non-empty
    head, tail = order[:half], order[half:]
    _build(head, adj, g, counter, parent, blocks, costs, prefixes)
    for v in head:
        block = blocks[v]
        # Lists, here and in ordered_cuts: tuple(generator) resizes the tuple
        # it fills, and each one freed grows CPython's free list for its size.
        targets = [b for b in tail if b in block]
        if not targets:
            continue
        sub = contract_kept(adj, block, v)
        sources, sinks = {v}, set(targets)
        cut = forced_min_cut(sub, sources, sinks)
        if cut is None:
            cut = min_cut_minimal_sink(g, sources, sinks, counter, adj=sub)
        sink = cut.members
        if len(targets) == 1:  # the minimal sink side is that target's latest cut
            parent[targets[0]] = v
            blocks[targets[0]] = sink
            costs[targets[0]] = cut.cost
            blocks[v] = block - sink
            continue
        _build((v, *targets), contract_kept(sub, sink | {v}, v), g, counter,
               parent, blocks, costs)
        blocks[v] = (block - sink) | blocks[v]
    if prefixes is not None:
        prefixes[key] = [(parent.get(v), costs.get(v), tuple(blocks[v])) for v in order]


def flatten_to_star(tree: OCTree) -> dict:
    """The depth-1 tree as {rep: down-set}, over the root's children in
    sequence order.

    Merging every deeper node's block into its parent, in any order, ends
    here, and keeps each surviving node's down-set.  The down-sets are
    pairwise disjoint, and none holds the root.
    """
    return {v: tree.down_set(v) for v in tree.order[1:] if tree.parent[v] == tree.root}


def format_oc_tree(tree: OCTree) -> str:
    """One line per sequence node: `v parent | block members` (root: `-`)."""
    lines = []
    for v in tree.order:
        parent = tree.parent.get(v, "-") if v != tree.root else "-"
        members = " ".join(str(x) for x in sorted(tree.blocks[v], key=label_key))
        lines.append(f"{v} {parent} | {members}")
    return "\n".join(lines) + "\n"
