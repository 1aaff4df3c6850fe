"""Ordered-cut trees: compact storage for prefix minimum cuts.

An OC tree for a node sequence (s, v1, ..., vl) is a partition of the
graph's nodes into one block per sequence node, plus a parent map whose
edges always point to earlier sequence positions.  The down-set of v (the
union of blocks in v's subtree) is a minimum (prefix before v)-v cut.

The divide-and-conquer solver `ordered_cuts` builds a valid tree with
max-flow work that stays subquadratic on random node orders, and
`flatten_to_star` reads its depth-1 tree off as a `{rep: down-set}` dict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import Cut, Graph, contract, cut_cost, label_key
from .maxflow import WorkCounter, min_cut, min_cut_minimal_sink


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


class OCTree:
    """Partition + parent tree over a node sequence.

    `order` is the sequence (first element is the source/root), `parent`
    maps every non-root sequence node to an earlier one, and `blocks` maps
    each sequence node to its partition block.  The constructor only
    stores these; `validate` checks them.
    """

    __slots__ = ("order", "parent", "blocks", "_children", "_down")

    def __init__(self, order, parent, blocks):
        self.order = tuple(order)
        self.parent = dict(parent)
        self.blocks = {v: frozenset(b) for v, b in blocks.items()}
        self._children = None
        self._down = {}

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

    def children(self) -> dict:
        if self._children is None:
            kids = {v: [] for v in self.order}
            for u, p in self.parent.items():
                kids[p].append(u)
            pos = {v: i for i, v in enumerate(self.order)}
            for v in kids:
                kids[v].sort(key=lambda u: pos[u])
            self._children = kids
        return self._children

    def down_set(self, v) -> frozenset:
        """Union of blocks over the subtree rooted at v."""
        if v not in self.blocks:
            raise ValueError(f"{v!r} is not a sequence node")
        cached = self._down.get(v)
        if cached is not None:
            return cached
        out = set()
        stack = [v]
        kids = self.children()
        while stack:
            u = stack.pop()
            out |= self.blocks[u]
            stack.extend(kids[u])
        result = frozenset(out)
        self._down[v] = result
        return result

    def __eq__(self, other):
        if not isinstance(other, OCTree):
            return NotImplemented
        return (self.order == other.order and self.parent == other.parent
                and self.blocks == other.blocks)

    def __repr__(self):
        return f"OCTree(order={self.order!r})"


def validate(tree: OCTree, g: Graph, counter: WorkCounter | None = None) -> ValidationResult:
    """Full validity check against the graph.

    Structural defects are reported as a falsy result with a reason; then
    every non-root sequence node's down-set cost must equal the exact
    minimum (prefix)-node cut value.
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
        expected = min_cut(g, set(prefix), {v}, counter).cost
        if cost != expected:
            return ValidationResult(
                False,
                f"down-set of {v!r} costs {cost}, minimum prefix cut is {expected}",
            )
    return ValidationResult(True)


def certifying_prefix(tree: OCTree, u) -> tuple:
    """The source sequence whose minimum cut the down-set of u attains.

    Chase from u: each step moves to the latest earlier node that is the
    current node's parent or a sibling under that parent, ending at the
    root.  Returned in root-first order.  The down-set of u is a minimum
    (returned sequence)-u cut.
    """
    if u == tree.root:
        raise ValueError("the root has no certifying prefix")
    pos = {v: i for i, v in enumerate(tree.order)}
    kids = tree.children()
    chain = []
    cur = u
    while cur != tree.root:
        p = tree.parent[cur]
        admissible = [p] + [w for w in kids[p] if pos[w] < pos[cur]]
        nxt = max(admissible, key=lambda w: pos[w])
        chain.append(nxt)
        cur = nxt
    chain.reverse()
    return tuple(chain)


def certified_source_cuts(tree: OCTree, g: Graph) -> dict:
    """Down-sets provably equal to minimum source-u cuts.

    A node u qualifies when every non-root node on its certifying prefix
    has a down-set at least as expensive as u's own.
    """
    costs = {v: cut_cost(g, tree.down_set(v)) for v in tree.order[1:]}
    out = {}
    for u in tree.order[1:]:
        chain = certifying_prefix(tree, u)
        if all(costs[w] >= costs[u] for w in chain[1:]):
            out[u] = Cut(tree.down_set(u), costs[u])
    return out


def covering_cut_costs(tree: OCTree, g: Graph) -> dict:
    """Per node, the cheapest stored cut containing it.

    For every non-source node x this is min over the down-sets that cover
    x; it upper-bounds the exact source-x cut value.  Nodes inside the
    root's own block are covered by no stored cut and get +inf.
    """
    kids = tree.children()
    root = tree.root
    out: dict = {}
    stack = [(root, math.inf)]
    while stack:
        v, inherited = stack.pop()
        if v == root:
            best = inherited
        else:
            best = min(inherited, cut_cost(g, tree.down_set(v)))
        for x in tree.blocks[v]:
            if x != root:
                out[x] = best
        for u in kids[v]:
            stack.append((u, best))
    return out


def ordered_cuts(order, g: Graph, counter: WorkCounter) -> OCTree:
    """Divide-and-conquer construction of a valid OC tree for (order, g).

    Splits the sequence in half, solves the head prefix, and for each head
    node cuts its block between the node and the tail nodes that landed
    there (minimal sink side), recursing on the sink side only.  A single
    node keeps the whole graph in one block.
    """
    order = tuple(order)
    if not order:
        raise ValueError("node sequence must be non-empty")
    if len(set(order)) != len(order):
        raise ValueError("sequence nodes must be distinct")
    for v in order:
        if not g.has_node(v):
            raise ValueError(f"{v!r} is not a node of the graph")
    parent: dict = {}
    blocks: dict = {}
    _build(order, g, counter, parent, blocks)
    return OCTree(order, parent, blocks)


def _build(order, g: Graph, counter: WorkCounter, parent: dict, blocks: dict) -> None:
    """Write the tree for (order, g) into `parent` and `blocks`.

    The blocks of order's nodes partition g's nodes; a recursive call on a
    head node's sink side overwrites that node's block, and the caller
    adds back the source side it cut off.
    """
    if len(order) == 1:
        blocks[order[0]] = g.node_set
        return

    half = min((len(order) + 1 + 1) // 2, len(order) - 1)  # ceil((len + 1) / 2), tail non-empty
    head, tail = order[:half], order[half:]
    _build(head, g, counter, parent, blocks)
    for v in head:
        block = blocks[v]
        targets = tuple(b for b in tail if b in block)
        if not targets:
            continue
        sub_g = contract(g, block, v)
        sink = min_cut_minimal_sink(sub_g, {v}, set(targets), counter).members
        if len(targets) == 1:  # the minimal sink side is that target's latest cut
            parent[targets[0]] = v
            blocks[targets[0]] = sink
            blocks[v] = block - sink
            continue
        rec_g = contract(sub_g, sink | {v}, v)
        _build((v, *targets), rec_g, counter, parent, blocks)
        blocks[v] = (block - sink) | blocks[v]


def flatten_to_star(tree: OCTree) -> dict:
    """The depth-1 tree as {rep: down-set}, over the root's children in
    sequence order.

    Merging every deeper node's block into its parent, in any order, ends
    here, and keeps each surviving node's down-set.  The down-sets are
    pairwise disjoint, and none holds the root.
    """
    return {v: tree.down_set(v) for v in tree.children()[tree.root]}


def format_oc_tree(tree: OCTree) -> str:
    """One line per sequence node: `v parent | block members` (root: `-`)."""
    lines = []
    for v in tree.order:
        parent = tree.parent.get(v, "-") if v != tree.root else "-"
        members = " ".join(str(x) for x in sorted(tree.blocks[v], key=label_key))
        lines.append(f"{v} {parent} | {members}")
    return "\n".join(lines) + "\n"
