"""Ordered-cut trees: compact storage for prefix minimum cuts.

An OC tree for a node sequence (s, v1, ..., vl) is a partition of the
graph's nodes into one block per sequence node, plus a parent map whose
edges always point to earlier sequence positions.  The down-set of v (the
union of blocks in v's subtree) is a minimum (prefix before v)-v cut.

The divide-and-conquer solver `ordered_cuts` builds a valid tree with
max-flow work that stays subquadratic on random node orders; gluing of
subproblem trees is done by `compose_trees` and `splice_trees`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .graph import Cut, Graph, contract, cut_cost, label_key
from .maxflow import WorkCounter, latest_min_cut, min_cut, min_cut_minimal_sink


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class NamedPartition:
    """Representatives with pairwise-disjoint blocks, one block per rep.

    `reps` preserves the defining sequence order.
    """

    reps: tuple
    blocks: Mapping

    def covered(self) -> frozenset:
        out = set()
        for v in self.reps:
            out |= self.blocks[v]
        return frozenset(out)

    def check(self) -> None:
        seen: set = set()
        for v in self.reps:
            block = self.blocks[v]
            if v not in block:
                raise ValueError(f"representative {v!r} missing from its block")
            if seen & block:
                raise ValueError("blocks are not pairwise disjoint")
            seen |= block


class OCTree:
    """Partition + parent tree over a node sequence.

    `order` is the sequence (first element is the source/root), `parent`
    maps every non-root sequence node to an earlier one, and `blocks` maps
    each sequence node to its partition block.
    """

    __slots__ = ("order", "parent", "blocks", "_children", "_down")

    def __init__(self, order, parent, blocks, check: bool = True):
        self.order = tuple(order)
        self.parent = dict(parent)
        self.blocks = {v: frozenset(b) for v, b in blocks.items()}
        self._children = None
        self._down = {}
        if check:
            problem = self.structural_problem()
            if problem:
                raise ValueError(problem)

    @property
    def root(self):
        return self.order[0]

    def ambient_nodes(self) -> frozenset:
        out = set()
        for b in self.blocks.values():
            out |= b
        return frozenset(out)

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
    if tree.ambient_nodes() != g.node_set:
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


def remove_leaf(tree: OCTree, u) -> OCTree:
    """Drop leaf u, merging its block into its parent's block.

    Down-sets of all surviving sequence nodes are unchanged.
    """
    if u == tree.root:
        raise ValueError("cannot remove the root")
    if u not in tree.blocks:
        raise ValueError(f"{u!r} is not a sequence node")
    if tree.children()[u]:
        raise ValueError(f"{u!r} is not a leaf")
    p = tree.parent[u]
    order = tuple(v for v in tree.order if v != u)
    parent = {v: w for v, w in tree.parent.items() if v != u}
    blocks = dict(tree.blocks)
    blocks[p] = blocks[p] | blocks.pop(u)
    return OCTree(order, parent, blocks, check=False)


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
    chain_min: dict = {}
    out: dict = {}
    stack = [(root, math.inf)]
    while stack:
        v, inherited = stack.pop()
        if v == root:
            best = inherited
        else:
            best = min(inherited, cut_cost(g, tree.down_set(v)))
        chain_min[v] = best
        for x in tree.blocks[v]:
            if x != root:
                out[x] = best
        for u in kids[v]:
            stack.append((u, best))
    return out


def compose_trees(order, outer: OCTree, inner: Mapping, check: bool = True) -> OCTree:
    """Glue per-block subtrees into an outer tree over a prefix.

    `outer` must be a tree for a prefix of `order`; `inner[v]` is a tree
    over outer's block of v (ambient node sets must match exactly), for
    the subsequence of `order` inside that block.
    """
    order = tuple(order)
    k = len(outer.order)
    if order[:k] != outer.order:
        raise ValueError("outer tree must cover a prefix of the sequence")
    parent = dict(outer.parent)
    blocks: dict = {}
    for v in outer.order:
        sub = inner[v]
        if sub.root != v:
            raise ValueError(f"inner tree for {v!r} is rooted at {sub.root!r}")
        if sub.ambient_nodes() != outer.blocks[v]:
            raise ValueError(f"inner tree for {v!r} does not match the outer block")
        parent.update(sub.parent)
        blocks.update(sub.blocks)
    return OCTree(order, parent, blocks, check=check)


def splice_trees(order, source_tree: OCTree, sink_tree: OCTree, check: bool = True) -> OCTree:
    """Merge trees for the two sides of a source-vs-prefix minimum cut.

    Both trees are rooted at the same source; their root blocks merge and
    everything else is kept.
    """
    order = tuple(order)
    s = order[0]
    if source_tree.root != s or sink_tree.root != s:
        raise ValueError("both trees must share the sequence's source as root")
    overlap = source_tree.ambient_nodes() & sink_tree.ambient_nodes()
    if overlap != {s}:
        raise ValueError("side trees must overlap exactly at the source")
    blocks = {s: source_tree.blocks[s] | sink_tree.blocks[s]}
    for v, b in source_tree.blocks.items():
        if v != s:
            blocks[v] = b
    for v, b in sink_tree.blocks.items():
        if v != s:
            blocks[v] = b
    parent = dict(source_tree.parent)
    parent.update(sink_tree.parent)
    return OCTree(order, parent, blocks, check=check)


def _single_node_tree(v, members) -> OCTree:
    return OCTree((v,), {}, {v: members}, check=False)


def ordered_cuts(order, g: Graph, counter: WorkCounter) -> OCTree:
    """Divide-and-conquer construction of a valid OC tree for (order, g).

    Splits the sequence in half, solves the head prefix, and for each head
    node cuts its block between the node and the tail nodes that landed
    there (minimal sink side), recursing on the sink side only.  Base
    cases: a single node keeps the whole graph in one block; a pair is
    settled by one latest-cut computation.
    """
    order = tuple(order)
    if not order:
        raise ValueError("node sequence must be non-empty")
    if len(set(order)) != len(order):
        raise ValueError("sequence nodes must be distinct")
    for v in order:
        if not g.has_node(v):
            raise ValueError(f"{v!r} is not a node of the graph")

    if len(order) == 1:
        return _single_node_tree(order[0], g.node_set)
    if len(order) == 2:
        s, v = order
        cut = latest_min_cut(g, s, v, counter)
        return OCTree(order, {v: s}, {s: g.node_set - cut.members, v: cut.members},
                      check=False)

    half = (len(order) + 1 + 1) // 2  # ceil((len + 1) / 2)
    head, tail = order[:half], order[half:]
    outer = ordered_cuts(head, g, counter)

    inner = {}
    for v in head:
        block = outer.blocks[v]
        targets = tuple(b for b in tail if b in block)
        if not targets:
            inner[v] = _single_node_tree(v, block)
            continue
        sub_g = contract(g, block, v)
        sink = min_cut_minimal_sink(sub_g, {v}, set(targets), counter).sink_side
        rec_g = contract(sub_g, sink | {v}, v)
        sub_tree = ordered_cuts((v, *targets), rec_g, counter)
        side = _single_node_tree(v, block - sink)
        inner[v] = splice_trees((v, *targets), side, sub_tree, check=False)
    return compose_trees(order, outer, inner, check=False)


def flatten_to_star(tree: OCTree) -> NamedPartition:
    """Reduce to a depth-1 tree by repeatedly removing deep leaves.

    While any leaf sits at depth two or more, the rightmost such leaf (in
    sequence order) is removed, merging its block upward.  The surviving
    children of the root become the representatives of a named partition.
    """
    pos = {v: i for i, v in enumerate(tree.order)}
    current = tree
    while True:
        kids = current.children()
        deep_leaves = [v for v in current.order[1:]
                       if not kids[v] and current.parent[v] != current.root]
        if not deep_leaves:
            break
        current = remove_leaf(current, max(deep_leaves, key=pos.__getitem__))
    reps = tuple(v for v in current.order[1:])
    return NamedPartition(reps, {v: current.blocks[v] for v in reps})


def format_oc_tree(tree: OCTree) -> str:
    """One line per sequence node: `v parent | block members` (root: `-`)."""
    lines = []
    for v in tree.order:
        parent = tree.parent.get(v, "-") if v != tree.root else "-"
        members = " ".join(str(x) for x in sorted(tree.blocks[v], key=label_key))
        lines.append(f"{v} {parent} | {members}")
    return "\n".join(lines) + "\n"
