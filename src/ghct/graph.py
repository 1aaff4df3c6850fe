"""Exact weighted undirected graph with contraction and DIMACS-style I/O.

Weights are plain Python integers, so all cut costs are exact and
"minimum" is decidable without tolerances.  Graphs are immutable after
construction, and so is the adjacency `{index: {index: weight}}` a graph
caches over its node indices.  Contracting an adjacency
(`contract_kept`) returns a new one, or the same one when nothing is
merged, so recursion branches share them safely; `contract` does the
same for whole graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

Label = Hashable

# Largest node count a DIMACS header may declare: far beyond what the
# pure-Python engine can solve, and a header alone, with no edges, makes
# the parser allocate about 120 MB at the cap (labels and their index).
MAX_DIMACS_NODES = 2 ** 20


class GraphFormatError(ValueError):
    """Malformed graph file; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


def label_key(label):
    """Deterministic sort key for node labels of mixed types.

    Integer labels sort numerically first; anything else (e.g. the tuple
    labels produced by contractions) sorts after them by repr.
    """
    if isinstance(label, int) and not isinstance(label, bool):
        return (0, label, "")
    return (1, 0, repr(label))


def sorted_labels(labels) -> list:
    return sorted(labels, key=label_key)


@dataclass(frozen=True)
class Cut:
    """A vertex subset with its exact crossing-edge cost."""

    members: frozenset
    cost: int


class Graph:
    """Immutable undirected weighted graph.

    Parallel edges are merged on construction (weights summed); self-loops
    are rejected.  Node labels are arbitrary hashables; `labels` preserves
    construction order and `edges` holds (u_index, v_index, weight) triples.
    """

    __slots__ = ("labels", "_index", "edges", "_label_order", "_rank", "_adjacency")

    def __init__(self, nodes: Iterable[Label], edges: Iterable[tuple] = ()):
        labels = tuple(nodes)
        index = {}
        for i, lab in enumerate(labels):
            if lab in index:
                raise ValueError(f"duplicate node label {lab!r}")
            index[lab] = i
        if not labels:
            raise ValueError("graph needs at least one node")

        k = len(labels)
        merged: dict = {}
        for u, v, w in edges:
            if u == v:
                raise ValueError(f"self-loop at {u!r}")
            if not isinstance(w, int) or isinstance(w, bool):
                raise ValueError(f"non-integer weight {w!r} on edge ({u!r}, {v!r})")
            if w < 0:
                raise ValueError(f"negative weight {w} on edge ({u!r}, {v!r})")
            try:
                iu, iv = index[u], index[v]
            except KeyError as exc:
                raise ValueError(f"edge endpoint {exc.args[0]!r} is not a node") from None
            key = iu * k + iv if iu < iv else iv * k + iu
            merged[key] = merged.get(key, 0) + w

        self.labels = labels
        self._index = index
        self.edges = tuple([(key // k, key % k, merged[key]) for key in sorted(merged)])
        self._label_order = None
        self._rank = None
        self._adjacency = None

    # -- basics ---------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def node_set(self) -> frozenset:
        """All labels as a frozenset."""
        return frozenset(self.labels)

    @property
    def label_order(self) -> tuple:
        """All labels in `sorted_labels` order, sorted once; every cut tree
        of this graph shares the tuple as its `nodes`."""
        if self._label_order is None:
            self._label_order = tuple(sorted_labels(self.labels))
        return self._label_order

    @property
    def rank(self) -> list:
        """rank[i] is node i's position in `label_order`, computed once.
        Whatever works over node indices orders and breaks ties by it."""
        if self._rank is None:
            self._rank = [0] * len(self.labels)
            for r, lab in enumerate(self.label_order):
                self._rank[self._index[lab]] = r
        return self._rank

    @property
    def adjacency(self) -> dict:
        """{index: {neighbour index: weight}} over every node, built once;
        weight-0 edges included.  Shared by every reader, so no caller may
        mutate it."""
        if self._adjacency is None:
            adj = {i: {} for i in range(len(self.labels))}
            for iu, iv, w in self.edges:
                adj[iu][iv] = adj[iv][iu] = w
            self._adjacency = adj
        return self._adjacency

    def has_node(self, label) -> bool:
        return label in self._index

    def edge_labels(self):
        """Edges as (u_label, v_label, weight) triples."""
        lab = self.labels
        return [(lab[iu], lab[iv], w) for iu, iv, w in self.edges]

    def indices(self, members) -> set:
        return _indices(self._index, members)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.labels == other.labels and self.edges == other.edges

    def __hash__(self):
        return hash((self.labels, self.edges))

    def __repr__(self):
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"


def _indices(index: dict, members) -> set:
    """The positions `index` gives `members`; ValueError for a non-member."""
    try:
        return {index[lab] for lab in members}
    except KeyError as exc:
        raise ValueError(f"{exc.args[0]!r} is not a node of this graph") from None


def cut_cost(g: Graph, members) -> int:
    """Exact total weight of edges with exactly one endpoint in `members`."""
    inside = g.indices(members)
    if not inside or len(inside) == g.num_nodes:
        raise ValueError("cut side must be a non-empty proper subset of the nodes")
    total = 0
    for iu, iv, w in g.edges:
        if (iu in inside) != (iv in inside):
            total += w
    return total


def _quotient(g: Graph, new_labels, rep_of) -> Graph:
    """Contract by an index->new-label map; merges parallels, drops loops."""
    return Graph(new_labels, [(rep_of[u], rep_of[v], w) for u, v, w in g.edges
                              if rep_of[u] != rep_of[v]])


def contract(g: Graph, keep, s) -> Graph:
    """Contract everything outside `keep` (plus `s`) into the node `s`.

    The returned graph has node set exactly `keep`.  Cut costs of subsets
    of keep - {s} are preserved.  When `keep` holds every node, `g` itself
    is returned.
    """
    keep = set(keep)
    if s not in keep:
        raise ValueError(f"{s!r} must belong to the kept node set")
    keep_idx = g.indices(keep)
    if len(keep_idx) == g.num_nodes:
        return g  # graphs are immutable, so no copy is needed
    rep_of = [g.labels[i] if i in keep_idx else s for i in range(g.num_nodes)]
    new_labels = [lab for lab in g.labels if lab in keep]
    return _quotient(g, new_labels, rep_of)


def contract_kept(adj: dict, keep, s) -> dict:
    """Contract everything of the adjacency `adj` outside `keep` into its
    node s, as `contract` does for a graph.

    `keep` is a set of adj's nodes holding s.  Returns a new adjacency
    over keep: parallel edges into s are summed, and an edge exists if any
    edge it merges does, so weight-0 edges stay.  When keep holds every
    node, `adj` itself is returned.  Costs O(degree of keep), walking in
    Python only the part with fewer nodes: keep's rows one edge at a time,
    or copies of them with the rest's edges then moved onto s.
    """
    if len(keep) == len(adj):
        return adj
    if 2 * len(keep) > len(adj):
        out = {x: adj[x].copy() for x in keep}
        to_s = out[s]
        for z in adj.keys() - keep:
            for y, w in adj[z].items():
                if y in keep:
                    row = out[y]
                    del row[z]
                    if y != s:
                        row[s] = to_s[y] = row.get(s, 0) + w
        return out
    out = {}
    to_s = {}
    for x in keep:
        if x == s:
            continue
        own = {}
        merged = None
        for y, w in adj[x].items():
            if y != s and y in keep:
                own[y] = w
            else:
                merged = w if merged is None else merged + w
        if merged is not None:
            own[s] = to_s[x] = merged
        out[x] = own
    out[s] = to_s
    return out


def forced_min_cut(adj: dict, nodes, s_side, t_side) -> Cut | None:
    """The minimum s_side-t_side cut of `contract_kept(adj, nodes, s)`, s
    in s_side, with inclusion-minimal sink side, read off adj with no flow
    and no contraction; None when more than one node of `nodes` lies
    outside both sides.

    The sides are disjoint non-empty subsets of `nodes`; the rest of adj is
    on the source side.  With no free node the sink side is t_side; with
    one, z, it is t_side or t_side | {z}, whichever costs less, t_side on
    a tie.  The contraction keeps the cost of every set without s, so both
    costs are read off adj.  Minimum-cut sink sides are closed under
    intersection, so the least-cost side with fewest nodes is the
    inclusion-minimal one the engine returns.
    """
    free = len(nodes) - len(s_side) - len(t_side)
    if free > 1:
        return None
    sink = frozenset(t_side)
    cost = 0
    for x in sink:
        for y, w in adj[x].items():
            if y not in sink:
                cost += w
    if free:
        (z,) = nodes - s_side - sink
        # z's edges go into t_side or the source side: moving z to the sink
        # side takes its edges into t_side out of the cut and puts the rest in.
        into_t = sum(w for y, w in adj[z].items() if y in sink)
        into_s = sum(adj[z].values()) - into_t
        if into_s < into_t:
            return Cut(sink | {z}, cost - into_t + into_s)
    return Cut(sink, cost)


def contract_set_to_node(g: Graph, members, label) -> Graph:
    """Merge the node set `members` into a single node named `label`."""
    members = set(members)
    if not members:
        raise ValueError("cannot contract an empty set")
    member_idx = g.indices(members)
    survivors = [lab for lab in g.labels if lab not in members]
    if label in survivors:
        raise ValueError(f"contraction label {label!r} collides with a surviving node")
    rep_of = [label if i in member_idx else g.labels[i] for i in range(g.num_nodes)]
    return _quotient(g, survivors + [label], rep_of)


# -- DIMACS-style text format -------------------------------------------
#
#   c <comment>
#   p ghct <n> <m>
#   e <u> <v> <w>          (1-based labels, integer w >= 0)


def parse_dimacs(text: str) -> Graph:
    n = None
    declared = 0
    edges = []
    seen = 0
    last_line = 0
    for ln, raw in enumerate(text.splitlines(), 1):
        last_line = ln
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise GraphFormatError(ln, "duplicate problem line")
            if len(fields) != 4 or fields[1] != "ghct":
                raise GraphFormatError(ln, "expected 'p ghct <n> <m>'")
            try:
                n, declared = int(fields[2]), int(fields[3])
            except ValueError:
                raise GraphFormatError(ln, "non-integer node/edge count") from None
            if not 1 <= n <= MAX_DIMACS_NODES:
                raise GraphFormatError(ln, f"node count must be in 1..{MAX_DIMACS_NODES}")
            if declared < 0:
                raise GraphFormatError(ln, "edge count must be >= 0")
        elif fields[0] == "e":
            if n is None:
                raise GraphFormatError(ln, "edge record before the problem line")
            if len(fields) != 4:
                raise GraphFormatError(ln, "expected 'e <u> <v> <w>'")
            try:
                u, v, w = int(fields[1]), int(fields[2]), int(fields[3])
            except ValueError:
                raise GraphFormatError(ln, "non-integer edge fields") from None
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise GraphFormatError(ln, f"node id out of range 1..{n}")
            if u == v:
                raise GraphFormatError(ln, "self-loops are not allowed")
            if w < 0:
                raise GraphFormatError(ln, "negative weight")
            seen += 1
            if seen > declared:
                raise GraphFormatError(ln, f"more than {declared} edge records")
            edges.append((u, v, w))
        else:
            raise GraphFormatError(ln, f"unrecognized record {fields[0]!r}")
    if n is None:
        raise GraphFormatError(last_line or 1, "missing 'p ghct <n> <m>' line")
    if seen != declared:
        raise GraphFormatError(last_line, f"header declares {declared} edges, found {seen}")
    return Graph(range(1, n + 1), edges)


def write_dimacs(g: Graph, comments: Iterable[str] = ()) -> str:
    """Canonical text form: comments, problem line, edges sorted by endpoints.

    Requires integer labels 1..n, which is what `parse_dimacs` produces.
    """
    n = g.num_nodes
    if set(g.labels) != set(range(1, n + 1)):
        raise ValueError("canonical output requires integer labels 1..n")
    lines = [f"c {c}" for c in comments]
    lines.append(f"p ghct {n} {g.num_edges}")
    rows = sorted((min(u, v), max(u, v), w) for u, v, w in g.edge_labels())
    lines.extend(f"e {u} {v} {w}" for u, v, w in rows)
    return "\n".join(lines) + "\n"
