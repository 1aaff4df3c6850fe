"""Exact weighted undirected graph with contraction and DIMACS-style I/O.

Weights are plain Python integers, so all cut costs are exact and
"minimum" is decidable without tolerances.  Graphs are immutable after
construction; contractions return new graphs, which makes sharing across
recursion branches safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

Label = Hashable


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

    __slots__ = ("labels", "_index", "edges", "_adj")

    def __init__(self, nodes: Iterable[Label], edges: Iterable[tuple] = ()):
        labels = tuple(nodes)
        index = {}
        for i, lab in enumerate(labels):
            if lab in index:
                raise ValueError(f"duplicate node label {lab!r}")
            index[lab] = i
        if not labels:
            raise ValueError("graph needs at least one node")

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
            key = (iu, iv) if iu < iv else (iv, iu)
            merged[key] = merged.get(key, 0) + w

        self.labels = labels
        self._index = index
        self.edges = tuple((iu, iv, w) for (iu, iv), w in sorted(merged.items()))
        self._adj = None

    # -- basics ---------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def node_set(self) -> frozenset:
        return frozenset(self.labels)

    def has_node(self, label) -> bool:
        return label in self._index

    def adjacency(self):
        """Per-node list of (neighbor_index, weight), built lazily."""
        if self._adj is None:
            adj = [[] for _ in self.labels]
            for iu, iv, w in self.edges:
                adj[iu].append((iv, w))
                adj[iv].append((iu, w))
            self._adj = adj
        return self._adj

    def edge_labels(self):
        """Edges as (u_label, v_label, weight) triples."""
        lab = self.labels
        return [(lab[iu], lab[iv], w) for iu, iv, w in self.edges]

    def indices(self, members) -> set:
        idx = self._index
        out = set()
        for lab in members:
            if lab not in idx:
                raise ValueError(f"{lab!r} is not a node of this graph")
            out.add(idx[lab])
        return out

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.labels == other.labels and self.edges == other.edges

    def __hash__(self):
        return hash((self.labels, self.edges))

    def __repr__(self):
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"


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
    pos = {lab: i for i, lab in enumerate(new_labels)}
    merged: dict = {}
    for iu, iv, w in g.edges:
        cu = pos[rep_of[iu]]
        cv = pos[rep_of[iv]]
        if cu == cv:
            continue
        key = (cu, cv) if cu < cv else (cv, cu)
        merged[key] = merged.get(key, 0) + w
    out = Graph.__new__(Graph)
    out.labels = tuple(new_labels)
    out._index = pos
    out.edges = tuple((a, b, w) for (a, b), w in sorted(merged.items()))
    out._adj = None
    return out


def contract(g: Graph, keep, s) -> Graph:
    """Contract everything outside `keep` (plus `s`) into the node `s`.

    The returned graph has node set exactly `keep`.  Cut costs of subsets
    of keep - {s} are preserved.
    """
    keep = set(keep)
    if s not in keep:
        raise ValueError(f"{s!r} must belong to the kept node set")
    keep_idx = g.indices(keep)
    rep_of = [g.labels[i] if i in keep_idx else s for i in range(g.num_nodes)]
    new_labels = [lab for lab in g.labels if lab in keep]
    return _quotient(g, new_labels, rep_of)


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


def unused_label(tag: str, names, *graphs):
    """The next (tag, k), k drawn from the counter `names`, that is a node
    of none of `graphs`; used to name contracted nodes."""
    while True:
        label = (tag, next(names))
        if not any(g.has_node(label) for g in graphs):
            return label


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
            if n < 1:
                raise GraphFormatError(ln, "node count must be >= 1")
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
