"""Weighted undirected multigraphs, cuts, friendliness, and contraction.

Graphs are immutable values: node ids are 0..n-1, parallel edges are stored
as a single entry whose integer weight is the multiplicity, and self-loop
mass lives in a separate per-node ``extra_volume`` table that counts toward
volumes but never toward degrees.

All cut arithmetic lives here, over node label arrays (a side mask is one;
an edge crosses when its endpoints' labels differ): ``edge_sums`` is the one
per-node edge-weight sum, ``crossing_weights`` and ``cut_weight`` give a
labelling's per-node and total crossing weight, and ``unfriendly_nodes`` is
the friendliness rule, ``CROSS_DEN * crossing > CROSS_NUM * degree``. For
integers that is ``crossing > CROSS_NUM * degree // CROSS_DEN``, which is
how it is evaluated, so that no product exceeds CROSS_NUM times the total
weight. Only ``oracle.cut_table`` restates the rule, vectorised, as the
reference.

Node ids that callers give (cut sides, node sets, terminals, pivots, query
endpoints, the ends of hand-built tree edges) are read by one rule, here
and nowhere else: an id is an integer in 0..n-1, by the integer rule that
``Graph.build`` applies to its entries (a float is rejected, 2.0 included,
and so is a bool, alone, in a list or as an array, so a mask is never read
as ids). ``node_ids`` reads a collection of ids, ``node_id`` a single one
and ``edge_rows`` (u, v, weight) rows; any other id raises
``UnsupportedInput``, a ``ValueError``. Checks that belong to one problem
(a non-empty side, disjoint sides, distinct endpoints) stay with it.

Artifact text (graphs, sparsifiers, Gomory-Hu trees, node subsets) is read
by three rules, here and nowhere else: ``content_lines`` for lines,
``int_fields`` for a line's integer fields and ``edge_lines`` for
``u v [w]`` edge rows. Each rejects input with a ``GraphParseError`` that
names the file's own line.

``Graph.build`` validates its input and then takes the trusted path,
``Graph._trusted``, which only canonicalizes and merges parallel edges, and
skips the sort in one O(m) pass when the edges already come in canonical
(u, v) order, as every flow graph that ``maxflow`` derives from a valid
graph does; those take the trusted path directly. Every entry must be an
integer (a float is rejected, never truncated), a graph's total edge
weight W plus its total extra volume X must be at most
(2**63 - 1) // CROSS_NUM, and its node count at most
``MAX_NODES`` (2**31 - 1, as scipy's sparse graphs index nodes in int32),
else ``build`` raises ``UnsupportedInput``. The largest int64 quantities the
library forms from a graph are the friendliness rule's CROSS_NUM * degree,
at most CROSS_NUM * W, and volumes, at most 2W + X; every degree, cut value
and flow value is at most W. Contraction never raises W + X.

Two per-graph arrays are computed on first use and then kept on the graph
(``functools.cached_property``), since a graph never changes: the degrees
that ``degrees(g)`` returns, and the int32 capacity matrix that every
``maxflow.max_flow`` call on the graph hands to the flow engine, so that
Gusfield's n - 1 flows on one graph build it once. The matrix is built only
for a graph whose every capacity fits in int32 (``MAX_CAPACITY``); on any
other graph each access raises ``UnsupportedInput`` and nothing is kept.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components

__all__ = [
    "Graph",
    "Cut",
    "ContractionMap",
    "Sparsifier",
    "GraphParseError",
    "UnsupportedInput",
    "CROSS_NUM",
    "CROSS_DEN",
    "MAX_CAPACITY",
    "MAX_NODES",
    "node_id",
    "node_ids",
    "edge_rows",
    "degree",
    "degrees",
    "volume",
    "edge_sums",
    "crossing_rows",
    "crossing_weights",
    "cut_weight",
    "unfriendly_nodes",
    "cut_value",
    "is_friendly",
    "contract",
    "component_labels",
    "content_lines",
    "int_fields",
    "edge_lines",
    "parse_graph",
    "graph_from_lines",
    "serialize_graph",
    "parse_node_subset",
    "serialize_node_subset",
]

# A cut is unfriendly when some node sends strictly more than CROSS_NUM/CROSS_DEN
# of its degree across (the 0.6 threshold, i.e. keep-fraction alpha = 0.4).
CROSS_NUM = 3
CROSS_DEN = 5

# The flow engine (scipy's maximum_flow) computes in int32.
MAX_CAPACITY = int(np.iinfo(np.int32).max)

# scipy's sparse graphs, the flow engine's included, index nodes in int32.
MAX_NODES = int(np.iinfo(np.int32).max)

_INT64 = np.iinfo(np.int64)

# The largest total edge weight plus extra volume for which CROSS_NUM times
# it, and so every int64 quantity formed from the graph, fits in int64.
_MAX_TOTAL = int(_INT64.max) // CROSS_NUM


class GraphParseError(ValueError):
    """Raised on malformed graph/subset text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnsupportedInput(ValueError):
    """Raised when an input lies outside a routine's stated limits (a graph
    entry that is not an integer, a total weight past int64 arithmetic, a
    node count above ``MAX_NODES``, a flow capacity above int32, weights
    above n^4, a weighted graph given to a simple-graph pipeline, an empty
    terminal set, a node id that is not an integer in 0..n-1: a float, 2.0
    included, a bool or a bool mask, or an id out of range), as opposed to a
    failed internal check."""


def _is_integer(x) -> bool:
    """The integer rule: a Python or numpy integer, not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


_BOOL_TYPES = frozenset({bool, np.bool_})


def _entries(values, ndim: int):
    """The entries of a nested sequence that numpy reads as an ndim array."""
    if ndim == 1:
        return values
    if ndim == 2:
        return itertools.chain.from_iterable(values)
    return np.asarray(values, dtype=object).flat


def _exact_integers(values, what: str) -> np.ndarray:
    """``values`` as an integer array without rounding: an entry that is not
    an integer, a bool among ints included, raises UnsupportedInput naming
    ``what``, and integers beyond int64 keep their value, in an object
    array, for the range checks."""
    if isinstance(values, np.ndarray):
        arr = values
        if arr.dtype.kind in "iu":
            return arr
    else:
        arr = np.asarray(values)
        # numpy reads ints mixed with bools as ints, so look for the bools
        if arr.dtype.kind in "iu" and _BOOL_TYPES.isdisjoint(map(type, _entries(values, arr.ndim))):
            return arr
    if arr.dtype == object or not isinstance(values, np.ndarray):
        # inference turns an integer beyond int64 into a float; keep it exact
        arr = np.asarray(values, dtype=object)
        if all(_is_integer(x) for x in arr.flat):
            return arr
    raise UnsupportedInput(f"{what} must be integers")


def node_id(n: int, v, what: str = "node") -> int:
    """A caller's single node id ``v`` as an int, once it is an integer in
    0..n-1; else UnsupportedInput, naming the id as a ``what``. An int in
    range costs one type test and one comparison."""
    if type(v) is int and 0 <= v < n:
        return v
    if not _is_integer(v):
        raise UnsupportedInput(f"{what} id {v!r} must be an integer")
    if not 0 <= v < n:
        raise UnsupportedInput(f"{what} {v} out of range for {n} nodes")
    return int(v)


def node_ids(n: int, ids, what: str = "node") -> np.ndarray:
    """A caller's collection of node ids as an int64 array, in its order
    (duplicates kept), once each id passes ``node_id``'s rule; else
    UnsupportedInput. Arrays are read without iterating them."""
    if isinstance(ids, np.ndarray):
        arr = _exact_integers(ids, f"{what} ids")
        bad = arr.size and (arr.min() < 0 or arr.max() >= n)
    else:
        # a side is often one or two nodes (single-source witnesses), where
        # Python's min and max cost far less than numpy's
        ids = list(ids)
        arr = _exact_integers(ids, f"{what} ids")
        bad = ids and (min(ids) < 0 or max(ids) >= n)
    if bad:
        node_id(n, next(x for x in arr.flat if not 0 <= x < n), what)  # raises
    return arr.astype(np.int64, copy=False)


def _exact_sum(values: np.ndarray) -> int:
    """Sum of non-negative integers, without int64 wrap-around."""
    if values.dtype != object and values.size * int(values.max(initial=0)) <= _MAX_TOTAL:
        return int(values.sum())
    return sum(int(x) for x in values.tolist())


def edge_rows(n: int, rows, what: str = "node") -> np.ndarray:
    """A caller's (u, v, weight) rows, such as tree edges, as an int64
    (k, 3) array, once each endpoint passes ``node_id``'s rule and each
    weight the integer rule within int64; else UnsupportedInput."""
    arr = _as_edge_array(rows, "edge entries")
    node_ids(n, arr[:, :2], what)
    w = arr[:, 2]
    if w.size and not (_INT64.min <= w.min() and w.max() <= _INT64.max):
        raise UnsupportedInput("edge weights must fit in int64")
    return arr.astype(np.int64, copy=False)


def _as_edge_array(edges, what: str = "graph entries") -> np.ndarray:
    arr = _exact_integers(edges if isinstance(edges, np.ndarray) else list(edges), what)
    if arr.size == 0:
        return np.zeros((0, 3), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("edges must be (u, v, weight) triples")
    return arr


def _merge_parallel(n: int, arr: np.ndarray) -> np.ndarray:
    """Canonicalize u<v and merge parallel edges by weight addition."""
    if arr.shape[0] == 0:
        return np.zeros((0, 3), dtype=np.int64)
    u = np.minimum(arr[:, 0], arr[:, 1])
    v = np.maximum(arr[:, 0], arr[:, 1])
    keys = u * n + v
    if (keys[1:] > keys[:-1]).all():
        # already in canonical order with no parallel edge: nothing to sort
        return np.column_stack([u, v, arr[:, 2]])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # the keys are sorted, so each run of equal keys starts where the key changes
    first = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    merged_w = np.add.reduceat(arr[order, 2], first)
    return np.column_stack([u[order[first]], v[order[first]], merged_w])


@dataclass(frozen=True)
class Graph:
    """Weighted undirected multigraph with per-node extra self-loop volume."""

    n: int
    edges: np.ndarray  # shape (m, 3) int64 rows (u, v, w), u < v, unique pairs
    extra_volume: np.ndarray  # shape (n,) int64

    @staticmethod
    def build(n: int, edges: Iterable[tuple[int, int, int]] = (), extra_volume=None) -> "Graph":
        """Validate and canonicalize raw edge triples into a Graph."""
        if n < 0:
            raise ValueError("node count must be non-negative")
        if n > MAX_NODES:
            raise UnsupportedInput(f"node count {n} exceeds {MAX_NODES}, the int32 node index "
                                   "limit of scipy's sparse graphs")
        arr = _as_edge_array(edges)
        if arr.shape[0]:
            if arr[:, :2].min() < 0 or arr[:, :2].max() >= n:
                raise ValueError("edge endpoint out of range")
            if (arr[:, 0] == arr[:, 1]).any():
                raise ValueError("self-loops are not allowed; use extra_volume")
            if (arr[:, 2] <= 0).any():
                raise ValueError("edge weights must be positive")
        xv = None
        if extra_volume is not None:
            xv = _exact_integers(extra_volume, "graph entries")
            if xv.shape != (n,):
                raise ValueError("extra_volume must have one entry per node")
            if xv.size and xv.min() < 0:
                raise ValueError("extra_volume must be non-negative")
        total = _exact_sum(arr[:, 2]) + (0 if xv is None else _exact_sum(xv))
        if total > _MAX_TOTAL:
            raise UnsupportedInput(f"total weight plus extra volume {total} exceeds {_MAX_TOTAL}, "
                                   f"past which int64 cut arithmetic would overflow")
        return Graph._trusted(n, arr.astype(np.int64, copy=False),
                              None if xv is None else xv.astype(np.int64))

    @staticmethod
    def _trusted(n: int, arcs: np.ndarray, extra_volume: np.ndarray | None = None) -> "Graph":
        """The Graph of int64 (u, v, w) rows that are already valid: endpoints
        in 0..n-1, no self-loops, positive weights. Merges parallel arcs in
        either orientation, as ``build`` does, but checks nothing; for graphs
        the library derives from a valid one. ``extra_volume`` is kept, not
        copied."""
        arr = _merge_parallel(n, arcs)
        xv = np.zeros(n, dtype=np.int64) if extra_volume is None else extra_volume
        arr.setflags(write=False)
        xv.setflags(write=False)
        return Graph(n=n, edges=arr, extra_volume=xv)

    @property
    def edge_count(self) -> int:
        """Number of distinct edge entries (parallel edges merged)."""
        return int(self.edges.shape[0])

    @property
    def total_weight(self) -> int:
        """Total edge weight, counting parallel multiplicity."""
        return int(self.edges[:, 2].sum()) if self.edges.size else 0

    @cached_property
    def _degrees(self) -> np.ndarray:
        deg = edge_sums(self.n, self.edges)
        deg.setflags(write=False)
        return deg

    @cached_property
    def capacity_matrix(self) -> csr_matrix:
        """Symmetric int32 capacity matrix, built once. Raises
        UnsupportedInput, and keeps nothing, when a capacity exceeds
        ``MAX_CAPACITY``. Treat it as read-only: the flow engine rejects
        read-only buffers, so its arrays are not flagged."""
        return _capacity_matrix(self)

    def edge_list(self) -> list[tuple[int, int, int]]:
        return [tuple(int(x) for x in row) for row in self.edges]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.edges, other.edges)
            and np.array_equal(self.extra_volume, other.extra_volume)
        )

    def __hash__(self):
        return hash((self.n, self.edges.tobytes(), self.extra_volume.tobytes()))


@dataclass(frozen=True)
class Cut:
    """One side of a bipartition plus its crossing weight."""

    side: frozenset[int]
    value: int

    @staticmethod
    def of(g: Graph, side: Iterable[int]) -> "Cut":
        ids = node_ids(g.n, side)
        return Cut(side=frozenset(ids.tolist()), value=cut_value(g, ids))


@dataclass(frozen=True)
class ContractionMap:
    """Partition of original nodes into super-nodes, with super-node sizes."""

    super_of: np.ndarray  # (n_orig,) int64 -> super id in 0..k-1
    size_of: np.ndarray  # (k,) int64 counts of original nodes

    @staticmethod
    def from_labels(labels: Sequence[int]) -> "ContractionMap":
        """Normalize arbitrary integer labels to dense super ids (order of
        first appearance)."""
        lab = _exact_integers(labels, "labels")
        _, first, inverse = np.unique(lab, return_index=True, return_inverse=True)
        # relabel so that super ids follow first appearance order
        rank = np.argsort(np.argsort(first))
        super_of = rank[inverse]
        size_of = np.bincount(super_of, minlength=len(first)).astype(np.int64)
        super_of.setflags(write=False)
        size_of.setflags(write=False)
        return ContractionMap(super_of=super_of, size_of=size_of)

    @staticmethod
    def identity(n: int) -> "ContractionMap":
        return ContractionMap.from_labels(np.arange(n))

    @staticmethod
    def from_classes(n: int, classes: Iterable[Iterable[int]]) -> "ContractionMap":
        """Merge each listed node class (overlapping classes merge transitively);
        unlisted nodes stay singletons."""
        return ContractionMap.from_labels(_resolve_labels(n, list(classes)))

    @property
    def n_original(self) -> int:
        return int(self.super_of.shape[0])

    @property
    def n_super(self) -> int:
        return int(self.size_of.shape[0])

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n_super)]
        for v, s in enumerate(self.super_of):
            out[int(s)].append(v)
        return out

    def compose(self, outer: "ContractionMap") -> "ContractionMap":
        """Apply ``outer`` (a partition of this map's super-nodes) after self."""
        if outer.n_original != self.n_super:
            raise ValueError("outer map must partition this map's super-nodes")
        return ContractionMap.from_labels(outer.super_of[self.super_of])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ContractionMap):
            return NotImplemented
        return np.array_equal(self.super_of, other.super_of)

    def __hash__(self):
        return hash(self.super_of.tobytes())


def _resolve_labels(n: int, classes: Iterable[Iterable[int]]) -> np.ndarray:
    chains = [node_ids(n, cls) for cls in classes] or [np.zeros(0, dtype=np.int64)]
    # each class becomes a path through its members
    u = np.concatenate([c[:-1] for c in chains])
    v = np.concatenate([c[1:] for c in chains])
    return component_labels(n, u, v)[1]


@dataclass(frozen=True)
class Sparsifier:
    """A contracted graph together with the contraction map that produced it,
    and the guarantee it carries: ``"friendly-w"`` (every friendly cut of
    value at most w is preserved) or ``"gh-based"`` (for each pair whose
    minimum cuts are all friendly, one minimum cut is preserved)."""

    graph: Graph
    map: ContractionMap
    guarantee: str = "friendly-w"

    @staticmethod
    def identity(g: Graph) -> "Sparsifier":
        return Sparsifier(graph=g, map=ContractionMap.identity(g.n))

    @staticmethod
    def of(g: Graph, cmap: ContractionMap) -> "Sparsifier":
        return Sparsifier(graph=contract(g, cmap), map=cmap)


def degrees(g: Graph) -> np.ndarray:
    """Per-node sum of incident edge weights (extra_volume excluded), as a
    read-only int64 array computed once per graph."""
    return g._degrees


def check_capacity(c: int) -> None:
    """Reject a flow capacity that does not fit in int32."""
    if c > MAX_CAPACITY:
        raise UnsupportedInput(f"edge capacity {c} exceeds the int32 flow limit {MAX_CAPACITY}")


def _capacity_matrix(g: Graph) -> csr_matrix:
    """Symmetric int32 capacity matrix of g, built from its canonical edge
    array (sorted by (u, v), u < v). The guard runs before the cast, so a
    capacity is never wrapped."""
    check_capacity(int(g.edges[:, 2].max(initial=0)))
    u, v, w = g.edges.astype(np.int32).T
    rows = np.concatenate([v, u])
    # reversed pairs first: a row's smaller neighbours (ascending) precede its
    # larger ones (ascending), so a stable bucketing by row sorts every row;
    # on a row type of 16 bits or less (n <= 2**16) numpy's stable argsort is
    # a linear radix sort
    order = np.argsort(rows.astype(np.min_scalar_type(g.n)), kind="stable")
    indptr = np.zeros(g.n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=g.n), out=indptr[1:])
    cap = csr_matrix((np.concatenate([w, w])[order], np.concatenate([u, v])[order], indptr),
                     shape=(g.n, g.n))
    cap.has_sorted_indices = True
    return cap


def degree(g: Graph, v: int) -> int:
    return int(degrees(g)[node_id(g.n, v)])


def _side_mask(g: Graph, s: Iterable[int]) -> np.ndarray:
    mask = np.zeros(g.n, dtype=bool)
    mask[node_ids(g.n, s)] = True
    return mask


def proper_side_mask(g: Graph, s: Iterable[int]) -> np.ndarray:
    """Boolean mask of a cut side, which must be a proper non-empty subset."""
    mask = _side_mask(g, s)
    k = np.count_nonzero(mask)
    if k == 0 or k == g.n:
        raise ValueError("cut side must be a proper non-empty subset")
    return mask


def volume(g: Graph, s: Iterable[int]) -> int:
    """Sum of degrees plus extra self-loop volume over the subset."""
    mask = _side_mask(g, s)
    return int(degrees(g)[mask].sum() + g.extra_volume[mask].sum())


def edge_sums(n: int, edges: np.ndarray) -> np.ndarray:
    """Per-node total weight of the (u, v, w) rows of ``edges`` over nodes
    0..n-1, each row counted at both endpoints."""
    out = np.zeros(n, dtype=np.int64)
    # exact int64 sums; bincount's weights would sum in float64
    np.add.at(out, edges[:, 0], edges[:, 2])
    np.add.at(out, edges[:, 1], edges[:, 2])
    return out


def crossing_rows(edges: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """True for each (u, v, w) row of ``edges`` whose endpoints' labels differ.

    An (n, k) label array gives an (m, k) answer, one column per labelling.
    """
    if labels.ndim == 1:
        return labels[edges[:, 0]] != labels[edges[:, 1]]
    # take reads whole rows about six times faster than fancy indexing does,
    # but is slower on the 1-D labels of a single cut
    return labels.take(edges[:, 0], axis=0) != labels.take(edges[:, 1], axis=0)


def crossing_weights(g: Graph, labels: np.ndarray) -> np.ndarray:
    """Per-node total weight of g's edges to nodes with another label."""
    return edge_sums(g.n, g.edges[crossing_rows(g.edges, labels)])


def cut_weight(g: Graph, labels: np.ndarray) -> int:
    """Total weight of g's edges whose endpoints' labels differ."""
    return int(g.edges[:, 2] @ crossing_rows(g.edges, labels))


def unfriendly_nodes(g: Graph, labels: np.ndarray) -> np.ndarray:
    """True for each node sending strictly more than CROSS_NUM/CROSS_DEN of
    its degree to nodes with another label."""
    return crossing_weights(g, labels) > CROSS_NUM * degrees(g) // CROSS_DEN


def cut_value(g: Graph, s: Iterable[int]) -> int:
    """Total weight crossing the bipartition (s, V minus s)."""
    return cut_weight(g, proper_side_mask(g, s))


def is_friendly(g: Graph, s: Iterable[int]) -> bool:
    """True iff no node on either side sends > 0.6 of its degree across."""
    return not unfriendly_nodes(g, proper_side_mask(g, s)).any()


def contract(g: Graph, cmap: ContractionMap) -> Graph:
    """Quotient graph: merge each super-node class, drop self-loops, add weights."""
    if cmap.n_original != g.n:
        raise ValueError("contraction map does not match graph node count")
    k = cmap.n_super
    xv = np.zeros(k, dtype=np.int64)
    np.add.at(xv, cmap.super_of, g.extra_volume)
    su = cmap.super_of[g.edges[:, 0]]
    sv = cmap.super_of[g.edges[:, 1]]
    keep = su != sv
    return Graph.build(k, np.column_stack([su[keep], sv[keep], g.edges[keep, 2]]), xv)


def component_labels(n: int, u, v) -> tuple[int, np.ndarray]:
    """Connected components of the graph on nodes 0..n-1 with edges (u[i], v[i]).

    Returns (count, labels). Components are numbered by their smallest node,
    so labels first appear in increasing node order.
    """
    if n == 0:
        return 0, np.zeros(0, dtype=np.int64)
    u = np.asarray(u, dtype=np.int64)
    adj = coo_matrix((np.ones(u.shape[0]), (u, np.asarray(v, dtype=np.int64))), shape=(n, n))
    count, labels = connected_components(adj, directed=False)
    return int(count), labels.astype(np.int64)


def content_lines(text: str) -> tuple[list[tuple[int, str]], int]:
    """The one line rule of every artifact format: a line's content ends at
    its first '#' and is stripped, and lines with no content are skipped.

    Returns the (1-based line number, content) pairs and the file's line
    count, so parsers name the file's own lines in their errors.
    """
    lines = text.splitlines()
    out = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out, len(lines)


def int_fields(lineno: int, text: str, counts: Sequence[int], form: str) -> list[int]:
    """The one field rule of every artifact format: the content line
    ``text`` split on whitespace into one of ``counts`` integer fields, else
    GraphParseError on line ``lineno``: ``expected <form>, got '<text>'``."""
    parts = text.split()
    if len(parts) in counts:
        try:
            return [int(x) for x in parts]
        except ValueError:
            pass
    raise GraphParseError(f"expected {form}, got '{text}'", lineno)


def edge_lines(lines: Iterable[tuple[int, str]], n: int,
               counts: Sequence[int]) -> list[tuple[int, int, int]]:
    """The one edge rule of every artifact format: each content line is a
    ``u v w`` row, or ``u v`` with weight 1 where ``counts`` allows two
    fields, with u != v, both in 0..n-1, and w >= 1; else GraphParseError
    on that line. Returns the (u, v, w) rows."""
    form = "edge 'u v [w]'" if 2 in counts else "edge 'u v w'"
    edges = []
    for lineno, raw in lines:
        u, v, *rest = int_fields(lineno, raw, counts, form)
        w = rest[0] if rest else 1
        if u == v:
            raise GraphParseError(f"self-loop at node {u}", lineno)
        if w <= 0:
            raise GraphParseError(f"non-positive weight {w}", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"node id out of range in {raw!r}", lineno)
        edges.append((u, v, w))
    return edges


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: header "n m", then m lines "u v [w]"."""
    lines, last = content_lines(text)
    return graph_from_lines(lines, 1, last)


def graph_from_lines(lines: Sequence[tuple[int, str]], first: int, last: int) -> Graph:
    """The edge-list format over content lines. A missing header is reported
    on line ``first``, where the section starts, and a short edge list on
    line ``last``, where the input ends."""
    if not lines:
        raise GraphParseError("missing header", first)
    (hline, raw), body = lines[0], lines[1:]
    n, m = int_fields(hline, raw, (2,), "header 'n m'")
    if n < 0 or m < 0:
        raise GraphParseError("header counts must be non-negative", hline)
    edges = edge_lines(body, n, (2, 3))
    if len(edges) != m:
        raise GraphParseError(f"expected {m} edges, found {len(edges)}", last)
    return Graph.build(n, edges)


def serialize_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v} {w}" for u, v, w in g.edge_list())
    return "\n".join(lines) + "\n"


def parse_node_subset(text: str) -> frozenset[int]:
    """Node-subset file: one id per line."""
    return frozenset(int_fields(lineno, raw, (1,), "a node id")[0]
                     for lineno, raw in content_lines(text)[0])


def serialize_node_subset(s: Iterable[int]) -> str:
    return "\n".join(str(v) for v in sorted(s)) + "\n"
