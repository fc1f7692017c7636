"""Weighted undirected multigraphs, cuts, friendliness, and contraction.

Graphs are immutable values: node ids are 0..n-1, parallel edges are stored
as a single entry whose integer weight is the multiplicity, and self-loop
mass lives in a separate per-node ``extra_volume`` table that counts toward
volumes but never toward degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import coo_matrix
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
    "degree",
    "degrees",
    "volume",
    "cut_value",
    "is_friendly",
    "contract",
    "component_labels",
    "parse_graph",
    "serialize_graph",
    "parse_node_subset",
    "serialize_node_subset",
]

# A cut is unfriendly when some node sends strictly more than CROSS_NUM/CROSS_DEN
# of its degree across (the 0.6 threshold, i.e. keep-fraction alpha = 0.4).
CROSS_NUM = 3
CROSS_DEN = 5


class GraphParseError(ValueError):
    """Raised on malformed graph/subset text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnsupportedInput(ValueError):
    """Raised when an input lies outside a routine's stated limits (a flow
    capacity above int32, weights above n^4, a weighted graph given to a
    simple-graph pipeline, an empty or out-of-range terminal set), as opposed
    to a failed internal check."""


def _as_edge_array(edges) -> np.ndarray:
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("edges must be (u, v, weight) triples")
    return arr


def _merge_parallel(n: int, arr: np.ndarray) -> np.ndarray:
    """Canonicalize u<v and merge parallel edges by weight addition."""
    if arr.shape[0] == 0:
        return arr
    u = np.minimum(arr[:, 0], arr[:, 1])
    v = np.maximum(arr[:, 0], arr[:, 1])
    w = arr[:, 2]
    keys = u * n + v
    order = np.argsort(keys, kind="stable")
    keys, u, v, w = keys[order], u[order], v[order], w[order]
    uniq, inverse = np.unique(keys, return_index=True)
    merged_w = np.add.reduceat(w, inverse)
    return np.column_stack([u[inverse], v[inverse], merged_w])


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
        arr = _as_edge_array(edges)
        if arr.shape[0]:
            if arr[:, :2].min() < 0 or arr[:, :2].max() >= n:
                raise ValueError("edge endpoint out of range")
            if (arr[:, 0] == arr[:, 1]).any():
                raise ValueError("self-loops are not allowed; use extra_volume")
            if (arr[:, 2] <= 0).any():
                raise ValueError("edge weights must be positive")
        arr = _merge_parallel(n, arr)
        if extra_volume is None:
            xv = np.zeros(n, dtype=np.int64)
        else:
            xv = np.asarray(extra_volume, dtype=np.int64).copy()
            if xv.shape != (n,):
                raise ValueError("extra_volume must have one entry per node")
            if xv.size and xv.min() < 0:
                raise ValueError("extra_volume must be non-negative")
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
        fs = frozenset(int(v) for v in side)
        return Cut(side=fs, value=cut_value(g, fs))


@dataclass(frozen=True)
class ContractionMap:
    """Partition of original nodes into super-nodes, with super-node sizes."""

    super_of: np.ndarray  # (n_orig,) int64 -> super id in 0..k-1
    size_of: np.ndarray  # (k,) int64 counts of original nodes

    @staticmethod
    def from_labels(labels: Sequence[int]) -> "ContractionMap":
        """Normalize arbitrary labels to dense super ids (order of first appearance)."""
        lab = np.asarray(labels, dtype=np.int64)
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
    chains = [np.fromiter(cls, dtype=np.int64) for cls in classes] or [np.zeros(0, dtype=np.int64)]
    members = np.concatenate(chains)
    bad = members[(members < 0) | (members >= n)]
    if bad.size:
        raise ValueError(f"node {bad[0]} out of range")
    # each class becomes a path through its members
    u = np.concatenate([c[:-1] for c in chains])
    v = np.concatenate([c[1:] for c in chains])
    return component_labels(n, u, v)[1]


@dataclass(frozen=True)
class Sparsifier:
    """A contracted graph together with the contraction map that produced it."""

    graph: Graph
    map: ContractionMap
    base_degrees: np.ndarray  # per original node, degrees in the base graph

    @staticmethod
    def identity(g: Graph) -> "Sparsifier":
        return Sparsifier(graph=g, map=ContractionMap.identity(g.n), base_degrees=degrees(g))

    @staticmethod
    def of(g: Graph, cmap: ContractionMap) -> "Sparsifier":
        return Sparsifier(graph=contract(g, cmap), map=cmap, base_degrees=degrees(g))


def degrees(g: Graph) -> np.ndarray:
    """Per-node sum of incident edge weights (extra_volume excluded)."""
    deg = np.zeros(g.n, dtype=np.int64)
    if g.edges.size:
        np.add.at(deg, g.edges[:, 0], g.edges[:, 2])
        np.add.at(deg, g.edges[:, 1], g.edges[:, 2])
    deg.setflags(write=False)
    return deg


def degree(g: Graph, v: int) -> int:
    if not 0 <= v < g.n:
        raise ValueError(f"node {v} out of range for graph on {g.n} nodes")
    return int(degrees(g)[v])


def _side_mask(g: Graph, s: Iterable[int]) -> np.ndarray:
    mask = np.zeros(g.n, dtype=bool)
    for v in s:
        v = int(v)
        if not 0 <= v < g.n:
            raise ValueError(f"node {v} out of range for graph on {g.n} nodes")
        mask[v] = True
    return mask


def volume(g: Graph, s: Iterable[int]) -> int:
    """Sum of degrees plus extra self-loop volume over the subset."""
    mask = _side_mask(g, s)
    return int(degrees(g)[mask].sum() + g.extra_volume[mask].sum())


def cut_value(g: Graph, s: Iterable[int]) -> int:
    """Total weight crossing the bipartition (s, V minus s)."""
    mask = _side_mask(g, s)
    k = int(mask.sum())
    if k == 0 or k == g.n:
        raise ValueError("cut side must be a proper non-empty subset")
    if not g.edges.size:
        return 0
    crossing = mask[g.edges[:, 0]] != mask[g.edges[:, 1]]
    return int(g.edges[crossing, 2].sum())


def crossing_weights(g: Graph, mask: np.ndarray) -> np.ndarray:
    """Per-node total edge weight crossing the cut given by a boolean mask."""
    cross = np.zeros(g.n, dtype=np.int64)
    if g.edges.size:
        cr = mask[g.edges[:, 0]] != mask[g.edges[:, 1]]
        np.add.at(cross, g.edges[cr, 0], g.edges[cr, 2])
        np.add.at(cross, g.edges[cr, 1], g.edges[cr, 2])
    return cross


def is_friendly(g: Graph, s: Iterable[int], base_degrees=None) -> bool:
    """True iff no node on either side sends > 0.6 of its degree across.

    For contracted graphs, pass ``base_degrees`` to evaluate the threshold
    against degrees of the base graph instead of this graph's degrees.
    """
    mask = _side_mask(g, s)
    k = int(mask.sum())
    if k == 0 or k == g.n:
        raise ValueError("cut side must be a proper non-empty subset")
    deg = degrees(g) if base_degrees is None else np.asarray(base_degrees, dtype=np.int64)
    cross = crossing_weights(g, mask)
    # strict inequality: cross > (CROSS_NUM/CROSS_DEN) * deg makes the cut unfriendly
    return not bool((CROSS_DEN * cross > CROSS_NUM * deg).any())


def contract(g: Graph, cmap: ContractionMap) -> Graph:
    """Quotient graph: merge each super-node class, drop self-loops, add weights."""
    if cmap.n_original != g.n:
        raise ValueError("contraction map does not match graph node count")
    k = cmap.n_super
    xv = np.zeros(k, dtype=np.int64)
    np.add.at(xv, cmap.super_of, g.extra_volume)
    if g.edges.size:
        su = cmap.super_of[g.edges[:, 0]]
        sv = cmap.super_of[g.edges[:, 1]]
        keep = su != sv
        mapped = np.column_stack([su[keep], sv[keep], g.edges[keep, 2]])
    else:
        mapped = g.edges
    return Graph.build(k, mapped, xv)


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


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: header "n m", then m lines "u v [w]"."""
    lines = text.splitlines()
    idx = 0
    header = None
    for idx, raw in enumerate(lines):
        if raw.strip() and not raw.lstrip().startswith("#"):
            header = raw.split()
            break
    if header is None:
        raise GraphParseError("missing header", 1)
    if len(header) != 2:
        raise GraphParseError("header must be 'n m'", idx + 1)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphParseError("header must contain two integers", idx + 1) from None
    if n < 0 or m < 0:
        raise GraphParseError("header counts must be non-negative", idx + 1)
    edges = []
    seen = 0
    for lineno in range(idx + 1, len(lines)):
        raw = lines[lineno].strip()
        if not raw or raw.startswith("#"):
            continue
        parts = raw.split()
        if len(parts) not in (2, 3):
            raise GraphParseError(f"malformed edge line {raw!r}", lineno + 1)
        try:
            u, v = int(parts[0]), int(parts[1])
            w = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise GraphParseError(f"malformed edge line {raw!r}", lineno + 1) from None
        if u == v:
            raise GraphParseError(f"self-loop at node {u}", lineno + 1)
        if w <= 0:
            raise GraphParseError(f"non-positive weight {w}", lineno + 1)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"node id out of range in {raw!r}", lineno + 1)
        edges.append((u, v, w))
        seen += 1
    if seen != m:
        raise GraphParseError(f"expected {m} edges, found {seen}", len(lines))
    return Graph.build(n, edges)


def serialize_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v} {w}" for u, v, w in g.edge_list())
    return "\n".join(lines) + "\n"


def parse_node_subset(text: str) -> frozenset[int]:
    """Node-subset file: one id per line."""
    out = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            continue
        try:
            out.add(int(raw))
        except ValueError:
            raise GraphParseError(f"malformed node id {raw!r}", lineno) from None
    return frozenset(out)


def serialize_node_subset(s: Iterable[int]) -> str:
    return "\n".join(str(v) for v in sorted(s)) + "\n"
