"""Gomory-Hu (cut-equivalent) trees and artifacts built on top of them.

Included here: the classical construction by Gusfield's contraction-free
method (every cut it takes is a minimum cut of the input graph itself, so
every induced tree cut is a real minimum cut in the input), path-minimum
queries and tree-edge sides (both read one cached rooted preorder of the
tree, in which every subtree is a slice), the friendly minimum-cut
sparsifier obtained by contracting unfriendly-only tree components,
capacitated auxiliary graphs of a partition tree and their sparsified
variant, and an accelerated single-source routine that merges a Gomory-Hu
tree of a friendly cut sparsifier with the unfriendly-exact single-source
routine. There is no accelerated tree: Gusfield's n - 1 steps would each
pay for a whole single-source call, itself n - 1 exact max-flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import depth_first_order

from .graph import (
    CROSS_DEN,
    CROSS_NUM,
    ContractionMap,
    Cut,
    Graph,
    GraphParseError,
    Sparsifier,
    UnsupportedInput,
    component_labels,
    content_lines,
    contract,
    crossing_weights,
    degrees,
)
from .maxflow import max_flow
from .sparsify import SparsifyConfig, friendly_sparsify
from .ss_unfriendly import EstimateTable, single_source_unfriendly

__all__ = [
    "GHTree",
    "PartitionTree",
    "gomory_hu",
    "gh_query",
    "validate_ghtree",
    "friendly_mincut_sparsifier_from_gh",
    "build_cag",
    "build_sparsified_cag",
    "cag_totals",
    "accelerated_single_source",
    "serialize_ghtree",
    "parse_ghtree",
]


class _Rooted(NamedTuple):
    """A forest rooted at each component's smallest node, whose parent is
    the virtual root n. Node x's subtree is ``order[tin[x]:tout[x]]`` in the
    preorder; ``order_list`` holds it as Python ints, so a query side is a
    list slice that allocates no int objects. ``up`` is the weight of the
    edge to the parent and ``root`` labels each node's component."""

    order: np.ndarray
    order_list: list[int]
    parent: list[int]
    up: list[int]
    tin: list[int]
    tout: list[int]
    root: list[int]


@dataclass(frozen=True)
class GHTree:
    """Cut-equivalent tree: one weighted tree per connected component.

    Pairs in different components have min-cut value 0; the stored edges
    number n minus the component count.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]

    @property
    def component_count(self) -> int:
        return self.n - len(self.edges)

    @cached_property
    def _rooted(self) -> _Rooted:
        """Built once. Raises ValueError when the edges are not a forest: a
        DFS tree would silently drop the extra edges."""
        n = self.n
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 3)
        count, labels = component_labels(n, e[:, 0], e[:, 1])
        if len(e) != n - count:
            raise ValueError("tree edges do not form a forest")
        roots = np.unique(labels, return_index=True)[1]
        # a virtual root n joined to every component root: one DFS covers the forest
        u = np.concatenate([e[:, 0], np.full(roots.size, n)])
        v = np.concatenate([e[:, 1], roots])
        adj = coo_matrix((np.ones(u.size), (u, v)), shape=(n + 1, n + 1)).tocsr()
        order, parent = depth_first_order(adj, n, directed=False)
        order = order[1:]
        up = np.zeros(n, dtype=np.int64)
        up[np.where(parent[e[:, 0]] == e[:, 1], e[:, 0], e[:, 1])] = e[:, 2]
        tin = np.empty(n, dtype=np.int64)
        tin[order] = np.arange(n)
        order_list, parent_list = order.tolist(), parent[:n].tolist()
        size = [1] * (n + 1)
        for x in reversed(order_list):  # children come after their parent
            size[parent_list[x]] += size[x]
        return _Rooted(order, order_list, parent_list, up.tolist(), tin.tolist(),
                       (tin + size[:n]).tolist(), roots[labels].tolist())


@dataclass(frozen=True)
class PartitionTree:
    """Super-nodes partitioning V with a tree over the super-node indices."""

    classes: tuple[frozenset[int], ...]
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        k = len(self.classes)
        seen: set[int] = set()
        for c in self.classes:
            if not c:
                raise ValueError("empty super-node")
            if c & seen:
                raise ValueError("super-nodes must be disjoint")
            seen |= c
        if len(self.edges) != k - 1:
            raise ValueError("partition tree must have k-1 edges")
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 3)
        if e.size and (e[:, :2].min() < 0 or e[:, :2].max() >= k):
            raise ValueError("partition tree edge endpoint out of range")
        if component_labels(k, e[:, 0], e[:, 1])[0] != 1:
            raise ValueError("partition tree edges contain a cycle")

    @property
    def n(self) -> int:
        return sum(len(c) for c in self.classes)

    @property
    def k(self) -> int:
        return len(self.classes)


def gomory_hu(g: Graph) -> GHTree:
    """Cut-equivalent tree by Gusfield's contraction-free method (1990):
    n - c max-flows, all in g.

    Every node starts hung from the first node of its connected component.
    Each other node s, in order, takes one minimum (s, t)-cut of g itself
    against its current parent t; the nodes on s's side that hang from t
    move to s, and when t's own parent lies on s's side too, s takes t's
    place in the tree.
    """
    labels = component_labels(g.n, g.edges[:, 0], g.edges[:, 1])[1]
    parent = np.unique(labels, return_index=True)[1][labels]
    fl = np.zeros(g.n, dtype=np.int64)
    for s in range(g.n):
        t = int(parent[s])
        if t == s:
            continue  # the root of its component
        value, cut = max_flow(g, s, t)
        on_side = np.zeros(g.n, dtype=bool)
        on_side[list(cut.side)] = True
        assert on_side[s] and not on_side[t]
        parent[on_side & (parent == t)] = s
        parent[s] = t
        fl[s] = value
        # a root is its own parent, so this never fires for t a root
        if on_side[parent[t]]:
            parent[s], parent[t] = parent[t], s
            fl[s], fl[t] = fl[t], value
    edges = tuple((s, int(parent[s]), int(fl[s])) for s in range(g.n) if parent[s] != s)
    return GHTree(n=g.n, edges=edges)


def gh_query(t: GHTree, s: int, t2: int) -> tuple[int, Cut]:
    """Min s,t value and the cut induced by the bottleneck tree edge.

    Ties break toward the bottleneck edge nearest s, so answers are
    deterministic. Cross-component pairs get value 0 and s's component.
    """
    if s == t2:
        raise ValueError("query endpoints must differ")
    for v in (s, t2):
        if not 0 <= v < t.n:
            raise ValueError(f"node {v} out of range")
    r = t._rooted
    order, parent, up, tin, tout = r.order_list, r.parent, r.up, r.tin, r.tout
    root = r.root[s]
    if r.root[t2] != root:
        return 0, Cut(side=frozenset(order[tin[root]:tout[root]]), value=0)
    climb, x = [], s
    while not tin[x] <= tin[t2] < tout[x]:  # x is not yet an ancestor of t2
        climb.append(x)
        x = parent[x]
    descent, y = [], t2
    while y != x:
        descent.append(y)
        y = parent[y]
    path = climb + descent[::-1]  # the child end of each path edge, in s -> t2 order
    below = min(path, key=up.__getitem__)  # min keeps the first of tied edges
    lo, hi = tin[below], tout[below]
    side = order[lo:hi] if lo <= tin[s] < hi else order[tin[root]:lo] + order[hi:tout[root]]
    return up[below], Cut(side=frozenset(side), value=up[below])


def validate_ghtree(g: Graph, t: GHTree) -> None:
    """Structural validation plus every tree edge's induced cut value in g.

    Raises ValueError on any violation. Minimality of the induced cuts is
    not checked here; the enumeration oracle covers that in tests.
    """
    for _ in _checked_edge_sides(g, t):
        pass


def _checked_edge_sides(g: Graph, t: GHTree) -> Iterator[tuple[tuple[int, int, int], np.ndarray]]:
    """Check t's structure against g, then yield each tree edge with its side
    mask once the cut that mask induces in g has the edge's weight.

    Raises ValueError on the first violation.
    """
    if t.n != g.n:
        raise ValueError("tree and graph disagree on node count")
    g_count, g_labels = component_labels(g.n, g.edges[:, 0], g.edges[:, 1])
    if len(t.edges) != g.n - g_count:
        raise ValueError("tree edge count does not match component count")
    seen_pairs = set()
    for u, v, w in t.edges:
        if u == v or not (0 <= u < t.n and 0 <= v < t.n):
            raise ValueError("bad tree edge endpoints")
        if w <= 0:
            raise ValueError("tree edge weights must be positive")
        key = (min(u, v), max(u, v))
        if key in seen_pairs:
            raise ValueError("duplicate tree edge")
        seen_pairs.add(key)
    t_edges = np.asarray(t.edges, dtype=np.int64).reshape(-1, 3)
    if not np.array_equal(g_labels, component_labels(t.n, t_edges[:, 0], t_edges[:, 1])[1]):
        raise ValueError("tree components do not match graph components")
    gu, gv, gw = g.edges.T
    for (u, v, w), mask in _tree_edge_sides(t):
        if int(gw[mask[gu] != mask[gv]].sum()) != w:
            raise ValueError(f"tree edge ({u},{v},{w}) cut has wrong value in g")
        yield (u, v, w), mask


def _tree_edge_sides(t: GHTree) -> Iterator[tuple[tuple[int, int, int], np.ndarray]]:
    """For each tree edge, the boolean side mask of the subtree below it in
    t's rooted form; the masks are yielded one at a time."""
    r = t._rooted
    for u, v, w in t.edges:
        child = v if r.parent[v] == u else u
        mask = np.zeros(t.n, dtype=bool)
        mask[r.order[r.tin[child]:r.tout[child]]] = True
        yield (u, v, w), mask


def friendly_mincut_sparsifier_from_gh(g: Graph, t: GHTree) -> Sparsifier:
    """Contract the components of the tree spanned by unfriendly-only edges.

    The result preserves at least one minimum s,t-cut for every pair whose
    minimum cuts are all friendly. Raises ValueError on a tree that
    ``validate_ghtree`` rejects.
    """
    deg = degrees(g)
    unfriendly_classes = []
    for (u, v, _), mask in _checked_edge_sides(g, t):
        if (CROSS_DEN * crossing_weights(g, mask) > CROSS_NUM * deg).any():
            unfriendly_classes.append((u, v))
    cmap = ContractionMap.from_classes(g.n, unfriendly_classes)
    return Sparsifier.of(g, cmap)


def partition_tree_from_gh(t: GHTree, cmap: ContractionMap) -> PartitionTree:
    """Quotient a GH tree by a contraction whose classes are tree-connected."""
    classes = tuple(frozenset(c) for c in cmap.classes())
    edges = []
    for u, v, w in t.edges:
        su, sv = int(cmap.super_of[u]), int(cmap.super_of[v])
        if su != sv:
            edges.append((su, sv, w))
    return PartitionTree(classes=classes, edges=tuple(edges))


def build_cag(g: Graph, pt: PartitionTree, i: int) -> Graph:
    """Capacitated auxiliary graph of super-node i: contract every connected
    component of the tree minus i, merge parallel edges into weights."""
    return build_sparsified_cag(Sparsifier.identity(g), pt, i)


def build_sparsified_cag(h: Sparsifier, pt: PartitionTree, i: int) -> Graph:
    """CAG construction applied to a sparsifier: contract each tree component
    away from super-node i inside h's graph. A sparsifier class straddling
    two components forces those components to merge."""
    if not 0 <= i < pt.k:
        raise ValueError(f"super-node index {i} out of range")
    if pt.n != h.map.n_original:
        raise ValueError("partition tree does not cover the sparsifier's base graph")
    # one labelling over h's super-nodes 0..hn-1 and the tree's super-nodes
    # hn..hn+k-1: each base node outside class i links its h super-node to
    # its tree super-node, and the tree edges away from i link tree super-nodes
    hn = h.graph.n
    tree_of = np.empty(pt.n, dtype=np.int64)
    for j, cls in enumerate(pt.classes):
        tree_of[list(cls)] = j
    e = np.asarray(pt.edges, dtype=np.int64).reshape(-1, 3)
    e = e[(e[:, 0] != i) & (e[:, 1] != i)]
    outside = np.flatnonzero(tree_of != i)
    u = np.concatenate([h.map.super_of[outside], hn + e[:, 0]])
    v = np.concatenate([hn + tree_of[outside], hn + e[:, 1]])
    labels = component_labels(hn + pt.k, u, v)[1]
    return contract(h.graph, ContractionMap.from_labels(labels[:hn]))


def cag_totals(source: Graph | Sparsifier, pt: PartitionTree) -> tuple[int, int]:
    """(sum of node counts, sum of weighted-edge counts) over all CAGs."""
    h = source if isinstance(source, Sparsifier) else Sparsifier.identity(source)
    total_nodes = 0
    total_edges = 0
    for i in range(pt.k):
        cag = build_sparsified_cag(h, pt, i)
        total_nodes += cag.n
        total_edges += cag.edge_count
    return total_nodes, total_edges


def accelerated_single_source(g: Graph, p: int, cfg: SparsifyConfig | None = None) -> EstimateTable:
    """Exact single-source min cuts: Gomory-Hu on a friendly n-cut sparsifier
    for the friendly pairs, merged (by minimum) with the unfriendly-exact
    estimates. Every minimum cut falls to one branch, so the merge is exact."""
    if not 0 <= p < g.n:
        raise ValueError(f"pivot {p} out of range")
    if g.edges.size and int(g.edges[:, 2].max()) > 1:
        raise UnsupportedInput("accelerated pipeline requires a simple graph")
    table = single_source_unfriendly(g, p)
    h = friendly_sparsify(g, w=g.n, cfg=cfg)
    ght = gomory_hu(h.graph)
    sp = int(h.map.super_of[p])
    for v in range(g.n):
        if v == p:
            continue
        sv = int(h.map.super_of[v])
        if sv == sp:
            continue  # this pair's min cuts are not friendly-preserved; other branch wins
        value, cut = gh_query(ght, sv, sp)
        side_mask = np.zeros(h.graph.n, dtype=bool)
        side_mask[list(cut.side)] = True
        side = frozenset(int(x) for x in np.flatnonzero(side_mask[h.map.super_of]))
        table.update(v, value, Cut(side=side, value=value))
    return table


def serialize_ghtree(t: GHTree) -> str:
    lines = [f"{t.n} {t.component_count}"]
    for u, v, w in t.edges:
        lines.append(f"{u} {v} {w}")
    return "\n".join(lines) + "\n"


def parse_ghtree(text: str) -> GHTree:
    lines, last = content_lines(text)
    if not lines:
        raise GraphParseError("missing header", last + 1)
    (hline, head), body = lines[0], lines[1:]
    parts = head.split()
    if len(parts) != 2:
        raise GraphParseError("expected header 'n components'", hline)
    try:
        n, c = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphParseError("header fields must be integers", hline)
    if n < 0 or not 0 <= c <= n:
        raise GraphParseError("header needs n >= 0 and 0 <= components <= n", hline)
    edges = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 3:
            raise GraphParseError("expected 'u v weight'", lineno)
        try:
            u, v, w = (int(x) for x in parts)
        except ValueError:
            raise GraphParseError("edge fields must be integers", lineno)
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"bad tree edge endpoints in {line!r}", lineno)
        if w <= 0:
            raise GraphParseError(f"non-positive weight {w}", lineno)
        edges.append((u, v, w))
    if len(edges) != n - c:
        raise GraphParseError(
            f"expected {n - c} edges for {n} nodes in {c} components, got {len(edges)}",
            last + 1)
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    if component_labels(n, e[:, 0], e[:, 1])[0] != c:
        raise GraphParseError("edge list does not form the declared components", last + 1)
    return GHTree(n=n, edges=tuple(edges))
