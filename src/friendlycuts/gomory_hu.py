"""Gomory-Hu (cut-equivalent) trees and artifacts built on top of them.

Included here: the classical construction by Gusfield's contraction-free
method (every cut it takes is a minimum cut of the input graph itself, so
every induced tree cut is a real minimum cut in the input), path-minimum
queries, the friendly minimum-cut sparsifier obtained by contracting
unfriendly-only tree components, capacitated auxiliary graphs of a
partition tree and their sparsified variant, and an accelerated
single-source routine that merges a Gomory-Hu tree of a friendly cut
sparsifier with the unfriendly-exact single-source routine. There is no
accelerated tree: Gusfield's n - 1 steps would each pay for a whole
single-source call, itself n - 1 exact max-flows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

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
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per node, its (neighbour, weight) pairs in edge order; built once."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return tuple(tuple(a) for a in adj)

    def components(self) -> list[frozenset[int]]:
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 3)
        labels = component_labels(self.n, e[:, 0], e[:, 1])[1]
        return [frozenset(c) for c in ContractionMap.from_labels(labels).classes()]


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


def _tree_components_without(k: int, edges, removed: int) -> list[list[int]]:
    """Connected components of the super-node tree after deleting one node."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    keep = (e[:, 0] != removed) & (e[:, 1] != removed)
    cmap = ContractionMap.from_labels(component_labels(k, e[keep, 0], e[keep, 1])[1])
    comps = cmap.classes()
    del comps[cmap.super_of[removed]]
    return comps


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
    adj = t.adjacency
    prev: dict[int, tuple[int, int]] = {s: (-1, 0)}
    queue = deque([s])
    while queue and t2 not in prev:
        x = queue.popleft()
        for y, w in adj[x]:
            if y not in prev:
                prev[y] = (x, w)
                queue.append(y)
    if t2 not in prev:  # the search exhausted s's component
        return 0, Cut(side=frozenset(prev), value=0)
    path = []
    x = t2
    while x != s:
        px, w = prev[x]
        path.append((px, x, w))
        x = px
    path.reverse()
    best_idx = 0
    for idx, (_, _, w) in enumerate(path):
        if w < path[best_idx][2]:
            best_idx = idx
    bu, bv, bw = path[best_idx]
    # side of s after removing the bottleneck edge: bv lies only across it
    side = {s}
    queue = deque([s])
    while queue:
        x = queue.popleft()
        for y, _ in adj[x]:
            if y not in side and y != bv:
                side.add(y)
                queue.append(y)
    return bw, Cut(side=frozenset(side), value=bw)


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
    """For each tree edge, the boolean side mask of the subtree below it,
    from one rooted DFS per component (entry/exit interval containment);
    the masks are yielded one at a time."""
    adj = t.adjacency
    tin = np.zeros(t.n, dtype=np.int64)
    tout = np.zeros(t.n, dtype=np.int64)
    parent = np.full(t.n, -1, dtype=np.int64)
    order = np.zeros(t.n, dtype=np.int64)
    clock = 0
    seen = [False] * t.n
    for r in range(t.n):
        if seen[r]:
            continue
        stack = [(r, iter(adj[r]))]
        seen[r] = True
        tin[r] = clock
        order[clock] = r
        clock += 1
        while stack:
            x, it = stack[-1]
            advanced = False
            for y, _ in it:
                if not seen[y]:
                    seen[y] = True
                    parent[y] = x
                    tin[y] = clock
                    order[clock] = y
                    clock += 1
                    stack.append((y, iter(adj[y])))
                    advanced = True
                    break
            if not advanced:
                tout[x] = clock
                stack.pop()
    for u, v, w in t.edges:
        child = v if parent[v] == u else u
        assert parent[child] in (u, v)
        mask = np.zeros(t.n, dtype=bool)
        mask[order[tin[child]:tout[child]]] = True
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
    comps = _tree_components_without(pt.k, pt.edges, i)
    # group h's super-nodes: all super-nodes touching one tree component merge
    classes = []
    for comp in comps:
        members = {int(h.map.super_of[v]) for j in comp for v in pt.classes[j]}
        classes.append(members)
    cmap = ContractionMap.from_classes(h.graph.n, classes)
    return contract(h.graph, cmap)


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
    all_nodes = frozenset(range(g.n))
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
        if p in side:
            side = all_nodes - side
        table.update(v, value, Cut(side=side, value=value))
    return table


def serialize_ghtree(t: GHTree) -> str:
    lines = [f"{t.n} {t.component_count}"]
    for u, v, w in t.edges:
        lines.append(f"{u} {v} {w}")
    return "\n".join(lines) + "\n"


def parse_ghtree(text: str) -> GHTree:
    lines = text.splitlines()
    header = None
    edges = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise GraphParseError("expected header 'n components'", lineno)
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise GraphParseError("header fields must be integers", lineno)
            continue
        if len(parts) != 3:
            raise GraphParseError("expected 'u v weight'", lineno)
        try:
            u, v, w = (int(x) for x in parts)
        except ValueError:
            raise GraphParseError("edge fields must be integers", lineno)
        if u == v or not (0 <= u < header[0] and 0 <= v < header[0]):
            raise GraphParseError(f"bad tree edge endpoints in {line!r}", lineno)
        edges.append((u, v, w))
    if header is None:
        raise GraphParseError("missing header", len(lines) + 1)
    n, c = header
    if len(edges) != n - c:
        raise GraphParseError(
            f"expected {n - c} edges for {n} nodes in {c} components, got {len(edges)}",
            len(lines) + 1)
    t = GHTree(n=n, edges=tuple(edges))
    if len(t.components()) != c:
        raise GraphParseError("edge list does not form the declared components",
                              len(lines) + 1)
    return t
