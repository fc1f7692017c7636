"""Gomory-Hu (cut-equivalent) trees and artifacts built on top of them.

Included here: the classical construction by Gusfield's contraction-free
method (every cut it takes is a minimum cut of the input graph itself, so
every induced tree cut is a real minimum cut in the input), path-minimum
queries and tree-edge sides (both read one cached rooted preorder of the
tree, in which every subtree is a slice), the friendly minimum-cut
sparsifier obtained by contracting unfriendly-only tree components,
and capacitated auxiliary graphs of a partition tree and their sparsified
variant. Nothing here runs a Gomory-Hu tree of a friendly cut sparsifier
merged with the unfriendly-exact single-source routine: no measurement yet
shows such a tree beating Gusfield's method.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import depth_first_order

from . import oracle
from .graph import (
    MAX_NODES,
    ContractionMap,
    Cut,
    Graph,
    GraphParseError,
    Sparsifier,
    component_labels,
    content_lines,
    contract,
    cut_weight,
    edge_lines,
    edge_rows,
    int_fields,
    node_id,
    unfriendly_nodes,
)
from .maxflow import DegreeCuts, max_flow

__all__ = [
    "GHTree",
    "PartitionTree",
    "gomory_hu",
    "gh_query",
    "validate_ghtree",
    "friendly_mincut_sparsifier_from_gh",
    "verify_gh_sparsifier",
    "build_cag",
    "build_sparsified_cag",
    "cag_totals",
    "serialize_ghtree",
    "parse_ghtree",
]


class _Rooted(NamedTuple):
    """A forest rooted at each component's smallest node, whose parent is
    the virtual root n. Node x's subtree is ``order[tin[x]:tout[x]]`` in the
    preorder; ``order_list`` holds it as Python ints, so a query side is a
    list slice that allocates no int objects. ``up`` is the weight of the
    edge to the parent, ``root`` labels each node's component and
    ``members`` maps each component's root to its node set."""

    order: np.ndarray
    order_list: list[int]
    parent: list[int]
    up: list[int]
    tin: list[int]
    tout: list[int]
    root: list[int]
    members: dict[int, frozenset[int]]


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
        """Built once. Raises UnsupportedInput when an edge breaks graph's
        integer or node-id rule, and ValueError when a weight is not
        positive, a cut value no graph has, or when the edges are not a
        forest: a DFS tree would silently drop the extra edges."""
        n = self.n
        e = edge_rows(n, self.edges)
        if (e[:, 2] <= 0).any():
            raise ValueError("tree edge weights must be positive")
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
        tin_list, tout_list = tin.tolist(), (tin + size[:n]).tolist()
        members = {x: frozenset(order_list[tin_list[x]:tout_list[x]]) for x in roots.tolist()}
        return _Rooted(order, order_list, parent_list, up.tolist(), tin_list, tout_list,
                       roots[labels].tolist(), members)


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
        e = edge_rows(k, self.edges, "super-node")
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
    n - c ``max_flow`` calls, all in g.

    Every node starts hung from the first node of its connected component.
    Each other node s, in order, takes a minimum (s, t)-cut of g itself
    against its current parent t; the nodes on s's side that hang from t
    move to s, and when t's own parent lies on s's side too, s takes t's
    place in the tree. Gusfield's method needs only some minimum cut per
    step, not the minimal one.

    Most steps' cut is a degree cut. Every step shares one
    ``maxflow.DegreeCuts`` of g, and ``max_flow`` answers a step whose pair
    the certificate proves without the engine: with {s}, the engine's own
    answer, or, where it proves (t, s), with s's component minus t. Where
    minimum cuts tie, that side can differ from the engine's minimal one,
    and so can the tree from engine-only Gusfield; it is cut-equivalent
    all the same. Cost: the certificate's proving flows, bounded in
    maxflow's module docstring, plus one flow per step proven in neither
    orientation. A step whose side is {s} moves no other node, so it costs
    O(1) past its ``max_flow`` call; any other step costs O(|side|).
    """
    labels = component_labels(g.n, g.edges[:, 0], g.edges[:, 1])[1]
    parent = np.unique(labels, return_index=True)[1][labels].tolist()
    fl = [0] * g.n
    degree_cuts = DegreeCuts(g)
    for s in range(g.n):
        t = parent[s]
        if t == s:
            continue  # the root of its component
        value, cut = max_flow(g, s, t, degree_cuts=degree_cuts)
        side = cut.side
        if len(side) == 1 and s in side:
            # the side {s}: no other node moves, and s takes t's place only
            # if t hangs from s, as in the general step below
            fl[s] = value
            if parent[t] == s:
                parent[s], parent[t] = parent[t], s
                fl[s], fl[t] = fl[t], value
            continue
        if s not in side or t in side:
            raise RuntimeError("the flow's cut side must hold s and not t")
        for v in side:
            if parent[v] == t:
                parent[v] = s
        parent[s] = t
        fl[s] = value
        # a root is its own parent, so this never fires for t a root
        if parent[t] in side:
            parent[s], parent[t] = parent[t], s
            fl[s], fl[t] = fl[t], value
    edges = tuple((s, parent[s], fl[s]) for s in range(g.n) if parent[s] != s)
    return GHTree(n=g.n, edges=edges)


def gh_query(t: GHTree, s: int, t2: int) -> tuple[int, Cut]:
    """Min s,t value and the cut induced by the bottleneck tree edge.

    Ties break toward the bottleneck edge nearest s, so answers are
    deterministic. Cross-component pairs get value 0 and s's component,
    as the one node set that every such answer in that component shares.

    Cost, after the tree's rooted form is built once: an O(depth) walk up
    from s and t2, then s's side, built from whichever part of the
    component is smaller. That hashes the smaller part's nodes, plus one
    copy of the component's set when s's side is the larger part.
    """
    s, t2 = node_id(t.n, s), node_id(t.n, t2)
    if s == t2:
        raise ValueError("query endpoints must differ")
    r = t._rooted
    order, parent, up, tin, tout = r.order_list, r.parent, r.up, r.tin, r.tout
    root = r.root[s]
    if r.root[t2] != root:
        return 0, Cut(side=r.members[root], value=0)
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
    # s's side is below's subtree or the rest of the component; it is built
    # directly when it is at most half the component, else as the component
    # minus the other part
    lo, hi, first, last = tin[below], tout[below], tin[root], tout[root]
    twice_below = 2 * (hi - lo)
    if lo <= tin[s] < hi:  # the subtree
        if twice_below <= last - first:
            side = frozenset(order[lo:hi])
        else:
            side = r.members[root].difference(order[first:lo], order[hi:last])
    elif twice_below >= last - first:  # the rest, at most half
        side = frozenset(order[first:lo] + order[hi:last])
    else:
        side = r.members[root].difference(order[lo:hi])
    return up[below], Cut(side=side, value=up[below])


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
    e = edge_rows(t.n, t.edges)
    if (e[:, 2] <= 0).any():
        raise ValueError("tree edge weights must be positive")
    # with n - c edges, a self-loop or a repeated edge leaves more than c
    # components, so it fails this comparison
    if not np.array_equal(g_labels, component_labels(t.n, e[:, 0], e[:, 1])[1]):
        raise ValueError("tree components do not match graph components")
    for (u, v, w), mask in _tree_edge_sides(t):
        if cut_weight(g, mask) != w:
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
    unfriendly_classes = [(u, v) for (u, v, _), mask in _checked_edge_sides(g, t)
                          if unfriendly_nodes(g, mask).any()]
    cmap = ContractionMap.from_classes(g.n, unfriendly_classes)
    return Sparsifier(graph=contract(g, cmap), map=cmap, guarantee="gh-based")


def verify_gh_sparsifier(g: Graph, h: Sparsifier) -> tuple[int, str | None]:
    """Check the gh-based guarantee by enumeration (n <= 20): every pair
    whose minimum cuts are all friendly lies in two super-nodes of h, whose
    minimum cut in h has the pair's value in g.

    Returns the number of such pairs and the first failure described, or
    None.
    """
    if g.n > oracle.MAX_ENUM_NODES:
        raise ValueError(f"verification guard: n={g.n} exceeds {oracle.MAX_ENUM_NODES}")
    if h.map.n_original != g.n:
        raise ValueError("sparsifier does not match the graph")
    if g.n < 2:
        return 0, None
    members, values, friendly = oracle.cut_table(g)
    h_cuts = oracle.cut_table(h.graph, with_friendliness=False) if h.graph.n >= 2 else None
    sup = h.map.super_of
    pairs = 0
    for s in range(g.n):
        for t in range(s + 1, g.n):
            sep = members[:, s] != members[:, t]
            lam = int(values[sep].min())
            if not friendly[sep & (values == lam)].all():
                continue
            pairs += 1
            ss, tt = int(sup[s]), int(sup[t])
            if ss == tt:
                return pairs, f"all-friendly pair ({s},{t}) merged into super-node {ss}"
            h_sep = h_cuts[0][:, ss] != h_cuts[0][:, tt]
            h_lam = int(h_cuts[1][h_sep].min())
            if h_lam != lam:
                return pairs, (f"all-friendly pair ({s},{t}) has min cut {h_lam} in the "
                               f"sparsifier, {lam} in the graph")
    return pairs, None


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
    i = node_id(pt.k, i, "super-node")
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


def serialize_ghtree(t: GHTree) -> str:
    t._rooted  # the one tree check: refuse what gh_query refuses
    lines = [f"{t.n} {t.component_count}"]
    for u, v, w in t.edges:
        lines.append(f"{u} {v} {w}")
    return "\n".join(lines) + "\n"


def parse_ghtree(text: str) -> GHTree:
    lines, last = content_lines(text)
    if not lines:
        raise GraphParseError("missing header", last + 1)
    (hline, head), body = lines[0], lines[1:]
    n, c = int_fields(hline, head, (2,), "header 'n components'")
    if n < 0 or not 0 <= c <= n:
        raise GraphParseError("header needs n >= 0 and 0 <= components <= n", hline)
    if n > MAX_NODES:
        raise GraphParseError(f"node count {n} exceeds {MAX_NODES}", hline)
    edges = edge_lines(body, n, (3,))
    if len(edges) != n - c:
        raise GraphParseError(
            f"expected {n - c} edges for {n} nodes in {c} components, got {len(edges)}",
            last + 1)
    e = edge_rows(n, edges)
    if component_labels(n, e[:, 0], e[:, 1])[0] != c:
        raise GraphParseError("edge list does not form the declared components", last + 1)
    return GHTree(n=n, edges=tuple(edges))
