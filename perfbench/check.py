"""Independent output checkers for the benchmark workloads.

Nothing here calls friendlycuts: cut values, tree paths, friendliness and
quotient graphs are recomputed with numpy, components with scipy's csgraph,
and minimum cuts with networkx. Each checker returns a list of failure
messages (empty when the output passes) and ``DESCRIPTION`` says exactly
what is and is not checked.
"""

from __future__ import annotations

from collections import deque

import networkx as nx
import numpy as np
from networkx.algorithms.flow import build_residual_network, edmonds_karp
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

# Friendliness threshold: a cut is unfriendly when some node sends strictly
# more than 3/5 of its weighted degree across it.
CROSS_NUM, CROSS_DEN = 3, 5

GH_PAIRS = 8
SSU_SAMPLES = 12
MAX_CLASSES = 30

DESCRIPTION = {
    "gh-gnp": [
        "checked: tree has n minus (components of g) edges, positive integer weights, "
        "no duplicate or self edges, no cycle, and the same components as g",
        "checked: every tree edge's induced cut has the edge's weight in g",
        f"checked: for {GH_PAIRS} seeded pairs, the tree path minimum equals the networkx "
        "minimum_cut value",
        "checked: every gh_query answer: value equals the tree path minimum, side contains "
        "s, excludes t, and has that value in g",
        "not checked: tree path minima against networkx beyond the sampled pairs; "
        "minimality of the induced cuts beyond them",
    ],
    "ssu-wgnp": [
        "checked: every witness contains v, excludes the pivot, and has cut value equal "
        "to its estimate in g",
        f"checked: for {SSU_SAMPLES} seeded v, estimate >= lambda(p,v) from networkx",
        "checked: for those v, estimate == lambda(p,v) when the minimal or the maximal "
        "minimum v-side cut from networkx is unfriendly",
        "checked: every is_friendly query answer, recomputed from degrees and crossing weights",
        "not checked: lower bounds or exactness for unsampled v; friendly minimum cuts "
        "other than the minimal and maximal ones",
    ],
    "sparsify-coc": [
        "checked: the map is a partition and the contracted graph equals the quotient "
        "of g by it (edges, weights, self-loop volume)",
        "checked: every class induces a connected subgraph of g",
        f"checked: in up to {MAX_CLASSES} seeded multi-node classes, a seeded node s and "
        "the node t farthest from it inside the class, plus one seeded pair: "
        "lambda(s,t) > w, or both the minimal and maximal min s,t-cuts are unfriendly",
        "checked: every cut_value query answer on the w=4 sparsifier equals the cut of "
        "the preimage side in g",
        "not checked: other same-class pairs; preservation of all friendly cuts "
        "(the exhaustive check needs n <= 20)",
    ],
}


# -- shared helpers --------------------------------------------------------

def _edges(g) -> np.ndarray:
    return np.asarray(g.edges, dtype=np.int64).reshape(-1, 3)


def _mask(n: int, side) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[np.fromiter(side, dtype=np.int64)] = True
    return mask


def cut_weight(edges: np.ndarray, mask: np.ndarray) -> int:
    crossing = mask[edges[:, 0]] != mask[edges[:, 1]]
    return int(edges[crossing, 2].sum())


def is_unfriendly(edges: np.ndarray, deg: np.ndarray, mask: np.ndarray) -> bool:
    crossing = mask[edges[:, 0]] != mask[edges[:, 1]]
    cross = np.bincount(edges[crossing, 0], edges[crossing, 2], minlength=len(deg))
    cross += np.bincount(edges[crossing, 1], edges[crossing, 2], minlength=len(deg))
    return bool((CROSS_DEN * cross.astype(np.int64) > CROSS_NUM * deg).any())


def weighted_degrees(n: int, edges: np.ndarray) -> np.ndarray:
    deg = np.bincount(edges[:, 0], edges[:, 2], minlength=n)
    deg += np.bincount(edges[:, 1], edges[:, 2], minlength=n)
    return deg.astype(np.int64)


def component_labels(n: int, edges: np.ndarray) -> np.ndarray:
    adj = coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    return connected_components(adj, directed=False)[1]


def nx_graph(n: int, edges: np.ndarray) -> nx.Graph:
    gx = nx.Graph()
    gx.add_nodes_from(range(n))
    gx.add_weighted_edges_from(edges.tolist())
    return gx


def _same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    pairs = np.unique(np.column_stack([a, b]), axis=0)
    return len(pairs) == len(np.unique(a)) == len(np.unique(b))


# -- gh-gnp ----------------------------------------------------------------

class _RootedForest:
    """Parent pointers, parent-edge weights and depths of a weighted forest."""

    def __init__(self, n: int, tree_edges):
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for u, v, w in tree_edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        self.parent = [-1] * n
        self.up_w = [0] * n
        self.depth = [0] * n
        self.root = [-1] * n
        self.order: list[int] = []  # BFS order, roots first within a component
        for r in range(n):
            if self.root[r] >= 0:
                continue
            self.root[r] = r
            queue = deque([r])
            while queue:
                x = queue.popleft()
                self.order.append(x)
                for y, w in adj[x]:
                    if self.root[y] < 0:
                        self.root[y] = r
                        self.parent[y] = x
                        self.up_w[y] = w
                        self.depth[y] = self.depth[x] + 1
                        queue.append(y)

    def path_min(self, s: int, t: int) -> int:
        if self.root[s] != self.root[t]:
            return 0
        best = None
        while s != t:
            if self.depth[s] < self.depth[t]:
                s, t = t, s
            w = self.up_w[s]
            best = w if best is None or w < best else best
            s = self.parent[s]
        return best

    def subtree_masks(self) -> dict[int, np.ndarray]:
        """Boolean node mask of the subtree under each non-root node."""
        n = len(self.parent)
        below = {v: [v] for v in range(n)}
        for v in reversed(self.order):
            p = self.parent[v]
            if p >= 0:
                below[p].extend(below[v])
        out = {}
        for v in range(n):
            if self.parent[v] >= 0:
                mask = np.zeros(n, dtype=bool)
                mask[below[v]] = True
                out[v] = mask
        return out


def check_gh(g, tree, queries, rng) -> list[str]:
    """``queries`` holds (s, t, value, side) answers from gh_query."""
    fails: list[str] = []
    n, edges = g.n, _edges(g)
    t_edges = [tuple(int(x) for x in e) for e in tree.edges]
    labels = component_labels(n, edges)
    n_comp = int(labels.max()) + 1 if n else 0
    if tree.n != n:
        return [f"tree has {tree.n} nodes, graph has {n}"]
    if len(t_edges) != n - n_comp:
        fails.append(f"tree has {len(t_edges)} edges, expected {n - n_comp}")
    pairs = set()
    for u, v, w in t_edges:
        if not (0 <= u < n and 0 <= v < n) or u == v or w <= 0:
            fails.append(f"bad tree edge {(u, v, w)}")
            return fails
        pairs.add((min(u, v), max(u, v)))
    if len(pairs) != len(t_edges):
        fails.append("duplicate tree edge")
    t_arr = np.asarray(t_edges, dtype=np.int64).reshape(-1, 3)
    t_labels = component_labels(n, t_arr)
    if int(t_labels.max()) + 1 != n - len(t_edges):
        fails.append("tree edges contain a cycle")
    if not _same_partition(labels, t_labels):
        fails.append("tree components differ from graph components")
    if fails:
        return fails
    forest = _RootedForest(n, t_edges)
    for v, mask in forest.subtree_masks().items():
        got = cut_weight(edges, mask)
        if got != forest.up_w[v]:
            fails.append(f"tree edge ({forest.parent[v]},{v},{forest.up_w[v]}) "
                         f"induces a cut of weight {got} in g")
            break
    gx = nx_graph(n, edges)
    for _ in range(GH_PAIRS):
        s, t = (int(x) for x in rng.choice(n, size=2, replace=False))
        lam = nx.minimum_cut_value(gx, s, t, capacity="weight") if labels[s] == labels[t] else 0
        if forest.path_min(s, t) != lam:
            fails.append(f"tree value {forest.path_min(s, t)} != lambda({s},{t}) = {lam}")
    for s, t, value, side in queries:
        mask = _mask(n, side)
        if value != forest.path_min(s, t):
            fails.append(f"gh_query({s},{t}) = {value}, tree path minimum is "
                         f"{forest.path_min(s, t)}")
        elif not mask[s] or mask[t] or cut_weight(edges, mask) != value:
            fails.append(f"gh_query({s},{t}) side does not have value {value}")
        if len(fails) > 10:
            break
    return fails


# -- ssu-wgnp --------------------------------------------------------------

def check_ssu(g, p: int, table, rng) -> list[str]:
    fails: list[str] = []
    n, edges = g.n, _edges(g)
    deg = weighted_degrees(n, edges)
    est = np.asarray(table.estimates, dtype=np.int64)
    if table.pivot != p or len(est) != n:
        return [f"table is for pivot {table.pivot} on {len(est)} nodes"]
    for v in range(n):
        if v == p:
            continue
        wit = table.witnesses.get(v)
        if wit is None:
            fails.append(f"no witness for {v}")
            continue
        mask = _mask(n, wit.side)
        if not mask[v] or mask[p]:
            fails.append(f"witness of {v} must contain it and exclude the pivot")
        elif cut_weight(edges, mask) != est[v]:
            fails.append(f"witness of {v} has value {cut_weight(edges, mask)}, "
                         f"estimate is {est[v]}")
        if len(fails) > 10:
            return fails
    gx = nx_graph(n, edges)
    others = np.array([v for v in range(n) if v != p])
    for v in rng.choice(others, size=min(SSU_SAMPLES, len(others)), replace=False):
        v = int(v)
        lam, (vmax, _) = nx.minimum_cut(gx, v, p, capacity="weight")
        _, (_, vmin) = nx.minimum_cut(gx, p, v, capacity="weight")
        if est[v] < lam:
            fails.append(f"estimate {est[v]} < lambda({p},{v}) = {lam}")
            continue
        for side in (vmin, vmax):
            mask = _mask(n, side)
            if cut_weight(edges, mask) != lam:
                fails.append(f"networkx min cut for {v} has the wrong value")
            elif is_unfriendly(edges, deg, mask) and est[v] != lam:
                fails.append(f"estimate {est[v]} != lambda({p},{v}) = {lam} although "
                             "a minimum cut is unfriendly")
    return fails


def check_friendly_answers(g, answers) -> list[str]:
    """``answers`` holds (side, is_friendly answer) pairs for cuts of g."""
    n, edges = g.n, _edges(g)
    deg = weighted_degrees(n, edges)
    truth: dict[frozenset, bool] = {}
    for side, friendly in answers:
        if side not in truth:
            truth[side] = not is_unfriendly(edges, deg, _mask(n, side))
        if truth[side] != friendly:
            return [f"is_friendly answered {friendly} for a cut that is "
                    f"{'friendly' if truth[side] else 'unfriendly'}"]
    return []


# -- sparsify-coc ----------------------------------------------------------

def quotient(n_super: int, super_of: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Canonical (u < v, merged) edge array of the quotient graph."""
    su, sv = super_of[edges[:, 0]], super_of[edges[:, 1]]
    keep = su != sv
    a, b = np.minimum(su[keep], sv[keep]), np.maximum(su[keep], sv[keep])
    keys, inverse = np.unique(a * n_super + b, return_inverse=True)
    weights = np.bincount(inverse, edges[keep, 2], minlength=len(keys)).astype(np.int64)
    return np.column_stack([keys // n_super, keys % n_super, weights])


def check_sparsifier_cut_answers(g, sp, answers) -> list[str]:
    """``answers`` holds (super-node side, cut_value answer) pairs on sp.graph."""
    so = np.asarray(sp.map.super_of, dtype=np.int64)
    edges = _edges(g)
    truth: dict[tuple, int] = {}
    for side, value in answers:
        key = tuple(side)
        if key not in truth:
            truth[key] = cut_weight(edges, _mask(sp.graph.n, side)[so])
        if truth[key] != value:
            return [f"cut_value on the sparsifier answered {value}, the preimage cut in g "
                    f"has {truth[key]}"]
    return []


def _farthest_in_class(adj, members: set[int], s: int, rng) -> int:
    dist = {s: 0}
    queue = deque([s])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y in members and y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    far = max(dist.values())
    return int(rng.choice(sorted(v for v, d in dist.items() if d == far)))


def check_sparsifier(g, w: int, sp, rng) -> list[str]:
    fails: list[str] = []
    n, edges = g.n, _edges(g)
    so = np.asarray(sp.map.super_of, dtype=np.int64)
    k = int(sp.graph.n)
    if so.shape != (n,) or (so.min() if n else 0) < 0 or (so.max() if n else -1) >= k:
        return ["contraction map is not a partition of the graph's nodes"]
    sizes = np.bincount(so, minlength=k)
    if (sizes == 0).any() or not np.array_equal(sizes, np.asarray(sp.map.size_of)):
        return ["contraction map sizes are inconsistent"]
    if not np.array_equal(quotient(k, so, edges), _edges(sp.graph)):
        fails.append("contracted graph differs from the quotient of g by the map")
    xv = np.bincount(so, np.asarray(g.extra_volume), minlength=k).astype(np.int64)
    if not np.array_equal(xv, np.asarray(sp.graph.extra_volume)):
        fails.append("contracted self-loop volume differs from the quotient")
    inner = edges[so[edges[:, 0]] == so[edges[:, 1]]]
    if not _same_partition(so, component_labels(n, inner)):
        fails.append("some class is not connected in g")
    multi = [c for c in range(k) if sizes[c] > 1]
    if not multi:
        return fails
    deg = weighted_degrees(n, edges)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in inner[:, :2].tolist():
        adj[u].append(v)
        adj[v].append(u)
    gx = nx_graph(n, edges)
    residual = build_residual_network(gx, "weight")
    chosen = rng.permutation(multi)[:MAX_CLASSES]
    for c in chosen:
        members = np.flatnonzero(so == c)
        s = int(rng.choice(members))
        t = _farthest_in_class(adj, set(members.tolist()), s, rng)
        a, b = (int(x) for x in rng.choice(members, size=2, replace=False))
        for x, y in ((s, t), (a, b)):
            flow = edmonds_karp(gx, x, y, capacity="weight", residual=residual,
                                value_only=True, cutoff=w + 1).graph["flow_value"]
            if flow > w:
                continue
            lam, (xmax, _) = nx.minimum_cut(gx, x, y, capacity="weight")
            _, (_, xmin) = nx.minimum_cut(gx, y, x, capacity="weight")
            for side in (xmin, xmax):
                mask = _mask(n, side)
                if cut_weight(edges, mask) != lam or not is_unfriendly(edges, deg, mask):
                    fails.append(f"class {c}: lambda({x},{y}) = {lam} <= w = {w} and a "
                                 "minimal or maximal min cut is friendly")
                    break
    return fails
