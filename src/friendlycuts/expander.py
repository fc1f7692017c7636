"""Conductance and practical expander decomposition with certification.

The decomposer splits recursively: it looks for a low-conductance internal
cut of a cluster (exhaustively for small clusters, by spectral sweep plus
local search otherwise) and recurses on both sides until no cut below phi is
found. Cluster quality is certified exactly whenever the cluster is small
enough to enumerate.

Volumes follow the boundary self-loop convention: when certifying a cluster,
each node's demand is augmented by the weight of its edges leaving the
cluster, so cluster nodes keep their full-graph degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .graph import Graph, degrees

__all__ = [
    "K_EXACT_DEFAULT",
    "INFINITE_CONDUCTANCE",
    "Decomposition",
    "CertificateResult",
    "conductance",
    "demand_conductance",
    "decompose",
    "certify_cluster",
]

K_EXACT_DEFAULT = 15

# Sentinel for zero-denominator conductance.
INFINITE_CONDUCTANCE = math.inf

DemandVector = Sequence  # per-node non-negative rationals (int or Fraction)


@dataclass(frozen=True)
class Decomposition:
    clusters: list[frozenset[int]]
    phi: Fraction
    outer_edges: int
    certified: list[bool]  # per cluster: a single node, or enumerated exactly


@dataclass(frozen=True)
class CertificateResult:
    ok: bool
    witness: frozenset[int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def _proper_mask(g: Graph, s: Iterable[int]) -> np.ndarray:
    mask = np.zeros(g.n, dtype=bool)
    for v in s:
        v = int(v)
        if not 0 <= v < g.n:
            raise ValueError(f"node {v} out of range")
        mask[v] = True
    k = int(mask.sum())
    if k == 0 or k == g.n:
        raise ValueError("cut side must be a proper non-empty subset")
    return mask


def conductance(g: Graph, s: Iterable[int]):
    """delta(S) / min(vol(S), vol(V-S)) as an exact Fraction (inf on zero volume)."""
    return demand_conductance(g, degrees(g) + g.extra_volume, s)


def demand_conductance(g: Graph, d: DemandVector, s: Iterable[int]):
    """Conductance with a node demand vector in place of volumes."""
    if g.n == 1:
        return Fraction(1)  # singleton-graph convention
    mask = _proper_mask(g, s)
    if len(d) != g.n:
        raise ValueError("demand vector must have one entry per node")
    num = 0
    if g.edges.size:
        crossing = mask[g.edges[:, 0]] != mask[g.edges[:, 1]]
        num = int(g.edges[crossing, 2].sum())
    d_in = sum(Fraction(d[v]) for v in np.flatnonzero(mask))
    d_out = sum(Fraction(d[v]) for v in np.flatnonzero(~mask))
    den = min(d_in, d_out)
    if den == 0:
        return INFINITE_CONDUCTANCE
    return Fraction(num, den)


def _integerize_demands(g: Graph, d: DemandVector | None) -> tuple[np.ndarray, int]:
    """Scaled integer base demands: d(v) if given, else deg(v) + extra_volume(v).

    Returns (scaled base demands, scale); boundary augmentation is applied per
    cluster later, with boundary weights multiplied by the same scale.
    """
    if d is None:
        base = degrees(g) + g.extra_volume
        return base.astype(np.int64), 1
    if len(d) != g.n:
        raise ValueError("demand vector must have one entry per node")
    fracs = [Fraction(x) for x in d]
    if any(f < 0 for f in fracs):
        raise ValueError("demands must be non-negative")
    scale = 1
    for f in fracs:
        scale = scale * f.denominator // math.gcd(scale, f.denominator)
    vals = np.array([int(f * scale) for f in fracs], dtype=np.int64)
    return vals, scale


class _ClusterSplitter:
    """Shared state for the recursive decomposition of one graph."""

    def __init__(self, g: Graph, phi: Fraction, base_dem: np.ndarray, scale: int,
                 k_exact: int, seed: int):
        self.g = g
        self.phi = phi
        self.base_dem = base_dem
        self.scale = scale
        self.k_exact = k_exact
        self.seed = seed
        self.edges = g.edges

    def _induced(self, nodes: np.ndarray):
        """Local edge array (positions into nodes) and per-node boundary weight."""
        pos = -np.ones(self.g.n, dtype=np.int64)
        pos[nodes] = np.arange(len(nodes))
        if not self.edges.size:
            return np.zeros((0, 3), dtype=np.int64), np.zeros(len(nodes), dtype=np.int64)
        pu = pos[self.edges[:, 0]]
        pv = pos[self.edges[:, 1]]
        both = (pu >= 0) & (pv >= 0)
        one_u = (pu >= 0) & (pv < 0)
        one_v = (pv >= 0) & (pu < 0)
        local = np.column_stack([pu[both], pv[both], self.edges[both, 2]])
        boundary = np.zeros(len(nodes), dtype=np.int64)
        np.add.at(boundary, pu[one_u], self.edges[one_u, 2])
        np.add.at(boundary, pv[one_v], self.edges[one_v, 2])
        return local, boundary

    def _below_phi(self, delta: int, den: int) -> bool:
        # conductance delta/den < phi, exact; den is in scaled demand units
        if den == 0:
            return False
        return delta * self.scale * self.phi.denominator < self.phi.numerator * den

    @staticmethod
    def _ratio_less(a: tuple[int, int], b: tuple[int, int]) -> bool:
        # a, b are (delta, den); den == 0 means +inf
        if b[1] == 0:
            return a[1] != 0
        if a[1] == 0:
            return False
        return a[0] * b[1] < b[0] * a[1]

    def _components(self, size: int, local_edges: np.ndarray) -> np.ndarray:
        labels = np.arange(size)
        if local_edges.size:
            parent = list(range(size))

            def find(a):
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                return a

            for a, b, _ in local_edges:
                ra, rb = find(int(a)), find(int(b))
                if ra != rb:
                    parent[rb] = ra
            labels = np.array([find(v) for v in range(size)])
        return labels

    def _exact_candidate(self, size: int, local_edges: np.ndarray, eff: np.ndarray):
        """Exact minimum-conductance internal cut by enumeration."""
        total = (1 << (size - 1)) - 1
        idx = np.arange(total, dtype=np.int64)
        bits = ((idx[:, None] >> np.arange(size - 1, dtype=np.int64)) & 1).astype(bool)
        members = np.concatenate([np.ones((total, 1), dtype=bool), bits], axis=1)
        if local_edges.size:
            crossing = members[:, local_edges[:, 0]] != members[:, local_edges[:, 1]]
            deltas = crossing @ local_edges[:, 2]
        else:
            deltas = np.zeros(total, dtype=np.int64)
        d_in = members @ eff
        dens = np.minimum(d_in, int(eff.sum()) - d_in)
        with np.errstate(divide="ignore"):
            ratios = np.where(dens > 0, deltas / np.maximum(dens, 1), np.inf)
        best_f = ratios.min()
        close = np.flatnonzero(ratios <= best_f * (1 + 1e-9) + 1e-18)
        best = None
        for i in close:
            cand = (int(deltas[i]), int(dens[i]))
            if best is None or self._ratio_less(cand, best[1]):
                best = (int(i), cand)
        side = members[best[0]]
        return side, best[1]

    def _sweep_candidate(self, order: np.ndarray, local_edges: np.ndarray, eff: np.ndarray):
        """Best prefix cut of an ordering; returns (side, (delta, den)) or None."""
        size = len(order)
        pos = np.empty(size, dtype=np.int64)
        pos[order] = np.arange(size)
        diff = np.zeros(size + 1, dtype=np.int64)
        if local_edges.size:
            lo = np.minimum(pos[local_edges[:, 0]], pos[local_edges[:, 1]])
            hi = np.maximum(pos[local_edges[:, 0]], pos[local_edges[:, 1]])
            np.add.at(diff, lo + 1, local_edges[:, 2])
            np.add.at(diff, hi + 1, -local_edges[:, 2])
        deltas = np.cumsum(diff)[1:size]  # delta of prefix of length k, k=1..size-1
        pref = np.cumsum(eff[order])[: size - 1]
        dens = np.minimum(pref, int(eff.sum()) - pref)
        with np.errstate(divide="ignore"):
            ratios = np.where(dens > 0, deltas / np.maximum(dens, 1), np.inf)
        k = int(np.argmin(ratios))
        side = np.zeros(size, dtype=bool)
        side[order[: k + 1]] = True
        return side, (int(deltas[k]), int(dens[k]))

    def _fiedler_order(self, size: int, local_edges: np.ndarray, rng) -> np.ndarray:
        from scipy.sparse import coo_matrix

        if not local_edges.size:
            return np.arange(size)
        rows = np.concatenate([local_edges[:, 0], local_edges[:, 1]])
        cols = np.concatenate([local_edges[:, 1], local_edges[:, 0]])
        vals = np.concatenate([local_edges[:, 2], local_edges[:, 2]]).astype(np.float64)
        adj = coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
        deg = np.asarray(adj.sum(axis=1)).ravel()
        deg[deg == 0] = 1.0
        dinv = 1.0 / np.sqrt(deg)
        top = np.sqrt(deg)
        top /= np.linalg.norm(top)
        x = rng.standard_normal(size)
        x -= top * (top @ x)
        for _ in range(80):
            # (M + I)/2 with M the normalized adjacency keeps the spectrum in [0, 1]
            y = dinv * (adj @ (dinv * x))
            x = 0.5 * (y + x)
            x -= top * (top @ x)
            norm = np.linalg.norm(x)
            if norm < 1e-12:
                x = rng.standard_normal(size)
                x -= top * (top @ x)
                continue
            x /= norm
        return np.argsort(x, kind="stable")

    def _improve(self, side: np.ndarray, score: tuple[int, int],
                 local_edges: np.ndarray, eff: np.ndarray, passes: int = 2):
        """Greedy single-node moves that lower conductance."""
        size = len(side)
        total = int(eff.sum())
        for _ in range(passes):
            improved = False
            deg_sub = np.zeros(size, dtype=np.int64)
            cross = np.zeros(size, dtype=np.int64)
            if local_edges.size:
                np.add.at(deg_sub, local_edges[:, 0], local_edges[:, 2])
                np.add.at(deg_sub, local_edges[:, 1], local_edges[:, 2])
                cr = side[local_edges[:, 0]] != side[local_edges[:, 1]]
                np.add.at(cross, local_edges[cr, 0], local_edges[cr, 2])
                np.add.at(cross, local_edges[cr, 1], local_edges[cr, 2])
            delta, _ = score
            d_in = int(eff[side].sum())
            for v in np.flatnonzero(cross > 0):
                v = int(v)
                n_in = int(side.sum())
                if (side[v] and n_in == 1) or (not side[v] and size - n_in == 1):
                    continue
                new_delta = delta + int(deg_sub[v]) - 2 * int(cross[v])
                new_in = d_in + (-int(eff[v]) if side[v] else int(eff[v]))
                new_den = min(new_in, total - new_in)
                cand = (new_delta, new_den)
                if self._ratio_less(cand, score):
                    side = side.copy()
                    side[v] = not side[v]
                    score = cand
                    delta = new_delta
                    d_in = new_in
                    improved = True
                    break
            if not improved:
                break
        return side, score

    def _sampled_candidate(self, size: int, local_edges: np.ndarray, eff: np.ndarray,
                           rng):
        """Best cut found by spectral sweep, singleton scan, and local search."""
        candidates = []
        order = self._fiedler_order(size, local_edges, rng)
        candidates.append(self._sweep_candidate(order, local_edges, eff))
        candidates.append(self._sweep_candidate(order[::-1], local_edges, eff))
        # singleton cuts
        deg_sub = np.zeros(size, dtype=np.int64)
        if local_edges.size:
            np.add.at(deg_sub, local_edges[:, 0], local_edges[:, 2])
            np.add.at(deg_sub, local_edges[:, 1], local_edges[:, 2])
        total = int(eff.sum())
        dens = np.minimum(eff, total - eff)
        with np.errstate(divide="ignore"):
            ratios = np.where(dens > 0, deg_sub / np.maximum(dens, 1), np.inf)
        v = int(np.argmin(ratios))
        single = np.zeros(size, dtype=bool)
        single[v] = True
        candidates.append((single, (int(deg_sub[v]), int(dens[v]))))
        # a couple of random sweep orders for robustness
        for _ in range(2):
            candidates.append(
                self._sweep_candidate(rng.permutation(size), local_edges, eff)
            )
        best = min(candidates, key=lambda c: (c[1][0] / c[1][1]) if c[1][1] else math.inf)
        for cand in candidates:
            if self._ratio_less(cand[1], best[1]):
                best = cand
        side, score = best
        return self._improve(side, score, local_edges, eff)

    def _cluster_rng(self, nodes: np.ndarray):
        digest = hash((self.seed, len(nodes), int(nodes.min()), int(nodes.max()),
                       int(nodes.sum())))
        return np.random.default_rng(digest & 0xFFFFFFFF)

    def parts(self, nodes: np.ndarray, exact: bool) -> list[np.ndarray]:
        """The per-cluster search. Returns masks over ``nodes``: one per
        connected component if the cluster is disconnected, else the two
        sides of the best internal cut found (by enumeration if ``exact``,
        else by the sampled search) when its conductance is below phi, else
        none."""
        size = len(nodes)
        local_edges, boundary = self._induced(nodes)
        comp = self._components(size, local_edges)
        labels = np.unique(comp)
        if len(labels) > 1:
            return [comp == label for label in labels]
        eff = self.base_dem[nodes] + boundary * self.scale
        if exact:
            side, score = self._exact_candidate(size, local_edges, eff)
        else:
            side, score = self._sampled_candidate(size, local_edges, eff,
                                                  self._cluster_rng(nodes))
        return [side, ~side] if self._below_phi(*score) else []

    def split(self, nodes: np.ndarray) -> list[tuple[np.ndarray, bool]]:
        """Recursively partition; returns (cluster nodes, certified) leaves."""
        if len(nodes) == 1:
            return [(nodes, True)]
        exact = len(nodes) <= self.k_exact
        parts = self.parts(nodes, exact)
        if not parts:
            return [(nodes, exact)]  # a sweep that found no cut certifies nothing
        return [leaf for part in parts for leaf in self.split(nodes[part])]


def decompose(g: Graph, phi, d: DemandVector | None = None, *,
              seed: int = 0, k_exact: int = K_EXACT_DEFAULT) -> Decomposition:
    """Partition V into clusters with no internal cut of conductance < phi.

    Clusters of at most ``k_exact`` nodes are certified exactly by enumeration;
    larger ones only pass the randomized sweep search, which proves nothing,
    so their ``certified`` entry is False. Demands, when given, are
    boundary-augmented per cluster; otherwise volumes (with the boundary
    self-loop convention) are used.
    """
    phi = Fraction(phi)
    if not 0 < phi <= 1:
        raise ValueError("phi must be in (0, 1]")
    if g.n == 0:
        return Decomposition(clusters=[], phi=phi, outer_edges=0, certified=[])
    base_dem, scale = _integerize_demands(g, d)
    splitter = _ClusterSplitter(g, phi, base_dem, scale, k_exact, seed)
    leaves = splitter.split(np.arange(g.n))
    clusters = [frozenset(int(v) for v in nodes) for nodes, _ in leaves]
    certified = [bool(c) for _, c in leaves]
    label = np.zeros(g.n, dtype=np.int64)
    for i, (nodes, _) in enumerate(leaves):
        label[nodes] = i
    outer = 0
    if g.edges.size:
        crossing = label[g.edges[:, 0]] != label[g.edges[:, 1]]
        outer = int(g.edges[crossing, 2].sum())
    return Decomposition(clusters=clusters, phi=phi, outer_edges=outer,
                         certified=certified)


def certify_cluster(g: Graph, cluster: Iterable[int], phi, d: DemandVector | None = None,
                    mode: str = "exact", *, seed: int = 0,
                    k_exact: int = K_EXACT_DEFAULT) -> CertificateResult:
    """Check that no internal cut of the cluster has conductance below phi.

    Exact mode enumerates all internal cuts (cluster must have at most
    ``k_exact`` nodes); sampled mode runs the randomized sweep search and
    reports False only with a concrete witness cut.
    """
    phi = Fraction(phi)
    if not 0 < phi <= 1:
        raise ValueError("phi must be in (0, 1]")
    nodes = np.array(sorted(int(v) for v in cluster), dtype=np.int64)
    if len(nodes) == 0:
        raise ValueError("cluster must be non-empty")
    if len(nodes) == 1:
        return CertificateResult(ok=True)
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" and len(nodes) > k_exact:
        raise ValueError(f"exact certification limited to {k_exact} nodes")
    base_dem, scale = _integerize_demands(g, d)
    splitter = _ClusterSplitter(g, phi, base_dem, scale, k_exact, seed)
    parts = splitter.parts(nodes, mode == "exact")
    if parts:
        return CertificateResult(ok=False, witness=frozenset(int(v) for v in nodes[parts[0]]))
    return CertificateResult(ok=True)
