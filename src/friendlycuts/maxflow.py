"""Exact max-flow / min-cut with minimal source-side extraction.

The flow engine is scipy's blocking-flow (Dinitz) implementation; the cut
side is recovered by residual reachability from the source, which yields the
unique inclusion-minimal source side of a minimum cut.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow as _scipy_maximum_flow

from .graph import ContractionMap, Cut, Graph, contract

__all__ = ["max_flow", "min_cut_between_sets"]


def _capacity_matrix(g: Graph) -> csr_matrix:
    if g.edges.size:
        u, v, w = g.edges[:, 0], g.edges[:, 1], g.edges[:, 2]
        rows = np.concatenate([u, v])
        cols = np.concatenate([v, u])
        data = np.concatenate([w, w])
    else:
        rows = cols = data = np.zeros(0, dtype=np.int64)
    return csr_matrix((data, (rows, cols)), shape=(g.n, g.n), dtype=np.int64)


def _residual_reachable(cap: csr_matrix, flow: csr_matrix, s: int) -> np.ndarray:
    residual = cap - flow
    residual.eliminate_zeros()
    n = cap.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[s] = True
    queue = deque([s])
    indptr, indices, data = residual.indptr, residual.indices, residual.data
    while queue:
        x = queue.popleft()
        for k in range(indptr[x], indptr[x + 1]):
            if data[k] > 0 and not seen[indices[k]]:
                seen[indices[k]] = True
                queue.append(indices[k])
    return seen


def max_flow(g: Graph, s: int, t: int) -> tuple[int, Cut]:
    """Max s,t-flow value and the inclusion-minimal source side of a min cut."""
    if s == t:
        raise ValueError("source and sink must differ")
    for v in (s, t):
        if not 0 <= v < g.n:
            raise ValueError(f"node {v} out of range")
    cap = _capacity_matrix(g)
    result = _scipy_maximum_flow(cap, s, t)
    seen = _residual_reachable(cap, result.flow, s)
    side = frozenset(int(v) for v in np.flatnonzero(seen))
    return int(result.flow_value), Cut(side=side, value=int(result.flow_value))


def _node_array(nodes: Iterable[int]) -> np.ndarray:
    # arrays pass through: iterating one element by element costs more than the
    # rest of the set-up on the isolating-cuts path
    return np.asarray(nodes if isinstance(nodes, np.ndarray) else list(nodes), dtype=np.int64)


def min_cut_between_sets(g: Graph, a: Iterable[int], b: Iterable[int]) -> tuple[int, Cut]:
    """Minimum cut separating node set a from node set b; side contains a, minimal."""
    a, b = _node_array(a), _node_array(b)
    if not a.size or not b.size:
        raise ValueError("both sides must be non-empty")
    both = np.concatenate([a, b])
    if both.min() < 0 or both.max() >= g.n:
        raise ValueError(f"node {both[(both < 0) | (both >= g.n)][0]} out of range")
    # a and b each collapse to one node; every other node stays itself
    labels = np.arange(g.n, dtype=np.int64)
    labels[a] = g.n
    labels[b] = g.n + 1
    if (labels[a] != g.n).any():
        raise ValueError("sides must be disjoint")
    cmap = ContractionMap.from_labels(labels)
    value, cut = max_flow(contract(g, cmap), int(cmap.super_of[a[0]]), int(cmap.super_of[b[0]]))
    in_side = np.zeros(cmap.n_super, dtype=bool)
    in_side[list(cut.side)] = True
    side = frozenset(np.flatnonzero(in_side[cmap.super_of]).tolist())
    return value, Cut(side=side, value=value)
