"""Exact max-flow / min-cut with minimal source-side extraction.

The flow engine is scipy's blocking-flow (Dinitz) implementation, which
computes in int32: every capacity, after parallel edges are merged, must be
at most 2**31 - 1, and a flow call on a graph with a larger one raises
``UnsupportedInput`` (a ``ValueError``). The engine reads the graph's
capacity matrix, ``Graph.capacity_matrix``, which is built once per
``Graph`` and shared by every flow on it (Gusfield's n - 1 flows run on one
graph).

The cut side is the set of nodes reachable from the source over the arcs
with positive residual capacity, which is the unique inclusion-minimal
source side of a minimum cut. When the flow saturates every arc leaving the
source, that set is {s} and is read off the source's row without a search;
otherwise a scipy csgraph breadth-first search on the residual graph finds
it.

A graph with two nodes has one cut, so ``max_flow`` answers it directly,
without the engine or the matrix: the value is the one merged edge's weight
(0 without an edge) and the side is {s}. It is still one ``max_flow`` call,
under the same capacity guard.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.csgraph import maximum_flow as _scipy_maximum_flow

from .graph import MAX_CAPACITY, ContractionMap, Cut, Graph, check_capacities, contract

__all__ = ["max_flow", "min_cut_between_sets", "MAX_CAPACITY"]


def _residual_reachable(cap: csr_matrix, flow, s: int) -> np.ndarray:
    """Nodes reachable from s over arcs with positive residual capacity."""
    if not (np.array_equal(flow.indptr, cap.indptr) and np.array_equal(flow.indices, cap.indices)):
        raise RuntimeError("scipy returned the flow on a different sparsity structure")
    n = cap.shape[0]
    seen = np.zeros(n, dtype=bool)
    row = slice(cap.indptr[s], cap.indptr[s + 1])
    if not (cap.data[row] > flow.data[row]).any():
        # every arc out of s is saturated: nothing else is reachable
        seen[s] = True
        return seen
    open_arc = cap.data > flow.data
    # open arcs before each entry; read at the row starts, this is the
    # residual graph's indptr, empty rows included
    before = np.zeros(open_arc.size + 1, dtype=np.int32)
    np.cumsum(open_arc, out=before[1:])
    residual = csr_matrix((np.ones(before[-1]), cap.indices[open_arc], before[cap.indptr]),
                          shape=(n, n))
    seen[breadth_first_order(residual, s, directed=True, return_predecessors=False)] = True
    return seen


def max_flow(g: Graph, s: int, t: int) -> tuple[int, Cut]:
    """Max s,t-flow value and the inclusion-minimal source side of a min cut.

    Raises UnsupportedInput when an edge capacity exceeds ``MAX_CAPACITY``.
    """
    if s == t:
        raise ValueError("source and sink must differ")
    for v in (s, t):
        if not 0 <= v < g.n:
            raise ValueError(f"node {v} out of range")
    if g.n == 2:
        # the only cut is {s} against {t}, crossed by the one merged edge
        check_capacities(g)
        return g.total_weight, Cut(side=frozenset({int(s)}), value=g.total_weight)
    cap = g.capacity_matrix
    result = _scipy_maximum_flow(cap, s, t)
    seen = _residual_reachable(cap, result.flow, s)
    side = frozenset(np.flatnonzero(seen).tolist())
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
