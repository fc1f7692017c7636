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

``min_cuts_between_sets`` answers independent set-to-set minimum cuts
(a_i, b_i) together: one ``max_flow`` on a disjoint union of copies of g,
one copy per pair and at most ceil(log2 n) copies per flow, so that the
engine's fixed cost per call is paid once per union rather than once per
pair. In copy i the nodes of a_i merge into a shared source S and those of
b_i into a shared sink T; every other node is its own. The copies share
only S and T, and T is never reachable from S in the final residual graph,
so the union's minimal source side restricted to copy i is pair i's minimal
side. Every capacity of the union is a merged capacity of one pair's own
contracted graph, except the a_i-b_i edges, which join S to T, cross every
cut, and are left out; each value is read back as its side's boundary
weight in g. So the int32 guard holds exactly where one flow per pair
would: the a_i-b_i weights are checked on their own. The union's arcs come
from g's valid edges, so it is built by ``Graph._trusted``, which merges
parallel arcs without re-checking them. ``min_cut_between_sets``
is the one-pair case, and makes exactly one ``max_flow`` call.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.csgraph import maximum_flow as _scipy_maximum_flow

from .graph import MAX_CAPACITY, Cut, Graph, check_capacities, check_capacity, crossing_rows

__all__ = [
    "max_flow",
    "min_cut_between_sets",
    "min_cuts_between_sets",
    "pairs_per_flow",
    "MAX_CAPACITY",
]


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


def _pair_labels(g: Graph, a: Iterable[int], b: Iterable[int]) -> np.ndarray:
    """0 on the nodes of a, 1 on those of b, -1 elsewhere."""
    a, b = _node_array(a), _node_array(b)
    if not a.size or not b.size:
        raise ValueError("both sides must be non-empty")
    both = np.concatenate([a, b])
    if both.min() < 0 or both.max() >= g.n:
        raise ValueError(f"node {both[(both < 0) | (both >= g.n)][0]} out of range")
    labels = np.full(g.n, -1, dtype=np.int64)
    labels[a] = 0
    labels[b] = 1
    if labels[a].any():
        raise ValueError("sides must be disjoint")
    return labels


def _union_flow(g: Graph, labels: np.ndarray) -> tuple[np.ndarray, int, int]:
    """One max-flow on the union of the copies of g that the rows of
    ``labels`` describe. Returns each copy's minimal side over g, the flow
    value and the total a-b weight left out of the union."""
    # S = 0 and T = 1 are shared; the free nodes of every copy get 2, 3, ...
    free = labels < 0
    ids = np.where(free, 1 + np.cumsum(free).reshape(free.shape), labels)
    tails, heads = ids[:, g.edges[:, 0]], ids[:, g.edges[:, 1]]
    weights = np.broadcast_to(g.edges[:, 2], tails.shape)
    cross = tails != heads
    s_to_t = cross & (tails < 2) & (heads < 2)
    st_weights = np.where(s_to_t, weights, 0).sum(axis=1)
    check_capacity(int(st_weights.max()))
    keep = cross & ~s_to_t
    h = Graph._trusted(2 + int(free.sum()),
                       np.column_stack([tails[keep], heads[keep], weights[keep]]))
    flow, cut = max_flow(h, 0, 1)
    in_side = np.zeros(h.n, dtype=bool)
    in_side[list(cut.side)] = True
    return in_side[ids], flow, int(st_weights.sum())


def pairs_per_flow(n: int) -> int:
    """How many pairs ``min_cuts_between_sets`` answers per max-flow on a
    graph of n nodes: ceil(log2 n), and at least 1."""
    return max(1, (n - 1).bit_length())


def min_cuts_between_sets(g: Graph, pairs: Sequence[tuple[Iterable[int], Iterable[int]]],
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Independent minimum cuts separating a_i from b_i, for every pair
    (a_i, b_i) in ``pairs``, with one ``max_flow`` per at most ceil(log2 n)
    pairs.

    Returns the int64 cut values and a bool array with one row per pair,
    the inclusion-minimal side containing a_i as a mask over g's nodes.
    Raises UnsupportedInput where one pair's contracted graph would have a
    capacity above ``MAX_CAPACITY``.
    """
    per_flow = pairs_per_flow(g.n)
    values = np.zeros(len(pairs), dtype=np.int64)
    sides = np.zeros((len(pairs), g.n), dtype=bool)
    for start in range(0, len(pairs), per_flow):
        labels = np.stack([_pair_labels(g, a, b) for a, b in pairs[start:start + per_flow]])
        group, flow, st_weight = _union_flow(g, labels)
        group_values = g.edges[:, 2] @ crossing_rows(g.edges, group.T)
        # an S-T path stays in one copy, so the flow is the sum of the copies' own
        if int(group_values.sum()) != flow + st_weight:
            raise RuntimeError("minimum cut values do not sum to the union's flow value")
        values[start:start + len(group)] = group_values
        sides[start:start + len(group)] = group
    return values, sides


def min_cut_between_sets(g: Graph, a: Iterable[int], b: Iterable[int]) -> tuple[int, Cut]:
    """Minimum cut separating node set a from node set b; side contains a, minimal."""
    values, sides = min_cuts_between_sets(g, [(a, b)])
    value = int(values[0])
    return value, Cut(side=frozenset(np.flatnonzero(sides[0]).tolist()), value=value)
