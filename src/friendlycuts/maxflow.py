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

Union flows. Independent flow problems on one graph are answered by one
``max_flow`` on their disjoint union, so that the engine's fixed cost per
call is paid once per union rather than once per problem. A union is given
as rows over g's nodes: a row holds one or more problems, and a node's entry
in ``region`` is the index of its problem in that row, or -1 for the row's
sink; ``source`` marks the nodes merged into the source. All rows share one
super-source S and one super-sink T, and every other node of a problem gets
its own id in each row, so two problems share no node but S and T:

- an edge inside one problem is kept, and an edge to a sink node becomes an
  arc to T;
- an edge between two problems of one row becomes one arc to T from each
  end, since each problem has everything outside it merged into its sink;
- the arcs that join S to T cross every cut, so they are left out of the
  union, and each row's left-out weight is returned.

T is never reachable from S in the final residual graph, so the union's
maximum flow is the sum of the problems' own, and its minimal source side
restricted to one problem is that problem's minimal side. The callers read
each value back as its side's boundary weight in g and check that the
values sum to the flow plus the left-out weight. Every capacity of a union
is a merged capacity of one problem's own graph, so the int32 guard accepts
a union exactly when it would accept one flow per problem, except that the
S-T weights never reach the engine and are not checked here. The union's
arcs come from g's valid edges, so it is built by ``Graph._trusted``, which
merges parallel arcs without re-checking them.

``min_cuts_between_sets`` answers independent set-to-set minimum cuts
(a_i, b_i) in such unions, one pair per row and at most ceil(log2 n) rows
per flow: a_i is the source and b_i the sink. Its contract is to accept
exactly what one flow per pair on g with a_i and b_i contracted accepts, so
it checks each pair's a_i-b_i weight against the int32 limit itself.
``min_cut_between_sets`` is the one-pair case, and makes exactly one
``max_flow`` call; ``isolating`` answers all its local problems in one
union.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.csgraph import maximum_flow as _scipy_maximum_flow

from .graph import (MAX_CAPACITY, Cut, Graph, check_capacities, check_capacity, crossing_rows,
                    node_id, node_ids)

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
    s, t = node_id(g.n, s), node_id(g.n, t)
    if s == t:
        raise ValueError("source and sink must differ")
    if g.n == 2:
        # the only cut is {s} against {t}, crossed by the one merged edge
        check_capacities(g)
        return g.total_weight, Cut(side=frozenset({s}), value=g.total_weight)
    cap = g.capacity_matrix
    result = _scipy_maximum_flow(cap, s, t)
    seen = _residual_reachable(cap, result.flow, s)
    side = frozenset(np.flatnonzero(seen).tolist())
    return int(result.flow_value), Cut(side=side, value=int(result.flow_value))


def _union_flow(g: Graph, region: np.ndarray, source: np.ndarray,
                ) -> tuple[np.ndarray, int, np.ndarray]:
    """One max-flow on the union of the problems that the rows of ``region``
    and ``source`` describe. Returns each row's minimal side as a mask over
    g, the flow value and each row's S-T weight left out of the union."""
    eu, ev, ew = g.edges.T
    # S = 0 and T = 1 are shared (~source is 0 on a source node, 1 on a sink
    # node); a problem's other nodes get 2, 3, ...
    own = (region >= 0) & ~source
    ids = np.where(own, 1 + np.cumsum(own, dtype=np.int32).reshape(own.shape), ~source)
    tails, heads = ids[:, eu], ids[:, ev]
    # an edge between two problems of one row (neither end on T, which is
    # region -1): its arc from u goes to T, and a second arc goes from v to T
    split = (region[:, eu] != region[:, ev]) & (tails != 1) & (heads != 1)
    second_st = split & (heads == 0)
    second = split & ~second_st
    v_tails = heads[second]
    heads[split] = 1
    st = tails + heads == 1
    keep = (tails != heads) & ~st
    weights = np.broadcast_to(ew, tails.shape)
    h = Graph._trusted(2 + int(own.sum()), np.column_stack([
        np.concatenate([tails[keep], v_tails]),
        np.concatenate([heads[keep], np.ones(v_tails.size, dtype=np.int32)]),
        np.concatenate([weights[keep], weights[second]])]))
    flow, cut = max_flow(h, 0, 1)
    in_side = np.zeros(h.n, dtype=bool)
    in_side[list(cut.side)] = True
    return in_side[ids], flow, st @ ew + second_st @ ew


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
        group = pairs[start:start + per_flow]
        region = np.zeros((len(group), g.n), dtype=np.int64)
        source = np.zeros((len(group), g.n), dtype=bool)
        for row, (a, b) in enumerate(group):
            a, b = node_ids(g.n, a), node_ids(g.n, b)
            if not a.size or not b.size:
                raise ValueError("both sides must be non-empty")
            source[row, a] = True
            if source[row, b].any():
                raise ValueError("sides must be disjoint")
            region[row, b] = -1
        in_side, flow, st_weights = _union_flow(g, region, source)
        # the a-b weight, as one contracted flow per pair would see it
        check_capacity(int(st_weights.max()))
        group_values = g.edges[:, 2] @ crossing_rows(g.edges, in_side.T)
        # an S-T path stays in one copy, so the flow is the sum of the copies' own
        if int(group_values.sum()) != flow + int(st_weights.sum()):
            raise RuntimeError("minimum cut values do not sum to the union's flow value")
        values[start:start + len(group)] = group_values
        sides[start:start + len(group)] = in_side
    return values, sides


def min_cut_between_sets(g: Graph, a: Iterable[int], b: Iterable[int]) -> tuple[int, Cut]:
    """Minimum cut separating node set a from node set b; side contains a, minimal."""
    values, sides = min_cuts_between_sets(g, [(a, b)])
    value = int(values[0])
    return value, Cut(side=frozenset(np.flatnonzero(sides[0]).tolist()), value=value)
