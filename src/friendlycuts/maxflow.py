"""Exact max-flow / min-cut with minimal source-side extraction.

The flow engine is scipy's blocking-flow (Dinitz) implementation, which
computes in int32: every capacity, after parallel edges are merged, must be
at most 2**31 - 1, and a flow call on a graph with a larger one raises
``UnsupportedInput`` (a ``ValueError``). The engine reads the graph's
capacity matrix, ``Graph.capacity_matrix``, which is built once per
``Graph`` and shared by every flow on it (every Gusfield step runs on one
graph); a degree-cut certificate's proving rounds share one matrix too.

The cut side is the set of nodes reachable from the source over the arcs
with positive residual capacity, which is the unique inclusion-minimal
source side of a minimum cut. When the flow saturates every arc leaving the
source, that set is {s} and is read off the source's row without a search;
otherwise a scipy csgraph breadth-first search on the residual graph finds
it.

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
checks nothing. It is built in canonical (u, v) order, so ``_trusted`` need
not sort it: the arcs from S and those into T, each merged per node, and
then the inner arcs, which follow g's own sorted edges row by row.

``min_cuts_between_sets`` answers independent set-to-set minimum cuts
(a_i, b_i) in such unions, one pair per row and ``pairs_per_flow(g)`` rows
per flow: as many copies of g as fit in ``UNION_ARCS`` arcs, a copy
counting as g's m edges or, where they are more, its n nodes, so small
graphs share one engine call among many pairs and graphs of more than
``UNION_ARCS`` edges take one pair per flow. a_i is the source and b_i
the sink. Its contract is to accept exactly what one flow per pair on g
with a_i and b_i contracted accepts, so it checks each pair's a_i-b_i
weight against the int32 limit itself.
``min_cut_between_sets`` is the one-pair case, and makes exactly one
``max_flow`` call; ``isolating`` answers all its local problems in one
union.

Degree cuts. A node's degree cut {s} is often the minimum (s, t)-cut, and
``DegreeCuts(g)`` proves that for most nodes of g in a few batched flows,
so ``max_flow(g, s, t, degree_cuts=...)`` answers those pairs without the
engine. Each component's hub, its largest-degree node (smallest id on
ties), counts as proven. Every node a of a hub's component has a capacity
c(a), here deg(a), and is proven once lambda(a, hub) >= c(a) is shown. A
round feeds a batch of pending, pairwise non-adjacent nodes a from a
super-source S by arcs of capacity c(a), towards a sink made of the hubs
and every proven node of capacity at least the batch's largest.

- A batch node a off the round's minimal source side had its arc
  saturated, so lambda(a, sinks) >= c(a).
- Then lambda(a, hub) >= c(a). Within a's component, an a-hub cut that
  holds no sink is an a-sinks cut, of weight at least c(a); one that holds
  a sink b separates b from the hub, so its weight is at least
  lambda(b, hub) >= c(b) >= c(a).
- For proven s and t of one component with min(c(s), c(t)) >= deg(s),
  lambda(s, t) >= min(lambda(s, hub), lambda(hub, t)) >= deg(s). So {s}
  is a minimum (s, t)-cut, and as it lies in every side holding s it is
  the minimal one: exactly the engine's answer. With c = deg the condition
  reads deg(t) >= deg(s).
- Where the rule proves (t, s) instead, {t} is the minimal minimum
  (t, s)-cut, so ``max_flow(g, s, t)`` answers deg(t) and s's component
  minus t: the complement, within the component, of the engine's minimal
  t-side, which is the maximal s-side of a minimum (s, t)-cut. It need
  not be the engine's minimal s-side where minimum cuts tie.

``DegreeCuts(g, hub=p)`` is the single-source form: p is the only hub, and
only p's component is proven, with the capped capacity
c(a) = min(deg(a), deg(p)). The lemma above holds for any capacity, so a
proven a has lambda(a, p) = c(a): {a} or V - {p} is a cut of that weight.
Without ``hub`` the cap changes nothing, as each hub has its component's
largest degree.

The round matrix. Every round of one certificate runs on one int32 flow
matrix, built once from g's capacity matrix: S = 0, a sink T = 1 and node
v as v + 2. S's row has an entry to every node, every node's row has an S
and a T entry before its g-neighbours, and T's row mirrors S's, so the
matrix is structurally symmetric and the engine adds no arc to it. A
round writes only its data: S's arcs c(a) to the batch, and an arc of
min(deg b, C) to T from each sink node b, C being the batch's total
capacity; every other S and T entry is 0, and the sink nodes keep their
g-edges. This round has the flow value and the minimal side of the round
with the sink nodes merged into T:

- a cut whose source side holds no sink node has the same weight in both;
- take a cut X holding sink nodes Z. If some b in Z has deg b >= C, X
  weighs at least C, the weight of {S}, so where X is minimum so is {S}.
  Otherwise each b in Z sends deg b to T, at least its edges from X - Z,
  so X - Z weighs no more than X.

So every minimum cut contains one that holds no sink node: both rounds
have one minimum value, and the minimal side, the meet of the minimum
cuts' source sides, is the meet over those without sink nodes, the merged
round's.

The pending nodes, those of positive capacity in a hub's component other
than the hubs, wait in order of capacity descending, then id. A round
takes up to max(1, floor(proven / 2)) of them, skipping any node adjacent
to one it has taken. Proving runs in two passes:

- the first tries each pending node at most once, in 2 ceil(log2 n)
  rounds at most; a node left on its round's minimal source side, most
  often because its batch competed for the same paths, waits for the
  second pass, and a node never tried is not retried;
- the second retries the waiting nodes, in the same order, in
  ceil(log2 n) rounds at most, each taking nodes of one capacity only, so
  that the sink holds every proven node of at least that capacity.

A pass also ends when no node is pending or after a round that proves
fewer than half its batch. The int32 rule: a round with an S-arc c(a) or
a T-arc min(deg b, C) above ``MAX_CAPACITY`` is not run, and ends
proving. So proving costs at most 3 ceil(log2 n) flows on n + 2 nodes,
all run inside the first ``max_flow`` call that is given the certificate;
the certificate then keeps its per-node arrays as lists, which ``proves``
reads. The certificate accepts only a graph the engine accepts:
``DegreeCuts(g)`` raises ``UnsupportedInput`` where a flow on g would, so
no answer bypasses the int32 guard.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.csgraph import maximum_flow as _scipy_maximum_flow

from .graph import (MAX_CAPACITY, Cut, Graph, check_capacity, component_labels, crossing_rows,
                    degrees, node_id, node_ids)

__all__ = [
    "max_flow",
    "min_cut_between_sets",
    "min_cuts_between_sets",
    "pairs_per_flow",
    "MAX_CAPACITY",
    "UNION_ARCS",
]

# A union flow's size budget, in arcs: pairs_per_flow fits this many arcs of
# copies of g in one union. Per cut, a union gets cheaper with more copies
# until the engine's fixed cost per call is shared out, then dearer as every
# copy pays for the Dinitz phases of the slowest. Timed per cut at 1 to 128
# copies (BENCH_3.json), 2**15's 30 copies on weighted G(200) run near the
# fastest count, and its 8 and 2 copies on unit G(600) and G(1500) match
# ceil(log2 n) copies there within noise.
UNION_ARCS = 32768


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


def max_flow(g: Graph, s: int, t: int, *, degree_cuts: DegreeCuts | None = None,
             ) -> tuple[int, Cut]:
    """Max s,t-flow value and a min cut's source side: the inclusion-minimal
    one, except where ``degree_cuts`` answers a pair as (t, s).

    With ``degree_cuts``, a ``DegreeCuts`` of g, the certificate's pending
    proving rounds run first, and a pair it proves is answered without the
    engine: (deg s, {s}), or (deg t, s's component minus t), a minimum cut
    that need not be the minimal side, where it proves (t, s).

    Raises UnsupportedInput when an edge capacity exceeds ``MAX_CAPACITY``.
    """
    s, t = node_id(g.n, s), node_id(g.n, t)
    if s == t:
        raise ValueError("source and sink must differ")
    if degree_cuts is not None and degree_cuts.graph is not g:
        raise ValueError("degree_cuts was built for another graph")
    if degree_cuts is not None:
        # the rounds run inside this call, so a pair costs one max_flow call
        degree_cuts._prove(lambda m: _residual_reachable(
            m, _scipy_maximum_flow(m, 0, 1).flow, 0))
        if degree_cuts.proves(s, t):
            value = degree_cuts.degree[s]
            return value, Cut(side=frozenset({s}), value=value)
        if degree_cuts.proves(t, s):
            value = degree_cuts.degree[t]
            return value, Cut(side=degree_cuts._reverse_side(s, t), value=value)
    cap = g.capacity_matrix
    result = _scipy_maximum_flow(cap, s, t)
    seen = _residual_reachable(cap, result.flow, s)
    side = frozenset(np.flatnonzero(seen).tolist())
    return int(result.flow_value), Cut(side=side, value=int(result.flow_value))


class DegreeCuts:
    """A certificate, built in batched flows, that {s} is the minimal
    minimum (s, t)-cut of g for most pairs; its rules are in the module
    docstring.

    The first ``max_flow`` call given the certificate runs its rounds.
    With ``hub``, this is the single-source form rooted at that node;
    without it, each component's largest-degree node is a hub. Raises
    UnsupportedInput when a capacity of g exceeds ``MAX_CAPACITY``, as a
    flow on g would.
    """

    def __init__(self, g: Graph, hub: int | None = None):
        cap = g.capacity_matrix  # raises UnsupportedInput as a flow on g would
        ptr, nbr = cap.indptr.tolist(), cap.indices.tolist()
        self._neighbours = [nbr[ptr[v]:ptr[v + 1]] for v in range(g.n)]
        self.graph = g
        self.degree = degrees(g)
        self.component = component_labels(g.n, g.edges[:, 0], g.edges[:, 1])[1]
        self.hub = np.zeros(g.n, dtype=bool)
        if hub is None:
            self.capacity = self.degree
        else:
            hub = node_id(g.n, hub, "hub")
            self.hub[hub] = True
            self.capacity = np.minimum(self.degree, self.degree[hub])
        self._capacity = self.capacity.tolist()  # read node by node while batching
        # capacity descending, then id
        order = np.lexsort((np.arange(g.n), -self.capacity))
        if hub is None:
            # each component's hub is its first node in that order
            self.hub[order[np.unique(self.component[order], return_index=True)[1]]] = True
        self.proven = self.hub.copy()
        pending = (self.capacity > 0) & ~self.hub & np.isin(self.component,
                                                            self.component[self.hub])
        # None once proving has run
        self._pending: list[int] | None = order[pending[order]].tolist()
        self._members: dict[int, frozenset[int]] = {}

    def _prove(self, side: Callable[[csr_matrix], np.ndarray]) -> None:
        """Run both passes, once per certificate, with ``side(m)`` the
        minimal source side of a maximum flow from 0 to 1 on the round
        matrix m, as a mask; then keep the per-node arrays as lists."""
        if self._pending is None:
            return  # proving has run; every later max_flow call ends here
        pending, self._pending = self._pending, None
        if pending:
            self._passes(pending, side)
        # proves and max_flow read these node by node from now on
        self.proven, self.component, self.capacity, self.degree = (
            a.tolist() for a in (self.proven, self.component, self.capacity, self.degree))

    def _passes(self, pending: list[int], side: Callable[[csr_matrix], np.ndarray]) -> None:
        """Both passes over ``pending``, every round on one round matrix."""
        m = _round_matrix(self.graph.capacity_matrix)
        c = self.capacity
        log_n = (self.graph.n - 1).bit_length()
        for retry, rounds in ((False, 2 * log_n), (True, log_n)):
            left: list[int] = []  # batch nodes left on their round's source side
            for _ in range(rounds):
                if not pending:
                    break
                taken, pending = self._pick(pending, retry)
                batch = np.array(taken, dtype=np.int64)
                if not self._write_round(m, batch):
                    return  # an int32 stop ends proving
                on_side = side(m)[batch + 2]
                proved = batch[~on_side]
                self.proven[proved] = True
                left += batch[on_side].tolist()
                if 2 * proved.size < batch.size:
                    break
            pending = sorted(left, key=lambda v: (-c[v], v))  # for the retry pass

    def _pick(self, pending: list[int], one_capacity: bool) -> tuple[list[int], list[int]]:
        """A round's batch from ``pending`` and the nodes it leaves, each in
        order: up to max(1, floor(proven / 2)) nodes, none adjacent to one
        taken before it and, with ``one_capacity``, all of the first node's
        capacity."""
        size = max(1, int(self.proven.sum()) // 2)
        capacity = self._capacity
        only = capacity[pending[0]] if one_capacity else None
        taken, kept = [], []
        beside: set[int] = set()  # adjacent to a node already taken
        for i, v in enumerate(pending):
            if len(taken) == size:
                kept += pending[i:]
                break
            if v in beside or (only is not None and capacity[v] != only):
                kept.append(v)
            else:
                taken.append(v)
                beside.update(self._neighbours[v])
        return taken, kept

    def _write_round(self, m: csr_matrix, batch: np.ndarray) -> bool:
        """Write the round feeding ``batch`` into the S- and T-arcs of round
        matrix m; False, writing nothing, when one of them is above
        ``MAX_CAPACITY``."""
        n, c = self.graph.n, self.capacity
        sink = np.flatnonzero(self.hub | (self.proven & (c >= c[batch].max())))
        fed = c[batch]
        to_t = np.minimum(self.degree[sink], int(fed.sum()))
        if max(int(fed.max()), int(to_t.max(initial=0))) > MAX_CAPACITY:
            return False
        # S's row holds node v's arc at v; node v's row holds its T-arc second
        t_arcs = m.indptr[2:-1] + 1
        m.data[:n] = 0
        m.data[batch] = fed
        m.data[t_arcs] = 0
        m.data[t_arcs[sink]] = to_t
        return True

    def proves(self, s: int, t: int) -> bool:
        """Whether {s} is certified as the minimal minimum (s, t)-cut."""
        proven, capacity = self.proven, self.capacity
        return bool(proven[s] and proven[t] and self.component[s] == self.component[t]
                    and min(capacity[s], capacity[t]) >= self.degree[s])

    def _reverse_side(self, s: int, t: int) -> frozenset[int]:
        """s's component minus t, the maximal s-side of a minimum (s, t)-cut
        where the certificate proves {t} the minimal (t, s) one."""
        label = self.component[s]
        if label not in self._members:
            self._members[label] = frozenset(
                v for v, own in enumerate(self.component) if own == label)
        return self._members[label] - {t}


def _round_matrix(cap: csr_matrix) -> csr_matrix:
    """The proving rounds' int32 flow matrix over g's capacity matrix
    ``cap``: S = 0, T = 1 and node v of g as v + 2. S's row and T's row have
    an entry to every node, and every node's row has its S and T entries
    and then its g-neighbours', so the matrix is structurally symmetric.
    Only g's entries have capacity until a round writes its S- and T-arcs."""
    n = cap.shape[0]
    indptr = np.zeros(n + 3, dtype=np.int32)
    indptr[1:3] = n, 2 * n
    np.cumsum(np.diff(cap.indptr) + 2, out=indptr[3:])
    indptr[3:] += 2 * n
    nodes = np.arange(2, n + 2, dtype=np.int32)
    indices = np.empty(int(indptr[-1]), dtype=np.int32)
    indices[:2 * n] = np.tile(nodes, 2)
    starts = indptr[2:-1]
    indices[starts], indices[starts + 1] = 0, 1
    # g's entry k, in row v, moves past the S and T entries of rows 0..v
    inner = 2 * n + np.arange(cap.nnz) + 2 * np.repeat(nodes - 1, np.diff(cap.indptr))
    indices[inner] = cap.indices + 2
    data = np.zeros(indices.size, dtype=np.int32)
    data[inner] = cap.data
    m = csr_matrix((data, indices, indptr), shape=(n + 2, n + 2))
    m.has_sorted_indices = True
    return m


def _union_flow(g: Graph, region: np.ndarray, source: np.ndarray,
                ) -> tuple[np.ndarray, int, np.ndarray]:
    """One max-flow on the union of the problems that the rows of ``region``
    and ``source`` describe, built in canonical (u, v) order. Returns each
    row's minimal side as a mask over g, the flow value and each row's S-T
    weight left out of the union."""
    eu, ev, ew = g.edges.T
    # S = 0 and T = 1 are shared (~source is 0 on a source node, 1 on a sink
    # node); a problem's other nodes get 2, 3, ..., growing with the row and,
    # within a row, with the node
    own = (region >= 0) & ~source
    ids = np.where(own, 1 + np.cumsum(own, dtype=np.int32).reshape(own.shape), ~source)
    # take, not fancy indexing: several times faster along a row's axis
    tails, heads = ids.take(eu, axis=1), ids.take(ev, axis=1)
    # an edge between two problems of one row (neither end on T, which is
    # region -1): its arc from u goes to T, and a second arc goes from v to T
    split = ((region.take(eu, axis=1) != region.take(ev, axis=1)) & (tails != 1)
             & (heads != 1))
    second_st = split & (heads == 0)
    second = split & ~second_st
    v_tails = heads[second]
    heads[split] = 1
    st = tails + heads == 1
    weights = np.broadcast_to(ew, tails.shape)
    # as eu < ev, an arc between two own nodes has tails < heads, and those
    # arcs come row by row in g's edge order: already sorted and distinct
    inner = (tails > 1) & (heads > 1)
    # every other arc joins S or T to an own node, merged per node
    outer = ~inner & ~st & (tails != heads)
    ends = np.zeros((2, 2 + int(own.sum())), dtype=np.int64)
    np.add.at(ends, (np.minimum(tails, heads)[outer], np.maximum(tails, heads)[outer]),
              weights[outer])
    np.add.at(ends[1], v_tails, weights[second])
    to_s, to_t = np.flatnonzero(ends[0]), np.flatnonzero(ends[1])
    h = Graph._trusted(ends.shape[1], np.concatenate([
        np.column_stack([np.zeros_like(to_s), to_s, ends[0, to_s]]),
        np.column_stack([np.ones_like(to_t), to_t, ends[1, to_t]]),
        np.column_stack([tails[inner], heads[inner], weights[inner]])]))
    flow, cut = max_flow(h, 0, 1)
    in_side = np.zeros(h.n, dtype=bool)
    in_side[list(cut.side)] = True
    return in_side[ids], flow, st @ ew + second_st @ ew


def pairs_per_flow(g: Graph) -> int:
    """How many pairs ``min_cuts_between_sets`` answers per max-flow on g:
    as many copies of g as fit in ``UNION_ARCS``, a copy counting as g's
    edges or, where they are more, its nodes; and at least 1."""
    return max(1, UNION_ARCS // max(g.edge_count, g.n, 1))


def min_cuts_between_sets(g: Graph, pairs: Sequence[tuple[Iterable[int], Iterable[int]]],
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Independent minimum cuts separating a_i from b_i, for every pair
    (a_i, b_i) in ``pairs``, with one ``max_flow`` per ``pairs_per_flow(g)``
    pairs.

    Returns the int64 cut values and a bool array with one row per pair,
    the inclusion-minimal side containing a_i as a mask over g's nodes.
    Raises UnsupportedInput where one pair's contracted graph would have a
    capacity above ``MAX_CAPACITY``.
    """
    per_flow = pairs_per_flow(g)
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
