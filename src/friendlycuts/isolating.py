"""Minimum isolating cuts for a terminal set.

The fast path makes two max-flows in all. The first answers ceil(log2 |R|)
global bipartition cuts at once, on a disjoint union of that many copies of
the graph (``maxflow.min_cuts_between_sets``; |R| <= n, so they fit in one
union): cut b separates the terminals whose index within R has bit b clear
from those whose bit b is set. Each node x gets the code whose bit b is set
when x is not on cut b's minimal source side, and terminal i's region is
the set of nodes with code i. So the regions are the intersections of the
sides, pairwise disjoint by construction, and terminal i lies in region i.

All k local problems (terminal i against everything outside region i) are
then answered by the second max-flow, on one graph, since the regions are
disjoint (the isolating-cuts lemma of Li and Panigrahi, FOCS'20):

- every terminal is merged into a super-source S, and every node outside all
  regions into a super-sink T;
- an edge inside one region is kept;
- an edge that leaves a region becomes an arc to T from each of its
  endpoints that lies in a region, since that endpoint's own local problem
  has everything outside its region merged into its sink;
- the arcs from a terminal to T join S to T and cross every cut, so they are
  left out of the graph and their weight is added back to the flow value.

The graph is the union of the k local graphs, which share only S and T, so
its maximum flow is the sum of the local ones, and its minimal source side
restricted to region i is terminal i's minimal local side. The value of each
side is its boundary weight in the input graph, and the values must sum to
the flow. Every capacity equals a merged capacity of one local graph, so the
int32 guard accepts every input that one flow per region accepts; a
terminal's own arcs to T never reach the engine, so their total may exceed
int32.

The direct path runs one max-flow per terminal and serves as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graph import Cut, Graph, UnsupportedInput, crossing_weights
from .maxflow import max_flow, min_cut_between_sets, min_cuts_between_sets

__all__ = ["IsolatingCuts", "isolating_cuts", "isolating_cuts_direct"]


@dataclass(frozen=True)
class IsolatingCuts:
    cuts: dict[int, Cut]
    global_flow_calls: int
    local_flow_calls: int


def _check_terminals(g: Graph, r: Iterable[int]) -> list[int]:
    terms = sorted(set(int(v) for v in r))
    if len(terms) < 2:
        raise UnsupportedInput("need at least 2 terminals")
    for v in terms:
        if not 0 <= v < g.n:
            raise UnsupportedInput(f"terminal {v} out of range")
    return terms


def _regions(g: Graph, terms: np.ndarray) -> tuple[np.ndarray, int]:
    """Region index of every node (-1 outside all regions), and the number of
    global flows run."""
    k = terms.size
    index = np.arange(k)
    bits = max(1, (k - 1).bit_length())
    ones = ((index >> np.arange(bits)[:, None]) & 1).astype(bool)
    # k <= n, so the ceil(log2 k) bipartitions fit in one union flow
    _, sides = min_cuts_between_sets(g, [(terms[~row], terms[row]) for row in ones])
    code = (1 << np.arange(bits)) @ ~sides
    if not np.array_equal(code[terms], index):
        raise RuntimeError("a terminal is not in its own region")
    return np.where(code < k, code, -1), 1


def isolating_cuts(g: Graph, r: Iterable[int]) -> IsolatingCuts:
    """Minimum isolating cut S_v for every terminal v; sides pairwise disjoint."""
    terms = np.asarray(_check_terminals(g, r), dtype=np.int64)
    k = terms.size
    region_of, global_calls = _regions(g, terms)
    # local graph ids: S = 0, T = 1, the other region nodes 2, 3, ...
    s, t = 0, 1
    inner = region_of >= 0
    inner[terms] = False
    n_inner = int(inner.sum())
    h_of = np.full(g.n, t, dtype=np.int64)
    h_of[inner] = 2 + np.arange(n_inner)
    h_of[terms] = s
    eu, ev, ew = g.edges.T
    ru, rv = region_of[eu], region_of[ev]
    inside = (ru == rv) & (ru >= 0)
    leave_u = (ru >= 0) & ~inside
    leave_v = (rv >= 0) & ~inside
    tails = np.concatenate([h_of[eu[inside]], h_of[eu[leave_u]], h_of[ev[leave_v]]])
    heads = np.concatenate([h_of[ev[inside]], np.full(int(leave_u.sum() + leave_v.sum()), t)])
    weights = np.concatenate([ew[inside], ew[leave_u], ew[leave_v]])
    s_to_t = (tails == s) & (heads == t)
    st_weight = int(weights[s_to_t].sum())
    keep = ~s_to_t
    h = Graph.build(2 + n_inner, np.column_stack([tails[keep], heads[keep], weights[keep]]))
    flow, cut = max_flow(h, s, t)
    # T is never on the minimal source side, so nodes outside all regions drop out
    in_side = np.zeros(h.n, dtype=bool)
    in_side[list(cut.side)] = True
    side_of = np.where(in_side[h_of], region_of, -1)
    members = np.flatnonzero(side_of >= 0)
    members = members[np.argsort(side_of[members], kind="stable")]
    # every side holds its terminal, so no group is empty; an edge between two
    # sides counts toward both
    starts = np.concatenate([[0], np.cumsum(np.bincount(side_of[members], minlength=k))[:-1]])
    values = np.add.reduceat(crossing_weights(g, side_of)[members], starts)
    if int(values.sum()) != flow + st_weight:
        raise RuntimeError("isolating cut values do not sum to the local flow value")
    groups = np.split(members, starts[1:])
    cuts = {int(v): Cut(side=frozenset(group.tolist()), value=int(value))
            for v, group, value in zip(terms, groups, values)}
    return IsolatingCuts(cuts=cuts, global_flow_calls=global_calls, local_flow_calls=1)


def isolating_cuts_direct(g: Graph, r: Iterable[int]) -> IsolatingCuts:
    """Oracle: per terminal, one max-flow against the other terminals contracted."""
    terms = _check_terminals(g, r)
    cuts: dict[int, Cut] = {}
    for v in terms:
        others = [t for t in terms if t != v]
        value, cut = min_cut_between_sets(g, [v], others)
        cuts[v] = Cut(side=cut.side, value=value)
    return IsolatingCuts(cuts=cuts, global_flow_calls=0, local_flow_calls=len(terms))
