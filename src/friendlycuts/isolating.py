"""Minimum isolating cuts for a terminal set.

The fast path uses ceil(log2 |R|) global bipartition max-flows (terminals
split by the bits of their index within R), intersects the minimal source
sides to get per-terminal regions, and finishes with one local max-flow per
terminal on the graph with everything outside the region contracted. The
direct path runs one max-flow per terminal and serves as the oracle.

A region that holds only its terminal contracts to two nodes, which
``max_flow`` answers directly without the engine; it still counts as one
local flow call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graph import Cut, Graph
from .maxflow import min_cut_between_sets

__all__ = ["IsolatingCuts", "isolating_cuts", "isolating_cuts_direct"]


@dataclass(frozen=True)
class IsolatingCuts:
    cuts: dict[int, Cut]
    global_flow_calls: int
    local_flow_calls: int


def _check_terminals(g: Graph, r: Iterable[int]) -> list[int]:
    terms = sorted(set(int(v) for v in r))
    if len(terms) < 2:
        raise ValueError("need at least 2 terminals")
    for v in terms:
        if not 0 <= v < g.n:
            raise ValueError(f"terminal {v} out of range")
    return terms


def isolating_cuts(g: Graph, r: Iterable[int]) -> IsolatingCuts:
    """Minimum isolating cut S_v for every terminal v; sides pairwise disjoint."""
    terms = _check_terminals(g, r)
    k = len(terms)
    bits = max(1, (k - 1).bit_length())
    in_region = np.ones((k, g.n), dtype=bool)
    global_calls = 0
    for b in range(bits):
        zeros = [terms[i] for i in range(k) if not (i >> b) & 1]
        ones = [terms[i] for i in range(k) if (i >> b) & 1]
        if not zeros or not ones:
            continue
        _, cut = min_cut_between_sets(g, zeros, ones)
        global_calls += 1
        side = np.zeros(g.n, dtype=bool)
        side[list(cut.side)] = True
        for i in range(k):
            if (i >> b) & 1:
                in_region[i] &= ~side
            else:
                in_region[i] &= side
    cuts: dict[int, Cut] = {}
    local_calls = 0
    for i, v in enumerate(terms):
        region = in_region[i]
        region[v] = True  # v always belongs to its own region
        if region.all():
            raise AssertionError("region must exclude the other terminals")
        # min cut separating v from everything outside its region
        cuts[v] = min_cut_between_sets(g, [v], np.flatnonzero(~region))[1]
        local_calls += 1
    return IsolatingCuts(cuts=cuts, global_flow_calls=global_calls,
                         local_flow_calls=local_calls)


def isolating_cuts_direct(g: Graph, r: Iterable[int]) -> IsolatingCuts:
    """Oracle: per terminal, one max-flow against the other terminals contracted."""
    terms = _check_terminals(g, r)
    cuts: dict[int, Cut] = {}
    for v in terms:
        others = [t for t in terms if t != v]
        value, cut = min_cut_between_sets(g, [v], others)
        cuts[v] = Cut(side=cut.side, value=value)
    return IsolatingCuts(cuts=cuts, global_flow_calls=0, local_flow_calls=len(terms))
