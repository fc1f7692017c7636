"""Single-source minimum cuts, exact whenever some minimum cut is unfriendly.

Starting from per-node (1+eps)-approximate estimates with witness cuts, the
algorithm forms geometric estimate levels T_i, runs isolating cuts on each
distinct level with the pivot included, and min-merges the resulting cut
values back into the table. Estimates only ever decrease, and every estimate
keeps a witness cut of exactly its value, so the table is sound by
construction; exactness for pairs with an unfriendly minimum cut follows
from the two case-analysis predicates exposed below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .graph import (
    CROSS_DEN,
    CROSS_NUM,
    Cut,
    Graph,
    UnsupportedInput,
    crossing_weights,
    cut_value,
    degrees,
)
from .isolating import isolating_cuts
from .maxflow import max_flow

__all__ = [
    "EstimateTable",
    "approx_single_source",
    "single_source_unfriendly",
    "lemma_unfriendly_v",
    "lemma_unfriendly_p",
]

EPS_DEFAULT = Fraction(1, 100)
DELTA_DEFAULT = Fraction(1, 100)


@dataclass
class EstimateTable:
    """Per-node cut estimates c'(v) from a fixed pivot, each with a witness.

    Witness sides contain their node and exclude the pivot, and their cut
    value equals the estimate, so c'(v) >= lambda(pivot, v) always holds.
    """

    pivot: int
    estimates: np.ndarray
    witnesses: dict[int, Cut]
    eps: Fraction
    delta: Fraction | None = None
    levels: tuple[frozenset[int], ...] = field(default_factory=tuple)

    def estimate(self, v: int) -> int:
        if v == self.pivot:
            raise ValueError("no estimate for the pivot itself")
        return int(self.estimates[v])

    def update(self, v: int, value: int, witness: Cut) -> None:
        """Min-merge one estimate; keeps the old witness when not improved."""
        if value < self.estimates[v]:
            if self.pivot in witness.side or v not in witness.side:
                raise ValueError("witness side must contain v and exclude the pivot")
            if witness.value != value:
                raise ValueError("witness value must equal the estimate")
            self.estimates[v] = value
            self.witnesses[v] = witness


def approx_single_source(g: Graph, p: int, eps: Fraction = EPS_DEFAULT, *,
                         estimator: Callable[[Graph, int, Fraction], "EstimateTable"] | None = None,
                         ) -> EstimateTable:
    """(1+eps)-approximate min-cut values from p to every other node.

    By default this runs n-1 exact max-flows, which is trivially within any
    eps; a caller-supplied ``estimator(g, p, eps)`` replaces them.
    """
    if not 0 <= p < g.n:
        raise ValueError(f"pivot {p} out of range")
    if estimator is not None:
        return estimator(g, p, eps)
    estimates = np.zeros(g.n, dtype=np.int64)
    witnesses: dict[int, Cut] = {}
    for v in range(g.n):
        if v == p:
            continue
        value, cut = max_flow(g, v, p)  # minimal side around v, excludes p
        estimates[v] = value
        witnesses[v] = cut
    return EstimateTable(pivot=p, estimates=estimates, witnesses=witnesses, eps=eps)


def _level_sets(table: EstimateTable, delta: Fraction) -> list[frozenset[int]]:
    """Distinct levels T_i = {v : c'(v) >= (1+delta)^i} + pivot, deduplicated."""
    p = table.pivot
    est = np.array(table.estimates, dtype=np.int64)
    est[p] = 0  # every threshold is at least 1, so the pivot joins only as itself
    base = 1 + delta
    cmax = int(est.max())
    levels: list[frozenset[int]] = []
    threshold = Fraction(1)
    size = -1
    while threshold <= cmax:
        # estimates are integers, so c'(v) >= threshold iff c'(v) >= ceil(threshold)
        members = np.flatnonzero(est >= math.ceil(threshold))
        # levels shrink as the threshold grows, so a repeat has the previous size
        if members.size != size:
            size = members.size
            levels.append(frozenset(members.tolist()) | {p})
        threshold *= base
    return levels


def single_source_unfriendly(g: Graph, p: int, *, eps: Fraction = EPS_DEFAULT,
                             delta: Fraction = DELTA_DEFAULT,
                             estimator: Callable[[Graph, int, Fraction], "EstimateTable"] | None = None,
                             ) -> EstimateTable:
    """Estimates c'(v) >= lambda(p, v), exact whenever some minimum p,v-cut
    is unfriendly.

    Weights must stay polynomially bounded (at most n^4) so the number of
    levels stays logarithmic.
    """
    if not 0 <= p < g.n:
        raise ValueError(f"pivot {p} out of range")
    if g.edges.size and int(g.edges[:, 2].max()) > g.n ** 4:
        raise UnsupportedInput("edge weights must be at most n^4")
    table = approx_single_source(g, p, eps, estimator=estimator)
    levels = _level_sets(table, delta)
    all_nodes = frozenset(range(g.n))
    for terms in levels:
        if len(terms) < 2:
            continue
        iso = isolating_cuts(g, terms)
        s_p = iso.cuts[p]
        for v in terms:
            if v == p:
                continue
            table.update(v, iso.cuts[v].value, iso.cuts[v])
        # The pivot's own isolating cut bounds c'(v) for every v outside it;
        # the witness is the complement side, which contains those v.
        complement = all_nodes - s_p.side
        comp_cut = Cut(side=complement, value=s_p.value)
        for v in range(g.n):
            if v != p and v not in s_p.side:
                table.update(v, s_p.value, comp_cut)
    return EstimateTable(pivot=p, estimates=table.estimates, witnesses=table.witnesses,
                         eps=eps, delta=delta, levels=tuple(levels))


def _check_min_pv_cut(g: Graph, p: int, v: int, s: Cut) -> np.ndarray:
    if p == v:
        raise ValueError("pivot and node must differ")
    if v not in s.side or p in s.side:
        raise ValueError("cut side must contain v and exclude p")
    mask = np.zeros(g.n, dtype=bool)
    mask[list(s.side)] = True
    if cut_value(g, s.side) != s.value:
        raise ValueError("cut value does not match its side")
    lam, _ = max_flow(g, p, v)
    if s.value != lam:
        raise ValueError("cut is not a minimum p,v-cut")
    return mask


def lemma_unfriendly_v(g: Graph, p: int, v: int, s: Cut) -> bool:
    """Given a minimum p,v-cut S where v sends more than 0.6 of its degree
    across, check the witness inequality delta(S minus v) <= 0.8 * delta(S)."""
    mask = _check_min_pv_cut(g, p, v, s)
    cross = crossing_weights(g, mask)
    deg = degrees(g)
    if not CROSS_DEN * cross[v] > CROSS_NUM * deg[v]:
        raise ValueError("hypothesis violated: v does not send > 0.6 deg across")
    rest = s.side - {v}
    if not rest:
        raise ValueError("degenerate: cut side is the singleton {v}")
    return 5 * cut_value(g, rest) <= 4 * s.value


def lemma_unfriendly_p(g: Graph, p: int, v: int, s: Cut) -> bool:
    """Symmetric form for the pivot's side: given a minimum p,v-cut S where p
    sends more than 0.6 of its degree across, check
    delta((V minus S) minus p) <= 0.8 * delta(S)."""
    mask = _check_min_pv_cut(g, p, v, s)
    cross = crossing_weights(g, mask)
    deg = degrees(g)
    if not CROSS_DEN * cross[p] > CROSS_NUM * deg[p]:
        raise ValueError("hypothesis violated: p does not send > 0.6 deg across")
    rest = frozenset(range(g.n)) - s.side - {p}
    if not rest:
        raise ValueError("degenerate: complement side is the singleton {p}")
    return 5 * cut_value(g, rest) <= 4 * s.value
