"""Single-source minimum cuts, exact whenever some minimum cut is unfriendly.

Starting from per-node (1+eps)-approximate estimates with witness cuts, the
algorithm forms geometric estimate levels T_i. Behind a caller's estimator
it then runs isolating cuts on each distinct level with the pivot included
(all levels in one ``isolating_cuts_many`` call), and min-merges the
resulting cut values back into the table, level by level. Estimates only
ever decrease, and every estimate keeps a witness cut of exactly its value,
so the table is sound by construction; exactness for pairs with an
unfriendly minimum cut follows from the two case-analysis predicates
exposed below.

The built-in estimator, ``approx_single_source``, returns lambda(p, v)
itself, and every cut the isolating phase offers v separates v from p, so
it is at least that value and cannot lower the estimate. So the phase, and
the n^4 weight bound that keeps its level count logarithmic, apply only
behind a caller's estimator; on the default path the levels are still
formed and reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .graph import (Cut, Graph, UnsupportedInput, cut_weight, node_id, proper_side_mask,
                    unfriendly_nodes)
from .isolating import isolating_cuts_many
from .maxflow import DegreeCuts, max_flow, min_cuts_between_sets

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
        v = node_id(self.estimates.size, v)
        if v == self.pivot:
            raise ValueError("no estimate for the pivot itself")
        return int(self.estimates[v])

    def update(self, v: int, value: int, witness: Cut) -> None:
        """Min-merge one estimate; keeps the old witness when not improved."""
        v = node_id(self.estimates.size, v)
        if value < self.estimates[v]:
            if self.pivot in witness.side or v not in witness.side:
                raise ValueError("witness side must contain v and exclude the pivot")
            if witness.value != value:
                raise ValueError("witness value must equal the estimate")
            self.estimates[v] = value
            self.witnesses[v] = witness


def approx_single_source(g: Graph, p: int, eps: Fraction = EPS_DEFAULT) -> EstimateTable:
    """Exact min-cut values from p to every other node, each with a witness.

    Exact values are trivially within any eps, so this is also
    ``single_source_unfriendly``'s default (1+eps)-estimator; eps is only
    recorded in the table. Where 2 ceil(log2 n) < ceil((n - 1) / ceil(log2 n)),
    which holds from n = 100 on with n = 129 aside (the first proving
    pass's budget against the n - 1 cuts' flows at ceil(log2 n) pairs per
    flow; a fixed rule, kept as it was when the union flows held that many
    pairs), a ``maxflow.DegreeCuts(g, hub=p)`` certificate answers most
    nodes first: a proven v has lambda(v, p) = c(v), its capped capacity,
    by the rule in maxflow's module docstring. Its witness is {v}, the
    minimal side, when deg v <= deg p, and V - {p}, a minimum cut that
    need not be the minimal side, otherwise. ``DegreeCuts.prove()`` runs
    the proving rounds, and every node left unproven goes to
    ``min_cuts_between_sets``, ``maxflow.pairs_per_flow(g)`` to a union
    flow, with its minimal side as witness. So the cost is the certificate's proving flows and one union
    flow per ``pairs_per_flow(g)`` unproven nodes. Either way the graph
    must pass the int32 flow guard, else UnsupportedInput.
    """
    p = node_id(g.n, p, "pivot")
    others = [v for v in range(g.n) if v != p]
    estimates = np.zeros(g.n, dtype=np.int64)
    witnesses: dict[int, Cut] = {}
    # many nodes share one side (often V minus p); keep one Cut per side
    shared: dict[bytes, Cut] = {}

    def witness(side: np.ndarray, value: int) -> Cut:
        key = side.tobytes()
        if key not in shared:
            shared[key] = Cut(side=frozenset(np.flatnonzero(side).tolist()), value=value)
        return shared[key]

    per_flow = max(1, (g.n - 1).bit_length())
    # the certificate's first-pass budget must undercut the plain cuts'
    # flows at ceil(log2 n) pairs each; its retry pass only runs on nodes
    # that pass left
    if 2 * per_flow < -(-len(others) // per_flow):
        cuts = DegreeCuts(g, hub=p)
        cuts.prove()
        deg, all_but_p = cuts.degree, np.arange(g.n) != p
        unproven = []
        for v in others:
            if cuts.proves(v, p):
                estimates[v] = deg[v]
                witnesses[v] = Cut(side=frozenset({v}), value=int(deg[v]))
            elif cuts.proves(p, v):
                estimates[v] = deg[p]
                witnesses[v] = witness(all_but_p, int(deg[p]))
            else:
                unproven.append(v)
        others = unproven
    values, sides = min_cuts_between_sets(g, [([v], [p]) for v in others])
    estimates[others] = values
    for v, value, side in zip(others, values.tolist(), sides):
        witnesses[v] = witness(side, value)
    return EstimateTable(pivot=p, estimates=estimates, witnesses=dict(sorted(witnesses.items())),
                         eps=eps)


def _level_sets(table: EstimateTable, delta: Fraction) -> list[frozenset[int]]:
    """Distinct levels T_i = {v : c'(v) >= (1+delta)^i} + pivot, deduplicated.

    Estimates are integers, so the level changes only where a threshold
    passes an estimate: the level {v : c'(v) >= u} of a distinct estimate u
    occurs iff some threshold lies in (u', u], u' being the next smaller
    distinct estimate (0 for the smallest). So the walk goes from estimate
    to estimate, carrying the first threshold above u' as an exact fraction
    top / bottom, which only ever grows.
    """
    base = Fraction(1 + delta)
    if base <= 1:
        raise ValueError("delta must be positive")
    num, den = base.numerator, base.denominator
    p = table.pivot
    est = np.array(table.estimates, dtype=np.int64)
    est[p] = 0  # every threshold is at least 1, so the pivot joins only as itself
    levels: list[frozenset[int]] = []
    top = bottom = 1  # (1+delta)^0
    below = 0
    for u in np.unique(est[est > 0]).tolist():
        while top <= below * bottom:  # the first threshold above below
            top, bottom = top * num, bottom * den
        if top <= u * bottom:
            levels.append(frozenset(np.flatnonzero(est >= u).tolist()) | {p})
        below = u
    return levels


def single_source_unfriendly(g: Graph, p: int, *, eps: Fraction = EPS_DEFAULT,
                             delta: Fraction = DELTA_DEFAULT,
                             estimator: Callable[[Graph, int, Fraction], "EstimateTable"] | None = None,
                             ) -> EstimateTable:
    """Estimates c'(v) >= lambda(p, v), exact whenever some minimum p,v-cut
    is unfriendly.

    By default c'(v) is ``approx_single_source``'s lambda(p, v), and its
    witness is the one found there; a certified v of degree above deg(p)
    has V - {p}, which need not be its minimal side. Every cut the
    isolating phase would offer v separates v from p, so its value is at
    least lambda(p, v), and only a strictly lower value is merged: the phase
    could not change any estimate or witness, and is skipped. The levels are
    still formed and returned, so ``levels`` and the ``delta`` check do not
    depend on the estimator. They are distinct estimates, so at most n - 1.

    A caller-supplied ``estimator(g, p, eps)`` replaces
    ``approx_single_source``. The table it returns must be for pivot p, with
    one estimate per node of g, else ValueError; its witness sides are not
    re-checked. Behind it, weights must stay polynomially bounded (at most
    n^4, else UnsupportedInput) so the number of levels stays logarithmic,
    and the isolating phase runs. Its levels are fixed before any isolating
    cut is found, so one ``isolating_cuts_many`` call answers them all:
    ceil(B / q) global max-flows, B being the sum of ceil(log2 |T_i|) over
    the levels and q the ``maxflow.pairs_per_flow(g)`` copies of g that fit
    in one union flow, and one local max-flow. Its cuts are merged level by
    level, each terminal's own cut before the pivot's complement side, and
    only a value that lowers an estimate becomes a witness.
    """
    p = node_id(g.n, p, "pivot")
    if estimator is None:
        table = approx_single_source(g, p, eps)
    else:
        if g.edges.size and int(g.edges[:, 2].max()) > g.n ** 4:
            raise UnsupportedInput("edge weights must be at most n^4")
        table = estimator(g, p, eps)
        if table.pivot != p or np.shape(table.estimates) != (g.n,):
            raise ValueError(f"estimator must return a table for pivot {p} "
                             "with one estimate per node")
    levels = _level_sets(table, delta)
    # the built-in estimator is exact, so no isolating cut could lower it
    isolated = isolating_cuts_many(g, levels) if estimator is not None else []
    for iso in isolated:
        # each terminal's own cut first, as one level at a time would merge
        terms, values = iso.terminals, iso.values
        for i in np.flatnonzero((values < table.estimates[terms]) & (terms != p)).tolist():
            table.update(int(terms[i]), int(values[i]), iso.cut(i))
        # The pivot's own isolating cut bounds c'(v) for every v outside it;
        # the witness is the complement side, which contains those v.
        mine = int(np.searchsorted(terms, p))
        outside = iso.side_of != mine
        lowered = np.flatnonzero(outside & (values[mine] < table.estimates))
        if lowered.size:
            comp_cut = Cut(side=frozenset(np.flatnonzero(outside).tolist()), value=int(values[mine]))
            for v in lowered.tolist():
                table.update(v, comp_cut.value, comp_cut)
    return EstimateTable(pivot=p, estimates=table.estimates, witnesses=table.witnesses,
                         eps=eps, delta=delta, levels=tuple(levels))


def _lemma_unfriendly(g: Graph, p: int, v: int, s: Cut, heavy: int) -> bool:
    """Both lemmas: S must be a minimum p,v-cut in which node ``heavy`` (v
    or p) sends more than 0.6 of its degree across; check that the heavy
    node's side without it has cut value at most 0.8 * delta(S)."""
    p, v = node_id(g.n, p, "pivot"), node_id(g.n, v)
    if p == v:
        raise ValueError("pivot and node must differ")
    if v not in s.side or p in s.side:
        raise ValueError("cut side must contain v and exclude p")
    mask = proper_side_mask(g, s.side)
    if cut_weight(g, mask) != s.value:
        raise ValueError("cut value does not match its side")
    lam, _ = max_flow(g, p, v)
    if s.value != lam:
        raise ValueError("cut is not a minimum p,v-cut")
    who, side = ("v", "cut side") if heavy == v else ("p", "complement side")
    if not unfriendly_nodes(g, mask)[heavy]:
        raise ValueError(f"hypothesis violated: {who} does not send > 0.6 deg across")
    rest = mask.copy() if heavy == v else ~mask
    rest[heavy] = False
    if not rest.any():
        raise ValueError(f"degenerate: {side} is the singleton {{{who}}}")
    return 5 * cut_weight(g, rest) <= 4 * s.value


def lemma_unfriendly_v(g: Graph, p: int, v: int, s: Cut) -> bool:
    """Given a minimum p,v-cut S where v sends more than 0.6 of its degree
    across, check the witness inequality delta(S minus v) <= 0.8 * delta(S)."""
    return _lemma_unfriendly(g, p, v, s, v)


def lemma_unfriendly_p(g: Graph, p: int, v: int, s: Cut) -> bool:
    """Symmetric form for the pivot's side: given a minimum p,v-cut S where p
    sends more than 0.6 of its degree across, check
    delta((V minus S) minus p) <= 0.8 * delta(S)."""
    return _lemma_unfriendly(g, p, v, s, p)
