"""Minimum isolating cuts for terminal sets.

``isolating_cuts_many`` answers any number of terminal sets of one graph
together, in ceil(B / q) + 1 max-flows in all, where B is the sum of
ceil(log2 |R|) over the sets R and q = ``maxflow.pairs_per_flow(g)`` is how
many copies of g fit in one union flow; ``isolating_cuts`` is the one-set
case, which makes 2 max-flows when q >= ceil(log2 |R|).

The global flows. Set R's cut b separates the terminals whose index within R
has bit b clear from those whose bit b is set. Every set's bipartitions go
to one ``maxflow.min_cuts_between_sets`` call, which answers q of them per
max-flow on a disjoint union of copies of the graph. For each set, each
node x gets the code whose bit b is set when x is not on cut b's minimal
source side, and terminal i's region is the set of nodes with code i. So
one set's regions are the intersections of the sides, pairwise disjoint by
construction, and terminal i lies in region i.

The local flow. Terminal i's local problem is terminal i against
everything outside region i. One set's regions are disjoint, so all its k
local problems are independent (the isolating-cuts lemma of Li and
Panigrahi, FOCS'20), and every set's problems are answered by one more
max-flow: a ``maxflow`` union flow (see there) with one row per set, whose
problems are the set's regions and whose sources are its terminals. Each
terminal's minimal local side is then its region's part of the union's
minimal source side. The value of each side is its boundary weight in the
input graph, and the values of the whole batch must sum to the flow plus
the S-T weight the union left out.

The direct path runs one max-flow per terminal and serves as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .graph import Cut, Graph, UnsupportedInput, crossing_weights, node_ids
from .maxflow import _union_flow, min_cut_between_sets, min_cuts_between_sets, pairs_per_flow

__all__ = ["IsolatingCuts", "isolating_cuts", "isolating_cuts_many", "isolating_cuts_direct"]


@dataclass(frozen=True, eq=False)
class IsolatingCuts:
    """The minimum isolating cuts of one terminal set, as arrays: the sorted
    terminals, each one's cut value, and for every node of the graph the
    index in ``terminals`` of the terminal whose side holds it (-1 for
    none). The flow counts are those of the call that answered the set,
    shared by every set answered with it."""

    terminals: np.ndarray
    values: np.ndarray
    side_of: np.ndarray
    global_flow_calls: int
    local_flow_calls: int

    def cut(self, i: int) -> Cut:
        """The cut of ``terminals[i]``."""
        return Cut(side=frozenset(np.flatnonzero(self.side_of == i).tolist()),
                   value=int(self.values[i]))

    @cached_property
    def cuts(self) -> dict[int, Cut]:
        """Each terminal's cut, built on first read."""
        return {int(v): self.cut(i) for i, v in enumerate(self.terminals)}


def _check_terminals(g: Graph, r: Iterable[int]) -> np.ndarray:
    terms = np.unique(node_ids(g.n, r, "terminal"))
    if terms.size < 2:
        raise UnsupportedInput("need at least 2 terminals")
    terms.setflags(write=False)
    return terms


def _regions(g: Graph, term_sets: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """Per set, the region index of every node (-1 outside all its regions),
    one row per set; and the number of global flows run."""
    bits = [max(1, (terms.size - 1).bit_length()) for terms in term_sets]
    pairs = []
    for terms, b in zip(term_sets, bits):
        ones = ((np.arange(terms.size) >> np.arange(b)[:, None]) & 1).astype(bool)
        pairs += [(terms[~row], terms[row]) for row in ones]
    _, sides = min_cuts_between_sets(g, pairs)
    region = np.empty((len(term_sets), g.n), dtype=np.int64)
    start = 0
    for row, terms, b in zip(region, term_sets, bits):
        code = (1 << np.arange(b)) @ ~sides[start:start + b]
        start += b
        if not np.array_equal(code[terms], np.arange(terms.size)):
            raise RuntimeError("a terminal is not in its own region")
        row[:] = np.where(code < terms.size, code, -1)
    return region, math.ceil(len(pairs) / pairs_per_flow(g))


def isolating_cuts_many(g: Graph, terminal_sets: Sequence[Iterable[int]]) -> list[IsolatingCuts]:
    """The minimum isolating cuts of every set in ``terminal_sets``, each as
    ``isolating_cuts`` returns it, in ceil(B / pairs_per_flow(g)) global
    max-flows (B: the sum of ceil(log2 |R|) over the sets R) and one local
    max-flow in all; none for an empty list. Raises UnsupportedInput
    exactly when ``isolating_cuts`` would on some set."""
    term_sets = [_check_terminals(g, r) for r in terminal_sets]
    if not term_sets:
        return []
    region, global_calls = _regions(g, term_sets)
    terminal = np.zeros(region.shape, dtype=bool)
    for row, terms in zip(terminal, term_sets):
        row[terms] = True
    in_side, flow, st_weights = _union_flow(g, region, terminal)
    side_of = np.where(in_side, region, -1)
    side_of.setflags(write=False)
    results, total = [], 0
    for terms, sides in zip(term_sets, side_of):
        # every side holds its terminal; an edge between two sides counts toward both
        values = np.zeros(terms.size, dtype=np.int64)
        held = sides >= 0
        np.add.at(values, sides[held], crossing_weights(g, sides)[held])
        values.setflags(write=False)
        total += int(values.sum())
        results.append(IsolatingCuts(terminals=terms, values=values, side_of=sides,
                                     global_flow_calls=global_calls, local_flow_calls=1))
    if total != flow + int(st_weights.sum()):
        raise RuntimeError("isolating cut values do not sum to the local flow value")
    return results


def isolating_cuts(g: Graph, r: Iterable[int]) -> IsolatingCuts:
    """Minimum isolating cut S_v for every terminal v; sides pairwise disjoint."""
    return isolating_cuts_many(g, [r])[0]


def isolating_cuts_direct(g: Graph, r: Iterable[int]) -> IsolatingCuts:
    """Oracle: per terminal, one max-flow against the other terminals contracted."""
    terms = _check_terminals(g, r)
    values = np.zeros(terms.size, dtype=np.int64)
    side_of = np.full(g.n, -1, dtype=np.int64)
    for i, v in enumerate(terms.tolist()):
        values[i], cut = min_cut_between_sets(g, [v], np.delete(terms, i))
        side = np.fromiter(cut.side, dtype=np.int64, count=len(cut.side))
        # minimal minimum isolating cuts are pairwise disjoint
        if (side_of[side] >= 0).any():
            raise RuntimeError("minimal isolating cuts overlap")
        side_of[side] = i
    return IsolatingCuts(terminals=terms, values=values, side_of=side_of,
                         global_flow_calls=0, local_flow_calls=terms.size)
