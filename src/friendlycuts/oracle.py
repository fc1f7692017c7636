"""Brute-force ground truth on small instances.

Everything here enumerates; nothing approximates. Guards are hard errors so
the oracle can never silently degrade into an estimate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .graph import CROSS_DEN, CROSS_NUM, Cut, Graph, degrees
from .maxflow import max_flow

__all__ = [
    "MAX_ENUM_NODES",
    "MAX_CLASSIFY_NODES",
    "Friendliness",
    "FriendlinessReport",
    "enumerate_cuts",
    "cut_table",
    "all_pairs_min_cut",
    "min_cut_friendliness",
    "friendly_cuts_up_to",
]

MAX_ENUM_NODES = 20
MAX_CLASSIFY_NODES = 16

_CHUNK = 1 << 16


class Friendliness(enum.Enum):
    ALL_FRIENDLY = "AllFriendly"
    ALL_UNFRIENDLY = "AllUnfriendly"
    MIXED = "Mixed"


@dataclass(frozen=True)
class FriendlinessReport:
    kind: Friendliness
    value: int


def _check_enum_guard(g: Graph, limit: int) -> None:
    if g.n > limit:
        raise ValueError(f"graph has {g.n} nodes; oracle guard is {limit}")
    if g.n < 2:
        raise ValueError("need at least 2 nodes to enumerate cuts")


def _membership_block(n: int, start: int, stop: int) -> np.ndarray:
    """Boolean membership rows for cut indices [start, stop); node 0 always in."""
    idx = np.arange(start, stop, dtype=np.int64)
    bits = ((idx[:, None] >> np.arange(n - 1, dtype=np.int64)) & 1).astype(bool)
    return np.concatenate([np.ones((len(idx), 1), dtype=bool), bits], axis=1)


def cut_table(g: Graph, with_friendliness: bool = True):
    """All 2^(n-1) - 1 cuts (side containing node 0) as bulk arrays.

    Returns (membership, values, friendly) where membership is (ncuts, n) bool,
    values is int64, and friendly is bool (or None when not requested).
    """
    _check_enum_guard(g, MAX_ENUM_NODES)
    n = g.n
    total = (1 << (n - 1)) - 1
    deg = degrees(g)
    if g.edges.size:
        eu, ev, ew = g.edges[:, 0], g.edges[:, 1], g.edges[:, 2]
        inc = np.zeros((len(eu), n), dtype=np.int64)
        inc[np.arange(len(eu)), eu] = ew
        inc[np.arange(len(eu)), ev] = ew
    else:
        eu = ev = ew = None
        inc = None
    members = np.zeros((total, n), dtype=bool)
    values = np.zeros(total, dtype=np.int64)
    friendly = np.zeros(total, dtype=bool) if with_friendliness else None
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        m = _membership_block(n, start, stop)
        members[start:stop] = m
        if eu is None:
            if with_friendliness:
                friendly[start:stop] = True
            continue
        crossing = m[:, eu] != m[:, ev]
        values[start:stop] = crossing @ ew
        if with_friendliness:
            node_cross = crossing @ inc
            friendly[start:stop] = ~(node_cross > CROSS_NUM * deg // CROSS_DEN).any(axis=1)
    return members, values, friendly


def enumerate_cuts(g: Graph) -> Iterator[Cut]:
    """Every bipartition whose side contains node 0, with its exact value."""
    members, values, _ = cut_table(g, with_friendliness=False)
    for row, val in zip(members, values):
        yield Cut(side=frozenset(int(v) for v in np.flatnonzero(row)), value=int(val))


def all_pairs_min_cut(g: Graph) -> np.ndarray:
    """Matrix of min s,t-cut values via one max-flow per pair."""
    lam = np.zeros((g.n, g.n), dtype=np.int64)
    for s in range(g.n):
        for t in range(s + 1, g.n):
            value, _ = max_flow(g, s, t)
            lam[s, t] = lam[t, s] = value
    return lam


def min_cut_friendliness(g: Graph, s: int, t: int) -> FriendlinessReport:
    """Classify every minimum s,t-cut as friendly/unfriendly by full enumeration."""
    _check_enum_guard(g, MAX_CLASSIFY_NODES)
    if s == t:
        raise ValueError("source and sink must differ")
    lam, _ = max_flow(g, s, t)
    members, values, friendly = cut_table(g)
    separates = members[:, s] != members[:, t]
    at_min = separates & (values == lam)
    if not at_min.any():
        raise RuntimeError("max-flow value must be achieved by some enumerated cut")
    kinds = friendly[at_min]
    if kinds.all():
        kind = Friendliness.ALL_FRIENDLY
    elif not kinds.any():
        kind = Friendliness.ALL_UNFRIENDLY
    else:
        kind = Friendliness.MIXED
    return FriendlinessReport(kind=kind, value=int(lam))


def friendly_cuts_up_to(g: Graph, w: int) -> list[Cut]:
    """All friendly cuts of value <= w (sides containing node 0)."""
    members, values, friendly = cut_table(g)
    keep = friendly & (values <= w)
    return [
        Cut(side=frozenset(int(v) for v in np.flatnonzero(members[i])), value=int(values[i]))
        for i in np.flatnonzero(keep)
    ]
