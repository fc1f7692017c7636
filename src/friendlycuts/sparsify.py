"""Friendly w-cut sparsifiers and terminal min-cut sparsifiers.

Every sparsifier is built from one round (``_round``): decompose the graph
under node demands, shave each cluster, then contract what remains of each
cluster. Shaving drops, simultaneously against the pre-shave graph, every
node whose degree is below ``LOW_DEGREE_FACTOR`` (10) times sqrt(w) times
the number of original nodes it stands for, and every node sending more
than ``OUTSIDE_FRACTION`` (1/10) of its degree outside its cluster.
Contraction happens per connected component of the shaved cluster, so the
output is a minor. The one-shot, terminal and iterative sparsifiers differ
only in the demands and thresholds of their rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

import numpy as np

from . import oracle
from .expander import Decomposition, decompose
from .graph import (
    ContractionMap,
    Cut,
    Graph,
    GraphParseError,
    Sparsifier,
    UnsupportedInput,
    component_labels,
    contract,
    cut_value,
    degrees,
    parse_graph,
    serialize_graph,
)

__all__ = [
    "SparsifyConfig",
    "PreservationReport",
    "friendly_sparsify_oneshot",
    "friendly_sparsify",
    "terminal_sparsify",
    "verify_friendly_preservation",
    "serialize_sparsifier",
    "parse_sparsifier",
    "default_phi",
]


LOW_DEGREE_FACTOR = 10
OUTSIDE_FRACTION = Fraction(1, 10)


@dataclass(frozen=True)
class SparsifyConfig:
    """Seed for the sparsifiers' randomized decompositions. phi is
    ``default_phi(n)``; the shaving constants are module constants."""

    seed: int = 0


@dataclass(frozen=True)
class PreservationReport:
    passed: bool
    cuts_checked: int
    witnesses: list[Cut] = field(default_factory=list)


def default_phi(n: int) -> Fraction:
    b = max(1, math.ceil(math.log2(max(n, 2)) ** 3))
    return Fraction(1, 100 * b)


def _require_simple(g: Graph, who: str) -> None:
    if g.edges.size and (g.edges[:, 2] != 1).any():
        raise UnsupportedInput(f"{who} requires a simple graph (all weights 1)")
    if g.extra_volume.size and g.extra_volume.any():
        raise UnsupportedInput(f"{who} requires a simple graph (no self-loop volume)")


def sqrt_upper(w: Fraction, prec: int = 1 << 10) -> Fraction:
    """Smallest rational of the form k/prec whose square is >= w (exact on
    perfect squares of rationals)."""
    w = Fraction(w)
    if w < 0:
        raise ValueError("sqrt of negative value")
    rn, rd = math.isqrt(w.numerator), math.isqrt(w.denominator)
    if rn * rn == w.numerator and rd * rd == w.denominator:
        return Fraction(rn, rd)
    k = math.isqrt((w.numerator * prec * prec) // w.denominator)
    while Fraction(k, prec) ** 2 < w:
        k += 1
    return Fraction(k, prec)


def _boundary_weights(g: Graph, labels: np.ndarray) -> np.ndarray:
    """Per-node total edge weight leaving the node's cluster."""
    out = np.zeros(g.n, dtype=np.int64)
    if g.edges.size:
        crossing = labels[g.edges[:, 0]] != labels[g.edges[:, 1]]
        np.add.at(out, g.edges[crossing, 0], g.edges[crossing, 2])
        np.add.at(out, g.edges[crossing, 1], g.edges[crossing, 2])
    return out


def _shave_mask(g: Graph, labels: np.ndarray, w: Fraction, sizes: np.ndarray) -> np.ndarray:
    """True for nodes removed by the simultaneous shaving rules."""
    deg = degrees(g)
    boundary = _boundary_weights(g, labels)
    f = LOW_DEGREE_FACTOR
    ofr = OUTSIDE_FRACTION
    out = np.zeros(g.n, dtype=bool)
    for v in range(g.n):
        d, b, s = int(deg[v]), int(boundary[v]), int(sizes[v])
        # deg < f*sqrt(w)*size  <=>  deg^2 * den(w) < f^2 * num(w) * size^2
        low = d * d * w.denominator < f * f * w.numerator * s * s
        outside = b * ofr.denominator > ofr.numerator * d
        out[v] = low or outside
    return out


def _cluster_labels(n: int, clusters) -> np.ndarray:
    labels = np.zeros(n, dtype=np.int64)
    for i, cl in enumerate(clusters):
        labels[list(cl)] = i
    return labels


def _contract_shaved(g: Graph, labels: np.ndarray, shaved: np.ndarray) -> ContractionMap:
    """Contract each cluster's surviving nodes, per connected component;
    shaved nodes keep no edge, so they stay singletons."""
    u, v = g.edges[:, 0], g.edges[:, 1]
    inner = ~shaved[u] & ~shaved[v] & (labels[u] == labels[v])
    return ContractionMap.from_labels(component_labels(g.n, u[inner], v[inner])[1])


def _round(g: Graph, demand, w: Fraction, phi: Fraction, seed: int,
           sizes: np.ndarray | None = None) -> tuple[ContractionMap, Decomposition]:
    """One decompose-shave-contract round at threshold w: decompose g under
    the node demands, shave each cluster (``sizes`` counts the original nodes
    behind each node of g, one each by default), and contract what survives."""
    dec = decompose(g, phi, demand, seed=seed)
    labels = _cluster_labels(g.n, dec.clusters)
    if sizes is None:
        sizes = np.ones(g.n, dtype=np.int64)
    shaved = _shave_mask(g, labels, w, sizes)
    return _contract_shaved(g, labels, shaved), dec


def friendly_sparsify_oneshot(g: Graph, w: int, cfg: SparsifyConfig | None = None) -> Sparsifier:
    """One-shot sparsifier: demand-driven decomposition, shave, contract.

    Preserves every friendly cut of value <= w (no contraction crosses one).
    """
    cfg = cfg or SparsifyConfig()
    _require_simple(g, "friendly_sparsify_oneshot")
    w = max(1, int(w))
    phi = default_phi(g.n)
    demand = [sqrt_upper(Fraction(w)) / phi] * g.n
    cmap, _ = _round(g, demand, Fraction(w), phi, cfg.seed)
    return Sparsifier.of(g, cmap)


def friendly_sparsify(g: Graph, w: int, cfg: SparsifyConfig | None = None) -> Sparsifier:
    """Iterative sparsifier: thresholds w_j = 4^{-j} (m/n)^2 down to w.

    Each round gives every node demand deg(v) + phi^{-1} sqrt(w_j) (its degree
    plus that much self-loop volume), decomposes the current contracted graph
    under those demands, shaves, and contracts. Returns the input unchanged
    when (m/n)^2 < w.
    """
    cfg = cfg or SparsifyConfig()
    _require_simple(g, "friendly_sparsify")
    w = max(1, int(w))
    if g.n == 0 or not g.edges.size:
        return Sparsifier.identity(g)
    phi = default_phi(g.n)
    wj = Fraction(g.total_weight, g.n) ** 2
    if wj < w:
        return Sparsifier.identity(g)
    cur = g
    cmap = ContractionMap.identity(g.n)
    j = 0
    while True:
        j += 1
        wj = wj / 4
        if wj < w:
            break
        loops = int(math.ceil(sqrt_upper(wj) / phi))
        step, _ = _round(cur, degrees(cur) + loops, wj, phi, cfg.seed + j, cmap.size_of)
        if step.n_super < cur.n:
            cur = contract(cur, step)
            cmap = cmap.compose(step)
    return Sparsifier(graph=cur, map=cmap, base_degrees=degrees(g))


def decomposition_outer_edges(g: Graph, w: int, cfg: SparsifyConfig | None = None) -> int:
    """Inter-cluster edge weight of the uniform-demand decomposition at
    threshold w (the quantity the one-shot size analysis charges against)."""
    cfg = cfg or SparsifyConfig()
    _require_simple(g, "decomposition_outer_edges")
    w = max(1, int(w))
    phi = default_phi(g.n)
    demand = [sqrt_upper(Fraction(w)) / phi] * g.n
    _, dec = _round(g, demand, Fraction(w), phi, cfg.seed)
    return dec.outer_edges


def terminal_sparsify(g: Graph, terminals: Iterable[int], w: int,
                      cfg: SparsifyConfig | None = None) -> Sparsifier:
    """Sparsifier preserving every <=w-value cut that is a minimum s,t-cut
    between two terminals: terminals get demand 3 phi^{-1} w, the rest
    phi^{-1} sqrt(w)."""
    cfg = cfg or SparsifyConfig()
    _require_simple(g, "terminal_sparsify")
    terms = frozenset(int(v) for v in terminals)
    if not terms:
        raise UnsupportedInput("terminal set must be non-empty")
    for v in terms:
        if not 0 <= v < g.n:
            raise UnsupportedInput(f"terminal {v} out of range")
    w = max(1, int(w))
    phi = default_phi(g.n)
    base = sqrt_upper(Fraction(w)) / phi
    big = Fraction(3 * w) / phi
    demand = [big if v in terms else base for v in range(g.n)]
    cmap, _ = _round(g, demand, Fraction(w), phi, cfg.seed)
    return Sparsifier.of(g, cmap)


def verify_friendly_preservation(g: Graph, h: Sparsifier, w: int) -> PreservationReport:
    """Enumerate friendly cuts of value <= w and assert each survives uncrossed
    with equal value in the contracted graph. Guarded to n <= 20."""
    if g.n > oracle.MAX_ENUM_NODES:
        raise ValueError(f"verification guard: n={g.n} exceeds {oracle.MAX_ENUM_NODES}")
    if h.map.n_original != g.n:
        raise ValueError("sparsifier does not match the graph")
    witnesses: list[Cut] = []
    cuts = oracle.friendly_cuts_up_to(g, w) if g.n >= 2 else []
    super_of = h.map.super_of
    for cut in cuts:
        side = np.zeros(g.n, dtype=bool)
        side[list(cut.side)] = True
        in_side = np.zeros(h.map.n_super, dtype=np.int64)
        np.add.at(in_side, super_of, side.astype(np.int64))
        crossed = ((in_side > 0) & (in_side < h.map.size_of)).any()
        if crossed:
            witnesses.append(cut)
            continue
        h_side = np.unique(super_of[side])
        if cut_value(h.graph, h_side) != cut.value:
            witnesses.append(cut)
    return PreservationReport(passed=not witnesses, cuts_checked=len(cuts),
                              witnesses=witnesses)


def serialize_sparsifier(h: Sparsifier) -> str:
    lines = [f"sparsifier {h.map.n_original} {h.map.n_super}"]
    lines.extend(str(int(s)) for s in h.map.super_of)
    lines.append(serialize_graph(h.graph).rstrip("\n"))
    return "\n".join(lines) + "\n"


def parse_sparsifier(text: str, base: Graph) -> Sparsifier:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("sparsifier"):
        raise GraphParseError("missing 'sparsifier' header", 1)
    parts = lines[0].split()
    if len(parts) != 3:
        raise GraphParseError("header must be 'sparsifier n_orig n_super'", 1)
    n_orig, n_super = int(parts[1]), int(parts[2])
    if n_orig != base.n:
        raise GraphParseError(
            f"sparsifier is for a {n_orig}-node graph, base has {base.n}", 1)
    if len(lines) < 1 + n_orig:
        raise GraphParseError("truncated contraction map", len(lines))
    try:
        labels = [int(lines[1 + i]) for i in range(n_orig)]
    except ValueError as exc:
        raise GraphParseError(f"bad map entry: {exc}", 2) from None
    cmap = ContractionMap.from_labels(labels)
    if cmap.n_super != n_super:
        raise GraphParseError("contraction map does not match header", 1)
    graph = parse_graph("\n".join(lines[1 + n_orig:]))
    return Sparsifier(graph=graph, map=cmap, base_degrees=degrees(base))
