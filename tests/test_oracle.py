import itertools
import random

import numpy as np
import pytest

from friendlycuts import oracle
from friendlycuts.graph import Graph, cut_value, is_friendly
from friendlycuts.maxflow import max_flow
from friendlycuts.oracle import (
    MAX_CLASSIFY_NODES,
    MAX_ENUM_NODES,
    Friendliness,
    all_pairs_min_cut,
    cut_table,
    enumerate_cuts,
    friendly_cuts_up_to,
    min_cut_friendliness,
)


def cycle(n):
    return Graph.build(n, [(i, (i + 1) % n, 1) for i in range(n)])


def test_enumeration_count():
    g = Graph.build(5, [(0, 1, 1), (2, 3, 1)])
    cuts = list(enumerate_cuts(g))
    assert len(cuts) == 2 ** 4 - 1
    assert all(0 in c.side for c in cuts)
    # all sides distinct
    assert len({c.side for c in cuts}) == len(cuts)


def test_enumeration_values_against_direct_computation():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(3, 7)
        edges = [(u, v, rng.randint(1, 5))
                 for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.6]
        g = Graph.build(n, edges)
        for c in enumerate_cuts(g):
            assert c.value == cut_value(g, c.side)


def test_cut_table_friendliness_agrees_with_is_friendly():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randint(3, 8)
        edges = [(u, v, rng.randint(1, 4))
                 for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph.build(n, edges)
        members, values, friendly = cut_table(g)
        for row, f in zip(members, friendly):
            side = frozenset(int(v) for v in np.flatnonzero(row))
            assert bool(f) == is_friendly(g, side)


def test_guards_are_hard_errors():
    big = Graph.build(MAX_ENUM_NODES + 1)
    with pytest.raises(ValueError):
        cut_table(big)
    mid = Graph.build(MAX_CLASSIFY_NODES + 1, [(0, 1, 1)])
    with pytest.raises(ValueError):
        min_cut_friendliness(mid, 0, 1)


def test_all_pairs_matches_max_flow():
    rng = random.Random(12)
    n = 7
    edges = [(u, v, rng.randint(1, 4))
             for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.5]
    g = Graph.build(n, edges)
    lam = all_pairs_min_cut(g)
    for s, t in itertools.combinations(range(n), 2):
        assert lam[s, t] == max_flow(g, s, t)[0]
    assert np.array_equal(lam, lam.T)


def test_all_pairs_ultrametric_property():
    """lambda(s,t) >= min(lambda(s,u), lambda(u,t)) for every triple."""
    rng = random.Random(21)
    for _ in range(10):
        n = rng.randint(4, 8)
        edges = [(u, v, rng.randint(1, 5))
                 for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.6]
        g = Graph.build(n, edges)
        lam = all_pairs_min_cut(g)
        for s, u, t in itertools.permutations(range(n), 3):
            assert lam[s, t] >= min(lam[s, u], lam[u, t])


def test_classification_endpoint_of_path():
    # path a-b-c, pair (a, c): the minimum cuts are {a} and {a,b}, and both
    # strand one endpoint with its whole degree across, so all are unfriendly
    g = Graph.build(3, [(0, 1, 1), (1, 2, 1)])
    rep = min_cut_friendliness(g, 0, 2)
    assert rep.value == 1
    assert rep.kind is Friendliness.ALL_UNFRIENDLY


def test_classification_clique_all_unfriendly():
    g = Graph.build(6, [(u, v, 1) for u, v in itertools.combinations(range(6), 2)])
    rep = min_cut_friendliness(g, 0, 3)
    assert rep.value == 5
    assert rep.kind is Friendliness.ALL_UNFRIENDLY


def test_classification_cycle_mixed():
    # C_6, opposite pair: value-2 cuts include the friendly half-split and
    # the unfriendly singletons
    rep = min_cut_friendliness(cycle(6), 0, 3)
    assert rep.value == 2
    assert rep.kind is Friendliness.MIXED


def test_classification_inner_path_pair_all_friendly():
    # path of 4, middle pair: the unique minimum cut is the balanced split
    g = Graph.build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    rep = min_cut_friendliness(g, 1, 2)
    assert rep.value == 1
    assert rep.kind is Friendliness.ALL_FRIENDLY


def test_friendly_cuts_up_to_threshold():
    g = cycle(6)
    cuts = friendly_cuts_up_to(g, 2)
    for c in cuts:
        assert c.value <= 2
        assert is_friendly(g, c.side)
    # the three opposite half-splits containing node 0 are all present
    sides = {c.side for c in cuts}
    assert frozenset({0, 1, 2}) in sides
    assert frozenset({5, 0, 1}) in sides
    assert frozenset({4, 5, 0}) in sides


def test_a_flow_value_no_cut_achieves_is_an_internal_error(monkeypatch):
    # a failed internal check raises, also under python -O
    def low_max_flow(g, s, t):
        value, cut = max_flow(g, s, t)
        return value - 1, cut

    monkeypatch.setattr(oracle, "max_flow", low_max_flow)
    with pytest.raises(RuntimeError, match="achieved"):
        min_cut_friendliness(cycle(5), 0, 2)
