import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from friendlycuts.graph import Graph, cut_value, is_friendly
from friendlycuts.maxflow import min_cut_between_sets
from friendlycuts.oracle import cut_table
from friendlycuts.sparsify import (
    SparsifyConfig,
    _contract_shaved,
    default_phi,
    friendly_sparsify,
    friendly_sparsify_oneshot,
    parse_sparsifier,
    serialize_sparsifier,
    sqrt_upper,
    terminal_sparsify,
    verify_friendly_preservation,
)


def complete(n):
    return Graph.build(n, [(u, v, 1) for u, v in itertools.combinations(range(n), 2)])


def random_simple(rng, n, p):
    edges = [(u, v, 1) for u, v in itertools.combinations(range(n), 2)
             if rng.random() < p]
    return Graph.build(n, edges)


def test_contract_shaved_splits_disconnected_cluster():
    g = Graph.build(4, [(0, 1, 1), (2, 3, 1)])
    one_cluster = np.zeros(4, dtype=np.int64)
    keep_all = np.zeros(4, dtype=bool)
    assert _contract_shaved(g, one_cluster, keep_all).super_of.tolist() == [0, 0, 1, 1]
    shaved = np.array([False, True, False, False])
    assert _contract_shaved(g, one_cluster, shaved).super_of.tolist() == [0, 1, 2, 2]


def test_sqrt_upper_exact_on_perfect_squares():
    assert sqrt_upper(Fraction(16)) == 4
    assert sqrt_upper(Fraction(225, 4)) == Fraction(15, 2)
    # iterative thresholds w_j = (m / (n 2^j))^2 are always of this form
    assert sqrt_upper(Fraction(49, 64)) == Fraction(7, 8)


def test_sqrt_upper_is_an_upper_bound():
    for w in (2, 3, 5, 7, 1000):
        r = sqrt_upper(Fraction(w))
        assert r * r >= w
        # and not wastefully loose
        assert float(r) < w ** 0.5 + 0.01


def test_default_phi_shrinks_with_n():
    assert default_phi(8) > default_phi(100) > default_phi(2000)
    assert default_phi(2) == Fraction(1, 100)


def test_oneshot_preserves_path_cuts():
    g = Graph.build(10, [(i, i + 1, 1) for i in range(9)])
    h = friendly_sparsify_oneshot(g, 2)
    report = verify_friendly_preservation(g, h, 2)
    assert report.passed


def test_oneshot_on_clique():
    g = complete(8)
    h = friendly_sparsify_oneshot(g, 2)
    assert verify_friendly_preservation(g, h, 2).passed


def test_oneshot_rejects_weighted_input():
    g = Graph.build(3, [(0, 1, 2), (1, 2, 1)])
    with pytest.raises(ValueError):
        friendly_sparsify_oneshot(g, 2)
    with pytest.raises(ValueError):
        friendly_sparsify(g, 2)


def test_iterative_identity_below_density_threshold():
    # (m/n)^2 < w: nothing to do, graph returned unchanged
    g = Graph.build(6, [(i, i + 1, 1) for i in range(5)])
    h = friendly_sparsify(g, 4)
    assert h.graph == g
    assert h.map.n_super == g.n


def test_both_variants_preserve_friendly_cuts_randomized():
    rng = random.Random(77)
    for _ in range(30):
        n = rng.randint(4, 12)
        g = random_simple(rng, n, rng.choice([0.3, 0.5, 0.7]))
        for w in (1, 2, 4, 8):
            for fn in (friendly_sparsify_oneshot, friendly_sparsify):
                h = fn(g, w)
                rep = verify_friendly_preservation(g, h, w)
                assert rep.passed, (n, w, fn.__name__, rep.witnesses[:1])


def test_preservation_verifier_catches_bad_sparsifier():
    from friendlycuts.graph import ContractionMap, Sparsifier

    # path of 4: contracting across the friendly middle cut must be flagged
    g = Graph.build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    bad = Sparsifier.of(g, ContractionMap.from_classes(4, [{1, 2}]))
    rep = verify_friendly_preservation(g, bad, 2)
    assert not rep.passed
    assert rep.witnesses


def test_terminal_sparsifier_keeps_terminals_separate():
    g = Graph.build(6, [(0, i, 1) for i in range(1, 6)])
    h = terminal_sparsify(g, [1, 2, 3], 4)
    sup = h.map.super_of
    assert len({int(sup[1]), int(sup[2]), int(sup[3])}) == 3


def test_terminal_sparsifier_preserves_terminal_min_cuts():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(4, 10)
        g = random_simple(rng, n, 0.5)
        terms = rng.sample(range(n), min(3, n))
        w = rng.choice([2, 4, 8])
        h = terminal_sparsify(g, terms, w)
        members, values, _ = cut_table(g, with_friendliness=False)
        for s, t in itertools.combinations(terms, 2):
            sep = members[:, s] != members[:, t]
            lam = int(values[sep].min())
            if lam > w:
                continue
            ss, tt = int(h.map.super_of[s]), int(h.map.super_of[t])
            assert ss != tt, (s, t)
            val, _ = min_cut_between_sets(h.graph, [ss], [tt])
            assert val == lam, (s, t, val, lam)


def test_serialization_roundtrip():
    rng = random.Random(1)
    g = random_simple(rng, 9, 0.5)
    h = friendly_sparsify_oneshot(g, 4)
    text = serialize_sparsifier(h)
    back = parse_sparsifier(text, g)
    assert back.graph == h.graph
    assert back.map == h.map


def test_parse_sparsifier_rejects_wrong_base():
    g = complete(5)
    h = friendly_sparsify_oneshot(g, 2)
    text = serialize_sparsifier(h)
    with pytest.raises(ValueError):
        parse_sparsifier(text, complete(6))


def test_seed_determinism():
    rng = random.Random(10)
    g = random_simple(rng, 12, 0.5)
    a = friendly_sparsify(g, 2, SparsifyConfig(seed=3))
    b = friendly_sparsify(g, 2, SparsifyConfig(seed=3))
    assert a.graph == b.graph and a.map == b.map
