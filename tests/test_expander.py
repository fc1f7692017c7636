import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from friendlycuts.expander import (
    INFINITE_CONDUCTANCE,
    K_EXACT_DEFAULT,
    certify_cluster,
    conductance,
    decompose,
    demand_conductance,
)
from friendlycuts.graph import Graph, degrees


def complete(n):
    return Graph.build(n, [(u, v, 1) for u, v in itertools.combinations(range(n), 2)])


def two_cliques_bridge(k):
    edges = [(u, v, 1) for u, v in itertools.combinations(range(k), 2)]
    edges += [(u + k, v + k, 1) for u, v in itertools.combinations(range(k), 2)]
    edges.append((0, k, 1))
    return Graph.build(2 * k, edges)


def test_conductance_half_clique():
    # K_8 half split: 16 crossing edges, smaller side volume 28
    g = complete(8)
    assert conductance(g, {0, 1, 2, 3}) == Fraction(16, 28)


def test_conductance_bridge_is_low():
    g = two_cliques_bridge(6)
    # one side: 6-clique volume 31 (including the bridge endpoint), 1 crossing
    assert conductance(g, set(range(6))) == Fraction(1, 31)


def test_conductance_exact_fraction_not_float():
    g = Graph.build(3, [(0, 1, 1), (1, 2, 2)])
    val = conductance(g, {0})
    assert isinstance(val, Fraction)
    assert val == Fraction(1, 1)


def test_conductance_isolated_side_infinite():
    g = Graph.build(3, [(1, 2, 1)])
    assert conductance(g, {0}) == INFINITE_CONDUCTANCE


def test_demand_conductance_overrides_volumes():
    g = Graph.build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    assert demand_conductance(g, [1, 1, 1, 1], {0, 1}) == Fraction(1, 2)
    assert demand_conductance(g, [10, 10, 1, 1], {0, 1}) == Fraction(1, 2)


def test_decompose_keeps_expander_whole():
    g = complete(8)
    dec = decompose(g, Fraction(1, 10))
    assert dec.clusters == [frozenset(range(8))]
    assert dec.outer_edges == 0
    assert all(dec.certified)


def test_decompose_certifies_only_enumerated_clusters():
    # the sweep finds no sparse cut in K_8, but with k_exact=4 no cut was
    # enumerated, so the cluster it keeps whole is not certified
    dec = decompose(complete(8), Fraction(1, 10), k_exact=4)
    assert dec.clusters == [frozenset(range(8))]
    assert dec.certified == [False]


def test_decompose_splits_bridge():
    g = two_cliques_bridge(6)
    dec = decompose(g, Fraction(1, 10))
    assert sorted(map(sorted, dec.clusters)) == [list(range(6)), list(range(6, 12))]
    assert dec.outer_edges == 1


def test_decompose_separates_components():
    g = Graph.build(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)])
    dec = decompose(g, Fraction(1, 10))
    assert len(dec.clusters) == 2
    assert dec.outer_edges == 0


def test_decompose_clusters_certify_exactly():
    rng = random.Random(6)
    for _ in range(15):
        n = rng.randint(4, 12)
        edges = [(u, v, 1) for u, v in itertools.combinations(range(n), 2)
                 if rng.random() < 0.4]
        g = Graph.build(n, edges)
        phi = Fraction(1, 20)
        dec = decompose(g, phi)
        for cl in dec.clusters:
            assert certify_cluster(g, cl, phi, mode="exact").ok


def test_certify_reports_witness():
    g = two_cliques_bridge(5)
    res = certify_cluster(g, range(10), Fraction(1, 5), mode="exact")
    assert not res.ok
    assert res.witness is not None
    # the witness really is a low-conductance internal cut
    assert conductance(g, res.witness) < Fraction(1, 5)


def test_certify_disconnected_cluster_fails():
    g = Graph.build(4, [(0, 1, 1), (2, 3, 1)])
    res = certify_cluster(g, range(4), Fraction(1, 100), mode="exact")
    assert not res.ok


def test_refinement_monotone_in_phi():
    """Shrinking phi never increases the number of clusters."""
    rng = random.Random(2)
    for _ in range(10):
        n = rng.randint(5, 12)
        edges = [(u, v, 1) for u, v in itertools.combinations(range(n), 2)
                 if rng.random() < 0.5]
        g = Graph.build(n, edges)
        counts = []
        for denom in (4, 8, 16, 64, 256):
            dec = decompose(g, Fraction(1, denom))
            counts.append(len(dec.clusters))
        assert counts == sorted(counts, reverse=True)


def test_decompose_with_uniform_demands_matches_spec_guarantee():
    # every cluster internal cut must clear phi under boundary-augmented demands
    rng = random.Random(8)
    for _ in range(8):
        n = rng.randint(4, 10)
        edges = [(u, v, 1) for u, v in itertools.combinations(range(n), 2)
                 if rng.random() < 0.5]
        g = Graph.build(n, edges)
        phi = Fraction(1, 30)
        d = [Fraction(5, 2)] * n
        dec = decompose(g, phi, d)
        for cl in dec.clusters:
            assert certify_cluster(g, cl, phi, d, mode="exact").ok


def test_extra_volume_decomposes_like_degree_plus_volume_demand():
    # the iterative sparsifier decomposes under demand deg(v) + x(v) rather
    # than giving the graph self-loop volume x; both must split the same way
    rng = random.Random(12)
    large = splits = 0
    for trial in range(12):
        n = rng.randint(20, 48)
        p = rng.choice([0.15, 0.3, 0.6])
        edges = [(u, v, rng.randint(1, 3) if trial % 2 else 1)
                 for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
        x = np.array([rng.randint(0, 30) for _ in range(n)], dtype=np.int64)
        phi = Fraction(1, rng.choice([4, 10, 40]))
        plain = Graph.build(n, edges)
        a = decompose(Graph.build(n, edges, extra_volume=x), phi, seed=trial)
        b = decompose(plain, phi, degrees(plain) + x, seed=trial)
        assert a.clusters == b.clusters
        assert a.certified == b.certified
        assert a.outer_edges == b.outer_edges
        large += sum(len(c) > K_EXACT_DEFAULT for c in a.clusters)
        splits += len(a.clusters) > 1
    assert large and splits  # both the sampled search and real splits ran


def test_decompose_rejects_bad_phi():
    g = complete(3)
    with pytest.raises(ValueError):
        decompose(g, Fraction(3, 2))
    with pytest.raises(ValueError):
        decompose(g, 0)


def test_decompose_deterministic_for_seed():
    g = two_cliques_bridge(7)
    a = decompose(g, Fraction(1, 50), seed=5)
    b = decompose(g, Fraction(1, 50), seed=5)
    assert a.clusters == b.clusters


def test_sampled_certification_on_larger_cluster():
    g = complete(30)
    res = certify_cluster(g, range(30), Fraction(1, 10), mode="sampled")
    assert res.ok
    res = certify_cluster(two_cliques_bridge(20), range(40), Fraction(1, 10),
                          mode="sampled")
    assert not res.ok and res.witness is not None
