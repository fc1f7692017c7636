import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from friendlycuts.expander import decompose
from friendlycuts.generators import clique_of_cliques, gnp
from friendlycuts.graph import Graph, GraphParseError, Sparsifier, cut_value, is_friendly
from friendlycuts.maxflow import min_cut_between_sets
from friendlycuts.oracle import cut_table
from friendlycuts.sparsify import (
    SparsifyConfig,
    _contract_shaved,
    decomposition_outer_edges,
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


@pytest.mark.parametrize("build", [
    friendly_sparsify_oneshot,
    friendly_sparsify,
    decomposition_outer_edges,
    lambda g, w: terminal_sparsify(g, [0, 3], w),
], ids=["oneshot", "iterative", "outer-edges", "terminal"])
def test_threshold_must_be_an_integer_of_at_least_one(build):
    # a dense graph, so the iterative sparsifier runs rounds at w = 1
    g = complete(8)
    for bad in (0, -3, 2.5, Fraction(7, 2)):
        with pytest.raises(ValueError, match="threshold w"):
            build(g, bad)
    assert build(g, 4) == build(g, 4.0) == build(g, Fraction(4))


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
    assert text.startswith(f"sparsifier 9 {h.map.n_super}\n") and back == h
    gh = Sparsifier(graph=h.graph, map=h.map, guarantee="gh-based")
    text = serialize_sparsifier(gh)
    assert text.startswith(f"sparsifier 9 {h.map.n_super} gh-based\n")
    assert parse_sparsifier(text, g) == gh


def test_parse_sparsifier_rejects_wrong_base():
    g = complete(5)
    h = friendly_sparsify_oneshot(g, 2)
    text = serialize_sparsifier(h)
    with pytest.raises(ValueError):
        parse_sparsifier(text, complete(6))


_PAIRS = "sparsifier 4 2\n0\n0\n1\n1\n2 1\n0 1 2\n"


@pytest.mark.parametrize("text, line", [
    (_PAIRS.replace("0 1 2", "0 x 2"), 7),  # bad edge in the graph section
    ("# made by hand\n" + _PAIRS.replace("0 1 2", "0 x 2"), 8),
    (_PAIRS.replace("1\n1\n2 1", "q\n1\n2 1"), 4),  # bad map entry
    (_PAIRS.replace("2 1\n0 1 2", "3 1\n0 1 2"), 6),  # graph size against the header
    (_PAIRS.replace("0\n0\n1\n1", "1\n1\n0\n0"), 2),  # ids not in first-appearance order
    (_PAIRS.replace("0\n0\n1\n1", "0\n2\n1\n1"), 3),
    (_PAIRS.replace("0\n0\n1\n1", "0\n-1\n1\n1"), 3),
], ids=["bad-edge", "bad-edge-after-comment", "bad-map-entry", "graph-size",
        "ids-reversed", "id-skipped", "id-negative"])
def test_parse_sparsifier_names_the_files_own_line(text, line):
    with pytest.raises(GraphParseError) as info:
        parse_sparsifier(text, complete(4))
    assert info.value.line == line


def test_seed_determinism():
    rng = random.Random(10)
    g = random_simple(rng, 12, 0.5)
    a = friendly_sparsify(g, 2, SparsifyConfig(seed=3))
    b = friendly_sparsify(g, 2, SparsifyConfig(seed=3))
    assert a.graph == b.graph and a.map == b.map


def _digest(labels):
    return hashlib.sha256(np.asarray(labels, dtype="<i8").tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("make, w, n_super, pin", [
    (lambda: clique_of_cliques(9), 4, 270, "e46f8f2335e35520"),
    (lambda: clique_of_cliques(9), 16, 270, "e46f8f2335e35520"),
    (lambda: clique_of_cliques(16), 4, 16, "296ae76c053f3f89"),
    (lambda: gnp(250, 2 * math.log(250) / 249, seed=7), 4, 250, "b7e4004a0c57b348"),
], ids=["coc9-w4", "coc9-w16", "coc16-w4", "gnp250-w4"])
def test_sparsifier_outputs_are_pinned_at_fixed_seeds(make, w, n_super, pin):
    """The sparsifier's contraction map at seed 7, pinned across code
    versions: a change to the expander decomposition or to the rounds must
    leave it as it is. A change meant to alter outputs must update these
    pins (and the decomposition pin below) and say so in CHANGES.md."""
    h = friendly_sparsify(make(), w, SparsifyConfig(seed=7))
    assert (h.map.n_super, _digest(h.map.super_of)) == (n_super, pin)


def test_decomposition_is_pinned_at_a_fixed_seed():
    """The clusters, in order, that the sampled search finds in
    clique_of_cliques(9) at seed 7; see the sparsifier pins above."""
    g = clique_of_cliques(9)
    dec = decompose(g, Fraction(1, 10), seed=7)
    labels = np.zeros(g.n, dtype=np.int64)
    for i, cluster in enumerate(dec.clusters):
        labels[sorted(cluster)] = i
    assert (_digest(labels), dec.outer_edges, dec.certified) == (
        "eae2412769bcd38e", 36, [False] * 9)


def test_decomposition_outer_edges_is_pinned_at_a_fixed_seed():
    """The one-shot decomposition's inter-cluster weight that ``bench``
    reports, at clique_of_cliques(16), w = 4, seed 7."""
    assert decomposition_outer_edges(clique_of_cliques(16), 4, SparsifyConfig(seed=7)) == 120
