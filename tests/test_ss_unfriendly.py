import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from friendlycuts.graph import CROSS_DEN, CROSS_NUM, Cut, Graph, crossing_weights, cut_value, degrees
from friendlycuts.maxflow import max_flow
from friendlycuts.oracle import Friendliness, all_pairs_min_cut, cut_table, min_cut_friendliness
from friendlycuts.ss_unfriendly import (
    EstimateTable,
    _level_sets,
    approx_single_source,
    lemma_unfriendly_p,
    lemma_unfriendly_v,
    single_source_unfriendly,
)


def complete(n):
    return Graph.build(n, [(u, v, 1) for u, v in itertools.combinations(range(n), 2)])


def dumbbell():
    edges = [(u, v, 1) for u, v in itertools.combinations(range(5), 2)]
    edges += [(u + 5, v + 5, 1) for u, v in itertools.combinations(range(5), 2)]
    edges.append((4, 5, 1))
    return Graph.build(10, edges)


def random_graph(rng, n, p, wmax=4):
    edges = [(u, v, rng.randint(1, wmax))
             for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.build(n, edges)


def check_soundness(g, table):
    """Every estimate must carry a witness cut of exactly that value."""
    lam = all_pairs_min_cut(g)
    for v in range(g.n):
        if v == table.pivot:
            continue
        c = table.estimate(v)
        assert c >= lam[table.pivot, v]
        w = table.witnesses[v]
        assert v in w.side and table.pivot not in w.side
        assert cut_value(g, w.side) == w.value == c
    return lam


def test_exact_estimates_on_clique():
    table = approx_single_source(complete(4), 0)
    assert [table.estimate(v) for v in (1, 2, 3)] == [3, 3, 3]


def test_exact_estimates_on_path():
    g = Graph.build(5, [(i, i + 1, 1) for i in range(4)])
    table = approx_single_source(g, 0)
    assert all(table.estimate(v) == 1 for v in range(1, 5))
    check_soundness(g, table)


def test_exact_estimates_on_dumbbell():
    g = dumbbell()
    table = approx_single_source(g, 0)
    lam = check_soundness(g, table)
    for v in range(1, 10):
        assert table.estimate(v) == lam[0, v]


def test_estimator_replaces_exact_flows():
    g = dumbbell()
    table = approx_single_source(g, 0)
    assert approx_single_source(g, 0, estimator=lambda h, p, eps: table) is table
    calls = []

    def estimator(h, p, eps):
        calls.append((h, p))
        return approx_single_source(h, p, eps)

    check_soundness(g, single_source_unfriendly(g, 0, estimator=estimator))
    assert calls == [(g, 0)]


def test_unfriendly_clique_all_exact():
    g = complete(6)
    table = single_source_unfriendly(g, 2)
    assert all(table.estimate(v) == 5 for v in range(6) if v != 2)
    check_soundness(g, table)


def test_unfriendly_path_endpoint():
    g = Graph.build(6, [(i, i + 1, 1) for i in range(5)])
    table = single_source_unfriendly(g, 0)
    assert all(table.estimate(v) == 1 for v in range(1, 6))


def test_dumbbell_cross_pair_upper_bound_only():
    # the only min cut across the bridge is friendly, so only soundness is
    # promised for cross pairs
    g = dumbbell()
    table = single_source_unfriendly(g, 0)
    check_soundness(g, table)
    assert table.estimate(7) >= 1


def test_weight_guard():
    g = Graph.build(3, [(0, 1, 3 ** 4 * 2), (1, 2, 1)])
    with pytest.raises(ValueError):
        single_source_unfriendly(g, 0)


def test_level_structure():
    rng = random.Random(19)
    g = random_graph(rng, 10, 0.5)
    table = single_source_unfriendly(g, 0)
    # levels are distinct, each contains the pivot, thresholds are geometric
    assert len(table.levels) == len(set(table.levels))
    for t in table.levels:
        assert 0 in t
    # level count stays logarithmic in total weight
    import math
    bound = math.ceil(math.log(max(2, g.total_weight * g.n), 1.01))
    assert len(table.levels) <= bound


def definition_levels(estimates, p, delta):
    """{v != p : c'(v) >= (1+delta)^i} + {p} for i = 0, 1, ... while the
    threshold is at most the largest c'(v), v != p; repeats dropped, in order."""
    others = [v for v in range(len(estimates)) if v != p]
    cmax = max((int(estimates[v]) for v in others), default=0)
    levels, threshold = [], Fraction(1)
    while threshold <= cmax:
        t = frozenset(v for v in others if estimates[v] >= threshold) | {p}
        if t not in levels:
            levels.append(t)
        threshold *= 1 + delta
    return levels


def test_levels_match_fraction_definition():
    rng = random.Random(41)
    for _ in range(8):
        n = rng.randint(5, 12)
        g = random_graph(rng, n, 0.6, wmax=60)
        p = rng.randrange(n)
        delta = rng.choice([Fraction(1, 100), Fraction(1, 7), Fraction(1, 2)])
        estimates = approx_single_source(g, p).estimates
        table = single_source_unfriendly(g, p, delta=delta)
        assert list(table.levels) == definition_levels(estimates, p, delta)


def test_levels_at_ceiling_boundaries():
    # estimates on and just below ceil((1+delta)^i), where comparing against
    # floor((1+delta)^i) would put a node in the wrong level; the pivot's own
    # entry is larger than all of them and must not count
    delta = Fraction(1, 100)
    thresholds = itertools.accumulate(itertools.repeat(1 + delta, 470), lambda t, b: t * b,
                                      initial=Fraction(1))
    ceilings = sorted({math.ceil(t) for t in thresholds})
    assert {1, 2, 101} <= set(ceilings)
    rng = random.Random(43)
    for _ in range(6):
        picks = rng.sample(ceilings, 12)
        estimates = [0, 1, 2, 101] + [c + d for c in picks for d in (-1, 0)]
        p = rng.randrange(len(estimates) + 1)
        estimates.insert(p, 10**6)
        table = EstimateTable(pivot=p, estimates=np.array(estimates, dtype=np.int64),
                              witnesses={}, eps=delta)
        levels = _level_sets(table, delta)
        assert levels == definition_levels(estimates, p, delta)


def test_exact_whenever_some_min_cut_is_unfriendly():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(4, 10)
        g = random_graph(rng, n, 0.5)
        p = rng.randrange(n)
        table = single_source_unfriendly(g, p)
        lam = check_soundness(g, table)
        for v in range(n):
            if v == p:
                continue
            rep = min_cut_friendliness(g, p, v)
            if rep.kind in (Friendliness.ALL_UNFRIENDLY, Friendliness.MIXED):
                assert table.estimate(v) == lam[p, v], (n, p, v)


def find_hypothesis_instances(g, want_v):
    """Minimum p,v-cuts where the singled-out endpoint sends > 0.6 deg across."""
    deg = degrees(g)
    members, values, _ = cut_table(g)
    out = []
    for p, v in itertools.permutations(range(g.n), 2):
        lam, _ = max_flow(g, p, v)
        sep = (members[:, p] != members[:, v]) & (values == lam)
        for i in np.flatnonzero(sep):
            side = frozenset(int(x) for x in np.flatnonzero(members[i]))
            if p in side:
                side = frozenset(range(g.n)) - side
            mask = np.zeros(g.n, dtype=bool)
            mask[list(side)] = True
            cross = crossing_weights(g, mask)
            node = v if want_v else p
            if CROSS_DEN * cross[node] > CROSS_NUM * deg[node]:
                rest = (side - {v}) if want_v else (frozenset(range(g.n)) - side - {p})
                if rest:
                    out.append((p, v, Cut(side=side, value=int(values[i]))))
    return out


def test_lemma_heavy_v_inequality():
    rng = random.Random(31)
    found = 0
    for _ in range(12):
        g = random_graph(rng, rng.randint(5, 9), 0.4)
        for p, v, cut in find_hypothesis_instances(g, want_v=True)[:30]:
            assert lemma_unfriendly_v(g, p, v, cut), (p, v, cut)
            found += 1
    assert found > 20  # the search must actually exercise the predicate


def test_lemma_heavy_p_inequality():
    rng = random.Random(37)
    found = 0
    for _ in range(12):
        g = random_graph(rng, rng.randint(5, 9), 0.4)
        for p, v, cut in find_hypothesis_instances(g, want_v=False)[:30]:
            assert lemma_unfriendly_p(g, p, v, cut), (p, v, cut)
            found += 1
    assert found > 20


def test_lemma_guards():
    g = complete(4)
    # singleton side is degenerate
    with pytest.raises(ValueError):
        lemma_unfriendly_v(g, 0, 1, Cut(side=frozenset({1}), value=3))
    # hypothesis not met: balanced split of C_4
    c4 = Graph.build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    with pytest.raises(ValueError):
        lemma_unfriendly_v(c4, 0, 2, Cut(side=frozenset({2, 3}), value=2))
    # not a minimum cut
    g2 = Graph.build(4, [(0, 1, 2), (1, 2, 1), (2, 3, 2)])
    with pytest.raises(ValueError):
        lemma_unfriendly_v(g2, 0, 3, Cut(side=frozenset({3}), value=2))


def test_custom_epsilon_delta():
    g = complete(5)
    table = single_source_unfriendly(g, 0, eps=Fraction(1, 10), delta=Fraction(1, 2))
    assert all(table.estimate(v) == 4 for v in range(1, 5))
    assert table.delta == Fraction(1, 2)
