import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from friendlycuts import maxflow, ss_unfriendly
from friendlycuts.generators import gnp, random_regular
from friendlycuts.graph import (CROSS_DEN, CROSS_NUM, Cut, Graph, UnsupportedInput,
                               crossing_weights, cut_value, degrees)
from friendlycuts.maxflow import DegreeCuts, max_flow, min_cuts_between_sets
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
    fixed = single_source_unfriendly(g, 0, estimator=lambda h, p, eps: table)
    assert fixed.estimates is table.estimates and fixed.witnesses is table.witnesses
    calls = []

    def estimator(h, p, eps):
        calls.append((h, p))
        return approx_single_source(h, p, eps)

    check_soundness(g, single_source_unfriendly(g, 0, estimator=estimator))
    assert calls == [(g, 0)]


def test_estimator_table_must_fit_the_pivot_and_graph():
    g = dumbbell()
    table = approx_single_source(g, 0)
    # a table built for another pivot, at a pivot inside and across the bridge
    for p in (1, 7):
        with pytest.raises(ValueError, match="pivot"):
            single_source_unfriendly(g, p, estimator=lambda h, q, eps: table)
    # one estimate per node of g, no more and no fewer
    for size in (g.n - 1, g.n + 1):
        short = EstimateTable(pivot=0, estimates=np.zeros(size, dtype=np.int64),
                              witnesses=table.witnesses, eps=table.eps)
        with pytest.raises(ValueError, match="one estimate per node"):
            single_source_unfriendly(g, 0, estimator=lambda h, q, eps: short)


def test_equal_witness_sides_are_one_object():
    pendant = Graph.build(6, complete(5).edge_list() + [(0, 5, 1)])
    rng = random.Random(11)
    for g, p in ((dumbbell(), 0), (pendant, 5), (random_graph(rng, 14, 0.3), 3)):
        for table in (approx_single_source(g, p), single_source_unfriendly(g, p)):
            check_soundness(g, table)
            witnesses = list(table.witnesses.values())
            sides = {w.side for w in witnesses}
            assert len({id(w) for w in witnesses}) == len(sides)
        assert len(sides) < g.n - 1  # the graph does repeat a side
    # across the bridge every node's minimal side is the far clique
    table = approx_single_source(dumbbell(), 0)
    assert all(table.witnesses[v] is table.witnesses[5] for v in range(6, 10))
    assert table.witnesses[5].side == frozenset(range(5, 10))


def weighted_gnp(n, seed, max_weight=64):
    base = gnp(n, 2 * math.log(n) / (n - 1), seed=seed)
    w = np.random.default_rng(seed).integers(1, max_weight + 1, size=base.edge_count)
    return Graph.build(n, np.column_stack([base.edges[:, :2], w]))


@pytest.mark.parametrize("g, p", [
    (weighted_gnp(200, 1), 0),
    (weighted_gnp(200, 2), 117),
    (Graph.build(1, []), 0),
    (Graph.build(2, [(0, 1, 3)]), 1),
    (Graph.build(3, [(0, 1, 2), (1, 2, 5)]), 0),
    (Graph.build(3, [(0, 2, 4)]), 1),
], ids=["gnp200-1", "gnp200-2", "n1", "n2", "n3-path", "n3-isolated"])
def test_exact_estimates_match_one_flow_per_node(monkeypatch, g, p):
    engine_calls = []

    def counting_engine(*args, **kwargs):
        engine_calls.append(args)
        return engine(*args, **kwargs)

    engine = maxflow._scipy_maximum_flow
    monkeypatch.setattr(maxflow, "_scipy_maximum_flow", counting_engine)
    table = approx_single_source(g, p)
    # the n - 1 cuts go ceil(log2 n) to a union flow
    assert len(engine_calls) <= (math.ceil((g.n - 1) / math.ceil(math.log2(g.n))) if g.n > 1 else 0)
    estimates = np.zeros(g.n, dtype=np.int64)
    witnesses, shared = {}, {}
    for v in range(g.n):
        if v != p:
            estimates[v], cut = max_flow(g, v, p)
            witnesses[v] = shared.setdefault(cut.side, cut)
    assert table.estimates.tolist() == estimates.tolist()
    assert table.witnesses == witnesses
    # equal sides are one object in both, and only equal sides
    for u, v in itertools.combinations(witnesses, 2):
        assert (table.witnesses[u] is table.witnesses[v]) == (witnesses[u] is witnesses[v])


def check_soundness_at(g, table):
    """Every witness holds its node, not the pivot, and has the estimate's
    value; for graphs beyond the enumeration oracle."""
    for v in range(g.n):
        if v != table.pivot:
            w = table.witnesses[v]
            assert v in w.side and table.pivot not in w.side
            assert cut_value(g, w.side) == w.value == table.estimate(v)
    return table


def degree_rank_pivots(g, ranks=9):
    """Pivots at evenly spaced degree ranks, from the least to the largest
    degree (ties broken by id)."""
    order = np.lexsort((np.arange(g.n), degrees(g)))
    return [int(order[i * (g.n - 1) // (ranks - 1)]) for i in range(ranks)]


def certified_corpus():
    """Seeded graphs of at least 100 nodes, where ``approx_single_source``
    runs the pivot-rooted degree-cut certificate, with their pivots."""
    weighted = weighted_gnp(100, 3)
    unit = gnp(128, 2 * math.log(128) / 127, seed=5)
    heavy = weighted_gnp(110, 6, max_weight=2**20)
    a, b = weighted_gnp(70, 8), weighted_gnp(50, 9)
    # two weighted parts and three isolated nodes, 120..122
    split = Graph.build(123, np.concatenate([a.edges, b.edges + [a.n, a.n, 0]]))
    split_pivots = [degree_rank_pivots(a, 3)[1], a.n + degree_rank_pivots(b, 3)[1], 121]
    # every degree ties
    regular = random_regular(120, 5, seed=2)
    return [(weighted, degree_rank_pivots(weighted)), (unit, degree_rank_pivots(unit)),
            (heavy, degree_rank_pivots(heavy, 3)), (split, split_pivots),
            (regular, [0, 77])]


def test_certified_estimates_equal_the_plain_cuts():
    certified = ties = 0
    for g, pivots in certified_corpus():
        deg = degrees(g)
        for p in pivots:
            table = check_soundness_at(g, approx_single_source(g, p))
            others = [v for v in range(g.n) if v != p]
            values, _ = min_cuts_between_sets(g, [([v], [p]) for v in others])
            assert table.estimates[others].tolist() == values.tolist(), (g.n, p)
            cuts = DegreeCuts(g, hub=p)
            max_flow(g, others[0], p, degree_cuts=cuts)  # runs the proving rounds
            proven = [v for v in others if cuts.proves(v, p) or cuts.proves(p, v)]
            certified += len(proven)
            ties += sum(deg[v] == deg[p] for v in proven)
    assert certified >= 2000 and ties >= 150


def test_certified_witness_above_the_pivot_degree_is_all_but_the_pivot():
    # lambda(v, p) = deg(p) < deg(v) for a proven v of larger degree, so
    # its witness is V - {p}; {v} would have the wrong value
    g = weighted_gnp(200, 4)
    deg = degrees(g)
    p = degree_rank_pivots(g, 3)[1]
    table = check_soundness_at(g, approx_single_source(g, p))
    all_but_p = frozenset(range(g.n)) - {p}
    above = [v for v in range(g.n) if deg[v] > deg[p] and table.estimate(v) == deg[p]]
    assert len(above) >= 80
    assert all(table.witnesses[v].side == all_but_p for v in above)


def test_hub_capacity_is_capped_at_the_hubs_degree():
    # a weighted G(200) from a median-degree pivot: capped at deg(p), a
    # node of larger degree can saturate its arc, and nearly every node is
    # proven; with c = deg the first such node fails its round, which ends
    # proving
    g = weighted_gnp(200, 4)
    deg = degrees(g)
    p = degree_rank_pivots(g, 3)[1]

    def certified(cuts):
        max_flow(g, 0 if p else 1, p, degree_cuts=cuts)  # runs the proving rounds
        return sum(cuts.proves(v, p) or cuts.proves(p, v) for v in range(g.n) if v != p)

    capped = certified(DegreeCuts(g, hub=p))
    uncapped = DegreeCuts(g, hub=p)
    uncapped.capacity = deg
    uncapped._pending.sort(key=lambda v: (-deg[v], v))
    assert capped >= 170 and certified(uncapped) <= 20


def test_certified_estimates_run_no_flow_on_g(monkeypatch):
    # the proving rounds run without a pair. From this low-degree pivot the
    # first node, 0, is certified only as proves(p, 0) (its degree is
    # above deg(p)), which max_flow(g, 0, p) cannot use, so sending it to
    # max_flow to run the rounds cost one flow on g itself.
    g, p = weighted_gnp(200, 2), 75
    on_g = []

    def counting_engine(*args, **kwargs):
        on_g.append(args[0] is g.capacity_matrix)
        return engine(*args, **kwargs)

    engine = maxflow._scipy_maximum_flow
    monkeypatch.setattr(maxflow, "_scipy_maximum_flow", counting_engine)
    table = check_soundness_at(g, approx_single_source(g, p))
    assert on_g and not any(on_g)
    monkeypatch.undo()
    others = [v for v in range(g.n) if v != p]
    values, _ = min_cuts_between_sets(g, [([v], [p]) for v in others])
    assert table.estimates[others].tolist() == values.tolist()
    cuts = DegreeCuts(g, hub=p)
    cuts.prove()
    assert cuts.proves(p, 0) and not cuts.proves(0, p)
    assert table.witnesses[0].side == frozenset(others)


def test_certified_estimates_keep_the_int32_guard(monkeypatch):
    # from a star's centre the certificate proves every leaf, so no flow
    # runs on g or on a union of its copies
    engine_calls = []

    def counting_engine(*args, **kwargs):
        engine_calls.append(args[0].shape[0])
        return engine(*args, **kwargs)

    engine = maxflow._scipy_maximum_flow
    monkeypatch.setattr(maxflow, "_scipy_maximum_flow", counting_engine)
    edges = [(0, v, 1) for v in range(1, 128)]
    table = approx_single_source(Graph.build(128, edges), 0)
    assert table.estimates[1:].tolist() == [1] * 127
    assert engine_calls and set(engine_calls) == {130}
    # one edge past the int32 limit: the plain cuts would reject the graph
    edges[40] = (0, 41, 2**31)
    with pytest.raises(UnsupportedInput, match="int32"):
        approx_single_source(Graph.build(128, edges), 0)


def test_skipping_the_isolating_phase_changes_no_output():
    # on ssu-wgnp-shaped graphs at a median-weighted-degree pivot, the default
    # path against the phase run on the same exact estimates
    for seed in range(3, 7):
        g = weighted_gnp(200, seed)
        p = int(np.lexsort((np.arange(g.n), degrees(g)))[g.n // 2])
        table = single_source_unfriendly(g, p)
        ref = single_source_unfriendly(g, p, estimator=approx_single_source)
        assert len(table.levels) > 20 and table.levels == ref.levels
        assert np.array_equal(table.estimates, ref.estimates)
        assert {v: w.side for v, w in table.witnesses.items()} == \
            {v: w.side for v, w in ref.witnesses.items()}


def test_isolating_phase_runs_only_behind_an_estimator(monkeypatch):
    def unreachable(g, levels):
        raise AssertionError("isolating phase reached")

    monkeypatch.setattr(ss_unfriendly, "isolating_cuts_many", unreachable)
    g = dumbbell()
    table = single_source_unfriendly(g, 0)
    assert table.levels and [table.estimate(v) for v in (1, 5)] == [4, 1]
    with pytest.raises(AssertionError, match="isolating phase reached"):
        single_source_unfriendly(g, 0, estimator=approx_single_source)


def test_int32_overflow_only_in_the_isolating_phase_is_not_reached():
    # weights near n^4 pass the weight guard and every single-pair flow, but
    # the isolating phase's merged terminals overflow int32
    n = 60
    base = gnp(n, 0.5, seed=3)
    w = np.random.default_rng(3).integers(n**4 // 2, n**4 + 1, size=base.edge_count)
    g = Graph.build(n, np.column_stack([base.edges[:, :2], w]))
    table = check_soundness_at(g, single_source_unfriendly(g, 0))
    assert all(table.estimate(v) == max_flow(g, 0, v)[0] for v in range(1, n))
    with pytest.raises(UnsupportedInput, match="int32"):
        single_source_unfriendly(g, 0, estimator=approx_single_source)


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
    # the bound keeps the isolating phase's level count logarithmic, so
    # only the estimator path checks it
    g = Graph.build(3, [(0, 1, 3 ** 4 * 2), (1, 2, 1)])
    with pytest.raises(ValueError, match="n\\^4"):
        single_source_unfriendly(g, 0, estimator=approx_single_source)


def test_default_path_answers_weights_above_n4():
    # its levels are distinct estimates, at most n - 1 of them
    for g in (Graph.build(3, [(0, 1, 3 ** 4 * 2), (1, 2, 1)]),
              Graph.build(3, [(0, 1, 200), (1, 2, 1)])):
        table = single_source_unfriendly(g, 0)
        assert [table.estimate(v) for v in (1, 2)] == [max_flow(g, 0, v)[0] for v in (1, 2)]
        assert list(table.levels) == definition_levels(table.estimates, 0, table.delta)


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


def test_delta_must_be_positive():
    # a threshold walk at delta = 0 would never pass an estimate
    for delta in (Fraction(0), Fraction(-1, 2)):
        with pytest.raises(ValueError, match="delta"):
            single_source_unfriendly(complete(4), 0, delta=delta)


def test_custom_epsilon_delta():
    g = complete(5)
    table = single_source_unfriendly(g, 0, eps=Fraction(1, 10), delta=Fraction(1, 2))
    assert all(table.estimate(v) == 4 for v in range(1, 5))
    assert table.delta == Fraction(1, 2)


def test_level_walk_matches_the_definition_on_seeded_tables():
    # one upward walk over the powers of 1 + delta gives the levels that the
    # threshold-by-threshold definition does: ties, gaps of many powers,
    # zero estimates, large estimates and deltas above 1 included
    rng = random.Random(47)
    for _ in range(80):
        n = rng.randint(2, 30)
        top = rng.choice([3, 100, 10**4, 10**9])
        pool = [rng.randint(0, top) for _ in range(rng.randint(1, 6))]
        estimates = [rng.choice(pool) if rng.random() < 0.5 else rng.randint(0, top)
                     for _ in range(n)]
        p = rng.randrange(n)
        delta = rng.choice([Fraction(1, 100), Fraction(1, 3), Fraction(1), Fraction(5, 2)])
        table = EstimateTable(pivot=p, estimates=np.array(estimates, dtype=np.int64),
                              witnesses={}, eps=delta)
        assert _level_sets(table, delta) == definition_levels(estimates, p, delta)
