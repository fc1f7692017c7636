import itertools
import math
import random

import numpy as np
import pytest

from friendlycuts import isolating, maxflow
from friendlycuts.graph import MAX_CAPACITY, Cut, Graph, UnsupportedInput, cut_value
from friendlycuts.isolating import isolating_cuts, isolating_cuts_direct, isolating_cuts_many
from friendlycuts.maxflow import max_flow, pairs_per_flow


def random_graph(rng, n, p, wmax=6):
    edges = [(u, v, rng.randint(1, wmax))
             for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.build(n, edges)


def check_contract(g, r, result):
    sides = list(result.cuts.values())
    for a, b in itertools.combinations(sides, 2):
        assert not (a.side & b.side)
    terms = set(r)
    for v, c in result.cuts.items():
        assert v in c.side
        assert not (c.side & (terms - {v}))
        assert cut_value(g, c.side) == c.value


def test_star_leaves():
    g = Graph.build(6, [(0, i, 1) for i in range(1, 6)])
    res = isolating_cuts(g, [1, 2, 3])
    for v in (1, 2, 3):
        assert res.cuts[v].side == frozenset({v})
        assert res.cuts[v].value == 1
    check_contract(g, [1, 2, 3], res)


def test_path_alternating_terminals():
    g = Graph.build(5, [(i, i + 1, 1) for i in range(4)])
    r = [0, 2, 4]
    res = isolating_cuts(g, r)
    direct = isolating_cuts_direct(g, r)
    assert res.cuts == direct.cuts
    assert res.cuts[0].side == frozenset({0})
    assert res.cuts[4].side == frozenset({4})
    # {2}, {1, 2}, {2, 3} and {1, 2, 3} all cost 2; the minimal side is {2}
    assert res.cuts[2] == Cut(side=frozenset({2}), value=2)
    check_contract(g, r, res)
    for g, r, expected in [
        # adjacent terminals: regions {0} and {1, 2}; edge (0, 1) is an S-T
        # arc of both local problems, left out twice, and the flow is 0
        (Graph.build(3, [(0, 1, 3), (1, 2, 1)]), [0, 1],
         {0: Cut(frozenset({0}), 3), 1: Cut(frozenset({1, 2}), 3)}),
        # regions {0, 1} and {2, 3}; edge (1, 2) joins two non-terminals of
        # different regions and becomes an arc to T from each end
        (Graph.build(4, [(0, 1, 5), (1, 2, 1), (2, 3, 5)]), [0, 3],
         {0: Cut(frozenset({0, 1}), 1), 3: Cut(frozenset({2, 3}), 1)}),
    ]:
        for res in (isolating_cuts(g, r), *isolating_cuts_many(g, [r, r])):
            assert res.cuts == expected
            check_contract(g, r, res)
        assert isolating_cuts_direct(g, r).cuts == expected


def test_weighted_cycle_pair():
    g = Graph.build(4, [(0, 1, 10), (1, 2, 4), (2, 3, 10), (3, 0, 3)])
    expected, _ = max_flow(g, 0, 2)
    res = isolating_cuts(g, [0, 2])
    assert res.cuts[0].value == expected
    assert res.cuts[2].value == expected
    check_contract(g, [0, 2], res)


def test_rejects_too_few_terminals():
    g = Graph.build(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(UnsupportedInput, match="at least 2"):
        isolating_cuts(g, [1])
    with pytest.raises(UnsupportedInput, match="at least 2"):
        isolating_cuts_direct(g, [2, 2])


def test_rejects_out_of_range_terminals():
    g = Graph.build(3, [(0, 1, 1), (1, 2, 1)])
    for fn in (isolating_cuts, isolating_cuts_direct):
        with pytest.raises(UnsupportedInput, match="out of range"):
            fn(g, [0, 3])


def test_global_call_accounting(monkeypatch):
    engine_calls = []
    union_sizes = []

    def counting_engine(*args, **kwargs):
        engine_calls.append(args)
        return engine(*args, **kwargs)

    def counting_union(g, pairs):
        union_sizes.append(len(pairs))
        return union(g, pairs)

    engine = maxflow._scipy_maximum_flow
    union = isolating.min_cuts_between_sets
    monkeypatch.setattr(maxflow, "_scipy_maximum_flow", counting_engine)
    monkeypatch.setattr(isolating, "min_cuts_between_sets", counting_union)
    rng = random.Random(0)
    g = random_graph(rng, 20, 0.3)
    for k in (2, 3, 5, 8, 13, 16):
        r = rng.sample(range(20), k)
        engine_calls.clear()
        union_sizes.clear()
        res = isolating_cuts(g, r)
        # all ceil(log2 k) bipartitions are one union flow
        assert res.global_flow_calls == 1
        assert union_sizes == [math.ceil(math.log2(k))]
        # all k local problems are one flow, so at most two engine calls in all
        assert res.local_flow_calls == 1
        assert len(engine_calls) <= 2
        direct = isolating_cuts_direct(g, r)
        assert direct.local_flow_calls == k


def test_fast_path_matches_direct_oracle():
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(4, 14)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.8]))
        k = rng.randint(2, min(8, n))
        r = rng.sample(range(n), k)
        res = isolating_cuts(g, r)
        direct = isolating_cuts_direct(g, r)
        for v in r:
            # the minimal minimum isolating cut is unique
            assert res.cuts[v] == direct.cuts[v], (n, r, v)
        check_contract(g, r, res)
        check_contract(g, r, direct)


def test_larger_instance():
    rng = random.Random(7)
    g = random_graph(rng, 120, 0.05, wmax=3)
    r = rng.sample(range(120), 10)
    res = isolating_cuts(g, r)
    direct = isolating_cuts_direct(g, r)
    assert res.cuts == direct.cuts


def test_int32_limits_match_the_per_terminal_flows():
    m = MAX_CAPACITY
    # the batched local flow's capacities are the per-terminal flows' merged
    # ones, which fit; a source arc of deg(0) + 1 = m + 1 would not
    g = Graph.build(3, [(0, 1, m), (1, 2, 1)])
    res = isolating_cuts(g, [0, 2])
    assert res.cuts == {0: Cut(frozenset({0, 1}), 1), 2: Cut(frozenset({2}), 1)}
    assert res.cuts == isolating_cuts_direct(g, [0, 2]).cuts
    g = Graph.build(6, [(0, 3, m), (1, 4, m), (2, 5, m), (3, 4, 1), (4, 5, 1), (3, 5, 1)])
    res = isolating_cuts(g, [0, 1, 2])
    assert res.cuts == {0: Cut(frozenset({0, 3}), 2), 1: Cut(frozenset({1, 4}), 2),
                        2: Cut(frozenset({2, 5}), 2)}
    assert res.cuts == isolating_cuts_direct(g, [0, 1, 2]).cuts
    # the global flow for bit 1 merges {0, 1} against 2 into one arc of 2m
    g = Graph.build(3, [(0, 2, m), (1, 2, m)])
    with pytest.raises(UnsupportedInput, match="int32"):
        isolating_cuts(g, [0, 1, 2])


def test_terminal_arcs_to_the_sink_never_reach_the_engine():
    # terminal 0's region is {0}; its 2m of edges leave the region straight
    # from the terminal, so they cross every cut and are added to the value
    m = MAX_CAPACITY
    g = Graph.build(3, [(0, 1, m), (0, 2, m)])
    res = isolating_cuts(g, [0, 1, 2])
    assert res.cuts == {0: Cut(frozenset({0}), 2 * m), 1: Cut(frozenset({1}), m),
                        2: Cut(frozenset({2}), m)}
    # the oracle contracts {1, 2} into one sink and so needs a 2m arc
    with pytest.raises(UnsupportedInput, match="int32"):
        isolating_cuts_direct(g, [0, 1, 2])


def batch_sets(rng, n):
    """Nested sets around one pivot, as the single-source levels are, then
    an overlapping set, a pair and the set of all nodes."""
    order = rng.sample(range(n), n)
    sizes = sorted(rng.sample(range(2, n + 1), min(4, n - 1)), reverse=True)
    sets = [order[:size] for size in sizes]
    return sets + [rng.sample(range(n), rng.randint(2, n)), rng.sample(range(n), 2), list(range(n))]


def test_many_matches_per_set_calls(monkeypatch):
    flows = []

    def counting_max_flow(h, s, t):
        flows.append(h.n)
        return flow(h, s, t)

    flow = maxflow.max_flow
    monkeypatch.setattr(maxflow, "max_flow", counting_max_flow)
    rng = random.Random(5)
    for trial in range(30):
        n = rng.randint(2, 40)
        g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.6]))
        sets = batch_sets(rng, n)
        flows.clear()
        batch = isolating_cuts_many(g, sets)
        # every set's ceil(log2 k) bipartitions, pairs_per_flow(g) per union
        # flow, then one local flow for all sets
        bits = sum(math.ceil(math.log2(len(r))) for r in sets)
        global_flows = math.ceil(bits / pairs_per_flow(g))
        assert len(flows) == global_flows + 1
        assert len(batch) == len(sets)
        for res, r in zip(batch, sets):
            assert (res.global_flow_calls, res.local_flow_calls) == (global_flows, 1)
            single = isolating_cuts(g, r)
            assert res.terminals.tolist() == sorted(r)
            for name in ("terminals", "values", "side_of"):
                assert np.array_equal(getattr(res, name), getattr(single, name)), (trial, name)
            assert res.cuts == single.cuts == isolating_cuts_direct(g, r).cuts
            check_contract(g, r, res)


def test_many_of_no_sets_runs_no_flow(monkeypatch):
    monkeypatch.setattr(maxflow, "max_flow", None)
    assert isolating_cuts_many(Graph.build(3, [(0, 1, 1)]), []) == []


def test_many_local_union_flow_above_int32_is_exact(monkeypatch):
    flows = []

    def recording_max_flow(h, s, t):
        value, cut = flow(h, s, t)
        flows.append(value)
        return value, cut

    flow = maxflow.max_flow
    monkeypatch.setattr(maxflow, "max_flow", recording_max_flow)
    # terminal 2's local graph carries m from S to node 1 and on to T; every
    # copy of it keeps its own node 1, so the capacities stay m while the
    # union's flow is 3m, and terminal 0's m never reaches the engine
    m = MAX_CAPACITY
    g = Graph.build(3, [(0, 1, m), (1, 2, m)])
    batch = isolating_cuts_many(g, [[0, 2]] * 3)
    # three 1-bit bipartitions, pairs_per_flow(g) per global flow, then the local flow
    assert len(flows) == math.ceil(3 / pairs_per_flow(g)) + 1 and flows[-1] == 3 * m
    for res in batch:
        assert res.cuts == {0: Cut(frozenset({0}), m), 2: Cut(frozenset({2}), m)}
        assert res.cuts == isolating_cuts_direct(g, [0, 2]).cuts
    g = Graph.build(5, [(0, 1, m), (1, 2, m), (2, 3, m), (3, 4, m)])
    sets = [[0, 4], [1, 3], [0, 2], [0, 1, 3]]
    flows.clear()
    batch = isolating_cuts_many(g, sets)
    assert flows[-1] > m
    for res, r in zip(batch, sets):
        assert res.cuts == isolating_cuts(g, r).cuts
        check_contract(g, r, res)


def per_set_raises(g, r):
    try:
        isolating_cuts(g, r)
    except UnsupportedInput:
        return True
    return False


def test_many_raises_exactly_when_a_set_would():
    m = MAX_CAPACITY
    g = Graph.build(3, [(0, 2, m), (1, 2, m)])
    assert isolating_cuts_many(g, [[0, 2], [1, 2]])[1].cuts == isolating_cuts(g, [1, 2]).cuts
    # the bipartition {0, 1} against 2 merges two arcs of m
    with pytest.raises(UnsupportedInput, match="int32"):
        isolating_cuts_many(g, [[0, 2], [0, 1, 2]])
    rng = random.Random(17)
    raised = 0
    for _ in range(150):
        n = rng.randint(3, 7)
        edges = [(u, v, rng.choice([1, m // 3, m // 2, m]))
                 for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph.build(n, edges)
        sets = [rng.sample(range(n), rng.randint(2, n)) for _ in range(rng.randint(1, 4))]
        expected = any(per_set_raises(g, r) for r in sets)
        raised += expected
        if expected:
            with pytest.raises(UnsupportedInput, match="int32"):
                isolating_cuts_many(g, sets)
        else:
            for res, r in zip(isolating_cuts_many(g, sets), sets):
                assert res.cuts == isolating_cuts(g, r).cuts
    assert 0 < raised < 150
