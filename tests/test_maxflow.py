import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from friendlycuts import graph as graph_module
from friendlycuts import maxflow
from friendlycuts.generators import dumbbell, gnp, star
from friendlycuts.gomory_hu import gomory_hu
from friendlycuts.graph import Cut, Graph, UnsupportedInput, component_labels, cut_value
from friendlycuts.maxflow import (MAX_CAPACITY, DegreeCuts, max_flow, min_cut_between_sets,
                                  min_cuts_between_sets, pairs_per_flow)
from friendlycuts.oracle import cut_table


def brute_min_cut(g, s, t):
    members, values, _ = cut_table(g, with_friendliness=False)
    sep = members[:, s] != members[:, t]
    return int(values[sep].min())


def assert_minimal_min_cut(g, a, b, value, cut):
    """value is the minimum (a, b)-cut value and cut.side the intersection of
    the source sides of all minimum (a, b)-cuts, by enumeration."""
    members, values, _ = cut_table(g, with_friendliness=False)
    sides = np.where(members[:, [a[0]]], members, ~members)
    sep = sides[:, a].all(axis=1) & ~sides[:, b].any(axis=1)
    best = values[sep].min()
    assert value == best
    assert cut.side == frozenset(np.flatnonzero(sides[sep & (values == best)].all(axis=0)).tolist())


def random_graph(rng, n, p, wmax=6, wmin=1):
    edges = [(u, v, rng.randint(wmin, wmax))
             for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.build(n, edges)


def test_path_flow():
    g = Graph.build(4, [(0, 1, 3), (1, 2, 1), (2, 3, 5)])
    value, cut = max_flow(g, 0, 3)
    assert value == 1
    assert cut_value(g, cut.side) == 1
    assert 0 in cut.side and 3 not in cut.side


def test_minimal_source_side():
    # star: every leaf-to-leaf min cut has two tied sides; the minimal one
    # is the singleton around the source
    g = Graph.build(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    _, cut = max_flow(g, 1, 2)
    assert cut.side == frozenset({1})


def test_disconnected_flow_is_zero():
    g = Graph.build(4, [(0, 1, 2)])
    value, cut = max_flow(g, 0, 3)
    assert value == 0
    assert cut.side == frozenset({0, 1})


def test_same_node_rejected():
    g = Graph.build(2, [(0, 1, 1)])
    with pytest.raises(ValueError):
        max_flow(g, 1, 1)


def test_matches_enumeration_oracle():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(3, 9)
        g = random_graph(rng, n, 0.5)
        s, t = rng.sample(range(n), 2)
        value, cut = max_flow(g, s, t)
        assert value == brute_min_cut(g, s, t)
        if value > 0 or len(cut.side) < n:
            assert cut_value(g, cut.side) == value


@pytest.mark.parametrize("edges", [[(0, 1, 7)], []], ids=["edge", "no-edge"])
@pytest.mark.parametrize("s, t", [(0, 1), (1, 0)])
def test_two_node_flow(edges, s, t):
    g = Graph.build(2, edges)
    value, cut = max_flow(g, s, t)
    assert_minimal_min_cut(g, [s], [t], value, cut)
    assert (value, cut.side) == (g.total_weight, frozenset({s}))


def test_min_cut_between_sets_basic():
    g = Graph.build(5, [(0, 1, 2), (1, 2, 1), (2, 3, 2), (3, 4, 2)])
    value, cut = min_cut_between_sets(g, [0, 1], [3, 4])
    assert value == 1
    assert {0, 1} <= cut.side and not ({3, 4} & cut.side)


def test_min_cut_between_sets_matches_pairwise_minimum_bound():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(4, 9)
        g = random_graph(rng, n, 0.5)
        nodes = rng.sample(range(n), 4)
        a, b = nodes[:2], nodes[2:]
        value, cut = min_cut_between_sets(g, a, b)
        members, values, _ = cut_table(g, with_friendliness=False)
        ok = (members[:, a[0]] == members[:, a[1]]) & (members[:, b[0]] == members[:, b[1]])
        sep = ok & (members[:, a[0]] != members[:, b[0]])
        assert value == int(values[sep].min())
        assert cut_value(g, cut.side) == value


def test_min_cut_between_sets_rejects_overlap():
    g = Graph.build(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(ValueError):
        min_cut_between_sets(g, [0, 1], [1, 2])
    with pytest.raises(ValueError):
        min_cut_between_sets(g, [], [1])
    for a, b in (([-1], [1]), ([0], [3]), (frozenset({0}), (2, -3))):
        with pytest.raises(ValueError):
            min_cut_between_sets(g, a, b)


def test_side_is_intersection_of_all_min_cut_sides():
    # the guarantee GH trees and single-source witnesses rely on: the side is
    # the inclusion-minimal source side, i.e. contained in every minimum one;
    # sparse draws give disconnected graphs and isolated nodes
    rng = random.Random(29)
    for _ in range(150):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.choice([0.15, 0.4, 0.8]))
        s, t = rng.sample(range(n), 2)
        assert_minimal_min_cut(g, [s], [t], *max_flow(g, s, t))


def test_min_cut_between_sets_side_is_intersection_of_all_min_cut_sides():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.choice([0.15, 0.4, 0.8]))
        nodes = rng.sample(range(n), rng.randint(2, n))
        k = rng.randint(1, len(nodes) - 1)
        a, b = nodes[:k], nodes[k:]
        assert_minimal_min_cut(g, a, b, *min_cut_between_sets(g, a, b))


@st.composite
def graphs_with_pairs(draw):
    """A weighted graph on 2..16 nodes (often disconnected, sometimes
    edgeless) and 0 to 3 * ceil(log2 n) + 1 disjoint (a, b) pairs, which may
    share nodes with each other and may cover every node."""
    n = draw(st.integers(2, 16))
    raw = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                  st.integers(1, 2**20)), max_size=3 * n))
    g = Graph.build(n, [e for e in raw if e[0] != e[1]])
    pairs = []
    for _ in range(draw(st.integers(0, 3 * (n - 1).bit_length() + 1))):
        nodes = draw(st.permutations(range(n)))
        size = draw(st.sampled_from([n, draw(st.integers(2, n))]))  # all n: 2 nodes left
        k = draw(st.integers(1, size - 1))
        pairs.append((nodes[:k], nodes[k:size]))
    return g, pairs


@given(graphs_with_pairs())
@settings(max_examples=150, deadline=None)
def test_min_cuts_between_sets_match_one_flow_per_pair(case):
    g, pairs = case
    values, sides = min_cuts_between_sets(g, pairs)
    assert values.dtype == np.int64 and values.shape == (len(pairs),)
    assert sides.dtype == bool and sides.shape == (len(pairs), g.n)
    for (a, b), value, side in zip(pairs, values.tolist(), sides):
        cut = Cut(side=frozenset(np.flatnonzero(side).tolist()), value=value)
        assert (value, cut) == min_cut_between_sets(g, a, b)
        assert_minimal_min_cut(g, a, b, value, cut)


@pytest.mark.parametrize("n", [2, 3, 9, 16])
def test_min_cuts_between_sets_flow_count(monkeypatch, n):
    flows = []

    def counting_max_flow(h, s, t):
        flows.append(h.n)
        return flow(h, s, t)

    flow = maxflow.max_flow
    monkeypatch.setattr(maxflow, "max_flow", counting_max_flow)
    g = random_graph(random.Random(n), n, 0.5)
    per_flow = pairs_per_flow(g)
    for count in (0, 1, per_flow, per_flow + 1, 3 * per_flow + 1):
        pairs = [([v % n], [(v + 1) % n]) for v in range(count)]
        flows.clear()
        values, sides = min_cuts_between_sets(g, pairs)
        assert values.shape == (count,) and sides.shape == (count, n)
        assert len(flows) == math.ceil(count / per_flow)
        # a union keeps S, T and every copy's other nodes
        assert sum(flows) == 2 * len(flows) + count * (n - 2)


def test_min_cuts_between_sets_int32_guard_per_pair():
    m = MAX_CAPACITY
    # merging b = {1, 2} makes one a-b arc of 2**31 + 2: rejected even beside
    # a pair that fits, while the single-node pairs all fit
    g = Graph.build(3, [(0, 1, 2**30 + 1), (0, 2, 2**30 + 1)])
    with pytest.raises(UnsupportedInput, match="int32"):
        min_cuts_between_sets(g, [([0], [1]), ([0], [1, 2])])
    values, _ = min_cuts_between_sets(g, [([0], [1]), ([1], [2]), ([2], [0])])
    assert values.tolist() == [2**30 + 1] * 3
    # S-arcs of many copies never merge with each other: each copy's arc from
    # a = {0} to node 1 is m, the limit, and the union accepts it
    g = Graph.build(4, [(0, 1, m), (1, 2, 1), (1, 3, 1)])
    values, sides = min_cuts_between_sets(g, [([0], [2]), ([0], [3]), ([0], [2, 3])])
    assert values.tolist() == [1, 1, 2]
    assert [np.flatnonzero(s).tolist() for s in sides] == [[0, 1, 3], [0, 1, 2], [0, 1]]


def test_union_flow_above_int32_is_exact():
    # every capacity fits, but the copies' flows add up past 2**31 - 1 in
    # one union: each of the 2 copies per flow carries m, or 2m
    m = MAX_CAPACITY
    for g, pairs in [
        (Graph.build(4, [(0, 1, m), (1, 2, m), (2, 3, m)]), [([0], [3]), ([1], [3]), ([0], [2])]),
        (Graph.build(4, [(0, 1, m), (1, 3, m), (0, 2, m), (2, 3, m)]),
         [([0], [3]), ([1], [2]), ([0, 1], [3])]),
    ]:
        values, sides = min_cuts_between_sets(g, pairs)
        assert sum(values.tolist()[:2]) > m
        for (a, b), value, side in zip(pairs, values.tolist(), sides):
            cut = Cut(side=frozenset(np.flatnonzero(side).tolist()), value=value)
            assert (value, cut) == min_cut_between_sets(g, a, b)
            assert_minimal_min_cut(g, a, b, value, cut)


@pytest.mark.parametrize("wmax", [1, 6], ids=["unit", "weighted"])
def test_minimal_side_when_the_source_is_saturated_and_when_not(monkeypatch, wmax):
    # a side of {s} is read off the source's saturated arcs, a larger one
    # comes from the residual search; both must be the minimal side
    searches = []

    def counting_bfs(*args, **kwargs):
        searches.append(args[1])
        return bfs(*args, **kwargs)

    bfs = maxflow.breadth_first_order
    monkeypatch.setattr(maxflow, "breadth_first_order", counting_bfs)
    rng = random.Random(41 + wmax)
    singletons = larger = 0
    for _ in range(120):
        n = rng.randint(3, 9)
        g = random_graph(rng, n, rng.choice([0.3, 0.6, 0.9]), wmax=wmax)
        s, t = rng.sample(range(n), 2)
        searches.clear()
        value, cut = max_flow(g, s, t)
        assert_minimal_min_cut(g, [s], [t], value, cut)
        assert searches == ([] if cut.side == {s} else [s])
        singletons += cut.side == {s}
        larger += cut.side != {s}
    assert singletons >= 20 and larger >= 20


def test_flows_on_one_graph_match_a_fresh_graph():
    rng = random.Random(43)
    for g in (gnp(60, 0.1, seed=5), random_graph(rng, 40, 0.15)):
        pairs = [tuple(rng.sample(range(g.n), 2)) for _ in range(80)]
        matrix = g.capacity_matrix
        before = [a.copy() for a in (matrix.data, matrix.indices, matrix.indptr)]
        repeated = [max_flow(g, s, t) for s, t in pairs]
        assert g.capacity_matrix is matrix
        for a, b in zip(before, (matrix.data, matrix.indices, matrix.indptr)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        fresh = [max_flow(Graph.build(g.n, g.edges), s, t) for s, t in pairs]
        assert repeated == fresh


def test_one_capacity_matrix_per_graph(monkeypatch):
    builds = []

    def counting_matrix(g):
        builds.append(g)
        return build(g)

    build = graph_module._capacity_matrix
    monkeypatch.setattr(graph_module, "_capacity_matrix", counting_matrix)
    g = gnp(40, 0.2, seed=2)
    assert component_labels(g.n, g.edges[:, 0], g.edges[:, 1])[0] == 1
    gomory_hu(g)
    assert sum(h is g for h in builds) == 1
    # every other matrix is one degree-cut proving round's own graph
    rounds = [h for h in builds if h is not g]
    assert rounds and all(h.n == g.n + 2 for h in rounds)
    assert len({id(h) for h in rounds}) == len(rounds)
    built = len(builds)
    max_flow(g, 0, 1)
    assert len(builds) == built


def test_capacity_over_int32_rejected():
    # scipy's engine computes in int32: 2**31 used to wrap to a flow of 0
    # with a "side" holding the sink
    g = Graph.build(3, [(0, 1, 2**31), (1, 2, 2**31)])
    with pytest.raises(UnsupportedInput, match="int32"):
        max_flow(g, 0, 2)
    # a rejected matrix is not kept: the next call on the graph raises too
    with pytest.raises(UnsupportedInput, match="int32"):
        max_flow(g, 0, 2)


def test_merged_capacity_over_int32_rejected():
    # each input edge fits; contracting b = {1, 2} merges them past the limit
    g = Graph.build(3, [(0, 1, 2**30 + 1), (0, 2, 2**30 + 1)])
    with pytest.raises(UnsupportedInput, match="int32"):
        min_cut_between_sets(g, [0], [1, 2])


def test_capacities_up_to_int32_max_are_exact():
    assert MAX_CAPACITY == 2**31 - 1
    g = Graph.build(3, [(0, 1, MAX_CAPACITY), (1, 2, MAX_CAPACITY), (0, 2, MAX_CAPACITY)])
    value, cut = max_flow(g, 0, 2)
    assert value == 2 * MAX_CAPACITY and cut.side == frozenset({0})
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(3, 8)
        g = random_graph(rng, n, 0.6, wmin=2**30, wmax=MAX_CAPACITY)
        s, t = rng.sample(range(n), 2)
        assert_minimal_min_cut(g, [s], [t], *max_flow(g, s, t))


def degree_cut_corpus():
    """Seeded graphs for the degree-cut certificate: unit and weighted,
    connected and not, with isolated nodes, and weights whose degrees pass
    the int32 limit, where proving must stop without raising."""
    rng = random.Random(53)
    graphs = []
    for _ in range(45):
        graphs.append(random_graph(rng, rng.randint(3, 22), rng.choice([0.1, 0.25, 0.5, 0.9]),
                                   wmax=rng.choice([1, 1, 4, 2**20])))
    for _ in range(5):
        a, b = rng.randint(3, 10), rng.randint(2, 8)
        edges = random_graph(rng, a, 0.6).edge_list()
        edges += [(u + a, v + a, w) for u, v, w in random_graph(rng, b, 0.7).edge_list()]
        graphs.append(Graph.build(a + b + rng.randint(0, 2), edges))
    graphs.append(Graph.build(4, [(0, 1, 2**30), (0, 2, 2**30), (0, 3, 2**30), (1, 2, 2**30)]))
    # node 9 (degree 15) is tried after node 1 (degree 4, with 3 of it on
    # the edge to 9) is proven; were 1 a sink, 9 would pass its round,
    # though lambda(9, 0) = 13
    graphs.append(Graph.build(14, [
        (0, 3, 2), (0, 4, 1), (0, 6, 1), (0, 7, 2), (0, 8, 2), (0, 9, 3), (0, 10, 3), (0, 11, 2),
        (0, 13, 2), (1, 6, 1), (1, 9, 3), (2, 3, 3), (2, 4, 1), (2, 6, 3), (2, 7, 2), (2, 8, 3),
        (2, 10, 2), (2, 11, 3), (2, 12, 1), (2, 13, 1), (3, 4, 3), (3, 7, 1), (3, 8, 1), (3, 9, 1),
        (3, 10, 2), (3, 12, 3), (3, 13, 2), (4, 8, 3), (4, 9, 1), (4, 10, 2), (4, 12, 1), (5, 6, 2),
        (5, 7, 1), (5, 8, 1), (5, 12, 3), (5, 13, 2), (6, 8, 3), (6, 9, 2), (6, 12, 3), (6, 13, 3),
        (7, 8, 2), (7, 10, 2), (7, 11, 3), (7, 12, 3), (8, 11, 3), (8, 12, 3), (8, 13, 2),
        (9, 10, 2), (9, 11, 2), (9, 13, 1), (10, 11, 2), (10, 12, 3), (10, 13, 3)]))
    graphs.append(random_graph(rng, 8, 0.8, wmin=2**29, wmax=2**30))
    return graphs


def test_degree_cuts_answer_every_pair_as_the_engine_does():
    proven = cross = 0
    for g in degree_cut_corpus():
        cuts = DegreeCuts(g)
        labels = component_labels(g.n, g.edges[:, 0], g.edges[:, 1])[1]
        for s, t in itertools.permutations(range(g.n), 2):
            assert max_flow(g, s, t, degree_cuts=cuts) == max_flow(g, s, t), (g, s, t)
            proven += cuts.proves(s, t)
            cross += labels[s] != labels[t]
    assert proven >= 1800 and cross >= 1000


def test_proven_pairs_skip_the_engine(monkeypatch):
    engine_calls = []

    def engine(*args, **kwargs):
        engine_calls.append(args[0].shape[0])
        return scipy_engine(*args, **kwargs)

    scipy_engine = maxflow._scipy_maximum_flow
    monkeypatch.setattr(maxflow, "_scipy_maximum_flow", engine)
    for g in (gnp(60, 0.15, seed=3), random_graph(random.Random(5), 40, 0.3, wmax=9)):
        cuts = DegreeCuts(g)
        engine_calls.clear()
        max_flow(g, 0, 1, degree_cuts=cuts)
        # the proving rounds, on n + 2 nodes, then at most this pair's own flow
        rounds = [n for n in engine_calls if n == g.n + 2]
        assert 1 <= len(rounds) <= 2 * math.ceil(math.log2(g.n))
        assert len(engine_calls) - len(rounds) <= 1
        pairs = [(s, t) for s, t in itertools.permutations(range(g.n), 2) if cuts.proves(s, t)]
        assert len(pairs) >= g.n * (g.n - 1) // 4
        expected = [max_flow(g, s, t) for s, t in pairs]
        monkeypatch.setattr(maxflow, "_scipy_maximum_flow", None)
        assert [max_flow(g, s, t, degree_cuts=cuts) for s, t in pairs] == expected
        monkeypatch.setattr(maxflow, "_scipy_maximum_flow", engine)
    with pytest.raises(ValueError, match="another graph"):
        max_flow(gnp(60, 0.15, seed=3), 0, 1, degree_cuts=cuts)


PROVES_CONDITIONS = {
    "both proven": lambda c, s, t: c.proven[s] and c.proven[t],
    "one component": lambda c, s, t: c.component[s] == c.component[t],
    "degree order": lambda c, s, t: c.degree[t] >= c.degree[s],
}


@pytest.mark.parametrize("dropped, g, s, t", [
    # 5 sits beyond the bridge from the hub 3, and its first round fails
    ("both proven", dumbbell(4), 5, 3),
    ("one component", Graph.build(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1),
                                      (3, 4, 1), (4, 5, 1), (3, 5, 1)]), 1, 4),
    # the hub 0 against a proven leaf
    ("degree order", star(4), 0, 1),
], ids=["both-proven", "one-component", "degree-order"])
def test_each_proves_condition_is_needed(monkeypatch, dropped, g, s, t):
    cuts = DegreeCuts(g)
    truth = max_flow(g, s, t)
    assert max_flow(g, s, t, degree_cuts=cuts) == truth
    for a, b in itertools.permutations(range(g.n), 2):
        assert cuts.proves(a, b) == all(rule(cuts, a, b) for rule in PROVES_CONDITIONS.values())
    monkeypatch.setattr(DegreeCuts, "proves", lambda c, a, b: all(
        rule(c, a, b) for name, rule in PROVES_CONDITIONS.items() if name != dropped))
    assert max_flow(g, s, t, degree_cuts=cuts) != truth


def test_retry_pass_proves_nodes_the_first_pass_left(monkeypatch):
    # hub 6; nodes 3 (capacity 6) and 4 (capacity 5) share the dead end 2,
    # so in one first-pass round each reaches the sink through 2 only at
    # the other's expense: both fail, and the first pass ends. Retried one
    # capacity at a time, 3 passes alone, and then 4 passes with 3 merged
    # into the sink.
    g = Graph.build(7, [(0, 1, 2), (0, 6, 4), (1, 3, 1), (1, 6, 4), (2, 3, 2), (2, 4, 2),
                        (3, 6, 3), (4, 6, 3)])
    cuts = DegreeCuts(g)
    for s, t in itertools.permutations(range(g.n), 2):
        assert max_flow(g, s, t, degree_cuts=cuts) == max_flow(g, s, t), (s, t)
    assert cuts.proven[[3, 4]].all() and cuts.proves(4, 3)
    # proving has stopped: neither prove nor a proven pair reaches the engine
    monkeypatch.setattr(maxflow, "_scipy_maximum_flow", None)
    cuts.prove()
    assert max_flow(g, 4, 3, degree_cuts=cuts) == (5, Cut(side=frozenset({4}), value=5))
    monkeypatch.undo()

    class RetryPass(Exception):
        pass

    def first_pass_only(c, pending, one_capacity):
        if one_capacity:
            raise RetryPass  # proving stops where the retry pass would start
        return pick(c, pending, one_capacity)

    pick = DegreeCuts._pick
    monkeypatch.setattr(DegreeCuts, "_pick", first_pass_only)
    cuts = DegreeCuts(g)
    with pytest.raises(RetryPass):
        cuts.prove()
    assert not cuts.proven[[3, 4]].any() and cuts.proven[[0, 1]].all()
    assert not cuts.proves(4, 3)


def test_hub_certificate_answers_every_pair_as_the_engine_does():
    # the single-source form: one hub, capacities min(deg, deg(hub)); every
    # pair it proves must get the engine's answer, at hubs of low, middle
    # and high degree (an unproven pair goes to the engine itself)
    proven = 0
    for g in degree_cut_corpus():
        truth = {}
        order = np.argsort(graph_module.degrees(g), kind="stable")
        for hub in {int(order[0]), int(order[g.n // 2]), int(order[-1])}:
            cuts = DegreeCuts(g, hub=hub)
            max_flow(g, hub, (hub + 1) % g.n, degree_cuts=cuts)  # runs the proving rounds
            for s, t in itertools.permutations(range(g.n), 2):
                if cuts.proves(s, t):
                    if (s, t) not in truth:
                        truth[s, t] = max_flow(g, s, t)
                    assert max_flow(g, s, t, degree_cuts=cuts) == truth[s, t], (g, hub, s, t)
                    proven += 1
            # only the hub's component is proven
            assert not cuts.proven[cuts.component != cuts.component[hub]].any()
    assert proven >= 3000


def test_hub_proves_needs_the_capped_capacity(monkeypatch):
    # hub 0 has degree 1, so every node is proven at capacity 1; nodes 1
    # and 2 have degree 7 but lambda(1, 2) = 1 across the edge 1-2
    g = Graph.build(5, [(0, 1, 1), (1, 2, 1), (1, 3, 5), (2, 4, 6)])
    cuts = DegreeCuts(g, hub=0)
    truth = max_flow(g, 1, 2)
    assert truth[0] == 1
    assert max_flow(g, 1, 2, degree_cuts=cuts) == truth
    assert cuts.proven.all() and not cuts.proves(1, 2)
    # the global rule alone (both proven, one component, deg(t) >= deg(s))
    monkeypatch.setattr(DegreeCuts, "proves", lambda c, a, b: all(
        rule(c, a, b) for rule in PROVES_CONDITIONS.values()))
    assert max_flow(g, 1, 2, degree_cuts=cuts) != truth


def proving_batches(monkeypatch, cuts):
    """The batch size of each round ``cuts.prove()`` runs, read from outside
    the class as the round graph's arcs out of the super-source 0."""
    batches = []

    def counting_max_flow(h, s, t):
        batches.append(int((h.edges[:, 0] == 0).sum()))
        return flow(h, s, t)

    flow = maxflow.max_flow
    monkeypatch.setattr(maxflow, "max_flow", counting_max_flow)
    cuts.prove()
    monkeypatch.undo()
    return batches


def test_proving_rounds_are_pinned_at_benchmark_sizes(monkeypatch):
    # the gh-gnp graph shape: unit G(800, 2 ln n/(n - 1)) at seed 7, global
    # certificate; the first pass ends after 19 rounds, the retry pass
    # takes the other 10
    g = gnp(800, 2 * math.log(800) / 799, seed=7)
    cuts = DegreeCuts(g)
    assert proving_batches(monkeypatch, cuts) == [
        1, 1, 1, 2, 3, 4, 6, 9, 14, 21, 31, 47, 70, 105, 150, 146, 117, 60, 11,
        1, 3, 3, 2, 12, 1, 5, 2, 1, 1]
    assert int(cuts.proven.sum()) == 798
    # the ssu-wgnp graph shape: weighted G(200) at seed 4, weights in
    # [1, 64], from its median-degree pivot
    base = gnp(200, 2 * math.log(200) / 199, seed=4)
    weights = np.random.default_rng([4, 2]).integers(1, 65, size=base.edge_count)
    g = Graph.build(200, np.column_stack([base.edges[:, :2], weights]))
    pivot = int(np.argsort(graph_module.degrees(g), kind="stable")[100])
    assert pivot == 130
    cuts = DegreeCuts(g, hub=pivot)
    assert proving_batches(monkeypatch, cuts) == [
        1, 1, 1, 2, 3, 4, 6, 9, 14, 21, 31, 41, 29, 26, 9, 1, 1, 1, 1, 1, 1]
    assert cuts.proven.all()


def test_an_int32_stop_in_the_first_pass_ends_proving(monkeypatch):
    # on the pinned unit G(800), the 15th round leaves 22 nodes for the
    # retry pass; refusing the 16th round's graph, as the int32 limit
    # would, ends proving with no retry round
    picks = []

    def recording_pick(c, pending, one_capacity):
        picks.append(one_capacity)
        return pick(c, pending, one_capacity)

    def refusing_round_graph(c, batch):
        return None if len(picks) == 16 else round_graph(c, batch)

    pick, round_graph = DegreeCuts._pick, DegreeCuts._round_graph
    monkeypatch.setattr(DegreeCuts, "_pick", recording_pick)
    monkeypatch.setattr(DegreeCuts, "_round_graph", refusing_round_graph)
    cuts = DegreeCuts(gnp(800, 2 * math.log(800) / 799, seed=7))
    cuts.prove()
    assert picks == [False] * 16


def test_pairs_per_flow_fits_copies_in_the_arc_budget(monkeypatch):
    # one pair per flow once g alone has more arcs (or nodes) than the budget
    flows = []

    def counting_max_flow(h, s, t):
        flows.append(h.n)
        return flow(h, s, t)

    flow = maxflow.max_flow
    monkeypatch.setattr(maxflow, "max_flow", counting_max_flow)
    budget = maxflow.UNION_ARCS
    pairs_of_nodes = list(itertools.combinations(range(300), 2))
    for m, per_flow in [(budget // 2, 2), (budget // 2 + 1, 1), (budget - 1, 1), (budget, 1),
                        (budget + 1, 1)]:
        g = Graph.build(300, [(u, v, 1) for u, v in pairs_of_nodes[:m]])
        assert g.edge_count == m and pairs_per_flow(g) == per_flow == max(1, budget // m)
        flows.clear()
        values, _ = min_cuts_between_sets(g, [([v], [v + 1]) for v in range(5)])
        assert len(flows) == math.ceil(5 / per_flow)
        assert values.tolist() == [max_flow(g, v, v + 1)[0] for v in range(5)]
    # a copy counts its nodes where they outnumber its edges, and at least 1
    assert pairs_per_flow(Graph.build(budget + 1, [(0, 1, 1)])) == 1
    assert pairs_per_flow(Graph.build(budget // 4, [(0, 1, 1)])) == 4
    assert pairs_per_flow(Graph.build(4)) == budget // 4
    assert pairs_per_flow(Graph.build(0)) == budget


def reference_union_graph(g, region, source):
    """The union graph as built before it came out in canonical order: the
    same arcs, listed edge by edge, then sorted and merged by
    ``Graph._trusted``."""
    eu, ev, ew = g.edges.T
    own = (region >= 0) & ~source
    ids = np.where(own, 1 + np.cumsum(own, dtype=np.int32).reshape(own.shape), ~source)
    tails, heads = ids[:, eu], ids[:, ev]
    split = (region[:, eu] != region[:, ev]) & (tails != 1) & (heads != 1)
    second = split & (heads != 0)
    v_tails = heads[second]
    heads[split] = 1
    keep = (tails != heads) & (tails + heads != 1)
    weights = np.broadcast_to(ew, tails.shape)
    return Graph._trusted(2 + int(own.sum()), np.column_stack([
        np.concatenate([tails[keep], v_tails]),
        np.concatenate([heads[keep], np.ones(v_tails.size, dtype=np.int32)]),
        np.concatenate([weights[keep], weights[second]])]))


def recording_trusted(monkeypatch):
    """Record the arcs every ``Graph._trusted`` call is given."""
    given_arcs = []
    trusted = Graph._trusted

    def recording(n, arcs, extra_volume=None):
        given_arcs.append((n, np.array(arcs)))
        return trusted(n, arcs, extra_volume)

    monkeypatch.setattr(Graph, "_trusted", staticmethod(recording))
    return given_arcs


def assert_canonical(n, arcs):
    """Arcs (u, v, w) with u < v, in strictly increasing (u, v) order."""
    keys = arcs[:, 0] * n + arcs[:, 1]
    assert (arcs[:, 0] < arcs[:, 1]).all() and (keys[1:] > keys[:-1]).all()


def test_union_graph_equals_the_sorted_construction(monkeypatch):
    unions = []

    def recording_max_flow(h, s, t):
        unions.append(h)  # only the graph is compared; weights may pass int32
        return 0, Cut(side=frozenset({s}), value=0)

    monkeypatch.setattr(maxflow, "max_flow", recording_max_flow)
    given_arcs = recording_trusted(monkeypatch)
    rng = np.random.default_rng(61)
    for trial in range(150):
        n = int(rng.integers(2, 30))
        g = random_graph(random.Random(trial), n, float(rng.choice([0.1, 0.3, 0.7])),
                         wmax=int(rng.choice([1, 9, 2**40])))
        rows = int(rng.integers(1, 6))
        # up to 4 problems per row, as the local isolating flow has; 1 as a pair's
        region = rng.integers(-1, int(rng.integers(1, 5)), size=(rows, n))
        source = (rng.random((rows, n)) < 0.3) & (region >= 0)
        given_arcs.clear()
        unions.clear()
        maxflow._union_flow(g, region, source)
        (h_n, arcs), = given_arcs
        assert_canonical(h_n, arcs)
        assert unions == [reference_union_graph(g, region, source)], trial


def reference_pick(cuts, pending, one_capacity):
    """``DegreeCuts._pick`` as it was before round graphs came out in
    canonical order: the batch picked over a node mask."""
    c, cap = cuts.capacity, cuts.graph.capacity_matrix
    size = max(1, int(cuts.proven.sum()) // 2)
    only = c[pending[0]] if one_capacity else None
    taken, kept = [], []
    beside = np.zeros(cuts.graph.n, dtype=bool)
    for v in pending:
        if len(taken) < size and not beside[v] and (only is None or c[v] == only):
            taken.append(v)
            beside[cap.indices[cap.indptr[v]:cap.indptr[v + 1]]] = True
        else:
            kept.append(v)
    return taken, kept


def reference_round_graph(cuts, batch):
    """``DegreeCuts._round_graph`` as it was before its graphs came out in
    canonical order: the arcs listed edge by edge, then sorted and merged
    by ``Graph._trusted``."""
    g, c = cuts.graph, cuts.capacity
    ids = np.arange(2, g.n + 2)
    ids[cuts.hub | (cuts.proven & (c >= c[batch].max()))] = 1
    u, v = ids[g.edges[:, 0]], ids[g.edges[:, 1]]
    inside = u != v
    h = Graph._trusted(g.n + 2, np.concatenate([
        np.column_stack([u[inside], v[inside], g.edges[inside, 2]]),
        np.column_stack([np.zeros_like(batch), batch + 2, c[batch]])]))
    return None if h.edges[:, 2].max() > MAX_CAPACITY else h


def reference_rounds(cuts):
    """Prove ``cuts`` round by round as the certificate did before its
    proving became one loop, with ``reference_pick`` and
    ``reference_round_graph``: the pending and failed nodes, the pass and
    its rounds left are state stepped between rounds. Returns each
    round's (pending nodes, one-capacity flag, batch) and its graph, None
    for one refused by the int32 limit."""
    g, c = cuts.graph, cuts.capacity
    pending, failed = list(cuts._pending), []
    retrying, rounds_left = False, 2 * (g.n - 1).bit_length()
    steps, graphs = [], []
    while True:
        if not rounds_left or not pending:
            if retrying or not failed:
                return steps, graphs
            failed = np.array(failed)
            pending = failed[np.lexsort((failed, -c[failed]))].tolist()
            retrying, rounds_left = True, (g.n - 1).bit_length()
        taken, kept = reference_pick(cuts, pending, retrying)
        steps.append((pending, retrying, taken))
        pending = kept
        batch = np.array(taken, dtype=np.int64)
        graphs.append(h := reference_round_graph(cuts, batch))
        if h is None:
            return steps, graphs
        on_side = np.isin(batch + 2, list(max_flow(h, 0, 1)[1].side))
        cuts.proven[batch[~on_side]] = True
        if not retrying:
            failed += batch[on_side].tolist()
        rounds_left -= 1
        if 2 * int((~on_side).sum()) < batch.size:
            rounds_left = 0


def test_round_graphs_equal_the_sorted_construction(monkeypatch):
    rounds = stopped = 0
    for g in degree_cut_corpus():
        order = np.argsort(graph_module.degrees(g), kind="stable")
        for hub in (None, int(order[0]), int(order[g.n // 2])):
            cuts, ref = DegreeCuts(g, hub=hub), DegreeCuts(g, hub=hub)
            steps, graphs = [], []

            def recording_pick(c, pending, one_capacity):
                taken, kept = pick(c, pending, one_capacity)
                steps.append((list(pending), one_capacity, taken))
                return taken, kept

            def recording_round_graph(c, batch):
                given_arcs.clear()
                graphs.append(h := round_graph(c, batch))
                (n, arcs), = given_arcs
                assert_canonical(n, arcs)
                return h

            pick, round_graph = DegreeCuts._pick, DegreeCuts._round_graph
            given_arcs = recording_trusted(monkeypatch)
            monkeypatch.setattr(DegreeCuts, "_pick", recording_pick)
            monkeypatch.setattr(DegreeCuts, "_round_graph", recording_round_graph)
            cuts.prove()
            monkeypatch.undo()
            ref_steps, ref_graphs = reference_rounds(ref)
            assert steps == ref_steps
            assert graphs == ref_graphs
            assert np.array_equal(cuts.proven, ref.proven)
            rounds += sum(h is not None for h in graphs)
            stopped += graphs[-1:] == [None]  # built, then refused by the int32 limit
    assert rounds >= 700 and stopped >= 6, (rounds, stopped)
