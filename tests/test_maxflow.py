import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from friendlycuts import graph as graph_module
from friendlycuts import maxflow
from friendlycuts.generators import gnp
from friendlycuts.gomory_hu import gomory_hu
from friendlycuts.graph import Cut, Graph, UnsupportedInput, component_labels, cut_value
from friendlycuts.maxflow import MAX_CAPACITY, max_flow, min_cut_between_sets, min_cuts_between_sets
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


def test_two_node_flow_skips_the_engine(monkeypatch):
    def engine(*args, **kwargs):
        raise AssertionError("engine called")

    monkeypatch.setattr(maxflow, "_scipy_maximum_flow", engine)
    assert max_flow(Graph.build(2, [(0, 1, 3)]), 1, 0)[0] == 3
    # contracting {1, 2} leaves two nodes
    g = Graph.build(3, [(0, 1, 2), (0, 2, 5), (1, 2, 4)])
    assert min_cut_between_sets(g, [0], [1, 2])[0] == 7
    with pytest.raises(AssertionError, match="engine called"):
        max_flow(g, 0, 2)


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
    per_flow = math.ceil(math.log2(n))
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
    assert len(builds) == 1 and builds[0] is g
    max_flow(g, 0, 1)
    assert len(builds) == 1


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
