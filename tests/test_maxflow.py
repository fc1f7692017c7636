import itertools
import random

import numpy as np
import pytest

from friendlycuts.graph import Graph, UnsupportedInput, cut_value
from friendlycuts.maxflow import MAX_CAPACITY, max_flow, min_cut_between_sets
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


def test_capacity_over_int32_rejected():
    # scipy's engine computes in int32: 2**31 used to wrap to a flow of 0
    # with a "side" holding the sink
    g = Graph.build(3, [(0, 1, 2**31), (1, 2, 2**31)])
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
