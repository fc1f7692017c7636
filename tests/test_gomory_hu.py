import functools
import itertools
import math
import random

import numpy as np
import pytest

import friendlycuts.gomory_hu as gomory_hu_module
from friendlycuts import maxflow
from friendlycuts.generators import alt_cycle, clique, dumbbell, gnp, path
from friendlycuts.gomory_hu import (
    GHTree,
    PartitionTree,
    build_cag,
    build_sparsified_cag,
    cag_totals,
    friendly_mincut_sparsifier_from_gh,
    gh_query,
    gomory_hu,
    parse_ghtree,
    partition_tree_from_gh,
    serialize_ghtree,
    validate_ghtree,
    verify_gh_sparsifier,
)
from friendlycuts.graph import (
    ContractionMap,
    Cut,
    Graph,
    GraphParseError,
    Sparsifier,
    UnsupportedInput,
    component_labels,
    contract,
    cut_value,
)
from friendlycuts.maxflow import max_flow
from friendlycuts.oracle import Friendliness, all_pairs_min_cut, min_cut_friendliness


def random_graph(rng, n, p, wmax=5):
    edges = [(u, v, rng.randint(1, wmax))
             for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.build(n, edges)


def assert_valid_gh(g, t):
    validate_ghtree(g, t)
    lam = all_pairs_min_cut(g)
    for s, t2 in itertools.combinations(range(g.n), 2):
        val, cut = gh_query(t, s, t2)
        assert val == lam[s, t2], (s, t2, val, int(lam[s, t2]))
        if 0 < len(cut.side) < g.n:
            assert cut_value(g, cut.side) == val
            assert (s in cut.side) != (t2 in cut.side)


def test_path_tree():
    g = path(5)
    t = gomory_hu(g)
    assert_valid_gh(g, t)
    assert all(gh_query(t, s, v)[0] == 1
               for s, v in itertools.combinations(range(5), 2))


def test_clique_tree():
    g = clique(4)
    t = gomory_hu(g)
    assert_valid_gh(g, t)
    assert all(w == 3 for _, _, w in t.edges)


def test_dumbbell_tree():
    g = dumbbell(5)
    t = gomory_hu(g)
    assert_valid_gh(g, t)
    assert gh_query(t, 0, 9)[0] == 1
    assert gh_query(t, 0, 1)[0] == 4


def test_disconnected_tree():
    g = Graph.build(6, [(0, 1, 2), (1, 2, 2), (3, 4, 1)])
    t = gomory_hu(g)
    assert t.component_count == 3
    val, cut = gh_query(t, 0, 5)
    assert val == 0
    assert cut.side == frozenset({0, 1, 2})
    assert_valid_gh(g, t)


def test_random_trees_match_oracle():
    rng = random.Random(14)
    for _ in range(30):
        n = rng.randint(3, 11)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.8]))
        assert_valid_gh(g, gomory_hu(g))


def test_every_flow_runs_on_the_input_graph(monkeypatch):
    calls = []

    def counting_max_flow(g, s, t, **kwargs):
        calls.append(g)
        return max_flow(g, s, t, **kwargs)

    monkeypatch.setattr(gomory_hu_module, "max_flow", counting_max_flow)
    rng = random.Random(3)
    for g in (dumbbell(5), Graph.build(7, [(0, 1, 2), (1, 2, 3), (4, 5, 1)]),
              random_graph(rng, 12, 0.4)):
        calls.clear()
        gomory_hu(g)
        c = component_labels(g.n, g.edges[:, 0], g.edges[:, 1])[0]
        assert len(calls) == g.n - c
        assert all(h is g for h in calls)


def test_degree_cuts_spare_most_engine_calls_on_sparse_gnp(monkeypatch):
    # unit G(800, 2 ln n/(n - 1)) at seed 7: 29 proving rounds and 2
    # steps proven in neither orientation, 31 engine calls in all (38 when
    # the 7 steps proven only as (t, s) went to the engine, 59 without the
    # retry pass)
    engine_calls = []

    def counting_engine(*args, **kwargs):
        engine_calls.append(args[0].shape[0])
        return engine(*args, **kwargs)

    engine = maxflow._scipy_maximum_flow
    g = gnp(800, 2 * math.log(800) / 799, seed=7)
    monkeypatch.setattr(maxflow, "_scipy_maximum_flow", counting_engine)
    tree = gomory_hu(g)
    assert len(engine_calls) == 31
    # Gusfield's tree with every step sent to the engine
    monkeypatch.setattr(gomory_hu_module, "max_flow", lambda g, s, t, **kwargs: max_flow(g, s, t))
    engine_calls.clear()
    assert gomory_hu(g) == tree
    assert len(engine_calls) == g.n - component_labels(g.n, g.edges[:, 0], g.edges[:, 1])[0]


def test_a_reverse_step_takes_a_tied_maximal_side(monkeypatch):
    # the triangle 0, 1, 3 with the leaf 2 on the hub 3. Step s = 3, t = 0
    # is proven only as (0, 3), as deg 3 > deg 0, so its side is 3's
    # component minus 0, {1, 2, 3}. The engine's minimal side is {2, 3}:
    # 0's degree-2 neighbour 1 ties the two cuts at 2. So 1 moves onto 3,
    # where engine-only Gusfield leaves it on 0, and both trees are valid.
    g = Graph.build(4, [(0, 1, 1), (0, 3, 1), (1, 3, 1), (2, 3, 1)])
    tree = gomory_hu(g)
    assert tree.edges == ((1, 3, 2), (2, 3, 1), (3, 0, 2))
    assert_valid_gh(g, tree)
    monkeypatch.setattr(gomory_hu_module, "max_flow", lambda g, s, t, **kwargs: max_flow(g, s, t))
    engine_only = gomory_hu(g)
    assert engine_only.edges == ((1, 0, 2), (2, 3, 1), (3, 0, 2))
    assert_valid_gh(g, engine_only)


def test_a_flow_side_without_s_is_an_internal_error(monkeypatch):
    # a failed internal check raises, also under python -O
    def sinkside_max_flow(g, s, t, **kwargs):
        value, _ = max_flow(g, s, t, **kwargs)
        return value, Cut(side=frozenset({t}), value=value)

    monkeypatch.setattr(gomory_hu_module, "max_flow", sinkside_max_flow)
    with pytest.raises(RuntimeError, match="must hold s"):
        gomory_hu(path(4))


def test_gusfield_swap_fixture():
    # path 0 -1- 2 -2- 1, root 0. Step s=1, t=0: value 1, minimal side
    # {1, 2}, so 2 is re-hung onto 1. Step s=2, t=1: value 2, minimal side
    # {0, 2} holds parent[1] = 0, so 2 takes 1's place: parent[2] = 0 with
    # weight 1 and parent[1] = 2 with weight 2. Without the swap the tree
    # would be 0 -1- 1 -2- 2, whose edge (1, 2) cuts weight 3 in g.
    g = Graph.build(3, [(0, 2, 1), (1, 2, 2)])
    t = gomory_hu(g)
    assert t.edges == ((1, 2, 2), (2, 0, 1))
    assert_valid_gh(g, t)


def test_weighted_disconnected_beyond_oracle():
    # n = 21..60, past the enumeration oracle: two weighted random pieces
    # plus isolated nodes, checked against max_flow directly
    rng = random.Random(21)
    for _ in range(8):
        a, b, iso = rng.randint(10, 30), rng.randint(5, 25), rng.randint(0, 5)
        n = max(21, a + b + iso)
        edges = random_graph(rng, a, 0.3, wmax=9).edge_list()
        edges += [(u + a, v + a, w) for u, v, w in random_graph(rng, b, 0.4, wmax=9).edge_list()]
        g = Graph.build(n, edges)
        t = gomory_hu(g)
        validate_ghtree(g, t)
        for u, v, w in t.edges:
            assert max_flow(g, u, v)[0] == w
            _, cut = gh_query(t, u, v)
            assert cut_value(g, cut.side) == w
        for _ in range(40):
            s, t2 = rng.sample(range(n), 2)
            val, cut = gh_query(t, s, t2)
            assert val == max_flow(g, s, t2)[0], (s, t2)
            if val:
                assert cut_value(g, cut.side) == val
                assert s in cut.side and t2 not in cut.side


def test_query_tiebreak_is_nearest_source():
    # path tree with two weight-1 edges tied: the edge nearest the source wins
    t = GHTree(n=4, edges=((0, 1, 1), (1, 2, 5), (2, 3, 1)))
    val, cut = gh_query(t, 0, 3)
    assert val == 1
    assert cut.side == frozenset({0})
    val, cut = gh_query(t, 3, 0)
    assert val == 1
    assert cut.side == frozenset({3})


@functools.cache
def _reference_labels(t):
    """Component labels of t, and of t minus each edge in turn, with its weight."""
    e = np.asarray(t.edges, dtype=np.int64).reshape(-1, 3)
    labels = component_labels(t.n, e[:, 0], e[:, 1])[1]
    removals = []
    for i, w in enumerate(e[:, 2].tolist()):
        rest = np.delete(e, i, axis=0)
        removals.append((w, component_labels(t.n, rest[:, 0], rest[:, 1])[1]))
    return labels, removals


def _reference_query(t, s, t2):
    """gh_query from component labels alone: the s,t path edges are the tree
    edges whose removal separates s from t2, ordered from s by the size of
    s's side, which grows along the path."""
    labels, removals = _reference_labels(t)
    if labels[s] != labels[t2]:
        return 0, frozenset(np.flatnonzero(labels == labels[s]).tolist())
    cuts = []
    for w, lab in removals:
        if lab[s] != lab[t2]:
            side = frozenset(np.flatnonzero(lab == lab[s]).tolist())
            cuts.append((w, len(side), side))
    w, _, side = min(cuts, key=lambda c: c[:2])
    return w, side


def test_query_matches_reference_on_random_forests():
    # tied weights, several components and isolated nodes; every ordered pair.
    # Larger forests, and path-like ones that hang each node from one of the
    # two before it, make s's side often the larger part of its component.
    rng = random.Random(80)
    kinds = set()
    for count, largest, span in ((40, 16, None), (6, 40, None), (6, 40, 2)):
        for _ in range(count):
            n = rng.randint(2, largest)
            nodes = list(range(n))
            rng.shuffle(nodes)
            edges = [(nodes[i], nodes[rng.randrange(max(0, i - span) if span else 0, i)],
                      rng.randint(1, 3))
                     for i in range(1, n) if rng.random() < 0.8]
            rng.shuffle(edges)
            t = GHTree(n=n, edges=tuple(edges))
            labels = _reference_labels(t)[0]
            for s, t2 in itertools.permutations(range(n), 2):
                val, cut = gh_query(t, s, t2)
                assert (val, cut.side) == _reference_query(t, s, t2), (t, s, t2)
                assert cut.value == val
                if labels[s] != labels[t2]:
                    kinds.add("other component")
                    continue
                # s's side is the subtree below the bottleneck edge unless it
                # holds the component's root, its smallest node; the side is
                # built directly when at most half the component
                size = np.count_nonzero(labels == labels[s])
                kinds.add(("rest" if t._rooted.root[s] in cut.side else "subtree",
                           "direct" if 2 * len(cut.side) <= size else "difference"))
    assert kinds == {"other component", ("subtree", "direct"), ("subtree", "difference"),
                     ("rest", "direct"), ("rest", "difference")}


def test_query_rejects_edges_that_are_not_a_forest():
    for n in (3, 4):  # with n = 4, node 3 is isolated and the edge count is n - 1
        t = GHTree(n=n, edges=((0, 1, 1), (1, 2, 1), (2, 0, 1)))
        with pytest.raises(ValueError, match="forest"):
            gh_query(t, 0, 1)


def test_rooted_form_is_built_once():
    t = GHTree(n=6, edges=((3, 1, 2), (1, 0, 4), (5, 1, 4)))
    r = t._rooted
    assert r is t._rooted
    assert r.order_list == [0, 1, 3, 5, 2, 4] == r.order.tolist()
    assert r.parent == [6, 0, 6, 1, 6, 1]
    assert r.up == [0, 4, 0, 2, 0, 4]
    assert [r.order_list[r.tin[x]:r.tout[x]] for x in range(6)] == [
        [0, 1, 3, 5], [1, 3, 5], [2], [3], [4], [5]]
    assert r.root == [0, 0, 2, 0, 4, 0]
    assert r.members == {0: frozenset({0, 1, 3, 5}), 2: frozenset({2}), 4: frozenset({4})}
    # a cross-component answer is its component's set itself
    assert gh_query(t, 3, 2)[1].side is gh_query(t, 5, 4)[1].side is r.members[0]
    assert gh_query(t, 2, 0)[1].side is r.members[2]
    assert t == GHTree(n=6, edges=t.edges)


def test_capacity_over_int32_rejected():
    # used to die on a bare AssertionError after the flow wrapped to 0
    g = Graph.build(3, [(0, 1, 2**31), (1, 2, 2**31)])
    with pytest.raises(UnsupportedInput, match="int32"):
        gomory_hu(g)


def test_query_rejects_equal_endpoints():
    t = GHTree(n=2, edges=((0, 1, 1),))
    with pytest.raises(ValueError):
        gh_query(t, 1, 1)


def test_serialization_roundtrip():
    g = Graph.build(6, [(0, 1, 2), (1, 2, 2), (3, 4, 1)])
    t = gomory_hu(g)
    assert parse_ghtree(serialize_ghtree(t)) == t


@pytest.mark.parametrize("edges", [((0, 1, 1), (1, 2, 1), (2, 0, 1)), ((0, 1, -5), (1, 2, 1))],
                         ids=["cycle", "negative-weight"])
def test_serialize_refuses_a_tree_that_query_refuses(edges):
    with pytest.raises(ValueError):
        gh_query(GHTree(n=3, edges=edges), 0, 1)
    with pytest.raises(ValueError):
        serialize_ghtree(GHTree(n=3, edges=edges))


def test_gomory_hu_trees_round_trip_byte_identically():
    rng = random.Random(11)
    graphs = [path(5), dumbbell(4), alt_cycle(10), Graph.build(7, [(0, 1, 2), (4, 5, 3)])]
    graphs += [random_graph(rng, n, 0.3) for n in (2, 9, 14)]
    for g in graphs:
        text = serialize_ghtree(gomory_hu(g))
        assert serialize_ghtree(parse_ghtree(text)) == text


def test_parse_rejects_wrong_edge_count():
    with pytest.raises(GraphParseError):
        parse_ghtree("3 1\n0 1 5\n")


@pytest.mark.parametrize("text", ["2 1\n0 2 5\n", "2 1\n-1 0 5\n", "2 1\n1 1 5\n",
                                  "-2 -2\n", "2 3\n", "2 -1\n"])
def test_parse_rejects_bad_endpoints(text):
    with pytest.raises(GraphParseError) as info:
        parse_ghtree(text)
    assert info.value.line == len(text.splitlines())  # each input's last line is the bad one


def test_parse_rejects_weights_beyond_int64():
    assert parse_ghtree(f"2 1\n0 1 {2**63 - 1}\n").edges == ((0, 1, 2**63 - 1),)
    with pytest.raises(UnsupportedInput, match="int64"):  # was a bare OverflowError
        parse_ghtree(f"2 1\n0 1 {2**63}\n")


def test_partition_tree_rejects_out_of_range_endpoints():
    classes = (frozenset({0}), frozenset({1}))
    for edge in ((-1, 0, 3), (0, 2, 3)):
        with pytest.raises(ValueError):
            PartitionTree(classes=classes, edges=(edge,))


def test_partition_tree_rejects_cycle():
    classes = (frozenset({0}), frozenset({1}), frozenset({2}))
    with pytest.raises(ValueError):
        PartitionTree(classes=classes, edges=((0, 1, 1), (1, 0, 1)))


def test_validate_rejects_corrupt_tree():
    g = path(4)
    good = gomory_hu(g)
    bad = GHTree(n=4, edges=tuple((u, v, w + 1) for u, v, w in good.edges))
    with pytest.raises(ValueError):
        validate_ghtree(g, bad)
    with pytest.raises(ValueError, match="wrong value"):
        friendly_mincut_sparsifier_from_gh(g, bad)
    # the right number of edges, but one repeated or one a self-loop
    e = good.edges
    for corrupt in ((e[0], e[0], e[2]), ((2, 2, 1),) + e[1:]):
        with pytest.raises(ValueError, match="components"):
            validate_ghtree(g, GHTree(n=4, edges=corrupt))
    # a weight of 0 or less is a cut value no graph has: queries reject it too
    for w in (0, -5):
        corrupt = GHTree(n=4, edges=(e[0][:2] + (w,),) + e[1:])
        with pytest.raises(ValueError, match="positive"):
            validate_ghtree(g, corrupt)
        with pytest.raises(ValueError, match="positive"):
            gh_query(GHTree(n=3, edges=((0, 1, w), (1, 2, 1))), 0, 2)


def test_friendly_sparsifier_clique_collapses():
    g = clique(8)
    h = friendly_mincut_sparsifier_from_gh(g, gomory_hu(g))
    assert h.graph.n == 1
    assert h.graph.edge_count == 0


def test_friendly_sparsifier_dumbbell():
    g = dumbbell(5)
    h = friendly_mincut_sparsifier_from_gh(g, gomory_hu(g))
    assert h.graph.n == 2
    assert h.graph.edge_list() == [(0, 1, 1)]


def test_friendly_sparsifier_path_merges_endpoints():
    g = path(6)
    h = friendly_mincut_sparsifier_from_gh(g, gomory_hu(g))
    assert h.graph.n == 4


def test_friendly_sparsifier_preserves_all_friendly_pairs():
    rng = random.Random(50)
    for _ in range(20):
        n = rng.randint(4, 10)
        g = random_graph(rng, n, 0.5, wmax=1)
        lam = all_pairs_min_cut(g)
        h = friendly_mincut_sparsifier_from_gh(g, gomory_hu(g))
        assert h.guarantee == "gh-based"
        pairs = []
        for s, t in itertools.combinations(range(n), 2):
            if min_cut_friendliness(g, s, t).kind is not Friendliness.ALL_FRIENDLY:
                continue
            pairs.append((s, t))
            ss, tt = int(h.map.super_of[s]), int(h.map.super_of[t])
            assert ss != tt
            assert max_flow(h.graph, ss, tt)[0] == lam[s, t]
        assert verify_gh_sparsifier(g, h) == (len(pairs), None)
        if pairs:
            # merging the first all-friendly pair breaks the guarantee there
            s, t = pairs[0]
            sup = h.map.super_of
            merged = ContractionMap.from_labels(np.where(sup == sup[t], sup[s], sup))
            bad = Sparsifier(graph=contract(g, merged), map=merged, guarantee="gh-based")
            assert verify_gh_sparsifier(g, bad) == (1, f"all-friendly pair ({s},{t}) merged "
                                                       f"into super-node {merged.super_of[s]}")


def test_build_cag_trivial_partition():
    g = path(4)
    pt = PartitionTree(classes=(frozenset(range(4)),), edges=())
    assert build_cag(g, pt, 0) == g


def test_build_cag_middle_supernode():
    g = path(4)
    pt = PartitionTree(classes=(frozenset({0}), frozenset({1, 2}), frozenset({3})),
                       edges=((0, 1, 1), (1, 2, 1)))
    cag = build_cag(g, pt, 1)
    assert cag.n == 4
    assert cag.total_weight == 3


def test_build_cag_leaf_supernode():
    g = Graph.build(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    pt = PartitionTree(classes=(frozenset({0, 2, 3}), frozenset({1})),
                       edges=((0, 1, 1),))
    cag = build_cag(g, pt, 1)
    assert cag.n == 2
    assert cag.edge_list() == [(0, 1, 1)]


def test_sparsified_cag_identity_matches_plain():
    rng = random.Random(8)
    for _ in range(10):
        g = random_graph(rng, rng.randint(4, 9), 0.6, wmax=1)
        t = gomory_hu(g)
        if t.component_count != 1:
            continue
        picked = [(u, v) for u, v, _ in t.edges if rng.random() < 0.5]
        pt = partition_tree_from_gh(t, ContractionMap.from_classes(g.n, picked))
        ident = Sparsifier.identity(g)
        for i in range(pt.k):
            assert build_sparsified_cag(ident, pt, i) == build_cag(g, pt, i)


def test_sparsified_cag_consistency_rule():
    # sparsifier contracting across two neighbor components forces a merge
    g = path(4)
    ght = gomory_hu(g)
    pt = PartitionTree(classes=(frozenset({1}), frozenset({0}), frozenset({2, 3})),
                       edges=((0, 1, 1), (0, 2, 1)))
    h = Sparsifier.of(g, ContractionMap.from_classes(4, [{0, 2}]))
    cag = build_sparsified_cag(h, pt, 0)
    # components {0} and {2,3} straddle an h-class, so they collapse together
    assert cag.n == 2


def test_cag_totals_single_supernode():
    g = clique(5)
    pt = PartitionTree(classes=(frozenset(range(5)),), edges=())
    assert cag_totals(g, pt) == (5, 10)


def test_cag_node_totals_bounded():
    rng = random.Random(33)
    for _ in range(20):
        g = random_graph(rng, rng.randint(5, 11), 0.5, wmax=1)
        t = gomory_hu(g)
        if t.component_count != 1:
            continue
        picked = [(u, v) for u, v, _ in t.edges if rng.random() < 0.5]
        pt = partition_tree_from_gh(t, ContractionMap.from_classes(g.n, picked))
        nodes, _ = cag_totals(g, pt)
        assert nodes <= 3 * g.n
        h = friendly_mincut_sparsifier_from_gh(g, t)
        nodes_h, _ = cag_totals(h, pt)
        assert nodes_h <= 3 * g.n


def test_weighted_tree_edges_on_multigraph():
    # the alternating-weight cycle is the canonical weighted fixture
    g = alt_cycle(8, 5)
    t = gomory_hu(g)
    assert_valid_gh(g, t)
