import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from friendlycuts.gomory_hu import GHTree, parse_ghtree, serialize_ghtree
from friendlycuts.sparsify import parse_sparsifier, serialize_sparsifier
from friendlycuts.graph import (
    CROSS_DEN,
    CROSS_NUM,
    ContractionMap,
    Cut,
    Graph,
    GraphParseError,
    Sparsifier,
    UnsupportedInput,
    _merge_parallel,
    component_labels,
    contract,
    crossing_rows,
    crossing_weights,
    cut_value,
    cut_weight,
    degree,
    degrees,
    edge_sums,
    is_friendly,
    parse_graph,
    parse_node_subset,
    serialize_graph,
    serialize_node_subset,
    unfriendly_nodes,
    volume,
)


def small_graphs():
    edge = st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(1, 9))
    return st.builds(
        lambda n, raw: Graph.build(n, [(u, v, w) for u, v, w in raw if u != v and u < n and v < n]),
        st.integers(2, 8),
        st.lists(edge, max_size=20),
    )


def test_build_merges_parallel_edges():
    g = Graph.build(3, [(0, 1, 2), (1, 0, 3), (1, 2, 1)])
    assert g.edge_list() == [(0, 1, 5), (1, 2, 1)]
    assert g.total_weight == 6


def test_build_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph.build(2, [(0, 0, 1)])
    with pytest.raises(ValueError):
        Graph.build(2, [(0, 1, 0)])
    with pytest.raises(ValueError):
        Graph.build(2, [(0, 2, 1)])
    # entries that are not integers are rejected, not truncated; numpy reads
    # a bool among ints as an int, so it is looked for
    for edges in ([(0, 1, 2.7)], [(0.5, 1, 3)], [(0, 1, 2.0)], [(0, 1, "3")],
                  np.array([[0, 1, 3.0]]), [(0, 1, True)], [(0, 1, np.True_)],
                  [(0, True, 3)], [np.array([0, 1, 3]), np.array([True, False, True])]):
        with pytest.raises(ValueError, match="integers"):
            Graph.build(2, edges)
    for xv in ([0.5, 0], [True, 0], [np.True_, 0]):
        with pytest.raises(ValueError, match="integers"):
            Graph.build(2, [(0, 1, 1)], extra_volume=xv)
    assert Graph.build(2, [(0, 1, np.int32(3))]).edge_list() == [(0, 1, 3)]


INT64_MAX = 2**63 - 1
MAX_TOTAL = INT64_MAX // CROSS_NUM


def test_build_total_weight_bound():
    # CROSS_NUM times the total weight plus extra volume must fit in int64
    assert CROSS_NUM * MAX_TOTAL <= INT64_MAX < CROSS_NUM * (MAX_TOTAL + 1)
    half = MAX_TOTAL // 2
    for edges, xv in [([(0, 1, MAX_TOTAL)], None),
                      ([(0, 1, half), (1, 0, MAX_TOTAL - half)], None),
                      ([(0, 1, MAX_TOTAL - 7)], [3, 4])]:
        g = Graph.build(2, edges, extra_volume=xv)
        assert g.total_weight + int(g.extra_volume.sum()) == MAX_TOTAL
        assert volume(g, [0, 1]) == 2 * g.total_weight + int(g.extra_volume.sum())
    for edges, xv in [([(0, 1, MAX_TOTAL + 1)], None),
                      ([(0, 1, half), (1, 0, MAX_TOTAL + 1 - half)], None),
                      ([(0, 1, MAX_TOTAL - 7)], [4, 4]),
                      ([(0, 1, 1)], [2**63, 0]),
                      # merges to 2**63, which int64 would wrap to -2**63
                      ([(0, 1, 2**62), (1, 0, 2**62)], None),
                      ([(0, 1, 2**63)], None),
                      ([(0, 1, 2**70)], None)]:
        with pytest.raises(UnsupportedInput, match="int64"):
            Graph.build(2, edges, extra_volume=xv)


def test_friendliness_is_exact_at_the_total_weight_bound():
    # path 0 -a- 1 -b- 2 with a + b at the bound: node 1 sends a across the
    # cut {0}, a few units below or above 3/5 of its degree, and all of its
    # degree across the cut {1}, where CROSS_DEN * degree would wrap in int64
    assert CROSS_DEN * MAX_TOTAL > INT64_MAX
    threshold = CROSS_NUM * MAX_TOTAL // CROSS_DEN
    for a, unfriendly in ((threshold, False), (threshold + 1, True)):
        assert (CROSS_DEN * a > CROSS_NUM * MAX_TOTAL) == unfriendly
        g = Graph.build(3, [(0, 1, a), (1, 2, MAX_TOTAL - a)])
        assert g.total_weight == MAX_TOTAL
        assert unfriendly_nodes(g, np.array([0, 1, 1])).tolist() == [True, unfriendly, False]
        assert unfriendly_nodes(g, np.array([0, 1, 0])).tolist() == [True, True, True]
        assert cut_value(g, {1}) == MAX_TOTAL and volume(g, [0, 1, 2]) == 2 * MAX_TOTAL


def test_degrees_exclude_extra_volume():
    g = Graph.build(3, [(0, 1, 4)], extra_volume=[7, 0, 2])
    assert degree(g, 0) == 4
    assert volume(g, [0]) == 11
    assert volume(g, [2]) == 2


def test_degrees_are_computed_once_and_read_only():
    g = Graph.build(4, [(0, 1, 2**60), (0, 2, 2**60 + 1), (2, 3, 1)])
    deg = degrees(g)
    assert degrees(g) is deg and not deg.flags.writeable
    # exact in int64: float64 weights would round 2**61 + 1
    assert deg.tolist() == [2**61 + 1, 2**60, 2**60 + 2, 1]


def test_cut_value_path():
    g = Graph.build(4, [(0, 1, 1), (1, 2, 5), (2, 3, 1)])
    assert cut_value(g, {0, 1}) == 5
    assert cut_value(g, {0}) == 1
    with pytest.raises(ValueError):
        cut_value(g, set())
    with pytest.raises(ValueError):
        cut_value(g, {0, 1, 2, 3})


def test_is_friendly_triangle_plus_pendant():
    # pendant node sends its whole degree across: unfriendly
    g = Graph.build(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)])
    assert not is_friendly(g, {3})
    assert not is_friendly(g, {0, 1, 2})  # same cut, other side


def test_is_friendly_even_split():
    # C_4: opposite split, each node keeps 1 of 2 across -> 0.5 <= 0.6
    g = Graph.build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    assert is_friendly(g, {0, 1})


def test_friendliness_threshold_is_strict():
    # every node sends exactly 3/5 of its degree across: still friendly
    g = Graph.build(4, [(0, 1, 2), (0, 2, 3), (1, 3, 3), (2, 3, 2)])
    assert is_friendly(g, {0, 1})
    # one extra crossing unit tips a node past 3/5
    g2 = Graph.build(4, [(0, 1, 2), (0, 2, 4), (1, 3, 3), (2, 3, 2)])
    assert not is_friendly(g2, {0, 1})


INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def labelled_graphs(draw):
    """A weighted graph on 0..12 nodes, possibly without edges, and a node
    labelling: small integers (many repeats), one label for every node, or
    all labels distinct."""
    n = draw(st.integers(0, 12))
    node = st.integers(0, max(n - 1, 0))
    raw = draw(st.lists(st.tuples(node, node, st.integers(1, 2**40)), max_size=30))
    g = Graph.build(n, [(u, v, w) for u, v, w in raw if u != v])
    labels = draw(st.one_of(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        INT64.map(lambda x: [x] * n),
        st.lists(INT64, min_size=n, max_size=n, unique=True),
    ))
    return g, np.array(labels, dtype=np.int64)


def per_edge_reference(g, labels):
    """Degrees, crossing rows, per-node crossing weights, their total and the
    unfriendly nodes, summed edge by edge in Python ints."""
    deg, cross, total, rows = [0] * g.n, [0] * g.n, 0, []
    for u, v, w in g.edge_list():
        deg[u] += w
        deg[v] += w
        if labels[u] != labels[v]:
            cross[u] += w
            cross[v] += w
            total += w
            rows.append((u, v, w))
    return deg, rows, cross, total, [5 * c > 3 * d for c, d in zip(cross, deg)]


@given(labelled_graphs())
@settings(max_examples=200, deadline=None)
def test_cut_primitives_match_per_edge_reference(case):
    g, labels = case
    deg, rows, cross, total, unfriendly = per_edge_reference(g, labels)
    assert edge_sums(g.n, g.edges).tolist() == deg == degrees(g).tolist()
    assert [tuple(r) for r in g.edges[crossing_rows(g.edges, labels)].tolist()] == rows
    assert crossing_weights(g, labels).tolist() == cross
    assert cut_weight(g, labels) == total
    assert unfriendly_nodes(g, labels).tolist() == unfriendly
    side = labels == labels[0] if g.n else labels
    if 0 < side.sum() < g.n:  # a proper side: the set-based queries agree
        _, _, _, total, unfriendly = per_edge_reference(g, side)
        members = np.flatnonzero(side).tolist()
        assert cut_value(g, members) == total
        assert is_friendly(g, members) == (not any(unfriendly))


def test_crossing_rows_reads_one_and_many_labellings_as_fancy_indexing_does():
    rng = np.random.default_rng(5)
    for n, m, k in ((2, 1, 1), (9, 30, 3), (40, 200, 17)):
        edges = np.column_stack([rng.integers(0, n, size=(m, 2)), rng.integers(1, 9, size=m)])
        for labels in (rng.integers(0, 3, size=n), rng.random((k, n)).T < 0.5):
            expect = labels[edges[:, 0]] != labels[edges[:, 1]]
            got = crossing_rows(edges, labels)
            assert got.shape == expect.shape and (got == expect).all()


def test_cut_primitives_without_edges():
    g = Graph.build(5, [])
    labels = np.arange(5)
    assert edge_sums(5, g.edges).tolist() == [0] * 5
    assert crossing_rows(g.edges, labels).shape == (0,)
    assert crossing_weights(g, labels).tolist() == [0] * 5
    assert cut_weight(g, labels) == 0
    assert not unfriendly_nodes(g, labels).any()
    assert is_friendly(g, {0, 1})


@given(small_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_cut_value_symmetric(g, data):
    side = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n - 1))
    other = set(range(g.n)) - side
    if not other:
        return
    assert cut_value(g, side) == cut_value(g, other)


@given(small_graphs())
@settings(max_examples=40, deadline=None)
def test_contract_identity_is_noop(g):
    assert contract(g, ContractionMap.identity(g.n)) == g


def test_contract_sums_weights_and_drops_loops():
    g = Graph.build(4, [(0, 1, 2), (0, 2, 1), (1, 2, 3), (2, 3, 1)])
    cmap = ContractionMap.from_classes(4, [{0, 1}])
    h = contract(g, cmap)
    assert h.n == 3
    # edge (0,1) became a self-loop and vanished; (0,2)+(1,2) merged
    assert h.edge_list() == [(0, 1, 4), (1, 2, 1)]


@given(small_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_contract_preserves_noncrossing_cut_values(g, data):
    side = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n - 1))
    if len(side) == g.n:
        return
    # contract a class inside the side: the cut value must be unchanged
    if len(side) < 2:
        return
    cmap = ContractionMap.from_classes(g.n, [side])
    h = contract(g, cmap)
    mapped = {int(cmap.super_of[v]) for v in side}
    assert len(mapped) == 1
    assert cut_value(h, mapped) == cut_value(g, side)


def test_contraction_map_compose():
    a = ContractionMap.from_classes(5, [{0, 1}])
    b = ContractionMap.from_classes(a.n_super, [{0, 1}])
    c = a.compose(b)
    assert c.n_super == 3
    assert int(c.super_of[0]) == int(c.super_of[2])


def _reference_components(n, u, v):
    """Plain BFS: one frozenset per component."""
    adj = [[] for _ in range(n)]
    for a, b in zip(u, v):
        adj[a].append(b)
        adj[b].append(a)
    seen, comps = set(), set()
    for r in range(n):
        if r in seen:
            continue
        comp, queue = {r}, [r]
        while queue:
            for y in adj[queue.pop()]:
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        comps.add(frozenset(comp))
    return comps


def _check_component_labels(n, u, v):
    count, labels = component_labels(n, u, v)
    assert labels.shape == (n,)
    got = {frozenset(np.flatnonzero(labels == c).tolist()) for c in range(count)}
    assert got == _reference_components(n, u, v)
    # numbered by smallest node: labels first appear as 0, 1, 2, ... in node order
    _, first = np.unique(labels, return_index=True)
    assert np.all(np.diff(first) > 0) and len(first) == count


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
             max_size=30 if n else 0))))
def test_component_labels_match_reference_bfs(case):
    n, pairs = case
    u = [a for a, _ in pairs]
    v = [b for _, b in pairs]
    _check_component_labels(n, u, v)


def test_component_labels_seeded_graphs():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 60))
        m = int(rng.integers(0, 2 * n))
        u, v = rng.integers(0, n, size=m), rng.integers(0, n, size=m)
        u, v = np.concatenate([u, u[: m // 3]]), np.concatenate([v, v[: m // 3]])  # repeats
        _check_component_labels(n, u.tolist(), v.tolist())


def test_component_labels_edge_cases():
    assert component_labels(0, [], [])[0] == 0
    assert component_labels(0, [], [])[1].shape == (0,)
    count, labels = component_labels(1, [], [])
    assert count == 1 and labels.tolist() == [0]
    count, labels = component_labels(5, [4, 4, 4], [1, 1, 1])  # repeats, isolated 0, 2, 3
    assert count == 4 and labels.tolist() == [0, 1, 2, 3, 1]


def test_from_classes_rejects_out_of_range_node():
    with pytest.raises(ValueError):
        ContractionMap.from_classes(3, [{0, 3}])
    with pytest.raises(ValueError):
        ContractionMap.from_classes(3, [{-1, 0}])


def test_parse_serialize_roundtrip():
    g = Graph.build(4, [(0, 1, 2), (2, 3, 1)])
    assert parse_graph(serialize_graph(g)) == g


def test_parse_accepts_comments_and_default_weight():
    text = "3 2\n# comment\n0 1\n\n1 2 4\n"
    g = parse_graph(text)
    assert g.edge_list() == [(0, 1, 1), (1, 2, 4)]


def test_parse_reports_line_numbers():
    with pytest.raises(GraphParseError) as exc:
        parse_graph("3 1\n0 1 1\n0 2 x\n")
    assert "line 3" in str(exc.value)


_BASE = Graph.build(4, [(0, 1, 2), (1, 2, 1), (2, 3, 1)])
_SPARSIFIER = Sparsifier.of(_BASE, ContractionMap.from_labels([0, 0, 1, 1]))


@pytest.mark.parametrize("parse, text", [
    (parse_graph, serialize_graph(_BASE)),
    (parse_node_subset, serialize_node_subset({1, 4, 7})),
    (parse_ghtree, serialize_ghtree(GHTree(n=4, edges=((0, 1, 3), (1, 2, 2), (2, 3, 1))))),
    (lambda text: parse_sparsifier(text, _BASE), serialize_sparsifier(_SPARSIFIER)),
], ids=["graph", "subset", "ghtree", "sparsifier"])
def test_every_parser_reads_one_comment_rule(parse, text):
    # a leading comment line, an inline comment on every line, blank lines between
    commented = "# made by hand\n" + "".join(f"  {line}  # note\n\n" for line in text.splitlines())
    assert parse(commented) == parse(text)


_PARSERS = {"graph": parse_graph, "subset": parse_node_subset, "ghtree": parse_ghtree,
            "sparsifier": lambda text: parse_sparsifier(text, _BASE)}


@pytest.mark.parametrize("fmt, text, line, form, got", [
    ("graph", "3 x\n0 1\n", 1, "header 'n m'", "3 x"),
    ("graph", "3\n", 1, "header 'n m'", "3"),
    ("graph", "3 2\n0 1\n1 y 2\n", 3, "edge 'u v [w]'", "1 y 2"),
    ("graph", "3 1\n0 1 2 4\n", 2, "edge 'u v [w]'", "0 1 2 4"),
    ("ghtree", "2 z\n", 1, "header 'n components'", "2 z"),
    ("ghtree", "2 1 0\n", 1, "header 'n components'", "2 1 0"),
    ("ghtree", "2 1\n0 1\n", 2, "edge 'u v w'", "0 1"),  # tree edges carry their weight
    ("ghtree", "2 1\n0 1 1.5\n", 2, "edge 'u v w'", "0 1 1.5"),
    ("sparsifier", "sparsifier x 2\n0\n0\n1\n1\n2 1\n0 1 1\n", 1,
     "header counts 'n_orig n_super'", "x 2"),
    ("sparsifier", "sparsifier 4 2\n0\nq\n1\n1\n2 1\n0 1 1\n", 3, "a super-node id", "q"),
    ("sparsifier", "sparsifier 4 2\n0\n0 0\n1\n1\n2 1\n0 1 1\n", 3, "a super-node id", "0 0"),
    ("sparsifier", "sparsifier 4 2\n0\n0\n1\n1\n2 1\n0 1 w\n", 7, "edge 'u v [w]'", "0 1 w"),
    ("subset", "1\n2 3\n", 2, "a node id", "2 3"),
    ("subset", "1\nv7\n", 2, "a node id", "v7"),
], ids=["graph-header", "graph-header-count", "graph-edge", "graph-edge-count",
        "ghtree-header", "ghtree-header-count", "ghtree-edge-count", "ghtree-edge",
        "sparsifier-header", "sparsifier-map", "sparsifier-map-count", "sparsifier-edge",
        "subset-count", "subset-id"])
def test_every_malformed_field_names_its_line_and_form(fmt, text, line, form, got):
    # a leading comment and a blank line move every line down by two
    for prefix, shift in (("", 0), ("# by hand\n\n", 2)):
        with pytest.raises(GraphParseError) as info:
            _PARSERS[fmt](prefix + text)
        assert info.value.line == line + shift
        assert str(info.value) == f"line {line + shift}: expected {form}, got '{got}'"


def test_node_subset_roundtrip():
    s = frozenset({1, 4, 7})
    assert parse_node_subset(serialize_node_subset(s)) == s


def test_sparsifier_identity():
    g = Graph.build(3, [(0, 1, 1), (1, 2, 1)])
    h = Sparsifier.identity(g)
    assert h.graph == g


def test_cut_of_computes_value():
    g = Graph.build(3, [(0, 1, 2), (1, 2, 3)])
    c = Cut.of(g, {1})
    assert c.value == 5


@st.composite
def canonical_arcs(draw):
    """Distinct (u, v) pairs with u < v, in increasing (u, v) order, with
    positive int64 weights: the form every graph's edge array takes."""
    n = draw(st.integers(0, 40))
    pairs = draw(st.sets(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
                         .filter(lambda e: e[0] < e[1]), max_size=60))
    rows = [(u, v, draw(st.integers(1, 2**61))) for u, v in sorted(pairs)]
    return n, np.array(rows, dtype=np.int64).reshape(-1, 3)


@given(canonical_arcs())
@settings(max_examples=200, deadline=None)
def test_merge_parallel_leaves_canonical_arcs_unchanged(case):
    n, arcs = case
    merged = _merge_parallel(n, arcs)
    assert merged.dtype == np.int64 and np.array_equal(merged, arcs)
    assert merged is not arcs and not np.shares_memory(merged, arcs)
    # a repeat, in order or not, and a reversed order are still merged and sorted
    if len(arcs):
        expected = arcs.copy()
        expected[0, 2] *= 2
        for repeated in (np.concatenate([arcs[:1], arcs]),
                         np.concatenate([arcs[::-1, [1, 0, 2]], arcs[:1]])):
            assert np.array_equal(_merge_parallel(n, repeated), expected)
