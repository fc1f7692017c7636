import csv
import io
import itertools
import math
import random
import shlex
from pathlib import Path

import numpy as np
import pytest

from friendlycuts import cli
from friendlycuts.cli import (
    CSV_COLUMNS,
    EXIT_GUARD,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VERIFY,
    main,
)
from friendlycuts.gomory_hu import GHTree
from friendlycuts.graph import CROSS_NUM, Graph, Sparsifier, parse_graph, serialize_graph
from friendlycuts.sparsify import serialize_sparsifier
from friendlycuts.generators import clique, clique_of_cliques, dumbbell, gnp, path
from friendlycuts.maxflow import min_cuts_between_sets


def run(args):
    return main(list(args))


def test_gen_ghtree_verify_roundtrip(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    tpath = tmp_path / "t.txt"
    assert run(["gen", "--family", "dumbbell", "--n", "4", "--out", str(gpath)]) == EXIT_OK
    assert run(["ghtree", "--in", str(gpath), "--out", str(tpath)]) == EXIT_OK
    assert run(["verify", "--in", str(gpath), "--artifact", str(tpath)]) == EXIT_OK
    # at n <= 20 every pair is compared against one max-flow per pair
    assert capsys.readouterr().out == "ok: all 28 pair values match max-flow\n"


def test_sparsify_and_verify(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    spath = tmp_path / "h.txt"
    gpath.write_text(serialize_graph(clique(8)))
    assert run(["sparsify", "--in", str(gpath), "--w", "2",
                "--mode", "iterative", "--out", str(spath)]) == EXIT_OK
    assert run(["verify", "--in", str(gpath), "--artifact", str(spath),
                "--w", "2"]) == EXIT_OK


def test_verify_detects_mismatched_graph(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    tpath = tmp_path / "t.txt"
    other = tmp_path / "other.txt"
    gpath.write_text(serialize_graph(path(5)))
    other.write_text(serialize_graph(clique(5)))
    assert run(["ghtree", "--in", str(gpath), "--out", str(tpath)]) == EXIT_OK
    assert run(["verify", "--in", str(other), "--artifact", str(tpath)]) == EXIT_VERIFY
    assert "verification failed" in capsys.readouterr().out


def test_readme_command_line_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [line for line in block.splitlines() if line.startswith("friendlycuts ")]
    parser = cli.build_parser()
    for line in examples:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
    # one example, at least, per subcommand
    assert {shlex.split(line)[1] for line in examples} == {
        "gen", "sparsify", "ghtree", "sscut", "verify", "bench"}


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("this is not a graph\n")
    assert run(["ghtree", "--in", str(bad)]) == EXIT_PARSE
    assert run(["ghtree", "--in", str(tmp_path / "missing.txt")]) == EXIT_PARSE
    # usage errors are input errors too, not verification failures
    assert run(["ghtree", "--in", str(bad), "--algo", "accelerated"]) == EXIT_PARSE
    assert run(["sscut", "--in", str(bad)]) == EXIT_PARSE
    # on a valid graph too: sscut has one pipeline, no mode and no seed
    good = tmp_path / "good.txt"
    good.write_text(serialize_graph(clique(5)))
    for mode in ("accelerated", "exact", "unfriendly"):
        assert run(["sscut", "--in", str(good), "--source", "0", "--mode", mode]) == EXIT_PARSE
    assert run(["sscut", "--in", str(good), "--source", "0", "--seed", "1"]) == EXIT_PARSE
    assert capsys.readouterr().out == ""
    assert run(["no-such-command"]) == EXIT_PARSE
    assert "usage:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        run(["ghtree", "--help"])
    assert info.value.code == 0


def test_verify_rejects_tree_with_out_of_range_endpoint(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    tpath = tmp_path / "t.txt"
    gpath.write_text(serialize_graph(path(2)))
    # header counts out of range are rejected on their line, before scipy sees them
    for text, line in (("2 1\n0 2 5\n", 2), ("-2 -2\n", 1), ("2 3\n", 1), ("2 -1\n", 1)):
        tpath.write_text(text)
        assert run(["verify", "--in", str(gpath), "--artifact", str(tpath)]) == EXIT_PARSE
        assert f"line {line}" in capsys.readouterr().err


def test_verify_rejects_tree_with_non_positive_weight(tmp_path, capsys):
    # as parse_graph does for graph edges: bad input, not a failed check
    gpath = tmp_path / "g.txt"
    tpath = tmp_path / "t.txt"
    gpath.write_text(serialize_graph(path(2)))
    for text, line in (("2 1\n0 1 0\n", 2), ("2 1\n# by hand\n1 0 -3\n", 3)):
        tpath.write_text(text)
        assert run(["verify", "--in", str(gpath), "--artifact", str(tpath)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == "" and f"line {line}: non-positive weight" in captured.err


def test_verify_sparsifier_input_errors_exit_code(tmp_path, capsys):
    # a bad header or a graph of the wrong size is an input error, not a failed check
    cycle = tmp_path / "c4.txt"
    apath = tmp_path / "h.txt"
    cycle.write_text("4 4\n0 1 1\n1 2 1\n2 3 1\n3 0 1\n")
    for text, code in (("sparsifier x 3\n0\n1\n2\n3\n4 0\n", EXIT_PARSE),
                       ("sparsifier 4 4\n0\n1\n2\n3\n2 0\n", EXIT_PARSE),
                       # class {0, 2} crosses the friendly cut {0, 1}
                       ("sparsifier 4 3\n0\n1\n0\n2\n3 0\n", EXIT_VERIFY)):
        apath.write_text(text)
        assert run(["verify", "--in", str(cycle), "--artifact", str(apath),
                    "--w", "2"]) == code
        out = capsys.readouterr().out
        assert ("verification failed" in out) == (code == EXIT_VERIFY)


def test_verify_reads_past_leading_comments(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    plain = tmp_path / "h.txt"
    commented = tmp_path / "commented.txt"
    assert run(["gen", "--family", "gnp", "--n", "18", "--p", "0.3", "--seed", "1",
                "--out", str(gpath)]) == EXIT_OK
    assert run(["sparsify", "--in", str(gpath), "--mode", "gh-based", "--w", "16",
                "--out", str(plain)]) == EXIT_OK
    commented.write_text("# made by hand\n" + plain.read_text())
    results = []
    for artifact in (plain, commented):
        code = run(["verify", "--in", str(gpath), "--artifact", str(artifact), "--w", "16"])
        results.append((code, capsys.readouterr().out))
    assert results[0] == results[1]


def test_verify_checks_the_gh_based_guarantee(tmp_path, capsys):
    # every tree edge of G(18, 0.3) seed 1 is unfriendly: one super-node, and
    # no pair whose minimum cuts are all friendly, so nothing may fail
    gpath = tmp_path / "g.txt"
    apath = tmp_path / "h.txt"
    assert run(["gen", "--family", "gnp", "--n", "18", "--p", "0.3", "--seed", "1",
                "--out", str(gpath)]) == EXIT_OK
    assert run(["sparsify", "--in", str(gpath), "--mode", "gh-based", "--w", "16",
                "--out", str(apath)]) == EXIT_OK
    assert apath.read_text().startswith("sparsifier 18 1 gh-based\n")
    assert run(["verify", "--in", str(gpath), "--artifact", str(apath), "--w", "16"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("ok (gh-based): 0 all-friendly pairs")
    # dumbbell(4): the 16 pairs across the bridge have one, friendly, minimum cut
    gpath.write_text(serialize_graph(dumbbell(4)))
    assert run(["sparsify", "--in", str(gpath), "--mode", "gh-based",
                "--out", str(apath)]) == EXIT_OK
    assert run(["verify", "--in", str(gpath), "--artifact", str(apath)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("ok (gh-based): 16 all-friendly pairs")
    for text, message in (
            # merges the bridge's ends
            ("sparsifier 8 1 gh-based\n" + "0\n" * 8 + "1 0\n",
             "pair (0,4) merged into super-node 0"),
            # keeps the sides apart, at the wrong value
            ("sparsifier 8 2 gh-based\n" + "0\n" * 4 + "1\n" * 4 + "2 1\n0 1 2\n",
             "pair (0,4) has min cut 2 in the sparsifier, 1 in the graph")):
        apath.write_text(text)
        assert run(["verify", "--in", str(gpath), "--artifact", str(apath)]) == EXIT_VERIFY
        assert message in capsys.readouterr().out
    # the same files read as friendly-w artifacts are checked for that guarantee
    apath.write_text(text.replace(" gh-based", ""))
    assert run(["verify", "--in", str(gpath), "--artifact", str(apath)]) == EXIT_PARSE
    assert run(["verify", "--in", str(gpath), "--artifact", str(apath), "--w", "1"]) == EXIT_VERIFY
    assert "verification failed: friendly cut" in capsys.readouterr().out


def test_verify_gh_based_guard_and_unknown_guarantee(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    apath = tmp_path / "h.txt"
    gpath.write_text(serialize_graph(clique(21)))
    assert run(["sparsify", "--in", str(gpath), "--mode", "gh-based",
                "--out", str(apath)]) == EXIT_OK
    assert run(["verify", "--in", str(gpath), "--artifact", str(apath)]) == EXIT_GUARD
    assert "guard exceeded" in capsys.readouterr().err
    gpath.write_text(serialize_graph(path(2)))
    apath.write_text("sparsifier 2 2 exact\n0\n1\n2 1\n0 1 1\n")
    assert run(["verify", "--in", str(gpath), "--artifact", str(apath)]) == EXIT_PARSE
    assert "line 1: unknown guarantee 'exact'" in capsys.readouterr().err


def test_verify_large_tree_reports_skipped_cross_component_pairs(tmp_path, capsys):
    # two disjoint 11-cliques: n = 22 is above the oracle guard, so verify
    # spot-checks 20 seeded pairs and cannot compare a cross pair by flow
    g = Graph.build(22, [(a + u, a + v, 1) for a in (0, 11)
                         for u, v in itertools.combinations(range(11), 2)])
    gpath = tmp_path / "g.txt"
    tpath = tmp_path / "t.txt"
    gpath.write_text(serialize_graph(g))
    assert run(["ghtree", "--in", str(gpath), "--out", str(tpath)]) == EXIT_OK
    rng = random.Random(3)
    pairs = [rng.sample(range(22), 2) for _ in range(20)]
    skipped = sum((s < 11) != (t < 11) for s, t in pairs)
    assert 0 < skipped < 20
    assert run(["verify", "--in", str(gpath), "--artifact", str(tpath), "--seed", "3"]) == EXIT_OK
    assert capsys.readouterr().out == (
        f"ok: structure valid, {20 - skipped} of 20 spot-checked pairs match max-flow, "
        f"{skipped} skipped as cross-component\n")


def test_verify_rejects_map_ids_out_of_order(tmp_path, capsys):
    # triangles A={0,1,2}, B={3,4,5}, C={6,7,8}; A-B weight 1, B-C weight 2
    triangles = [(a + x, a + y) for a in (0, 3, 6) for x, y in ((0, 1), (1, 2), (0, 2))]
    edges = triangles + [(2, 3), (4, 6), (5, 7)]
    gpath = tmp_path / "g.txt"
    gpath.write_text(f"9 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    apath = tmp_path / "h.txt"
    # map C, B, A -> 0, 1, 2; only the second graph is right in those ids
    for graph in ("3 2\n0 1 1\n1 2 2\n", "3 2\n1 2 1\n0 1 2\n"):
        apath.write_text("sparsifier 9 3\n2\n2\n2\n1\n1\n1\n0\n0\n0\n" + graph)
        assert run(["verify", "--in", str(gpath), "--artifact", str(apath),
                    "--w", "4"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == "" and "line 2: map id 2 out of order" in captured.err


def test_guard_exit_code(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    spath = tmp_path / "h.txt"
    gpath.write_text(serialize_graph(clique(25)))
    assert run(["sparsify", "--in", str(gpath), "--w", "2",
                "--out", str(spath)]) == EXIT_OK
    assert run(["verify", "--in", str(gpath), "--artifact", str(spath),
                "--w", "2"]) == EXIT_GUARD


def test_sscut_modes(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text(serialize_graph(clique(5)))
    assert run(["sscut", "--in", str(gpath), "--source", "0"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [f"{v} 4" for v in range(1, 5)]


def test_sscut_and_flow_guards_exit_code(tmp_path, capsys):
    small = tmp_path / "g.txt"
    # weights above n^4 are answered: only the isolating phase, behind a
    # library caller's estimator, bounds them
    small.write_text("3 2\n0 1 200\n1 2 1\n")
    assert run(["sscut", "--in", str(small), "--source", "0"]) == EXIT_OK
    assert capsys.readouterr().out == "1 200\n2 1\n"
    big = tmp_path / "big.txt"
    big.write_text(f"3 2\n0 1 {2**31}\n1 2 {2**31}\n")
    tree = tmp_path / "t.txt"
    tree.write_text(f"3 1\n0 1 {2**31}\n1 2 {2**31}\n")
    for args in (["sscut", "--in", str(big), "--source", "0"],
                 ["ghtree", "--in", str(big)],
                 ["verify", "--in", str(big), "--artifact", str(tree)]):
        assert run(args) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == "" and "int32" in captured.err


def test_total_weight_bound_exit_code(tmp_path, capsys):
    bound = (2**63 - 1) // CROSS_NUM
    c = (bound - 2) // 4
    gpath, hpath = tmp_path / "g.txt", tmp_path / "h.txt"
    # a 4-cycle of total weight exactly the bound: its two friendly cuts
    # are found and kept by the identity sparsifier
    at_bound = Graph.build(4, [(0, 1, c), (1, 2, c), (2, 3, c + 1), (3, 0, c + 1)])
    assert at_bound.total_weight == bound
    gpath.write_text(serialize_graph(at_bound))
    hpath.write_text(serialize_sparsifier(Sparsifier.identity(at_bound)))
    args = ["verify", "--in", str(gpath), "--artifact", str(hpath), "--w", str(bound)]
    assert run(args) == EXIT_OK
    assert f"ok (friendly-w): 2 friendly cuts of value <= {bound}" in capsys.readouterr().out
    # one more unit, or parallel edges that merge past int64, are rejected
    # before any arithmetic; so is a single weight of 2**63
    for text in (f"4 4\n0 1 {c}\n1 2 {c}\n2 3 {c + 1}\n3 0 {c + 2}\n",
                 f"3 3\n0 1 {2**62}\n1 0 {2**62}\n1 2 5\n",
                 f"2 1\n0 1 {2**63}\n"):
        gpath.write_text(text)
        for args in (["ghtree", "--in", str(gpath)],
                     ["sscut", "--in", str(gpath), "--source", "0"],
                     ["verify", "--in", str(gpath), "--artifact", str(hpath), "--w", "1"]):
            assert run(args) == EXIT_PARSE
            captured = capsys.readouterr()
            assert captured.out == "" and "int64" in captured.err


def test_sscut_internal_check_failure_is_not_an_input_error(tmp_path, monkeypatch):
    # only inputs outside a routine's limits map to exit 3; a failed
    # self-check surfaces as the error it is
    gpath = tmp_path / "g.txt"
    gpath.write_text(serialize_graph(path(4)))

    def broken(g, p):
        raise ValueError("witness value must equal the estimate")

    monkeypatch.setattr(cli, "approx_single_source", broken)
    with pytest.raises(ValueError, match="witness"):
        run(["sscut", "--in", str(gpath), "--source", "0"])


def test_ghtree_internal_check_failure_is_not_an_input_error(tmp_path, monkeypatch):
    gpath = tmp_path / "g.txt"
    gpath.write_text(serialize_graph(path(4)))

    def broken(g):
        raise ValueError("tree edge cut has wrong value")

    monkeypatch.setattr(cli, "gomory_hu", broken)
    with pytest.raises(ValueError, match="wrong value"):
        run(["ghtree", "--in", str(gpath)])


def test_sparsify_internal_check_failure_is_not_an_input_error(tmp_path, monkeypatch):
    gpath = tmp_path / "g.txt"
    gpath.write_text(serialize_graph(path(4)))

    def wrong_tree(g):  # the path's tree with edge (0,1) at the wrong weight
        return GHTree(n=4, edges=((0, 1, 2), (1, 2, 1), (2, 3, 1)))

    monkeypatch.setattr(cli, "gomory_hu", wrong_tree)
    with pytest.raises(ValueError, match="wrong value"):
        run(["sparsify", "--in", str(gpath), "--mode", "gh-based"])


def test_sparsify_input_errors_exit_code(tmp_path, capsys):
    weighted = tmp_path / "w.txt"
    weighted.write_text("3 2\n0 1 2\n1 2 1\n")
    for mode in ("oneshot", "iterative"):
        assert run(["sparsify", "--in", str(weighted), "--mode", mode]) == EXIT_PARSE
        assert "simple graph" in capsys.readouterr().err
    gpath = tmp_path / "g.txt"
    gpath.write_text(serialize_graph(clique(6)))
    empty = tmp_path / "empty.txt"
    empty.write_text("# no terminals\n")
    outside = tmp_path / "outside.txt"
    outside.write_text("0\n6\n")
    for terms, message in ((empty, "non-empty"), (outside, "terminal 6 out of range")):
        assert run(["sparsify", "--in", str(gpath), "--mode", "terminal",
                    "--terminals", str(terms)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


def test_malformed_field_of_each_format_exit_code(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text(serialize_graph(path(4)))
    bad = tmp_path / "bad.txt"
    for args, text, message in (
            (["ghtree", "--in", str(bad)], "4 3\n0 1\n1 x\n2 3\n",
             "line 3: expected edge 'u v [w]', got '1 x'"),
            (["verify", "--in", str(gpath), "--artifact", str(bad)], "4 1\n0 1 1\n1 2\n2 3 1\n",
             "line 3: expected edge 'u v w', got '1 2'"),
            (["verify", "--in", str(gpath), "--artifact", str(bad), "--w", "2"],
             "sparsifier 4 2\n0\n0\n1\nq\n2 1\n0 1 1\n",
             "line 5: expected a super-node id, got 'q'"),
            (["sparsify", "--in", str(gpath), "--mode", "terminal", "--terminals", str(bad)],
             "0\n3 3\n", "line 2: expected a node id, got '3 3'")):
        bad.write_text(text)
        assert run(args) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


def test_huge_node_count_exit_code(tmp_path, capsys):
    # a node count past scipy's int32 node index is rejected before any
    # array of that size is made: in a graph, a sparsifier's graph section
    # and a tree header
    gpath = tmp_path / "g.txt"
    gpath.write_text(serialize_graph(path(4)))
    bad = tmp_path / "bad.txt"
    for args, text in (
            (["ghtree", "--in", str(bad)], f"{2**63} 1\n0 1\n"),
            (["ghtree", "--in", str(bad)], f"{2**63} 0\n"),
            (["ghtree", "--in", str(bad)], f"{2**31} 0\n"),
            (["verify", "--in", str(gpath), "--artifact", str(bad), "--w", "2"],
             f"sparsifier 4 1\n0\n0\n0\n0\n{2**31} 0\n"),
            (["verify", "--in", str(gpath), "--artifact", str(bad)], f"{2**31} {2**31}\n")):
        bad.write_text(text)
        assert run(args) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert f"exceeds {2**31 - 1}" in captured.err


def test_sscut_exact_output_equals_the_plain_cuts(tmp_path, capsys):
    # at n >= 100 the degree-cut certificate answers most nodes; the
    # printed values are the n - 1 plain minimum cuts all the same
    base = gnp(150, 2 * math.log(150) / 149, seed=3)
    weights = np.random.default_rng(3).integers(1, 65, size=base.edge_count)
    g = Graph.build(base.n, np.column_stack([base.edges[:, :2], weights]))
    gpath = tmp_path / "g.txt"
    gpath.write_text(serialize_graph(g))
    for p in (0, 75, 149):
        assert run(["sscut", "--in", str(gpath), "--source", str(p)]) == EXIT_OK
        others = [v for v in range(g.n) if v != p]
        values, _ = min_cuts_between_sets(g, [([v], [p]) for v in others])
        assert capsys.readouterr().out == "".join(f"{v} {x}\n" for v, x in zip(others, values))


def test_sparsify_report_line(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text(serialize_graph(clique_of_cliques(4)))
    assert run(["sparsify", "--in", str(gpath), "--w", "4", "--mode", "oneshot",
                "--seed", "1", "--report", "--out", str(tmp_path / "h.txt")]) == EXIT_OK
    assert capsys.readouterr().err == "super-nodes 72 weighted-edges 754\n"


def test_sscut_source_range(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text(serialize_graph(path(4)))
    assert run(["sscut", "--in", str(gpath), "--source", "9"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and "pivot 9 out of range" in captured.err


def test_sscut_on_one_node_writes_nothing(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    opath = tmp_path / "out.txt"
    gpath.write_text("1 0\n")
    assert run(["sscut", "--in", str(gpath), "--source", "0"]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert run(["sscut", "--in", str(gpath), "--source", "0", "--out", str(opath)]) == EXIT_OK
    assert opath.read_text() == ""


def test_w_below_one_is_a_usage_error(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    hpath = tmp_path / "h.txt"
    gpath.write_text(serialize_graph(clique(5)))
    assert run(["sparsify", "--in", str(gpath), "--out", str(hpath)]) == EXIT_OK
    for w in ("-3", "0", "two"):
        for args in (["sparsify", "--in", str(gpath)],
                     ["verify", "--in", str(gpath), "--artifact", str(hpath)]):
            assert run(args + ["--w", w]) == EXIT_PARSE
            captured = capsys.readouterr()
            assert captured.out == "" and "argument --w" in captured.err
    assert run(["verify", "--in", str(gpath), "--artifact", str(hpath), "--w", "1"]) == EXIT_OK


def test_terminal_mode_needs_terminals(tmp_path):
    gpath = tmp_path / "g.txt"
    gpath.write_text(serialize_graph(clique(6)))
    assert run(["sparsify", "--in", str(gpath), "--mode", "terminal",
                "--w", "2"]) == EXIT_PARSE


def test_gen_writes_parseable_graph(tmp_path):
    gpath = tmp_path / "g.txt"
    assert run(["gen", "--family", "alt-cycle", "--n", "10", "--scale", "10",
                "--out", str(gpath)]) == EXIT_OK
    g = parse_graph(gpath.read_text())
    assert g.n == 10 and g.edge_count == 10


def test_bench_csv_schema_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["bench", "--family", "gnp", "--sizes", "40,80", "--w-grid", "2,4",
            "--seed", "11"]
    assert run(argv + ["--csv", str(out1)]) == EXIT_OK
    assert run(argv + ["--csv", str(out2)]) == EXIT_OK
    rows1 = list(csv.DictReader(io.StringIO(out1.read_text())))
    rows2 = list(csv.DictReader(io.StringIO(out2.read_text())))
    assert rows1 and list(rows1[0]) == CSV_COLUMNS
    assert len(rows1) == 4
    for a, b in zip(rows1, rows2):
        for col in CSV_COLUMNS:
            if col != "wall_ms":
                assert a[col] == b[col]


def test_bench_rejects_unknown_family(tmp_path):
    assert run(["bench", "--family", "star", "--sizes", "10",
                "--w-grid", "2"]) == EXIT_PARSE


def test_bench_size_its_generator_rejects_exit_code(capsys):
    assert run(["bench", "--family", "clique-of-cliques", "--sizes", "1",
                "--w-grid", "4"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "base clique needs at least 2 nodes\n"


@pytest.mark.parametrize("argv, name", [
    (["gen", "--family", "path", "--n", "3", "--out"], "g.txt"),
    (["bench", "--family", "clique", "--sizes", "4", "--w-grid", "2", "--csv"], "x.csv"),
], ids=["gen", "bench"])
def test_unwritable_output_exit_code(tmp_path, capsys, argv, name):
    out = tmp_path / "missing" / name
    assert run(argv + [str(out)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"cannot write {out}: ")
    assert not out.parent.exists()


def test_bench_rejects_bad_lists(tmp_path, capsys):
    out = tmp_path / "out.csv"
    for option, other in (("--sizes", ["--w-grid", "2"]), ("--w-grid", ["--sizes", "10"])):
        for text in ("a", "10,x", "0", "4,-2", "", ","):
            assert run(["bench", "--family", "gnp", option, text, *other,
                        "--csv", str(out)]) == EXIT_PARSE
            captured = capsys.readouterr()
            assert captured.out == "" and f"argument {option}" in captured.err
    assert not out.exists()
