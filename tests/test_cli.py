import csv
import io

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
from friendlycuts.graph import parse_graph, serialize_graph
from friendlycuts.generators import clique, clique_of_cliques, path


def run(args):
    return main(list(args))


def test_gen_ghtree_verify_roundtrip(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    tpath = tmp_path / "t.txt"
    assert run(["gen", "--family", "dumbbell", "--n", "4", "--out", str(gpath)]) == EXIT_OK
    assert run(["ghtree", "--in", str(gpath), "--out", str(tpath)]) == EXIT_OK
    assert run(["verify", "--in", str(gpath), "--artifact", str(tpath)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ok" in out


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


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("this is not a graph\n")
    assert run(["ghtree", "--in", str(bad)]) == EXIT_PARSE
    assert run(["ghtree", "--in", str(tmp_path / "missing.txt")]) == EXIT_PARSE
    # usage errors are input errors too, not verification failures
    assert run(["ghtree", "--in", str(bad), "--algo", "accelerated"]) == EXIT_PARSE
    assert run(["sscut", "--in", str(bad)]) == EXIT_PARSE
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
    for mode in ("exact", "unfriendly", "accelerated"):
        assert run(["sscut", "--in", str(gpath), "--source", "0",
                    "--mode", mode]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [f"{v} 4" for v in range(1, 5)]


def test_sscut_and_flow_guards_exit_code(tmp_path, capsys):
    small = tmp_path / "g.txt"
    small.write_text("3 2\n0 1 100\n1 2 100\n")
    # weights above n^4 trip the unfriendly routine's guard
    assert run(["sscut", "--in", str(small), "--source", "0", "--mode", "unfriendly"]) == EXIT_PARSE
    assert "n^4" in capsys.readouterr().err
    big = tmp_path / "big.txt"
    big.write_text(f"3 2\n0 1 {2**31}\n1 2 {2**31}\n")
    tree = tmp_path / "t.txt"
    tree.write_text(f"3 1\n0 1 {2**31}\n1 2 {2**31}\n")
    for args in (["sscut", "--in", str(big), "--source", "0", "--mode", "exact"],
                 ["ghtree", "--in", str(big)],
                 ["verify", "--in", str(big), "--artifact", str(tree)]):
        assert run(args) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == "" and "int32" in captured.err
    # the accelerated pipeline takes simple graphs only
    assert run(["sscut", "--in", str(small), "--source", "0", "--mode", "accelerated"]) == EXIT_PARSE
    assert "simple graph" in capsys.readouterr().err


def test_sscut_internal_check_failure_is_not_an_input_error(tmp_path, monkeypatch):
    # only inputs outside a routine's limits map to exit 3; a failed
    # self-check surfaces as the error it is
    gpath = tmp_path / "g.txt"
    gpath.write_text(serialize_graph(path(4)))

    def broken(g, p):
        raise ValueError("witness value must equal the estimate")

    monkeypatch.setattr(cli, "approx_single_source", broken)
    with pytest.raises(ValueError, match="witness"):
        run(["sscut", "--in", str(gpath), "--source", "0", "--mode", "exact"])


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


def test_sparsify_report_line(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text(serialize_graph(clique_of_cliques(4)))
    assert run(["sparsify", "--in", str(gpath), "--w", "4", "--mode", "oneshot",
                "--seed", "1", "--report", "--out", str(tmp_path / "h.txt")]) == EXIT_OK
    assert capsys.readouterr().err == "super-nodes 72 weighted-edges 754\n"


def test_sscut_source_range(tmp_path):
    gpath = tmp_path / "g.txt"
    gpath.write_text(serialize_graph(path(4)))
    assert run(["sscut", "--in", str(gpath), "--source", "9"]) == EXIT_PARSE


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
