"""Command-line front end.

Subcommands: gen, sparsify, ghtree, sscut, verify, bench. Exit codes are
0 (ok), 2 (verification failure), 3 (parse or usage error), 4 (guard exceeded).
All randomness flows from --seed; reruns with the same arguments reproduce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import random
import sys
import time
from pathlib import Path

from . import generators, oracle
from .gomory_hu import (
    friendly_mincut_sparsifier_from_gh,
    gh_query,
    gomory_hu,
    parse_ghtree,
    serialize_ghtree,
    validate_ghtree,
    verify_gh_sparsifier,
)
from .graph import (
    Graph,
    GraphParseError,
    UnsupportedInput,
    content_lines,
    parse_graph,
    parse_node_subset,
    serialize_graph,
)
from .maxflow import max_flow
from .sparsify import (
    SparsifyConfig,
    decomposition_outer_edges,
    friendly_sparsify,
    friendly_sparsify_oneshot,
    parse_sparsifier,
    serialize_sparsifier,
    terminal_sparsify,
    verify_friendly_preservation,
)
from .ss_unfriendly import approx_single_source

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_PARSE = 3
EXIT_GUARD = 4

# pairs that verify compares against max-flow on a tree above the oracle guard
SPOT_CHECKS = 20

CSV_COLUMNS = [
    "family", "n", "m", "w", "sparsifier_edges",
    "bound_nsqrtw", "bound_nlogn", "outer_edges", "wall_ms", "seed",
]


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}", EXIT_PARSE)


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, newline="")
    except OSError as e:
        raise CliError(f"cannot write {out}: {e}", EXIT_PARSE)


def _load(path: str, parse):
    try:
        return parse(_read_text(path))
    except GraphParseError as e:
        raise CliError(f"{path}: {e}", EXIT_PARSE)


def _generate(family: str, n: int, seed: int, *, p: float | None = None, d: int | None = None,
              scale: int = 1, blob: int | None = None) -> Graph:
    """A graph of ``family``, one of ``generators.FAMILIES``; a size or
    parameter its generator rejects is a usage error."""
    try:
        if family == "clique":
            g = generators.clique(n)
        elif family == "clique-of-cliques":
            g = generators.clique_of_cliques(n, blob)
        elif family == "alt-cycle":
            g = generators.alt_cycle(n, scale)
        elif family == "gnp":
            if p is None:
                raise ValueError("gnp needs --p")
            g = generators.gnp(n, p, seed=seed)
        elif family == "path":
            g = generators.path(n)
        elif family == "star":
            g = generators.star(n)
        elif family == "dumbbell":
            g = generators.dumbbell(n)
        else:  # random-regular
            if d is None:
                raise ValueError("random-regular needs --d")
            g = generators.random_regular(n, d, seed=seed)
    except ValueError as e:
        raise CliError(str(e), EXIT_PARSE)
    return g


def cmd_gen(args) -> int:
    g = _generate(args.family, args.n, args.seed, p=args.p, d=args.d, scale=args.scale,
                  blob=args.blob)
    _write_output(serialize_graph(g), args.out)
    return EXIT_OK


def cmd_sparsify(args) -> int:
    g = _load(args.infile, parse_graph)
    cfg = SparsifyConfig(seed=args.seed)
    if args.mode == "oneshot":
        h = friendly_sparsify_oneshot(g, args.w, cfg)
    elif args.mode == "iterative":
        h = friendly_sparsify(g, args.w, cfg)
    elif args.mode == "terminal":
        if not args.terminals:
            raise CliError("terminal mode needs --terminals", EXIT_PARSE)
        terms = _load(args.terminals, parse_node_subset)
        h = terminal_sparsify(g, terms, args.w, cfg)
    else:  # gh-based
        h = friendly_mincut_sparsifier_from_gh(g, gomory_hu(g))
    _write_output(serialize_sparsifier(h), args.out)
    if args.report:
        print(f"super-nodes {h.graph.n} weighted-edges {h.graph.total_weight}",
              file=sys.stderr)
    return EXIT_OK


def cmd_ghtree(args) -> int:
    g = _load(args.infile, parse_graph)
    _write_output(serialize_ghtree(gomory_hu(g)), args.out)
    return EXIT_OK


def cmd_sscut(args) -> int:
    g = _load(args.infile, parse_graph)
    p = args.source
    table = approx_single_source(g, p)
    _write_output("".join(f"{v} {table.estimate(v)}\n" for v in range(g.n) if v != p),
                  args.out)
    return EXIT_OK


def _verify_sparsifier(g: Graph, text: str, w: int | None) -> int:
    h = parse_sparsifier(text, g)
    if w is None and h.guarantee == "friendly-w":
        raise CliError("friendly-w sparsifier verification needs --w", EXIT_PARSE)
    if g.n > oracle.MAX_ENUM_NODES:
        raise CliError(
            f"guard exceeded: preservation verify enumerates cuts, n={g.n} > "
            f"{oracle.MAX_ENUM_NODES}", EXIT_GUARD)
    if h.guarantee == "gh-based":
        pairs, failure = verify_gh_sparsifier(g, h)
        if failure:
            print(f"verification failed (gh-based): {failure}")
            return EXIT_VERIFY
        print(f"ok (gh-based): {pairs} all-friendly pairs kept apart, each with its "
              f"min-cut value")
        return EXIT_OK
    report = verify_friendly_preservation(g, h, w)
    if report.passed:
        print(f"ok (friendly-w): {report.cuts_checked} friendly cuts of value <= {w} preserved")
        return EXIT_OK
    side = sorted(report.witnesses[0].side)
    print(f"verification failed: friendly cut {side} "
          f"(value {report.witnesses[0].value}) not preserved")
    return EXIT_VERIFY


def _verify_ghtree(g: Graph, text: str, seed: int) -> int:
    t = parse_ghtree(text)
    try:
        validate_ghtree(g, t)
    except ValueError as e:
        print(f"verification failed: {e}")
        return EXIT_VERIFY
    if g.n <= oracle.MAX_ENUM_NODES:
        lam = oracle.all_pairs_min_cut(g)
        for s in range(g.n):
            for t2 in range(s + 1, g.n):
                val, _ = gh_query(t, s, t2)
                if val != lam[s, t2]:
                    print(f"verification failed: pair ({s},{t2}) tree value {val} "
                          f"!= min cut {lam[s, t2]}")
                    return EXIT_VERIFY
        print(f"ok: all {g.n * (g.n - 1) // 2} pair values match max-flow")
        return EXIT_OK
    # large input: structure was validated above, so a tree value of 0 is a
    # pair in two components of g; spot-check the other pairs by max-flow
    rng = random.Random(seed)
    compared = skipped = 0
    for _ in range(SPOT_CHECKS):
        s, t2 = rng.sample(range(g.n), 2)
        val, _ = gh_query(t, s, t2)
        if val == 0:
            skipped += 1
            continue
        flow, _ = max_flow(g, s, t2)
        if flow != val:
            print(f"verification failed: pair ({s},{t2}) tree value {val} != min cut {flow}")
            return EXIT_VERIFY
        compared += 1
    print(f"ok: structure valid, {compared} of {SPOT_CHECKS} spot-checked pairs match "
          f"max-flow, {skipped} skipped as cross-component")
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _load(args.infile, parse_graph)
    text = _read_text(args.artifact)
    lines, _ = content_lines(text)
    if lines and lines[0][1].startswith("sparsifier"):
        return _verify_sparsifier(g, text, args.w)
    return _verify_ghtree(g, text, args.seed)


def _bench_row(family: str, n: int, w: int, seed: int) -> dict:
    if family not in ("clique-of-cliques", "gnp", "clique"):
        raise CliError(f"bench does not support family {family!r}", EXIT_PARSE)
    # keep gnp's expected degree around 2 ln n so graphs stay connected
    g = _generate(family, n, seed, p=min(1.0, 2.0 * math.log(max(n, 2)) / max(n - 1, 1)))
    cfg = SparsifyConfig(seed=seed)
    t0 = time.perf_counter()
    h = friendly_sparsify(g, w, cfg)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    outer = decomposition_outer_edges(g, w, cfg)
    return {
        "family": family,
        "n": g.n,
        "m": g.total_weight,
        "w": w,
        "sparsifier_edges": h.graph.total_weight,
        "bound_nsqrtw": round(g.n * math.sqrt(w), 1),
        "bound_nlogn": round(g.n * math.log(max(g.n, 2)), 1),
        "outer_edges": outer,
        "wall_ms": round(wall_ms, 2),
        "seed": seed,
    }


def cmd_bench(args) -> int:
    rows = [_bench_row(args.family, n, w, args.seed) for n in args.sizes for w in args.w_grid]
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    _write_output(text.getvalue(), args.csv)
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is below 1")
    return value


def _positive_int_list(text: str) -> list[int]:
    values = [_positive_int(x) for x in text.split(",") if x]
    if not values:
        raise argparse.ArgumentTypeError("the list is empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="friendlycuts",
                                description="friendly cut sparsifiers and Gomory-Hu trees")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a graph from a named family")
    g.add_argument("--family", required=True, choices=sorted(generators.FAMILIES))
    g.add_argument("--n", type=int, required=True,
                   help="node count (base clique size for clique-of-cliques, "
                        "per-clique size for dumbbell)")
    g.add_argument("--p", type=float, default=None, help="edge probability for gnp")
    g.add_argument("--d", type=int, default=None, help="degree for random-regular")
    g.add_argument("--scale", type=int, default=1, help="weight scale for alt-cycle")
    g.add_argument("--blob", type=int, default=None,
                   help="blob size override for clique-of-cliques")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("sparsify", help="compute a cut sparsifier")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--w", type=_positive_int, default=1)
    s.add_argument("--mode", default="iterative",
                   choices=["oneshot", "iterative", "terminal", "gh-based"])
    s.add_argument("--terminals", default=None, help="node-subset file for terminal mode")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None)
    s.add_argument("--report", action="store_true",
                   help="print super-node and edge counts to stderr")
    s.set_defaults(func=cmd_sparsify)

    t = sub.add_parser("ghtree", help="compute a Gomory-Hu tree")
    t.add_argument("--in", dest="infile", required=True)
    t.add_argument("--out", default=None)
    t.set_defaults(func=cmd_ghtree)

    c = sub.add_parser("sscut", help="exact single-source minimum cut values")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--source", type=int, required=True,
                   help="print the exact minimum-cut value from this node to every other node")
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_sscut)

    v = sub.add_parser("verify", help="verify an artifact against its graph")
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--artifact", required=True)
    v.add_argument("--w", type=_positive_int, default=None)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="size/time benchmark, CSV output")
    b.add_argument("--family", required=True)
    b.add_argument("--sizes", type=_positive_int_list, required=True,
                   help="comma-separated node counts")
    b.add_argument("--w-grid", dest="w_grid", type=_positive_int_list, required=True,
                   help="comma-separated thresholds")
    b.add_argument("--csv", default=None)
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(func=cmd_bench)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits 0 after --help, 2 on a usage error
        if e.code:
            return EXIT_PARSE
        raise
    try:
        return args.func(args)
    except CliError as e:
        print(str(e), file=sys.stderr)
        return e.code
    except (GraphParseError, UnsupportedInput) as e:  # input a parser or routine rejects
        print(str(e), file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
