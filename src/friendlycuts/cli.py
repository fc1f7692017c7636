"""Command-line front end.

Subcommands: gen, sparsify, ghtree, sscut, verify, bench. Exit codes are
0 (ok), 2 (verification failure), 3 (parse or usage error), 4 (guard exceeded).
All randomness flows from --seed; reruns with the same arguments reproduce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
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
)
from .graph import (
    Graph,
    GraphParseError,
    UnsupportedInput,
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
from .ss_unfriendly import approx_single_source, single_source_unfriendly

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_PARSE = 3
EXIT_GUARD = 4

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
    else:
        Path(out).write_text(text)


def _load_graph(path: str) -> Graph:
    try:
        return parse_graph(_read_text(path))
    except GraphParseError as e:
        raise CliError(f"{path}: {e}", EXIT_PARSE)


def cmd_gen(args) -> int:
    fam = args.family
    try:
        if fam == "clique":
            g = generators.clique(args.n)
        elif fam == "clique-of-cliques":
            g = generators.clique_of_cliques(args.n, args.blob)
        elif fam == "alt-cycle":
            g = generators.alt_cycle(args.n, args.scale)
        elif fam == "gnp":
            if args.p is None:
                raise ValueError("gnp needs --p")
            g = generators.gnp(args.n, args.p, seed=args.seed)
        elif fam == "path":
            g = generators.path(args.n)
        elif fam == "star":
            g = generators.star(args.n)
        elif fam == "dumbbell":
            g = generators.dumbbell(args.n)
        elif fam == "random-regular":
            if args.d is None:
                raise ValueError("random-regular needs --d")
            g = generators.random_regular(args.n, args.d, seed=args.seed)
        else:
            raise ValueError(f"unknown family {fam!r}")
    except ValueError as e:
        raise CliError(str(e), EXIT_PARSE)
    _write_output(serialize_graph(g), args.out)
    return EXIT_OK


def cmd_sparsify(args) -> int:
    g = _load_graph(args.infile)
    cfg = SparsifyConfig(seed=args.seed)
    try:
        if args.mode == "oneshot":
            h = friendly_sparsify_oneshot(g, args.w, cfg)
        elif args.mode == "iterative":
            h = friendly_sparsify(g, args.w, cfg)
        elif args.mode == "terminal":
            if not args.terminals:
                raise CliError("terminal mode needs --terminals", EXIT_PARSE)
            try:
                terms = parse_node_subset(_read_text(args.terminals))
            except GraphParseError as e:
                raise CliError(f"{args.terminals}: {e}", EXIT_PARSE)
            h = terminal_sparsify(g, terms, args.w, cfg)
        else:  # gh-based
            h = friendly_mincut_sparsifier_from_gh(g, gomory_hu(g))
    except UnsupportedInput as e:
        raise CliError(str(e), EXIT_PARSE)
    _write_output(serialize_sparsifier(h), args.out)
    if args.report:
        print(f"super-nodes {h.graph.n} weighted-edges {h.graph.total_weight}",
              file=sys.stderr)
    return EXIT_OK


def cmd_ghtree(args) -> int:
    g = _load_graph(args.infile)
    try:
        t = gomory_hu(g)
    except UnsupportedInput as e:
        raise CliError(str(e), EXIT_PARSE)
    _write_output(serialize_ghtree(t), args.out)
    return EXIT_OK


def cmd_sscut(args) -> int:
    g = _load_graph(args.infile)
    p = args.source
    if not 0 <= p < g.n:
        raise CliError(f"source {p} out of range", EXIT_PARSE)
    try:
        if args.mode == "exact":
            table = approx_single_source(g, p)
        elif args.mode == "unfriendly":
            table = single_source_unfriendly(g, p)
        else:
            from .gomory_hu import accelerated_single_source
            table = accelerated_single_source(g, p, SparsifyConfig(seed=args.seed))
    except UnsupportedInput as e:
        raise CliError(str(e), EXIT_PARSE)
    lines = [f"{v} {table.estimate(v)}" for v in range(g.n) if v != p]
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _verify_sparsifier(g: Graph, text: str, w: int | None) -> int:
    try:
        h = parse_sparsifier(text, g)
    except GraphParseError as e:
        raise CliError(str(e), EXIT_PARSE)
    except ValueError as e:
        print(f"verification failed: {e}")
        return EXIT_VERIFY
    if w is None:
        raise CliError("sparsifier verification needs --w", EXIT_PARSE)
    if g.n > oracle.MAX_ENUM_NODES:
        raise CliError(
            f"guard exceeded: preservation verify enumerates cuts, n={g.n} > "
            f"{oracle.MAX_ENUM_NODES}", EXIT_GUARD)
    report = verify_friendly_preservation(g, h, w)
    if report.passed:
        print(f"ok: {report.cuts_checked} friendly cuts of value <= {w} preserved")
        return EXIT_OK
    side = sorted(report.witnesses[0].side)
    print(f"verification failed: friendly cut {side} "
          f"(value {report.witnesses[0].value}) not preserved")
    return EXIT_VERIFY


def _verify_ghtree(g: Graph, text: str, seed: int) -> int:
    try:
        t = parse_ghtree(text)
    except GraphParseError as e:
        raise CliError(str(e), EXIT_PARSE)
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
        print(f"ok: all {g.n * (g.n - 1) // 2} pair values match")
        return EXIT_OK
    # large input: structure was validated above; spot-check pairs by max-flow
    rng = random.Random(seed)
    for _ in range(20):
        s, t2 = rng.sample(range(g.n), 2)
        val, _ = gh_query(t, s, t2)
        if val == 0:
            continue
        flow, _ = max_flow(g, s, t2)
        if flow != val:
            print(f"verification failed: pair ({s},{t2}) tree value {val} != min cut {flow}")
            return EXIT_VERIFY
    print("ok: structure valid, 20 spot-checked pairs match")
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _load_graph(args.infile)
    text = _read_text(args.artifact)
    first = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            first = line
            break
    if first.startswith("sparsifier"):
        return _verify_sparsifier(g, text, args.w)
    try:
        return _verify_ghtree(g, text, args.seed)
    except UnsupportedInput as e:  # a reference flow the input's capacities do not fit
        raise CliError(str(e), EXIT_PARSE)


def _bench_row(family: str, n: int, w: int, seed: int) -> dict:
    if family == "clique-of-cliques":
        g = generators.clique_of_cliques(n)
    elif family == "gnp":
        # keep the expected degree around 2 ln n so graphs stay connected
        p = min(1.0, 2.0 * math.log(max(n, 2)) / max(n - 1, 1))
        g = generators.gnp(n, p, seed=seed)
    elif family == "clique":
        g = generators.clique(n)
    else:
        raise CliError(f"bench does not support family {family!r}", EXIT_PARSE)
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
    sizes = [int(x) for x in args.sizes.split(",") if x]
    wgrid = [int(x) for x in args.w_grid.split(",") if x]
    rows = [_bench_row(args.family, n, w, args.seed) for n in sizes for w in wgrid]
    out = args.csv
    if out is None or out == "-":
        writer = csv.DictWriter(sys.stdout, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    else:
        with open(out, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    return EXIT_OK


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
    s.add_argument("--w", type=int, default=1)
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

    c = sub.add_parser("sscut", help="single-source minimum cut estimates")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--source", type=int, required=True)
    c.add_argument("--mode", default="unfriendly",
                   choices=["unfriendly", "exact", "accelerated"])
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_sscut)

    v = sub.add_parser("verify", help="verify an artifact against its graph")
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--artifact", required=True)
    v.add_argument("--w", type=int, default=None)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="size/time benchmark, CSV output")
    b.add_argument("--family", required=True)
    b.add_argument("--sizes", required=True, help="comma-separated node counts")
    b.add_argument("--w-grid", dest="w_grid", required=True,
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


if __name__ == "__main__":
    sys.exit(main())
