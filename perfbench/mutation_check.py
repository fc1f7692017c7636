"""Show that the output checkers reject planted wrong outputs.

    python3 perfbench/mutation_check.py [--seed 0]

For each workload, the real output at the given seed must pass its checker
and one planted defect must fail it:

- gh-gnp: one tree edge weight off by one;
- ssu-wgnp: one estimate (with its witness) lowered below lambda(p, v);
- sparsify-coc: at w=64, a contraction map that merges two blobs.

Exits 0 when every original passes and every mutation is rejected.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True
sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"),
                str(Path(__file__).resolve().parent)]

import friendlycuts.graph as fc_graph  # noqa: E402
import friendlycuts.sparsify as fc_sp  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402


def _rng(seed: int):
    """The generator the benchmark's checker receives for this seed."""
    return np.random.default_rng([seed, 5])


def _verdict(label: str, fails: list[str], expect_fail: bool) -> bool:
    ok = bool(fails) == expect_fail
    status = "rejected" if fails else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {status}")
    for f in fails[:3]:
        print(f"       {f}")
    return ok


def mutate_gh(seed: int) -> list[bool]:
    wl = workloads.WORKLOADS["gh-gnp"]
    inp = wl.generate(seed)
    tree = wl.job(inp)
    answers, _ = wl.queries(inp, tree)
    edges = list(tree.edges)
    u, v, w = edges[len(edges) // 2]
    edges[len(edges) // 2] = (u, v, w + 1)
    bad = replace(tree, edges=tuple(edges))
    return [
        _verdict("gh-gnp original tree", wl.check(inp, tree, answers, _rng(seed)), False),
        _verdict(f"gh-gnp tree edge ({u},{v}) weight {w} -> {w + 1}",
                 check.check_gh(inp["g"], bad, [], _rng(seed)), True),
    ]


def mutate_ssu(seed: int) -> list[bool]:
    wl = workloads.WORKLOADS["ssu-wgnp"]
    inp = wl.generate(seed)
    g, p = inp["g"], inp["pivot"]
    table = wl.job(inp)
    answers, _ = wl.queries(inp, table)
    others = np.array([v for v in range(g.n) if v != p])
    v = int(_rng(seed).choice(others, size=check.SSU_SAMPLES, replace=False)[0])
    est = np.array(table.estimates, copy=True)
    est[v] -= 1
    bad = replace(table, estimates=est, witnesses=dict(table.witnesses))
    bad.witnesses[v] = fc_graph.Cut(side=table.witnesses[v].side, value=int(est[v]))
    return [
        _verdict("ssu-wgnp original table", wl.check(inp, table, answers, _rng(seed)), False),
        _verdict(f"ssu-wgnp estimate of {v} lowered to {est[v]}",
                 check.check_ssu(g, p, bad, _rng(seed)), True),
    ]


def mutate_sparsifier(seed: int) -> list[bool]:
    wl = workloads.WORKLOADS["sparsify-coc"]
    inp = wl.generate(seed)
    g, w = inp["g"], 64
    sp = fc_sp.friendly_sparsify(g, w, fc_sp.SparsifyConfig(seed=seed))
    blob = g.n // wl.k
    labels = np.array(sp.map.super_of, copy=True)
    labels[blob:2 * blob] = labels[0]  # merge blob 1 into blob 0's class
    bad = fc_graph.Sparsifier.of(g, fc_graph.ContractionMap.from_labels(labels))
    return [
        _verdict(f"sparsify-coc original w={w}",
                 check.check_sparsifier(g, w, sp, _rng(seed)), False),
        _verdict(f"sparsify-coc w={w} map merging blobs 0 and 1",
                 check.check_sparsifier(g, w, bad, _rng(seed)), True),
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    results = mutate_gh(args.seed) + mutate_ssu(args.seed) + mutate_sparsifier(args.seed)
    print("mutation check:", "passed" if all(results) else "FAILED")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
