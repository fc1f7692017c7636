"""The benchmark's workloads: seeded inputs, the timed job, its queries,
the independent check and an informational fingerprint of the output.

Library functions are looked up through their modules at call time, so a
traced run reaches the wrapped bindings.
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np

import friendlycuts.generators as fc_gen
import friendlycuts.gomory_hu as fc_gh
import friendlycuts.graph as fc_graph
import friendlycuts.sparsify as fc_sp
import friendlycuts.ss_unfriendly as fc_ssu

import check


def _gnp_p(n: int) -> float:
    return 2.0 * math.log(n) / (n - 1)


def _weighted_gnp(n: int, max_weight: int, seed: int):
    base = fc_gen.gnp(n, _gnp_p(n), seed=seed)
    rng = np.random.default_rng([seed, 2])
    e = np.asarray(base.edges)
    w = rng.integers(1, max_weight + 1, size=len(e))
    return fc_graph.Graph.build(n, np.column_stack([e[:, 0], e[:, 1], w]))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def timed_queries(fn, args_list, passes: int = 1) -> tuple[list, list[float]]:
    """Run ``fn(*args)`` for each entry, ``passes`` times over the list; return
    every answer and the per-call microseconds."""
    answers, micros = [], []
    for _ in range(passes):
        for args in args_list:
            t0 = time.perf_counter()
            ans = fn(*args)
            micros.append((time.perf_counter() - t0) * 1e6)
            answers.append(ans)
    return answers, micros


class GhGnp:
    """Classical Gomory-Hu on unit-weight G(n, 2 ln n/(n-1)), then gh_query pairs."""

    name = "gh-gnp"
    n = 800
    inputs_per_run = 1
    queries_per_job = 2000

    def generate(self, seed: int):
        g = fc_gen.gnp(self.n, _gnp_p(self.n), seed=seed)
        rng = np.random.default_rng([seed, 1])
        s = rng.integers(0, self.n, size=self.queries_per_job)
        t = (s + rng.integers(1, self.n, size=self.queries_per_job)) % self.n
        return {"g": g, "pairs": list(zip(s.tolist(), t.tolist()))}

    def warm_up(self, seed: int) -> None:
        tree = fc_gh.gomory_hu(fc_gen.gnp(60, _gnp_p(60), seed=seed))
        fc_gh.gh_query(tree, 0, 59)

    def job(self, inp):
        return fc_gh.gomory_hu(inp["g"])

    def queries(self, inp, tree):
        answers, micros = timed_queries(
            lambda s, t: fc_gh.gh_query(tree, s, t), inp["pairs"])
        return [(s, t, v, cut.side) for (s, t), (v, cut) in zip(inp["pairs"], answers)], micros

    def check(self, inp, tree, answers, rng) -> list[str]:
        return check.check_gh(inp["g"], tree, answers, rng)

    def fingerprint(self, tree) -> str:
        return _digest(sorted(tree.edges))

    def output_weight(self, tree) -> int:
        return sum(int(w) for _, _, w in tree.edges)


class SsuWgnp:
    """Single-source unfriendly cuts on G(n, 2 ln n/(n-1)) with weights in [1, 64],
    from a seeded pivot of median weighted degree."""

    name = "ssu-wgnp"
    n = 200
    max_weight = 64
    # The work varies with the graph (about 7.5k to 10.3k isolating-cut
    # terminals per table over seeds 1-10), so each run cycles four graphs.
    inputs_per_run = 4
    queries_per_job = 2000
    query_passes = 8  # about 1 s of queries per job

    def generate(self, seed: int):
        g = _weighted_gnp(self.n, self.max_weight, seed)
        rng = np.random.default_rng([seed, 3])
        # The pivot's weighted degree caps every estimate and so sets the level
        # count; a median-degree pivot (seeded tie-break) keeps it near 60.
        e = np.asarray(g.edges)
        deg = np.bincount(e[:, 0], e[:, 2], self.n) + np.bincount(e[:, 1], e[:, 2], self.n)
        pivot = int(np.lexsort((rng.permutation(self.n), deg))[self.n // 2])
        vs = (pivot + rng.integers(1, self.n, size=self.queries_per_job)) % self.n
        return {"g": g, "pivot": pivot, "vs": vs.tolist()}

    def warm_up(self, seed: int) -> None:
        fc_ssu.single_source_unfriendly(_weighted_gnp(20, self.max_weight, seed), 0)

    def job(self, inp):
        return fc_ssu.single_source_unfriendly(inp["g"], inp["pivot"])

    def queries(self, inp, table):
        """Is the returned min p,v-cut friendly? Friendliness is symmetric, so
        the smaller side is passed, which keeps each query's cost near O(m)."""
        g = inp["g"]
        smaller = {}
        for v in set(inp["vs"]):
            side = table.witnesses[v].side
            smaller[v] = side if 2 * len(side) <= g.n else frozenset(range(g.n)) - side
        sides = [smaller[v] for v in inp["vs"]]
        answers, micros = timed_queries(
            lambda side: fc_graph.is_friendly(g, side), [(s,) for s in sides], self.query_passes)
        return list(zip(sides * self.query_passes, answers)), micros

    def check(self, inp, table, answers, rng) -> list[str]:
        return (check.check_ssu(inp["g"], inp["pivot"], table, rng)
                + check.check_friendly_answers(inp["g"], answers))

    def fingerprint(self, table) -> str:
        return _digest(table.estimates)

    def output_weight(self, table) -> int:
        return int(np.asarray(table.estimates).sum())


class SparsifyCoc:
    """Iterative friendly sparsifier on clique_of_cliques(25) at w = 4 and 16."""

    name = "sparsify-coc"
    k = 25
    w_grid = (4, 16)
    inputs_per_run = 1
    queries_per_job = 2000
    query_passes = 30  # about 1 s of queries per job

    def generate(self, seed: int):
        return {"g": fc_gen.clique_of_cliques(self.k), "seed": seed}

    def warm_up(self, seed: int) -> None:
        fc_sp.friendly_sparsify(fc_gen.clique_of_cliques(4), 4, fc_sp.SparsifyConfig(seed=seed))

    def job(self, inp):
        cfg = fc_sp.SparsifyConfig(seed=inp["seed"])
        return [fc_sp.friendly_sparsify(inp["g"], w, cfg) for w in self.w_grid]

    def queries(self, inp, sparsifiers):
        """Cut values on the w=4 sparsifier for seeded sets of super-nodes."""
        h = sparsifiers[0].graph
        rng = np.random.default_rng([inp["seed"], 4])
        sides = []
        while len(sides) < self.queries_per_job:
            mask = rng.random(h.n) < 0.5
            if 0 < mask.sum() < h.n:
                sides.append(np.flatnonzero(mask).tolist())
        answers, micros = timed_queries(
            lambda side: fc_graph.cut_value(h, side), [(s,) for s in sides], self.query_passes)
        return list(zip(sides * self.query_passes, answers)), micros

    def check(self, inp, sparsifiers, answers, rng) -> list[str]:
        fails = []
        for w, sp in zip(self.w_grid, sparsifiers):
            fails += [f"w={w}: {f}" for f in check.check_sparsifier(inp["g"], w, sp, rng)]
        return fails + check.check_sparsifier_cut_answers(inp["g"], sparsifiers[0], answers)

    def fingerprint(self, sparsifiers) -> str:
        return _digest(*(sp.map.super_of for sp in sparsifiers))

    def output_weight(self, sparsifiers) -> int:
        return sum(sp.graph.total_weight for sp in sparsifiers)


WORKLOADS = {wl.name: wl for wl in (GhGnp(), SsuWgnp(), SparsifyCoc())}
