"""End-to-end acceptance suite.

Each test covers one contract of the library, runs against brute-force
ground truth, and prints a single PASS/FAIL line on the real terminal so
the suite doubles as a report. The corpus of small random graphs is shared
and cached across criteria.
"""

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from friendlycuts.cli import _bench_row
from friendlycuts.generators import alt_cycle, clique, clique_of_cliques, dumbbell, gnp, path, star
from friendlycuts.gomory_hu import (
    cag_totals,
    friendly_mincut_sparsifier_from_gh,
    gh_query,
    gomory_hu,
    partition_tree_from_gh,
    validate_ghtree,
)
from friendlycuts.graph import (
    CROSS_DEN,
    CROSS_NUM,
    ContractionMap,
    Cut,
    Graph,
    crossing_weights,
    cut_value,
    degrees,
)
import friendlycuts.isolating as isolating
from friendlycuts.isolating import isolating_cuts, isolating_cuts_direct
from friendlycuts.oracle import cut_table
from friendlycuts.sparsify import (
    friendly_sparsify,
    friendly_sparsify_oneshot,
    verify_friendly_preservation,
)
import friendlycuts.ss_unfriendly as ss_unfriendly
from friendlycuts.ss_unfriendly import (
    EstimateTable,
    lemma_unfriendly_p,
    lemma_unfriendly_v,
    single_source_unfriendly,
)

CORPUS_SIZE = 500
SIZES = list(range(4, 15))
PROBS = [0.2, 0.4, 0.6]


@lru_cache(maxsize=None)
def corpus_graph(i: int) -> Graph:
    rng = random.Random(1000 + i)
    n = SIZES[i % len(SIZES)]
    p = PROBS[(i // len(SIZES)) % len(PROBS)]
    edges = [(u, v, 1) for u, v in itertools.combinations(range(n), 2)
             if rng.random() < p]
    return Graph.build(n, edges)


@lru_cache(maxsize=None)
def corpus_tables(i: int):
    """(membership, values, friendly, lambda-matrix) for corpus graph i."""
    g = corpus_graph(i)
    members, values, friendly = cut_table(g)
    lam = np.zeros((g.n, g.n), dtype=np.int64)
    for s in range(g.n):
        for t in range(s + 1, g.n):
            sep = members[:, s] != members[:, t]
            lam[s, t] = lam[t, s] = values[sep].min()
    return members, values, friendly, lam


def report(capsys, num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    if not ok:
        pytest.fail(line)


def test_criterion_1_friendly_preservation(capsys):
    checked = failures = 0
    witness = None
    for i in range(CORPUS_SIZE):
        g = corpus_graph(i)
        for w in (1, 2, 4, 8, 16):
            for fn in (friendly_sparsify_oneshot, friendly_sparsify):
                rep = verify_friendly_preservation(g, fn(g, w), w)
                checked += rep.cuts_checked
                if not rep.passed:
                    failures += 1
                    witness = witness or (i, w, fn.__name__, rep.witnesses[0])
    report(capsys, 1, failures == 0,
           f"{checked} friendly-cut checks over {CORPUS_SIZE} graphs x 5 "
           f"thresholds x 2 variants, {failures} violations"
           + (f"; first witness {witness}" if witness else ""))


def _tree_matches(g, t, lam):
    validate_ghtree(g, t)
    for s, t2 in itertools.combinations(range(g.n), 2):
        val, cut = gh_query(t, s, t2)
        if val != lam[s, t2]:
            return f"pair ({s},{t2}) tree value {val} != {int(lam[s, t2])}"
        if 0 < len(cut.side) < g.n and cut_value(g, cut.side) != val:
            return f"pair ({s},{t2}) induced cut does not achieve {val}"
    return None


def test_criterion_2_gomory_hu_correctness(capsys):
    fixtures = [path(6), star(7), clique(6), dumbbell(5)]
    pairs = bad = 0
    first = None
    for i in range(CORPUS_SIZE + len(fixtures)):
        if i < CORPUS_SIZE:
            g = corpus_graph(i)
            lam = corpus_tables(i)[3]
        else:
            g = fixtures[i - CORPUS_SIZE]
            members, values, _ = cut_table(g)
            lam = np.zeros((g.n, g.n), dtype=np.int64)
            for s in range(g.n):
                for t in range(s + 1, g.n):
                    lam[s, t] = lam[t, s] = values[members[:, s] != members[:, t]].min()
        err = _tree_matches(g, gomory_hu(g), lam)
        pairs += g.n * (g.n - 1) // 2
        if err:
            bad += 1
            first = first or (i, err)
    report(capsys, 2, bad == 0,
           f"{pairs} pair values checked for gomory_hu on "
           f"{CORPUS_SIZE} corpus graphs + 4 fixtures, {bad} mismatches"
           + (f"; first {first}" if first else ""))


def test_criterion_3_isolating_cuts(capsys, monkeypatch):
    union_sizes = []

    def counting_union(g, pairs):
        union_sizes.append(len(pairs))
        return union(g, pairs)

    union = isolating.min_cuts_between_sets
    monkeypatch.setattr(isolating, "min_cuts_between_sets", counting_union)
    rng = random.Random(2024)
    instances = mismatches = 0
    first = None
    cases = [(star(40), [1, 5, 9, 13]), (path(100), [0, 25, 50, 99])]
    for trial in range(40):
        n = rng.choice([20, 50, 100, 200])
        g = gnp(n, min(1.0, 3.0 * math.log(n) / n), seed=3000 + trial)
        k = rng.randint(2, 16)
        cases.append((g, rng.sample(range(n), k)))
    for g, r in cases:
        union_sizes.clear()
        res = isolating_cuts(g, r)
        direct = isolating_cuts_direct(g, r)
        instances += 1
        # all ceil(log2 k) global bipartitions are one union flow
        ok = res.global_flow_calls == 1 and union_sizes == [math.ceil(math.log2(len(r)))]
        sides = list(res.cuts.values())
        ok &= all(not (a.side & b.side)
                  for a, b in itertools.combinations(sides, 2))
        for v in r:
            c = res.cuts[v]
            # the minimal minimum isolating cut is unique: same side, same value
            ok &= (v in c.side and cut_value(g, c.side) == c.value
                   and c == direct.cuts[v])
        if not ok:
            mismatches += 1
            first = first or (g.n, sorted(r))
    report(capsys, 3, mismatches == 0,
           f"{instances} instances up to n=200, fast path = per-terminal "
           f"oracle side for side, disjoint sides and one union of the "
           f"ceil(log2 k) global cuts, {mismatches} mismatches" + (f"; first {first}" if first else ""))


def test_criterion_4_single_source_unfriendly(capsys):
    checked = exact_misses = soundness_misses = 0
    first = None
    for i in range(CORPUS_SIZE):
        g = corpus_graph(i)
        members, values, friendly, lam = corpus_tables(i)
        for p in range(g.n):
            table = single_source_unfriendly(g, p)
            for v in range(g.n):
                if v == p:
                    continue
                checked += 1
                est = table.estimate(v)
                wcut = table.witnesses[v]
                if not (est >= lam[p, v] and v in wcut.side
                        and p not in wcut.side
                        and cut_value(g, wcut.side) == wcut.value == est):
                    soundness_misses += 1
                    first = first or ("soundness", i, p, v)
                    continue
                at_min = ((members[:, p] != members[:, v]) & (values == lam[p, v]))
                if not friendly[at_min].all() and est != lam[p, v]:
                    exact_misses += 1
                    first = first or ("exactness", i, p, v, est, int(lam[p, v]))
    report(capsys, 4, exact_misses == 0 and soundness_misses == 0,
           f"{checked} (pivot, node) estimates over the corpus; "
           f"{soundness_misses} invalid witnesses, {exact_misses} inexact "
           f"values where an unfriendly minimum cut exists"
           + (f"; first {first}" if first else ""))


ADVERSARY_EPS = Fraction(1, 5)


def adversarial_estimator(i: int, offered: dict):
    """An ``estimator=`` for corpus graph i that inflates every estimate as
    far as (1+eps) allows: for each v, the largest (v, p)-cut of value at
    most (1+eps) * lambda(p, v) in the oracle's cut table (the first such
    cut on ties), with that cut as witness. Records the estimates it offers
    in ``offered[p]``, since the routine lowers them in place."""
    members, values, _, lam = corpus_tables(i)

    def estimator(g, p, eps):
        estimates = np.zeros(g.n, dtype=np.int64)
        witnesses = {}
        for v in range(g.n):
            if v == p:
                continue
            bound = (eps.denominator + eps.numerator) * lam[p, v]
            ok = np.flatnonzero((members[:, p] != members[:, v])
                                & (values * eps.denominator <= bound))
            row = ok[np.argmax(values[ok])]
            side = members[row] if members[row, v] else ~members[row]
            estimates[v] = values[row]
            witnesses[v] = Cut(side=frozenset(np.flatnonzero(side).tolist()),
                               value=int(values[row]))
        offered[p] = estimates.copy()
        return EstimateTable(pivot=p, estimates=estimates, witnesses=witnesses, eps=eps)

    return estimator


def adversarial_exactness(stop_at_first_miss=False):
    """Criterion 4's check behind the adversarial estimator, on every third
    corpus graph at eps = 1/5. Returns the counts (checked, inflated,
    lowered, invalid witnesses, inexact values where an unfriendly minimum
    cut exists) and the first miss."""
    checked = inflated = lowered = soundness_misses = exact_misses = 0
    first = None
    for i in range(0, CORPUS_SIZE, 3):
        g = corpus_graph(i)
        members, values, friendly, lam = corpus_tables(i)
        offered = {}
        estimator = adversarial_estimator(i, offered)
        for p in range(g.n):
            table = single_source_unfriendly(g, p, eps=ADVERSARY_EPS, estimator=estimator)
            for v in range(g.n):
                if v == p:
                    continue
                checked += 1
                est = table.estimate(v)
                inflated += int(offered[p][v] > lam[p, v])
                lowered += int(est < offered[p][v])
                wcut = table.witnesses[v]
                if not (est >= lam[p, v] and v in wcut.side and p not in wcut.side
                        and cut_value(g, wcut.side) == wcut.value == est):
                    soundness_misses += 1
                    first = first or ("soundness", i, p, v)
                    continue
                at_min = (members[:, p] != members[:, v]) & (values == lam[p, v])
                if not friendly[at_min].all() and est != lam[p, v]:
                    exact_misses += 1
                    first = first or ("exactness", i, p, v, est, int(lam[p, v]))
                    if stop_at_first_miss:
                        return (checked, inflated, lowered, soundness_misses,
                                exact_misses), first
    return (checked, inflated, lowered, soundness_misses, exact_misses), first


def test_criterion_4_exact_under_adversarial_estimates(capsys):
    """The exactness claim, exercised: with the default estimator every
    estimate is already exact, so here an adversary inflates them and the
    isolating phase must bring back every one where an unfriendly minimum
    cut exists."""
    (checked, inflated, lowered, soundness_misses, exact_misses), first = adversarial_exactness()
    report(capsys, "4, adversarial estimates",
           lowered > 0 and soundness_misses == 0 and exact_misses == 0,
           f"{checked} (pivot, node) estimates at eps = {ADVERSARY_EPS}; the adversary "
           f"inflated {inflated} and the isolating phase lowered {lowered}; "
           f"{soundness_misses} invalid witnesses, {exact_misses} inexact values where "
           f"an unfriendly minimum cut exists" + (f"; first {first}" if first else ""))


def test_criterion_4_adversarial_check_fails_without_isolating_phase(monkeypatch):
    """Mutation: with no levels there are no isolating cuts, the inflated
    estimates stand, and the check above must find an inexact value."""
    monkeypatch.setattr(ss_unfriendly, "_level_sets", lambda table, delta: [])
    (_, inflated, lowered, _, exact_misses), first = adversarial_exactness(stop_at_first_miss=True)
    assert inflated > 0 and lowered == 0
    assert exact_misses > 0 and first[0] == "exactness"


def test_criterion_4_default_path_equals_the_isolating_phase_on_exact_estimates():
    """The default path skips the isolating phase; running it on the same
    exact estimates, behind ``estimator=approx_single_source``, changes no
    estimate, witness side or level."""
    for i in range(0, CORPUS_SIZE, 3):
        g = corpus_graph(i)
        for p in range(g.n):
            table = single_source_unfriendly(g, p)
            ref = single_source_unfriendly(g, p, estimator=ss_unfriendly.approx_single_source)
            assert table.levels == ref.levels, (i, p)
            assert np.array_equal(table.estimates, ref.estimates), (i, p)
            assert {v: w.side for v, w in table.witnesses.items()} == \
                {v: w.side for v, w in ref.witnesses.items()}, (i, p)


def per_level_reference(g, p, estimator, delta=ss_unfriendly.DELTA_DEFAULT):
    """single_source_unfriendly as documented, one level at a time: levels
    from the threshold walk over exact powers of (1 + delta), one
    ``isolating_cuts`` call per level, then ``EstimateTable.update`` for each
    terminal's own cut and after them for the pivot's complement side.
    Returns the table, the levels and how many updates of each kind lowered
    an estimate."""
    table = estimator(g, p, ADVERSARY_EPS)
    est = table.estimates.tolist()
    others = [v for v in range(g.n) if v != p]
    levels, threshold = [], Fraction(1)
    while threshold <= max(est[v] for v in others):
        level = frozenset(v for v in others if est[v] >= threshold) | {p}
        if level not in levels:
            levels.append(level)
        threshold *= 1 + delta
    lowered = [0, 0]
    for level in levels:
        iso = isolating_cuts(g, level)
        for v in sorted(level - {p}):
            lowered[0] += int(iso.cuts[v].value < table.estimates[v])
            table.update(v, iso.cuts[v].value, iso.cuts[v])
        s_p = iso.cuts[p]
        complement = Cut(side=frozenset(range(g.n)) - s_p.side, value=s_p.value)
        for v in sorted(complement.side):
            lowered[1] += int(s_p.value < table.estimates[v])
            table.update(v, s_p.value, complement)
    return table, levels, lowered


def test_criterion_4_merge_matches_per_level_reference():
    """Behind the adversarial estimator, where the isolating phase does lower
    estimates, the batched merge gives the per-level reference's estimates,
    witness sides and levels."""
    lowered = np.zeros(2, dtype=np.int64)
    for i in range(0, CORPUS_SIZE, 18):
        g = corpus_graph(i)
        estimator = adversarial_estimator(i, {})
        for p in range(g.n):
            table = single_source_unfriendly(g, p, eps=ADVERSARY_EPS, estimator=estimator)
            ref, levels, counts = per_level_reference(g, p, estimator)
            lowered += counts
            assert table.levels == tuple(levels), (i, p)
            assert np.array_equal(table.estimates, ref.estimates), (i, p)
            assert {v: w.side for v, w in table.witnesses.items()} == \
                {v: w.side for v, w in ref.witnesses.items()}, (i, p)
    # both kinds of update lower some estimate
    assert (lowered > 0).all(), lowered


def test_criterion_5_degree_shift_inequality(capsys):
    """Removing the heavy endpoint from its side loses >= 20% of cut value."""
    instances = violations = 0
    first = None
    for i in range(CORPUS_SIZE):
        g = corpus_graph(i)
        if not g.edges.size:
            continue
        members, values, friendly, lam = corpus_tables(i)
        deg = degrees(g)
        eu, ev, ew = g.edges[:, 0], g.edges[:, 1], g.edges[:, 2]
        inc = np.zeros((len(eu), g.n), dtype=np.int64)
        inc[np.arange(len(eu)), eu] = ew
        inc[np.arange(len(eu)), ev] = ew
        crossing = members[:, eu] != members[:, ev]
        node_cross = crossing @ inc
        heavy = CROSS_DEN * node_cross > CROSS_NUM * deg[None, :]
        # a cut is a minimum x,y cut for some y on x's far side
        eq = lam[None, :, :] == values[:, None, None]
        attains = (eq & ~members[:, None, :]).any(axis=2)
        attains_c = (eq & members[:, None, :]).any(axis=2)
        side_size = members.sum(axis=1)
        for x in range(g.n):
            on_side = members[:, x]
            rest_ok = np.where(on_side, side_size >= 2, g.n - side_size >= 2)
            use = heavy[:, x] & rest_ok & np.where(on_side, attains[:, x],
                                                   attains_c[:, x])
            if not use.any():
                continue
            shifted = values[use] + deg[x] - 2 * node_cross[use, x]
            bad = 5 * shifted > 4 * values[use]
            instances += int(use.sum())
            if bad.any():
                violations += int(bad.sum())
                first = first or (i, x)
    # dual route: spot-check the predicate functions on a few corpus graphs
    dual = 0
    for i in range(0, 40):
        g = corpus_graph(i)
        members, values, friendly, lam = corpus_tables(i)
        deg = degrees(g)
        for p, v in itertools.permutations(range(g.n), 2):
            sep = (members[:, p] != members[:, v]) & (values == lam[p, v])
            for j in np.flatnonzero(sep)[:2]:
                side = frozenset(int(x) for x in np.flatnonzero(members[j]))
                if p in side:
                    side = frozenset(range(g.n)) - side
                c = Cut(side=side, value=int(values[j]))
                mask = np.zeros(g.n, dtype=bool)
                mask[list(side)] = True
                cross = crossing_weights(g, mask)
                for fn, node, rest in ((lemma_unfriendly_v, v, side - {v}),
                                       (lemma_unfriendly_p, p,
                                        frozenset(range(g.n)) - side - {p})):
                    if not rest:
                        continue
                    if CROSS_DEN * int(cross[node]) > CROSS_NUM * int(deg[node]):
                        assert fn(g, p, v, c)
                        dual += 1
    report(capsys, 5, violations == 0 and dual > 50,
           f"{instances} heavy-endpoint minimum-cut instances, {violations} "
           f"inequality violations; {dual} re-checked through the predicate "
           f"functions" + (f"; first {first}" if first else ""))


def test_criterion_6_gh_based_sparsifier(capsys):
    pairs = failures = 0
    first = None
    for i in range(CORPUS_SIZE):
        g = corpus_graph(i)
        members, values, friendly, lam = corpus_tables(i)
        h = friendly_mincut_sparsifier_from_gh(g, gomory_hu(g))
        sup = h.map.super_of
        hm = None
        for s, t in itertools.combinations(range(g.n), 2):
            at_min = (members[:, s] != members[:, t]) & (values == lam[s, t])
            if not friendly[at_min].all():
                continue  # only AllFriendly pairs carry the guarantee
            pairs += 1
            ss, tt = int(sup[s]), int(sup[t])
            if ss == tt:
                failures += 1
                first = first or (i, s, t, "merged")
                continue
            if hm is None:
                hmem, hval, _ = cut_table(h.graph, with_friendliness=False)
                hm = (hmem, hval)
            sep = hm[0][:, ss] != hm[0][:, tt]
            if int(hm[1][sep].min()) != lam[s, t]:
                failures += 1
                first = first or (i, s, t, "value changed")
    # size chart on larger instances: flagged, not hard-failed
    flags = []
    for g in [gnp(n, min(1.0, 2.0 * math.log(n) / (n - 1)), seed=n)
              for n in (200, 600, 2000)] + \
             [clique_of_cliques(b) for b in (9, 16, 36)]:
        h = friendly_mincut_sparsifier_from_gh(g, gomory_hu(g))
        bound = 8 * g.n * math.log(g.n)
        if h.graph.total_weight > bound:
            flags.append((g.n, h.graph.total_weight, round(bound)))
    msg = (f"{pairs} AllFriendly pairs preserved exactly, {failures} failures; "
           f"size bound 8n·ln n satisfied on all 6 large instances"
           if not flags else
           f"{pairs} AllFriendly pairs, {failures} failures; size flags "
           f"(n, edges, bound): {flags} — review, not a hard failure")
    with capsys.disabled():
        if flags:
            print(f"[criterion 6] NOTE: size observations above 8n·ln n: {flags}")
    report(capsys, 6, failures == 0, msg + (f"; first {first}" if first else ""))


def test_criterion_7_size_trends(capsys):
    rows = []
    for fam, sizes in (("gnp", (250, 500, 1000, 2000)),
                       ("clique-of-cliques", (9, 16, 25, 36))):
        for n in sizes:
            for w in (4, 16, 64):
                rows.append(_bench_row(fam, n, w, seed=7))
    worst = 0.0
    for r in rows:
        ratio = r["sparsifier_edges"] / (r["n"] * math.sqrt(r["w"]))
        envelope = 0.1 * math.log(r["n"]) ** 3
        worst = max(worst, ratio / envelope)
    clique_ok = True
    for n in (512, 1024, 2000):
        h = friendly_sparsify(clique(n), n)
        if h.graph.n > 2:
            clique_ok = False
    report(capsys, 7, worst <= 1.0 and clique_ok,
           f"{len(rows)} bench rows, max edges/(n·sqrt(w)) at "
           f"{worst:.2f} of the 0.1·(ln n)^3 envelope; K_n with w=n "
           f"contracts to <= 2 super-nodes at n in {{512, 1024, 2000}}: "
           f"{clique_ok}")


def test_criterion_8_cag_totals(capsys):
    rng = random.Random(88)
    node_bad = edge_bad = 0
    worst = None
    for trial in range(200):
        g = corpus_graph(trial)
        t = gomory_hu(g)
        if t.component_count != 1 or g.n < 3:
            continue
        picked = [(u, v) for u, v, _ in t.edges if rng.random() < 0.5]
        pt = partition_tree_from_gh(t, ContractionMap.from_classes(g.n, picked))
        h = friendly_mincut_sparsifier_from_gh(g, t)
        nodes, _ = cag_totals(g, pt)
        if nodes > 3 * g.n:
            node_bad += 1
        _, edges_h = cag_totals(h, pt)
        if edges_h > h.graph.edge_count:
            edge_bad += 1
            excess = edges_h - h.graph.edge_count
            if worst is None or excess > worst[0]:
                worst = (excess, trial, edges_h, h.graph.edge_count)
    ok = node_bad == 0 and edge_bad == 0
    report(capsys, 8, ok,
           f"node totals <= 3n in all triples ({node_bad} violations); "
           f"edge totals <= |E(H)| violated in {edge_bad}/200 triples"
           + (f", worst excess {worst[0]} (trial {worst[1]}: {worst[2]} > "
              f"{worst[3]}); the edge sum is only bounded up to a "
              f"logarithmic factor, the constant-1 reading does not hold"
              if worst else ""))


def test_criterion_9_weighted_cycle_fixture(capsys):
    problems = []
    for n in (8, 12, 16):
        g = alt_cycle(n, 5)
        members, values, friendly = cut_table(g)
        h = friendly_mincut_sparsifier_from_gh(g, gomory_hu(g))
        sup = h.map.super_of
        for i in range(1, n - 1, 2):  # light edges (v_i, v_{i+1}), 1-based even i
            s, t = i, i + 1
            sep = members[:, s] != members[:, t]
            lam = int(values[sep].min())
            mins = np.flatnonzero(sep & (values == lam))
            arc = frozenset(range(i + 1))
            sides = [frozenset(int(x) for x in np.flatnonzero(members[j]))
                     for j in mins]
            if sides != [arc] or not friendly[mins[0]]:
                problems.append((n, s, t, "not the unique friendly arc cut"))
                continue
            supers = {int(sup[v]) for v in arc}
            if supers & {int(sup[v]) for v in set(range(n)) - arc}:
                problems.append((n, s, t, "contraction crossed the arc cut"))
            elif cut_value(h.graph, frozenset(supers)) != lam:
                problems.append((n, s, t, "value changed"))
        try:
            friendly_sparsify(g, n)
            problems.append((n, "weighted input accepted by simple-only sparsifier"))
        except ValueError:
            pass
    report(capsys, 9, not problems,
           "alt-cycle n in {8, 12, 16}: every even-position pair has the "
           "unique friendly arc min cut, all preserved after contraction, "
           "weighted input rejected by the simple-only sparsifier"
           + (f"; problems {problems}" if problems else ""))
