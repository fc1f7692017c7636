"""Outside-in per-layer tracing of friendlycuts.

The tracer replaces each traced function at every binding that refers to it:
module attributes found by identity in every loaded ``friendlycuts`` module
(so ``from .maxflow import max_flow`` copies are wrapped too) and the
``Graph.build`` static method on the class. No library source changes.

Each wrapped call is a span. A span's self time is its duration minus the
time covered by its child spans. Counts are taken at the same boundaries,
and two invariants are checked on every call, so that a binding the scan
missed fails loudly instead of undercounting:

- ``gomory_hu`` makes exactly n - c traced ``max_flow`` calls on a graph
  with c connected components (k-1 per component of k nodes);
- each ``isolating_cuts`` call makes exactly as many traced ``max_flow``
  calls as its result reports in ``global_flow_calls + local_flow_calls``.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import numpy as np
from scipy.sparse.csgraph import maximum_flow as scipy_maximum_flow

import friendlycuts.expander
import friendlycuts.gomory_hu
import friendlycuts.graph
import friendlycuts.isolating
import friendlycuts.maxflow
import friendlycuts.sparsify
import friendlycuts.ss_unfriendly

from check import component_labels

# (layer metric prefix, module defining the function, attribute name)
TARGETS = [
    ("maxflow.max_flow", friendlycuts.maxflow, "max_flow"),
    ("maxflow.min_cut_between_sets", friendlycuts.maxflow, "min_cut_between_sets"),
    ("graph.contract", friendlycuts.graph, "contract"),
    ("gomory_hu.gomory_hu", friendlycuts.gomory_hu, "gomory_hu"),
    ("gomory_hu.gh_query", friendlycuts.gomory_hu, "gh_query"),
    ("isolating.isolating_cuts", friendlycuts.isolating, "isolating_cuts"),
    ("ss_unfriendly.single_source_unfriendly", friendlycuts.ss_unfriendly,
     "single_source_unfriendly"),
    ("ss_unfriendly.approx_single_source", friendlycuts.ss_unfriendly, "approx_single_source"),
    ("expander.decompose", friendlycuts.expander, "decompose"),
    ("sparsify.friendly_sparsify", friendlycuts.sparsify, "friendly_sparsify"),
]

# Counts reported besides each span's calls and times.
COUNTS = [
    "maxflow.max_flow.nodes",
    "maxflow.max_flow.edges",
    "isolating.global_flows",
    "isolating.local_flows",
    "isolating.terminals",
    "ss_unfriendly.levels",
    "expander.clusters",
    "expander.outer_edges",
    "sparsify.rounds",
    "sparsify.rounds_contracted",
]

ENGINE = "maxflow.engine"
GRAPH_BUILD = "graph.Graph.build"
SPANS = [name for name, _, _ in TARGETS] + [ENGINE, GRAPH_BUILD]


class Tracer:
    """Span statistics and counts, accumulated in memory for one process."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.violations: list[str] = []
        self._stack: list[list[float]] = []  # child time covered, per open span

    def snapshot(self) -> dict[str, float]:
        """Cumulative values of every per-layer quantity so far."""
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.total_s"] = self.total_s[name]
        for name in COUNTS:
            out[name] = self.counts[name]
        return out

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` recorded as span ``name``. ``before(args, kwargs)``
        runs ahead of the call and its return value is passed on to
        ``after(state, args, kwargs, result)``."""
        stack = self._stack
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                calls[name] += 1
                total_s[name] += dt
                self_s[name] += dt - frame[0]
            if after:
                after(state, args, kwargs, result)
            return result

        return traced

    # -- hooks: counts and self-checks at span boundaries ------------------

    def _flow_mark(self, args, kwargs):
        return self.calls["maxflow.max_flow"]

    def _before_max_flow(self, args, kwargs):
        g = args[0] if args else kwargs["g"]
        self.counts["maxflow.max_flow.nodes"] += g.n
        self.counts["maxflow.max_flow.edges"] += g.edge_count

    def _after_gomory_hu(self, mark, args, kwargs, result):
        g = args[0] if args else kwargs["g"]
        flows = self.calls["maxflow.max_flow"] - mark
        expected = g.n - len(np.unique(component_labels(g.n, np.asarray(g.edges))))
        if flows != expected:
            self.violations.append(
                f"gomory_hu on n={g.n}: traced {flows} max_flow calls, expected "
                f"{expected} (k-1 per component of k nodes)")

    def _after_isolating(self, mark, args, kwargs, result):
        flows = self.calls["maxflow.max_flow"] - mark
        reported = result.global_flow_calls + result.local_flow_calls
        if flows != reported:
            self.violations.append(
                f"isolating_cuts: traced {flows} max_flow calls, result reports {reported}")
        self.counts["isolating.global_flows"] += result.global_flow_calls
        self.counts["isolating.local_flows"] += result.local_flow_calls
        self.counts["isolating.terminals"] += len(result.cuts)

    def _after_ssu(self, state, args, kwargs, result):
        self.counts["ss_unfriendly.levels"] += len(result.levels)

    def _after_decompose(self, state, args, kwargs, result):
        self.counts["expander.clusters"] += len(result.clusters)
        self.counts["expander.outer_edges"] += int(result.outer_edges)

    def _sparsify_mark(self, args, kwargs):
        return self.calls["expander.decompose"], self.calls["graph.contract"]

    def _after_sparsify(self, mark, args, kwargs, result):
        self.counts["sparsify.rounds"] += self.calls["expander.decompose"] - mark[0]
        self.counts["sparsify.rounds_contracted"] += self.calls["graph.contract"] - mark[1]

    def install(self) -> None:
        """Wrap every binding of every target; raise if a target has none."""
        hooks = {
            "maxflow.max_flow": (self._before_max_flow, None),
            "gomory_hu.gomory_hu": (self._flow_mark, self._after_gomory_hu),
            "isolating.isolating_cuts": (self._flow_mark, self._after_isolating),
            "ss_unfriendly.single_source_unfriendly": (None, self._after_ssu),
            "expander.decompose": (None, self._after_decompose),
            "sparsify.friendly_sparsify": (self._sparsify_mark, self._after_sparsify),
        }
        originals = [(name, getattr(mod, attr)) for name, mod, attr in TARGETS]
        originals.append((ENGINE, scipy_maximum_flow))
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "friendlycuts" or key.startswith("friendlycuts."))]
        for name, fn in originals:
            before, after = hooks.get(name, (None, None))
            wrapped = self.wrap(name, fn, before, after)
            bound = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)
                        bound += 1
            if not bound:
                raise RuntimeError(f"trace: no binding of {name} found in friendlycuts")
        graph_cls = friendlycuts.graph.Graph
        graph_cls.build = staticmethod(self.wrap(GRAPH_BUILD, graph_cls.build))
