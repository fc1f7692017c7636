"""Benchmark for friendlycuts: one workload per run, closed loop, single process.

    python3 perfbench/run.py --workload gh-gnp --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its ``src``.
Inputs are generated from ``--seed``. Jobs run back to back until the next
one would end after ``--seconds``. Every output is checked outside the timed
region by ``check.py``. End-to-end times are wall times scaled to nominal
host speed by ``probe.py``. The last line of standard output is one JSON
object: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SETUP_REPEATS = 7

# Metric names and units are read from BENCHMARK.json at the checkout root.
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"


def _import_library():
    """Put the checkout's ``src`` first on the path and import the benchmark
    modules; exit non-zero when the checkout holds no library."""
    if not (SRC / "friendlycuts").is_dir():
        sys.exit(f"perfbench: no library at {SRC / 'friendlycuts'}; run from a checkout")
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import friendlycuts
    if Path(friendlycuts.__file__).resolve().parent != (SRC / "friendlycuts").resolve():
        sys.exit(f"perfbench: imported friendlycuts from {friendlycuts.__file__}, not {SRC}")
    import workloads
    return workloads


def set_up(workload: str, seed: int):
    """Import the library, generate the run's inputs and warm up.
    Returns (workload, inputs, seconds taken)."""
    t0 = time.perf_counter()
    workloads = _import_library()
    if workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[workload]
    k = wl.inputs_per_run
    inputs = [wl.generate(seed * k + i) for i in range(k)]
    wl.warm_up(seed)
    return wl, inputs, time.perf_counter() - t0


_SETUP_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
                "print(run.set_up(sys.argv[2], int(sys.argv[3]))[2])")


def cold_setup_seconds(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter, timed inside it."""
    out = subprocess.run([sys.executable, "-B", "-c", _SETUP_CHILD, str(BENCH_DIR), workload,
                          str(seed)], capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def _tail_percentile(sorted_values, unit: str) -> str:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    for pct in (99.9, 99, 90):
        if len(sorted_values) * (100 - pct) / 100 >= 10:
            value = sorted_values[int(len(sorted_values) * pct / 100)]
            return f", p{pct:g} {value:.2f} {unit}"
    return ""


def _environment(loadavg) -> str:
    import networkx
    import numpy
    import scipy
    load = " ".join(f"{x:.2f}" for x in loadavg)
    return (f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} networkx={networkx.__version__} "
            f"nproc={os.cpu_count()} loadavg=[{load}]")


class Outputs:
    """The distinct job outputs of a run, with their query answers; a repeat
    equal to a stored one (same fingerprint and answers) is not stored again."""

    def __init__(self, wl):
        self.wl = wl
        self.items: list[tuple] = []  # (fingerprint, input index, output, answers)

    def add(self, source: int, out, answers) -> int:
        fp = self.wl.fingerprint(out)
        for i, (f, src, _, a) in enumerate(self.items):
            if f == fp and src == source and a == answers:
                return i
        self.items.append((fp, source, out, answers))
        return len(self.items) - 1


def _sampled(probe, fn):
    """Run ``fn()`` under the probe; return (result, wall seconds with the
    batches sampled during the call taken out, batch times). The batch times
    are a burst before, the sampled batches, and a burst after."""
    before = probe.burst()
    t0 = time.perf_counter()
    with probe.sampling() as samples:
        result = fn()
    wall = time.perf_counter() - t0 - sum(samples)
    return result, wall, [before, *samples, probe.burst()]


def run_jobs(wl, inputs, seconds: float, outputs: Outputs, probe=None, tracer=None,
             between=None):
    """Closed loop of jobs, cycling through ``inputs``, for about ``seconds``
    and at least one pass over the inputs; returns per-job records. With a
    ``probe``, each record carries the factors that take the job's and the
    queries' wall times to nominal host speed. ``between()``, when given,
    runs between two jobs and its time is not counted against ``seconds``."""
    records = []
    start = time.perf_counter()
    paused = 0.0
    while True:
        t0 = time.perf_counter()
        before = tracer.snapshot() if tracer else None
        violations = len(tracer.violations) if tracer else 0
        source = len(records) % len(inputs)
        rec = {"error": None}
        try:
            inp = inputs[source]
            if probe:
                out, rec["job_s"], batches = _sampled(probe, lambda: wl.job(inp))
                (answers, micros), _, q_batches = _sampled(probe, lambda: wl.queries(inp, out))
                # a sampled batch runs inside one query's timing: take it out of the mean
                rec["query_mean_us"] = (sum(micros) - 1e6 * sum(q_batches[1:-1])) / len(micros)
                rec["job_scale"], rec["query_scale"] = probe.scale(batches), probe.scale(q_batches)
                rec["probe_samples"] = len(batches) + len(q_batches) - 4
            else:
                t1 = time.perf_counter()
                out = wl.job(inp)
                rec["job_s"] = time.perf_counter() - t1
                answers, micros = wl.queries(inp, out)
            rec["query_us"] = micros
            rec["output"] = outputs.add(source, out, answers)
        except Exception:  # a raising job counts as failed; the loop goes on
            rec["error"] = traceback.format_exc()
        if tracer:
            after = tracer.snapshot()
            rec["layers"] = {k: after[k] - before[k] for k in after}
            rec["trace_violations"] = tracer.violations[violations:]
        records.append(rec)
        now = time.perf_counter()
        if len(records) >= len(inputs) and (now - start - paused) + (now - t0) > seconds:
            return records
        if between:
            between()
            paused += time.perf_counter() - now


def check_records(wl, inputs, records, outputs: Outputs, seed: int) -> int:
    """Check each distinct output once; return the number of failed jobs."""
    import numpy as np

    verdicts = [wl.check(inputs[src], out, answers, np.random.default_rng([seed, 5]))
                for _, src, out, answers in outputs.items]
    failed = 0
    for i, rec in enumerate(records):
        fails = [rec["error"]] if rec["error"] else list(rec.get("trace_violations", []))
        if not rec["error"]:
            fails += verdicts[rec["output"]]
        if fails:
            failed += 1
            print(f"job {i}: FAILED", file=sys.stderr)
            for f in fails:
                print(f"  {f}", file=sys.stderr)
    print(f"check: {len(outputs.items)} distinct outputs checked over {len(records)} jobs")
    fps = [outputs.items[r["output"]][0] for r in records if not r["error"]]
    print(f"fingerprints: {', '.join(f'{f} x{fps.count(f)}' for f in sorted(set(fps)))}")
    return failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads(SPEC_PATH.read_text())
    loadavg = os.getloadavg()
    wl, inputs, own_setup_s = set_up(args.workload, args.seed)
    import check
    import layertrace
    from probe import REF_S, SpeedProbe
    print(f"env: {_environment(loadavg)}")
    print(f"workload: {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")

    outputs = Outputs(wl)
    if args.trace:
        # Untraced half first, then the same jobs with every layer wrapped.
        # No probe: its batches would land in the layers' self times.
        plain = run_jobs(wl, inputs, args.seconds / 2, outputs)
        tracer = layertrace.Tracer()
        tracer.install()
        traced = run_jobs(wl, inputs, args.seconds / 2, outputs, tracer=tracer)
        records = plain + traced
    else:
        probe = SpeedProbe()
        # Set-ups run in fresh interpreters between jobs, so that samples
        # taken seconds apart see different machine states; any still missing
        # run at the end. Each is (wall seconds, scale to nominal speed).
        setups: list[tuple[float, float]] = []

        def cold_setup():
            if len(setups) < SETUP_REPEATS:
                before = probe.burst()
                wall = cold_setup_seconds(wl.name, args.seed)
                setups.append((wall, probe.scale([before, probe.burst()])))

        records = run_jobs(wl, inputs, args.seconds, outputs, probe, between=cold_setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for line in check.DESCRIPTION[wl.name]:
        print(f"check: {line}")
    failed = check_records(wl, inputs, records, outputs, args.seed)
    print(f"fail_rate: {failed}/{len(records)} = {failed / len(records):.4f}")
    ok = [r for r in (traced if args.trace else records) if r["error"] is None]
    if not ok:
        sys.exit("perfbench: no job produced an output to measure")

    if args.trace:
        plain_s = statistics.median([r["job_s"] for r in plain if r["error"] is None])
        layers = {k: statistics.median([r["layers"][k] for r in ok]) for k in ok[0]["layers"]}
        layers["trace.job_s"] = statistics.median([r["job_s"] for r in ok])
        layers["trace.overhead_s"] = layers["trace.job_s"] - plain_s
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        while len(setups) < SETUP_REPEATS:
            cold_setup()
        first_output = {}
        for _, src, out, _ in outputs.items:
            first_output.setdefault(src, out)
        values = {
            "job_s": statistics.median([r["job_s"] * r["job_scale"] for r in ok]),
            # every job runs the same number of queries
            "query_us": statistics.fmean([r["query_mean_us"] * r["query_scale"] for r in ok]),
            "setup_s": statistics.median([wall * scale for wall, scale in setups]),
            "peak_rss_mb": peak_rss_mb,
            # one value per input, so that it does not depend on the job count
            "output_weight": statistics.median(
                wl.output_weight(out) for out in first_output.values()),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        print(f"probe: {sum(r['probe_samples'] for r in ok)} batches sampled during jobs and "
              "queries; speed relative to nominal, per job: "
              + " ".join(f"{r['job_scale']:.3f}" for r in ok) + f" (REF_S {REF_S * 1e3:.2f} ms)")
        print(f"jobs: {len(ok)} timed, wall s each: "
              + " ".join(f"{r['job_s']:.4f}" for r in ok))
        print("jobs: at nominal speed, s each: "
              + " ".join(f"{r['job_s'] * r['job_scale']:.4f}" for r in ok))
        micros = sorted(q for r in ok for q in r["query_us"])
        wall_mean = statistics.fmean([r["query_mean_us"] for r in ok])
        print(f"queries: {len(micros)} timed, wall mean {wall_mean:.2f} us, median "
              f"{statistics.median(micros):.2f} us" + _tail_percentile(micros, "us")
              + " (median and tail include the few calls a probe batch interrupted)")
        print(f"setup: wall {own_setup_s:.4f} s in this process; in fresh interpreters, wall "
              + " ".join(f"{wall:.4f}" for wall, _ in setups) + " s, at nominal speed "
              + " ".join(f"{wall * scale:.4f}" for wall, scale in setups) + " s")
    for name, m in metrics.items():
        print(f"metric: {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
