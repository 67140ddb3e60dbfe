"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig6-grid --seed 2015 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` runs the workload untraced and
then traced, checks that both give identical fingerprints, and prints
the per-layer metrics.  Every human-readable line comes first; the last
line of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 only when every correctness check
passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from measure import (
    StartupProbes, host_diagnostics, peak_rss_mb, percentile, probe_printed,
    samples_beyond, tail_resolved, TAIL_SAMPLES,
)
from spans import Recorder, layer_self_times
from workloads import DEFAULT_SEED, WORKLOADS, Gate

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

PROBE_REPEATS = 16
MIN_PASSES = 3


def metric_units(trace: int):
    """``{name: unit}`` of the metrics a run prints, as BENCHMARK.json
    declares them: end-to-end, or per-layer with ``trace``."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_passes(workload, gate, budget: float, minimum: int, label: str,
               reference=None, between=None):
    """Repeat passes until the next one would end past ``budget``
    seconds (and at least ``minimum`` ran), verifying each against
    ``reference`` (by default the workload's reference for its first
    pass).  ``between(elapsed)`` runs after each pass; its time does not
    count against the budget.  A pass that raises counts as a failed
    call and ends the run.  Returns ``(passes, reference)``."""
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        try:
            p = workload.run_pass()
        except Exception as exc:
            gate.check(False, f"{label} pass {len(passes)}: {type(exc).__name__}: {exc}")
            return passes, reference
        gate.attempted += len(p.calls)
        if reference is None:
            reference = workload.reference(p)
        workload.verify(gate, p, f"{label} pass {len(passes)}", reference)
        p.prints = None
        passes.append(p)
        elapsed = time.perf_counter() - start
        if between is not None:
            between(elapsed)
            start += time.perf_counter() - start - elapsed
        if len(passes) >= minimum and elapsed + p.wall > budget:
            return passes, reference


def undisturbed(samples) -> float:
    """Median of the fastest quarter of ``samples`` (at least one).

    Other tenants of the host slow it down in bursts, so a run's slower
    samples measure the neighbours as much as the program.  A step's
    time (for ``wall_s``) is taken over its fastest quarter, the samples
    least disturbed.  The latency percentiles take it over windows of
    passes (see :func:`latency_ms`)."""
    ordered = sorted(samples)
    return statistics.median(ordered[:max(1, len(ordered) // 4)])


def latency_windows(passes):
    """Cut ``passes`` into windows of consecutive passes, each the
    fewest passes whose calls resolve the p95 (one pass if the whole run
    cannot); the last window takes the remainder.  Returns each
    window's observed call latencies (ms)."""
    per_pass = len(passes[0].calls)
    size = next(
        (k for k in range(1, len(passes) + 1) if tail_resolved(k * per_pass, 95)), 1
    )
    starts = list(range(0, max(1, len(passes) // size) * size, size)) + [len(passes)]
    return [
        [c * 1000.0 for p in passes[a:b] for c in p.calls]
        for a, b in zip(starts, starts[1:])
    ]


def latency_ms(passes):
    """p50 and p95 of the ``api.sweep`` call latency (ms), and the
    windows they are taken over (see :func:`latency_windows`).

    Each window's percentiles are nearest-rank over every call it
    observed, so a stall that hits random calls throughout the run shows
    in every window's p95.  The run reports each percentile's
    undisturbed value over the windows, so a burst of the host that
    slows a stretch of the run does not set it."""
    windows = latency_windows(passes)
    return (
        undisturbed([percentile(w, 50) for w in windows]),
        undisturbed([percentile(w, 95) for w in windows]),
        windows,
    )


def latency_lines(windows, per_pass: int):
    n = sum(len(w) for w in windows)
    size = len(windows[0])
    note = (
        "" if tail_resolved(size, 95)
        else f"; a run cannot leave {TAIL_SAMPLES} calls beyond p95, so a "
             f"window is one pass"
    )
    return [
        f"sweep calls: n={n} over all passes ({per_pass} a pass), in "
        f"{len(windows)} windows of at least {size} calls, "
        f"{samples_beyond(size, 95)} beyond p95 in each{note}"
    ]


def end_to_end(workload, gate, args):
    config, cores = workload.first_machine()
    probes = StartupProbes(
        SRC,
        "import repro\n"
        "from repro.harness.configs import build_machine\n"
        f"build_machine({config!r}, n_cores={cores}, seed={args.seed})\n"
        "print('ready', flush=True)\n",
        PROBE_REPEATS,
        args.seconds,
    )
    with Recorder(traced=False) as recorder:
        workload.recorder = recorder
        workload.prepare(gate)
        passes, reference = run_passes(
            workload, gate, args.seconds, max(MIN_PASSES, workload.min_passes),
            "untraced", between=probes.between,
        )
        rss = peak_rss_mb(recorder.child_rss_kb)
        if not passes:
            return {}, []
        workload.cross_check(gate, reference)
    probes.finish()
    lines = workload.readout(passes, gate)
    # Every pass takes the same steps in the same order: time each step
    # by its own undisturbed samples, then add them up.  Call latencies
    # are every call of every pass, as observed.
    steps = [p.steps or p.calls for p in passes]
    p50, p95, windows = latency_ms(passes)
    lines += latency_lines(windows, len(passes[0].calls))
    walls = [p.wall for p in passes]
    lines.append(
        f"passes: {len(passes)}, pass wall (s) min {min(walls):.4f} "
        f"median {statistics.median(walls):.4f} max {max(walls):.4f}"
    )
    metrics = {
        "wall_s": sum(undisturbed(samples) for samples in zip(*steps)),
        "setup_s": statistics.median(probes.setup),
        "peak_rss_mb": rss,
        "sweep_ms_p50": p50,
        "sweep_ms_p95": p95,
        "cli_startup_s": undisturbed(probes.cli),
    }
    return metrics, lines


def per_layer(workload, gate, args):
    with Recorder(traced=False) as recorder:
        workload.recorder = recorder
        workload.prepare(gate)
        plain, reference = run_passes(workload, gate, args.seconds / 2, 2, "untraced")
    if not plain:
        return {}, [], None
    lines = workload.readout(plain, gate)
    with Recorder(traced=True) as tracer:
        workload.recorder = tracer
        traced, _ = run_passes(workload, gate, args.seconds / 2, 1, "traced", reference)
    if not traced:
        return {}, lines, tracer

    n = len(traced)
    layer = Counter(layer_self_times(tracer.spans))
    totals = tracer.totals
    durations = Counter()
    counts = Counter()
    for span in tracer.spans:
        key = span.name.split(".")[0]
        durations[key] += span.duration
        counts[key] += 1
    stats = [s for p in traced for s in p.stats]
    hits = sum(s.cache_hits for s in stats)
    # Every cache miss is a point executed through the job store.
    misses = sum(s.total - s.cache_hits for s in stats) if workload.cached else 0
    messages = totals["noc.messages_sent"]
    accesses = totals["l1.hits"] + totals["l1.misses"]
    sync_ops = totals["msa.ops_hw"] + totals["msa.ops_sw"]
    import_s = probe_printed(
        SRC,
        "import time\nt = time.perf_counter()\nimport repro.__main__\n"
        "print(time.perf_counter() - t)\n",
        PROBE_REPEATS,
    )

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "sim.events": totals["events"] / n,
        "sim.schedule_calls": totals["schedule"] / n,
        "sim.self_s": layer["sim"] / n,
        "sim.ns_per_event": ratio(layer["sim"], totals["events"]) * 1e9,
        "noc.messages": messages / n,
        "noc.link_stall_cycles": totals["noc.link_stall_cycles"] / n,
        "noc.self_s": layer["noc"] / n,
        "noc.us_per_message": ratio(layer["noc"], messages) * 1e6,
        "mem.accesses": accesses / n,
        "mem.l1_miss_ratio": ratio(totals["l1.misses"], accesses),
        "mem.self_s": layer["mem"] / n,
        "msa.sync_issues": totals["sync.issued"] / n,
        "msa.hw_ratio": ratio(totals["msa.ops_hw"], sync_ops),
        "msa.omu_ops": (totals["msa.omu_increments"] + totals["msa.omu_decrements"]) / n,
        "msa.self_s": layer["msa"] / n,
        "runtime.suspends": totals["futex.waits"] / n,
        "runtime.resumes": totals["futex.threads_woken"] / n,
        "runtime.self_s": layer["runtime"] / n,
        "workloads.build_s": durations["build"] / n,
        "workloads.validate_s": durations["validate"] / n,
        "workloads.self_s": layer["workloads"] / n,
        "harness.engine_self_s": layer["harness"] / n,
        "harness.cache_hits": hits / n,
        "harness.cache_misses": misses / n,
        "harness.hit_ratio": ratio(hits, hits + misses),
        "harness.cache_get_ms": _mean(tracer, "cache.get") * 1e3,
        "harness.cache_put_ms": _mean(tracer, "cache.put") * 1e3,
        "harness.retried": sum(s.retried for s in stats) / n,
        "resilience.store_calls": counts["store"] / n,
        "resilience.store_ms_per_point": ratio(layer["resilience"], misses) * 1e3,
        "obs.report_s": durations["report"] / n,
        "cli.import_s": statistics.median(import_s),
        "trace.overhead_ratio": statistics.median(p.wall for p in traced)
        / statistics.median(p.wall for p in plain),
    }
    lines.append(
        f"passes: {len(plain)} untraced, {n} traced; {len(tracer.spans)} spans; "
        f"tracer bookkeeping {layer['trace'] / n:.4f} s per pass"
    )
    return metrics, lines, tracer


def _mean(tracer, name: str) -> float:
    values = [s.duration for s in tracer.spans if s.name == name]
    return statistics.fmean(values) if values else 0.0


def write_spans(tracer, args) -> Path:
    out = ROOT / ".perfbench_out" / f"trace-{args.workload}-s{args.seed}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span.to_dict()) + "\n")
    return out


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]  # measure the program's defaults
    args = parse_args(argv)

    import repro.api  # noqa: F401  (compile and import before timing)

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(workdir)  # stay in the checkout
    gate = Gate()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, None)
        if args.trace:
            metrics, lines, tracer = per_layer(workload, gate, args)
            if tracer is not None:
                lines.append(f"spans written to {write_spans(tracer, args)}")
        else:
            metrics, lines = end_to_end(workload, gate, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = metric_units(args.trace)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for line in lines:
        print(f"  {line}")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:.6g} {units[name]}")
    print(f"  fail_ratio {gate.failed / max(1, gate.attempted):.6g} ({gate.failed}/{gate.attempted})")
    for error in gate.errors:
        print(f"  FAIL {error}")
    diag = host_diagnostics()
    print("  host: " + ", ".join(f"{k}={v}" for k, v in diag.items()))
    correct = gate.failed == 0 and gate.attempted > 0 and set(metrics) == set(units)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, gate.attempted),
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
