"""The benchmark's three workloads and their correctness gate.

Each workload is a sequence of *passes*: a fixed amount of client work
that :mod:`run` repeats for the run's length and times one pass at a
time.  A pass returns its wall time, the latency of every ``api.sweep``
call it made, and a fingerprint per point:

* a simulated point: ``(cycles, events)`` -- the kernel's event count
  is read by the benchmark's ``Machine.run`` hook;
* a point served from the result cache: ``(cycles, sha256 of its
  canonical JSON)`` -- the cache keeps no event count.

All inputs derive from the ``--seed`` argument: it is the simulation
seed of every point.  The points and the call sequence are fixed, so the
work a pass does depends on the seed only through the simulated results.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from spans import Recorder, point_id

#: The seed the pinned fingerprints were recorded at.
DEFAULT_SEED = 2015

#: Fig. 6 configurations: the pthread baseline plus the paper's six.
FIG6_CONFIGS = ("pthread", "msa0", "mcs-tour", "msa-omu-1", "msa-omu-2", "msa-inf", "ideal")
FIG6_CORES = (9, 16)
FIG6_SCALE = 0.5
FIG6_WORKERS = 2

#: (config, workload, cores, scale): large meshes at high event density.
MESH_POINTS = (
    ("msa-omu-2", "streamcluster", 256, 4.0),
    ("msa-omu-2", "fluidanimate", 64, 0.5),
    ("pthread", "streamcluster", 64, 2.0),
)

#: sweep-mixed replays the design-space session that docs/DSE.md walks
#: through: the default-baseline explore of these axes warms the cache,
#: then the worked example asks the ideal-relative question of the same
#: axes, which "costs one baseline sweep" -- one call of new points, the
#: other nine served from the cache.
MIXED_AXES = {"msa.entries_per_tile": [1, 2, 4], "omu.n_counters": [2, 4, 8]}
MIXED_CONFIG = "msa-omu-2"
MIXED_CORES = 16
MIXED_BASELINE = "ideal"

#: The paper's headline figures the model readout is printed beside.
PAPER_SPEEDUP = 1.43
PAPER_COVERAGE_PCT = 93.0

PINS_PATH = Path(__file__).with_name("pins.json")


def kernels() -> List[str]:
    from repro.workloads.kernels import KERNELS

    return list(KERNELS)


def result_digest(result) -> str:
    return hashlib.sha256(result.to_json().encode()).hexdigest()


@dataclass
class Pass:
    """One pass.  ``prints`` is dropped once the pass is verified, so a
    run's memory does not grow with the number of passes it makes."""

    wall: float
    calls: List[float]
    """Latency of each ``api.sweep`` call, in the same order every pass."""
    prints: Optional[List[Tuple[str, Tuple]]] = None
    stats: list = field(default_factory=list)
    model: Optional[Dict[str, float]] = None
    hits_expected: int = 0
    report_ok: Optional[bool] = None
    report_s: Optional[float] = None
    steps: Optional[List[float]] = None
    """Times of the steps the pass is made of, in the same order every
    pass (by default its calls)."""


class Gate:
    """Correctness tally.  Every point fingerprint, ``api.sweep`` call and
    report render checked counts as attempted; a mismatch, an exception
    or a missing point counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def prints(self, got, want: Dict[str, Tuple], label: str, complete: bool) -> None:
        """Check each ``(point id, fingerprint)`` of ``got`` against
        ``want``; with ``complete``, every point of ``want`` must occur."""
        for pid, fp in got:
            self.check(fp == want.get(pid), f"{label}: {pid} {fp} != {want.get(pid)}")
        if complete:
            for pid in set(want) - {pid for pid, _ in got}:
                self.check(False, f"{label}: {pid} missing")


def load_pins() -> Dict:
    return json.loads(PINS_PATH.read_text()) if PINS_PATH.is_file() else {}


class Workload:
    name = ""
    cached = False
    """Whether the workload's sweeps run against a result cache."""
    min_passes = 3

    def __init__(self, seed: int, workdir: Path, recorder: Recorder):
        self.seed = seed
        self.workdir = workdir
        self.recorder = recorder

    def first_machine(self) -> Tuple[str, int]:
        raise NotImplementedError

    def prepare(self, gate: Gate) -> None:
        """Untimed set-up before the first pass."""

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def cross_check(self, gate: Gate, reference: Dict[str, Tuple]) -> None:
        """Untimed extra checks after the passes of an untraced run."""

    def sweep(self, *args, **kwargs):
        """One timed ``api.sweep`` call, returning (points, stats, seconds)."""
        from repro import api

        t0 = time.perf_counter()
        points, stats = self.recorder.timed(
            "sweep", "harness", api.sweep, *args, return_stats=True, **kwargs
        )
        return points, stats, time.perf_counter() - t0

    def fingerprints(self, points, seed: int, params=None,
                     faults: bool = False) -> List[Tuple[str, Tuple]]:
        payloads = self.recorder.harvest(points, seed, params, faults)
        out = []
        for p in points:
            pid = point_id(p.config, p.workload, p.n_cores, seed, params, faults)
            payload = payloads[pid]
            if payload is not None:
                out.append((pid, (p.result.cycles, payload["events"])))
            else:
                out.append((pid, (p.result.cycles, result_digest(p.result))))
        return out

    def pinned(self) -> Optional[Dict[str, Tuple]]:
        """Pinned fingerprints for this workload at this seed, if any."""
        if self.seed != DEFAULT_SEED:
            return None
        pins = load_pins().get(self.name, {}).get("points")
        return {k: tuple(v) for k, v in pins.items()} if pins else None

    def reference(self, first: Pass) -> Dict[str, Tuple]:
        """The fingerprints every pass must reproduce: the pins at the
        default seed, the first pass at a held-out seed."""
        pins = self.pinned()
        return pins if pins is not None else dict(first.prints)

    def verify(self, gate: Gate, p: Pass, label: str, reference) -> None:
        gate.prints(p.prints, reference, label, complete=True)

    def readout(self, passes: List[Pass], gate: Gate) -> List[str]:
        """Model readout lines (simulated results, never host metrics)."""
        return []


class Fig6Grid(Workload):
    """A cold Fig. 6 grid on the 2-worker pool: many small machines, so
    every simulator layer and the engine's per-point cost show."""

    name = "fig6-grid"

    def first_machine(self):
        return FIG6_CONFIGS[0], FIG6_CORES[0]

    def run_pass(self) -> Pass:
        points, stats, wall = self.sweep(
            FIG6_CONFIGS, kernels(), cores=FIG6_CORES, scale=FIG6_SCALE,
            seed=self.seed, workers=FIG6_WORKERS, cache_dir="",
        )
        return Pass(
            wall, [wall], self.fingerprints(points, self.seed), [stats],
            model=self.model(points),
        )

    def cross_check(self, gate: Gate, reference: Dict[str, Tuple]) -> None:
        """Re-run one seeded point per kernel through the serial engine
        path and require the pooled fingerprints."""
        rng = random.Random(self.seed)
        for kernel in kernels():
            config, cores = rng.choice(FIG6_CONFIGS), rng.choice(FIG6_CORES)
            pid = point_id(config, kernel, cores, self.seed)
            try:
                points, _stats, _ = self.sweep(
                    [config], [kernel], cores=(cores,), scale=FIG6_SCALE,
                    seed=self.seed, workers=1, cache_dir="",
                )
            except Exception as exc:
                gate.check(False, f"serial {pid}: {type(exc).__name__}: {exc}")
                continue
            got = dict(self.fingerprints(points, self.seed))
            gate.check(
                got.get(pid) == reference.get(pid),
                f"serial {pid}: {got.get(pid)} != pooled {reference.get(pid)}",
            )

    @staticmethod
    def model(points) -> Dict[str, float]:
        """msa-omu-2 over pthread at 16 cores: geomean speedup and mean
        MSA coverage (percent) over the kernels."""
        cycles = {(p.config, p.workload, p.n_cores): p.result for p in points}
        speedups, coverage = [], []
        for kernel in kernels():
            base = cycles[("pthread", kernel, 16)]
            msa = cycles[("msa-omu-2", kernel, 16)]
            speedups.append(base.cycles / msa.cycles)
            coverage.append(msa.msa_coverage or 0.0)
        return {
            "speedup_geomean": math.exp(
                statistics.fmean(math.log(s) for s in speedups)
            ),
            "coverage_pct": 100.0 * statistics.fmean(coverage),
        }

    def readout(self, passes, gate):
        values = [p.model for p in passes]
        for i, v in enumerate(values[1:], 1):
            gate.check(v == values[0], f"model readout pass {i}: {v} != {values[0]}")
        if self.seed == DEFAULT_SEED:
            pinned = load_pins().get(self.name, {}).get("model")
            gate.check(values[0] == pinned, f"model readout {values[0]} != pinned {pinned}")
        got = values[0]
        label = (
            f"[16 cores, scale {FIG6_SCALE:g}, against the paper's 64-core "
            f"SESC figures]"
        )
        return [
            f"model.speedup_geomean = {got['speedup_geomean']:.4f}x "
            f"(paper {PAPER_SPEEDUP}x, diff "
            f"{got['speedup_geomean'] - PAPER_SPEEDUP:+.4f}) {label}",
            f"model.coverage_pct    = {got['coverage_pct']:.2f} % "
            f"(paper {PAPER_COVERAGE_PCT:g} %, diff "
            f"{got['coverage_pct'] - PAPER_COVERAGE_PCT:+.2f}) {label}",
        ]


class MeshScale(Workload):
    """Three large meshes on the serial engine path: kernel, NoC and MSA
    at high event density, with almost no engine cost."""

    name = "mesh-scale"

    def first_machine(self):
        return MESH_POINTS[0][0], MESH_POINTS[0][2]

    def run_pass(self) -> Pass:
        calls, points, stats = [], [], []
        t0 = time.perf_counter()
        for config, workload, cores, scale in MESH_POINTS:
            got, st, seconds = self.sweep(
                [config], [workload], cores=(cores,), scale=scale,
                seed=self.seed, workers=1, cache_dir="",
            )
            calls.append(seconds)
            points += got
            stats.append(st)
        wall = time.perf_counter() - t0
        return Pass(wall, calls, self.fingerprints(points, self.seed), stats)


class SweepMixed(Workload):
    """A design-space session on a warm result cache: many small
    ``api.sweep`` calls, most served from the cache, one of new points
    through the job store, then a report -- engine, cache, store and
    report, with little simulation."""

    name = "sweep-mixed"
    cached = True
    min_passes = 20
    """With ten calls a pass, 20 passes leave ten pooled calls beyond p95."""

    def __init__(self, seed, workdir, recorder):
        super().__init__(seed, workdir, recorder)
        self.snapshot = workdir / "snapshot"
        self.cache = workdir / "cache"
        self.warm_prints: Dict[str, Tuple] = {}
        self.warm_digest: Dict[str, Tuple] = {}
        self.designs: Optional[Dict[str, Tuple[float, float]]] = None

    def first_machine(self):
        return MIXED_CONFIG, MIXED_CORES

    def explore(self, cache: Path, **kwargs):
        """``api.dse`` over :data:`MIXED_AXES` at this seed, timing each
        ``api.sweep`` call it makes.  Returns the result, the call times
        and the ``(points, stats, params, faults)`` of every call."""
        from repro import api

        inner, times, calls = api.sweep, [], []

        def sweep(*args, **kw):
            t0 = time.perf_counter()
            points, stats = self.recorder.timed("sweep", "harness", inner, *args, **kw)
            times.append(time.perf_counter() - t0)
            calls.append((points, stats, kw.get("params"), kw.get("fault_plan") is not None))
            return points, stats

        api.sweep = sweep
        try:
            result = self.recorder.timed(
                "dse", "harness", api.dse, MIXED_AXES, config=MIXED_CONFIG,
                cores=(MIXED_CORES,), seed=self.seed, workers=1,
                cache_dir=str(cache), **kwargs,
            )
        finally:
            api.sweep = inner
        return result, times, calls

    def prepare(self, gate: Gate) -> None:
        """Warm the cache snapshot with the default-baseline explore,
        recording each entry's uncached fingerprint and its digest as
        the cache will serve it."""
        _result, _times, calls = self.explore(self.snapshot)
        pins = self.pinned()
        for points, _stats, params, faults in calls:
            warm = self.fingerprints(points, self.seed, params, faults)
            self.warm_prints.update(warm)
            for pid, got in warm:
                if pins is not None:
                    gate.check(got == pins.get(pid), f"warm {pid}: {got} != pinned {pins.get(pid)}")
            for p in points:
                pid = point_id(p.config, p.workload, p.n_cores, self.seed, params, faults)
                self.warm_digest[pid] = (p.result.cycles, result_digest(p.result))

    def run_pass(self) -> Pass:
        from repro import api

        shutil.rmtree(self.cache, ignore_errors=True)
        shutil.copytree(self.snapshot, self.cache)
        report = self.workdir / "report.html"
        t0 = time.perf_counter()
        result, times, calls = self.explore(
            self.cache, baseline=MIXED_BASELINE, chaos_rate=0.0
        )
        t1 = time.perf_counter()
        self.recorder.timed("report", "obs", api.report, str(self.cache), str(report))
        t2 = time.perf_counter()
        prints, stats = [], []
        for points, st, params, faults in calls:
            prints += self.fingerprints(points, self.seed, params, faults)
            stats.append(st)
        entries = set(self.warm_digest) | {pid for pid, _ in prints}
        return Pass(
            t2 - t0, times, prints, stats,
            model={r.label(): (r.speedup, r.cost) for r in result.final_records},
            hits_expected=sum(pid in self.warm_digest for pid, _ in prints),
            report_ok=self.report_lists(report.read_text(), result, calls, len(entries)),
            report_s=t2 - t1, steps=[t1 - t0, t2 - t1],
        )

    @staticmethod
    def report_lists(html: str, result, calls, entries: int) -> bool:
        """The report lists every cached point: its point count matches
        the cache, every design of the exploration is named, and every
        point without overrides has its row and config."""
        if f"<b>{entries}</b>points" not in html:
            return False
        if not all(r.label() in html for r in result.final_records):
            return False
        return all(
            f"{p.workload} @{p.n_cores}" in html and f">{p.config}<" in html
            for points, _stats, params, _faults in calls if not params
            for p in points
        )

    def reference(self, first):
        """Hits must equal the warm cache's uncached runs; new points
        must equal the pins (the first pass at a held-out seed), and the
        exploration's designs those of the first pass."""
        pins, reference = self.pinned(), dict(self.warm_digest)
        for pid, fp in first.prints:
            if pid not in reference:
                reference[pid] = pins.get(pid) if pins else fp
        self.designs = first.model
        return reference

    def verify(self, gate, p, label, reference):
        """Besides the fingerprints, the pass's report must list every
        cached point, its calls must serve exactly the expected hits and
        its exploration must rank the same designs the same way."""
        gate.prints(p.prints, reference, label, complete=False)
        gate.check(bool(p.report_ok), f"{label}: report misses cached points")
        hits = sum(s.cache_hits for s in p.stats)
        gate.check(hits == p.hits_expected, f"{label}: {hits} cache hits, expected {p.hits_expected}")
        gate.check(p.model == self.designs, f"{label}: designs {p.model} != {self.designs}")


WORKLOADS = {cls.name: cls for cls in (Fig6Grid, MeshScale, SweepMixed)}
