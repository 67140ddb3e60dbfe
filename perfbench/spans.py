"""Span recording for the benchmark: hooks, self time, layer split.

The benchmark measures the simulator from the outside.  A
:class:`Recorder` wraps public entry points of the program's layers
(the engine's worker entry point ``execute_spec``, ``Machine.run``, the
result cache, the job store, ...) for the length of a run and restores
them afterwards; nothing under ``src/`` knows it is being measured.

Two hooks are always installed, because the correctness gate needs
them: the per-point wrapper around ``execute_spec`` and the wrapper
around ``Machine.run`` that reads the kernel's event count.  They cost
one extra Python call per simulated point.  Everything else -- spans,
counters and the profiler split -- is installed only for a traced run.

Spans carry ``(id, name, layer, start, end, parent, point)``.  Times
are ``time.perf_counter()``, which is the system-wide monotonic clock
on Linux, so spans recorded in forked pool workers line up with the
parent's spans.  A worker ships the spans and counters of each point
back on the returned ``RunResult`` (an instance attribute that pickles
with it); in-process points are kept in :attr:`Recorder.points`.

Inside a ``run`` span the event loop dispatches callbacks owned by the
NoC, memory, MSA, runtime and workload modules.  Wrapping every
callback would cost more than the callbacks, so the ``run`` span is
profiled with :mod:`cProfile` and its self time is split across layers
in proportion to the profiler's per-function self time (``tottime``),
each function charged to the module that owns it.  Helpers outside the
layers (``repro.common``, builtins such as ``heapq.heappush``) are
charged to their callers' layers.
"""

from __future__ import annotations

import cProfile
import os
import resource
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import PurePath
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Layers of the simulation proper, named after the ``repro``
#: sub-packages that own them; ``Machine.run`` time is split over these.
SIM_LAYERS = ("sim", "noc", "mem", "msa", "runtime", "workloads")

#: Attribute a pool worker hangs its point payload on.
PAYLOAD_ATTR = "_perfbench_payload"

#: Job-store methods traced as ``resilience`` spans.
STORE_METHODS = (
    "enqueue", "requeue", "claim", "claim_key", "heartbeat", "mark_done",
    "mark_failed", "release_owner", "reclaim_expired", "get", "rows",
    "statuses", "open_jobs", "counters", "close",
)

#: Machine counters a traced point reports, by ``stat_sets`` prefix.
COUNTERS = (
    "noc.messages_sent", "noc.link_stall_cycles",
    "l1.hits", "l1.misses",
    "msa.ops_hw", "msa.ops_sw", "msa.omu_increments", "msa.omu_decrements",
    "futex.waits", "futex.threads_woken",
)


def point_id(config: str, workload: str, cores: int, seed: int,
             params=None, faults: bool = False) -> str:
    """``config:workload:cores:sSEED``, plus the sorted machine-parameter
    overrides and a ``:faults`` tag for points that carry them."""
    pid = f"{config}:{workload}:{cores}:s{seed}"
    if params:
        pid += ":" + ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return pid + (":faults" if faults else "")


@dataclass
class Span:
    sid: Tuple[int, int]
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[Tuple[int, int]]
    point: Optional[str]
    split: Optional[Dict[str, float]] = None
    """Profiler self time per layer (``run`` spans only)."""

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict:
        return {
            "id": list(self.sid), "name": self.name, "layer": self.layer,
            "start": self.start, "end": self.end,
            "parent": list(self.parent) if self.parent else None,
            "point": self.point, "split": self.split,
        }


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``
    (which may overlap, e.g. points running in two pool workers)."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[Tuple[int, int], float]:
    """Self time of every span: its duration minus the part of it that
    its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        s.sid: s.duration - covered(s.start, s.end, children.get(s.sid, ()))
        for s in spans
    }


def layer_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Sum self time per layer; a span with a profiler ``split`` hands
    its self time out in the split's proportions."""
    own = self_times(spans)
    out = defaultdict(float)
    for span in spans:
        t = own[span.sid]
        total = sum(span.split.values()) if span.split else 0.0
        if total > 0:
            for layer, part in span.split.items():
                out[layer] += t * part / total
        else:
            out[span.layer] += t
    return dict(out)


def layer_of_file(filename: str) -> Optional[str]:
    """The layer owning a source file, or ``None`` for code outside the
    layers (``repro.common``, ``repro/machine.py``, stdlib, builtins)."""
    parts = PurePath(filename).parts
    if "repro" not in parts:
        return None
    rest = parts[len(parts) - 1 - parts[::-1].index("repro") + 1:]
    if len(rest) < 2:
        return None
    return rest[0] if rest[0] in SIM_LAYERS else None


def profile_split(stats: Dict) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-layer self time and call counts from ``cProfile`` raw stats
    (``{func: (cc, nc, tt, ct, callers)}``).

    A function outside the layers is charged to its callers' layers in
    proportion to the self time it spent under each caller, following
    callers up to a few levels; time with no layer caller is the kernel's
    (the drain loop is what called it).  Returns ``(seconds by layer,
    {"schedule": kernel schedule() calls})``.
    """
    layer = {func: layer_of_file(func[0]) for func in stats}
    memo: Dict = {}

    def shares(func, depth: int) -> Dict[str, float]:
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        weight = sum(entry[2] for entry in callers.values())
        out: Dict[str, float] = defaultdict(float)
        if depth > 4 or weight <= 0:
            out["sim"] = 1.0
        else:
            for caller, entry in callers.items():
                w = entry[2] / weight
                if layer.get(caller):
                    out[layer[caller]] += w
                else:
                    for name, part in shares(caller, depth + 1).items():
                        out[name] += w * part
        memo[func] = dict(out)
        return memo[func]

    seconds: Dict[str, float] = defaultdict(float)
    schedule = 0
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        owner = layer[func]
        if owner:
            seconds[owner] += tt
            if owner == "sim" and func[2] == "schedule":
                schedule += nc
        else:
            for name, part in shares(func, 0).items():
                seconds[name] += tt * part
    return dict(seconds), {"schedule": schedule}


class Recorder:
    """Installs the benchmark's hooks and collects what they record."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.points: Dict[str, Dict] = {}
        self.totals: Counter = Counter()
        """Event, call and machine-counter totals over harvested points."""
        self.child_rss_kb = 0
        """Largest peak RSS a pool worker reported."""
        self._stack: List[Tuple[int, int]] = []
        self._payload: Optional[Dict] = None
        self._next = 0
        self._undo: List[Tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def _open(self) -> Tuple[Tuple[int, int], Optional[Tuple[int, int]]]:
        self._next += 1
        sid = (os.getpid(), self._next)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, layer, start):
        self._stack.pop()
        self.spans.append(
            Span(sid, name, layer, start, time.perf_counter(), parent, self._point_id())
        )

    def _point_id(self) -> Optional[str]:
        return self._payload["id"] if self._payload else None

    def timed(self, name: str, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span (the benchmark's own calls into the
        program, like ``api.sweep`` and ``api.report``)."""
        if not self.traced:
            return fn(*args, **kwargs)
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, parent, name, layer, start)

    def _wrap(self, name: str, layer: str, fn):
        recorder = self

        def wrapper(*args, **kwargs):
            return recorder.timed(name, layer, fn, *args, **kwargs)

        return wrapper

    # -- hooks -----------------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        from repro.harness import jobs
        from repro.machine import Machine

        recorder = self
        execute_spec, machine_run = jobs.execute_spec, Machine.run

        def point(spec, watchdog=None):
            return recorder._point(execute_spec, spec, watchdog)

        # Pool workers receive this function by reference, and resolve
        # the reference in their (forked) copy of the patched module.
        point.__module__, point.__qualname__ = "repro.harness.jobs", "execute_spec"

        def run(machine, *args, **kwargs):
            return recorder._run(machine_run, machine, *args, **kwargs)

        self._patch(jobs, "execute_spec", point)
        self._patch(Machine, "run", run)
        if not self.traced:
            return
        from repro.resilience.store import JobStore

        instantiate, machine_init = jobs._instantiate, Machine.__init__

        def build_workload(factory, cores, scale):
            workload = recorder.timed(
                "build.workload", "workloads", instantiate, factory, cores, scale
            )
            workload.validate = recorder._wrap(
                "validate", "workloads", workload.validate
            )
            return workload

        def build_machine(machine, *args, **kwargs):
            recorder.timed(
                "build.machine", "workloads", machine_init, machine, *args, **kwargs
            )

        self._patch(jobs, "_instantiate", build_workload)
        self._patch(Machine, "__init__", build_machine)
        self._patch(jobs.Engine, "run", self._wrap("engine.run", "harness", jobs.Engine.run))
        for attr in ("get", "put"):
            fn = getattr(jobs.ResultCache, attr)
            self._patch(jobs.ResultCache, attr, self._wrap(f"cache.{attr}", "harness", fn))
        for attr in ("__init__",) + STORE_METHODS:
            fn = JobStore.__dict__[attr]
            self._patch(JobStore, attr, self._wrap(f"store.{attr.strip('_')}", "resilience", fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _point(self, execute_spec, spec, watchdog):
        pid = point_id(
            spec.config, spec.workload, spec.cores, spec.seed,
            spec.params, spec.fault_plan is not None,
        )
        payload = self._payload = {"id": pid, "events": None}
        mark = len(self.spans)
        try:
            result = self.timed("point", "harness", execute_spec, spec, watchdog)
        finally:
            self._payload = None
        if os.getpid() != self.pid:
            # A pool worker: ship this point's spans home on the result.
            payload["spans"] = [s.to_dict() for s in self.spans[mark:]]
            payload["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            del self.spans[mark:]
            result.__dict__[PAYLOAD_ATTR] = payload
        else:
            self.points[pid] = payload
        return result

    def _run(self, machine_run, machine, *args, **kwargs):
        payload = self._payload
        if not self.traced:
            cycles = machine_run(machine, *args, **kwargs)
        else:
            sid, parent = self._open()
            start = time.perf_counter()
            profile = cProfile.Profile(builtins=False)
            profile.enable()
            try:
                cycles = machine_run(machine, *args, **kwargs)
            finally:
                profile.disable()
                end = time.perf_counter()
                self._stack.pop()
            # The tracer's own bookkeeping gets a span of layer "trace",
            # so it is not charged to the harness.
            split, calls, counters = self.timed(
                "bookkeeping", "trace", _digest, profile, machine
            )
            self.spans.append(
                Span(sid, "run", "sim", start, end, parent, self._point_id(), split)
            )
            if payload is not None:
                payload["calls"] = calls
                payload["counters"] = counters
        if payload is not None:
            payload["events"] = machine.sim.events_processed
        return cycles

    def harvest(self, points, seed: int, params=None,
                faults: bool = False) -> Dict[str, Optional[Dict]]:
        """Collect each returned point's payload (``None`` for a point
        served from the cache), keyed by point id.  ``params`` and
        ``faults`` are those of the ``api.sweep`` call that returned
        ``points``."""
        out = {}
        for p in points:
            pid = point_id(p.config, p.workload, p.n_cores, seed, params, faults)
            payload = p.result.__dict__.pop(PAYLOAD_ATTR, None)
            if payload is None:
                payload = self.points.pop(pid, None)
            elif payload.get("spans"):
                self.spans.extend(span_from_dict(d) for d in payload.pop("spans"))
            if payload is not None:
                self.child_rss_kb = max(self.child_rss_kb, payload.get("rss_kb", 0))
                self.totals["events"] += payload["events"] or 0
                self.totals.update(payload.get("calls", {}))
                self.totals.update(payload.get("counters", {}))
            out[pid] = payload
        return out


def _digest(profile: cProfile.Profile, machine):
    profile.create_stats()
    split, calls = profile_split(profile.stats)
    return split, calls, machine_counters(machine)


def span_from_dict(d: Dict) -> Span:
    return Span(
        tuple(d["id"]), d["name"], d["layer"], d["start"], d["end"],
        tuple(d["parent"]) if d["parent"] else None, d["point"], d["split"],
    )


def machine_counters(machine) -> Dict[str, int]:
    """The :data:`COUNTERS` of a finished machine, summed over units."""
    wanted = set(COUNTERS)
    out = dict.fromkeys(COUNTERS, 0)
    issued = 0
    for prefix, stats, _labels in machine.stat_sets():
        for name, value in stats.counters.items():
            key = prefix + name
            if key in wanted:
                out[key] += value
            elif key.startswith("sync.issued."):
                issued += value
    out["sync.issued"] = issued
    return out
