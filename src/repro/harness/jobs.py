"""Parallel experiment engine: fan grid points out across worker
processes, with a content-addressed result cache and resumable sweeps.

The paper's evaluation is an embarrassingly parallel grid -- kernels x
configurations x core counts -- and every figure driver used to walk it
one point at a time in one process.  This module is the execution
substrate they now share:

* :class:`JobSpec` names one grid point (config, workload, cores, scale,
  seed, parameter overrides).  Specs are pure data: a worker process
  rebuilds the machine and workload from the spec alone and re-seeds
  from ``spec.seed``, so a point's :class:`RunResult` is bit-for-bit
  identical whether it ran serially, in a pool, or on a different day.
* :class:`ResultCache` stores finished results on disk keyed by a hash
  of the spec *plus the fully resolved* :class:`MachineParams`, so
  re-running a figure after an unrelated edit is free while any changed
  machine knob (including library defaults) misses cleanly.  Entries
  carry a sha256 of their own payload: a torn write *or any byte flip*
  reads back as a cache miss, never a crash and never a wrong result.
* :class:`SweepManifest` records done/failed points in an append-only
  JSONL ledger (one fsync-friendly line per completion); a killed sweep
  resumes from the manifest -- a truncated trailing line from a
  mid-append kill is repaired in place -- and only runs what is missing.
* :class:`Engine` orchestrates.  With a cache directory it layers a
  durable :class:`repro.resilience.store.JobStore` next to the cache,
  opened on the first cache miss (hits only read the cache), and every
  execution path (serial or a supervised worker pool) claims points
  through expiring leases: workers heartbeat while simulating,
  dead workers' points are reclaimed and retried elsewhere with seeded
  exponential backoff, and a point that keeps failing is quarantined
  with its traceback instead of starving the sweep.  Without a cache it
  falls back to the original in-memory pool.

Environment defaults come from :mod:`repro.common.config`:
``REPRO_WORKERS`` (worker count when ``workers`` is not given; unset
means serial) and ``REPRO_CACHE_DIR`` (cache location when
``cache_dir`` is not given; unset means no cache).
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import pickle
import tempfile
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common import config as repro_config
from repro.common.errors import ConfigError
from repro.common.schema import JOBSPEC_SCHEMA, check_schema
from repro.harness.configs import machine_params
from repro.harness.report import ProgressReporter
from repro.harness.runner import RunResult

#: Bump to invalidate every existing cache entry (schema changes).
#: v3: checksummed entries ({"payload fields"..., "v", "sha256"}).
CACHE_VERSION = 3

DEFAULT_MAX_EVENTS = 50_000_000


# ---------------------------------------------------------------------------
# Job specification
# ---------------------------------------------------------------------------
@dataclass
class JobSpec:
    """One grid point, as pure (picklable, hashable-by-content) data.

    ``workload`` is a registry name (:data:`repro.workloads.kernels.KERNELS`
    or :data:`repro.workloads.microbench.MICROBENCHES`) unless an explicit
    ``factory`` rides along; ``params`` are keyword overrides applied to
    the resolved :class:`MachineParams` (e.g. ``{"n_cores": 16}`` is
    spelled ``cores=16`` instead, but NoC/cache sub-params go here).
    """

    config: str
    workload: str
    cores: int = 16
    scale: float = 1.0
    seed: int = 2015
    params: Dict[str, Any] = field(default_factory=dict)
    max_events: Optional[int] = DEFAULT_MAX_EVENTS
    check: bool = True
    checkers: Tuple[str, ...] = ()
    """Invariant monitors to attach (:data:`repro.verify.MONITORS`
    names); empty disables checking.  Part of the cache key: a checked
    run records its :class:`CheckReport` in the cached result."""

    fault_plan: Any = None
    factory: Optional[Callable] = field(default=None, repr=False, compare=False)
    """Explicit workload factory; optional.  Not part of the cache key
    beyond its dotted name -- prefer registry names for cacheable runs."""

    def describe(self) -> str:
        return f"{self.workload}/{self.config}@{self.cores}"

    def to_wire(self) -> Dict[str, Any]:
        """Pure-data wire form (HTTP submission to ``repro serve``).

        Carries a :data:`~repro.common.schema.JOBSPEC_SCHEMA` stamp and
        only the fields a remote engine can rebuild the point from;
        explicit factories and fault plans are process-local objects and
        are refused rather than lossily encoded.
        """
        if self.fault_plan is not None:
            raise ConfigError(
                "fault_plan does not cross the wire; submit fault "
                "experiments locally or encode the plan as params"
            )
        if self.factory is not None:
            raise ConfigError(
                "explicit workload factories do not cross the wire; "
                "use a registry workload name instead"
            )
        return {
            "schema": JOBSPEC_SCHEMA,
            "config": self.config,
            "workload": self.workload,
            "cores": self.cores,
            "scale": self.scale,
            "seed": self.seed,
            "params": dict(self.params),
            "max_events": self.max_events,
            "check": self.check,
            "checkers": list(self.checkers),
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "JobSpec":
        """Inverse of :meth:`to_wire`.  The schema stamp is checked
        first (unknown majors raise
        :class:`~repro.common.errors.SchemaError`); malformed fields
        raise :class:`ConfigError` naming the offender."""
        if not isinstance(data, dict):
            raise ConfigError(f"job spec payload must be an object, got "
                              f"{type(data).__name__}")
        check_schema(data.get("schema"), JOBSPEC_SCHEMA, what="job spec")
        config = data.get("config")
        workload = data.get("workload")
        if not isinstance(config, str) or not isinstance(workload, str):
            raise ConfigError(
                "job spec needs string 'config' and 'workload' fields"
            )
        params = data.get("params") or {}
        checkers = data.get("checkers") or ()
        if not isinstance(params, dict):
            raise ConfigError("job spec 'params' must be an object")
        if not all(isinstance(c, str) for c in checkers):
            raise ConfigError("job spec 'checkers' must be monitor names")
        try:
            max_events = data.get("max_events", DEFAULT_MAX_EVENTS)
            return cls(
                config=config,
                workload=workload,
                cores=int(data.get("cores", 16)),
                scale=float(data.get("scale", 1.0)),
                seed=int(data.get("seed", 2015)),
                params=dict(params),
                max_events=None if max_events is None else int(max_events),
                check=bool(data.get("check", True)),
                checkers=tuple(checkers),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed job spec field: {exc}") from None

    def resolved_params(self):
        """The final (MachineParams, library) this spec will run with.

        ``params`` entries may be top-level :class:`MachineParams`
        fields (dataclass values) or dotted scalar paths like
        ``"msa.entries_per_tile"`` -- the dotted form is pure JSON, so
        such specs cross the service wire and cache cleanly (this is
        what :mod:`repro.dse` design points use).
        """
        params, library = machine_params(
            self.config, n_cores=self.cores, seed=self.seed
        )
        if self.params:
            params = params.with_overrides(self.params)
        return params, library

    def key(self) -> str:
        """Content-addressed cache key.

        Hashes the spec fields *and* the fully resolved machine
        parameters, so a change to any default (in code) or any override
        (in the spec) invalidates exactly the affected points.
        """
        params, library = self.resolved_params()
        payload = {
            "v": CACHE_VERSION,
            "config": self.config,
            "workload": self.workload,
            "factory": _factory_fingerprint(self.factory),
            "cores": self.cores,
            "scale": self.scale,
            "seed": self.seed,
            "max_events": self.max_events,
            "check": self.check,
            "checkers": list(self.checkers),
            "library": library,
            "machine": params.to_dict(),
            "fault_plan": (
                asdict(self.fault_plan) if self.fault_plan is not None else None
            ),
        }
        blob = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()


def _factory_fingerprint(factory: Optional[Callable]) -> Optional[str]:
    if factory is None:
        return None
    module = getattr(factory, "__module__", "?")
    qualname = getattr(factory, "__qualname__", repr(factory))
    return f"{module}.{qualname}"


def resolve_factory(name: str) -> Callable:
    """Look a workload name up in the kernel, microbench, and traffic
    registries."""
    from repro.workloads.kernels import KERNELS
    from repro.workloads import microbench
    from repro.traffic.workload import TRAFFIC

    if name in KERNELS:
        return KERNELS[name]
    if name in microbench.MICROBENCHES:
        return microbench.MICROBENCHES[name]
    if name in TRAFFIC:
        return TRAFFIC[name]
    raise ConfigError(
        f"unknown workload {name!r}; expected one of "
        f"{sorted(KERNELS) + sorted(microbench.MICROBENCHES) + sorted(TRAFFIC)}"
    )


def _instantiate(factory: Callable, cores: int, scale: float):
    """Call a workload factory, passing ``scale`` only if it declares a
    parameter of that name (kernels do, the latency microbenches take
    ``iters``/``episodes`` knobs instead)."""
    try:
        sig = inspect.signature(factory)
        takes_scale = "scale" in sig.parameters or any(
            p.kind is inspect.Parameter.VAR_KEYWORD
            for p in sig.parameters.values()
        )
    except (TypeError, ValueError):
        takes_scale = True
    return factory(cores, scale=scale) if takes_scale else factory(cores)


def execute_spec(spec: JobSpec, watchdog=None) -> RunResult:
    """Run one grid point to completion in *this* process.

    This is the worker entry point: everything is rebuilt from the spec
    (machine, RNG streams, workload), so no state leaks between points
    and parallel results match serial ones bit for bit.

    ``watchdog`` optionally supervises the run (a
    :class:`repro.resilience.watchdog.Watchdog`); the drained event
    order -- and therefore the result -- is identical either way.
    """
    from repro.harness.runner import run_workload
    from repro.machine import Machine

    params, library = spec.resolved_params()
    machine = Machine(params, library=library, fault_plan=spec.fault_plan)
    factory = spec.factory if spec.factory is not None else resolve_factory(
        spec.workload
    )
    workload = _instantiate(factory, spec.cores, spec.scale)
    return run_workload(
        machine,
        workload,
        max_events=spec.max_events,
        check=spec.check,
        config=spec.config,
        checkers=spec.checkers,
        watchdog=watchdog,
    )


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------
def entry_checksum(data: Dict[str, Any]) -> str:
    """sha256 over an entry's canonical payload (everything except the
    ``sha256`` field itself, compact-serialized with sorted keys).  A
    byte flip anywhere in the stored payload -- even one that leaves
    the JSON parseable -- changes this digest."""
    body = {k: v for k, v in data.items() if k != "sha256"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """Content-addressed on-disk cache of serialized :class:`RunResult`.

    Layout: ``<root>/<key[:2]>/<key>.json`` holding the spec summary
    (for humans), the result, the cache version, and a sha256 of the
    whole payload.  Writes are atomic (temp file + rename) so a killed
    sweep never leaves a torn entry behind; reads verify the checksum
    and the key, so *any* corruption -- truncation, byte flips, a file
    renamed to the wrong key -- is a cache miss (counted in
    :attr:`corrupt`), never an exception and never a wrong result.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        """Entries rejected by checksum/decode validation (each also
        counts as a miss)."""

        self.put_hook: Optional[Callable[[], None]] = None
        """Test/chaos seam: called before every write; may raise (e.g.
        a simulated ``ENOSPC``) to fail the put."""

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[RunResult]:
        path = self.path(key)
        try:
            data = json.loads(path.read_text())
        except OSError:
            self.misses += 1
            return None
        except ValueError:
            self.misses += 1
            self.corrupt += 1
            return None
        try:
            if (
                not isinstance(data, dict)
                or data.get("v") != CACHE_VERSION
                or data.get("key") != key
                or entry_checksum(data) != data.get("sha256")
            ):
                raise ValueError("corrupt or stale cache entry")
            result = RunResult.from_dict(data["result"])
        except Exception:
            # Corrupt means miss, never crash: byte flips can rename
            # required keys or retype values, so *anything* the decode
            # raises lands here.
            self.misses += 1
            self.corrupt += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, spec: JobSpec, result: RunResult) -> None:
        if self.put_hook is not None:
            self.put_hook()
        path = self.path(key)
        payload = {
            "key": key,
            "v": CACHE_VERSION,
            "spec": {
                "config": spec.config,
                "workload": spec.workload,
                "cores": spec.cores,
                "scale": spec.scale,
                "seed": spec.seed,
            },
            "result": result.to_dict(),
        }
        payload["sha256"] = entry_checksum(payload)
        _atomic_write_json(path, payload)

    def entries(self):
        """Iterate every healthy cache entry as ``(spec_summary,
        RunResult)`` pairs, in deterministic (key-sorted) order.

        The spec summary is the human-readable dict stored by
        :meth:`put` (config/workload/cores/scale/seed).  This is the
        read path for report-from-cache (``python -m repro report``):
        it never simulates, it only deserializes what finished sweeps
        left behind.  Torn, corrupt (checksum-mismatched), stale, or
        foreign files are skipped -- ``python -m repro fsck`` reports
        and evicts them.
        """
        for path in sorted(self.root.glob("*/*.json")):
            try:
                data = json.loads(path.read_text())
                if (
                    data.get("v") != CACHE_VERSION
                    or data.get("key") != path.stem
                    or entry_checksum(data) != data.get("sha256")
                ):
                    continue
                spec = data["spec"]
                result = RunResult.from_dict(data["result"])
            except Exception:
                continue
            yield spec, result


def _atomic_write_json(path: Path, payload) -> None:
    _atomic_write_text(path, json.dumps(payload, sort_keys=True))


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, str(path))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# Sweep manifest (resume support)
# ---------------------------------------------------------------------------
def repair_manifest_tail(path: Path, write: bool = True) -> int:
    """Drop unparseable lines from a JSONL manifest (the torn trailing
    line a mid-append kill leaves behind).  Returns how many lines were
    dropped; with ``write``, the file is rewritten in place (atomic)
    without them and a warning is emitted.  Missing files are fine."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return 0
    good, dropped = [], 0
    for line in lines:
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
            if not isinstance(entry, dict) or "key" not in entry:
                raise ValueError("not a manifest record")
        except ValueError:
            dropped += 1
            continue
        good.append(line)
    if dropped and write:
        warnings.warn(
            f"sweep manifest {path} had {dropped} torn/unparseable "
            "line(s) (likely a kill mid-append); repaired in place -- "
            "the affected points will simply re-run",
            RuntimeWarning,
            stacklevel=2,
        )
        _atomic_write_text(path, "".join(line + "\n" for line in good))
    return dropped


class SweepManifest:
    """Done/failed ledger for a sweep: one JSON line appended per
    completion.

    Append-only JSONL keeps the durability write O(1) per point (the
    old format rewrote the whole document every completion) and makes
    the failure mode of a kill-mid-write benign: at most the last line
    is torn, and loading repairs the file in place (with a warning)
    instead of throwing the whole ledger away.  Later lines for the
    same key supersede earlier ones, so retries and resumed sweeps
    just append.

    Restarting the same sweep with the same manifest path skips every
    point recorded ``done`` whose cached result is still readable and
    re-runs the rest (pending *and* failed), so a crashed or killed
    sweep loses at most the in-flight points.  Legacy whole-JSON
    manifests (pre-v3) load transparently and are upgraded on the next
    :meth:`save`.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.entries: Dict[str, Dict[str, Any]] = {}
        self._load()

    def _load(self) -> None:
        try:
            text = self.path.read_text()
        except OSError:
            return
        stripped = text.lstrip()
        if stripped.startswith("{") and '"points"' in stripped:
            # Legacy single-document format.
            try:
                self.entries = json.loads(text).get("points", {})
                return
            except ValueError:
                pass  # torn legacy file: fall through to line parsing
        repair_manifest_tail(self.path, write=True)
        for line in self.path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                key = entry.pop("key")
            except (ValueError, KeyError, AttributeError, TypeError):
                continue
            if isinstance(entry, dict) and "status" in entry:
                self.entries[key] = entry

    def status(self, key: str) -> Optional[str]:
        entry = self.entries.get(key)
        return entry["status"] if entry else None

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for entry in self.entries.values():
            out[entry["status"]] = out.get(entry["status"], 0) + 1
        return out

    def record(
        self,
        key: str,
        spec: JobSpec,
        status: str,
        attempts: int,
        error: Optional[str] = None,
    ) -> None:
        entry = {
            "spec": spec.describe(),
            "status": status,
            "attempts": attempts,
            "error": error,
        }
        self.entries[key] = entry
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as f:
            f.write(json.dumps({"key": key, **entry}, sort_keys=True) + "\n")

    def save(self) -> None:
        """Compact the ledger: atomically rewrite one line per key (the
        engine calls this once per run; appends stay O(1))."""
        body = "".join(
            json.dumps({"key": key, **entry}, sort_keys=True) + "\n"
            for key, entry in sorted(self.entries.items())
        )
        _atomic_write_text(self.path, body)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------
@dataclass
class EngineStats:
    """What one :meth:`Engine.run` did with its grid."""

    total: int = 0
    cache_hits: int = 0
    resumed: int = 0
    executed: int = 0
    retried: int = 0
    failed: int = 0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    def describe(self) -> str:
        return (
            f"{self.total} points: {self.cache_hits} cached "
            f"({self.resumed} via manifest), {self.executed} ran, "
            f"{self.retried} retried, {self.failed} failed"
        )


@dataclass
class JobResult:
    """Outcome of one grid point (result *or* error, never silently lost)."""

    spec: JobSpec
    key: str
    result: Optional[RunResult] = None
    cached: bool = False
    resumed: bool = False
    attempts: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.result is not None


class Engine:
    """Run a batch of :class:`JobSpec` with caching, pooling, retries.

    ``workers``: process count; ``None`` reads ``REPRO_WORKERS``, and a
    value <= 1 runs in-process.  ``cache_dir``: result-cache root;
    ``None`` reads ``REPRO_CACHE_DIR``, empty means no caching.
    ``manifest``: path of a :class:`SweepManifest` for resumable runs.
    ``retries``: extra attempts for a crashed/errored point (default 1).
    ``progress``: ``True`` for stderr progress lines, or a
    :class:`ProgressReporter`-compatible object.

    With a cache directory, execution runs through the durable
    :class:`repro.resilience.store.JobStore` living at
    ``<cache_dir>/jobs.sqlite3``, which the engine opens on the first
    cache miss -- a run served entirely from the cache never touches
    it (:meth:`resilience_counters` opens it on demand).  Points are
    claimed via expiring leases (``lease_s``), failed attempts back off
    with deterministic seeded jitter (``seed``), a point failing
    ``retries + 1`` times is quarantined with its traceback, and
    ``point_timeout_s`` arms a per-point
    :class:`repro.resilience.watchdog.Watchdog`.  Several
    engines -- across processes or hosts sharing the cache directory --
    can run the same grid concurrently and split the work.  ``chaos``
    (a :class:`repro.resilience.supervise.ChaosPlan`) is the harness
    chaos seam; leave it ``None`` outside ``repro chaos-harness``.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir=None,
        manifest=None,
        retries: int = 1,
        progress=False,
        lease_s: float = 30.0,
        point_timeout_s: Optional[float] = None,
        seed: int = 0,
        chaos=None,
    ):
        workers = repro_config.workers(workers)
        self.workers = max(1, workers if workers is not None else 1)
        cache_dir = repro_config.cache_dir(cache_dir)
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.manifest = SweepManifest(manifest) if manifest else None
        self.retries = retries
        self.progress = progress
        self.lease_s = lease_s
        self.point_timeout_s = point_timeout_s
        self.seed = seed
        self.chaos = chaos
        self.stats = EngineStats()
        self.pool_stats: Dict[str, int] = {}
        self.store = None
        """The job store, once :meth:`_open_store` has opened it."""

    # -- public API ----------------------------------------------------
    def run(self, specs: Sequence[JobSpec]) -> List[JobResult]:
        """Run every spec; returns one :class:`JobResult` per spec, in
        input order.  Failures are reported in the results (and the
        manifest), not raised -- callers that need all points decide
        what a hole means."""
        stats = self.stats = EngineStats(total=len(specs))
        results: List[Optional[JobResult]] = [None] * len(specs)
        reporter = self._reporter(len(specs))

        pending: List[Tuple[int, JobSpec, str]] = []
        for index, spec in enumerate(specs):
            key = spec.key()
            job = self._from_cache(spec, key)
            if job is not None:
                stats.cache_hits += 1
                if job.resumed:
                    stats.resumed += 1
                results[index] = job
                self._report(reporter, job)
            else:
                pending.append((index, spec, key))

        if pending:
            if self._open_store() is not None:
                self._run_supervised(pending, results, reporter)
            elif self.workers > 1 and len(pending) > 1:
                self._run_parallel(pending, results, reporter)
            else:
                self._run_serial(pending, results, reporter)
        if self.manifest is not None and pending:
            self.manifest.save()  # compact the append-only ledger
        return [job for job in results if job is not None]

    def resilience_counters(self) -> Dict[str, int]:
        """Durability/supervision counters for :mod:`repro.obs` export:
        job-store lifetime transitions plus cache hit/miss/corrupt
        totals (empty when the engine runs without a cache)."""
        out: Dict[str, int] = {}
        if self._open_store() is not None:
            out.update(self.store.counters())
        if self.cache is not None:
            out["cache_hits"] = self.cache.hits
            out["cache_misses"] = self.cache.misses
            out["cache_corrupt"] = self.cache.corrupt
        for name, value in self.pool_stats.items():
            out[f"pool_{name}"] = value
        return out

    def _open_store(self):
        """Open the job store on first use: a run served entirely from
        the cache never touches SQLite.  ``None`` without a cache."""
        if self.store is None and self.cache is not None:
            try:
                from repro.resilience.store import (
                    JobStore,
                    default_store_path,
                )

                self.store = JobStore(
                    default_store_path(self.cache.root),
                    lease_s=self.lease_s,
                    quarantine_after=self.retries + 1,
                )
            except Exception:
                # A read-only cache mount (or a hostile sqlite build)
                # must not take caching down with it; the legacy
                # in-memory paths still work.
                self.store = None
        return self.store

    # -- cache/manifest plumbing ---------------------------------------
    def _from_cache(self, spec: JobSpec, key: str) -> Optional[JobResult]:
        if self.cache is None:
            return None
        result = self.cache.get(key)
        if result is None:
            return None
        resumed = (
            self.manifest is not None and self.manifest.status(key) == "done"
        )
        return JobResult(
            spec=spec, key=key, result=result, cached=True, resumed=resumed
        )

    def _complete(
        self,
        index: int,
        spec: JobSpec,
        key: str,
        result: Optional[RunResult],
        attempts: int,
        error: Optional[str],
        results: List[Optional[JobResult]],
        reporter,
    ) -> None:
        job = JobResult(
            spec=spec, key=key, result=result, attempts=attempts, error=error
        )
        if result is not None:
            self.stats.executed += 1
            if self.cache is not None:
                self.cache.put(key, spec, result)
        else:
            self.stats.failed += 1
        if self.manifest is not None:
            self.manifest.record(
                key,
                spec,
                "done" if result is not None else "failed",
                attempts,
                error,
            )
        results[index] = job
        self._report(reporter, job)

    # -- execution backends --------------------------------------------
    def _run_serial(self, pending, results, reporter) -> None:
        for index, spec, key in pending:
            result, attempts, error = self._attempt_serial(spec)
            self._complete(
                index, spec, key, result, attempts, error, results, reporter
            )

    def _attempt_serial(self, spec: JobSpec):
        error = None
        for attempt in range(1, self.retries + 2):
            try:
                return execute_spec(spec), attempt, None
            except Exception as exc:  # SimulationError, workload bugs, ...
                error = f"{type(exc).__name__}: {exc}"
                if attempt <= self.retries:
                    self.stats.retried += 1
        return None, self.retries + 1, error

    # -- supervised (durable-store) backend ----------------------------
    def _run_supervised(self, pending, results, reporter) -> None:
        """Execute through the job store: enqueue every point, claim by
        lease (in-process, or via a supervised worker pool), then
        collect outcomes from store + cache.  Crash-safe at every step:
        a worker dying mid-point just stops heartbeating and the point
        is reclaimed; a torn cache entry re-runs in the parent."""
        from repro.resilience.supervise import WorkerLoop, WorkerPool

        store = self.store
        specs_by_key: Dict[str, JobSpec] = {}
        keys: List[str] = []
        picklable: Dict[str, bool] = {}
        for _index, spec, key in pending:
            specs_by_key[key] = spec
            keys.append(key)
            try:
                blob = pickle.dumps(spec)
            except Exception:
                blob = None
            picklable[key] = blob is not None
            store.enqueue(key, spec.describe(), blob)
        before = store.counters()
        recorded = set()

        def on_terminal(key, row):
            if row is None or not row.terminal or key in recorded:
                return
            recorded.add(key)
            spec = specs_by_key[key]
            if self.manifest is not None:
                self.manifest.record(
                    key,
                    spec,
                    "done" if row.status == "done" else "failed",
                    row.attempts,
                    row.error,
                )
            if reporter is not None:
                reporter.update(
                    spec.describe(), failed=row.status != "done"
                )

        def in_process_loop(loop_keys):
            return WorkerLoop(
                store,
                self.cache,
                keys=loop_keys,
                specs_by_key=specs_by_key,
                seed=self.seed,
                point_timeout_s=self.point_timeout_s,
                on_complete=on_terminal,
            )

        remote = [k for k in keys if picklable[k]]
        local = [k for k in keys if not picklable[k]]
        if self.workers > 1 and len(remote) > 1:
            if local:
                in_process_loop(local).drain()
            pool = WorkerPool(
                store,
                self.cache.root,
                workers=self.workers,
                lease_s=self.lease_s,
                quarantine_after=self.retries + 1,
                seed=self.seed,
                point_timeout_s=self.point_timeout_s,
                chaos=self.chaos,
                on_terminal=on_terminal,
            )
            pool.run(remote)
            self.pool_stats = {
                "kills": pool.kills,
                "restarts": pool.restarts,
                "corruptions": pool.corruptions,
            }
            if store.open_jobs(keys):
                # Restart budget exhausted with work left: the parent
                # finishes the remainder itself.  Points are never lost.
                in_process_loop(keys).drain()
        else:
            in_process_loop(keys).drain()

        after = store.counters()
        self.stats.retried += (
            (after["retries"] - before["retries"])
            + (after["leases_expired"] - before["leases_expired"])
            + (after["leases_released"] - before["leases_released"])
        )
        self._collect_supervised(pending, results, on_terminal)

    def _collect_supervised(self, pending, results, on_terminal) -> None:
        """Turn store rows + cache entries into ordered JobResults.  A
        row marked done whose cache entry is unreadable (corruption
        after completion) deterministically re-runs here, in-parent."""
        store = self.store
        for index, spec, key in pending:
            row = store.get(key)
            attempts = row.attempts if row is not None else 0
            error = row.error if row is not None else None
            result = self.cache.get(key)
            if result is None and (row is None or row.status == "done"):
                try:
                    result = execute_spec(spec)
                    self.cache.put(key, spec, result)
                    store.mark_done(key)
                    row = store.get(key)
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
            if result is not None:
                self.stats.executed += 1
                error = None
            else:
                self.stats.failed += 1
            on_terminal(key, row)
            results[index] = JobResult(
                spec=spec,
                key=key,
                result=result,
                attempts=attempts,
                error=error,
            )

    def _run_parallel(self, pending, results, reporter) -> None:
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

        # Specs that cannot cross a process boundary (closure/lambda
        # factories) run in the parent instead of poisoning the pool.
        local, remote = [], []
        for item in pending:
            try:
                pickle.dumps(item[1])
                remote.append(item)
            except Exception:
                local.append(item)

        leftovers = list(local)
        try:
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                futures = {
                    pool.submit(execute_spec, spec): (index, spec, key, 1)
                    for index, spec, key in remote
                }
                while futures:
                    done, _ = wait(futures, return_when=FIRST_COMPLETED)
                    for fut in done:
                        index, spec, key, attempt = futures.pop(fut)
                        exc = fut.exception()
                        if exc is None:
                            self._complete(
                                index, spec, key, fut.result(), attempt,
                                None, results, reporter,
                            )
                        elif isinstance(exc, BrokenProcessPool):
                            raise exc
                        elif attempt <= self.retries:
                            self.stats.retried += 1
                            futures[pool.submit(execute_spec, spec)] = (
                                index, spec, key, attempt + 1,
                            )
                        else:
                            self._complete(
                                index, spec, key, None, attempt,
                                f"{type(exc).__name__}: {exc}",
                                results, reporter,
                            )
        except BrokenProcessPool:
            # A worker died hard (OOM, signal).  Finish what the pool
            # did not, one retry each, in-process -- points must be
            # reported, never lost.
            leftovers += [
                item for item in remote
                if results[item[0]] is None
            ]
        self._run_serial(
            [item for item in leftovers if results[item[0]] is None],
            results,
            reporter,
        )

    # -- progress -------------------------------------------------------
    def _reporter(self, total: int):
        if self.progress is True:
            return ProgressReporter(total)
        if self.progress:
            return self.progress
        return None

    def _report(self, reporter, job: JobResult) -> None:
        if reporter is not None:
            reporter.update(
                job.spec.describe(), cached=job.cached, failed=not job.ok
            )


def run_jobs(
    specs: Sequence[JobSpec],
    workers: Optional[int] = None,
    cache_dir=None,
    manifest=None,
    retries: int = 1,
    progress=False,
) -> List[JobResult]:
    """One-shot convenience wrapper around :class:`Engine`."""
    return Engine(
        workers=workers,
        cache_dir=cache_dir,
        manifest=manifest,
        retries=retries,
        progress=progress,
    ).run(specs)
