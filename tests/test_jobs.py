"""Tests for the parallel experiment engine (:mod:`repro.harness.jobs`):
spec hashing, the result cache, determinism of parallel vs serial
execution, retry handling, and manifest-based resume."""

import json

import pytest

from repro.common.errors import ConfigError
from repro.common.params import MachineParams, OMUParams
from repro.harness.jobs import (
    CACHE_VERSION,
    Engine,
    JobSpec,
    ResultCache,
    SweepManifest,
    execute_spec,
    resolve_factory,
    run_jobs,
)
from repro.harness.runner import RunResult
from repro.workloads.kernels import KERNELS

SPEC = dict(config="pthread", workload="canneal", cores=16, scale=0.25, seed=7)


def spec(**over):
    return JobSpec(**{**SPEC, **over})


# A module-level factory that always fails (picklable, so it exercises
# the pool's failure path too).
def _always_fail(n, scale=1.0):
    raise RuntimeError("synthetic workload failure")


class TestJobSpec:
    def test_key_is_deterministic(self):
        assert spec().key() == spec().key()

    def test_key_covers_every_grid_axis(self):
        base = spec().key()
        assert spec(config="msa-omu-2").key() != base
        assert spec(workload="swaptions").key() != base
        assert spec(cores=64).key() != base
        assert spec(scale=0.5).key() != base
        assert spec(seed=8).key() != base
        assert spec(max_events=1000).key() != base

    def test_key_covers_machine_param_overrides(self):
        base = spec(config="msa-omu-2")
        tweaked = spec(
            config="msa-omu-2", params={"omu": OMUParams(n_counters=2)}
        )
        assert base.key() != tweaked.key()

    def test_key_covers_machine_defaults(self):
        """The key hashes the *resolved* MachineParams, so editing a
        default in code invalidates cached results."""
        params, _ = spec().resolved_params()
        assert isinstance(params, MachineParams)
        assert params.stable_hash() != params.with_(seed=99).stable_hash()

    def test_resolve_factory_kernels_and_microbenches(self):
        assert resolve_factory("canneal") is KERNELS["canneal"]
        assert resolve_factory("LockAcquire") is not None
        with pytest.raises(ConfigError):
            resolve_factory("not-a-workload")

    def test_describe(self):
        assert spec().describe() == "canneal/pthread@16"

    # Exact keys: every user's result cache is addressed by these
    # digests, so a change that moves one silently invalidates them all.
    # A deliberate change bumps CACHE_VERSION and re-pins.
    PINNED_KEYS = {
        "plain": (
            {},
            "ef55e1e3bc8d08682fb85bb92a40896f3a76d33eff623be1db1058a536874f1f",
        ),
        "dotted-params": (
            {
                "config": "msa-omu-2",
                "params": {"msa.entries_per_tile": 4, "omu.n_counters": 8},
            },
            "66e2b215293c0277436809c1cb43e6e1557cd272b10c508bcc27fa74d8a86905",
        ),
        "checkers": (
            {"config": "msa-omu-2", "checkers": ("mutex", "barrier")},
            "f7b5ff8b9174382b9d0fbf2321ec6cd12ea7e30b1ee042a974e4042b09773c97",
        ),
        "fault-plan": (
            {"config": "msa-omu-2", "fault_plan": "drop"},
            "898b53871b85fff96fee90b0237417c4316f4cd43694676c0c50317c80b668d1",
        ),
        "microbench": (
            {
                "config": "msa-omu-2", "workload": "LockAcquire",
                "scale": 1.0, "seed": 2015,
            },
            "f6cd30357978948ade92a16cfc3828585ab3589c50e2310f27cfa1a4ffd8562d",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_KEYS))
    def test_key_values_are_pinned(self, name):
        from repro.faults.plan import drop_plan

        over, expected = self.PINNED_KEYS[name]
        if over.get("fault_plan") == "drop":
            over = {**over, "fault_plan": drop_plan(0.02, seed=3)}
        assert CACHE_VERSION == 3
        assert spec(**over).key() == expected

    def test_to_dict_matches_asdict(self):
        from dataclasses import asdict

        from repro.harness.configs import CONFIG_NAMES, machine_params

        for config in CONFIG_NAMES:
            params, _ = machine_params(config, n_cores=16, seed=3)
            params = params.with_overrides({"noc.link_latency": 2})
            assert params.to_dict() == asdict(params)


class TestExecuteSpec:
    def test_deterministic_rerun(self):
        a = execute_spec(spec())
        b = execute_spec(spec())
        assert a == b
        assert a.to_json() == b.to_json()

    def test_param_overrides_take_effect(self):
        plain = execute_spec(spec(config="msa-omu-2"))
        tweaked = execute_spec(
            spec(config="msa-omu-2", params={"omu": OMUParams(enabled=False)})
        )
        assert plain.cycles > 0 and tweaked.cycles > 0
        # Not asserting an ordering, only that the knob was actually
        # threaded through to the machine (different counters).
        assert (
            plain.msa_counters != tweaked.msa_counters
            or plain.cycles != tweaked.cycles
        )

    def test_microbench_spec(self):
        result = execute_spec(
            JobSpec(config="pthread", workload="LockAcquire", cores=4)
        )
        assert result.workload_metrics["lock_acquire_cycles"] > 0


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = spec().key()
        assert cache.get(key) is None
        result = execute_spec(spec())
        cache.put(key, spec(), result)
        hit = cache.get(key)
        assert hit == result
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = spec().key()
        cache.put(key, spec(), execute_spec(spec()))
        cache.path(key).write_text("{torn write")
        assert cache.get(key) is None


class TestEngineSerial:
    def test_runs_and_counts(self, tmp_path):
        engine = Engine(workers=1, cache_dir=tmp_path)
        jobs = engine.run([spec(), spec(workload="swaptions")])
        assert all(j.ok for j in jobs)
        assert engine.stats.executed == 2
        assert engine.stats.cache_hits == 0

    def test_second_run_fully_cached(self, tmp_path):
        Engine(workers=1, cache_dir=tmp_path).run([spec()])
        engine = Engine(workers=1, cache_dir=tmp_path)
        jobs = engine.run([spec()])
        assert engine.stats.cache_hits == 1 and engine.stats.executed == 0
        assert jobs[0].cached
        assert jobs[0].result == execute_spec(spec())

    def test_failure_reported_not_raised(self):
        engine = Engine(workers=1)
        bad = spec(workload="broken", factory=_always_fail)
        jobs = engine.run([bad, spec()])
        assert not jobs[0].ok
        assert "synthetic workload failure" in jobs[0].error
        assert jobs[0].attempts == 2  # one retry
        assert jobs[1].ok
        assert engine.stats.failed == 1 and engine.stats.retried == 1

    def test_retry_recovers_flaky_point(self, tmp_path):
        marker = tmp_path / "tried"

        def flaky(n, scale=1.0):
            if not marker.exists():
                marker.write_text("x")
                raise RuntimeError("first attempt dies")
            return KERNELS["canneal"](n, scale)

        engine = Engine(workers=1)
        jobs = engine.run([spec(workload="flaky", factory=flaky)])
        assert jobs[0].ok and jobs[0].attempts == 2
        assert engine.stats.retried == 1 and engine.stats.failed == 0


class TestWarmPath:
    """A sweep served from the cache reads the cache and nothing else;
    a miss still goes through the job store."""

    GRID = dict(configs=["pthread"], workloads="canneal", cores=(4,),
                scale=0.1, seed=7)

    def test_all_hit_sweep_opens_no_store(self, tmp_path, monkeypatch):
        import sqlite3

        from repro import api
        from repro.resilience.store import default_store_path

        cold, stats = api.sweep(**self.GRID, cache_dir=tmp_path,
                                return_stats=True)
        assert stats.executed == 1
        default_store_path(tmp_path).unlink()
        connects = []
        real_connect = sqlite3.connect
        monkeypatch.setattr(
            sqlite3, "connect",
            lambda *a, **kw: connects.append(a) or real_connect(*a, **kw),
        )
        warm, stats = api.sweep(**self.GRID, cache_dir=tmp_path,
                                return_stats=True)
        assert stats.cache_hits == 1 and stats.executed == 0
        assert connects == []
        assert not default_store_path(tmp_path).exists()
        assert [p.result for p in warm] == [p.result for p in cold]

    def test_one_miss_goes_through_the_store(self, tmp_path):
        engine = Engine(workers=1, cache_dir=tmp_path)
        assert engine.store is None
        jobs = engine.run([spec(cores=4, scale=0.1)])
        assert jobs[0].ok and engine.stats.executed == 1
        counters = engine.resilience_counters()
        assert counters["enqueued"] == 1
        assert counters["leases_granted"] == 1
        assert counters["done"] == 1
        assert counters["jobs_done"] == 1

    def test_cold_sweep_enqueues_in_one_transaction(self, tmp_path, monkeypatch):
        import sys

        from repro.resilience.store import JobStore

        callers = []
        real = JobStore._transaction

        def counting(self):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(self)

        monkeypatch.setattr(JobStore, "_transaction", counting)
        engine = Engine(workers=1, cache_dir=tmp_path)
        jobs = engine.run(
            [spec(cores=4, scale=0.1, workload=w)
             for w in ("canneal", "swaptions", "streamcluster")]
        )
        assert all(j.ok for j in jobs) and engine.stats.executed == 3
        assert callers.count("enqueue_many") == 1
        assert "enqueue" not in callers
        assert engine.resilience_counters()["enqueued"] == 3

    def test_run_reads_lifetime_counters_only(self, tmp_path, monkeypatch):
        from repro.resilience.store import JobStore

        statements = []
        real_open = JobStore._open

        def traced_open(self):
            db = real_open(self)
            db.set_trace_callback(statements.append)
            return db

        monkeypatch.setattr(JobStore, "_open", traced_open)
        marker = tmp_path / "tried"

        def flaky(n, scale=1.0):
            if not marker.exists():
                marker.write_text("x")
                raise RuntimeError("first attempt dies")
            return KERNELS["canneal"](n, scale)

        engine = Engine(workers=1, cache_dir=tmp_path / "cache")
        jobs = engine.run(
            [spec(cores=4, scale=0.1, workload="flaky", factory=flaky)]
        )
        assert jobs[0].ok and jobs[0].attempts == 2
        assert engine.stats.retried == 1 and engine.stats.failed == 0
        assert statements, "the run went through the job store"
        assert not [s for s in statements if "GROUP BY" in s.upper()]

    def test_counters_open_the_store_on_demand(self, tmp_path):
        Engine(workers=1, cache_dir=tmp_path).run([spec(cores=4, scale=0.1)])
        engine = Engine(workers=1, cache_dir=tmp_path)
        engine.run([spec(cores=4, scale=0.1)])
        assert engine.store is None
        counters = engine.resilience_counters()
        assert counters["done"] == 1 and counters["cache_hits"] == 1


class TestEngineParallel:
    GRID = [
        dict(workload=w, config=c)
        for w in ("canneal", "swaptions")
        for c in ("pthread", "msa-omu-2")
    ]

    def test_parallel_matches_serial_bit_for_bit(self, tmp_path):
        serial = [execute_spec(spec(**g)) for g in self.GRID]
        engine = Engine(workers=4, cache_dir=tmp_path / "cache")
        jobs = engine.run([spec(**g) for g in self.GRID])
        assert engine.stats.executed == len(self.GRID)
        assert [j.result.to_json() for j in jobs] == [
            r.to_json() for r in serial
        ]

    def test_unpicklable_factory_falls_back_in_process(self):
        captured = []

        def local_factory(n, scale=1.0):  # closure: not picklable
            captured.append(n)
            return KERNELS["canneal"](n, scale)

        engine = Engine(workers=2)
        jobs = engine.run(
            [spec(workload="closure", factory=local_factory), spec()]
        )
        assert all(j.ok for j in jobs)
        assert captured == [16]  # ran in this process

    def test_parallel_failure_still_reported(self):
        engine = Engine(workers=2)
        jobs = engine.run(
            [spec(workload="broken", factory=_always_fail), spec()]
        )
        assert not jobs[0].ok and jobs[0].attempts == 2
        assert jobs[1].ok


class TestManifestResume:
    def test_manifest_records_every_completion(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        Engine(workers=1, cache_dir=tmp_path / "c", manifest=manifest).run(
            [spec(), spec(workload="broken", factory=_always_fail)]
        )
        # Append-only JSONL: one self-contained record per line.
        entries = [
            json.loads(line)
            for line in manifest.read_text().splitlines()
            if line.strip()
        ]
        by_key = {e["key"]: e for e in entries}
        statuses = sorted(e["status"] for e in by_key.values())
        assert statuses == ["done", "failed"]
        assert SweepManifest(manifest).counts() == {"done": 1, "failed": 1}

    def test_resume_after_kill_runs_only_missing_points(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        cache = tmp_path / "cache"
        grid = [spec(**g) for g in TestEngineParallel.GRID]
        # A sweep that dies after two points: only they reach the
        # manifest (it is rewritten after every completion).
        first = Engine(workers=1, cache_dir=cache, manifest=manifest)
        first.run(grid[:2])
        assert first.stats.executed == 2

        resumed = Engine(workers=1, cache_dir=cache, manifest=manifest)
        jobs = resumed.run(grid)
        assert resumed.stats.resumed == 2
        assert resumed.stats.cache_hits == 2
        assert resumed.stats.executed == 2
        assert all(j.ok for j in jobs)
        statuses = [
            e["status"] for e in SweepManifest(manifest).entries.values()
        ]
        assert statuses == ["done"] * 4

    def test_failed_points_are_rerun_on_resume(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        cache = tmp_path / "cache"
        marker = tmp_path / "now-works"

        def flaky_twice(n, scale=1.0):
            if not marker.exists():
                raise RuntimeError("still broken")
            return KERNELS["canneal"](n, scale)

        bad = spec(workload="flaky2", factory=flaky_twice)
        first = Engine(workers=1, cache_dir=cache, manifest=manifest)
        assert not first.run([bad])[0].ok

        marker.write_text("fixed")
        second = Engine(workers=1, cache_dir=cache, manifest=manifest)
        jobs = second.run([bad])
        assert jobs[0].ok
        assert SweepManifest(manifest).status(bad.key()) == "done"


class TestRunJobsWrapper:
    def test_one_shot(self, tmp_path):
        jobs = run_jobs([spec()], workers=1, cache_dir=tmp_path)
        assert jobs[0].ok and isinstance(jobs[0].result, RunResult)


class TestProgressReporting:
    def test_reporter_lines(self):
        from repro.harness.report import ProgressReporter

        fake_now = [0.0]
        reporter = ProgressReporter(
            3, stream=None, label="grid", clock=lambda: fake_now[0]
        )
        fake_now[0] = 2.0
        line = reporter.update("a/pthread@16")
        assert "[grid 1/3]" in line and "ran" in line and "eta 4s" in line
        line = reporter.update("b/pthread@16", cached=True)
        assert "cached" in line
        fake_now[0] = 4.0
        line = reporter.update("c/pthread@16", failed=True)
        assert "FAIL" in line and "done in 4s" in line

    def test_engine_accepts_reporter(self, capsys):
        import sys

        from repro.harness.report import ProgressReporter

        engine = Engine(
            workers=1, progress=ProgressReporter(1, stream=sys.stdout)
        )
        engine.run([spec()])
        assert "canneal/pthread@16" in capsys.readouterr().out
