"""Tests for :mod:`repro.resilience`: the durable job store (leases,
heartbeats, quarantine), deterministic backoff, the escalating watchdog
and its triage dump, manifest tail repair, cache checksums, and fsck."""

import json
import os
import time
import warnings

import pytest

from repro.common.errors import DeadlockError, WatchdogTimeout
from repro.harness.configs import build_machine
from repro.harness.jobs import (
    CACHE_VERSION,
    Engine,
    JobSpec,
    ResultCache,
    SweepManifest,
    entry_checksum,
    execute_spec,
    repair_manifest_tail,
)
from repro.resilience import (
    Claim,
    JobStore,
    Watchdog,
    WatchdogWarning,
    backoff_delay,
    default_store_path,
    format_triage,
    fsck,
    resilience_registry,
    triage_dump,
)

SPEC = dict(config="pthread", workload="canneal", cores=4, scale=0.1, seed=7)


def spec(**over):
    return JobSpec(**{**SPEC, **over})


@pytest.fixture(scope="module")
def small_result():
    return execute_spec(spec())


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# ---------------------------------------------------------------------------
# Job store
# ---------------------------------------------------------------------------
class TestJobStore:
    def make(self, tmp_path, **kw):
        clock = FakeClock()
        kw.setdefault("lease_s", 10.0)
        kw.setdefault("quarantine_after", 2)
        return JobStore(tmp_path / "jobs.sqlite3", clock=clock, **kw), clock

    def test_enqueue_claim_done(self, tmp_path):
        store, _ = self.make(tmp_path)
        assert store.enqueue("k1", "point", b"blob") == "pending"
        claim = store.claim("w1")
        assert isinstance(claim, Claim)
        assert claim.key == "k1" and claim.attempt == 1
        assert not claim.reclaimed
        assert claim.spec_blob == b"blob"
        # Leased rows are not claimable by others.
        assert store.claim("w2") is None
        assert store.mark_done("k1", "w1")
        row = store.get("k1")
        assert row.status == "done" and row.terminal
        assert store.open_jobs() == 0

    def test_enqueue_is_idempotent(self, tmp_path):
        store, _ = self.make(tmp_path)
        store.enqueue("k1", "point")
        assert store.enqueue("k1", "point") == "pending"
        assert store.counters()["enqueued"] == 1

    def test_expired_lease_is_reclaimed(self, tmp_path):
        store, clock = self.make(tmp_path, lease_s=5.0)
        store.enqueue("k1")
        store.claim("w-dead")
        assert store.claim("w2") is None  # lease still live
        clock.advance(6.0)
        claim = store.claim("w2")
        assert claim is not None and claim.reclaimed
        assert claim.attempt == 2
        assert store.counters()["leases_expired"] == 1

    def test_heartbeat_extends_lease(self, tmp_path):
        store, clock = self.make(tmp_path, lease_s=5.0)
        store.enqueue("k1")
        store.claim("w1")
        clock.advance(4.0)
        assert store.heartbeat("k1", "w1")
        clock.advance(4.0)  # 8s total: dead without the heartbeat
        assert store.claim("w2") is None
        assert not store.heartbeat("k1", "w-other")

    def test_failure_backoff_then_quarantine(self, tmp_path):
        store, clock = self.make(tmp_path, quarantine_after=2)
        store.enqueue("k1")
        claim = store.claim("w1")
        status = store.mark_failed(
            "k1", "w1", "RuntimeError: boom", backoff_s=3.0
        )
        assert status == "pending"
        assert store.claim("w1") is None  # inside the backoff window
        clock.advance(3.5)
        claim = store.claim("w1")
        assert claim.attempt == 2
        status = store.mark_failed(
            "k1", "w1", "RuntimeError: boom", traceback_text="Traceback...",
        )
        assert status == "quarantined"
        artifact = store.quarantine_path("k1")
        assert artifact.is_file()
        assert "RuntimeError: boom" in artifact.read_text()
        assert store.open_jobs() == 0  # quarantined is terminal

    def test_requeue_resets_quarantined(self, tmp_path):
        store, clock = self.make(tmp_path, quarantine_after=1)
        store.enqueue("k1")
        store.claim("w1")
        assert store.mark_failed("k1", "w1", "err") == "quarantined"
        assert store.enqueue("k1", requeue_failed=True) == "pending"
        claim = store.claim("w1")
        assert claim.attempt == 1  # fresh retry budget
        assert store.counters()["requeued"] == 1

    def test_stale_owner_cannot_complete(self, tmp_path):
        """A hung worker whose lease expired and whose point finished
        elsewhere must not overwrite the outcome."""
        store, clock = self.make(tmp_path, lease_s=5.0)
        store.enqueue("k1")
        store.claim("w-hung")
        clock.advance(6.0)
        store.claim("w-fresh")
        store.mark_done("k1", "w-fresh")
        assert not store.mark_done("k1", "w-hung")
        assert store.mark_failed("k1", "w-hung", "late failure") == "stale"
        assert store.get("k1").status == "done"
        assert store.counters()["stale_completions"] == 2

    def test_release_owner_frees_leases_immediately(self, tmp_path):
        store, _ = self.make(tmp_path)
        store.enqueue("k1")
        store.enqueue("k2")
        store.claim("w1", keys=("k1",))
        store.claim("w1", keys=("k2",))
        assert store.release_owner("w1") == 2
        assert store.claim("w2") is not None  # no lease wait needed

    def test_corrupt_store_is_rebuilt(self, tmp_path):
        path = tmp_path / "jobs.sqlite3"
        path.write_bytes(b"definitely not a sqlite database" * 10)
        store = JobStore(path)
        store.enqueue("k1")
        assert store.get("k1").status == "pending"

    @staticmethod
    def assert_counters_match_rows(store):
        c = store.counters()
        rows = {s: c.get(f"jobs_{s}", 0)
                for s in ("pending", "leased", "done", "quarantined")}
        assert sum(rows.values()) == c["enqueued"]
        assert rows["done"] + rows["quarantined"] == (
            c["done"] + c["quarantined"] - c["requeued"]
        )
        assert rows["leased"] == (
            c["leases_granted"] - c["done"] - c["retries"]
            - c["quarantined"] - c["leases_released"] - c["leases_expired"]
        )

    def test_counters_agree_with_rows_after_every_transition(self, tmp_path):
        store, clock = self.make(tmp_path, lease_s=5.0, quarantine_after=2)
        check = lambda: self.assert_counters_match_rows(store)  # noqa: E731
        steps = [
            lambda: store.enqueue("a"),
            lambda: store.enqueue("b"),
            lambda: store.enqueue("c"),
            lambda: store.enqueue("a"),
            lambda: store.claim("w1", keys=("a",)),
            lambda: store.heartbeat("a", "w1"),
            lambda: store.mark_done("a", "w1"),
            lambda: store.mark_done("a", "w-stale"),
            lambda: store.claim("w1", keys=("b",)),
            lambda: store.mark_failed("b", "w1", "boom"),
            lambda: store.claim("w1", keys=("b",)),
            lambda: store.mark_failed("b", "w1", "boom again"),
            lambda: store.enqueue("b"),
            lambda: store.claim("w2", keys=("b",)),
            lambda: store.release_owner("w2"),
            lambda: store.claim("w3", keys=("b",)),
            lambda: clock.advance(10.0),
            lambda: store.reclaim_expired(),
            lambda: store.claim("w4", keys=("c",)),
            lambda: clock.advance(10.0),
            lambda: store.claim("w5", keys=("c",)),
            lambda: store.mark_done("c", "w5"),
            lambda: store.requeue("c"),
            lambda: store.claim("w6"),
        ]
        for step in steps:
            step()
            check()
        assert store.counters()["leases_expired"] == 2

    def test_transition_and_counter_commit_together(self, tmp_path):
        store, _ = self.make(tmp_path)
        store.enqueue("k1")
        store.claim("w1")
        real_bump = store._bump

        def failing_bump(name, n=1):
            if name == "done":
                raise RuntimeError("crash between row and counter")
            real_bump(name, n)

        store._bump = failing_bump
        with pytest.raises(RuntimeError):
            store.mark_done("k1", "w1")
        store._bump = real_bump
        assert store.get("k1").status == "leased"  # rolled back
        assert store.counters()["done"] == 0
        assert store.mark_done("k1", "w1")
        self.assert_counters_match_rows(store)

    def test_keyed_queries_on_a_large_store(self, tmp_path):
        store, clock = self.make(tmp_path)
        db = store._db
        db.execute("BEGIN")
        db.executemany(
            "INSERT INTO jobs (key, status, created, updated)"
            " VALUES (?, 'done', ?, ?)",
            [(f"done{i:04d}", float(i), float(i)) for i in range(2000)],
        )
        db.execute("COMMIT")
        for key in ("open-b", "open-a", "open-c"):
            clock.advance(1.0)
            store.enqueue(key)
        store.claim("w1", keys=("open-c",))
        every = store.rows()
        assert len(every) == 2003
        keys = ["open-a", "done0007", "missing", "open-c", "done1999",
                "open-a"] + [f"done{i:04d}" for i in range(0, 2000, 3)]
        wanted = set(keys)
        expected = [r for r in every if r.key in wanted]
        assert store.rows(keys) == expected
        assert store.statuses(keys) == {r.key: r.status for r in expected}
        assert store.statuses() == {r.key: r.status for r in every}
        assert store.open_jobs(keys) == 2
        assert store.open_jobs() == 3
        assert store.open_jobs(["done0001", "missing"]) == 0
        assert store.open_keys(limit=10) == ["open-b", "open-a", "open-c"]
        assert store.open_keys(limit=2) == ["open-b", "open-a"]
        claim = store.claim("w2", keys=keys)
        assert claim.key == "open-a"  # oldest eligible among the keys
        assert store.claim("w2", keys=[f"done{i:04d}" for i in range(2000)]) \
            is None
        assert store.expired_leases() == 0
        clock.advance(60.0)
        assert store.expired_leases() == 2

    def test_counters_exported_to_registry(self, tmp_path):
        store, _ = self.make(tmp_path)
        store.enqueue("k1")
        store.claim("w1")
        store.mark_done("k1", "w1")
        reg = resilience_registry(store.counters())
        names = {m.name for m in reg.metrics()}
        assert "harness.enqueued" in names
        assert "harness.leases_granted" in names


class TestWorkerLoopHeartbeat:
    def test_heartbeats_renew_the_lease_of_a_long_point(self, tmp_path):
        """A point running several lease lengths keeps its lease: the
        beater thread renews it on its own connection, and no other
        owner can claim the point meanwhile."""
        from repro.resilience import WorkerLoop

        path = tmp_path / "jobs.sqlite3"
        store = JobStore(path, lease_s=0.3)
        rival = JobStore(path, lease_s=0.3)
        store.enqueue("slow")
        rival_claims = []

        class SlowLoop(WorkerLoop):
            def _execute(self, spec):
                deadline = time.monotonic() + 1.2
                while time.monotonic() < deadline:
                    time.sleep(0.1)
                    rival_claims.append(rival.claim("rival"))
                return spec

        class NullCache:
            def put(self, key, spec, result):
                pass

        loop = SlowLoop(store, NullCache(), keys=["slow"],
                        specs_by_key={"slow": "payload"})
        try:
            assert loop.run_one().key == "slow"
        finally:
            rival.close()
        counters = store.counters()
        assert counters["heartbeats"] > 0
        assert counters["leases_expired"] == 0
        assert counters["stale_completions"] == 0
        assert store.get("slow").status == "done"
        assert len(rival_claims) >= 10
        assert all(claim is None for claim in rival_claims)


# ---------------------------------------------------------------------------
# Deterministic backoff
# ---------------------------------------------------------------------------
class TestBackoff:
    def test_pure_function_of_inputs(self):
        assert backoff_delay("k", 4, seed=9) == backoff_delay("k", 4, seed=9)
        assert backoff_delay("k", 4, seed=9) != backoff_delay("k", 4, seed=10)
        assert backoff_delay("k", 4) != backoff_delay("other", 4)

    def test_exponential_growth_with_cap(self):
        base, cap = 0.1, 1.0
        raw = [
            backoff_delay("k", attempt, base=base, cap=cap)
            for attempt in range(1, 8)
        ]
        # Jitter keeps each delay within [raw/2, raw) of the uncapped
        # exponential, and the cap bounds everything.
        for attempt, delay in enumerate(raw, start=1):
            ceiling = min(cap, base * 2 ** (attempt - 1))
            assert ceiling / 2 <= delay <= ceiling
        assert backoff_delay("k", 0) == 0.0


# ---------------------------------------------------------------------------
# Watchdog
# ---------------------------------------------------------------------------
def _watched_machine(n_threads=4, iters=40):
    m = build_machine("msa-omu-2", n_cores=16, seed=3)
    lock = m.allocator.sync_var()
    counter = m.allocator.line()

    def body(th):
        for _ in range(iters):
            yield from th.lock(lock)
            value = yield from th.load(counter)
            yield from th.store(counter, value + 1)
            yield from th.unlock(lock)

    for _ in range(n_threads):
        m.scheduler.spawn(body)
    return m


class TestWatchdog:
    def test_within_budget_matches_unwatched_run(self):
        plain = _watched_machine()
        cycles_plain = plain.run()
        watched = _watched_machine()
        wd = Watchdog(max_events=10_000_000, chunk_events=512)
        assert wd.run(watched) == cycles_plain
        assert watched.sim.events_processed == plain.sim.events_processed
        assert wd.stage == "ok"

    def test_event_budget_escalation_ladder(self):
        reference = _watched_machine()
        reference.run()
        budget = reference.sim.events_processed // 2
        m = _watched_machine()
        stages = []
        wd = Watchdog(
            max_events=budget,
            chunk_events=max(1, budget // 50),
            on_stage=lambda stage, reason: stages.append(stage),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WatchdogWarning)
            with pytest.raises(WatchdogTimeout) as excinfo:
                wd.run(m)
        assert stages == ["warned", "snapshotted", "aborted"]
        assert wd.snapshot is not None
        err = excinfo.value
        assert err.triage["pending_events"] > 0
        assert f"max_events={budget}" in str(err)

    def test_warn_stage_emits_warning(self):
        reference = _watched_machine()
        reference.run()
        m = _watched_machine()
        wd = Watchdog(
            max_events=reference.sim.events_processed // 2,
            chunk_events=64,
        )
        with pytest.warns(WatchdogWarning):
            with pytest.raises(WatchdogTimeout):
                wd.run(m)

    def test_wall_clock_budget_with_fake_clock(self):
        clock = FakeClock()
        m = _watched_machine()

        original = m.sim.run_chunk

        def slow_chunk(n):
            clock.advance(2.0)
            return original(n)

        m.sim.run_chunk = slow_chunk
        wd = Watchdog(wall_clock_s=5.0, chunk_events=64, clock=clock)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WatchdogWarning)
            with pytest.raises(WatchdogTimeout) as excinfo:
                wd.run(m)
        assert "wall clock" in str(excinfo.value)

    def test_triage_dump_structure(self):
        m = _watched_machine()
        m.run()
        triage = triage_dump(m)
        assert triage["cycle"] == m.sim.now
        assert triage["threads"]["total"] == 4
        assert triage["threads"]["finished"] == 4
        assert triage["noc"]["in_flight"] == 0
        assert json.dumps(triage)  # plain data, JSON-safe
        assert "cycle" in format_triage(triage)


class TestDeadlockTriage:
    def test_deadlock_error_carries_triage_dump(self):
        """Satellite: DeadlockError is enriched with the watchdog's
        triage dump (thread sets, NoC in-flight, MSA occupancy)."""
        m = build_machine("msa-omu-2", n_cores=16, seed=1)
        lock = m.allocator.sync_var()

        def greedy(th):
            yield from th.lock(lock)  # never unlocks

        def starved(th):
            yield from th.compute(50)
            yield from th.lock(lock)

        m.scheduler.spawn(greedy, name="greedy")
        m.scheduler.spawn(starved, name="starved")
        with pytest.raises(DeadlockError) as excinfo:
            m.run()
        err = excinfo.value
        assert err.triage["threads"]["total"] == 2
        assert err.triage["threads"]["finished"] == 1
        stuck = err.triage["threads"]["runnable"]
        assert [t["name"] for t in stuck] == ["starved"]
        assert stuck[0]["blocked"] == "future"
        # The MSA still holds the lock entry the victim waits on.
        assert any(
            entry["waiters"] >= 1
            for sl in err.triage["msa"]
            for entry in sl["occupancy"]
        )
        assert "[triage:" in str(err)


# ---------------------------------------------------------------------------
# Cache checksums
# ---------------------------------------------------------------------------
class TestCacheChecksums:
    def test_entry_carries_version_and_checksum(self, tmp_path, small_result):
        cache = ResultCache(tmp_path)
        key = spec().key()
        cache.put(key, spec(), small_result)
        data = json.loads(cache.path(key).read_text())
        assert data["v"] == CACHE_VERSION
        assert data["sha256"] == entry_checksum(data)
        assert cache.get(key) == small_result

    def test_parseable_but_tampered_entry_is_a_miss(
        self, tmp_path, small_result
    ):
        """A byte flip that keeps the JSON valid (e.g. a mutated cycle
        count) must still be rejected -- this is exactly the corruption
        a checksum exists for."""
        cache = ResultCache(tmp_path)
        key = spec().key()
        cache.put(key, spec(), small_result)
        path = cache.path(key)
        data = json.loads(path.read_text())
        data["result"]["cycles"] += 1  # silent wrong-result corruption
        path.write_text(json.dumps(data, sort_keys=True))
        assert cache.get(key) is None
        assert cache.corrupt == 1
        assert list(cache.entries()) == []

    def test_entry_under_wrong_key_is_a_miss(self, tmp_path, small_result):
        cache = ResultCache(tmp_path)
        key = spec().key()
        other = spec(seed=8).key()
        cache.put(key, spec(), small_result)
        cache.path(other).parent.mkdir(parents=True, exist_ok=True)
        cache.path(other).write_text(cache.path(key).read_text())
        assert cache.get(other) is None
        assert cache.get(key) is not None


# ---------------------------------------------------------------------------
# Manifest tail repair
# ---------------------------------------------------------------------------
class TestManifestRepair:
    def _manifest_with_tail(self, tmp_path, tail):
        path = tmp_path / "manifest.jsonl"
        records = [
            {"key": "k1", "spec": "a/p@4", "status": "done",
             "attempts": 1, "error": None},
            {"key": "k2", "spec": "b/p@4", "status": "failed",
             "attempts": 2, "error": "boom"},
        ]
        body = "".join(json.dumps(r) + "\n" for r in records)
        path.write_text(body + tail)
        return path

    def test_truncated_tail_is_repaired_in_place(self, tmp_path):
        """Satellite: resume tolerates the torn trailing line a
        kill-mid-append leaves, repairs the file, and keeps every
        complete record."""
        path = self._manifest_with_tail(
            tmp_path, '{"key": "k3", "spec": "c/p@4", "sta'
        )
        with pytest.warns(RuntimeWarning, match="torn"):
            manifest = SweepManifest(path)
        assert manifest.status("k1") == "done"
        assert manifest.status("k2") == "failed"
        assert manifest.status("k3") is None
        # Repaired in place: a re-load is clean (no warning).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reloaded = SweepManifest(path)
        assert reloaded.counts() == {"done": 1, "failed": 1}

    def test_repair_is_a_noop_on_clean_manifests(self, tmp_path):
        path = self._manifest_with_tail(tmp_path, "")
        before = path.read_text()
        assert repair_manifest_tail(path) == 0
        assert path.read_text() == before

    def test_legacy_whole_json_manifest_still_loads(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            "version": 2,
            "counts": {"done": 1},
            "points": {"k1": {"spec": "a/p@4", "status": "done",
                              "attempts": 1, "error": None}},
        }))
        manifest = SweepManifest(path)
        assert manifest.status("k1") == "done"
        manifest.save()  # upgrades to JSONL
        assert SweepManifest(path).status("k1") == "done"


# ---------------------------------------------------------------------------
# fsck
# ---------------------------------------------------------------------------
class TestFsck:
    def _cache_with_entries(self, tmp_path, small_result, n=3):
        cache = ResultCache(tmp_path / "cache")
        keys = []
        for seed in range(n):
            s = spec(seed=100 + seed)
            key = s.key()
            cache.put(key, s, small_result)
            keys.append(key)
        return cache, keys

    def test_clean_cache_is_healthy(self, tmp_path, small_result):
        cache, keys = self._cache_with_entries(tmp_path, small_result)
        report = fsck(cache.root)
        assert report.ok
        assert report.scanned_entries == 3
        assert report.healthy_entries == 3
        assert report.issues == []

    def test_finds_and_evicts_each_corruption_kind(
        self, tmp_path, small_result
    ):
        cache, keys = self._cache_with_entries(tmp_path, small_result, n=4)
        # torn JSON
        cache.path(keys[0]).write_text('{"key": "' + keys[0])
        # checksum mismatch (parseable)
        data = json.loads(cache.path(keys[1]).read_text())
        data["result"]["cycles"] += 7
        cache.path(keys[1]).write_text(json.dumps(data, sort_keys=True))
        # schema drift (no checksum/version at all)
        cache.path(keys[2]).write_text(json.dumps({"result": {}}))
        # orphan tmp from an interrupted atomic write
        orphan = cache.path(keys[3]).parent / "leftover.tmp"
        orphan.write_text("partial")

        report = fsck(cache.root, repair=True)
        kinds = sorted(i.kind for i in report.issues)
        assert kinds == [
            "checksum-mismatch", "orphan-tmp", "schema-drift", "torn-json",
        ]
        assert report.ok  # everything repaired
        assert not orphan.exists()
        for key in keys[:3]:
            assert not cache.path(key).exists()  # evicted = miss
        assert cache.path(keys[3]).exists()  # healthy entry untouched
        # The cache is clean now.
        assert fsck(cache.root).issues == []

    def test_no_repair_reports_without_touching(self, tmp_path, small_result):
        cache, keys = self._cache_with_entries(tmp_path, small_result, n=1)
        cache.path(keys[0]).write_text("{torn")
        report = fsck(cache.root, repair=False)
        assert [i.kind for i in report.issues] == ["torn-json"]
        assert not report.ok
        assert cache.path(keys[0]).exists()

    def test_fsck_repairs_manifest_and_expired_leases(
        self, tmp_path, small_result
    ):
        cache, _ = self._cache_with_entries(tmp_path, small_result, n=1)
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(
            json.dumps({"key": "k1", "status": "done", "spec": "a",
                        "attempts": 1, "error": None}) + "\n" + '{"torn'
        )
        store = JobStore(default_store_path(cache.root), lease_s=0.01)
        store.enqueue("k1")
        store.claim("w-dead")
        store.close()
        time.sleep(0.05)
        report = fsck(cache.root, manifest=manifest, repair=True)
        kinds = sorted(i.kind for i in report.issues)
        assert kinds == ["expired-lease", "manifest-torn-tail"]
        assert report.ok
        store = JobStore(default_store_path(cache.root))
        assert store.get("k1").status == "pending"
        store.close()

    def test_fsck_counters_shape(self, tmp_path, small_result):
        cache, keys = self._cache_with_entries(tmp_path, small_result, n=1)
        counters = fsck(cache.root).counters()
        assert counters["fsck_scanned"] == 1
        assert counters["fsck_healthy"] == 1
        assert counters["fsck_torn-json"] == 0
