"""The calendar-queue event kernel (:class:`repro.sim.kernel.Simulator`).

* **Specification oracle**: a randomized event program must fire its
  callbacks in ``(target time, scheduling index)`` order -- the total
  order the golden tables rest on -- under every drain loop.
* **Drain contract**: chunked drains replay the monolithic order (also
  when a chunk boundary falls mid-bucket), a raising callback leaves
  the unexecuted rest of its cycle queued, and ``max_events`` /
  ``until`` stop exactly where documented.
"""

from __future__ import annotations

import random

import pytest

from repro.common.errors import SimulationError
from repro.harness.configs import build_machine
from repro.sim.kernel import Simulator


def _spec_program(sim, scheduled, fired, rng, depth=0):
    """Schedule a seed-driven tangle of events that re-schedule more
    events (including same-cycle ones).  Every event is logged twice:
    as ``(target time, scheduling index)`` when scheduled, and again
    when it fires."""

    def fire(event):
        assert sim.now == event[0]
        fired.append(event)
        if depth < 3 and rng.random() < 0.55:
            _spec_program(sim, scheduled, fired, rng, depth + 1)

    for _ in range(rng.randrange(1, 5)):
        delay = rng.choice((0, 0, 1, 2, 3, 7, rng.randrange(20)))
        event = (sim.now + delay, len(scheduled))
        scheduled.append(event)
        if rng.random() < 0.5:
            sim.schedule(delay, fire, event)
        else:
            sim.schedule(delay, lambda e=event: fire(e))


#: One drain per ``run`` loop: unbounded, budget-only, clock-only, both.
DRAINS = (
    {},
    {"max_events": 10**6},
    {"until": 10**6},
    {"until": 10**6, "max_events": 10**6},
)


@pytest.mark.parametrize("seed", range(8))
def test_calendar_fires_events_in_time_seq_order(seed):
    for drain in DRAINS:
        sim = Simulator()
        scheduled, fired = [], []
        _spec_program(sim, scheduled, fired, random.Random(seed))
        sim.run(**drain)
        assert fired == sorted(scheduled), drain
        assert sim.events_processed == len(scheduled)
        assert sim.pending_events == 0


@pytest.mark.parametrize("chunk", (1, 2, 3, 257))
def test_chunked_drain_replays_monolithic_order(chunk):
    """run_chunk boundaries may fall mid-bucket; consecutive chunks must
    still replay the exact monolithic drain order (the watchdog drives
    the kernel this way)."""
    mono_sim, scheduled, mono_fired = Simulator(), [], []
    _spec_program(mono_sim, scheduled, mono_fired, random.Random(99))
    mono_sim.run()

    chunk_sim, chunk_fired = Simulator(), []
    _spec_program(chunk_sim, [], chunk_fired, random.Random(99))
    total = 0
    while True:
        ran = chunk_sim.run_chunk(chunk)
        if ran == 0:
            break
        assert ran <= chunk
        total += ran
    assert chunk_fired == mono_fired == sorted(scheduled)
    assert total == mono_sim.events_processed == chunk_sim.events_processed


def test_mid_bucket_exception_requeues_remainder():
    sim = Simulator()
    log = []

    def boom():
        log.append("boom")
        raise RuntimeError("injected")

    sim.schedule(0, log.append, "a")
    sim.schedule(0, boom)
    sim.schedule(0, log.append, "b")
    with pytest.raises(RuntimeError):
        sim.run()
    # The raising event was consumed; the unexecuted remainder stays
    # queued in order.
    assert log == ["a", "boom"]
    assert sim.events_processed == 2
    assert sim.pending_events == 1
    sim.run()
    assert log == ["a", "boom", "b"]


def test_max_events_runs_exactly_the_budget():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(0, lambda: None)
    with pytest.raises(SimulationError):
        sim.run(max_events=3)
    assert sim.events_processed == 3
    assert sim.pending_events == 2


def test_until_stops_the_clock_without_draining():
    sim = Simulator()
    log = []
    sim.schedule(5, log.append, "early")
    sim.schedule(50, log.append, "late")
    assert sim.run(until=10) == 10
    assert log == ["early"]
    assert sim.pending_events == 1


def test_buckets_drained_counts_distinct_cycles():
    sim = Simulator()
    for i in range(10):
        sim.schedule(i % 2, lambda: None)
    sim.run()
    assert sim.buckets_drained == 2
    assert sim.events_processed == 10


def test_watchdog_chunked_machine_run_matches_monolithic():
    """Machine-level chunked drain (how the watchdog drives long runs):
    same workload, one machine drained monolithically and one in
    257-event chunks, identical outcome."""

    def outcome(chunked: bool) -> dict:
        machine = build_machine("msa-omu-2", n_cores=16, seed=2015)
        lock = machine.allocator.sync_var()
        counter = machine.allocator.line()

        def body(th):
            for _ in range(5):
                yield from th.lock(lock)
                value = yield from th.load(counter)
                yield from th.store(counter, value + 1)
                yield from th.unlock(lock)

        for _ in range(4):
            machine.scheduler.spawn(body)
        if chunked:
            while machine.sim.run_chunk(257):
                pass
        else:
            machine.run(max_events=10_000_000)
        return {
            "cycles": machine.sim.now,
            "events": machine.sim.events_processed,
            "value": machine.memory.peek(counter),
        }

    assert outcome(chunked=False) == outcome(chunked=True)
