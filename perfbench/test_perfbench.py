"""Self-tests of the benchmark's own arithmetic and gates.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


def test_tail_needs_ten_samples_beyond_it():
    assert measure.samples_beyond(200, 95) == 10
    assert measure.tail_resolved(200, 95)
    assert measure.samples_beyond(199, 95) == 9
    assert not measure.tail_resolved(199, 95)
    assert not measure.tail_resolved(5, 95)
    assert measure.tail_resolved(20, 50)


def test_p95_sees_calls_slowed_at_random():
    import random

    rng = random.Random(1)
    fast = [workloads.Pass(0.01, [0.001] * 10) for _ in range(200)]
    assert run.latency_ms(fast)[:2] == (1.0, 1.0)
    # 50 ms more on one call in five, at random positions: the p95 must
    # show it even though every position is fast in most passes.
    slow = [
        workloads.Pass(0.06, [0.051 if rng.random() < 0.2 else 0.001 for _ in range(10)])
        for _ in range(200)
    ]
    p50, p95, windows = run.latency_ms(slow)
    assert [len(w) for w in windows] == [200] * 10
    assert p50 == 1.0 and p95 == 51.0


def test_host_burst_over_a_stretch_does_not_set_percentiles():
    # A quarter of the run three times slower, all calls alike.
    passes = [
        workloads.Pass(0.01, [0.003 if 100 <= i < 150 else 0.001] * 10)
        for i in range(200)
    ]
    assert run.latency_ms(passes)[:2] == (1.0, 1.0)


def test_windows_take_the_remainder_and_resolve_the_tail():
    passes = [workloads.Pass(0.01, [0.001] * 10) for _ in range(45)]
    windows = run.latency_windows(passes)
    assert [len(w) for w in windows] == [200, 250]
    assert all(measure.tail_resolved(len(w), 95) for w in windows)


def test_unresolved_tail_takes_one_pass_a_window():
    # Eight passes of three calls cannot leave ten beyond p95: each pass
    # is a window, so a single stalled pass does not set the p95.
    passes = [workloads.Pass(0.6, [0.3, 0.2, 0.1]) for _ in range(7)]
    passes.append(workloads.Pass(1.8, [0.9, 0.6, 0.3]))
    p50, p95, windows = run.latency_ms(passes)
    assert [len(w) for w in windows] == [3] * 8
    assert (p50, p95) == (200.0, 300.0)


def test_point_ids_carry_overrides_and_faults():
    assert spans.point_id("ideal", "lu", 9, 7) == "ideal:lu:9:s7"
    assert spans.point_id(
        "msa-omu-2", "lu", 16, 7, {"omu.n_counters": 4, "msa.entries_per_tile": 2}, True
    ) == "msa-omu-2:lu:16:s7:msa.entries_per_tile=2,omu.n_counters=4:faults"


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 95) == 95
    assert measure.percentile([3.0], 95) == 3.0
    assert measure.percentile([4, 1, 3, 2], 50) == 2


def _span(n, start, end, parent=None, layer="harness", split=None):
    return Span((1, n), f"s{n}", layer, start, end,
                (1, parent) if parent else None, None, split)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 3.0, parent=1),   # overlaps the next child
        _span(3, 2.0, 5.0, parent=1),
        _span(4, 9.0, 12.0, parent=1),  # runs past its parent: clipped
        _span(5, 2.5, 3.0, parent=3),
    ]
    own = spans.self_times(tree)
    assert own[(1, 1)] == 10.0 - (4.0 + 1.0)
    assert own[(1, 2)] == 2.0
    assert own[(1, 3)] == 3.0 - 0.5
    assert own[(1, 4)] == 3.0


def test_layer_self_times_use_the_profiler_split():
    tree = [
        _span(1, 0.0, 10.0, layer="harness"),
        _span(2, 2.0, 6.0, parent=1, layer="sim",
              split={"sim": 1.0, "noc": 3.0}),
    ]
    layers = spans.layer_self_times(tree)
    assert layers == {"harness": 6.0, "sim": 1.0, "noc": 3.0}


def test_layer_of_file():
    assert spans.layer_of_file("/x/src/repro/noc/router.py") == "noc"
    assert spans.layer_of_file("/x/src/repro/runtime/swsync/mcs.py") == "runtime"
    assert spans.layer_of_file("/x/src/repro/workloads/kernels/lu.py") == "workloads"
    assert spans.layer_of_file("/x/src/repro/common/stats.py") is None
    assert spans.layer_of_file("/x/src/repro/machine.py") is None
    assert spans.layer_of_file("~") is None


def test_helpers_are_charged_to_their_callers_layers():
    noc = ("/s/repro/noc/router.py", 1, "cross")
    mem = ("/s/repro/mem/l1.py", 1, "load")
    helper = ("/s/repro/common/stats.py", 1, "inc")
    kernel = ("/s/repro/sim/kernel.py", 1, "schedule")
    stats = {
        noc: (10, 10, 2.0, 3.0, {}),
        mem: (5, 5, 1.0, 1.5, {}),
        # 0.75 s under noc, 0.25 s under mem.
        helper: (8, 8, 1.0, 1.0, {noc: (6, 6, 0.75, 0.75), mem: (2, 2, 0.25, 0.25)}),
        kernel: (7, 7, 0.5, 0.5, {}),
    }
    seconds, calls = spans.profile_split(stats)
    assert seconds == {"noc": 2.75, "mem": 1.25, "sim": 0.5}
    assert calls == {"schedule": 7}


def test_metric_names_are_valid():
    for name in list(run.metric_units(0)) + list(run.metric_units(1)):
        assert measure.valid_metric_name(name), name
    for bad in ("wall s", "p95%", "", "_x", "a" * 65):
        assert not measure.valid_metric_name(bad)
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_fingerprint_mismatch_fails_the_gate(monkeypatch):
    pins = {"mesh-scale": {"points": {"a:b:4:s2015": [100, 7], "c:d:4:s2015": [50, 3]}}}
    monkeypatch.setattr(workloads, "load_pins", lambda: pins)
    workload = workloads.MeshScale(workloads.DEFAULT_SEED, HERE, None)
    good = workloads.Pass(1.0, [1.0], [("a:b:4:s2015", (100, 7)), ("c:d:4:s2015", (50, 3))])
    gate = workloads.Gate()
    workload.verify(gate, good, "t", workload.reference(good))
    assert (gate.attempted, gate.failed) == (2, 0)

    pins["mesh-scale"]["points"]["a:b:4:s2015"] = [100, 8]  # one event more
    gate = workloads.Gate()
    workload.verify(gate, good, "t", workload.reference(good))
    assert gate.failed == 1 and "a:b:4:s2015" in gate.errors[0]

    gate = workloads.Gate()  # a point that never came back also fails
    short = workloads.Pass(1.0, [1.0], good.prints[1:])
    workload.verify(gate, short, "t", workload.reference(good))
    assert gate.failed == 1 and "missing" in gate.errors[0]


def test_held_out_seed_checks_against_the_first_pass():
    workload = workloads.MeshScale(workloads.DEFAULT_SEED + 1, HERE, None)
    assert workload.pinned() is None
    first = workloads.Pass(1.0, [1.0], [("a:b:4:s2016", (100, 7))])
    assert workload.reference(first) == {"a:b:4:s2016": (100, 7)}
    assert workloads.MeshScale(workloads.DEFAULT_SEED, HERE, None).pinned()


def test_missing_program_exits_nonzero_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "mesh-scale"]) != 0
    assert capsys.readouterr().out == ""
