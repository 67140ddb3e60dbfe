"""Measurement helpers: percentiles, subprocess probes, host diagnostics."""

from __future__ import annotations

import math
import os
import platform
import re
import resource
import subprocess
import sys
import time
from typing import Dict, List, Sequence

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Samples a reported tail percentile must leave beyond it.
TAIL_SAMPLES = 10


def valid_metric_name(name: str) -> bool:
    return bool(METRIC_NAME.match(name))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q``-th
    percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail_resolved(n: int, q: float) -> bool:
    """Whether ``n`` samples resolve the ``q``-th percentile: at least
    :data:`TAIL_SAMPLES` samples must lie beyond it."""
    return samples_beyond(n, q) >= TAIL_SAMPLES


def peak_rss_mb(child_kb: int) -> float:
    """Peak RSS of this process plus ``child_kb`` (the largest pool
    worker's peak, reported by the workers themselves), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + child_kb) / 1024.0


def _env(src) -> Dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(src))


def time_ready(src, code: str) -> float:
    """Wall time from starting a fresh interpreter running ``code`` to
    the line ``ready`` on its stdout."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, env=_env(src), text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"probe failed ({proc.returncode}): {code}")
    return elapsed


def time_cli(src, args: Sequence[str]) -> float:
    """Wall time of ``python -m repro <args>`` to exit."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro", *args], env=_env(src),
        stdout=subprocess.DEVNULL, check=True,
    )
    return time.perf_counter() - t0


class StartupProbes:
    """Set-up and CLI start-up times, each in a fresh interpreter.

    :meth:`between` takes one sample of each whenever another
    ``budget / count`` seconds of passes have run, so the samples spread
    over the whole run instead of one burst; :meth:`finish` tops them up
    to ``count``.  The first sample is preceded by one untimed launch of
    each, which lets the bytecode cache fill."""

    def __init__(self, src, setup_code: str, count: int, budget: float):
        self.src, self.setup_code = src, setup_code
        self.count, self.budget = count, budget
        self.setup: List[float] = []
        self.cli: List[float] = []

    def sample(self) -> None:
        if not self.setup:
            time_ready(self.src, self.setup_code)
            time_cli(self.src, ["--help"])
        self.setup.append(time_ready(self.src, self.setup_code))
        self.cli.append(time_cli(self.src, ["--help"]))

    def between(self, elapsed: float) -> None:
        if len(self.setup) < self.count and elapsed >= len(self.setup) * self.budget / self.count:
            self.sample()

    def finish(self) -> None:
        while len(self.setup) < self.count:
            self.sample()


def probe_printed(src, code: str, repeats: int) -> List[float]:
    """The number a fresh interpreter running ``code`` prints, per
    repeat (after one untimed warm-up)."""
    out = []
    for i in range(repeats + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=_env(src), text=True,
            stdout=subprocess.PIPE, check=True,
        )
        if i:
            out.append(float(proc.stdout.strip()))
    return out


def host_diagnostics() -> Dict[str, object]:
    """Host state, so that a run on a noisy host can be recognised.
    Diagnostics only: none of these is a benchmark metric."""
    from repro.perf.bench import calibrate

    return {
        "calibration_kops": calibrate(iters=500_000),
        "loadavg_1m": os.getloadavg()[0],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
