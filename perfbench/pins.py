"""Regenerate perfbench/pins.json, the pinned fingerprints.

    python3 perfbench/pins.py

Runs one pass of each workload at the default seed and records every
simulated point's ``(cycles, events)`` -- for ``sweep-mixed`` the points
that warm its cache and the new points of a pass -- plus the Fig. 6
model readout.  The pins are the correctness contract of the benchmark:
regenerate them only for a change that is meant to alter simulated
results, and justify each changed value where the change is described.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from spans import Recorder  # noqa: E402
from workloads import DEFAULT_SEED, PINS_PATH, WORKLOADS, Gate  # noqa: E402

WORKDIR = PINS_PATH.parents[1] / ".perfbench_work" / "pins"


def main() -> int:
    pins = {"seed": DEFAULT_SEED}
    WORKDIR.mkdir(parents=True, exist_ok=True)
    try:
        with Recorder(traced=False) as recorder:
            for cls in WORKLOADS.values():
                workload = cls(DEFAULT_SEED, WORKDIR, recorder)
                workload.pinned = lambda: None
                workload.prepare(Gate())
                p = workload.run_pass()
                points = dict(p.prints)
                warm = getattr(workload, "warm_prints", {})
                points.update(warm)
                # Cache hits carry a digest, not an event count: keep the
                # simulated fingerprint of every point.
                points = {k: v for k, v in points.items() if isinstance(v[1], int)}
                pins[cls.name] = {"points": dict(sorted(points.items()))}
                if cls.name == "fig6-grid":
                    pins[cls.name]["model"] = p.model
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    text = json.dumps(pins, indent=1, sort_keys=True)
    # One point per line: collapse each [cycles, events] pair.
    text = re.sub(r"\[\s+(\d+),\s+(\d+)\s+\]", r"[\1, \2]", text)
    PINS_PATH.write_text(text + "\n")
    print(f"wrote {PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
