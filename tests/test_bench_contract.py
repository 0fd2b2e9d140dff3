"""The benchmark's traced round must still find every layer it reports.

`bench/layers.py` wraps program functions by name and reads their
arguments, so a renamed function or a changed argument drops a per-layer
metric without failing anything else, and a layer whose result changes shape
can zero a counter. This runs one traced `chain` round in a subprocess,
exactly as `bench/run.py` starts it, and only reads `bench/`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_round_reports_every_per_layer_metric(tmp_path):
    result = tmp_path / "result.json"
    command = [
        sys.executable,
        os.path.join(ROOT, "bench", "chain.py"),
        "--workload", "chain",
        "--seed", "0",
        "--dir", str(tmp_path / "round"),
        "--result", str(result),
        "--trace-file", str(tmp_path / "spans.json"),
        "--spawned", repr(time.monotonic()),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert done.returncode == 0, done.stderr[-2000:]
    with open(result, encoding="utf-8") as fh:
        round_result = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {entry["name"] for entry in json.load(fh)["per_layer"]}

    assert round_result["missing"] == []
    assert set(round_result["layers"]) == declared - {"trace.overhead_s"}
    assert all(row["rc"] == 0 for row in round_result["stages"])
    # the counters read what the wrapped layers return and do, so a layer
    # that returns another shape or skips its lookups shows as a zero here
    for name in ("evaluate.users", "projection.examples", "align.examples",
                 "evaluate.collaborative_lookups"):
        assert round_result["layers"][name] > 0, name
