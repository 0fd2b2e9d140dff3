"""One round of the benchmark, run by `run.py` in a fresh process.

Writes the workload's input files, then calls `fusionrec.cli.main` for each
of the eight stages in order over one `--out` directory, and writes the
round's timings as JSON to `--result`. With `--trace-file` the layer
tracer is installed first and its spans go to that file, outside `--out`.

A stage that returns non-zero or raises is recorded and ends the round; the
stages after it are recorded as not run. A process that cannot import the
program exits non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import layers
import worlds
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_stages(cli_main, config: str, out: str, tracer: Tracer | None) -> list[dict]:
    rows = []
    for stage in layers.STAGES:
        if rows and rows[-1]["rc"] != 0:
            rows.append({"stage": stage, "rc": None, "wall_s": 0.0, "cpu_s": 0.0, "end": 0.0})
            continue
        captured = io.StringIO()
        span = tracer.begin(f"cli.{stage}") if tracer else None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                rc = cli_main([stage, "--config", config, "--out", out])
        except Exception as exc:  # a stage that raises is a failed operation, not a crash
            rc = f"{type(exc).__name__}: {exc}"
        finally:
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            if tracer:
                tracer.end(span)
        row = {"stage": stage, "rc": rc, "wall_s": wall, "cpu_s": cpu, "end": time.monotonic()}
        if rc != 0:
            row["output"] = captured.getvalue()[-2000:]
        rows.append(row)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(worlds.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="round directory: inputs/ and out/")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--trace-file")
    args = parser.parse_args()
    workload = worlds.WORKLOADS[args.workload]

    write0 = time.monotonic()
    inputs = os.path.join(args.dir, "inputs")
    os.makedirs(inputs)
    config = worlds.write_inputs(workload, args.seed, inputs)
    write_s = time.monotonic() - write0

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from fusionrec.cli import main as cli_main

    tracer = None
    if args.trace_file:
        tracer = Tracer()
        layers.install(tracer, pool_size=workload.config["eval.pool_size"])
    rows = _run_stages(cli_main, config, os.path.join(args.dir, "out"), tracer)
    result = {
        "setup_s": rows[0]["end"] - args.spawned - write_s,
        "chain_s": sum(row["wall_s"] for row in rows[1:]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "write_s": write_s,
        "stages": rows,
    }
    if tracer:
        metrics = layers.layer_metrics(tracer, {row["stage"]: row["cpu_s"] for row in rows})
        tracer.write(args.trace_file, metrics)
        result["layers"] = metrics
        result["missing"] = tracer.missing
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
