"""Benchmark: the eight fusionrec CLI stages, end to end, on one workload.

    python3 bench/run.py --workload chain --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. Rounds run one at a time (closed loop),
each in a fresh process (`chain.py`) that writes the workload's inputs from
`--seed` and runs prepare .. report over one output directory. Rounds
repeat until `--seconds` have passed, and at least twice. With `--trace 1`
one traced round follows them; it reports the per-layer metrics instead of
the end-to-end ones.

Every stage call and every output check is one operation; so is each
comparison of a later round's artifact hashes with the first round's. The
last line of standard output is one JSON object: correct, attempted, failed
and metrics. Without `--workload` all workloads run in turn.

Exits 1 without a result when a round cannot run at all (for example when
the program's sources are absent) or when it would run past 170 s.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import layers
import worlds

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, "_work")
RESULTS = os.path.join(BENCH, "results")
RUN_LIMIT_S = 170.0
# One BLAS thread: on two shared cores a second OpenBLAS thread spins
# without shortening the chain (see README), and it makes times noisier.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {
    "setup_s": "s",
    "chain_s": "s",
    "peak_rss_mb": "MB",
    "hr_at_10": "ratio",
    "ndcg_at_10": "ratio",
}


class RunError(Exception):
    """The round could not run at all; no result is printed."""


def run_round(workload: str, seed: int, work: str, deadline: float, trace_file=None) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result_path = os.path.join(work, "round.json")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError(f"no time left for another round within {RUN_LIMIT_S:.0f} s")
    command = [
        sys.executable, os.path.join(BENCH, "chain.py"),
        "--workload", workload, "--seed", str(seed), "--dir", work, "--result", result_path,
    ]
    if trace_file:
        command += ["--trace-file", trace_file]
    env = {**os.environ, **CHILD_ENV}
    try:
        proc = subprocess.run(
            command + ["--spawned", repr(time.monotonic())],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"round did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RunError(f"round process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    workload = worlds.WORKLOADS[name]
    world = workload.world(seed)
    work = os.path.join(WORK, f"{name}-seed{seed}-pid{os.getpid()}")
    out_dir = os.path.join(work, "out")
    os.makedirs(RESULTS, exist_ok=True)
    rounds: list[dict] = []
    operations: list[tuple[str, bool, str]] = []
    first_hashes = None
    report = None

    def one_round(trace_file=None) -> dict:
        nonlocal first_hashes, report
        result = run_round(name, seed, work, deadline, trace_file)
        operations.extend(checks.stage_check(row, out_dir) for row in result["stages"])
        operations.extend(checks.round_checks(out_dir, world, workload.config))
        hashes = checks.artifact_hashes(out_dir)
        if first_hashes is None:
            first_hashes = hashes
            path = os.path.join(out_dir, "report_standard.json")
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    report = json.load(fh)
        else:
            differ = sorted(
                f for f in set(hashes) | set(first_hashes) if hashes.get(f) != first_hashes.get(f)
            )
            operations.append(
                ("determinism", not differ, f"differing artifacts: {differ}" if differ else "")
            )
        return result

    try:
        while len(rounds) < 2 or time.monotonic() - start < seconds:
            rounds.append(one_round())
        traced = None
        if trace:
            trace_file = os.path.join(RESULTS, f"{name}-seed{seed}-spans.json")
            traced = one_round(trace_file)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    failed = [op for op in operations if not op[1]]
    if trace:
        untraced_chain = statistics.median(r["chain_s"] for r in rounds)
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["chain_s"] - untraced_chain
        metrics = {k: {"value": v, "unit": layers.UNITS[k]} for k, v in values.items()}
    else:
        values = {
            key: statistics.median(r[key] for r in rounds)
            for key in ("setup_s", "chain_s", "peak_rss_mb")
        }
        if report is not None:
            values["hr_at_10"] = report["hr"]["10"]
            values["ndcg_at_10"] = report["ndcg"]["10"]
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    summary = {
        "correct": not failed,
        "attempted": len(operations),
        "failed": len(failed),
        "metrics": metrics,
    }
    details = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "summary": summary,
        "rounds": rounds,
        "traced_round": traced,
        "failed_operations": failed,
    }
    suffix = "trace" if trace else "e2e"
    with open(os.path.join(RESULTS, f"{name}-seed{seed}-{suffix}.json"), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    for op_name, _, detail in failed:
        print(f"FAILED {name} {op_name}: {detail}", file=sys.stderr)
    if traced and traced.get("missing"):
        print(f"missing layers (not reported): {', '.join(traced['missing'])}", file=sys.stderr)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(worlds.WORKLOADS),
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fusionrec", "cli.py")):
        print(f"error: no fusionrec sources under {ROOT}/src", file=sys.stderr)
        return 1
    names = [args.workload] if args.workload else list(worlds.WORKLOADS)
    for name in names:
        try:
            summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except RunError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        for metric, entry in summary["metrics"].items():
            print(f"{name}  {metric}  {entry['value']:.6g} {entry['unit']}")
        print(f"{name}  operations  attempted {summary['attempted']}, failed {summary['failed']}")
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
