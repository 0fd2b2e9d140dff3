"""Output checks for one round, against properties of the method or against
figures the benchmark computes from the inputs it generated.

Each check is one operation: `(name, ok, detail)`. A check whose artifact is
missing or unreadable fails; it does not stop the others.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import Counter

# Artifacts each stage documents as always written.
ARTIFACTS = {
    "prepare": ("split.json", "partition.json"),
    "train-cf": ("cf.ckpt",),
    "train-align": ("align.ckpt",),
    "cot": ("cots.json",),
    "train-proj": ("proj.ckpt",),
    "eval": ("report_standard.json",),
    "sweep": ("sweep.json", "sweep.txt"),
    "report": ("report.txt",),
}

_CKPT_MAGIC = b"FRCKPT1\n"


def artifact_hashes(out_dir: str) -> dict[str, str]:
    hashes = {}
    for dirpath, _, filenames in os.walk(out_dir):
        for filename in filenames:
            path = os.path.join(dirpath, filename)
            with open(path, "rb") as fh:
                hashes[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(hashes.items()))


def _json(out_dir: str, name: str):
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _training_log(out_dir: str, name: str) -> list[float]:
    """The training log from a checkpoint header, read without the program."""
    with open(os.path.join(out_dir, name), "rb") as fh:
        if fh.read(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
            raise ValueError(f"{name}: not a checkpoint")
        length = int(fh.readline())
        return json.loads(fh.read(length))["meta"]["training_log"]


def random_pool_rate(world, config: dict, k: int) -> float:
    """Expected hr@k of a random ranking of each test user's sampled pool.

    Applies the same filtering rules as `prepare` to the generated events;
    each user's pool is the smaller of eval.pool_size and its eligible items
    (the universe minus its own sequence) plus the target.
    """
    events = [(user, item) for user, item, _, _ in world.events]
    while True:
        items = Counter(item for _, item in events)
        kept = [e for e in events if items[e[1]] >= config["data.min_item_popularity"]]
        users = Counter(user for user, _ in kept)
        kept = [e for e in kept if users[e[0]] >= config["data.min_user_events"]]
        if len(kept) == len(events):
            break
        events = kept
    universe = {item for _, item in events}
    owned: dict[str, set[str]] = {}
    for user, item in events:
        owned.setdefault(user, set()).add(item)
    rates = [
        min(1.0, k / min(config["eval.pool_size"], len(universe) - len(seq) + 1))
        for seq in owned.values()
    ]
    return sum(rates) / len(rates)


def _report_checks(out_dir: str, world, config: dict):
    standard = _json(out_dir, "report_standard.json")
    n_users = len({user for user, _, _, _ in world.events})
    yield "n_users", standard["n_users"] == n_users, f"{standard['n_users']} vs {n_users} generated"

    reports = [standard]
    if os.path.exists(os.path.join(out_dir, "report_coldwarm.json")):
        coldwarm = _json(out_dir, "report_coldwarm.json")
        reports += [coldwarm["warm"], coldwarm["cold"]]
    ks = sorted(config["eval.ks"])
    bounded = all(
        0.0 <= r["ndcg"][str(k)] <= r["hr"][str(k)] and r["hr"][str(k)] <= 1.0
        for r in reports
        for k in ks
    )
    yield "metric_bounds", bounded, "0 <= ndcg@k <= hr@k <= 1 in every report"
    shaped = all(
        r["hr"]["1"] == r["ndcg"]["1"]
        and all(r["hr"][str(a)] <= r["hr"][str(b)] for a, b in zip(ks, ks[1:]))
        for r in reports
    )
    yield "hr_shape", shaped, "hr@1 == ndcg@1 and hr non-decreasing in k"
    random_rate = random_pool_rate(world, config, 10)
    hr10 = standard["hr"]["10"]
    yield "beats_random_pool", hr10 >= 3 * random_rate, f"hr@10 {hr10:.4f} vs 3 x {random_rate:.4f}"


def _cot_checks(out_dir: str, config: dict):
    cots = _json(out_dir, "cots.json")
    records = cots["records"]
    weights = config["cot.weights"]
    worst = max(
        abs(r["score"] - sum(w * d for w, d in zip(weights, r["dims"]))) for r in records
    )
    yield "cot_scores", worst <= 1e-12, f"max |score - weighted dims| {worst:.2e}"
    threshold = config["cot.threshold"]
    agree = all(r["retained"] == (r["score"] >= threshold) for r in records)
    retained = sum(r["retained"] for r in records)
    coverage_ok = cots["coverage"] == retained / len(records)
    yield (
        "cot_retention",
        agree and coverage_ok,
        f"{retained}/{len(records)} retained, coverage {cots['coverage']}",
    )


def _log_check(out_dir: str, name: str):
    log = _training_log(out_dir, name)
    finite = bool(log) and all(math.isfinite(v) for v in log)
    falls = len(log) < 2 or log[-1] < log[0]
    detail = f"{len(log)} epochs, first {log[0]:.6g}, last {log[-1]:.6g}" if log else "empty log"
    return finite and falls, detail


def round_checks(out_dir: str, world, config: dict) -> list[tuple[str, bool, str]]:
    """Every output check of one round, in a fixed order and number."""
    results: list[tuple[str, bool, str]] = []

    def run(names, produce) -> None:
        try:
            results.extend(produce())
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            results.extend((name, False, f"{type(exc).__name__}: {exc}") for name in names)

    run(("n_users", "metric_bounds", "hr_shape", "beats_random_pool"),
        lambda: list(_report_checks(out_dir, world, config)))
    run(("cot_scores", "cot_retention"), lambda: list(_cot_checks(out_dir, config)))
    for ckpt in ("cf.ckpt", "align.ckpt", "proj.ckpt"):
        name = f"training_log.{ckpt.split('.')[0]}"
        run((name,), lambda ckpt=ckpt, name=name: [(name, *_log_check(out_dir, ckpt))])
    return results


def stage_check(row: dict, out_dir: str) -> tuple[str, bool, str]:
    """A stage call is one operation: exit 0 and its documented artifacts."""
    missing = [a for a in ARTIFACTS[row["stage"]] if not os.path.exists(os.path.join(out_dir, a))]
    ok = row["rc"] == 0 and not missing
    detail = f"rc {row['rc']!r}" + (f", missing {', '.join(missing)}" if missing else "")
    if row.get("output"):
        detail += f"; output: {row['output'].strip()[-300:]}"
    return f"stage.{row['stage']}", ok, detail
