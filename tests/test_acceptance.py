"""Acceptance gate for the whole package.

Each test checks one headline guarantee and prints a single PASS/FAIL line;
run `pytest tests/test_acceptance.py -v -s` to see the verdicts. The heavy
fixtures (a full pipeline run and a cold-start world) are built once per
module and shared.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time

import numpy as np
import pytest

from conftest import log_from_planted
from oracles import (
    gradient_check,
    gradient_check_projection,
    make_linear_alignment_suite,
    max_relative_gradient_error,
    oracle_alignment_terms,
    oracle_bleu,
    oracle_hit_rate,
    oracle_ndcg,
    oracle_rouge1,
    oracle_rouge_l,
    oracle_target_ranks,
)

from fusionrec.align import (
    AlignmentNetwork,
    build_alignment_dataset,
    init_alignment,
    stack_alignment_dataset,
    total_loss_and_gradients,
    train_alignment,
)
from fusionrec.cf import CfConfig, train_cf, training_loss_and_gradients
from fusionrec.checkpoint import load_checkpoint
from fusionrec.cli import main
from fusionrec.cot import CotRecord, composite_score, filter_cots, threshold_sweep
from fusionrec.data import (
    SplitDataset,
    TrainingSequence,
    build_sequences,
    build_training_instances,
    filter_dataset,
    leave_one_out_split,
    partition_cold_warm,
)
from fusionrec.evaluate import (
    RecommendationPipeline,
    cold_warm_report,
    evaluate_split,
    zero_shot_eval,
)
from fusionrec.metrics import bleu, hit_rate_from_ranks, ndcg_from_ranks, rouge
from fusionrec.projection import (
    ProjectionExample,
    build_vocabulary,
    init_projection_stack,
    make_surrogate_head,
)
from fusionrec.semantic import embed_catalog
from fusionrec.synthetic import (
    make_planted_dataset,
    make_zero_shot_variant,
    write_dataset,
)

_CHAIN_STAGES = ["prepare", "train-cf", "train-align", "cot", "train-proj", "eval"]


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def planted_chain(tmp_path_factory):
    """Two identical full pipeline runs on a 200x100 planted world."""
    root = tmp_path_factory.mktemp("acceptance")
    dataset = make_planted_dataset(200, 100, seed=0)
    interactions = root / "interactions.tsv"
    catalog = root / "catalog.tsv"
    write_dataset(dataset, interactions, catalog)
    config = root / "run.conf"
    config.write_text(
        "\n".join(
            [
                "seed = 0",
                f"data.interactions = {interactions}",
                f"data.catalog = {catalog}",
                "proj.d_token = 64",
                "proj.hidden = 64",
                "proj.epochs = 1",
                "proj.batch_size = 8",
                "proj.slate_size = 20",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    runs = [root / "run1", root / "run2"]
    elapsed = None
    for out_dir in runs:
        t0 = time.time()
        with contextlib.redirect_stdout(io.StringIO()):
            for stage in _CHAIN_STAGES:
                rc = main([stage, "--config", str(config), "--out", str(out_dir), "--seed", "0"])
                assert rc == 0, f"{stage} failed in {out_dir}"
            core = time.time() - t0
            for stage in ("sweep", "report"):
                rc = main([stage, "--config", str(config), "--out", str(out_dir), "--seed", "0"])
                assert rc == 0, f"{stage} failed in {out_dir}"
        if elapsed is None:
            elapsed = core
    with open(runs[0] / "report_standard.json", encoding="utf-8") as fh:
        report = json.load(fh)
    return {"runs": runs, "elapsed": elapsed, "report": report}


@pytest.fixture(scope="module")
def cold_world():
    """Planted world with 60 cold users; cold items are withheld from CF.

    The CF model trains on the train sequences with the cold band removed.
    """
    planted = make_planted_dataset(200, 100, seed=0, n_cold_users=60)
    filtered = filter_dataset(log_from_planted(planted), min_user_events=5, min_item_popularity=1)
    split = leave_one_out_split(build_sequences(filtered))
    partition = partition_cold_warm(filtered, fraction=0.35)
    rng = np.random.default_rng(1)
    warm_split = SplitDataset(
        train={
            user: [item for item in seq if item not in partition.cold]
            for user, seq in split.train.items()
        },
        validation=split.validation,
        test=split.test,
    )
    config = CfConfig()
    cf_model = train_cf(build_training_instances(warm_split, config.max_history), config, rng)
    semantic_map = embed_catalog(planted.catalog)
    rng2 = np.random.default_rng(2)
    dataset = build_alignment_dataset(
        cf_model, split, semantic_map, rng=rng2, negatives_per_user=0
    )
    net = init_alignment(50, 768, 128, 0.5, 0.2, rng=rng2)
    train_alignment(
        net, dataset, epochs=400, batch_size=16, learning_rate=1e-3, rng=rng2, optimizer="adam"
    )
    pipeline = RecommendationPipeline(cf_model=cf_model, alignment=net, semantic_map=semantic_map)
    standard = evaluate_split(pipeline, split, [10], 100, seed=3)
    comparison = cold_warm_report(standard, split, partition)
    return {
        "planted": planted,
        "split": split,
        "partition": partition,
        "cf": cf_model,
        "net": net,
        "semantic": semantic_map,
        "pipeline": pipeline,
        "comparison": comparison,
    }


def test_metrics_match_bruteforce_oracles():
    t0 = time.time()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(1000):
        rankings, targets = {}, {}
        min_len = None
        for u in range(int(rng.integers(1, 6))):
            n_items = int(rng.integers(2, 12))
            items = [f"i{j}" for j in range(n_items)]
            rankings[f"u{u}"] = [items[j] for j in rng.permutation(n_items)]
            targets[f"u{u}"] = items[int(rng.integers(n_items))] if rng.random() < 0.8 else "absent"
            min_len = n_items if min_len is None else min(min_len, n_items)
        k = int(rng.integers(1, min_len + 1))
        ranks = oracle_target_ranks(rankings, targets)
        worst = max(
            worst,
            abs(hit_rate_from_ranks(ranks, k) - oracle_hit_rate(rankings, targets, k)),
            abs(ndcg_from_ranks(ranks, k) - oracle_ndcg(rankings, targets, k)),
        )
    alphabet = ["a", "b", "c", "d"]
    for _ in range(1000):
        candidate = [alphabet[int(rng.integers(4))] for _ in range(int(rng.integers(0, 9)))]
        reference = [alphabet[int(rng.integers(4))] for _ in range(int(rng.integers(1, 9)))]
        worst = max(
            worst,
            abs(bleu(candidate, reference) - oracle_bleu(candidate, reference)),
            abs(rouge(candidate, reference, "rouge1") - oracle_rouge1(candidate, reference)),
            abs(rouge(candidate, reference, "rougeL") - oracle_rouge_l(candidate, reference)),
        )
    elapsed = time.time() - t0
    _verdict(
        "metric oracle equivalence",
        worst <= 1e-9 and elapsed < 30,
        f"max |error| {worst:.3e} over 1000 ranking + 1000 text cases in {elapsed:.1f}s",
    )


def test_worked_example_scores_and_filtering():
    kept_score = composite_score((0.77, 0.74, 0.76, 0.73))
    dropped_score = composite_score((0.41, 0.43, 0.39, 0.38))
    records = [
        CotRecord(instance=None, cot="kept", dims=(0.77, 0.74, 0.76, 0.73), score=kept_score),
        CotRecord(instance=None, cot="dropped", dims=(0.41, 0.43, 0.39, 0.38), score=dropped_score),
    ]
    retained, coverage = filter_cots(records, threshold=0.6)
    ok = (
        kept_score == 0.75
        and f"{dropped_score:.4f}" == "0.4025"
        and dropped_score == pytest.approx(0.4025, abs=1e-15)
        and [r.cot for r in retained] == ["kept"]
        and coverage == 0.5
    )
    _verdict(
        "worked-example reproduction",
        ok,
        f"scores {kept_score:.4f} / {dropped_score:.4f}, filter at 0.6 keeps only the first",
    )


def test_gradients_match_finite_differences_in_all_three_models():
    t0 = time.time()
    instances = [
        TrainingSequence("u1", ("a", "b"), ("b", "c")),
        TrainingSequence("u2", ("c",), ("d",)),
        TrainingSequence("u3", ("e", "a", "e", "c"), ("a", "e", "c", "e")),
    ]
    config = CfConfig(embed_dim=6, max_history=4, blocks=2, heads=2, epochs=0, batch_size=4)
    model = train_cf(instances, config, np.random.default_rng(0))
    params = {name: arr.copy() for name, arr in model.params.items()}
    _, grads = training_loss_and_gradients(params, config, instances, model.item_index)

    def cf_loss():
        value, _ = training_loss_and_gradients(params, config, instances, model.item_index)
        return value

    cf_err = max_relative_gradient_error(cf_loss, params, grads, h=1e-5)

    net = init_alignment(5, 7, 4, 0.5, 0.2, rng=np.random.default_rng(1))
    rng = np.random.default_rng(2)
    groups = [
        [
            (rng.normal(scale=0.5, size=net.collab_dim), rng.normal(scale=0.5, size=net.sem_dim))
            for _ in range(g + 1)
        ]
        for g in range(2)
    ]
    triples = [
        tuple(rng.normal(scale=0.5, size=net.collab_dim) for _ in range(3)) for _ in range(2)
    ]
    dataset = stack_alignment_dataset(
        users=["u0", "u1"],
        items=["i0", "i1", "i2"],
        e=np.array([e for group in groups for e, _ in group]),
        q=np.array([q for group in groups for _, q in group]),
        pairs=[[0], [1, 2]],
        triples=[triples, []],
    )
    align_err = gradient_check(net, dataset.batch([0, 1]))

    rng = np.random.default_rng(7)
    stack = init_projection_stack(
        d_user=5, d_item=4, d_cot=6, d_token=8, hidden=6, rng=np.random.default_rng(2)
    )
    head = make_surrogate_head(
        build_vocabulary({"a": ("red fox", ""), "b": ("blue owl", ""), "c": ("green elk", "")}),
        d_token=8,
        seed=1,
    )
    example = ProjectionExample(
        x_user=rng.normal(size=5),
        slate=[
            ("a", "red fox", rng.normal(size=4)),
            ("b", "blue owl", rng.normal(size=4)),
            ("c", "green elk", rng.normal(size=4)),
        ],
        r_vec=rng.normal(size=6),
        target_tokens=["red", "fox"],
        user="u0",
    )
    proj_err = gradient_check_projection(stack, example, head)

    elapsed = time.time() - t0
    worst = max(cf_err, align_err, proj_err)
    _verdict(
        "gradient integrity",
        worst <= 1e-4 and elapsed < 120,
        f"max relative errors cf {cf_err:.2e}, alignment {align_err:.2e}, "
        f"projection {proj_err:.2e} in {elapsed:.1f}s",
    )


def test_alignment_loss_nests_per_sequence_means():
    eye = np.eye(3)
    net = AlignmentNetwork(
        3,
        3,
        3,
        0.5,
        0.2,
        params={
            "enc_c.w": eye.copy(),
            "enc_c.b": np.zeros(3),
            "enc_s.w": eye.copy(),
            "enc_s.b": np.zeros(3),
            "dec_c.w": eye.copy(),
            "dec_c.b": np.zeros(3),
            "dec_s.w": eye.copy(),
            "dec_s.b": np.zeros(3),
        },
    )
    items = ["i0", "i1", "i2"]
    e = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 1.0, 0.0]])
    zeros = np.zeros((3, 3))
    two_sequences = stack_alignment_dataset(["u0", "u1"], items, e, zeros, [[0, 1], [2]], [[], []])
    one_sequence = stack_alignment_dataset(["u0"], items, e, zeros, [[0, 1, 2]], [[]])
    # identity decoders reconstruct exactly, so the training loss is the alignment term
    nested = total_loss_and_gradients(net, two_sequences.batch([0, 1]))[0]
    flat = total_loss_and_gradients(net, one_sequence.batch([0]))[0]
    _verdict(
        "per-sequence loss nesting",
        nested == 3.5 and flat == 3.0,
        f"two-sequence batch gives {nested} nested vs {flat} flat",
    )


def test_alignment_converges_on_linearly_related_modalities():
    t0 = time.time()
    suite = make_linear_alignment_suite()
    rng = np.random.default_rng(0)
    net = init_alignment(50, 768, 128, 0.5, 0.2, rng=rng)
    everyone = suite.dataset.batch(np.arange(len(suite.dataset)))
    before = oracle_alignment_terms(net, everyone)[0]
    train_alignment(
        net, suite.dataset, epochs=200, batch_size=16, learning_rate=1e-4, rng=rng, optimizer="sgd"
    )
    after = oracle_alignment_terms(net, everyone)[0]
    drop = 1.0 - after / before
    elapsed = time.time() - t0
    _verdict(
        "alignment convergence",
        drop >= 0.90 and elapsed < 60,
        f"alignment loss {before:.1f} -> {after:.1f} ({drop:.1%} drop) in {elapsed:.1f}s",
    )


def test_split_and_partition_invariants_hold_on_random_datasets():
    rng = np.random.default_rng(6)
    users_checked = 0
    for _ in range(100):
        n_users = int(rng.integers(8, 40))
        n_items = int(rng.integers(3, 13)) * 2
        planted = make_planted_dataset(n_users, n_items, seed=int(rng.integers(10_000)))
        log = log_from_planted(planted)
        sequences = build_sequences(log)
        split = leave_one_out_split(sequences)
        for user, sequence in sequences.items():
            assert split.full_sequence(user) == sequence.items
        users_checked += len(sequences)
        partition = partition_cold_warm(log, fraction=0.35)
        band = math.floor(0.35 * len(partition.frequency))
        assert len(partition.cold) == len(partition.warm) == band
        assert not partition.cold & partition.warm
        if band:
            coldest_warm = min(partition.frequency[item] for item in partition.warm)
            hottest_cold = max(partition.frequency[item] for item in partition.cold)
            assert hottest_cold <= coldest_warm
    _verdict(
        "split and partition invariants",
        True,
        f"leave-one-out reconstruction for {users_checked} users and banded "
        "cold/warm partitions across 100 random datasets",
    )


def test_threshold_sweep_plateaus_below_the_minimum_score():
    rng = np.random.default_rng(8)
    scores = rng.uniform(0.45, 0.95, size=40)
    records = [
        CotRecord(instance=None, cot=f"r{i}", dims=(float(s),) * 4, score=float(s))
        for i, s in enumerate(scores)
    ]
    thresholds = [round(0.1 * i, 1) for i in range(11)]
    rows = threshold_sweep(records, thresholds)
    coverages = [row["coverage"] for row in rows]
    non_increasing = all(a >= b for a, b in zip(coverages, coverages[1:]))
    plateau = [c for t, c in zip(thresholds, coverages) if t < scores.min()]
    _verdict(
        "threshold sweep shape",
        non_increasing and plateau and all(c == 1.0 for c in plateau),
        f"coverage non-increasing over {thresholds}, constant 1.0 at the "
        f"{len(plateau)} thresholds below the minimum score {scores.min():.2f}",
    )


def test_planted_signal_chain_beats_random_threefold(planted_chain):
    hr10 = planted_chain["report"]["hr"]["10"]
    elapsed = planted_chain["elapsed"]
    _verdict(
        "end-to-end planted signal",
        hr10 >= 0.30 and elapsed < 300,
        f"HR@10 {hr10:.4f} vs 3x random baseline 0.30 (pool 100), "
        f"prepare->eval in {elapsed:.1f}s",
    )


def test_cold_items_route_semantically_and_still_rank(cold_world):
    routes = cold_world["pipeline"].item_table(cold_world["partition"].cold).semantic
    semantic_count = int(routes.sum())
    cold_hr = cold_world["comparison"].cold.hr[10]
    _verdict(
        "cold-path functionality",
        semantic_count == len(routes) and cold_hr >= 0.20,
        f"{semantic_count}/{len(routes)} cold items on the semantic path, "
        f"cold HR@10 {cold_hr:.4f} vs 2x random baseline 0.20",
    )


def test_cold_start_through_the_cli_routes_held_out_items_semantically(tmp_path):
    planted = make_planted_dataset(200, 100, seed=0, n_cold_users=60)
    interactions, catalog = tmp_path / "interactions.tsv", tmp_path / "catalog.tsv"
    write_dataset(planted, interactions, catalog)
    config = tmp_path / "run.conf"
    config.write_text(
        "\n".join(
            [
                "seed = 0",
                f"data.interactions = {interactions}",
                f"data.catalog = {catalog}",
                "data.min_item_popularity = 1",
                "align.optimizer = adam",
                "align.learning_rate = 0.001",
                "align.epochs = 20",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        for stage in ("prepare", "train-cf", "train-align", "eval"):
            assert main([stage, "--config", str(config), "--out", str(out_dir)]) == 0, stage
    split = json.loads((out_dir / "split.json").read_text(encoding="utf-8"))
    cold = set(json.loads((out_dir / "partition.json").read_text(encoding="utf-8"))["cold"])
    cold_hr = json.loads((out_dir / "report_coldwarm.json").read_text(encoding="utf-8"))["cold"]["hr"]["10"]
    _, meta = load_checkpoint(out_dir / "cf.ckpt")[:2]
    vocabulary = set(meta["items"])

    train_items = {item for sequence in split["train"].values() for item in sequence}
    universe = train_items | set(split["validation"].values()) | set(split["test"].values())
    cohort = [user for user, target in split["test"].items() if target in cold]
    cold_targets = {split["test"][user] for user in cohort}
    owned = {
        user: set(split["train"][user]) | {split["validation"][user], split["test"][user]}
        for user in cohort
    }
    random_rate = float(
        np.mean([min(1.0, 10 / min(100, len(universe - owned[user]) + 1)) for user in cohort])
    )
    _verdict(
        "cold start through the CLI",
        vocabulary == train_items and not cold_targets & vocabulary and cold_hr > random_rate,
        f"cf.ckpt holds {len(vocabulary)} items, the train sequences {len(train_items)}; "
        f"{len(cold_targets & vocabulary)}/{len(cold_targets)} cold test targets in it; "
        f"cold HR@10 {cold_hr:.4f} vs random-pool rate {random_rate:.4f} over {len(cohort)} users",
    )


def test_zero_shot_domain_routes_semantically_at_comparable_quality(cold_world):
    variant = make_zero_shot_variant(cold_world["planted"])
    filtered = filter_dataset(log_from_planted(variant), min_user_events=5, min_item_popularity=1)
    zs_split = leave_one_out_split(build_sequences(filtered))
    zs_semantic = embed_catalog(variant.catalog)
    targets = sorted(set(zs_split.test.values()))
    routes = RecommendationPipeline(cold_world["cf"], cold_world["net"], zs_semantic).item_table(
        targets
    ).semantic
    semantic_count = int(routes.sum())
    report = zero_shot_eval(
        cold_world["pipeline"], zs_split, zs_semantic, [10], candidate_pool_size=100, seed=3
    )
    cold_hr = cold_world["comparison"].cold.hr[10]
    rel_gap = abs(report.hr[10] - cold_hr) / cold_hr
    _verdict(
        "zero-shot routing",
        semantic_count == len(targets) and rel_gap <= 0.20,
        f"{semantic_count}/{len(targets)} target embeddings on the semantic path, "
        f"HR@10 {report.hr[10]:.4f} within {rel_gap:.1%} of cold {cold_hr:.4f}",
    )


def test_identical_runs_produce_identical_bytes(planted_chain):
    first, second = planted_chain["runs"]
    names = sorted(os.listdir(first))
    same_listing = names == sorted(os.listdir(second))
    diffs = [
        name
        for name in names
        if (first / name).read_bytes() != (second / name).read_bytes()
    ]
    _verdict(
        "repeat-run determinism",
        same_listing and not diffs,
        f"{len(names)} artifacts byte-identical across two seeded runs"
        + (f"; differing: {diffs}" if diffs else ""),
    )
