from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import planted_events
from fusionrec.align import decode, encode, unified_item_embedding
from fusionrec.cf import FORWARD_ROWS, user_representation, user_representations
from fusionrec.data import (
    ColdWarmPartition,
    SplitDataset,
    filter_dataset,
    leave_one_out_split,
)
from fusionrec import evaluate as evaluate_module
from fusionrec.errors import DataError, DependencyError
from fusionrec.evaluate import (
    CohortComparison,
    MetricReport,
    PoolRanker,
    RecommendationPipeline,
    cold_warm_report,
    draw_pools,
    evaluate_split,
    render_metric_table,
    zero_shot_eval,
)
from fusionrec.semantic import embed_catalog, fallback_embed
from fusionrec.synthetic import make_zero_shot_variant
from oracles import (
    oracle_draw_pools,
    oracle_hit_rate,
    oracle_ndcg,
    oracle_pool_scores,
    oracle_pooled_evaluation,
    oracle_sample_pool,
    oracle_target_rank,
    oracle_target_ranks,
)


class _IdentityRanker(PoolRanker):
    """The sampled pool always leads with the target, so this is a perfect ranker."""

    def rank_pool(self, history, pool):
        return list(pool)


class _ReversedRanker(PoolRanker):
    def rank_pool(self, history, pool):
        return list(reversed(pool))


class _RandomRanker(PoolRanker):
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def rank_pool(self, history, pool):
        order = self.rng.permutation(len(pool))
        return [pool[i] for i in order]


class _CohortRanker(PoolRanker):
    """Ranks the target first when it belongs to the favored set, last otherwise."""

    def __init__(self, favored):
        self.favored = set(favored)

    def rank_pool(self, history, pool):
        target, rest = pool[0], sorted(pool[1:])
        if target in self.favored:
            return [target] + rest
        return rest + [target]


def _grid_split(n_users=1000, n_items=120):
    train, validation, test = {}, {}, {}
    for i in range(n_users):
        user = f"u{i:04d}"
        train[user] = [f"q{i % n_items:03d}", f"q{(i + 1) % n_items:03d}"]
        validation[user] = f"q{(i + 2) % n_items:03d}"
        test[user] = f"q{(i + 3) % n_items:03d}"
    return SplitDataset(train=train, validation=validation, test=test)


def test_perfect_ranker_scores_one():
    split = _grid_split(200)
    report = evaluate_split(_IdentityRanker(), split, [1, 5, 10])
    assert report.hr == {1: 1.0, 5: 1.0, 10: 1.0}
    assert report.ndcg == {1: 1.0, 5: 1.0, 10: 1.0}
    assert report.n_users == 200
    assert report.skipped == 0
    assert report.protocol == "standard"


def test_worst_ranker_scores_zero():
    split = _grid_split(50)
    report = evaluate_split(_ReversedRanker(), split, [10])
    assert report.hr[10] == 0.0
    assert report.ndcg[10] == 0.0


def test_random_ranker_matches_pool_odds():
    split = _grid_split(1000)
    report = evaluate_split(_RandomRanker(17), split, [10], candidate_pool_size=100)
    assert 0.07 <= report.hr[10] <= 0.13


def test_evaluation_is_deterministic_per_seed(toy_pipeline, toy_world):
    split = toy_world["split"]
    kwargs = dict(ks=[1, 5], candidate_pool_size=100, seed=4)
    first = evaluate_split(toy_pipeline, split, **kwargs)
    second = evaluate_split(toy_pipeline, split, **kwargs)
    assert first.hr == second.hr
    assert first.ndcg == second.ndcg
    assert first.n_users == second.n_users


def test_pool_shortfall_is_logged_not_fatal(toy_pipeline, toy_world):
    split = toy_world["split"]
    report = evaluate_split(toy_pipeline, split, [1, 5], candidate_pool_size=100, seed=4)
    universe = split.item_universe()
    short = sum(len(universe - set(split.full_sequence(user))) < 99 for user in split.users())
    # the count that eval prints as "pool shortfalls: k of n users"
    assert 0 < short and report.pool_shortfalls == short
    assert set(report.hr) == {1, 5}
    assert report.hr[5] >= report.hr[1]


def test_evaluate_split_input_validation():
    split = _grid_split(5)
    with pytest.raises(ValueError, match="ks must be non-empty"):
        evaluate_split(_IdentityRanker(), split, [])
    with pytest.raises(ValueError, match="smaller than max k"):
        evaluate_split(_IdentityRanker(), split, [10], candidate_pool_size=5)
    with pytest.raises(DataError, match="standard evaluation covered no users"):
        evaluate_split(_IdentityRanker(), SplitDataset(train={}, validation={}, test={}), [1])


def test_text_metrics_average_over_covered_references():
    split = _grid_split(10)
    references = {
        ("u0000", split.test["u0000"]): "a fine clear pick for tonight",
        ("u0003", split.test["u0003"]): "steady mood and a familiar lead",
    }
    report = evaluate_split(
        _IdentityRanker(), split, [1],
        references=references,
        explainer=lambda user, target: references[(user, target)],
    )
    assert report.bleu4 == 1.0
    assert report.rouge1 == 1.0
    assert report.rougeL == 1.0
    bare = evaluate_split(_IdentityRanker(), split, [1])
    assert bare.bleu4 is None and bare.rouge1 is None and bare.rougeL is None


def _cohort_world():
    users = ("ca", "cb", "wa", "wb")
    train = {u: ["f1", "f2", "f3"] for u in users}
    validation = {u: "f4" for u in users}
    test = {"ca": "c1", "cb": "c2", "wa": "w1", "wb": "w2"}
    split = SplitDataset(train=train, validation=validation, test=test)
    partition = ColdWarmPartition(cold={"c1", "c2"}, warm={"w1", "w2"})
    return split, partition


def _cohort_comparison(favored, ks, partition=None, **kwargs):
    split, cohorts = _cohort_world()
    standard = evaluate_split(_CohortRanker(favored), split, ks, candidate_pool_size=4, **kwargs)
    return cold_warm_report(standard, split, partition or cohorts)


def test_cohort_gap_is_signed_relative_to_warm():
    favored_warm = _cohort_comparison({"w1", "w2"}, [1, 2], seed=5, config_digest="abc")
    assert isinstance(favored_warm, CohortComparison)
    assert favored_warm.warm.hr == {1: 1.0, 2: 1.0}
    assert favored_warm.cold.hr == {1: 0.0, 2: 0.0}
    assert favored_warm.gap["hr"] == {1: 1.0, 2: 1.0}
    assert favored_warm.gap["ndcg"] == {1: 1.0, 2: 1.0}
    assert favored_warm.warm.protocol == "warm"
    assert favored_warm.cold.protocol == "cold"
    for report in (favored_warm.warm, favored_warm.cold):
        assert (report.seed, report.config_digest, report.n_users) == (5, "abc", 2)

    even = _cohort_comparison({"w1", "w2", "c1", "c2"}, [1])
    assert even.gap["hr"] == {1: 0.0}

    hopeless = _cohort_comparison((), [1])
    assert hopeless.gap["hr"] == {1: None}
    assert hopeless.gap["ndcg"] == {1: None}


def test_cohort_report_requires_both_cohorts():
    warm_only = ColdWarmPartition(cold={"c9"}, warm={"w1", "w2", "c1", "c2"})
    with pytest.raises(DataError, match="cold cohort is empty"):
        _cohort_comparison({"w1"}, [1], warm_only)


def test_metric_report_validation():
    with pytest.raises(ValueError, match="unknown protocol"):
        MetricReport(hr={1: 1.0}, ndcg={1: 1.0}, n_users=1, protocol="bogus",
                     seed=0, config_digest="")
    with pytest.raises(DataError, match="cold report has no evaluated users"):
        MetricReport(hr={}, ndcg={}, n_users=0, protocol="cold", seed=0, config_digest="")
    with pytest.raises(ValueError, match=r"hr@10 = 1.2 outside \[0, 1\]"):
        MetricReport(hr={10: 1.2}, ndcg={10: 1.0}, n_users=1, protocol="standard",
                     seed=0, config_digest="")
    with pytest.raises(ValueError, match="bleu4"):
        MetricReport(hr={1: 1.0}, ndcg={1: 1.0}, n_users=1, protocol="standard",
                     seed=0, config_digest="", bleu4=-0.1)


def test_pipeline_routes_and_counts_lookups(toy_world, toy_alignment):
    model = toy_world["cf"]
    semantic = dict(toy_world["semantic"])
    semantic["cold9"] = fallback_embed("an unseen curiosity")
    pipeline = RecommendationPipeline(model, toy_alignment, semantic)

    warm_item = model.items[0]
    direct = pipeline.item_vector(warm_item)
    assert np.array_equal(direct, model.params["item_emb"][model.item_index[warm_item]])
    pipeline.item_vector(warm_item)
    assert pipeline.routing["collaborative_path"] == 2

    pseudo = pipeline.item_vector("cold9")
    assert pipeline.routing["semantic_path"] == 1
    latent = encode(toy_alignment, "semantic", semantic["cold9"])
    assert np.allclose(pseudo, decode(toy_alignment, "collaborative", latent))
    assert pseudo.shape == (model.config.embed_dim,)

    with pytest.raises(DataError, match="neither a collaborative embedding nor a semantic one"):
        pipeline.item_vector("nowhere")


def test_semantic_reconstruction_is_handed_out_as_copies(toy_world, toy_alignment):
    semantic = dict(toy_world["semantic"])
    semantic["cold9"] = fallback_embed("an unseen curiosity")
    pipeline = RecommendationPipeline(toy_world["cf"], toy_alignment, semantic)
    first = pipeline.item_vector("cold9")
    expected = first.copy()
    first[:] = 0.0  # a caller's edit must not reach later lookups
    second = pipeline.item_vector("cold9")
    assert np.array_equal(second, expected)
    assert pipeline.routing["semantic_path"] == 2
    item_emb = toy_world["cf"].params["item_emb"]
    before = item_emb.copy()
    pipeline.item_vector(toy_world["cf"].items[0])[:] = 0.0  # nor the CF embedding matrix
    assert np.array_equal(item_emb, before)


def test_pipeline_user_vector_matches_backbone(toy_world, toy_alignment):
    model = toy_world["cf"]
    pipeline = RecommendationPipeline(model, toy_alignment, dict(toy_world["semantic"]))
    history = [model.items[1], model.items[4], model.items[2]]
    assert np.allclose(
        pipeline.user_vector(history), user_representation(model, history), atol=1e-12
    )
    with pytest.raises(ValueError, match="non-empty"):
        pipeline.user_vector([])


def test_pipeline_user_vectors_equal_the_backbone_bit_for_bit(toy_world):
    model = toy_world["cf"]
    window = model.config.max_history
    rng = np.random.default_rng(21)
    # one length holds more histories than a single forward pass takes
    lengths = [4] * (FORWARD_ROWS + 5) + list(rng.integers(1, window + 6, size=40))
    histories = [list(rng.choice(model.items, size=n)) for n in lengths]
    pipeline = RecommendationPipeline(cf_model=model)  # warm histories need no alignment
    assert np.array_equal(pipeline.user_vectors(histories), user_representations(model, histories))
    assert pipeline.routing["collaborative_path"] == sum(min(n, window) for n in lengths)
    assert pipeline.routing["semantic_path"] == 0


def test_rank_pool_orders_by_score_then_id(toy_world, toy_alignment):
    model = toy_world["cf"]
    pipeline = RecommendationPipeline(model, toy_alignment, dict(toy_world["semantic"]))
    history = [model.items[0], model.items[3]]
    pool = sorted(model.items[:5])
    ranked = pipeline.rank_pool(history, pool)
    rep = pipeline.user_vector(history)
    scores = {item: float(rep @ pipeline.item_vector(item)) for item in pool}
    assert ranked == sorted(pool, key=lambda item: (-scores[item], item))
    assert set(ranked) == set(pool)


def test_zero_shot_requires_alignment_and_disjoint_vocab(toy_world, toy_pipeline):
    bare = RecommendationPipeline(toy_world["cf"])
    split, _ = _cohort_world()
    with pytest.raises(ValueError, match="needs a trained alignment network"):
        zero_shot_eval(bare, split, {}, [1])
    with pytest.raises(DataError, match="inside the source collaborative vocabulary"):
        zero_shot_eval(toy_pipeline, toy_world["split"], toy_world["semantic"], [1])

    foreign = SplitDataset(
        train={"u1": ["zz1", "zz2"]}, validation={"u1": "zz3"}, test={"u1": "zz4"}
    )
    partial = {item: fallback_embed(item) for item in ("zz1", "zz2", "zz3")}
    with pytest.raises(DataError, match="'zz4' lacks a semantic embedding"):
        zero_shot_eval(toy_pipeline, foreign, partial, [1])


def test_zero_shot_runs_entirely_on_the_semantic_path(toy_world, toy_pipeline):
    variant = make_zero_shot_variant(toy_world["dataset"])
    zs_split = leave_one_out_split(
        filter_dataset(planted_events(variant), min_user_events=3, min_item_popularity=1)
    )
    zs_semantic = embed_catalog(variant.catalog)
    report = zero_shot_eval(
        toy_pipeline, zs_split, zs_semantic, [1, 3], candidate_pool_size=10, seed=5
    )
    assert report.protocol == "zero_shot"
    assert report.n_users == len(zs_split.test)
    assert 0.0 <= report.hr[1] <= report.hr[3] <= 1.0


def test_render_metric_table_layout():
    reports = [
        MetricReport(hr={1: 0.5, 10: 0.9}, ndcg={1: 0.5, 10: 0.7}, n_users=42,
                     protocol="standard", seed=0, config_digest=""),
        MetricReport(hr={1: 0.25, 10: 0.5}, ndcg={1: 0.25, 10: 0.3}, n_users=7,
                     protocol="cold", seed=0, config_digest="", bleu4=0.5,
                     rouge1=0.25, rougeL=0.125),
    ]
    table = render_metric_table(reports)
    lines = table.splitlines()
    assert len(lines) == 3
    assert "hr@1" in lines[0] and "ndcg@10" in lines[0] and "bleu4" in lines[0]
    assert "standard" in lines[1] and "42" in lines[1]
    assert "-" in lines[1]  # no text metrics on the first report
    assert "0.5000" in lines[2]
    assert table.endswith("\n")


class _RecordingRanker(PoolRanker):
    def __init__(self):
        self.pools = []

    def rank_pool(self, history, pool):
        self.pools.append(list(pool))
        return list(pool)


def _mixed_world(toy_world):
    """The toy split with items outside the CF vocabulary in some histories
    and as some test targets, and histories longer than the CF window."""
    split = toy_world["split"]
    semantic = dict(toy_world["semantic"])
    unseen = [f"zz{n}" for n in range(6)]
    for n, item in enumerate(unseen):
        semantic[item] = fallback_embed(f"unseen curio number {n} {item}")
    train, validation, test = {}, {}, {}
    for n, user in enumerate(split.users()):
        history = list(split.train[user])
        if n % 3 == 0:
            history = history + history
        if n % 4 == 1:
            history.insert(len(history) // 2, unseen[n % 6])
        train[user] = history
        validation[user] = split.validation[user]
        test[user] = unseen[(n + 1) % 6] if n % 5 == 0 else split.test[user]
    return SplitDataset(train=train, validation=validation, test=test), semantic


_MIXED_POOL = 17


def test_pools_match_the_list_oracle_including_shortfalls(toy_world):
    split, _ = _mixed_world(toy_world)
    ranker = _RecordingRanker()
    evaluate_split(ranker, split, [1, 5], candidate_pool_size=_MIXED_POOL, seed=3)
    rng = np.random.default_rng(3)
    universe = sorted(split.item_universe())
    expected = [
        oracle_sample_pool(split.test[u], set(split.full_sequence(u)), universe, _MIXED_POOL, rng)
        for u in sorted(split.train)
    ]
    assert ranker.pools == expected
    sizes = {len(pool) for pool in expected}
    assert _MIXED_POOL in sizes and min(sizes) < _MIXED_POOL  # full and shortfall pools


def _isolated(scores: dict, target: str, tol: float = 1e-12) -> bool:
    return all(abs(s - scores[target]) > tol for item, s in scores.items() if item != target)


def _check_against_oracle(pipeline, results, routing=None):
    users = list(results)
    histories = [results[u]["history"] for u in users]
    pools = [results[u]["pool"] for u in users]
    scored = RecommendationPipeline(
        pipeline.cf_model, pipeline.alignment, pipeline.semantic_map
    ).pool_scores(histories, pools)
    for user, scores in zip(users, scored):
        expected = np.array([results[user]["scores"][item] for item in results[user]["pool"]])
        assert np.max(np.abs(scores - expected)) <= 1e-12
    ranks = pipeline.target_ranks(histories, pools)
    isolated = [_isolated(results[u]["scores"], results[u]["target"]) for u in users]
    for user, rank, alone in zip(users, ranks, isolated):
        if alone:
            assert rank == results[user]["ranking"].index(results[user]["target"])
    if routing is not None:
        assert pipeline.routing == routing
    return all(isolated)


def _check_report_against_oracle(report, results, ks):
    """The report keeps the oracle's target positions, and its metrics equal
    the oracle's exactly: both sum 1/log2(rank+2) user by user, in one order."""
    rankings = {u: r["ranking"] for u, r in results.items()}
    targets = {u: r["target"] for u, r in results.items()}
    assert report.ranks == dict(zip(targets, oracle_target_ranks(rankings, targets)))
    assert report.hr == {k: oracle_hit_rate(rankings, targets, k) for k in ks}
    assert report.ndcg == {k: oracle_ndcg(rankings, targets, k) for k in ks}


def test_batched_evaluation_matches_the_per_user_oracle(toy_world, toy_alignment):
    split, semantic = _mixed_world(toy_world)
    model = toy_world["cf"]
    results, routing = oracle_pooled_evaluation(
        model, toy_alignment, semantic, split, _MIXED_POOL, seed=3
    )
    assert routing["semantic_path"] > 0 and routing["collaborative_path"] > 0
    assert any(len(r["history"]) > model.config.max_history for r in results.values())
    assert any(len(r["pool"]) < _MIXED_POOL for r in results.values())

    pipeline = RecommendationPipeline(model, toy_alignment, semantic)
    report = evaluate_split(pipeline, split, [1, 5, 10], candidate_pool_size=_MIXED_POOL, seed=3)
    assert pipeline.routing == routing
    pipeline.routing = Counter()
    assert _check_against_oracle(pipeline, results, routing)
    _check_report_against_oracle(report, results, (1, 5, 10))


def test_batched_zero_shot_matches_the_per_user_oracle(toy_world, toy_pipeline):
    variant = make_zero_shot_variant(toy_world["dataset"])
    zs_split = leave_one_out_split(
        filter_dataset(planted_events(variant), min_user_events=3, min_item_popularity=1)
    )
    zs_semantic = embed_catalog(variant.catalog)
    results, routing = oracle_pooled_evaluation(
        toy_pipeline.cf_model, toy_pipeline.alignment, zs_semantic, zs_split, 10, seed=5
    )
    assert set(routing) == {"semantic_path"}
    report = zero_shot_eval(toy_pipeline, zs_split, zs_semantic, [1, 3], candidate_pool_size=10, seed=5)
    transfer = RecommendationPipeline(toy_pipeline.cf_model, toy_pipeline.alignment, zs_semantic)
    assert _check_against_oracle(transfer, results, routing)
    _check_report_against_oracle(report, results, (1, 3))


def test_identical_rows_tie_and_break_by_id(toy_world, toy_alignment):
    model = toy_world["cf"]
    semantic = dict(toy_world["semantic"])
    text = fallback_embed("one text shared by two unseen items")
    semantic["zz_b"] = semantic["zz_a"] = text
    pipeline = RecommendationPipeline(model, toy_alignment, semantic)
    history = list(model.items[:4])
    for pool in (["zz_b", "zz_a", model.items[5]], ["zz_a", "zz_b", model.items[5]]):
        scores = pipeline.pool_scores([history], [pool])[0]
        assert scores[0] == scores[1]
        ranking = pipeline.rank_pool(history, pool)
        assert ranking.index("zz_a") + 1 == ranking.index("zz_b")
        assert pipeline.target_ranks([history], [pool]) == [ranking.index(pool[0])]


def test_item_table_rows_are_computed_once_per_item(toy_world, toy_alignment, monkeypatch):
    split, semantic = _mixed_world(toy_world)
    pipeline = RecommendationPipeline(toy_world["cf"], toy_alignment, semantic)
    calls = []
    real = evaluate_module.unified_item_embedding
    monkeypatch.setattr(
        evaluate_module, "unified_item_embedding", lambda *args: calls.append(args[1]) or real(*args)
    )
    universe = sorted(split.item_universe())
    table = pipeline.item_table(universe, latent=True)
    assert table.items == universe and sorted(calls) == universe
    for item in universe:
        row = table.index[item]
        assert np.array_equal(table.collaborative[row], pipeline.item_vector(item))
        assert table.semantic[row] == (item not in toy_world["cf"].item_index)
        assert np.array_equal(
            table.latent[row], real(toy_alignment, item, toy_world["cf"], semantic)
        )


def test_item_table_routes_each_cold_item_through_one_unified_call(
    toy_world, toy_alignment, monkeypatch
):
    split, semantic = _mixed_world(toy_world)
    model = toy_world["cf"]
    pipeline = RecommendationPipeline(model, toy_alignment, semantic)
    calls = []
    real = evaluate_module.unified_item_embedding
    monkeypatch.setattr(
        evaluate_module, "unified_item_embedding", lambda *args: calls.append(args[1]) or real(*args)
    )
    universe = sorted(split.item_universe())
    table = pipeline.item_table(universe)
    cold = [item for item in universe if item not in model.item_index]
    assert cold and len(cold) < len(universe)
    assert sorted(calls) == cold  # once per cold item, never for a warm one
    assert table.latent is None
    for item in universe:
        row = table.collaborative[table.index[item]]
        if item in cold:
            latent = real(toy_alignment, item, model, semantic)
            assert np.array_equal(row, decode(toy_alignment, "collaborative", latent))
        else:
            assert np.array_equal(row, model.params["item_emb"][model.item_index[item]])


def test_item_vector_and_unified_embedding_reject_an_unknown_item_alike(toy_world, toy_alignment):
    model = toy_world["cf"]
    pipeline = RecommendationPipeline(model, toy_alignment, toy_world["semantic"])
    with pytest.raises(DataError) as from_pipeline:
        pipeline.item_vector("nowhere")
    with pytest.raises(DataError) as from_alignment:
        unified_item_embedding(toy_alignment, "nowhere", model, toy_world["semantic"])
    assert str(from_pipeline.value) == str(from_alignment.value)
    assert "neither a collaborative embedding nor a semantic one" in str(from_pipeline.value)


def test_a_cold_item_without_an_alignment_network_is_a_dependency_error(toy_world):
    pipeline = RecommendationPipeline(toy_world["cf"], None, toy_world["semantic"])
    with pytest.raises(DependencyError, match="'zz0'.*run train-align first"):
        pipeline.item_table([toy_world["cf"].items[0], "zz0"])
    with pytest.raises(ValueError, match="latent item rows need an alignment network"):
        pipeline.item_table([toy_world["cf"].items[0]], latent=True)


def _mixed_partition(split):
    cold = {item for item in split.test.values() if item.startswith("zz")}
    return ColdWarmPartition(cold=cold, warm=set(split.test.values()) - cold)


def test_cohort_reports_rank_nothing_and_keep_the_routing(toy_world, toy_alignment, monkeypatch):
    split, semantic = _mixed_world(toy_world)
    pipeline = RecommendationPipeline(toy_world["cf"], toy_alignment, semantic)
    calls = []
    real = RecommendationPipeline.target_ranks
    monkeypatch.setattr(
        RecommendationPipeline,
        "target_ranks",
        lambda self, histories, pools: calls.append(len(pools)) or real(self, histories, pools),
    )
    standard = evaluate_split(pipeline, split, [1, 5, 10], candidate_pool_size=_MIXED_POOL, seed=3)
    routing = dict(pipeline.routing)
    comparison = cold_warm_report(standard, split, _mixed_partition(split))
    assert calls == [len(split.train)]
    assert dict(pipeline.routing) == routing
    assert comparison.warm.n_users + comparison.cold.n_users == standard.n_users


def test_cohort_reports_are_the_oracle_metrics_over_the_standard_rankings(toy_world, toy_alignment):
    split, semantic = _mixed_world(toy_world)
    model = toy_world["cf"]
    ks = [1, 5, 10]
    results, _ = oracle_pooled_evaluation(model, toy_alignment, semantic, split, _MIXED_POOL, seed=3)
    pipeline = RecommendationPipeline(model, toy_alignment, semantic)
    standard = evaluate_split(pipeline, split, ks, candidate_pool_size=_MIXED_POOL, seed=3)
    partition = _mixed_partition(split)
    comparison = cold_warm_report(standard, split, partition)
    assert list(standard.ranks) == sorted(results)
    for report, cohort in ((comparison.warm, partition.warm), (comparison.cold, partition.cold)):
        users = [user for user in results if results[user]["target"] in cohort]
        assert users and list(report.ranks) == users
        assert set(report.ranks) <= set(standard.ranks)
        assert report.ranks == {user: standard.ranks[user] for user in users}
        rankings = {user: results[user]["ranking"] for user in users}
        targets = {user: results[user]["target"] for user in users}
        assert report.hr == {k: oracle_hit_rate(rankings, targets, k) for k in ks}
        assert report.ndcg == {k: oracle_ndcg(rankings, targets, k) for k in ks}


@st.composite
def _random_splits(draw):
    """Splits over a few items, so that some pools come up short, with items
    repeated inside a sequence and sometimes more users than one chunk."""
    items = [f"i{j:02d}" for j in range(draw(st.integers(2, 12)))]
    item = st.sampled_from(items)
    train, validation, test = {}, {}, {}
    for u in range(draw(st.sampled_from([1, 3, 8, FORWARD_ROWS + 5]))):
        user = f"u{u:03d}"
        train[user] = draw(st.lists(item, min_size=1, max_size=6))
        validation[user], test[user] = draw(item), draw(item)
    return SplitDataset(train=train, validation=validation, test=test)


@settings(max_examples=60, deadline=None)
@given(split=_random_splits(), size=st.integers(1, 12), seed=st.integers(0, 2**16))
def test_pools_match_the_per_user_oracle_on_random_splits(split, size, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    pools = draw_pools(split, split.test, size, rng)
    expected = oracle_draw_pools(split, split.test, size, oracle_rng)
    assert list(pools) == expected
    assert pools.lengths.tolist() == [len(pool) for pool in expected]
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_target_ranks_match_the_per_pool_oracle_with_ties(toy_world, toy_alignment, data):
    """Twin cold items score exactly alike and pools repeat items, so ranks
    rest on the id tie-break; enough users to span two scoring chunks."""
    model = toy_world["cf"]
    semantic = dict(toy_world["semantic"])
    semantic["zz_a"] = semantic["zz_b"] = fallback_embed("one text shared by two unseen items")
    items = st.sampled_from([*model.items[:8], "zz_a", "zz_b"])
    pipeline = RecommendationPipeline(model, toy_alignment, semantic)
    n_users = data.draw(st.integers(1, FORWARD_ROWS + 20))
    histories = [data.draw(st.lists(items, min_size=1, max_size=15)) for _ in range(n_users)]
    pools = [data.draw(st.lists(items, min_size=1, max_size=12)) for _ in range(n_users)]

    expected = oracle_pool_scores(pipeline, histories, pools)
    assert pipeline.target_ranks(histories, pools) == [
        oracle_target_rank(scores, pool) for scores, pool in zip(expected, pools)
    ]
    for scores, want in zip(pipeline.pool_scores(histories, pools), expected):
        assert np.array_equal(scores, want)
