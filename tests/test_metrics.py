from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionrec.metrics import bleu, hit_rate_from_ranks, ndcg_from_ranks, rouge, tokenize
from oracles import (
    oracle_bleu,
    oracle_hit_rate,
    oracle_ndcg,
    oracle_rouge1,
    oracle_rouge_l,
    oracle_target_ranks,
)


def test_hit_rate_basics():
    # target at 0-based rank 2 of four items
    assert hit_rate_from_ranks([2], 3) == 1.0
    assert hit_rate_from_ranks([2], 2) == 0.0
    assert hit_rate_from_ranks([2], 4) == 1.0


def test_hit_rate_averages_over_users():
    assert hit_rate_from_ranks([0, 1, 1], 1) == pytest.approx(1 / 3)
    assert hit_rate_from_ranks([0, 1, 1], 2) == 1.0


def test_ndcg_discount_at_rank_two():
    value = ndcg_from_ranks([1], 3)
    assert value == pytest.approx(1.0 / math.log2(3.0), abs=1e-12)
    assert round(value, 5) == 0.63093


def test_ndcg_top_hit_is_one_and_miss_is_zero():
    assert ndcg_from_ranks([0], 3) == 1.0
    assert ndcg_from_ranks([3], 3) == 0.0  # a target past the top k


def test_ranking_metric_argument_errors():
    with pytest.raises(ValueError, match="k must be >= 1"):
        hit_rate_from_ranks([0], 0)
    with pytest.raises(ValueError, match="k must be >= 1"):
        ndcg_from_ranks([0], 0)
    with pytest.raises(ValueError, match="no users"):
        hit_rate_from_ranks([], 1)
    with pytest.raises(ValueError, match="no users"):
        ndcg_from_ranks([], 1)


def test_bleu_worked_example():
    value = bleu("the cat".split(), "the cat sat".split(), max_n=2)
    assert value == pytest.approx(math.exp(1.0 - 3.0 / 2.0), abs=1e-12)
    assert round(value, 5) == 0.60653


def test_bleu_identical_and_disjoint():
    tokens = "a b c d".split()
    assert bleu(tokens, tokens) == pytest.approx(1.0, abs=1e-12)
    assert bleu("x y".split(), "a b".split()) == 0.0
    assert bleu([], "a".split()) == 0.0


def test_bleu_brevity_penalty_is_one_for_long_candidates():
    candidate = "a b c a b c a".split()
    reference = "a b c".split()
    assert bleu(candidate, reference, max_n=1) == pytest.approx(3.0 / 7.0, abs=1e-12)


def test_bleu_clips_candidate_side_counts():
    # "the" appears twice in the candidate, once in the reference: clipped to 1.
    value = bleu("the the".split(), "the cat sat".split(), max_n=1)
    assert value == pytest.approx(math.exp(1.0 - 3.0 / 2.0) * (1.0 / 2.0), abs=1e-12)


def test_bleu_empty_reference_rejected():
    with pytest.raises(ValueError):
        bleu("a".split(), [])


def test_rouge_worked_example():
    candidate = "a b c".split()
    reference = "a x c".split()
    assert rouge(candidate, reference, "rouge1") == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert rouge(candidate, reference, "rougeL") == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_rouge_edge_cases():
    tokens = "a b c".split()
    assert rouge(tokens, tokens, "rouge1") == 1.0
    assert rouge(tokens, tokens, "rougeL") == 1.0
    assert rouge([], tokens, "rouge1") == 0.0
    assert rouge("x".split(), tokens, "rougeL") == 0.0
    with pytest.raises(ValueError):
        rouge(tokens, [], "rouge1")
    with pytest.raises(ValueError):
        rouge(tokens, tokens, "rouge2")


def test_rouge1_uses_reference_denominator():
    # overlap 1, reference length 4
    assert rouge("a".split(), "a b c d".split(), "rouge1") == 0.25


def test_tokenize_lowercases_and_splits():
    assert tokenize("The  Cat\nsat") == ["the", "cat", "sat"]


def _random_ranking_case(rng):
    n_items = int(rng.integers(2, 12))
    items = [f"i{j}" for j in range(n_items)]
    ranking = [items[j] for j in rng.permutation(n_items)]
    target = items[int(rng.integers(n_items))] if rng.random() < 0.8 else "absent"
    return ranking, target


def test_ranking_metrics_match_bruteforce_on_random_cases():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n_users = int(rng.integers(1, 6))
        rankings, targets = {}, {}
        min_len = None
        for u in range(n_users):
            ranking, target = _random_ranking_case(rng)
            rankings[f"u{u}"] = ranking
            targets[f"u{u}"] = target
            min_len = len(ranking) if min_len is None else min(min_len, len(ranking))
        k = int(rng.integers(1, min_len + 1))
        ranks = oracle_target_ranks(rankings, targets)
        assert hit_rate_from_ranks(ranks, k) == pytest.approx(
            oracle_hit_rate(rankings, targets, k), abs=1e-12
        )
        assert ndcg_from_ranks(ranks, k) == pytest.approx(
            oracle_ndcg(rankings, targets, k), abs=1e-12
        )


def test_text_metrics_match_bruteforce_on_random_cases():
    rng = np.random.default_rng(43)
    alphabet = ["a", "b", "c", "d"]
    for _ in range(200):
        candidate = [alphabet[int(rng.integers(4))] for _ in range(int(rng.integers(0, 9)))]
        reference = [alphabet[int(rng.integers(4))] for _ in range(int(rng.integers(1, 9)))]
        max_n = int(rng.integers(1, 5))
        assert bleu(candidate, reference, max_n) == pytest.approx(
            oracle_bleu(candidate, reference, max_n), abs=1e-9
        )
        assert rouge(candidate, reference, "rouge1") == pytest.approx(
            oracle_rouge1(candidate, reference), abs=1e-12
        )
        assert rouge(candidate, reference, "rougeL") == pytest.approx(
            oracle_rouge_l(candidate, reference), abs=1e-12
        )


@st.composite
def _ranked_users(draw):
    n_items = draw(st.integers(min_value=3, max_value=10))
    items = [f"i{j}" for j in range(n_items)]
    n_users = draw(st.integers(min_value=1, max_value=4))
    rankings, targets = {}, {}
    for u in range(n_users):
        rankings[f"u{u}"] = draw(st.permutations(items))
        targets[f"u{u}"] = draw(st.sampled_from(items + ["absent"]))
    return rankings, targets, n_items


@given(_ranked_users())
@settings(max_examples=60, deadline=None)
def test_hit_rate_and_ndcg_are_nondecreasing_in_k(case):
    rankings, targets, n_items = case
    ranks = oracle_target_ranks(rankings, targets)
    hr_prev, ndcg_prev = 0.0, 0.0
    for k in range(1, n_items + 1):
        hr = hit_rate_from_ranks(ranks, k)
        nd = ndcg_from_ranks(ranks, k)
        assert hr == oracle_hit_rate(rankings, targets, k)
        assert nd == pytest.approx(oracle_ndcg(rankings, targets, k), abs=1e-12)
        assert hr >= hr_prev
        assert nd >= ndcg_prev
        assert nd <= hr + 1e-12
        hr_prev, ndcg_prev = hr, nd


@given(
    st.lists(st.sampled_from("abcd"), min_size=1, max_size=8),
    st.lists(st.sampled_from("abcd"), min_size=1, max_size=8),
)
@settings(max_examples=80, deadline=None)
def test_text_metrics_stay_in_unit_interval(candidate, reference):
    assert 0.0 <= bleu(candidate, reference) <= 1.0
    assert 0.0 <= rouge(candidate, reference, "rouge1") <= 1.0
    assert 0.0 <= rouge(candidate, reference, "rougeL") <= 1.0
