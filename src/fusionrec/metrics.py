"""Ranking and text-overlap metrics.

Ranking metrics assume exactly one relevant item per user, so the ideal DCG
is 1 and NDCG reduces to the positional discount of the single hit.
"""

from __future__ import annotations

import math
from collections import Counter


def tokenize(text: str) -> list[str]:
    return text.lower().split()


def _check_ranks(ranks, k: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if not len(ranks):
        raise ValueError("no users to evaluate")


def hit_rate_from_ranks(ranks, k: int) -> float:
    """Fraction of targets whose 0-based rank is below k."""
    _check_ranks(ranks, k)
    return sum(1 for rank in ranks if rank < k) / len(ranks)


def ndcg_from_ranks(ranks, k: int) -> float:
    """Mean 1/log2(position+1) over targets at 1-based position <= k, else 0.

    Ranks are 0-based; the sum runs in the order given.
    """
    _check_ranks(ranks, k)
    total = 0.0
    for rank in ranks:
        if rank < k:
            total += 1.0 / math.log2(rank + 2)
    return total / len(ranks)


def _ngram_counts(tokens: list, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidate: list, reference: list, max_n: int = 4) -> float:
    """Clipped n-gram precision BLEU with brevity penalty and no smoothing.

    Any empty n-gram order zeroes the whole score. Precision denominators are
    candidate-side counts; BP = 1 if the candidate is longer than the
    reference, else exp(1 - len(ref)/len(cand)).
    """
    if not reference:
        raise ValueError("reference must be non-empty")
    m = len(candidate)
    ell = len(reference)
    if m == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        cand = _ngram_counts(candidate, n)
        total = sum(cand.values())
        if total == 0:
            return 0.0
        ref = _ngram_counts(reference, n)
        clipped = sum(min(count, ref[gram]) for gram, count in cand.items())
        if clipped == 0:
            return 0.0
        log_sum += (1.0 / max_n) * math.log(clipped / total)
    bp = 1.0 if m > ell else math.exp(1.0 - ell / m)
    return bp * math.exp(log_sum)


def _lcs_length(a: list, b: list) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            if x == y:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge(candidate: list, reference: list, variant: str = "rouge1") -> float:
    """ROUGE-1 recall (clipped unigram overlap / reference count) or ROUGE-L F1."""
    if not reference:
        raise ValueError("reference must be non-empty")
    if not candidate:
        return 0.0
    if variant == "rouge1":
        cand = Counter(candidate)
        ref = Counter(reference)
        overlap = sum(min(count, cand[gram]) for gram, count in ref.items())
        return overlap / sum(ref.values())
    if variant == "rougeL":
        lcs = _lcs_length(candidate, reference)
        if lcs == 0:
            return 0.0
        precision = lcs / len(candidate)
        recall = lcs / len(reference)
        return 2.0 * precision * recall / (precision + recall)
    raise ValueError(f"unknown rouge variant {variant!r}")
