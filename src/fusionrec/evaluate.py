"""Evaluation protocols: pooled ranking, cold/warm cohorts, zero-shot transfer.

Each test user is scored against a candidate pool (the held-out target plus
sampled negatives drawn outside the user's own sequence). Items without a
collaborative embedding are routed through the semantic path: their text
embedding is encoded into the shared latent space and decoded back into the
collaborative space, yielding a pseudo-embedding every downstream dot
product can consume. The pipeline counts which route each lookup took so
protocol assertions (zero-shot must be 100% semantic) stay checkable. Each
test user is ranked once: the warm and cold reports are cuts of the standard
report's per-user target ranks, so every cohort user keeps its standard pool.

Scoring is batched. The pipeline builds one `ItemTable` for the items a
stage needs, computing each item's row once; users are represented in
length-grouped batches gathered from the table's rows by index
(`cf.user_representations_from_rows`); and each
pool is scored as a gather of table rows, multiplied by the user's
representation and summed row by row. A target's rank is the number of
pool items scored higher plus the tied items with a smaller id. Routing
counts are sums over the table's semantic-route mask, one per lookup: each
history step inside the window and each pool item.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import cf as cf_mod
from .align import COLLABORATIVE, AlignmentNetwork, decode, unified_item_embedding
from .cf import CfModel
from .data import ColdWarmPartition, SplitDataset
from .errors import DataError, DependencyError
from .metrics import bleu, hit_rate_from_ranks, ndcg_from_ranks, rouge, tokenize

__all__ = [
    "PROTOCOLS",
    "MetricReport",
    "ItemTable",
    "PoolRanker",
    "RecommendationPipeline",
    "CohortComparison",
    "sample_pool",
    "evaluate_split",
    "cold_warm_report",
    "zero_shot_eval",
    "render_metric_table",
]

logger = logging.getLogger(__name__)

PROTOCOLS = ("standard", "cold", "warm", "zero_shot")

COLLABORATIVE_PATH = "collaborative_path"
SEMANTIC_PATH = "semantic_path"


@dataclass
class MetricReport:
    hr: dict[int, float]
    ndcg: dict[int, float]
    n_users: int
    protocol: str
    seed: int
    config_digest: str
    bleu4: float | None = None
    rouge1: float | None = None
    rougeL: float | None = None
    skipped: int = 0
    # user -> 0-based target rank, in user order; not part of the JSON form
    ranks: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.n_users <= 0:
            raise DataError(f"{self.protocol} report has no evaluated users")
        for name, values in (("hr", self.hr), ("ndcg", self.ndcg)):
            for k, v in values.items():
                if not 0.0 <= v <= 1.0:
                    raise ValueError(f"{name}@{k} = {v} outside [0, 1]")
        for name in ("bleu4", "rouge1", "rougeL"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} = {v} outside [0, 1]")

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "seed": self.seed,
            "config_digest": self.config_digest,
            "n_users": self.n_users,
            "skipped": self.skipped,
            "hr": {str(k): self.hr[k] for k in sorted(self.hr)},
            "ndcg": {str(k): self.ndcg[k] for k in sorted(self.ndcg)},
            "bleu4": self.bleu4,
            "rouge1": self.rouge1,
            "rougeL": self.rougeL,
        }


@dataclass(frozen=True)
class ItemTable:
    """Item vectors computed once, one row per item in id order.

    `collaborative[i]` is `items[i]`'s collaborative-space vector: its CF
    embedding row, or the decoded semantic reconstruction for an item
    outside the CF vocabulary, which `semantic[i]` marks. `latent[i]` is its
    unified latent vector, present when the table was built with latent rows.
    """

    items: list[str]
    index: dict[str, int]
    collaborative: np.ndarray
    semantic: np.ndarray
    latent: np.ndarray | None = None

    def rows(self, items) -> np.ndarray:
        index = self.index
        return np.fromiter((index[item] for item in items), dtype=np.intp, count=len(items))


class PoolRanker:
    """A ranker that orders one candidate pool at a time.

    `evaluate_split` asks for `target_ranks(histories, pools)`: the 0-based
    position of each pool's first item (the target) in its ordered pool.
    Subclasses implement `rank_pool`; a batched ranker overrides both.
    """

    def rank_pool(self, history: list[str], pool: list[str]) -> list[str]:
        raise NotImplementedError

    def target_ranks(self, histories: list[list[str]], pools: list[list[str]]) -> list[int]:
        return [list(self.rank_pool(h, pool)).index(pool[0]) for h, pool in zip(histories, pools)]


def _target_rank(scores: np.ndarray, pool: list[str]) -> int:
    """0-based position of pool[0] in the pool ordered by score descending,
    ties by id ascending."""
    top = scores[0]
    tied = np.flatnonzero(scores == top)
    return int(np.count_nonzero(scores > top)) + sum(pool[i] < pool[0] for i in tied)


@dataclass
class RecommendationPipeline(PoolRanker):
    """Trained CF backbone plus the semantic fallback for unseen items."""

    cf_model: CfModel
    alignment: AlignmentNetwork | None = None
    semantic_map: dict[str, np.ndarray] | None = None
    routing: Counter = field(default_factory=Counter)

    def _count(self, table: ItemTable, rows: np.ndarray) -> None:
        semantic = int(np.count_nonzero(table.semantic[rows]))
        self.routing[SEMANTIC_PATH] += semantic
        self.routing[COLLABORATIVE_PATH] += len(rows) - semantic

    def item_vector(self, item: str) -> np.ndarray:
        """The item's row of a one-item ItemTable, counted as one lookup; a fresh copy."""
        table = self.item_table([item])
        self._count(table, np.zeros(1, dtype=np.intp))
        return table.collaborative[0]

    def item_table(self, items, latent: bool = False) -> ItemTable:
        """A fresh ItemTable over the given items, in id order; building it
        counts no lookups.

        Warm rows are one gather from the CF embedding matrix. Each item
        outside the CF vocabulary, and with `latent` every item, gets one
        `unified_item_embedding` call; a cold item's collaborative row is
        the decoded latent vector of that call.
        """
        items = sorted(set(items))
        n, index = len(items), self.cf_model.item_index
        semantic = np.fromiter((item not in index for item in items), dtype=bool, count=n)
        cold = np.flatnonzero(semantic)
        if self.alignment is None:
            if latent:
                raise ValueError("latent item rows need an alignment network")
            if len(cold):
                raise DependencyError(
                    f"item {items[cold[0]]!r} is outside the CF vocabulary and needs the "
                    "alignment network; run train-align first"
                )
        semantic_map = self.semantic_map or {}
        vectors = {
            i: unified_item_embedding(self.alignment, items[i], self.cf_model, semantic_map)
            for i in (range(n) if latent else cold)
        }
        # a cold item gathers the padding row, then takes its decoded vector
        collaborative = self.cf_model.params["item_emb"][[index.get(item, 0) for item in items]]
        for i in cold:
            collaborative[i] = decode(self.alignment, COLLABORATIVE, vectors[i])
        latent_rows = None
        if latent:
            latent_rows = np.array(list(vectors.values())).reshape(n, self.alignment.latent_dim)
        return ItemTable(
            items=items,
            index={item: i for i, item in enumerate(items)},
            collaborative=collaborative,
            semantic=semantic,
            latent=latent_rows,
        )

    def _recent(self, histories) -> list[list[str]]:
        window = self.cf_model.config.max_history
        recent = [list(history)[-window:] for history in histories]
        if not all(recent):
            raise ValueError("history must be non-empty")
        return recent

    def user_vectors(self, histories, table: ItemTable | None = None) -> np.ndarray:
        """(n, d) representations of the users' histories from collaborative-space
        rows; each step inside the window counts as one lookup."""
        recent = self._recent(histories)
        if table is None:
            table = self.item_table(chain.from_iterable(recent))
        rows = [table.rows(history) for history in recent]
        self._count(table, np.concatenate(rows))
        return cf_mod.user_representations_from_rows(self.cf_model, table.collaborative, rows)

    def user_vector(self, history: list[str]) -> np.ndarray:
        return self.user_vectors([history])[0]

    def pool_scores(self, histories, pools) -> list[np.ndarray]:
        """Each pool's item scores against its user's representation; each
        pool item counts as one lookup."""
        recent = self._recent(histories)
        table = self.item_table(chain(chain.from_iterable(recent), chain.from_iterable(pools)))
        reps = self.user_vectors(recent, table)
        rows = [table.rows(pool) for pool in pools]
        self._count(table, np.concatenate(rows))
        return [(table.collaborative[r] * rep).sum(axis=1) for r, rep in zip(rows, reps)]

    def target_ranks(self, histories, pools) -> list[int]:
        scores = self.pool_scores(histories, pools)
        return [_target_rank(s, pool) for s, pool in zip(scores, pools)]

    def rank_pool(self, history: list[str], pool: list[str]) -> list[str]:
        """Pool ids by score descending, ties broken by id ascending."""
        scores = self.pool_scores([history], [pool])[0]
        return [pool[i] for i in sorted(range(len(pool)), key=lambda i: (-scores[i], pool[i]))]


def sample_pool(split: SplitDataset, user: str, target: str, universe: list[str],
                position: dict[str, int], size: int, rng: np.random.Generator) -> list[str]:
    """The target plus `size - 1` items drawn without replacement from the
    universe items outside the user's sequence, or all of them when there
    are too few (logged). `position` maps each universe item to its index."""
    mask = np.ones(len(universe), dtype=bool)
    mask[[position[item] for item in split.full_sequence(user)]] = False
    eligible = np.flatnonzero(mask)
    wanted = size - 1
    if len(eligible) < wanted:
        logger.info("pool shortfall for target %s: %d eligible < %d wanted; using all",
                    target, len(eligible), wanted)
        negatives = eligible
    else:
        negatives = eligible[rng.choice(len(eligible), size=wanted, replace=False)]
    return [target] + [universe[i] for i in negatives]


def _report_from_ranks(ranks: dict[str, int], ks, protocol, seed, config_digest, **text):
    """A MetricReport over the given users' 0-based target ranks, summed in user order."""
    values = list(ranks.values())
    hr = {k: hit_rate_from_ranks(values, k) for k in ks}
    ndcg = {k: ndcg_from_ranks(values, k) for k in ks}
    return MetricReport(hr, ndcg, len(ranks), protocol, seed, config_digest, ranks=ranks, **text)


def evaluate_split(
    pipeline: PoolRanker,
    split: SplitDataset,
    ks: list[int],
    candidate_pool_size: int = 100,
    seed: int = 0,
    protocol: str = "standard",
    config_digest: str = "",
    references: dict[tuple[str, str], str] | None = None,
    explainer=None,
) -> MetricReport:
    """Pooled leave-one-out ranking over the split's test targets.

    Negatives are drawn per user, in user order, from the item universe minus
    the user's own sequence; a short pool falls back to all eligible items
    (logged), and a pool shorter than the largest cutoff is a DataError. All
    pools are then ranked in one `pipeline.target_ranks` call, and the report
    keeps each user's target rank. When an explanation generator and
    reference texts are both supplied, BLEU-4 / ROUGE are averaged over the
    covered (user, target) pairs.
    """
    if not ks:
        raise ValueError("ks must be non-empty")
    if candidate_pool_size < max(ks):
        raise ValueError(
            f"candidate pool {candidate_pool_size} is smaller than max k {max(ks)}"
        )
    rng = np.random.default_rng(seed)
    universe = sorted(split.item_universe())
    position = {item: i for i, item in enumerate(universe)}
    users = sorted(split.train)
    if not users:
        raise DataError(f"{protocol} evaluation covered no users")

    histories: list[list[str]] = []
    pools: list[list[str]] = []
    text_rows: dict[str, list[float]] = {"bleu4": [], "rouge1": [], "rougeL": []}
    for user in users:
        target = split.test[user]
        pool = sample_pool(split, user, target, universe, position, candidate_pool_size, rng)
        if len(pool) < max(ks):
            raise DataError(
                f"user {user!r} has a pool of {len(pool)} items (candidate pool size "
                f"{candidate_pool_size}), fewer than k={max(ks)}"
            )
        pools.append(pool)
        histories.append(split.train[user] + [split.validation[user]])
        if references is not None and explainer is not None:
            reference = references.get((user, target))
            if reference is not None:
                generated = tokenize(explainer(user, target))
                ref_tokens = tokenize(reference)
                text_rows["bleu4"].append(bleu(generated, ref_tokens))
                text_rows["rouge1"].append(rouge(generated, ref_tokens, "rouge1"))
                text_rows["rougeL"].append(rouge(generated, ref_tokens, "rougeL"))
    ranks = pipeline.target_ranks(histories, pools)
    text = {name: float(np.mean(rows)) if rows else None for name, rows in text_rows.items()}
    return _report_from_ranks(dict(zip(users, ranks)), ks, protocol, seed, config_digest, **text)


@dataclass
class CohortComparison:
    warm: MetricReport
    cold: MetricReport
    gap: dict[str, dict[int, float | None]]


def cold_warm_report(
    standard: MetricReport, split: SplitDataset, partition: ColdWarmPartition
) -> CohortComparison:
    """The standard report's users cut by their target's cohort: separate
    reports for warm and cold targets over the same ranks, plus the signed
    relative gap (warm - cold) / warm per metric and cutoff."""
    ks = list(standard.hr)
    cohorts: dict[str, dict[str, int]] = {"warm": {}, "cold": {}}
    for user, rank in standard.ranks.items():
        target = split.test[user]
        if target in partition.cold:
            cohorts["cold"][user] = rank
        elif target in partition.warm:
            cohorts["warm"][user] = rank
    reports = {}
    for name, ranks in cohorts.items():
        if not ranks:
            raise DataError(f"{name} cohort is empty")
        reports[name] = _report_from_ranks(ranks, ks, name, standard.seed, standard.config_digest)

    def relative_gap(metric: str, k: int) -> float | None:
        warm, cold = getattr(reports["warm"], metric)[k], getattr(reports["cold"], metric)[k]
        return None if warm == 0.0 else (warm - cold) / warm

    gap = {metric: {k: relative_gap(metric, k) for k in ks} for metric in ("hr", "ndcg")}
    return CohortComparison(warm=reports["warm"], cold=reports["cold"], gap=gap)


def zero_shot_eval(
    pipeline: RecommendationPipeline,
    target_split: SplitDataset,
    target_semantic_map: dict[str, np.ndarray],
    ks: list[int],
    candidate_pool_size: int = 100,
    seed: int = 0,
    config_digest: str = "",
) -> MetricReport:
    """Frozen source pipeline evaluated on a disjoint-vocabulary domain.

    Every target-domain item must be absent from the source collaborative
    vocabulary and present in the target semantic map, so each lookup takes
    the semantic path (asserted after the run).
    """
    if pipeline.alignment is None:
        raise ValueError("zero-shot transfer needs a trained alignment network")
    universe = sorted(target_split.item_universe())
    for item in universe:
        if item in pipeline.cf_model.item_index:
            raise DataError(
                f"target-domain item {item!r} is inside the source collaborative vocabulary"
            )
        if item not in target_semantic_map:
            raise DataError(f"target-domain item {item!r} lacks a semantic embedding")
    transfer = RecommendationPipeline(
        cf_model=pipeline.cf_model,
        alignment=pipeline.alignment,
        semantic_map=target_semantic_map,
    )
    report = evaluate_split(
        transfer,
        target_split,
        ks,
        candidate_pool_size,
        seed=seed,
        protocol="zero_shot",
        config_digest=config_digest,
    )
    if transfer.routing[COLLABORATIVE_PATH] != 0:
        raise DataError("zero-shot evaluation touched the collaborative path")
    return report


def render_metric_table(reports: list[MetricReport]) -> str:
    """Fixed-width summary, one row per report."""
    ks = sorted({k for report in reports for k in report.hr})
    header = ["protocol", "users"]
    header += [f"hr@{k}" for k in ks] + [f"ndcg@{k}" for k in ks]
    header += ["bleu4", "rouge1", "rougeL"]
    lines = ["  ".join(f"{h:>10}" for h in header)]
    for report in reports:
        cells = [f"{report.protocol:>10}", f"{report.n_users:>10d}"]
        for k in ks:
            cells.append(f"{report.hr.get(k, float('nan')):>10.4f}")
        for k in ks:
            cells.append(f"{report.ndcg.get(k, float('nan')):>10.4f}")
        for name in ("bleu4", "rouge1", "rougeL"):
            value = getattr(report, name)
            cells.append(f"{value:>10.4f}" if value is not None else f"{'-':>10}")
        lines.append("  ".join(cells))
    return "\n".join(lines) + "\n"
