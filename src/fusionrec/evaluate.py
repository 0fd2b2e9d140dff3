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

Scoring is batched. Pools are rows of the sorted item universe (`Pools`),
drawn with one ownership mask per chunk of users. The pipeline builds one
`ItemTable` for the items a stage needs, computing each item's row once;
users are represented in length-grouped batches gathered from the table's
rows by index (`cf.user_representations_from_rows`); and all pools are
mapped to table rows at once, then scored a chunk of pools at a time (as
many table rows as one CF forward group of `cf.FORWARD_ROWS` users
gathers) as one gather of table rows, multiplied by the users'
representations and summed over the last axis. A target's rank is the
number of pool items scored higher plus the tied items with a smaller id,
two counts per chunk. Routing counts are sums over the table's
semantic-route mask, one per lookup: each history step inside the window
and each pool item.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import cf as cf_mod
from .align import COLLABORATIVE, AlignmentNetwork, decode, unified_item_embedding
from .cf import FORWARD_ROWS, CfModel
from .data import ColdWarmPartition, SplitDataset, unowned_columns
from .errors import DataError, DependencyError
from .metrics import bleu, hit_rate_from_ranks, ndcg_from_ranks, rouge, tokenize

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
    # users whose pool came up short of the pool size; not part of the JSON form
    pool_shortfalls: int = 0

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


@dataclass(frozen=True)
class Pools:
    """Candidate pools as rows of one sorted item universe.

    Pool u is `rows[u, :lengths[u]]`, its target first; the entries past
    `lengths[u]` are padding. `pools[u]` is pool u as item ids, so a
    `PoolRanker` that iterates the pools sees id lists.
    """

    universe: list[str]
    rows: np.ndarray
    lengths: np.ndarray

    @classmethod
    def of(cls, pools) -> Pools:
        """Pools given as id lists, over the sorted set of their items."""
        pools = [list(pool) for pool in pools]
        universe = sorted(set(chain.from_iterable(pools)))
        position = {item: i for i, item in enumerate(universe)}
        lengths = np.array([len(pool) for pool in pools], dtype=np.intp)
        rows = np.zeros((len(pools), max(lengths, default=0)), dtype=np.intp)
        rows[np.arange(rows.shape[1]) < lengths[:, None]] = np.fromiter(
            (position[item] for item in chain.from_iterable(pools)), dtype=np.intp,
            count=int(lengths.sum()),
        )
        return cls(universe, rows, lengths)

    def valid(self) -> np.ndarray:
        """(n, width) mask of the entries that belong to a pool."""
        return np.arange(self.rows.shape[1]) < self.lengths[:, None]

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, u: int) -> list[str]:
        universe = self.universe
        return [universe[r] for r in self.rows[u, : self.lengths[u]].tolist()]

    def __iter__(self):
        return (self[u] for u in range(len(self)))


class PoolRanker:
    """A ranker that orders one candidate pool at a time.

    `evaluate_split` asks for `target_ranks(histories, pools)`: the 0-based
    position of each pool's first item (the target) in its ordered pool,
    with the pools a sequence of id lists. Subclasses implement `rank_pool`;
    a batched ranker overrides both.
    """

    def rank_pool(self, history: list[str], pool: list[str]) -> list[str]:
        raise NotImplementedError

    def target_ranks(self, histories: list[list[str]], pools) -> list[int]:
        return [list(self.rank_pool(h, pool)).index(pool[0]) for h, pool in zip(histories, pools)]


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
        steps = table.rows(list(chain.from_iterable(recent)))
        self._count(table, steps)
        rows = np.split(steps, np.cumsum([len(history) for history in recent])[:-1])
        return cf_mod.user_representations_from_rows(self.cf_model, table.collaborative, rows)

    def user_vector(self, history: list[str]) -> np.ndarray:
        return self.user_vectors([history])[0]

    def _scored_chunks(self, histories, pools: Pools):
        """(rows, valid, scores) per chunk of pools, each (B, width): the pool
        entries as table rows, the mask of real entries and their scores
        against the user's representation.

        The table holds the history items and the items some pool holds; all
        pools map to its rows in one gather. Each pool item counts as one lookup.
        """
        recent = self._recent(histories)
        valid = pools.valid()
        used = np.zeros(len(pools.universe), dtype=bool)
        used[pools.rows[valid]] = True
        used_items = [pools.universe[i] for i in np.flatnonzero(used).tolist()]
        table = self.item_table(chain(chain.from_iterable(recent), used_items))
        reps = self.user_vectors(recent, table)
        to_table = np.zeros(len(pools.universe), dtype=np.intp)
        to_table[used] = table.rows(used_items)
        rows = to_table[pools.rows]
        self._count(table, rows[valid])
        # a chunk gathers at most as many rows as one CF forward group of FORWARD_ROWS users
        size = max(1, FORWARD_ROWS * self.cf_model.config.max_history // max(rows.shape[1], 1))
        for start in range(0, len(rows), size):
            block = rows[start : start + size]
            vectors = table.collaborative[block]
            vectors *= reps[start : start + size, None, :]
            yield block, valid[start : start + size], vectors.sum(axis=-1)

    def pool_scores(self, histories, pools) -> list[np.ndarray]:
        """Each pool's item scores against its user's representation; each
        pool item counts as one lookup."""
        pools = pools if isinstance(pools, Pools) else Pools.of(pools)
        return [
            pool_scores[pool_valid]
            for _, valid, scores in self._scored_chunks(histories, pools)
            for pool_valid, pool_scores in zip(valid, scores)
        ]

    def target_ranks(self, histories, pools) -> list[int]:
        """Each target's 0-based rank: the pool items scored above it, plus
        the tied ones with a smaller id (a smaller table row)."""
        pools = pools if isinstance(pools, Pools) else Pools.of(pools)
        ranks: list[int] = []
        for rows, valid, scores in self._scored_chunks(histories, pools):
            top = scores[:, :1]
            above = np.count_nonzero((scores > top) & valid, axis=1)
            tied = np.count_nonzero((scores == top) & (rows < rows[:, :1]) & valid, axis=1)
            ranks.extend((above + tied).tolist())
        return ranks

    def rank_pool(self, history: list[str], pool: list[str]) -> list[str]:
        """Pool ids by score descending, ties broken by id ascending."""
        scores = self.pool_scores([history], [pool])[0]
        return [pool[i] for i in sorted(range(len(pool)), key=lambda i: (-scores[i], pool[i]))]


def draw_pools(split: SplitDataset, targets: dict[str, str], size: int,
               rng: np.random.Generator) -> Pools:
    """One pool per user, in user order: the user's target plus `size - 1`
    items drawn without replacement from the universe items outside the
    user's sequence, or all of them when there are too few (a shortfall).

    Each chunk of FORWARD_ROWS users gets one ownership mask over the
    universe. Each user with enough eligible items makes one `rng.choice`
    call over their positions, in user order.
    """
    universe = sorted(split.item_universe())
    position = {item: i for i, item in enumerate(universe)}
    users = split.users()
    wanted = size - 1
    rows = np.zeros((len(users), min(size, len(universe))), dtype=np.intp)
    rows[:, :1] = np.array([position[targets[user]] for user in users], dtype=np.intp)[:, None]
    lengths = np.empty(len(users), dtype=np.intp)
    for start in range(0, len(users), FORWARD_ROWS):
        chunk = [split.full_sequence(user) for user in users[start : start + FORWARD_ROWS]]
        eligible, starts, counts = unowned_columns(chunk, position, len(universe))
        block = rows[start : start + len(chunk)]
        full = counts >= wanted
        picks = [rng.choice(count, size=wanted, replace=False) for count in counts[full].tolist()]
        if picks:
            block[full, 1:] = eligible[starts[full, None] + np.array(picks)]
        if not full.all():  # a short pool takes every eligible item, in universe order
            short = np.zeros(block.shape, dtype=bool)
            column = np.arange(block.shape[1])
            short[~full] = (column >= 1) & (column <= counts[~full, None])
            block[short] = eligible[np.repeat(~full, counts)]
        lengths[start : start + len(chunk)] = np.where(full, size, 1 + counts)
    return Pools(universe, rows, lengths)


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

    Each user's pool is its `draw_pools` pool around its test item; a pool
    shorter than the largest cutoff is a DataError. All pools are ranked in
    one `pipeline.target_ranks` call, and the report keeps each user's target
    rank and counts the pools shorter than `candidate_pool_size`. When an
    explanation generator and reference texts are both supplied, BLEU-4 /
    ROUGE are averaged over the covered (user, target) pairs.
    """
    if not ks:
        raise ValueError("ks must be non-empty")
    if candidate_pool_size < max(ks):
        raise ValueError(
            f"candidate pool {candidate_pool_size} is smaller than max k {max(ks)}"
        )
    users = split.users()
    if not users:
        raise DataError(f"{protocol} evaluation covered no users")
    pools = draw_pools(split, split.test, candidate_pool_size, np.random.default_rng(seed))
    short = np.flatnonzero(pools.lengths < max(ks))
    if len(short):
        user = users[short[0]]
        raise DataError(
            f"user {user!r} has a pool of {pools.lengths[short[0]]} items (candidate pool size "
            f"{candidate_pool_size}), fewer than k={max(ks)}"
        )

    histories = [split.train[user] + [split.validation[user]] for user in users]
    text_rows: dict[str, list[float]] = {"bleu4": [], "rouge1": [], "rougeL": []}
    if references is not None and explainer is not None:
        for user in users:
            target = split.test[user]
            reference = references.get((user, target))
            if reference is not None:
                generated = tokenize(explainer(user, target))
                ref_tokens = tokenize(reference)
                text_rows["bleu4"].append(bleu(generated, ref_tokens))
                text_rows["rouge1"].append(rouge(generated, ref_tokens, "rouge1"))
                text_rows["rougeL"].append(rouge(generated, ref_tokens, "rougeL"))
    ranks = pipeline.target_ranks(histories, pools)
    text = {name: float(np.mean(rows)) if rows else None for name, rows in text_rows.items()}
    report = _report_from_ranks(dict(zip(users, ranks)), ks, protocol, seed, config_digest, **text)
    report.pool_shortfalls = int(np.count_nonzero(pools.lengths < candidate_pool_size))
    return report


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
