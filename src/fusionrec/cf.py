"""Self-attention sequential recommender trained from scratch, then frozen.

Pure numpy (float64) with hand-written gradients so that finite-difference
verification is exact and checkpoints are byte-stable. Sequences are
right-aligned with pad index 0; the user representation is the output of the
final (most recent) position after the attention blocks.

Supplies the collaborative item embeddings, user representations, next-item
score distributions, and verbalized priors consumed downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .errors import TrainingError
from .optim import make_optimizer, xavier

__all__ = [
    "CfConfig",
    "CfModel",
    "train_cf",
    "training_loss_and_gradients",
    "user_representation",
    "user_representation_from_vectors",
    "item_embedding",
    "next_item_scores",
    "next_item_probabilities",
    "rank_by_score",
    "verbalize_prior",
]

_NEG_INF = -1e30


@dataclass
class CfConfig:
    embed_dim: int = 50
    max_history: int = 50
    blocks: int = 2
    heads: int = 1
    dropout: float = 0.0
    epochs: int = 20
    batch_size: int = 64
    learning_rate: float = 1e-3
    optimizer: str = "adam"

    def __post_init__(self):
        if self.embed_dim % self.heads != 0:
            raise ValueError("embed_dim must be divisible by heads")
        if self.max_history < 1:
            raise ValueError("max_history must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


@dataclass
class CfModel:
    config: CfConfig
    item_index: dict[str, int]  # item id -> row in item_emb (1-based; 0 is pad)
    items: list[str]  # row order, items[i] has index i+1
    params: dict[str, np.ndarray]
    frozen: bool = False
    training_log: list[float] = field(default_factory=list)

    def has_item(self, item: str) -> bool:
        return item in self.item_index

    def indices_for(self, history: list[str]) -> list[int]:
        return [self.item_index[q] for q in history]


def _init_params(config: CfConfig, n_items: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    d = config.embed_dim
    params: dict[str, np.ndarray] = {}
    params["item_emb"] = rng.normal(0.0, 0.1, size=(n_items + 1, d))
    params["item_emb"][0] = 0.0
    params["pos_emb"] = rng.normal(0.0, 0.1, size=(config.max_history, d))

    for b in range(config.blocks):
        for name in ("wq", "wk", "wv", "wo", "w1", "w2"):
            params[f"blk{b}.{name}"] = xavier(rng, d, d)
        for name in ("bq", "bk", "bv", "bo", "b1", "b2"):
            params[f"blk{b}.{name}"] = np.zeros(d)
    return params


def _pad_batch(histories: list[list[int]], max_history: int) -> np.ndarray:
    """Right-align index lists into a (B, L) int matrix with pad 0 on the left."""
    clipped = [h[-max_history:] for h in histories]
    length = max(len(h) for h in clipped)
    ids = np.zeros((len(clipped), length), dtype=np.int64)
    for i, h in enumerate(clipped):
        ids[i, length - len(h):] = h
    return ids


def _forward(params: dict, config: CfConfig, ids: np.ndarray, drop_masks=None, h0=None):
    """Run the attention stack; returns final-position outputs and a cache.

    ``h0`` overrides the embedding-plus-position lookup when the caller
    supplies per-step input vectors directly (zero-shot histories).
    """
    n_b, length = ids.shape
    d = config.embed_dim
    heads = config.heads
    d_h = d // heads
    real = (ids != 0).astype(np.float64)
    mask = real[:, :, None]
    if h0 is None:
        pos = params["pos_emb"][config.max_history - length:]
        h0 = params["item_emb"][ids] + pos[None, :, :]
    h = h0 * mask
    if drop_masks is not None:
        h = h * drop_masks["emb"]
    causal = np.tril(np.ones((length, length), dtype=bool))
    allow = causal[None, None, :, :] & (real[:, None, None, :] > 0)
    cache = {"ids": ids, "mask": mask, "allow": allow, "length": length, "blocks": []}
    for b in range(config.blocks):
        p = lambda n: params[f"blk{b}.{n}"]
        q = h @ p("wq").T + p("bq")
        k = h @ p("wk").T + p("bk")
        v = h @ p("wv").T + p("bv")

        def split(x):
            return x.reshape(n_b, length, heads, d_h).transpose(0, 2, 1, 3)

        qh, kh, vh = split(q), split(k), split(v)
        scores = qh @ kh.swapaxes(-1, -2) / math.sqrt(d_h)
        scores = np.where(allow, scores, _NEG_INF)
        m = scores.max(axis=-1, keepdims=True)
        e = np.exp(scores - m) * allow
        denom = np.maximum(e.sum(axis=-1, keepdims=True), 1e-30)
        attn = e / denom
        ctx_h = attn @ vh
        ctx = ctx_h.transpose(0, 2, 1, 3).reshape(n_b, length, d)
        out = ctx @ p("wo").T + p("bo")
        if drop_masks is not None:
            out = out * drop_masks[f"attn{b}"]
        h_attn = (h + out) * mask
        pre = h_attn @ p("w1").T + p("b1")
        act = np.maximum(pre, 0.0)
        ffn = act @ p("w2").T + p("b2")
        if drop_masks is not None:
            ffn = ffn * drop_masks[f"ffn{b}"]
        h_new = (h_attn + ffn) * mask
        cache["blocks"].append(
            {"h_in": h, "qh": qh, "kh": kh, "vh": vh, "attn": attn, "ctx": ctx,
             "h_attn": h_attn, "pre": pre, "act": act}
        )
        h = h_new
    cache["h_final"] = h
    return h[:, -1, :], cache


def _backward(params: dict, config: CfConfig, cache: dict, d_rep: np.ndarray, drop_masks=None):
    """Backpropagate d(loss)/d(final outputs) through the stack."""
    n_b = d_rep.shape[0]
    length = cache["length"]
    d = config.embed_dim
    heads = config.heads
    d_h = d // heads
    mask = cache["mask"]
    allow = cache["allow"]
    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    dh = np.zeros((n_b, length, d))
    dh[:, -1, :] = d_rep
    for b in reversed(range(config.blocks)):
        blk = cache["blocks"][b]
        p = lambda n: params[f"blk{b}.{n}"]
        g = lambda n: grads[f"blk{b}.{n}"]
        # h_new = (h_attn + ffn) * mask
        d_sum = dh * mask
        d_ffn = d_sum
        if drop_masks is not None:
            d_ffn = d_ffn * drop_masks[f"ffn{b}"]
        d_h_attn = d_sum.copy()
        # ffn = relu(h_attn @ w1.T + b1) @ w2.T + b2
        g("w2")[...] += d_ffn.reshape(-1, d).T @ blk["act"].reshape(-1, d)
        g("b2")[...] += d_ffn.sum(axis=(0, 1))
        d_act = d_ffn @ p("w2")
        d_pre = d_act * (blk["pre"] > 0)
        g("w1")[...] += d_pre.reshape(-1, d).T @ blk["h_attn"].reshape(-1, d)
        g("b1")[...] += d_pre.sum(axis=(0, 1))
        d_h_attn += d_pre @ p("w1")
        # h_attn = (h_in + out) * mask
        d_sum2 = d_h_attn * mask
        d_out = d_sum2
        if drop_masks is not None:
            d_out = d_out * drop_masks[f"attn{b}"]
        dh = d_sum2.copy()
        # out = ctx @ wo.T + bo
        g("wo")[...] += d_out.reshape(-1, d).T @ blk["ctx"].reshape(-1, d)
        g("bo")[...] += d_out.sum(axis=(0, 1))
        d_ctx = d_out @ p("wo")
        d_ctx_h = d_ctx.reshape(n_b, length, heads, d_h).transpose(0, 2, 1, 3)
        attn = blk["attn"]
        d_attn = d_ctx_h @ blk["vh"].swapaxes(-1, -2)
        d_vh = attn.swapaxes(-1, -2) @ d_ctx_h
        # softmax over allowed keys (pad-query rows are identically zero)
        inner = (d_attn * attn).sum(axis=-1, keepdims=True)
        d_scores = attn * (d_attn - inner)
        d_scores = np.where(allow, d_scores, 0.0) / math.sqrt(d_h)
        d_qh = d_scores @ blk["kh"]
        d_kh = d_scores.swapaxes(-1, -2) @ blk["qh"]

        def merge(x):
            return x.transpose(0, 2, 1, 3).reshape(n_b, length, d)

        d_q, d_k, d_v = merge(d_qh), merge(d_kh), merge(d_vh)
        h_in = blk["h_in"].reshape(-1, d)
        for nm, dx in (("wq", d_q), ("wk", d_k), ("wv", d_v)):
            g(nm)[...] += dx.reshape(-1, d).T @ h_in
            grads[f"blk{b}.b{nm[1]}"] += dx.sum(axis=(0, 1))
            dh += dx @ p(nm)
    if drop_masks is not None:
        dh = dh * drop_masks["emb"]
    d_h0 = dh * mask
    np.add.at(grads["item_emb"], cache["ids"], d_h0)
    grads["pos_emb"][config.max_history - length:] += d_h0.sum(axis=0)
    return grads


def _batch_loss(params, config, histories, cand_idx, labels, drop_masks=None):
    """Mean binary cross-entropy of sigmoid(rep . item_emb[candidate])."""
    ids = _pad_batch(histories, config.max_history)
    rep, cache = _forward(params, config, ids, drop_masks)
    e_c = params["item_emb"][cand_idx]
    s = np.sum(rep * e_c, axis=1)
    # log(1 + exp(s)) - y*s, computed stably
    losses = np.logaddexp(0.0, s) - labels * s
    return float(losses.mean()), (rep, cache, e_c, s, ids)


def training_loss_and_gradients(
    model_or_params, config: CfConfig, instances, item_index: dict[str, int], drop_masks=None
):
    """Loss and analytic gradients on a batch of TrainingInstances.

    Exposed so that the finite-difference harness can call the exact
    function the training loop optimizes.
    """
    params = model_or_params.params if hasattr(model_or_params, "params") else model_or_params
    histories = [[item_index[q] for q in inst.history] for inst in instances]
    cand_idx = np.array([item_index[inst.candidate] for inst in instances], dtype=np.int64)
    labels = np.array([inst.label for inst in instances], dtype=np.float64)
    loss, (rep, cache, e_c, s, ids) = _batch_loss(
        params, config, histories, cand_idx, labels, drop_masks
    )
    d_s = (expit(s) - labels) / len(instances)
    d_rep = d_s[:, None] * e_c
    grads = _backward(params, config, cache, d_rep, drop_masks)
    np.add.at(grads["item_emb"], cand_idx, d_s[:, None] * rep)
    grads["item_emb"][0] = 0.0
    return loss, grads


def _draw_drop_masks(config: CfConfig, shape, rng):
    if config.dropout == 0.0:
        return None
    keep = 1.0 - config.dropout
    masks = {"emb": (rng.random(shape) < keep) / keep}
    for b in range(config.blocks):
        masks[f"attn{b}"] = (rng.random(shape) < keep) / keep
        masks[f"ffn{b}"] = (rng.random(shape) < keep) / keep
    return masks


def train_cf(
    instances,
    config: CfConfig,
    rng: np.random.Generator,
    item_index: dict[str, int] | None = None,
) -> CfModel:
    """Train on (history, candidate, label) instances; returns a frozen model.

    The item vocabulary is exactly the set of items appearing in the given
    instances (first-seen order) unless an explicit index is supplied.
    """
    if not instances:
        raise ValueError("no training instances")
    if item_index is None:
        item_index = {}
        for inst in instances:
            for q in (*inst.history, inst.candidate):
                if q not in item_index:
                    item_index[q] = len(item_index) + 1
    else:
        for inst in instances:
            for q in (*inst.history, inst.candidate):
                if q not in item_index:
                    raise ValueError(f"instance item {q!r} missing from item index")
    items = [None] * len(item_index)
    for q, idx in item_index.items():
        items[idx - 1] = q
    params = _init_params(config, len(item_index), rng)
    opt = make_optimizer(config.optimizer, config.learning_rate)
    log: list[float] = []
    order = np.arange(len(instances))
    for epoch in range(config.epochs):
        perm = rng.permutation(order)
        epoch_loss = 0.0
        for start in range(0, len(perm), config.batch_size):
            batch = [instances[i] for i in perm[start : start + config.batch_size]]
            max_len = min(config.max_history, max(len(b.history) for b in batch))
            drop = _draw_drop_masks(config, (len(batch), max_len, config.embed_dim), rng)
            loss, grads = training_loss_and_gradients(params, config, batch, item_index, drop)
            if not math.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}")
            opt.step(params, grads)
            params["item_emb"][0] = 0.0
            epoch_loss += loss * len(batch)
        log.append(epoch_loss / len(instances))
    model = CfModel(config=config, item_index=item_index, items=items, params=params,
                    frozen=True, training_log=log)
    for arr in model.params.values():
        arr.flags.writeable = False
    return model


def user_representation(model: CfModel, history: list[str]) -> np.ndarray:
    """Final-position output of the attention stack over the recent history."""
    if not history:
        raise ValueError("history must be non-empty; cold users take the semantic path upstream")
    idx = model.indices_for(list(history)[-model.config.max_history:])
    rep, _ = _forward(model.params, model.config, np.array([idx], dtype=np.int64))
    return rep[0]


def user_representation_from_vectors(model: CfModel, vectors: np.ndarray) -> np.ndarray:
    """Like user_representation, but takes per-step embedding vectors directly.

    Used when history items are outside the collaborative vocabulary and the
    caller substitutes reconstructed embeddings (zero-shot transfer).
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise ValueError("need a non-empty (steps, embed_dim) array")
    vecs = vectors[-model.config.max_history:]
    length = vecs.shape[0]
    config = model.config
    pos = model.params["pos_emb"][config.max_history - length:]
    h0 = (vecs + pos)[None, :, :]
    ids = np.ones((1, length), dtype=np.int64)  # all positions real
    rep, _ = _forward(model.params, config, ids, h0=h0)
    return rep[0]


def item_embedding(model: CfModel, item: str) -> np.ndarray | None:
    """Row of the (frozen) embedding matrix, or None for unknown items.

    None is the cold-item signal: the caller routes such items through the
    semantic path instead of treating this as an error.
    """
    idx = model.item_index.get(item)
    if idx is None:
        return None
    return model.params["item_emb"][idx].copy()


def next_item_scores(model: CfModel, history: list[str]) -> np.ndarray:
    """Dot product of the user representation against every item embedding.

    Entry i scores model.items[i]. Use rank_by_score for the id-ascending
    tie-break, and next_item_probabilities for the softmax-normalized copy.
    """
    rep = user_representation(model, history)
    return model.params["item_emb"][1:] @ rep


def next_item_probabilities(model: CfModel, history: list[str]) -> np.ndarray:
    scores = next_item_scores(model, history)
    shifted = scores - scores.max()
    e = np.exp(shifted)
    return e / e.sum()


def rank_by_score(model: CfModel, scores: np.ndarray) -> list[str]:
    """Item ids sorted by score descending, ties broken by id ascending."""
    order = sorted(range(len(model.items)), key=lambda i: (-scores[i], model.items[i]))
    return [model.items[i] for i in order]


def verbalize_prior(score: float, calibration: np.ndarray | None = None) -> str:
    """Render a prior as "likelihood P%".

    With a calibration context (all item scores), P is the midrank percentile
    of the score among them; a full tie sits at the 50% midpoint by
    convention. Without a context the score must already be a normalized
    probability and is rendered directly (0.88 -> "likelihood 88%").
    """
    if calibration is None:
        if not 0.0 <= score <= 1.0:
            raise ValueError("without a calibration context the score must be a probability")
        pct = int(math.floor(100.0 * score + 0.5))
        return f"likelihood {pct}%"
    calibration = np.asarray(calibration, dtype=np.float64)
    if calibration.size == 0:
        raise ValueError("calibration context must be non-empty")
    worse = int(np.sum(calibration < score))
    ties = int(np.sum(calibration == score))
    if ties == calibration.size:
        pct = 50
    else:
        pct = int(math.floor(100.0 * (worse + 0.5 * (ties - 1)) / calibration.size + 0.5))
    return f"likelihood {pct}%"
