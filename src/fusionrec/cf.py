"""Self-attention sequential recommender trained from scratch, then frozen.

Pure numpy (float64) with hand-written gradients so that finite-difference
verification is exact and checkpoints are byte-stable. Sequences are
left-aligned with absolute positions (position t adds ``pos_emb[t]``) and pad
index 0 after the last item; the user representation is the output at the
last real position after the attention blocks.

Training is SASRec's causal objective (Kang & McAuley, ICDM 2018): one pass
per batch of train sequences, predicting the next item at every position,
with a softmax cross-entropy over the whole vocabulary (Klenitskiy &
Vasilev, RecSys 2023). No negatives are drawn, so the vocabulary is exactly
the set of items in the train sequences.

Supplies the collaborative item embeddings, user representations, next-item
score distributions, and verbalized priors consumed downstream. User
representations are computed in batches: `user_representations` (and
`user_representations_from_vectors`) group the histories by length and run
one forward pass per group of at most `FORWARD_ROWS` histories. Grouping by
length keeps every row bit-identical to a forward pass over that history
alone, which one padded batch would not.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .optim import fit, xavier

__all__ = [
    "CfConfig",
    "CfModel",
    "train_cf",
    "training_loss_and_gradients",
    "user_representation",
    "user_representations",
    "warm_user_representations",
    "user_representation_from_vectors",
    "user_representations_from_vectors",
    "next_item_probabilities",
    "item_probabilities",
    "rank_by_score",
    "verbalize_prior",
]

_NEG_INF = -1e30

# Histories per forward pass when representing users in batches. A fixed cap
# keeps the activations held at once small whatever the number of users.
FORWARD_ROWS = 64


@dataclass
class CfConfig:
    embed_dim: int = 50
    max_history: int = 50
    blocks: int = 2
    heads: int = 1
    dropout: float = 0.0
    epochs: int = 20
    batch_size: int = 8  # sequences per step
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
    training_log: list[float] = field(default_factory=list)

    def has_item(self, item: str) -> bool:
        return item in self.item_index

    def indices_for(self, history: list[str]) -> list[int]:
        return [self.item_index[q] for q in history]

    @cached_property
    def id_order(self) -> np.ndarray:
        """Positions in `items`, ordered by item id ascending."""
        return np.array(sorted(range(len(self.items)), key=self.items.__getitem__), dtype=np.intp)


def _init_params(config: CfConfig, n_items: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    d = config.embed_dim
    params: dict[str, np.ndarray] = {}
    params["item_emb"] = rng.normal(0.0, 0.1, size=(n_items + 1, d))
    params["item_emb"][0] = 0.0
    params["pos_emb"] = rng.normal(0.0, 0.1, size=(config.max_history, d))

    for b in range(config.blocks):
        for name in ("wq", "wk", "wv", "wo", "w1", "w2"):
            params[f"blk{b}.{name}"] = xavier(rng, d, d)
        for name in ("bq", "bv", "bo", "b1", "b2"):
            params[f"blk{b}.{name}"] = np.zeros(d)
    return params


def _left_align(rows: list[list[int]]) -> np.ndarray:
    """Index lists as a (B, L) int matrix, each row from position 0, pad 0 after it."""
    ids = np.zeros((len(rows), max(len(r) for r in rows)), dtype=np.int64)
    for i, r in enumerate(rows):
        ids[i, : len(r)] = r
    return ids


def _forward(params: dict, config: CfConfig, ids: np.ndarray, drop_masks=None, h0=None):
    """Run the attention stack over left-aligned rows; returns (B, L, d) outputs and a cache.

    Pads trail every row, so the causal window of a real position holds only
    real positions and no key mask is needed; pad positions are zeroed after
    every block. ``h0`` overrides the embedding-plus-position lookup when the
    caller supplies per-step input vectors directly (zero-shot histories).
    """
    n_b, length = ids.shape
    d = config.embed_dim
    heads = config.heads
    d_h = d // heads
    mask = (ids != 0).astype(np.float64)[:, :, None]
    if h0 is None:
        h0 = params["item_emb"][ids] + params["pos_emb"][:length]
    h = h0 * mask
    if drop_masks is not None:
        h = h * drop_masks["emb"]
    causal = np.tril(np.ones((length, length), dtype=bool))
    cache = {"ids": ids, "mask": mask, "length": length, "blocks": []}
    for b in range(config.blocks):
        p = lambda n: params[f"blk{b}.{n}"]
        q = h @ p("wq").T + p("bq")
        k = h @ p("wk").T
        v = h @ p("wv").T + p("bv")

        def split(x):
            return x.reshape(n_b, length, heads, d_h).transpose(0, 2, 1, 3)

        qh, kh, vh = split(q), split(k), split(v)
        scores = np.where(causal, qh @ kh.swapaxes(-1, -2) / math.sqrt(d_h), _NEG_INF)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))  # exactly 0 above the diagonal
        attn = e / e.sum(axis=-1, keepdims=True)
        ctx = (attn @ vh).transpose(0, 2, 1, 3).reshape(n_b, length, d)
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
    return h, cache


def _backward(params: dict, config: CfConfig, cache: dict, d_outputs: np.ndarray, drop_masks=None):
    """Backpropagate d(loss)/d(outputs), given at every (B, L) position, through the stack."""
    n_b, length, d = d_outputs.shape
    heads = config.heads
    d_h = d // heads
    mask = cache["mask"]
    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    dh = d_outputs
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
        # softmax over the causal window; attn is exactly 0 outside it
        inner = (d_attn * attn).sum(axis=-1, keepdims=True)
        d_scores = attn * (d_attn - inner) / math.sqrt(d_h)
        d_qh = d_scores @ blk["kh"]
        d_kh = d_scores.swapaxes(-1, -2) @ blk["qh"]

        def merge(x):
            return x.transpose(0, 2, 1, 3).reshape(n_b, length, d)

        d_q, d_k, d_v = merge(d_qh), merge(d_kh), merge(d_vh)
        h_in = blk["h_in"].reshape(-1, d)
        for nm, dx in (("wq", d_q), ("wk", d_k), ("wv", d_v)):
            g(nm)[...] += dx.reshape(-1, d).T @ h_in
            dh += dx @ p(nm)
        g("bq")[...] += d_q.sum(axis=(0, 1))  # keys carry no bias: softmax ignores q . bk
        g("bv")[...] += d_v.sum(axis=(0, 1))
    if drop_masks is not None:
        dh = dh * drop_masks["emb"]
    d_h0 = dh * mask
    np.add.at(grads["item_emb"], cache["ids"], d_h0)
    grads["pos_emb"][:length] += d_h0.sum(axis=0)
    return grads


def _sequence_batch(instances, item_index: dict[str, int], max_history: int):
    """Left-aligned (B, L) input ids and next-item ids of a batch of TrainingSequences."""
    inputs, targets = [], []
    for inst in instances:
        if not 0 < len(inst.history) == len(inst.targets) <= max_history:
            raise ValueError(
                f"sequence of user {inst.user!r} needs 1..{max_history} inputs with one "
                f"target each, got {len(inst.history)} and {len(inst.targets)}"
            )
        inputs.append([item_index[q] for q in inst.history])
        targets.append([item_index[q] for q in inst.targets])
    return _left_align(inputs), _left_align(targets)


def training_loss_and_gradients(
    model_or_params, config: CfConfig, instances, item_index: dict[str, int], drop_masks=None
):
    """Loss and analytic gradients on a batch of TrainingSequences.

    The loss is the softmax cross-entropy of the next item over the whole
    vocabulary (pad row excluded), averaged over every real position; output
    and input item embeddings are shared. Exposed so that the
    finite-difference harness can call the exact function the training loop
    optimizes.
    """
    params = model_or_params.params if hasattr(model_or_params, "params") else model_or_params
    ids, target_ids = _sequence_batch(instances, item_index, config.max_history)
    outputs, cache = _forward(params, config, ids, drop_masks)
    real = ids != 0
    rows = outputs[real]
    classes = target_ids[real] - 1
    emb = params["item_emb"][1:]
    logits = rows @ emb.T
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    z = probs.sum(axis=1)
    picked = np.arange(len(classes))
    loss = float(np.mean(np.log(z) - logits[picked, classes]))
    d_logits = probs / z[:, None]
    d_logits[picked, classes] -= 1.0
    d_logits /= len(classes)
    d_outputs = np.zeros_like(outputs)
    d_outputs[real] = d_logits @ emb
    grads = _backward(params, config, cache, d_outputs, drop_masks)
    grads["item_emb"][1:] += d_logits.T @ rows
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


def train_cf(instances, config: CfConfig, rng: np.random.Generator) -> CfModel:
    """Train on TrainingSequences with `optim.fit`; returns a frozen model.

    The item vocabulary is exactly the set of items in the given sequences
    (first-seen order). A batch holds `batch_size` sequences and weighs its
    real positions, so each epoch's log entry is the mean cross-entropy over
    all its positions.
    """
    if not instances:
        raise ValueError("no training instances")
    item_index: dict[str, int] = {}
    for inst in instances:
        for q in (*inst.history, *inst.targets):
            if q not in item_index:
                item_index[q] = len(item_index) + 1
    items = [None] * len(item_index)
    for q, idx in item_index.items():
        items[idx - 1] = q
    params = _init_params(config, len(item_index), rng)
    positions = [len(inst.history) for inst in instances]

    def batch_loss(chosen):
        batch = [instances[i] for i in chosen]
        length = max(positions[i] for i in chosen)
        drop = _draw_drop_masks(config, (len(batch), length, config.embed_dim), rng)
        loss, grads = training_loss_and_gradients(params, config, batch, item_index, drop)
        return loss, grads, sum(positions[i] for i in chosen)

    log = fit(params, len(instances), batch_loss, epochs=config.epochs,
              batch_size=config.batch_size, optimizer=config.optimizer,
              learning_rate=config.learning_rate, rng=rng, what="loss")
    model = CfModel(config=config, item_index=item_index, items=items, params=params,
                    training_log=log)
    for arr in model.params.values():
        arr.flags.writeable = False
    return model


def user_representations(model: CfModel, histories) -> np.ndarray:
    """(n, d) last-position outputs of the attention stack, one row per history.

    Each history is cut to its most recent max_history items, and runs as
    its rows of the item embedding matrix.
    """
    item_emb = model.params["item_emb"]
    sequences = []
    for history in histories:
        if not history:
            raise ValueError("history must be non-empty; cold users take the semantic path upstream")
        sequences.append(item_emb[model.indices_for(list(history)[-model.config.max_history:])])
    return user_representations_from_vectors(model, sequences)


def warm_user_representations(model: CfModel, split, users) -> tuple[dict, np.ndarray]:
    """{user: its train items in the vocabulary} for each of the users whose
    validation item and some train item are in it, and their representations."""
    histories = {}
    for user in users:
        history = [item for item in split.train[user] if model.has_item(item)]
        if history and model.has_item(split.validation[user]):
            histories[user] = history
    return histories, user_representations(model, list(histories.values()))


def user_representations_from_vectors(model: CfModel, sequences) -> np.ndarray:
    """Like user_representations, but each user is a (steps, d) array of
    per-step embedding vectors.

    Used when history items are outside the collaborative vocabulary and the
    caller substitutes reconstructed embeddings (zero-shot transfer).
    Sequences are grouped by length, and one `_forward` runs over at most
    FORWARD_ROWS sequences of one length.
    """
    window = model.config.max_history
    steps = []
    for vectors in sequences:
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] == 0:
            raise ValueError("need a non-empty (steps, embed_dim) array")
        steps.append(vectors[-window:])
    out = np.empty((len(steps), model.config.embed_dim))
    groups: dict[int, list[int]] = defaultdict(list)
    for i, entry in enumerate(steps):
        groups[len(entry)].append(i)
    for length, members in groups.items():
        for start in range(0, len(members), FORWARD_ROWS):
            chunk = members[start : start + FORWARD_ROWS]
            h0 = np.stack([steps[i] for i in chunk]) + model.params["pos_emb"][:length]
            ids = np.ones((len(chunk), length), dtype=np.int64)  # all positions real
            out[chunk] = _forward(model.params, model.config, ids, h0=h0)[0][:, -1]
    return out


def user_representation(model: CfModel, history: list[str]) -> np.ndarray:
    """Last-position output of the attention stack over the recent history."""
    return user_representations(model, [history])[0]


def user_representation_from_vectors(model: CfModel, vectors: np.ndarray) -> np.ndarray:
    """One user's user_representations_from_vectors row."""
    return user_representations_from_vectors(model, [vectors])[0]


def item_probabilities(model: CfModel, rep: np.ndarray) -> np.ndarray:
    """Softmax of one user representation's scores; entry i is model.items[i]."""
    scores = model.params["item_emb"][1:] @ rep
    e = np.exp(scores - scores.max())
    return e / e.sum()


def next_item_probabilities(model: CfModel, history: list[str]) -> np.ndarray:
    return item_probabilities(model, user_representation(model, history))


def rank_by_score(model: CfModel, scores: np.ndarray) -> list[str]:
    """Item ids sorted by score descending, ties broken by id ascending."""
    by_id = model.id_order
    order = by_id[np.argsort(-np.asarray(scores)[by_id], kind="stable")]
    items = model.items
    return [items[i] for i in order.tolist()]


def verbalize_prior(score: float) -> str:
    """Render a normalized probability as "likelihood P%" (0.88 -> "likelihood 88%")."""
    if not 0.0 <= score <= 1.0:
        raise ValueError("the score must be a probability")
    return f"likelihood {int(math.floor(100.0 * score + 0.5))}%"
