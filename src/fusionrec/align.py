"""Unified collaborative-semantic representation learning.

Two affine encoders map collaborative (d-dim) and semantic (768-dim) item
vectors into one shared latent space; paired affine decoders map back. The
training objective is the unweighted sum of three terms:

* alignment: nested mean (per user sequence, then across sequences) of the
  squared encoder gap;
* reconstruction: alpha * collaborative autoencoder error plus beta * semantic
  autoencoder error, same nested mean;
* recommendation: summed binary cross-entropy of sigmoid(x . dec(enc(e)))
  over (user, positive, negative) triples, probabilities clamped to
  [1e-7, 1 - 1e-7] before the logs.

Warm items are served from the collaborative encoder, cold items (absent from
the CF vocabulary) from the semantic encoder; both land in the same latent
space and are directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from . import cf as cf_mod
from .errors import DataError, TrainingError
from .gradcheck import max_relative_gradient_error
from .optim import make_optimizer, xavier

__all__ = [
    "AlignmentNetwork",
    "AlignmentBatch",
    "AlignmentExample",
    "UnifiedEmbedding",
    "init_alignment",
    "encode",
    "decode",
    "alignment_loss",
    "reconstruction_loss",
    "recommendation_loss",
    "total_loss",
    "total_loss_and_gradients",
    "train_alignment",
    "build_alignment_dataset",
    "unified_item_embedding",
    "gradient_check",
]

_CLAMP = 1e-7

COLLABORATIVE = "collaborative"
SEMANTIC = "semantic"


@dataclass
class AlignmentNetwork:
    collab_dim: int
    sem_dim: int
    latent_dim: int
    alpha: float
    beta: float
    params: dict[str, np.ndarray]
    training_log: list[float] = field(default_factory=list)

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0 or not 0.0 < self.beta <= 1.0:
            raise ValueError("alpha and beta must lie in (0, 1]")


@dataclass
class AlignmentBatch:
    """Groups of (collab_vec, sem_vec) pairs per user sequence, plus
    (user_rep, pos_collab, neg_collab) triples for the recommendation term."""

    groups: list
    triples: list


@dataclass
class AlignmentExample:
    """Per-user training record: one sequence group and its triples."""

    user: str
    pairs: list
    triples: list


@dataclass
class UnifiedEmbedding:
    item: str
    vector: np.ndarray
    source: str  # "collaborative_path" or "semantic_path"


def init_alignment(
    collab_dim: int = 50,
    sem_dim: int = 768,
    latent_dim: int = 128,
    alpha: float = 0.5,
    beta: float = 0.2,
    rng: np.random.Generator | None = None,
) -> AlignmentNetwork:
    if rng is None:
        rng = np.random.default_rng(0)

    params = {
        "enc_c.w": xavier(rng, latent_dim, collab_dim),
        "enc_c.b": np.zeros(latent_dim),
        "enc_s.w": xavier(rng, latent_dim, sem_dim),
        "enc_s.b": np.zeros(latent_dim),
        "dec_c.w": xavier(rng, collab_dim, latent_dim),
        "dec_c.b": np.zeros(collab_dim),
        "dec_s.w": xavier(rng, sem_dim, latent_dim),
        "dec_s.b": np.zeros(sem_dim),
    }
    return AlignmentNetwork(collab_dim, sem_dim, latent_dim, alpha, beta, params)


def _affine(x, w, b):
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != w.shape[1]:
        raise ValueError(f"input dim {x.shape[-1]} does not match expected {w.shape[1]}")
    return x @ w.T + b


def encode(net: AlignmentNetwork, modality: str, x) -> np.ndarray:
    """Affine projection into the shared latent space (no nonlinearity)."""
    if modality == COLLABORATIVE:
        return _affine(x, net.params["enc_c.w"], net.params["enc_c.b"])
    if modality == SEMANTIC:
        return _affine(x, net.params["enc_s.w"], net.params["enc_s.b"])
    raise ValueError(f"unknown modality {modality!r}")


def decode(net: AlignmentNetwork, modality: str, latent) -> np.ndarray:
    if modality == COLLABORATIVE:
        return _affine(latent, net.params["dec_c.w"], net.params["dec_c.b"])
    if modality == SEMANTIC:
        return _affine(latent, net.params["dec_s.w"], net.params["dec_s.b"])
    raise ValueError(f"unknown modality {modality!r}")


def _stack_groups(groups):
    """Flatten groups into arrays plus per-item nested-mean weights."""
    e_rows, q_rows, weights = [], [], []
    n_groups = len(groups)
    for group in groups:
        if not group:
            raise ValueError("empty group in alignment batch")
        w = 1.0 / (n_groups * len(group))
        for e, q in group:
            e_rows.append(np.asarray(e, dtype=np.float64))
            q_rows.append(np.asarray(q, dtype=np.float64))
            weights.append(w)
    return np.array(e_rows), np.array(q_rows), np.array(weights)


def alignment_loss(net: AlignmentNetwork, groups) -> float:
    """Nested mean of squared encoder gaps: inner mean per sequence first."""
    if not groups:
        return 0.0
    e, q, w = _stack_groups(groups)
    diff = encode(net, COLLABORATIVE, e) - encode(net, SEMANTIC, q)
    return float(np.sum(w * np.sum(diff * diff, axis=1)))


def reconstruction_loss(net: AlignmentNetwork, groups) -> float:
    """alpha * collaborative + beta * semantic autoencoder error (nested means)."""
    if not groups:
        return 0.0
    e, q, w = _stack_groups(groups)
    r_c = decode(net, COLLABORATIVE, encode(net, COLLABORATIVE, e)) - e
    r_s = decode(net, SEMANTIC, encode(net, SEMANTIC, q)) - q
    item_term = float(np.sum(w * np.sum(r_c * r_c, axis=1)))
    text_term = float(np.sum(w * np.sum(r_s * r_s, axis=1)))
    return net.alpha * item_term + net.beta * text_term


def _rec_scores(net: AlignmentNetwork, x, e):
    latent = encode(net, COLLABORATIVE, e)
    recon = decode(net, COLLABORATIVE, latent)
    return np.sum(x * recon, axis=1), latent, recon


def recommendation_loss(net: AlignmentNetwork, triples) -> float:
    """Summed BCE of sigmoid(x . dec(enc(e))) over (x, pos, neg) triples."""
    if not triples:
        return 0.0
    x = np.array([np.asarray(t[0], dtype=np.float64) for t in triples])
    e_pos = np.array([np.asarray(t[1], dtype=np.float64) for t in triples])
    e_neg = np.array([np.asarray(t[2], dtype=np.float64) for t in triples])
    s_pos, _, _ = _rec_scores(net, x, e_pos)
    s_neg, _, _ = _rec_scores(net, x, e_neg)
    p_pos = np.clip(expit(s_pos), _CLAMP, 1.0 - _CLAMP)
    p_neg = np.clip(1.0 - expit(s_neg), _CLAMP, 1.0 - _CLAMP)
    return float(-np.sum(np.log(p_pos) + np.log(p_neg)))


def total_loss(net: AlignmentNetwork, batch: AlignmentBatch) -> float:
    """Unweighted sum of alignment, reconstruction, and recommendation terms."""
    return (
        alignment_loss(net, batch.groups)
        + reconstruction_loss(net, batch.groups)
        + recommendation_loss(net, batch.triples)
    )


def total_loss_and_gradients(net: AlignmentNetwork, batch: AlignmentBatch):
    """Analytic gradients of total_loss over all eight parameter arrays."""
    p = net.params
    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    loss = 0.0

    if batch.groups:
        e, q, w = _stack_groups(batch.groups)
        wcol = w[:, None]
        u = e @ p["enc_c.w"].T + p["enc_c.b"]
        v = q @ p["enc_s.w"].T + p["enc_s.b"]
        diff = u - v
        loss += float(np.sum(w * np.sum(diff * diff, axis=1)))
        wd = 2.0 * wcol * diff
        grads["enc_c.w"] += wd.T @ e
        grads["enc_c.b"] += wd.sum(axis=0)
        grads["enc_s.w"] -= wd.T @ q
        grads["enc_s.b"] -= wd.sum(axis=0)

        r_c = u @ p["dec_c.w"].T + p["dec_c.b"] - e
        loss += net.alpha * float(np.sum(w * np.sum(r_c * r_c, axis=1)))
        wr = 2.0 * net.alpha * wcol * r_c
        grads["dec_c.w"] += wr.T @ u
        grads["dec_c.b"] += wr.sum(axis=0)
        du = wr @ p["dec_c.w"]
        grads["enc_c.w"] += du.T @ e
        grads["enc_c.b"] += du.sum(axis=0)

        r_s = v @ p["dec_s.w"].T + p["dec_s.b"] - q
        loss += net.beta * float(np.sum(w * np.sum(r_s * r_s, axis=1)))
        wt = 2.0 * net.beta * wcol * r_s
        grads["dec_s.w"] += wt.T @ v
        grads["dec_s.b"] += wt.sum(axis=0)
        dv = wt @ p["dec_s.w"]
        grads["enc_s.w"] += dv.T @ q
        grads["enc_s.b"] += dv.sum(axis=0)

    if batch.triples:
        x = np.array([np.asarray(t[0], dtype=np.float64) for t in batch.triples])
        for sign, col in ((1, 1), (-1, 2)):
            e_in = np.array([np.asarray(t[col], dtype=np.float64) for t in batch.triples])
            u = e_in @ p["enc_c.w"].T + p["enc_c.b"]
            recon = u @ p["dec_c.w"].T + p["dec_c.b"]
            s = np.sum(x * recon, axis=1)
            sig = expit(s)
            if sign > 0:
                prob = np.clip(sig, _CLAMP, 1.0 - _CLAMP)
                loss += float(-np.sum(np.log(prob)))
                active = (sig > _CLAMP) & (sig < 1.0 - _CLAMP)
                ds = -(1.0 - sig) * active
            else:
                prob = np.clip(1.0 - sig, _CLAMP, 1.0 - _CLAMP)
                loss += float(-np.sum(np.log(prob)))
                active = (1.0 - sig > _CLAMP) & (1.0 - sig < 1.0 - _CLAMP)
                ds = sig * active
            d_recon = ds[:, None] * x
            grads["dec_c.w"] += d_recon.T @ u
            grads["dec_c.b"] += d_recon.sum(axis=0)
            du = d_recon @ p["dec_c.w"]
            grads["enc_c.w"] += du.T @ e_in
            grads["enc_c.b"] += du.sum(axis=0)

    return loss, grads


def train_alignment(
    net: AlignmentNetwork,
    dataset: list[AlignmentExample],
    epochs: int = 10,
    batch_size: int = 16,
    learning_rate: float = 1e-4,
    rng: np.random.Generator | None = None,
    optimizer: str = "sgd",
) -> AlignmentNetwork:
    """Plain gradient descent (by default) on the summed objective.

    One example = one user sequence group with its recommendation triples;
    batches group `batch_size` users. Per-epoch mean batch losses are stored
    on net.training_log.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    opt = make_optimizer(optimizer, learning_rate)
    log: list[float] = []
    order = np.arange(len(dataset))
    for epoch in range(epochs):
        perm = rng.permutation(order)
        batch_losses = []
        for start in range(0, len(perm), batch_size):
            chosen = [dataset[i] for i in perm[start : start + batch_size]]
            batch = AlignmentBatch(
                groups=[ex.pairs for ex in chosen if ex.pairs],
                triples=[t for ex in chosen for t in ex.triples],
            )
            loss, grads = total_loss_and_gradients(net, batch)
            if not math.isfinite(loss):
                raise TrainingError(
                    f"non-finite alignment loss at epoch {epoch}, batch {start // batch_size}"
                )
            opt.step(net.params, grads)
            batch_losses.append(loss)
        log.append(float(np.mean(batch_losses)) if batch_losses else 0.0)
    net.training_log = log
    return net


def build_alignment_dataset(
    cf_model,
    split,
    semantic_map: dict[str, np.ndarray],
    rng: np.random.Generator | None = None,
    negatives_per_user: int = 1,
) -> list[AlignmentExample]:
    """Per-user training examples from a trained CF model and a split.

    Pairs follow the user's train sequence, one (collaborative, semantic)
    pair per occurrence of an item that has both representations. Each
    recommendation triple uses the user's train history representation, the
    validation item as positive, and sampled out-of-sequence negatives. Users
    contributing neither pairs nor triples are dropped.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    dataset: list[AlignmentExample] = []
    for user in split.users():
        sequence = split.train[user]
        pairs = []
        for item in sequence:
            e = cf_mod.item_embedding(cf_model, item)
            q = semantic_map.get(item)
            if e is not None and q is not None:
                pairs.append((e, q))
        triples = []
        positive = cf_mod.item_embedding(cf_model, split.validation[user])
        history = [item for item in sequence if cf_model.has_item(item)]
        if positive is not None and history:
            x = cf_mod.user_representation(cf_model, history)
            owned = set(split.full_sequence(user))
            eligible = [item for item in cf_model.items if item not in owned]
            for _ in range(negatives_per_user):
                if not eligible:
                    break
                negative = eligible[int(rng.integers(len(eligible)))]
                triples.append((x, positive, cf_mod.item_embedding(cf_model, negative)))
        if pairs or triples:
            dataset.append(AlignmentExample(user=user, pairs=pairs, triples=triples))
    if not dataset:
        raise DataError("no user contributed alignment pairs or triples")
    return dataset


def unified_item_embedding(
    net: AlignmentNetwork, item: str, cf_model, semantic_map: dict[str, np.ndarray]
) -> UnifiedEmbedding:
    """Warm items go through the collaborative encoder, cold items through
    the semantic encoder; the trigger is CF-vocabulary membership."""
    e = cf_mod.item_embedding(cf_model, item) if cf_model is not None else None
    if e is not None:
        return UnifiedEmbedding(item=item, vector=encode(net, COLLABORATIVE, e),
                                source="collaborative_path")
    if item in semantic_map:
        vec = np.asarray(semantic_map[item], dtype=np.float64)
        return UnifiedEmbedding(item=item, vector=encode(net, SEMANTIC, vec),
                                source="semantic_path")
    raise DataError(f"item {item!r} has neither a collaborative nor a semantic embedding")


def gradient_check(net: AlignmentNetwork, batch: AlignmentBatch, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients."""
    if not batch.groups and not batch.triples:
        return 0.0
    _, grads = total_loss_and_gradients(net, batch)
    return max_relative_gradient_error(
        lambda: total_loss(net, batch), net.params, grads, h=h
    )
