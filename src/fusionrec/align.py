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

Training works on the live semantic subspace: the columns of the training
item table `q` that are non-zero in at least one row. Before the first step
the dead rows of the semantic decoder (`dec_s.w`, `dec_s.b`) are set to 0,
the optimum of a target that is 0 in every row. Their residual is then
exactly 0, so their gradient and their share of the encoder's gradient are
0 in every step; the dead columns of `enc_s.w` multiply only zeros. Plain
gradient descent and Adam (whose moments stay 0) leave all of them as they
are, so training steps only the live columns of `enc_s.w` and the live rows
of `dec_s`: full-width training from the zeroed start, up to summation
order. `encode`, `decode` and the checkpoint stay full width. The L-wide
blocks of `enc_s.w` and `q` are C-ordered copies (`take` along the columns;
`[:, live]` would give Fortran-ordered ones), so each optimizer step updates
contiguous rows and each batch gathers contiguous rows of `q`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import cf as cf_mod
from .data import unowned_columns
from .errors import DataError
from .optim import fit, init_params
from .semantic import SEMANTIC_DIM

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
    """Inputs of one training step.

    `e`, `q` and `w` hold one row per distinct item in the chosen users'
    sequences: its collaborative vector, its semantic vector (the live
    columns only during training), and the sum of the nested-mean weights of
    its occurrences. `x`, `pos` and `neg` hold the chosen users' (user_rep,
    pos_collab, neg_collab) triples, one per row.
    """

    e: np.ndarray
    q: np.ndarray
    w: np.ndarray
    x: np.ndarray
    pos: np.ndarray
    neg: np.ndarray


@dataclass
class AlignmentDataset:
    """Per-user alignment records, stacked once into arrays.

    Row j of the item table (`e` collaborative, `q` semantic) belongs to
    `items[j]`. User u's sequence pairs are the table rows
    `pair_item[pair_ptr[u]:pair_ptr[u + 1]]`, one per occurrence in sequence
    order; its triples are rows `triple_ptr[u]:triple_ptr[u + 1]` of `x`,
    `pos` and `neg`. `len()` is the number of users.
    """

    users: list[str]
    items: list[str]
    e: np.ndarray
    q: np.ndarray
    pair_ptr: np.ndarray
    pair_item: np.ndarray
    triple_ptr: np.ndarray
    x: np.ndarray
    pos: np.ndarray
    neg: np.ndarray

    def __len__(self) -> int:
        return len(self.users)

    def live_columns(self) -> np.ndarray:
        """Indices of the columns of `q` that are non-zero in at least one row."""
        return np.flatnonzero(np.any(self.q != 0.0, axis=0))

    def batch(self, chosen) -> AlignmentBatch:
        """The batch of the chosen user indices.

        Each occurrence weighs 1 / (G * |group|), where G counts the chosen
        users that have at least one pair; an item's weights are summed, so
        the alignment and reconstruction terms are evaluated once per
        distinct item.
        """
        chosen = np.asarray(chosen, dtype=np.int64)
        pair_rows, sizes = _segments(self.pair_ptr, chosen)
        sizes = sizes[sizes > 0]
        weights = np.repeat(1.0 / (len(sizes) * sizes), sizes)
        summed = np.bincount(
            self.pair_item[pair_rows], weights=weights, minlength=len(self.items)
        )
        present = np.flatnonzero(summed)
        triple_rows, _ = _segments(self.triple_ptr, chosen)
        return AlignmentBatch(
            e=self.e[present],
            q=self.q[present],
            w=summed[present],
            x=self.x[triple_rows],
            pos=self.pos[triple_rows],
            neg=self.neg[triple_rows],
        )


def _segments(ptr: np.ndarray, chosen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of the chosen segments of an offset array, in the order
    chosen, and the size of each chosen segment."""
    starts = ptr[chosen]
    sizes = ptr[chosen + 1] - starts
    # output position i of segment k maps to starts[k] + (i - first position of k)
    first = np.cumsum(sizes) - sizes
    return np.arange(sizes.sum()) + np.repeat(starts - first, sizes), sizes


def _offsets(segments) -> np.ndarray:
    return np.concatenate(([0], np.cumsum([len(s) for s in segments], dtype=np.int64)))


def stack_alignment_dataset(users, items, e, q, pairs, triples) -> AlignmentDataset:
    """Stack per-user records into an AlignmentDataset.

    `e` and `q` are 2-D item tables with one row per entry of `items`.
    `pairs[u]` lists user u's table indices in sequence order (repeats
    allowed) and `triples[u]` its (x, pos, neg) vectors. Every user needs at
    least one pair or one triple.
    """
    if not len(users) == len(pairs) == len(triples):
        raise ValueError("users, pairs and triples must have one entry per user")
    for user, group, trip in zip(users, pairs, triples):
        if not group and not trip:
            raise ValueError(f"empty group and no triples for user {user!r}")
    e = np.asarray(e, dtype=np.float64)
    rows = [t for trip in triples for t in trip]

    def stacked(col: int) -> np.ndarray:
        return np.array([r[col] for r in rows], dtype=np.float64).reshape(-1, e.shape[1])

    return AlignmentDataset(
        users=list(users),
        items=list(items),
        e=e,
        q=np.asarray(q, dtype=np.float64),
        pair_ptr=_offsets(pairs),
        pair_item=np.array([j for group in pairs for j in group], dtype=np.intp),
        triple_ptr=_offsets(triples),
        x=stacked(0),
        pos=stacked(1),
        neg=stacked(2),
    )


def network_shapes(collab_dim: int, sem_dim: int, latent_dim: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter of an alignment network, in draw order."""
    return {
        "enc_c.w": (latent_dim, collab_dim),
        "enc_c.b": (latent_dim,),
        "enc_s.w": (latent_dim, sem_dim),
        "enc_s.b": (latent_dim,),
        "dec_c.w": (collab_dim, latent_dim),
        "dec_c.b": (collab_dim,),
        "dec_s.w": (sem_dim, latent_dim),
        "dec_s.b": (sem_dim,),
    }


def init_alignment(
    collab_dim: int = 50,
    sem_dim: int = 768,
    latent_dim: int = 128,
    alpha: float = 0.5,
    beta: float = 0.2,
    *,
    rng: np.random.Generator,
) -> AlignmentNetwork:
    params = init_params(network_shapes(collab_dim, sem_dim, latent_dim), rng)
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


def _sigmoid(values: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-v) for each entry of a 1-d array, and 0.0 where e^-v overflows
    (v below about -709.78). Per entry `math.exp` rounds as scipy's `expit`
    does; numpy's `exp` can differ from it by one ulp."""
    out = []
    for v in values.tolist():
        try:
            out.append(1.0 / (1.0 + math.exp(-v)))
        except OverflowError:
            out.append(0.0)
    return np.array(out, dtype=np.float64)


def total_loss_and_gradients(net: AlignmentNetwork, batch: AlignmentBatch):
    """The summed objective (see the module docstring) on one batch, and its
    analytic gradients over all eight parameter arrays.

    An empty item or triple set contributes zero loss and zero gradient.
    """
    p = net.params
    e, q, w = batch.e, batch.q, batch.w
    wcol = w[:, None]
    u = e @ p["enc_c.w"].T + p["enc_c.b"]
    v = q @ p["enc_s.w"].T + p["enc_s.b"]
    diff = u - v
    r_c = u @ p["dec_c.w"].T + p["dec_c.b"] - e
    r_s = v @ p["dec_s.w"].T + p["dec_s.b"] - q
    loss = float(np.sum(w * np.sum(diff * diff, axis=1)))
    loss += net.alpha * float(np.sum(w * np.sum(r_c * r_c, axis=1)))
    loss += net.beta * float(np.sum(w * np.sum(r_s * r_s, axis=1)))

    wd = 2.0 * wcol * diff
    wr = 2.0 * net.alpha * wcol * r_c
    wt = 2.0 * net.beta * wcol * r_s
    d_u = wd + wr @ p["dec_c.w"]
    d_v = wt @ p["dec_s.w"] - wd
    grads = {
        "enc_c.w": d_u.T @ e,
        "enc_c.b": d_u.sum(axis=0),
        "enc_s.w": d_v.T @ q,
        "enc_s.b": d_v.sum(axis=0),
        "dec_c.w": wr.T @ u,
        "dec_c.b": wr.sum(axis=0),
        "dec_s.w": wt.T @ v,
        "dec_s.b": wt.sum(axis=0),
    }

    x = batch.x
    for e_in, positive in ((batch.pos, True), (batch.neg, False)):
        u_in = e_in @ p["enc_c.w"].T + p["enc_c.b"]
        sig = _sigmoid(np.sum(x * (u_in @ p["dec_c.w"].T + p["dec_c.b"]), axis=1))
        prob = sig if positive else 1.0 - sig
        loss -= float(np.sum(np.log(np.clip(prob, _CLAMP, 1.0 - _CLAMP))))
        active = (prob > _CLAMP) & (prob < 1.0 - _CLAMP)
        ds = (sig - 1.0 if positive else sig) * active
        d_recon = ds[:, None] * x
        grads["dec_c.w"] += d_recon.T @ u_in
        grads["dec_c.b"] += d_recon.sum(axis=0)
        d_in = d_recon @ p["dec_c.w"]
        grads["enc_c.w"] += d_in.T @ e_in
        grads["enc_c.b"] += d_in.sum(axis=0)

    return loss, grads


def train_alignment(
    net: AlignmentNetwork,
    dataset: AlignmentDataset,
    epochs: int = 10,
    batch_size: int = 16,
    learning_rate: float = 1e-4,
    *,
    rng: np.random.Generator,
    optimizer: str = "sgd",
) -> AlignmentNetwork:
    """Plain gradient descent (by default) on the summed objective, with `optim.fit`.

    A batch holds `batch_size` users (see AlignmentDataset.batch) and weighs
    1, so net.training_log holds each epoch's mean batch loss.

    The rows of `dec_s.w` and entries of `dec_s.b` of the dead semantic
    columns (those outside AlignmentDataset.live_columns) are set to 0
    first, after `init_alignment`'s draw. The steps and the optimizer state
    then work on an L-wide view of the network, holding the live columns of
    `enc_s.w` and the live rows of `dec_s`, over `q`'s live columns; the
    blocks are written back after the last epoch. The skipped entries would
    get an exactly zero gradient in every step (see the module docstring).
    The view's `enc_s.w` and its `q` are C-ordered copies, one each: column
    indexing would give Fortran-ordered ones, and every Adam step and batch
    gather would then stride across rows. With no dead column the view is
    the network itself.
    """
    live = dataset.live_columns()
    dead = np.ones(dataset.q.shape[1], dtype=bool)
    dead[live] = False
    net.params["dec_s.w"][dead] = 0.0
    net.params["dec_s.b"][dead] = 0.0
    params = dict(net.params)
    if dead.any():
        params["enc_s.w"] = net.params["enc_s.w"].take(live, axis=1)
        params["dec_s.w"] = net.params["dec_s.w"][live]
        params["dec_s.b"] = net.params["dec_s.b"][live]
        dataset = replace(dataset, q=dataset.q.take(live, axis=1))
    else:
        live = slice(None)
    trained = replace(net, sem_dim=params["dec_s.b"].size, params=params)

    def batch_loss(chosen):
        return (*total_loss_and_gradients(trained, dataset.batch(chosen)), 1)

    net.training_log = fit(params, len(dataset), batch_loss, epochs=epochs,
                           batch_size=batch_size, optimizer=optimizer,
                           learning_rate=learning_rate, rng=rng, what="alignment loss")
    net.params["enc_s.w"][:, live] = params["enc_s.w"]
    net.params["dec_s.w"][live] = params["dec_s.w"]
    net.params["dec_s.b"][live] = params["dec_s.b"]
    return net


def build_alignment_dataset(
    cf_model,
    split,
    semantic_map: dict[str, np.ndarray],
    *,
    rng: np.random.Generator,
    negatives_per_user: int = 1,
) -> AlignmentDataset:
    """Per-user training data from a trained CF model and a split.

    Pairs follow the user's train sequence, one (collaborative, semantic)
    pair per occurrence of an item that has both representations; each such
    item gets one row of the item table. Each recommendation triple uses the
    user's train history representation, the validation item as positive,
    and a negative drawn from the vocabulary items outside the user's
    sequence, one `rng.integers` call per draw in user order; each chunk of
    FORWARD_ROWS users gets one ownership mask over the vocabulary. Users
    contributing neither pairs nor triples are dropped.
    """
    item_emb, item_index = cf_model.params["item_emb"], cf_model.item_index
    warm_histories, warm_reps = cf_mod.warm_user_representations(cf_model, split, split.users())
    warm = list(warm_histories)
    # user -> the item_emb rows of its negatives
    negatives: dict[str, list[int]] = {}
    position = {item: i for i, item in enumerate(cf_model.items)}
    for start in range(0, len(warm), cf_mod.FORWARD_ROWS):
        chunk = warm[start : start + cf_mod.FORWARD_ROWS]
        eligible, starts, counts = unowned_columns(
            [split.full_sequence(user) for user in chunk], position, len(cf_model.items)
        )
        for user, first, count in zip(chunk, starts.tolist(), counts.tolist()):
            draws = range(negatives_per_user) if count else ()
            negatives[user] = [int(eligible[first + int(rng.integers(count))]) + 1 for _ in draws]
    reps = dict(zip(warm, warm_reps))
    table: dict[str, int] = {}
    e_rows, q_rows = [], []
    users, pairs, triples = [], [], []
    for user in split.users():
        group = []
        for item in split.train[user]:
            if item not in table:
                if item not in item_index or item not in semantic_map:
                    continue
                table[item] = len(e_rows)
                e_rows.append(item_emb[item_index[item]])
                q_rows.append(semantic_map[item])
            group.append(table[item])
        trip = []
        if user in reps:
            positive = item_emb[item_index[split.validation[user]]]
            trip = [(reps[user], positive, item_emb[row]) for row in negatives[user]]
        if group or trip:
            users.append(user)
            pairs.append(group)
            triples.append(trip)
    if not users:
        raise DataError("no user contributed alignment pairs or triples")
    sem_dim = len(next(iter(semantic_map.values()))) if semantic_map else SEMANTIC_DIM
    return stack_alignment_dataset(
        users,
        list(table),
        np.array(e_rows, dtype=np.float64).reshape(-1, cf_model.config.embed_dim),
        np.array(q_rows, dtype=np.float64).reshape(-1, sem_dim),
        pairs,
        triples,
    )


def unified_item_embedding(
    net: AlignmentNetwork, item: str, cf_model, semantic_map: dict[str, np.ndarray]
) -> np.ndarray:
    """The item's latent vector: warm items go through the collaborative
    encoder, cold items through the semantic encoder; the trigger is
    CF-vocabulary membership (no model: every item is cold)."""
    if cf_model is not None and cf_model.has_item(item):
        return encode(net, COLLABORATIVE, cf_model.params["item_emb"][cf_model.item_index[item]])
    if item in semantic_map:
        return encode(net, SEMANTIC, semantic_map[item])
    raise DataError(f"item {item!r} has neither a collaborative embedding nor a semantic one")

