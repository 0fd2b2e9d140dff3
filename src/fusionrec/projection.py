"""Projection into token space, surrogate training and ranking.

Three 2-layer MLPs (affine -> ReLU -> affine) map the user representation,
the unified item embedding, and the CoT text embedding into a shared
d_token-dim space. The projected vectors are soft segments of one prompt:
[O_X] -> instruction -> per slate item (title, O_Z) -> [O_r] -> query.

The real frozen language model is replaced by a surrogate head: a seeded,
frozen affine map from d_token to a title-token vocabulary plus a frozen
token-embedding lookup. The context for each target step is the mean of all
prompt segment vectors plus the mean of the embedded target prefix; the
training loss is the negative mean log-likelihood of the target tokens,
differentiable with respect to the projection parameters only.

Training works on stacked arrays, one batch per optimizer step: one forward
and one backward pass per MLP over every row of the batch (each slate row
of every example through the item MLP at once), and one logits GEMM over
every target step of the batch. The parts of an example that do not depend
on the parameters (its target indices, prefix means, text-segment sum and
segment count) are computed once per run, before the first step. Ranking
runs the same forward over one slate and orders the candidates by the
training loss with each one's title as the target.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .evaluate import draw_pools
from .optim import fit, init_params

PROMPT_INSTRUCTION = "Choose the item this user is most likely to interact with next."
PROMPT_QUERY = "Which candidate item comes next for this user?"


@dataclass
class ProjectionStack:
    d_user: int
    d_item: int
    d_cot: int
    d_token: int
    hidden: int
    params: dict[str, np.ndarray]
    training_log: list[float] = field(default_factory=list)


@dataclass
class PromptBundle:
    """Ordered segments; each is ("text", str) or ("soft", name, vector)."""

    segments: list
    user: str | None = None


@dataclass
class SurrogateHead:
    token_index: dict[str, int]
    w_out: np.ndarray  # (|V|, d_token), frozen
    b_out: np.ndarray  # (|V|,), frozen
    token_emb: np.ndarray  # (|V|, d_token), frozen
    seed: int


@dataclass
class ProjectionExample:
    """One training row: raw prompt inputs plus the target title tokens."""

    x_user: np.ndarray
    slate: list  # list of (item_id, title, z_vector)
    r_vec: np.ndarray | None
    target_tokens: list[str]
    user: str | None = None


def stack_shapes(d_user: int, d_item: int, d_cot: int, d_token: int,
                 hidden: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter of a projection stack, in draw order."""
    shapes: dict[str, tuple[int, ...]] = {}
    for prefix, d_in in (("fx", d_user), ("fz", d_item), ("fr", d_cot)):
        shapes[f"{prefix}.w1"] = (hidden, d_in)
        shapes[f"{prefix}.b1"] = (hidden,)
        shapes[f"{prefix}.w2"] = (d_token, hidden)
        shapes[f"{prefix}.b2"] = (d_token,)
    return shapes


def init_projection_stack(
    d_user: int = 50,
    d_item: int = 128,
    d_cot: int = 768,
    d_token: int = 256,
    hidden: int = 256,
    *,
    rng: np.random.Generator,
) -> ProjectionStack:
    params = init_params(stack_shapes(d_user, d_item, d_cot, d_token, hidden), rng)
    return ProjectionStack(d_user, d_item, d_cot, d_token, hidden, params)


def _mlp_forward(params: dict, prefix: str, x: np.ndarray):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != params[f"{prefix}.w1"].shape[1]:
        raise ValueError(
            f"{prefix} input dim {x.shape[1]} != expected {params[f'{prefix}.w1'].shape[1]}"
        )
    pre = x @ params[f"{prefix}.w1"].T + params[f"{prefix}.b1"]
    act = np.maximum(pre, 0.0)
    out = act @ params[f"{prefix}.w2"].T + params[f"{prefix}.b2"]
    return out, (x, pre, act)


def _mlp_backward(params: dict, prefix: str, cache, d_out: np.ndarray) -> dict:
    """Gradients of the MLP's four parameters, summed over the rows of `d_out`."""
    x, pre, act = cache
    d_pre = (d_out @ params[f"{prefix}.w2"]) * (pre > 0)
    return {
        f"{prefix}.w1": d_pre.T @ x,
        f"{prefix}.b1": d_pre.sum(axis=0),
        f"{prefix}.w2": d_out.T @ act,
        f"{prefix}.b2": d_out.sum(axis=0),
    }


def project_components(stack: ProjectionStack, x_user, z_item, r_cot=None):
    """(O_X, O_Z, O_r) in token space; O_r is None in CoT-less mode."""
    o_x, _ = _mlp_forward(stack.params, "fx", x_user)
    o_z, _ = _mlp_forward(stack.params, "fz", z_item)
    o_r = None
    if r_cot is not None:
        o_r_arr, _ = _mlp_forward(stack.params, "fr", r_cot)
        o_r = o_r_arr[0]
    return o_x[0], o_z[0], o_r


def render_prompt_text(bundle: PromptBundle) -> str:
    """The bundle as text for an adapter's prompt; each soft vector becomes a
    `<SOFT:name:base64>` placeholder holding its little-endian float64 bytes."""
    lines = []
    for seg in bundle.segments:
        if seg[0] == "text":
            lines.append(seg[1])
        else:
            payload = base64.b64encode(
                np.ascontiguousarray(seg[2], dtype="<f8").tobytes()
            ).decode("ascii")
            lines.append(f"<SOFT:{seg[1]}:{payload}>")
    return "\n".join(lines)


def build_vocabulary(catalog: dict[str, tuple[str, str]]) -> list[str]:
    """Sorted unique lowercased tokens across catalog titles."""
    tokens: set[str] = set()
    for title, _description in catalog.values():
        tokens.update(title.lower().split())
    if not tokens:
        raise DataError("catalog titles produce an empty vocabulary")
    return sorted(tokens)


def make_surrogate_head(vocabulary: list[str], d_token: int = 256, seed: int = 0) -> SurrogateHead:
    """Seeded frozen affine output map plus frozen token-embedding lookup."""
    rng = np.random.default_rng(seed)
    n = len(vocabulary)
    w_out = rng.normal(0.0, 1.0 / math.sqrt(d_token), size=(n, d_token))
    b_out = np.zeros(n)
    token_emb = rng.normal(0.0, 0.02, size=(n, d_token))
    for arr in (w_out, b_out, token_emb):
        arr.flags.writeable = False
    return SurrogateHead(
        token_index={tok: i for i, tok in enumerate(vocabulary)},
        w_out=w_out,
        b_out=b_out,
        token_emb=token_emb,
        seed=seed,
    )


def _prefix_means(target_idx: list[int], head: SurrogateHead) -> np.ndarray:
    """Row t = mean embedding of target tokens before step t (row 0 is zero)."""
    d_token = head.token_emb.shape[1]
    out = np.zeros((len(target_idx), d_token))
    if len(target_idx) > 1:
        csum = np.cumsum(head.token_emb[target_idx[:-1]], axis=0)
        counts = np.arange(1, len(target_idx), dtype=np.float64)[:, None]
        out[1:] = csum / counts
    return out


def _target_indices(target_tokens: list[str], head: SurrogateHead) -> list[int]:
    if not target_tokens:
        raise ValueError("target token list must be non-empty")
    idx = []
    for tok in target_tokens:
        if tok not in head.token_index:
            raise DataError(f"target token {tok!r} is outside the surrogate vocabulary")
        idx.append(head.token_index[tok])
    return idx


def _nll_and_context_grads(means: np.ndarray, targets: list, prefixes: list,
                           head: SurrogateHead):
    """Per-example negative mean log-likelihood and its gradient w.r.t. each
    example's segment mean.

    Example b's steps are the rows `means[b] + prefixes[b]`; the steps of all
    examples go through one logits GEMM. Each step's gradient is weighted by
    1/len(targets[b]) and summed back onto its example.
    """
    steps = np.array([len(idx) for idx in targets])
    starts = np.concatenate(([0], np.cumsum(steps)[:-1]))
    target = np.concatenate(targets)
    contexts = np.repeat(means, steps, axis=0) + np.concatenate(prefixes)
    logits = contexts @ head.w_out.T + head.b_out
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(len(target))
    losses = -np.add.reduceat(shifted[rows, target] - log_z, starts) / steps
    d_logits = np.exp(shifted - log_z[:, None])
    d_logits[rows, target] -= 1.0
    d_logits /= np.repeat(steps, steps)[:, None]
    return losses, np.add.reduceat(d_logits @ head.w_out, starts, axis=0)


@dataclass
class _ThetaFree:
    """The parts of one example's loss that no projection parameter moves."""

    text_sum: np.ndarray
    n_seg: int
    target_idx: list[int]
    prefix: np.ndarray


def _theta_free_parts(dataset: list[ProjectionExample], head: SurrogateHead) -> list[_ThetaFree]:
    """Each example's theta-free parts; every target is checked here, before
    any step, so a bad token in a late example leaves the parameters as they were.

    The text segments (instruction, titles, query) are summed here, each the
    mean embedding of its in-vocabulary tokens (zero if it has none), and
    every segment of the prompt is counted: 3 + 2n for a slate of n, plus
    one for a reasoning vector.
    """
    d_token = head.token_emb.shape[1]
    text_vectors: dict[str, np.ndarray] = {}
    prefixes: dict[tuple[int, ...], np.ndarray] = {}
    parts = []
    for example in dataset:
        if not example.slate:
            raise ValueError("a projection example needs a non-empty slate")
        target_idx = _target_indices(example.target_tokens, head)
        key = tuple(target_idx)
        if key not in prefixes:
            prefixes[key] = _prefix_means(target_idx, head)
        texts = [PROMPT_INSTRUCTION, *(title for _, title, _ in example.slate), PROMPT_QUERY]
        text_sum = np.zeros(d_token)
        for text in texts:
            if text not in text_vectors:
                known = [head.token_index[t] for t in text.lower().split() if t in head.token_index]
                text_vectors[text] = (
                    head.token_emb[known].mean(axis=0) if known else np.zeros(d_token)
                )
            text_sum += text_vectors[text]
        n_soft = 1 + len(example.slate) + (example.r_vec is not None)
        parts.append(_ThetaFree(text_sum, len(texts) + n_soft, target_idx, prefixes[key]))
    return parts


def _segment_means(params: dict, batch: list[ProjectionExample], parts: list[_ThetaFree]):
    """Each example's prompt segment mean, and what the backward pass needs.

    One forward pass per MLP: `fx` over the stacked user vectors, `fz` over
    every slate row of the batch, `fr` over the examples that carry a
    reasoning vector, stacked dense from arrays and compact vectors alike
    (`np.vstack`). Example b's mean is its text sum plus its projected
    segments over its segment count. Returns the means, the segment counts,
    the three MLP caches (`fr`'s None without reasoning) and the rows of the
    examples with reasoning.
    """
    slate_len = np.array([len(example.slate) for example in batch])
    with_r = [b for b, example in enumerate(batch) if example.r_vec is not None]

    o_x, cache_x = _mlp_forward(params, "fx", np.vstack([example.x_user for example in batch]))
    z_rows = np.array([z for example in batch for _, _, z in example.slate], dtype=np.float64)
    o_z, cache_z = _mlp_forward(params, "fz", z_rows)
    starts = np.concatenate(([0], np.cumsum(slate_len)[:-1]))
    total = np.array([part.text_sum for part in parts]) + o_x + np.add.reduceat(o_z, starts, axis=0)
    cache_r = None
    if with_r:
        o_r, cache_r = _mlp_forward(params, "fr", np.vstack([batch[b].r_vec for b in with_r]))
        total[with_r] += o_r
    n_seg = np.array([part.n_seg for part in parts])
    return total / n_seg[:, None], n_seg, (cache_x, cache_z, cache_r), with_r


def _batch_loss_and_grads(params: dict, batch: list[ProjectionExample],
                          parts: list[_ThetaFree], head: SurrogateHead):
    """Mean surrogate loss over `batch` and its parameter gradients.

    The forward is `_segment_means`; the backward runs one pass per MLP, and
    each slate row takes its owner's gradient row.
    """
    scale = 1.0 / len(batch)
    means, n_seg, (cache_x, cache_z, cache_r), with_r = _segment_means(params, batch, parts)
    losses, d_means = _nll_and_context_grads(
        means, [part.target_idx for part in parts], [part.prefix for part in parts], head
    )
    d_rows = d_means / n_seg[:, None] * scale
    owner = np.repeat(np.arange(len(batch)), [len(example.slate) for example in batch])
    grads = {
        **_mlp_backward(params, "fx", cache_x, d_rows),
        **_mlp_backward(params, "fz", cache_z, d_rows[owner]),
    }
    if with_r:
        grads.update(_mlp_backward(params, "fr", cache_r, d_rows[with_r]))
    grads = {name: grads[name] if name in grads else np.zeros_like(arr)
             for name, arr in params.items()}
    return float(sum(losses.tolist())) * scale, grads


def surrogate_loss_and_gradients(stack: ProjectionStack, example: ProjectionExample,
                                 head: SurrogateHead):
    """Loss and analytic parameter gradients for one example: the training
    step's batched loss over a batch of one."""
    return _batch_loss_and_grads(stack.params, [example], _theta_free_parts([example], head), head)


def train_projections(
    stack: ProjectionStack,
    dataset: list[ProjectionExample],
    epochs: int = 5,
    batch_size: int = 4,
    learning_rate: float = 1e-4,
    *,
    head: SurrogateHead,
    rng: np.random.Generator,
    optimizer: str = "sgd",
) -> ProjectionStack:
    """Gradient descent on the surrogate loss over projection parameters only,
    with `optim.fit`.

    A batch holds `batch_size` examples, steps on their mean loss computed in
    stacked arrays, and weighs its example count, so each epoch's log entry
    is the mean loss over its examples. The theta-free parts of every
    example are computed once, before the first step, so an
    out-of-vocabulary target raises `DataError` with the parameters untouched.
    """
    parts = _theta_free_parts(dataset, head)

    def batch_loss(chosen):
        loss, grads = _batch_loss_and_grads(
            stack.params, [dataset[i] for i in chosen], [parts[i] for i in chosen], head
        )
        return loss, grads, len(chosen)

    stack.training_log.extend(
        fit(stack.params, len(dataset), batch_loss, epochs=epochs, batch_size=batch_size,
            optimizer=optimizer, learning_rate=learning_rate, rng=rng, what="projection loss")
    )
    return stack


def rank_candidates(stack: ProjectionStack, head: SurrogateHead, x_user, candidates: list,
                    r_vec=None) -> list[str]:
    """Candidate ids sorted by the surrogate training loss with each
    candidate's title as the target: lowest loss first, ties by id.

    One prompt holds the whole slate (every candidate title with its O_Z
    adjacent), so the training forward runs once and the candidates differ
    only through their own title tokens; candidates with the same title
    tokens share one loss.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    targets = sorted({tuple(title.lower().split()) for _, title, _ in candidates})
    target_idx = [_target_indices(list(tokens), head) for tokens in targets]
    # the forward reads the slate only, so the first title serves as the target
    example = ProjectionExample(x_user, candidates, r_vec, list(targets[0]))
    means, *_ = _segment_means(stack.params, [example], _theta_free_parts([example], head))
    losses, _ = _nll_and_context_grads(
        np.repeat(means, len(targets), axis=0), target_idx,
        [_prefix_means(idx, head) for idx in target_idx], head,
    )
    loss_of = dict(zip(targets, losses.tolist()))
    ranked = sorted(candidates, key=lambda c: (loss_of[tuple(c[1].lower().split())], c[0]))
    return [item_id for item_id, _, _ in ranked]


def request_explanation(item: str, adapter, prompt: PromptBundle, user: str | None = None) -> str:
    """Explanation text for (user, item) from the adapter, given the rendered prompt.

    `user` defaults to the bundle's user.
    """
    key_user = user if user is not None else prompt.user
    return adapter.generate(key_user, item, render_prompt_text(prompt), None)


def build_projection_examples(
    pipeline,
    split,
    catalog: dict[str, tuple[str, str]],
    *,
    rng: np.random.Generator,
    slate_size: int = 100,
    cot_embeddings: dict[tuple[str, str], np.ndarray] | None = None,
) -> list[ProjectionExample]:
    """Training rows targeting each user's validation item.

    The slate is the user's `evaluate.draw_pools` pool around the target, in
    id order, each item with its unified latent embedding, gathered from one
    item table over the item universe.
    User vectors are computed in one batch. When `cot_embeddings` holds the
    embedding of a retained CoT for (user, target), an array or a
    `semantic.SparseVector`, it rides along as the reasoning segment.
    A split item without catalog text, or a target whose title has no
    token, is a DataError.
    """
    universe = sorted(split.item_universe())
    for item in universe:
        if item not in catalog:
            raise DataError(f"item {item!r} of the split has no catalog text")
    for target in split.validation.values():
        if not catalog[target][0].split():
            raise DataError(f"target item {target!r} has an empty catalog title")
    users = split.users()
    table = pipeline.item_table(universe, latent=True)
    x_users = pipeline.user_vectors([split.train[user] for user in users], table)
    pools = draw_pools(split, split.validation, slate_size, rng)
    examples: list[ProjectionExample] = []
    for user, x_user, pool in zip(users, x_users, pools):
        target = split.validation[user]
        slate = [(item, catalog[item][0], table.latent[table.index[item]]) for item in sorted(pool)]
        examples.append(
            ProjectionExample(
                x_user=x_user,
                slate=slate,
                r_vec=(cot_embeddings or {}).get((user, target)),
                target_tokens=catalog[target][0].lower().split(),
                user=user,
            )
        )
    return examples

