"""Projection into token space, prompt assembly, surrogate training, ranking.

Three 2-layer MLPs (affine -> ReLU -> affine) map the user representation,
the unified item embedding, and the CoT text embedding into a shared
d_token-dim space. Projected vectors are placed into a PromptBundle as soft
segments: [O_X] -> instruction -> per candidate (title, O_Z) -> [O_r] ->
query.

The real frozen language model is replaced by a surrogate head: a seeded,
frozen affine map from d_token to a title-token vocabulary plus a frozen
token-embedding lookup. The context for each target step is the mean of all
bundle segment vectors plus the mean of the embedded target prefix; the
training loss is the negative mean log-likelihood of the target tokens,
differentiable with respect to the projection parameters only.

Training works on stacked arrays, one batch per optimizer step: one forward
and one backward pass per MLP over every row of the batch (each slate row
of every example through the item MLP at once), and one logits GEMM over
every target step of the batch. The parts of an example that do not depend
on the parameters (its target indices, prefix means and text-segment sum)
are computed once per run, before the first step.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field

import numpy as np

from .cot import _unescape
from .errors import DataError
from .evaluate import sample_pool
from .gradcheck import max_relative_gradient_error
from .optim import fit, xavier

__all__ = [
    "ProjectionStack",
    "CotSignal",
    "PromptBundle",
    "SurrogateHead",
    "UserContext",
    "ProjectionExample",
    "init_projection_stack",
    "build_vocabulary",
    "make_surrogate_head",
    "project_components",
    "assemble_prompt",
    "render_prompt_text",
    "surrogate_loss_and_gradients",
    "train_projections",
    "rank_candidates",
    "request_explanation",
    "build_projection_examples",
    "load_explanation_fixture",
    "gradient_check_projection",
]

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
class CotSignal:
    """Embedding of a retained reasoning text plus its quality score."""

    embedding: np.ndarray
    score: float


@dataclass
class PromptBundle:
    """Ordered segments; each is ("text", str) or ("soft", name, vector)."""

    segments: list
    user: str | None = None


@dataclass
class SurrogateHead:
    vocabulary: list[str]
    token_index: dict[str, int]
    w_out: np.ndarray  # (|V|, d_token), frozen
    b_out: np.ndarray  # (|V|,), frozen
    token_emb: np.ndarray  # (|V|, d_token), frozen
    seed: int


@dataclass
class UserContext:
    """Per-user inputs for ranking: projected user vector plus optional CoT."""

    x_user: np.ndarray
    r_vec: np.ndarray | None = None


@dataclass
class ProjectionExample:
    """One training row: raw bundle inputs plus the target title tokens."""

    x_user: np.ndarray
    slate: list  # list of (item_id, title, z_vector)
    r_vec: np.ndarray | None
    target_tokens: list[str]
    user: str | None = None


def init_projection_stack(
    d_user: int = 50,
    d_item: int = 128,
    d_cot: int = 768,
    d_token: int = 256,
    hidden: int = 256,
    rng: np.random.Generator | None = None,
) -> ProjectionStack:
    if rng is None:
        rng = np.random.default_rng(0)

    params: dict[str, np.ndarray] = {}
    for prefix, d_in in (("fx", d_user), ("fz", d_item), ("fr", d_cot)):
        params[f"{prefix}.w1"] = xavier(rng, hidden, d_in)
        params[f"{prefix}.b1"] = np.zeros(hidden)
        params[f"{prefix}.w2"] = xavier(rng, d_token, hidden)
        params[f"{prefix}.b2"] = np.zeros(d_token)
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
        r_vec = r_cot.embedding if isinstance(r_cot, CotSignal) else r_cot
        o_r_arr, _ = _mlp_forward(stack.params, "fr", r_vec)
        o_r = o_r_arr[0]
    return o_x[0], o_z[0], o_r


def assemble_prompt(o_x, candidates, o_r=None, user=None) -> PromptBundle:
    """Layout: [O_X] -> instruction -> (title, O_Z) per candidate -> [O_r] -> query."""
    if not candidates:
        raise ValueError("need at least one candidate")
    segments: list = [("soft", "user", np.asarray(o_x, dtype=np.float64))]
    segments.append(("text", PROMPT_INSTRUCTION))
    for i, (title, o_z) in enumerate(candidates):
        segments.append(("text", title))
        segments.append(("soft", f"item{i}", np.asarray(o_z, dtype=np.float64)))
    if o_r is not None:
        segments.append(("soft", "reasoning", np.asarray(o_r, dtype=np.float64)))
    segments.append(("text", PROMPT_QUERY))
    return PromptBundle(segments=segments, user=user)


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
        vocabulary=list(vocabulary),
        token_index={tok: i for i, tok in enumerate(vocabulary)},
        w_out=w_out,
        b_out=b_out,
        token_emb=token_emb,
        seed=seed,
    )


def _segment_vector(seg, head: SurrogateHead, d_token: int) -> np.ndarray:
    if seg[0] == "soft":
        vec = seg[2]
        if vec.shape != (d_token,):
            raise ValueError(f"soft segment {seg[1]!r} has shape {vec.shape}, want ({d_token},)")
        return vec
    known = [head.token_index[t] for t in seg[1].lower().split() if t in head.token_index]
    if not known:
        return np.zeros(d_token)
    return head.token_emb[known].mean(axis=0)


def _context_base(bundle: PromptBundle, head: SurrogateHead) -> tuple[np.ndarray, int]:
    d_token = head.w_out.shape[1]
    total = np.zeros(d_token)
    for seg in bundle.segments:
        total += _segment_vector(seg, head, d_token)
    return total / len(bundle.segments), len(bundle.segments)

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


def _example_text_cache(example: ProjectionExample, head: SurrogateHead,
                        vectors: dict[str, np.ndarray]):
    """Sum of text-segment vectors (instruction, titles, query): theta-free.

    `vectors` memoises each distinct text's segment vector across examples.
    """
    d_token = head.w_out.shape[1]
    total = np.zeros(d_token)
    texts = [PROMPT_INSTRUCTION, *(title for _, title, _ in example.slate), PROMPT_QUERY]
    for text in texts:
        if text not in vectors:
            vectors[text] = _segment_vector(("text", text), head, d_token)
        total += vectors[text]
    return total, len(texts)


@dataclass
class _ThetaFree:
    """The parts of one example's loss that no projection parameter moves."""

    text_sum: np.ndarray
    n_text: int
    target_idx: list[int]
    prefix: np.ndarray


def _theta_free_parts(dataset: list[ProjectionExample], head: SurrogateHead) -> list[_ThetaFree]:
    """Each example's theta-free parts; every target is checked here, before
    any step, so a bad token in a late example leaves the parameters as they were."""
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
        text_sum, n_text = _example_text_cache(example, head, text_vectors)
        parts.append(_ThetaFree(text_sum, n_text, target_idx, prefixes[key]))
    return parts


def _batch_loss_and_grads(params: dict, batch: list[ProjectionExample],
                          parts: list[_ThetaFree], head: SurrogateHead):
    """Mean surrogate loss over `batch` and its parameter gradients.

    One forward and one backward pass per MLP: `fx` over the stacked user
    vectors, `fz` over every slate row of the batch, `fr` over the examples
    that carry a reasoning vector. Example b's segment mean is its text sum
    plus its projected segments over its segment count; each slate row takes
    its owner's gradient row.
    """
    scale = 1.0 / len(batch)
    slate_len = np.array([len(example.slate) for example in batch])
    owner = np.repeat(np.arange(len(batch)), slate_len)
    with_r = [b for b, example in enumerate(batch) if example.r_vec is not None]

    o_x, cache_x = _mlp_forward(params, "fx", np.vstack([example.x_user for example in batch]))
    z_rows = np.array([z for example in batch for _, _, z in example.slate], dtype=np.float64)
    o_z, cache_z = _mlp_forward(params, "fz", z_rows)
    starts = np.concatenate(([0], np.cumsum(slate_len)[:-1]))
    total = np.array([part.text_sum for part in parts]) + o_x + np.add.reduceat(o_z, starts, axis=0)
    if with_r:
        o_r, cache_r = _mlp_forward(params, "fr", np.vstack([batch[b].r_vec for b in with_r]))
        total[with_r] += o_r
    n_seg = np.array([part.n_text for part in parts]) + 1 + slate_len
    n_seg[with_r] += 1
    means = total / n_seg[:, None]

    losses, d_means = _nll_and_context_grads(
        means, [part.target_idx for part in parts], [part.prefix for part in parts], head
    )
    d_rows = d_means / n_seg[:, None] * scale
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
    head: SurrogateHead | None = None,
    rng: np.random.Generator | None = None,
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
    if head is None:
        raise ValueError("a surrogate head is required")
    if rng is None:
        rng = np.random.default_rng(0)
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


def rank_candidates(stack: ProjectionStack, head: SurrogateHead, user_context: UserContext,
                    candidates: list) -> list[str]:
    """Candidates sorted by mean target-token log-likelihood, ties by id.

    One bundle holds the whole slate (every candidate title with its O_Z
    adjacent), so all candidates are scored under a shared context and
    differ only through their own title tokens.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    o_x, _ = _mlp_forward(stack.params, "fx", user_context.x_user)
    z_mat = np.array([np.asarray(z, dtype=np.float64) for _, _, z in candidates])
    o_z, _ = _mlp_forward(stack.params, "fz", z_mat)
    o_r = None
    if user_context.r_vec is not None:
        o_r_arr, _ = _mlp_forward(stack.params, "fr", user_context.r_vec)
        o_r = o_r_arr[0]
    bundle = assemble_prompt(
        o_x[0],
        [(title, o_z[i]) for i, (_, title, _) in enumerate(candidates)],
        o_r=o_r,
    )
    mean_seg, _ = _context_base(bundle, head)
    scored = []
    for item_id, title, _ in candidates:
        target_idx = _target_indices(title.lower().split(), head)
        contexts = mean_seg[None, :] + _prefix_means(target_idx, head)
        logits = contexts @ head.w_out.T + head.b_out
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1))
        rows = np.arange(len(target_idx))
        score = float((shifted[rows, target_idx] - log_z).mean())
        scored.append((item_id, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return [item_id for item_id, _ in scored]


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
    rng: np.random.Generator | None = None,
    slate_size: int = 100,
    cot_signals: dict[tuple[str, str], CotSignal] | None = None,
) -> list[ProjectionExample]:
    """Training rows targeting each user's validation item.

    The slate holds the target plus sampled items from outside the user's
    sequence (mirroring the evaluation pool structure), each with its unified
    latent embedding, gathered from one item table over the item universe.
    User vectors are computed in one batch. When a retained CoT exists for
    (user, target), its embedding rides along as the reasoning segment.
    A split item without catalog text, or a target whose title has no
    token, is a DataError.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    universe = sorted(split.item_universe())
    position = {item: i for i, item in enumerate(universe)}
    for item in universe:
        if item not in catalog:
            raise DataError(f"item {item!r} of the split has no catalog text")
    for target in split.validation.values():
        if not catalog[target][0].split():
            raise DataError(f"target item {target!r} has an empty catalog title")
    users = split.users()
    table = pipeline.item_table(universe, latent=True)
    x_users = pipeline.user_vectors([split.train[user] for user in users], table)
    examples: list[ProjectionExample] = []
    for user, x_user in zip(users, x_users):
        target = split.validation[user]
        slate = [
            (item, catalog[item][0], table.latent[table.index[item]])
            for item in sorted(sample_pool(split, user, target, universe, position, slate_size, rng))
        ]
        signal = (cot_signals or {}).get((user, target))
        examples.append(
            ProjectionExample(
                x_user=x_user,
                slate=slate,
                r_vec=signal.embedding if signal is not None else None,
                target_tokens=catalog[target][0].lower().split(),
                user=user,
            )
        )
    return examples


def load_explanation_fixture(path) -> dict[tuple[str, str], str]:
    """Read `user_id<TAB>item_id<TAB>explanation` records."""
    out: dict[tuple[str, str], str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t", 2)
            if len(parts) != 3:
                raise DataError(
                    f"explanation fixture line {lineno}: expected 3 tab-separated fields"
                )
            user, item, text = parts
            out[(user, item)] = _unescape(text)
    return out


def gradient_check_projection(stack: ProjectionStack, example: ProjectionExample,
                              head: SurrogateHead, h: float = 1e-5) -> float:
    """Finite-difference verification of the surrogate-loss gradients."""
    _, grads = surrogate_loss_and_gradients(stack, example, head)

    def loss_fn():
        return surrogate_loss_and_gradients(stack, example, head)[0]

    return max_relative_gradient_error(loss_fn, stack.params, grads, h=h)
