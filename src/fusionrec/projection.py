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

Training works on stacked arrays (`ProjectionDataset`): user vectors in one
array, and each slate as rows of one item table. The parts of the examples
that do not depend on the parameters (text-segment sums, segment counts,
target indices and prefix means) are stacked once per run, before the first
step. A step assembles its batch by gathers from those arrays, then runs one
forward and one backward pass per MLP over every row of the batch (each
slate row of every example through the item MLP at once), and one logits
GEMM over every target step of the batch. Ranking runs the same forward
over one slate and orders the candidates by the training loss with each
one's title as the target.
"""

from __future__ import annotations

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
class SurrogateHead:
    token_index: dict[str, int]
    w_out: np.ndarray  # (|V|, d_token), frozen
    b_out: np.ndarray  # (|V|,), frozen
    token_emb: np.ndarray  # (|V|, d_token), frozen
    seed: int


@dataclass
class ProjectionExample:
    """One training row in list form: raw prompt inputs plus the target title tokens."""

    x_user: np.ndarray
    slate: list  # list of (item_id, title, z_vector)
    r_vec: np.ndarray | None
    target_tokens: list[str]
    user: str | None = None


@dataclass
class ProjectionDataset:
    """Training rows whose slates are rows of one item table.

    Table row r is item `items[r]`, with title `titles[r]` and vector
    `z[r]`. Example b has the user vector `x_users[b]`, the slate
    `slates[b, :slate_lengths[b]]` of table rows (the entries past its
    length are padding), the reasoning vector `r_vecs[b]` (an array, a
    `semantic.SparseVector` or None), the target tokens `target_tokens[b]`
    and the user `users[b]`. `dataset[b]` is example b in list form.
    `pool_shortfalls` counts the slates drawn short of the slate size.
    """

    items: list[str]
    titles: list[str]
    z: np.ndarray
    x_users: np.ndarray
    slates: np.ndarray
    slate_lengths: np.ndarray
    r_vecs: list
    target_tokens: list[list[str]]
    users: list
    pool_shortfalls: int = 0

    @classmethod
    def of(cls, examples: list[ProjectionExample]) -> ProjectionDataset:
        """List-form examples stacked, each slate entry its own table row."""
        lengths = np.array([len(example.slate) for example in examples], dtype=np.intp)
        entries = [entry for example in examples for entry in example.slate]
        slates = np.zeros((len(examples), max(lengths, default=0)), dtype=np.intp)
        slates[np.arange(slates.shape[1]) < lengths[:, None]] = np.arange(len(entries))
        x_users = [example.x_user for example in examples]
        return cls(
            items=[item for item, _, _ in entries],
            titles=[title for _, title, _ in entries],
            z=np.array([z for _, _, z in entries], dtype=np.float64),
            x_users=np.vstack(x_users) if x_users else np.zeros((0, 0)),
            slates=slates,
            slate_lengths=lengths,
            r_vecs=[example.r_vec for example in examples],
            target_tokens=[example.target_tokens for example in examples],
            users=[example.user for example in examples],
        )

    def __len__(self) -> int:
        return len(self.slate_lengths)

    def __getitem__(self, b: int) -> ProjectionExample:
        slate = [(self.items[r], self.titles[r], self.z[r])
                 for r in self.slates[b, : self.slate_lengths[b]].tolist()]
        return ProjectionExample(self.x_users[b], slate, self.r_vecs[b], self.target_tokens[b],
                                 self.users[b])

    def __iter__(self):
        return (self[b] for b in range(len(self)))


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


def _nll_and_context_grads(means: np.ndarray, steps: np.ndarray, target: np.ndarray,
                           prefix: np.ndarray, head: SurrogateHead):
    """Per-example negative mean log-likelihood and its gradient w.r.t. each
    example's segment mean.

    Example b has `steps[b]` target steps, the next rows of `target` (token
    indices) and `prefix` (prefix means); its steps are the rows
    `means[b] + prefix`. The steps of all examples go through one logits
    GEMM. Each step's gradient is weighted by 1/steps[b] and summed back
    onto its example.
    """
    starts = np.concatenate(([0], np.cumsum(steps)[:-1]))
    contexts = np.repeat(means, steps, axis=0) + prefix
    logits = contexts @ head.w_out.T + head.b_out
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(len(target))
    losses = -np.add.reduceat(shifted[rows, target] - log_z, starts) / steps
    d_logits = np.exp(shifted - log_z[:, None])
    d_logits[rows, target] -= 1.0
    d_logits /= np.repeat(steps, steps)[:, None]
    return losses, np.add.reduceat(d_logits @ head.w_out, starts, axis=0)


def _target_steps(target_tokens, head: SurrogateHead):
    """(steps, first, target, prefix) of target token lists: list b has
    `steps[b]` steps, rows `first[b]` onward of `target` (token indices) and
    `prefix` (prefix means), which hold each distinct target once, in order
    of first appearance. Every list is checked, in order."""
    first_row: dict[tuple[int, ...], int] = {}
    targets, prefixes, steps, first = [], [], [], []
    for tokens in target_tokens:
        idx = _target_indices(tokens, head)
        key = tuple(idx)
        if key not in first_row:
            first_row[key] = len(targets)
            targets.extend(idx)
            prefixes.append(_prefix_means(idx, head))
        steps.append(len(idx))
        first.append(first_row[key])
    return (
        np.array(steps, dtype=np.intp),
        np.array(first, dtype=np.intp),
        np.array(targets, dtype=np.intp),
        np.concatenate(prefixes) if prefixes else np.zeros((0, head.token_emb.shape[1])),
    )


@dataclass(frozen=True)
class _ThetaFree:
    """The parts of every example's loss that no projection parameter
    moves, stacked: example b's text-segment sum `text_sum[b]`, its segment
    count `n_seg[b]`, and its target steps as `_target_steps` gives them."""

    text_sum: np.ndarray
    n_seg: np.ndarray
    steps: np.ndarray
    first: np.ndarray
    target: np.ndarray
    prefix: np.ndarray

    def step_rows(self, chosen: np.ndarray) -> np.ndarray:
        """The rows of `target` and `prefix` of the chosen examples' steps, in order."""
        steps = self.steps[chosen]
        ends = np.cumsum(steps)
        return np.repeat(self.first[chosen] - (ends - steps), steps) + np.arange(ends[-1])


def _theta_free_parts(data: ProjectionDataset, head: SurrogateHead) -> _ThetaFree:
    """Every example's theta-free parts; every target is checked here, before
    any step, so a bad token in a late example leaves the parameters as they were.

    The text segments (instruction, titles, query) are summed here in prompt
    order, one slate position at a time over all examples, each the mean
    embedding of its in-vocabulary tokens (zero if it has none). Every
    segment of the prompt is counted: 3 + 2n for a slate of n, plus one for
    a reasoning vector.
    """
    if not data.slate_lengths.all():
        raise ValueError("a projection example needs a non-empty slate")
    steps, first, target, prefix = _target_steps(data.target_tokens, head)
    d_token = head.token_emb.shape[1]
    text_vectors: dict[str, np.ndarray] = {}

    def text_vector(text: str) -> np.ndarray:
        if text not in text_vectors:
            known = [head.token_index[t] for t in text.lower().split() if t in head.token_index]
            text_vectors[text] = head.token_emb[known].mean(axis=0) if known else np.zeros(d_token)
        return text_vectors[text]

    titles = np.array([text_vector(title) for title in data.titles]).reshape(-1, d_token)
    text_sum = np.zeros((len(data), d_token))
    text_sum += text_vector(PROMPT_INSTRUCTION)
    for j in range(data.slates.shape[1]):
        live = data.slate_lengths > j
        if live.all():
            text_sum += titles[data.slates[:, j]]
        else:
            text_sum[live] += titles[data.slates[live, j]]
    text_sum += text_vector(PROMPT_QUERY)
    with_r = np.array([r_vec is not None for r_vec in data.r_vecs], dtype=np.intp)
    n_seg = 3 + 2 * data.slate_lengths + with_r
    return _ThetaFree(text_sum, n_seg, steps, first, target, prefix)


def _segment_means(params: dict, data: ProjectionDataset, parts: _ThetaFree,
                   chosen: np.ndarray):
    """Each chosen example's prompt segment mean, and what the backward pass needs.

    The batch is gathered from the stacked arrays, then one forward pass
    runs per MLP: `fx` over the user vectors, `fz` over every slate row of
    the batch, `fr` over the examples that carry a reasoning vector,
    stacked dense from arrays and compact vectors alike (`np.vstack`).
    Example b's mean is its text sum plus its projected segments over its
    segment count. Returns the means, the segment counts, the slate lengths,
    the three MLP caches (`fr`'s None without reasoning) and the batch
    positions of the examples with reasoning.
    """
    lengths = data.slate_lengths[chosen]
    slate_rows = data.slates[chosen][np.arange(data.slates.shape[1]) < lengths[:, None]]
    with_r = [b for b, i in enumerate(chosen.tolist()) if data.r_vecs[i] is not None]

    o_x, cache_x = _mlp_forward(params, "fx", data.x_users[chosen])
    o_z, cache_z = _mlp_forward(params, "fz", data.z[slate_rows])
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    total = parts.text_sum[chosen] + o_x + np.add.reduceat(o_z, starts, axis=0)
    cache_r = None
    if with_r:
        o_r, cache_r = _mlp_forward(
            params, "fr", np.vstack([data.r_vecs[i] for i in chosen[with_r].tolist()])
        )
        total[with_r] += o_r
    n_seg = parts.n_seg[chosen]
    return total / n_seg[:, None], n_seg, lengths, (cache_x, cache_z, cache_r), with_r


def _batch_loss_and_grads(params: dict, data: ProjectionDataset, parts: _ThetaFree,
                          chosen, head: SurrogateHead):
    """Mean surrogate loss over the chosen examples and its parameter gradients.

    The forward is `_segment_means`; the backward runs one pass per MLP, and
    each slate row takes its owner's gradient row.
    """
    chosen = np.asarray(chosen, dtype=np.intp)
    scale = 1.0 / len(chosen)
    means, n_seg, lengths, (cache_x, cache_z, cache_r), with_r = _segment_means(
        params, data, parts, chosen
    )
    rows = parts.step_rows(chosen)
    losses, d_means = _nll_and_context_grads(
        means, parts.steps[chosen], parts.target[rows], parts.prefix[rows], head
    )
    d_rows = d_means / n_seg[:, None] * scale
    owner = np.repeat(np.arange(len(chosen)), lengths)
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
    data = ProjectionDataset.of([example])
    return _batch_loss_and_grads(stack.params, data, _theta_free_parts(data, head), [0], head)


def train_projections(
    stack: ProjectionStack,
    dataset,
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

    `dataset` is a `ProjectionDataset` or a list of `ProjectionExample`s,
    which is stacked first. A batch holds `batch_size` examples, steps on
    their mean loss computed in stacked arrays, and weighs its example
    count, so each epoch's log entry is the mean loss over its examples. The
    theta-free parts of every example are stacked once, before the first
    step, so an out-of-vocabulary target raises `DataError` with the
    parameters untouched.
    """
    data = dataset if isinstance(dataset, ProjectionDataset) else ProjectionDataset.of(dataset)
    parts = _theta_free_parts(data, head)

    def batch_loss(chosen):
        loss, grads = _batch_loss_and_grads(stack.params, data, parts, chosen, head)
        return loss, grads, len(chosen)

    stack.training_log.extend(
        fit(stack.params, len(data), batch_loss, epochs=epochs, batch_size=batch_size,
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
    steps, _, target, prefix = _target_steps([list(tokens) for tokens in targets], head)
    # the forward reads the slate only, so the first title serves as the target
    data = ProjectionDataset.of([ProjectionExample(x_user, candidates, r_vec, list(targets[0]))])
    means, *_ = _segment_means(stack.params, data, _theta_free_parts(data, head),
                               np.zeros(1, dtype=np.intp))
    losses, _ = _nll_and_context_grads(
        np.repeat(means, len(targets), axis=0), steps, target, prefix, head
    )
    loss_of = dict(zip(targets, losses.tolist()))
    ranked = sorted(candidates, key=lambda c: (loss_of[tuple(c[1].lower().split())], c[0]))
    return [item_id for item_id, _, _ in ranked]


def build_projection_examples(
    pipeline,
    split,
    catalog: dict[str, tuple[str, str]],
    *,
    rng: np.random.Generator,
    slate_size: int = 100,
    cot_embeddings: dict[tuple[str, str], np.ndarray] | None = None,
) -> ProjectionDataset:
    """Training rows targeting each user's validation item, in user order.

    The slate is the user's `evaluate.draw_pools` pool around the target, in
    id order, as rows of one item table over the item universe that holds
    each item's unified latent embedding and title. User vectors are
    computed in one batch. When `cot_embeddings` holds the embedding of a
    retained CoT for (user, target), an array or a `semantic.SparseVector`,
    it rides along as the reasoning segment.
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
    targets = [split.validation[user] for user in users]
    # the table's rows are the universe's, so a pool's rows are its slate's
    table = pipeline.item_table(universe, latent=True)
    x_users = pipeline.user_vectors([split.train[user] for user in users], table)
    pools = draw_pools(split, split.validation, slate_size, rng)
    valid = pools.valid()
    slates = np.sort(np.where(valid, pools.rows, len(universe)), axis=1)
    slates[~valid] = 0
    cot_embeddings = cot_embeddings or {}
    return ProjectionDataset(
        items=universe,
        titles=[catalog[item][0] for item in universe],
        z=table.latent,
        x_users=x_users,
        slates=slates,
        slate_lengths=pools.lengths,
        r_vecs=[cot_embeddings.get(key) for key in zip(users, targets)],
        target_tokens=[catalog[target][0].lower().split() for target in targets],
        users=users,
        pool_shortfalls=int(np.count_nonzero(pools.lengths < slate_size)),
    )
