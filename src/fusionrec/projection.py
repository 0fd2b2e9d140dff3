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
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field

import numpy as np

from .align import unified_item_embedding
from .cot import _unescape
from .errors import DataError, TrainingError
from .gradcheck import max_relative_gradient_error
from .optim import make_optimizer, xavier
from .semantic import fallback_embed

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
    "surrogate_lm_loss",
    "surrogate_loss_and_gradients",
    "train_projections",
    "rank_candidates",
    "request_explanation",
    "cot_signal_from_record",
    "build_projection_examples",
    "load_explanation_fixture",
    "gradient_check_projection",
    "EXPLANATION_DELIMITER",
]

PROMPT_INSTRUCTION = "Choose the item this user is most likely to interact with next."
PROMPT_QUERY = "Which candidate item comes next for this user?"
EXPLANATION_REQUEST = (
    "Then explain the choice. Respond as: <title> ||| <explanation>."
)
EXPLANATION_DELIMITER = "|||"


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

    def soft_segments(self):
        return [(i, seg[1], seg[2]) for i, seg in enumerate(self.segments) if seg[0] == "soft"]


@dataclass
class SurrogateHead:
    vocabulary: list[str]
    token_index: dict[str, int]
    w_out: np.ndarray  # (|V|, d_token), frozen
    b_out: np.ndarray  # (|V|,), frozen
    token_emb: np.ndarray  # (|V|, d_token), frozen
    seed: int

    def embed_tokens(self, tokens: list[str]) -> np.ndarray:
        idx = []
        for tok in tokens:
            if tok not in self.token_index:
                raise DataError(f"token {tok!r} is outside the surrogate vocabulary")
            idx.append(self.token_index[tok])
        return self.token_emb[idx]


@dataclass
class UserContext:
    """Per-user inputs for ranking: projected user vector plus optional CoT."""

    x_user: np.ndarray
    r_vec: np.ndarray | None = None
    templates: dict | None = None


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


def _mlp_backward(params: dict, prefix: str, cache, d_out: np.ndarray, grads: dict) -> None:
    x, pre, act = cache
    d_out = np.atleast_2d(d_out)
    grads[f"{prefix}.w2"] += d_out.T @ act
    grads[f"{prefix}.b2"] += d_out.sum(axis=0)
    d_act = d_out @ params[f"{prefix}.w2"]
    d_pre = d_act * (pre > 0)
    grads[f"{prefix}.w1"] += d_pre.T @ x
    grads[f"{prefix}.b1"] += d_pre.sum(axis=0)


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


def assemble_prompt(o_x, candidates, o_r=None, templates=None, user=None) -> PromptBundle:
    """Layout: [O_X] -> instruction -> (title, O_Z) per candidate -> [O_r] -> query."""
    if not candidates:
        raise ValueError("need at least one candidate")
    templates = templates or {}
    segments: list = [("soft", "user", np.asarray(o_x, dtype=np.float64))]
    segments.append(("text", templates.get("instruction", PROMPT_INSTRUCTION)))
    for i, (title, o_z) in enumerate(candidates):
        segments.append(("text", title))
        segments.append(("soft", f"item{i}", np.asarray(o_z, dtype=np.float64)))
    if o_r is not None:
        segments.append(("soft", "reasoning", np.asarray(o_r, dtype=np.float64)))
    segments.append(("text", templates.get("query", PROMPT_QUERY)))
    return PromptBundle(segments=segments, user=user)


def render_prompt_text(bundle: PromptBundle) -> str:
    """Text rendering for remote adapters; soft vectors become placeholders."""
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


def _nll_and_context_grad(mean_seg: np.ndarray, target_idx: list[int], head: SurrogateHead):
    """Negative mean log-likelihood plus gradient w.r.t. the segment mean."""
    contexts = mean_seg[None, :] + _prefix_means(target_idx, head)
    logits = contexts @ head.w_out.T + head.b_out
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(len(target_idx))
    log_probs = shifted[rows, target_idx] - log_z
    loss = float(-log_probs.mean())
    probs = np.exp(shifted - log_z[:, None])
    d_logits = probs
    d_logits[rows, target_idx] -= 1.0
    d_logits /= len(target_idx)
    d_context = d_logits @ head.w_out
    return loss, d_context.sum(axis=0)


def surrogate_lm_loss(bundle: PromptBundle, target_tokens: list[str], head: SurrogateHead) -> float:
    """Negative mean log-likelihood of the target tokens under the frozen head."""
    target_idx = _target_indices(target_tokens, head)
    mean_seg, _ = _context_base(bundle, head)
    loss, _ = _nll_and_context_grad(mean_seg, target_idx, head)
    return loss


def _example_loss_and_grads(stack, example: ProjectionExample, head, grads, text_cache):
    """Forward + backward for one example; accumulates parameter gradients."""
    params = stack.params
    o_x, cache_x = _mlp_forward(params, "fx", example.x_user)
    z_mat = np.array([np.asarray(z, dtype=np.float64) for _, _, z in example.slate])
    o_z, cache_z = _mlp_forward(params, "fz", z_mat)
    o_r = cache_r = None
    if example.r_vec is not None:
        o_r, cache_r = _mlp_forward(params, "fr", example.r_vec)

    text_sum, n_text = text_cache
    n_seg = n_text + 1 + len(example.slate) + (1 if o_r is not None else 0)
    total = text_sum + o_x[0] + o_z.sum(axis=0)
    if o_r is not None:
        total = total + o_r[0]
    mean_seg = total / n_seg

    target_idx = _target_indices(example.target_tokens, head)
    loss, d_mean = _nll_and_context_grad(mean_seg, target_idx, head)
    d_each = d_mean / n_seg
    _mlp_backward(params, "fx", cache_x, d_each[None, :], grads)
    _mlp_backward(params, "fz", cache_z, np.tile(d_each, (len(example.slate), 1)), grads)
    if o_r is not None:
        _mlp_backward(params, "fr", cache_r, d_each[None, :], grads)
    return loss


def _example_text_cache(example: ProjectionExample, head: SurrogateHead, templates=None):
    """Sum of text-segment vectors (instruction, titles, query): theta-free."""
    templates = templates or {}
    d_token = head.w_out.shape[1]
    total = np.zeros(d_token)
    texts = [templates.get("instruction", PROMPT_INSTRUCTION)]
    texts += [title for _, title, _ in example.slate]
    texts.append(templates.get("query", PROMPT_QUERY))
    for text in texts:
        total += _segment_vector(("text", text), head, d_token)
    return total, len(texts)


def surrogate_loss_and_gradients(stack: ProjectionStack, example: ProjectionExample,
                                 head: SurrogateHead):
    """Loss and analytic parameter gradients for one example (used by tests)."""
    grads = {name: np.zeros_like(arr) for name, arr in stack.params.items()}
    loss = _example_loss_and_grads(stack, example, head, grads, _example_text_cache(example, head))
    return loss, grads


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
    """Gradient descent on the surrogate loss over projection parameters only."""
    if head is None:
        raise ValueError("a surrogate head is required")
    if rng is None:
        rng = np.random.default_rng(0)
    opt = make_optimizer(optimizer, learning_rate)
    caches = [_example_text_cache(ex, head) for ex in dataset]
    order = np.arange(len(dataset))
    log: list[float] = []
    for epoch in range(epochs):
        perm = rng.permutation(order)
        epoch_loss = 0.0
        for start in range(0, len(perm), batch_size):
            chosen = perm[start : start + batch_size]
            grads = {name: np.zeros_like(arr) for name, arr in stack.params.items()}
            batch_loss = 0.0
            for i in chosen:
                batch_loss += _example_loss_and_grads(
                    stack, dataset[i], head, grads, caches[i]
                )
            scale = 1.0 / len(chosen)
            for name in grads:
                grads[name] *= scale
            batch_loss *= scale
            if not math.isfinite(batch_loss):
                raise TrainingError(f"non-finite projection loss at epoch {epoch}")
            opt.step(stack.params, grads)
            epoch_loss += batch_loss * len(chosen)
        log.append(epoch_loss / len(dataset))
    stack.training_log.extend(log)
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
        templates=user_context.templates,
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


def request_explanation(z_item, r_cot, adapter, prompt: PromptBundle, user: str | None = None) -> str:
    """Explanation text for (user, item): fixture lookup, or a single remote
    call that returns both the pick and the explanation split on '|||'."""
    item = getattr(z_item, "item", None)
    key_user = user if user is not None else prompt.user
    if adapter.mode == "fixture":
        return adapter.generate(key_user, item, render_prompt_text(prompt), None)
    rendered = render_prompt_text(prompt) + "\n" + EXPLANATION_REQUEST
    response = adapter.generate(key_user, item, rendered, None)
    if EXPLANATION_DELIMITER not in response:
        raise DataError(
            f"remote explanation response lacks the {EXPLANATION_DELIMITER!r} delimiter"
        )
    _title, explanation = response.split(EXPLANATION_DELIMITER, 1)
    return explanation.strip()


def cot_signal_from_record(record, embedder=fallback_embed) -> CotSignal:
    """Embed a retained reasoning record; rejected records are not eligible."""
    if not record.retained:
        raise ValueError("only retained reasoning records may feed the prompt")
    return CotSignal(embedding=embedder(record.cot), score=record.score)


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
    latent embedding. When a retained CoT exists for (user, target), its
    embedding rides along as the reasoning segment.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    universe = sorted(split.item_universe())
    examples: list[ProjectionExample] = []
    for user in split.users():
        target = split.validation[user]
        history = split.train[user]
        x_user = pipeline.user_vector(history)
        owned = set(split.full_sequence(user))
        eligible = [item for item in universe if item not in owned and item != target]
        wanted = slate_size - 1
        if len(eligible) > wanted:
            chosen = rng.choice(len(eligible), size=wanted, replace=False)
            others = [eligible[i] for i in chosen]
        else:
            others = eligible
        slate = []
        for item in sorted(others + [target]):
            unified = unified_item_embedding(
                pipeline.alignment, item, pipeline.cf_model, pipeline.semantic_map or {}
            )
            slate.append((item, catalog[item][0], unified.vector))
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
