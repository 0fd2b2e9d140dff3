"""Reasoning-trace construction, generation adapters, scoring, and filtering.

An instruction instance is structured text with four parts: a fixed task
instruction, the chronological interaction history (re-interactions
annotated), the target item text, and a verbalized prior. An adapter turns
instances into reasoning texts (CoTs) through
`generate(user, item, prompt, instance)`; the fixture adapter is fully
deterministic (stored corpus, or a template expansion when no corpus is
configured).

Each CoT is scored on four dimensions in [0, 1] (coherence, completeness,
relevance, consistency), combined as a weighted sum, and filtered against a
threshold.
"""

from __future__ import annotations

import functools
import re
import string
from dataclasses import dataclass

import numpy as np

from .data import keyed_lines
from .errors import ConfigError, DataError
from .lexicon import POLARITY
from .semantic import similarity_mapped, token_counts, unit_rows

MAX_COT_TOKENS = 180

TASK_INSTRUCTION = (
    "Decide whether the user will interact with the target item next. "
    "Reason step by step: describe the user's preference profile from the "
    "history, assess the target item, and check consistency with the prior."
)

LABEL_SENTENCES = {
    1: "the user will interact with the target item",
    0: "the user will not interact with the target item",
}

# Cue words that mark the sentence in which a CoT commits to a candidate.
_NAMING_CUES = ("matches", "match", "most likely", "aligns", "fits", "best", "points to")

_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+")


@dataclass
class InstructionInstance:
    user: str
    task: str
    history_lines: list[str]
    target_line: str
    prior_line: str
    label: int
    target_item: str
    history_titles: list[str]  # catalog title of each history line
    target_title: str
    candidates: list[tuple[str, str, float]] | None = None  # (id, title, prior)

    def history_text(self) -> str:
        return "\n".join(self.history_lines)

    def text(self) -> str:
        return (
            f"{self.task}\n\nUser history:\n{self.history_text()}\n\n"
            f"Target item:\n{self.target_line}\n\nCF prior: {self.prior_line}"
        )


@dataclass
class CotRecord:
    instance: InstructionInstance
    cot: str
    dims: tuple[float, float, float, float]  # coherence, completeness, relevance, consistency
    score: float
    retained: bool = False


def build_instruction_instance(
    user: str,
    history: list[str],
    target: str,
    prior_text: str,
    catalog: dict[str, tuple[str, str]],
    k_prompt: int = 10,
    label: int = 1,
    candidates=None,
) -> InstructionInstance:
    """Assemble the four prompt parts; history oldest-first, re-watches marked."""
    if not history:
        raise ValueError("history must be non-empty")
    if target not in catalog:
        raise DataError(f"target item {target!r} has no catalog text")

    def item_line(item: str) -> str:
        if item not in catalog:
            raise DataError(f"history item {item!r} has no catalog text")
        title, description = catalog[item]
        return f"{title} - {description}" if description else title

    start = max(0, len(history) - k_prompt)
    lines, titles = [], []
    for offset, item in enumerate(history[start:]):
        pos = start + offset
        rewatch = " (re-watch)" if item in history[:pos] else ""
        lines.append(f"{offset + 1}. {item_line(item)}{rewatch}")
        titles.append(catalog[item][0])
    return InstructionInstance(
        user=user,
        task=TASK_INSTRUCTION,
        history_lines=lines,
        target_line=item_line(target),
        prior_line=prior_text,
        label=int(label),
        target_item=target,
        history_titles=titles,
        target_title=catalog[target][0],
        candidates=list(candidates) if candidates else None,
    )


def truncate_tokens(text: str, limit: int = MAX_COT_TOKENS) -> str:
    tokens = text.split()
    if len(tokens) <= limit:
        return text
    return " ".join(tokens[:limit])


def _template_expansion(instance: InstructionInstance) -> str:
    """Deterministic three-step reasoning text rendered from the instance."""
    profile = (
        f"The recent history covers {', '.join(instance.history_titles[-3:])}. "
        "These interactions point to a settled preference profile."
    )
    if instance.label == 1:
        assessment = (
            f"The target item {instance.target_title} matches the preference profile; "
            f"the prior states {instance.prior_line}."
        )
        verdict = "Therefore the user will interact with the target item."
    else:
        assessment = (
            f"The target item {instance.target_title} sits outside the preference profile; "
            f"the prior states {instance.prior_line}."
        )
        verdict = "Therefore the user will not interact with the target item."
    return f"{profile} {assessment} {verdict}"


class FixtureAdapter:
    """Deterministic generation: stored corpus keyed by (user, item), or a
    template expansion of the instance when no corpus is configured."""

    def __init__(self, corpus: dict[tuple[str, str], str] | None = None):
        self.corpus = corpus

    def generate(self, user: str, item: str, prompt: str, instance) -> str:
        if self.corpus is not None:
            try:
                return self.corpus[(user, item)]
            except KeyError:
                raise DataError(f"no fixture entry for user {user!r}, item {item!r}") from None
        return _template_expansion(instance)


def generate_cot(adapter, instance: InstructionInstance) -> str:
    """Obtain a reasoning text for the instance, capped at 180 whitespace tokens."""
    raw = adapter.generate(instance.user, instance.target_item, instance.text(), instance)
    return truncate_tokens(raw)


def _split_sentences(text: str) -> list[str]:
    parts = [s.strip() for s in _SENTENCE_RE.split(text.strip())]
    return [s for s in parts if s]


def _sentence_polarity(sentence: str) -> float:
    signs = []
    for token in sentence.lower().split():
        word = token.strip(string.punctuation)
        if word in POLARITY:
            signs.append(POLARITY[word])
    if not signs:
        return 0.0
    # the signs are +-1, so the sum is exact in any order
    return sum(signs) / len(signs)


def score_coherence(cot: str, sentences=None, polarity=_sentence_polarity) -> float:
    """1 - 0.5*V - 0.5*R clamped to [0, 1].

    V is the population variance of per-sentence lexicon polarity (0 when
    every polarity is 0); R is the fraction of duplicate 3-grams among all
    (sliding-window) 3-grams of the token stream, 0 when there are fewer
    than three tokens. Empty text scores 0 by convention. A caller that has
    split the trace already passes its `sentences`, and may pass a memoised
    `polarity`.
    """
    if sentences is None:
        sentences = _split_sentences(cot)
    if not sentences:
        return 0.0
    polarities = [polarity(s) for s in sentences]
    variance = float(np.var(polarities)) if any(polarities) else 0.0
    tokens = cot.lower().split()
    grams = list(zip(tokens, tokens[1:], tokens[2:]))
    repetition = (len(grams) - len(set(grams))) / len(grams) if grams else 0.0
    return min(1.0, max(0.0, 1.0 - 0.5 * variance - 0.5 * repetition))


def _is_word_char(ch: str) -> bool:
    # the definition of the regex class \w for str patterns
    return ch.isalnum() or ch == "_"


def _find_whole_word(needle: str, text: str) -> int | None:
    r"""Leftmost start of `needle` in `text` not touching a word character on
    either side, as `re.search(r"(?<!\w)" + re.escape(needle) + r"(?!\w)")`."""
    start = text.find(needle)
    while start >= 0:
        end = start + len(needle)
        if (start == 0 or not _is_word_char(text[start - 1])) and (
            end == len(text) or not _is_word_char(text[end])
        ):
            return start
        start = text.find(needle, start + 1)
    return None


def _named_candidate(sentences: list[str], candidates) -> str | None:
    """Id of the candidate a trace, split into `sentences`, commits to, per
    cue-sentence scan."""
    if not candidates:
        return None
    for sentence in sentences:
        low = sentence.lower()
        if not any(cue in low for cue in _NAMING_CUES):
            continue
        best_pos, best_id = None, None
        for cand_id, title, _prior in candidates:
            for needle in (cand_id, title):
                if not needle:
                    continue
                pos = _find_whole_word(needle.lower(), low)
                if pos is not None and (best_pos is None or pos < best_pos):
                    best_pos, best_id = pos, cand_id
        if best_id is not None:
            return best_id
    return None


def _frame_text(task: str) -> str:
    """The tokens `InstructionInstance.text()` adds to the completeness
    reference: the task instruction and the three section headers."""
    return f"{task} User history: Target item: CF prior:"


def composite_score(dims, weights=(0.25, 0.25, 0.25, 0.25)):
    """Weighted sum of the four dimension scores, each in [0, 1]; weights
    must lie in [0, 1] and sum to 1.

    `dims` is one record's four scores, which gives a float, or an (n, 4)
    stack of records, which gives an array with one sum per record. A
    record's sum is one `np.matmul` of a (1, 4) by a (4, 1) row, so it is
    the float that `np.dot` of the record alone gives.
    """
    weights = [float(w) for w in weights]
    dims = np.asarray(dims, dtype=np.float64)
    if len(weights) != 4 or dims.ndim not in (1, 2) or dims.shape[-1] != 4:
        raise ConfigError("expected exactly four dimensions and four weights")
    if any(not 0.0 <= w <= 1.0 for w in weights) or not np.all((dims >= 0.0) & (dims <= 1.0)):
        raise ConfigError("dimensions and weights must lie in [0, 1]")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ConfigError(f"weights must sum to 1, got {sum(weights)!r}")
    sums = (dims[..., None, :] @ np.array(weights)[:, None])[..., 0, 0]
    return float(sums) if dims.ndim == 1 else sums


def score_cots(instances, cots, weights=(0.25, 0.25, 0.25, 0.25)) -> list[CotRecord]:
    """Score each `cots[i]` against `instances[i]` on the four dimensions.

    - coherence: `score_coherence`;
    - completeness: mapped cosine of the trace and the reference (history,
      target line and prior);
    - relevance: mapped cosine of the trace and `instance.text()`;
    - consistency: half the mapped cosine of the last sentence and the
      label's canonical sentence, half the agreement of the candidate the
      trace names with the CF top candidate (0.5 when it names none).

    A blank trace scores 0 on the last three. Each trace is split into
    sentences once, and each sentence's polarity is computed once per call.
    Every distinct text is tokenized once, in one `token_counts` pass. A
    reference is counted as its parts (each history line, the target line
    and the prior), which whitespace joins, so a history line that recurs
    across users is tokenized once. The prompt text is never tokenized,
    since its counts are the reference's plus those of the task instruction
    and the headers. Each of the three cosines is one stacked
    `similarity_mapped` over the scored traces, and one `composite_score`
    call checks the weights once and weighs every record.
    """
    sentences = [_split_sentences(cot) for cot in cots]
    polarity = functools.lru_cache(maxsize=None)(_sentence_polarity)
    texts: dict[str, int] = {}
    groups: dict[tuple[int, ...], int] = {}

    def row(*parts: str) -> int:
        """The counts row of the parts' tokens together."""
        key = tuple(texts.setdefault(text, len(texts)) for text in parts)
        return groups.setdefault(key, len(groups))

    # per non-blank trace: its record, then the rows of its trace, reference,
    # frame (task and headers), last sentence and label sentence
    scored = []
    for i, (instance, cot, split) in enumerate(zip(instances, cots, sentences)):
        if cot.strip():
            scored.append((
                i,
                row(cot),
                row(*instance.history_lines, instance.target_line, instance.prior_line),
                row(_frame_text(instance.task)),
                row(split[-1]),
                row(LABEL_SENTENCES[instance.label]),
            ))
    semantic = [(0.0, 0.0, 0.0)] * len(cots)
    if scored:
        record, trace, reference, frame, last, label = np.array(scored, dtype=np.intp).T
        counts = token_counts(list(texts), groups=list(groups))
        prompts = counts[reference]
        prompts += counts[frame]
        unit_rows(prompts)
        vectors = unit_rows(counts)
        traces = vectors[trace]
        mapped = zip(
            record.tolist(),
            similarity_mapped(traces, vectors[reference]).tolist(),
            similarity_mapped(traces, prompts).tolist(),
            similarity_mapped(vectors[last], vectors[label]).tolist(),
        )
        for i, completeness, relevance, last_vs_label in mapped:
            instance = instances[i]
            named = _named_candidate(sentences[i], instance.candidates)
            if named is None:
                agreement = 0.5
            else:
                cf_top = max(instance.candidates, key=lambda c: c[2])[0]
                agreement = 1.0 if named == cf_top else 0.0
            semantic[i] = (completeness, relevance, 0.5 * last_vs_label + 0.5 * agreement)
    dims = [
        (score_coherence(cot, split, polarity), *semantic_dims)
        for cot, split, semantic_dims in zip(cots, sentences, semantic)
    ]
    scores = composite_score(np.array(dims, dtype=np.float64).reshape(-1, 4), weights).tolist()
    return [
        CotRecord(instance=instance, cot=cot, dims=record_dims, score=score)
        for instance, cot, record_dims, score in zip(instances, cots, dims, scores)
    ]


def score_cot(
    instance: InstructionInstance, cot: str, weights=(0.25, 0.25, 0.25, 0.25)
) -> CotRecord:
    """The `score_cots` record of one trace."""
    return score_cots([instance], [cot], weights)[0]


def _retained(records: list[CotRecord], threshold: float):
    """The records with score >= threshold, and their share of `records`."""
    if not records:
        raise DataError("coverage is undefined for an empty record list")
    retained = [record for record in records if record.score >= threshold]
    return retained, len(retained) / len(records)


def filter_cots(records: list[CotRecord], threshold: float = 0.6):
    """Retain records with score >= threshold and set each record's
    `retained` flag; returns (retained, coverage)."""
    retained, coverage = _retained(records, threshold)
    for record in records:
        record.retained = False
    for record in retained:
        record.retained = True
    return retained, coverage


def threshold_sweep(records: list[CotRecord], thresholds, downstream_eval=None) -> list[dict]:
    """Coverage (and optional downstream metrics) at each ascending threshold;
    leaves each record's `retained` flag as it was."""
    thresholds = list(thresholds)
    if any(b < a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be sorted ascending")
    rows = []
    for threshold in thresholds:
        retained, coverage = _retained(records, threshold)
        row = {"threshold": threshold, "coverage": coverage}
        if downstream_eval is not None:
            row.update(downstream_eval(retained))
        rows.append(row)
    return rows


def render_sweep_report(rows: list[dict]) -> str:
    """Fixed-width text table: threshold, coverage, optional extra columns."""
    extras = sorted({k for row in rows for k in row} - {"threshold", "coverage"})
    header = ["threshold", "coverage"] + extras
    lines = ["  ".join(f"{h:>10}" for h in header)]
    for row in rows:
        cells = [f"{row['threshold']:>10.4f}", f"{row['coverage']:>10.4f}"]
        for key in extras:
            value = row.get(key)
            cells.append(f"{value:>10.4f}" if value is not None else f"{'-':>10}")
        lines.append("  ".join(cells))
    return "\n".join(lines) + "\n"


def _unescape(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            out.append({"\\": "\\", "t": "\t", "n": "\n"}.get(nxt, "\\" + nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def load_cot_fixture(path) -> dict[tuple[str, str], str]:
    """Read `user_id<TAB>item_id<TAB>label<TAB>cot_text` records."""
    corpus: dict[tuple[str, str], str] = {}
    for lineno, line in keyed_lines(path, "cot fixture", 2):
        parts = line.split("\t", 3)
        if len(parts) != 4:
            raise DataError(f"cot fixture line {lineno}: expected 4 tab-separated fields")
        user, item, label, text = parts
        if label not in ("0", "1"):
            raise DataError(f"cot fixture line {lineno}: label must be 0 or 1")
        corpus[(user, item)] = _unescape(text)
    return corpus


def load_explanation_fixture(path) -> dict[tuple[str, str], str]:
    """Read `user_id<TAB>item_id<TAB>explanation` records."""
    out: dict[tuple[str, str], str] = {}
    for lineno, line in keyed_lines(path, "explanation fixture", 2):
        parts = line.split("\t", 2)
        if len(parts) != 3:
            raise DataError(f"explanation fixture line {lineno}: expected 3 tab-separated fields")
        user, item, text = parts
        out[(user, item)] = _unescape(text)
    return out
