"""Per-item semantic embeddings: file ingestion, deterministic fallback, cosine.

Embedding file format: one record per line,
``item_id<TAB>v1<SPACE>v2 ... v768`` with decimal or scientific floats.
Vectors are L2-normalized on load.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from itertools import chain

import numpy as np

from .data import keyed_lines
from .errors import DataError

SEMANTIC_DIM = 768


def load_embeddings(path, skip=()) -> dict[str, np.ndarray]:
    """Load unit-normalized 768-dim vectors keyed by item id.

    Every line is parsed and checked; the vectors of items in `skip` are
    then dropped instead of kept.
    """
    table: dict[str, np.ndarray] = {}
    for lineno, line in keyed_lines(path, "embeddings file"):
        try:
            item, values = line.split("\t", 1)
        except ValueError:
            raise DataError(f"embeddings line {lineno}: missing tab separator") from None
        try:
            vec = np.array(values.split(), dtype=np.float64)
        except ValueError:
            raise DataError(f"embeddings line {lineno}: a value is not a number") from None
        if vec.shape[0] != SEMANTIC_DIM:
            raise DataError(
                f"embeddings line {lineno}: expected {SEMANTIC_DIM} values, got {vec.shape[0]}"
            )
        if not np.all(np.isfinite(vec)):
            raise DataError(f"embeddings line {lineno}: non-finite value")
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise DataError(f"embeddings line {lineno}: zero vector cannot be normalized")
        if item not in skip:
            table[item] = vec / norm
    return table


@lru_cache(maxsize=1 << 14)
def _token_code(token: str) -> int:
    """The token's bucket plus one, negated when the token counts -1."""
    # md5 gives a stable cross-platform hash; Python's hash() is salted per run.
    # Memoised: catalog and reasoning texts repeat a small vocabulary.
    digest = hashlib.md5(token.encode("utf-8")).digest()
    bucket = int.from_bytes(digest[:8], "little") % SEMANTIC_DIM
    return bucket + 1 if digest[8] & 1 else -(bucket + 1)


def token_counts(texts, groups=None) -> np.ndarray:
    """(n, 768) signed-hash bag of words of each text's lowercased whitespace
    tokens: entry (i, b) sums +-1 over the tokens of text i in bucket b.

    With `groups`, a list of lists of text indices, row g instead counts the
    tokens of the texts `groups[g]` names, as if they were joined by
    whitespace; each text is still tokenized once. The entries are small
    integers held exactly as float64, so rows can be added and their squares
    summed in any order without rounding.
    """
    lengths: list[int] = []

    def each_code():
        # one text's tokens at a time, so the token strings never pile up
        for text in texts:
            tokens = text.lower().split()
            lengths.append(len(tokens))
            yield from map(_token_code, tokens)

    codes = np.fromiter(each_code(), dtype=np.int64)
    if groups is None:
        n_rows, owners = len(lengths), np.repeat(np.arange(len(lengths)), lengths)
    else:
        sizes = np.array(lengths, dtype=np.intp)
        members = np.fromiter(chain.from_iterable(groups), dtype=np.intp)
        spans = sizes[members]
        ends = np.cumsum(spans)
        # each member's token positions in `codes`, member after member
        starts = (np.cumsum(sizes) - sizes)[members]
        codes = codes[np.repeat(starts - (ends - spans), spans) + np.arange(spans.sum())]
        n_rows = len(groups)
        owners = np.repeat(np.repeat(np.arange(n_rows), [len(group) for group in groups]), spans)
    cells = owners * SEMANTIC_DIM + np.abs(codes) - 1
    counts = np.bincount(cells, weights=np.sign(codes).astype(np.float64),
                         minlength=n_rows * SEMANTIC_DIM)
    # with no token at all bincount returns integers
    return counts.astype(np.float64, copy=False).reshape(n_rows, SEMANTIC_DIM)


def unit_rows(counts: np.ndarray) -> np.ndarray:
    """`token_counts` rows L2-normalized in place; an all-zero row becomes the
    first basis vector."""
    norms = np.sqrt(np.einsum("ij,ij->i", counts, counts))
    empty = norms == 0.0
    counts[empty, 0] = 1.0
    norms[empty] = 1.0
    counts /= norms[:, None]
    return counts


def embed_texts(texts) -> np.ndarray:
    """(n, 768) fallback embeddings of the texts, one tokenizing pass for all.

    Signed-hash bag of words into 768 buckets, L2-normalized: a
    deterministic stand-in for a frozen text encoder so that the whole test
    suite runs without model downloads. Empty (or fully cancelling) text maps
    to the first basis vector. Each row is independent of the others in the
    batch, because the counts and the sum of their squares are exact.
    """
    return unit_rows(token_counts(texts))


def fallback_embed(text: str) -> np.ndarray:
    """The `embed_texts` row of one text."""
    return embed_texts([text])[0]


def embed_catalog(catalog: dict[str, tuple[str, str]]) -> dict[str, np.ndarray]:
    """Fallback-embed ``title description`` text for every catalog item.

    The vectors are the rows of one `embed_texts` matrix.
    """
    rows = embed_texts(f"{title} {description}".strip() for title, description in catalog.values())
    return dict(zip(catalog, rows))


class SparseVector:
    """A 1-d float64 vector held as the indices and values of its nonzero
    entries; `np.asarray` gives it back dense, with the same floats."""

    __slots__ = ("index", "values", "size")

    def __init__(self, dense: np.ndarray):
        dense = np.asarray(dense, dtype=np.float64)
        self.index = np.flatnonzero(dense)
        self.values = dense[self.index]
        self.size = dense.size

    def __array__(self, dtype=None, copy=None):
        dense = np.zeros(self.size)
        dense[self.index] = self.values
        return dense if dtype is None else dense.astype(dtype, copy=False)


def similarity(u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """Cosine similarity in [-1, 1]; row by row, as an array, for stacked vectors.

    Each dot product, and each norm's sum of squares, is one `np.matmul` of
    a (1, d) by a (d, 1) row, which gives the same floats as `np.dot` and
    `np.linalg.norm` of the two vectors alone.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")

    def dots(a, b):
        return (a[..., None, :] @ b[..., :, None])[..., 0, 0]

    nu = np.sqrt(dots(u, u))
    nv = np.sqrt(dots(v, v))
    if np.any(nu == 0.0) or np.any(nv == 0.0):
        raise ValueError("cosine similarity of a zero vector is undefined")
    c = np.clip(dots(u, v) / (nu * nv), -1.0, 1.0)
    return float(c) if u.ndim == 1 else c


def similarity_mapped(u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """Cosine mapped to [0, 1] via (c + 1) / 2, used by the scoring code."""
    return (similarity(u, v) + 1.0) / 2.0
