"""Per-item semantic embeddings: file ingestion, deterministic fallback, cosine.

Embedding file format: one record per line,
``item_id<TAB>v1<SPACE>v2 ... v768`` with decimal or scientific floats.
Vectors are L2-normalized on load.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

from .data import text_lines
from .errors import DataError

__all__ = [
    "SEMANTIC_DIM",
    "load_embeddings",
    "fallback_embed",
    "embed_catalog",
    "SparseVector",
    "similarity",
    "similarity_mapped",
]

SEMANTIC_DIM = 768


def load_embeddings(path, skip=()) -> dict[str, np.ndarray]:
    """Load unit-normalized 768-dim vectors keyed by item id.

    Every line is parsed and checked; the vectors of items in `skip` are
    then dropped instead of kept.
    """
    table: dict[str, np.ndarray] = {}
    for lineno, line in text_lines(path, "embeddings file"):
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
def _token_bucket(token: str) -> tuple[int, float]:
    # md5 gives a stable cross-platform hash; Python's hash() is salted per run.
    # Memoised: catalog and reasoning texts repeat a small vocabulary.
    digest = hashlib.md5(token.encode("utf-8")).digest()
    bucket = int.from_bytes(digest[:8], "little") % SEMANTIC_DIM
    sign = 1.0 if digest[8] & 1 else -1.0
    return bucket, sign


def fallback_embed(text: str) -> np.ndarray:
    """Signed-hash bag of words into 768 buckets, L2-normalized.

    Deterministic stand-in for a frozen text encoder so that the whole test
    suite runs without model downloads. Empty (or fully cancelling) text maps
    to the first basis vector.
    """
    tokens = text.lower().split()
    vec = np.zeros(SEMANTIC_DIM, dtype=np.float64)
    if tokens:
        buckets, signs = zip(*map(_token_bucket, tokens))
        # sums of +-1 are exact integers, so the order of accumulation does not matter
        vec = np.bincount(buckets, weights=signs, minlength=SEMANTIC_DIM)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        e1 = np.zeros(SEMANTIC_DIM, dtype=np.float64)
        e1[0] = 1.0
        return e1
    return vec / norm


def embed_catalog(catalog: dict[str, tuple[str, str]]) -> dict[str, np.ndarray]:
    """Fallback-embed ``title description`` text for every catalog item."""
    return {
        item: fallback_embed(f"{title} {description}".strip())
        for item, (title, description) in catalog.items()
    }


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


def similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine similarity of a zero vector is undefined")
    c = float(np.dot(u, v) / (nu * nv))
    return min(1.0, max(-1.0, c))


def similarity_mapped(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine mapped to [0, 1] via (c + 1) / 2, used by the scoring code."""
    return (similarity(u, v) + 1.0) / 2.0
