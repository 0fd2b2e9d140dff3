from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusionrec.errors import DataError
from fusionrec.semantic import (
    SEMANTIC_DIM,
    SparseVector,
    embed_catalog,
    embed_texts,
    fallback_embed,
    load_embeddings,
    similarity,
    similarity_mapped,
)
from oracles import oracle_fallback_embed


def _vector_line(item, values):
    return item + "\t" + " ".join(str(v) for v in values) + "\n"


def test_load_embeddings_normalizes_rows(tmp_path):
    values = [2.0] + [0.0] * (SEMANTIC_DIM - 1)
    path = tmp_path / "emb.tsv"
    path.write_text(_vector_line("q1", values), encoding="utf-8")
    table = load_embeddings(path)
    assert table["q1"][0] == 1.0
    assert np.linalg.norm(table["q1"]) == pytest.approx(1.0, abs=1e-12)


def test_load_embeddings_accepts_scientific_notation(tmp_path):
    values = ["1.5e-1"] * SEMANTIC_DIM
    path = tmp_path / "emb.tsv"
    path.write_text("q1\t" + " ".join(values) + "\n", encoding="utf-8")
    table = load_embeddings(path)
    assert np.linalg.norm(table["q1"]) == pytest.approx(1.0, abs=1e-12)


def test_load_embeddings_rejects_wrong_dimension(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text(_vector_line("q1", [1.0] * (SEMANTIC_DIM - 1)), encoding="utf-8")
    with pytest.raises(DataError, match="expected 768 values, got 767"):
        load_embeddings(path)


def test_load_embeddings_rejects_a_value_that_is_not_a_number(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text(_vector_line("a", [1.0] * (SEMANTIC_DIM - 1) + ["abc"]), encoding="utf-8")
    with pytest.raises(DataError, match="line 1: a value is not a number"):
        load_embeddings(path)


def test_load_embeddings_rejects_missing_tab(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("q1 1.0 2.0\n", encoding="utf-8")
    with pytest.raises(DataError, match="missing tab"):
        load_embeddings(path)


def test_load_embeddings_rejects_nonfinite_and_zero(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text(_vector_line("q1", ["nan"] + [0.0] * (SEMANTIC_DIM - 1)), encoding="utf-8")
    with pytest.raises(DataError, match="non-finite"):
        load_embeddings(path)
    path.write_text(_vector_line("q1", [0.0] * SEMANTIC_DIM), encoding="utf-8")
    with pytest.raises(DataError, match="zero vector"):
        load_embeddings(path)


def test_fallback_embed_is_deterministic_and_unit_norm():
    first = fallback_embed("alpine trail anchor")
    second = fallback_embed("alpine trail anchor")
    assert np.array_equal(first, second)
    assert np.linalg.norm(first) == pytest.approx(1.0, abs=1e-12)
    assert first.shape == (SEMANTIC_DIM,)


def test_fallback_embed_ignores_token_order_and_case():
    assert np.array_equal(fallback_embed("cat dog"), fallback_embed("dog cat"))
    assert np.array_equal(fallback_embed("Cat"), fallback_embed("cat"))


def test_fallback_embed_empty_text_maps_to_first_basis_vector():
    vec = fallback_embed("")
    assert vec[0] == 1.0
    assert np.count_nonzero(vec) == 1


def test_fallback_embed_distinguishes_texts():
    assert not np.array_equal(fallback_embed("alpine trail"), fallback_embed("coastal ridge"))


@given(st.lists(st.sampled_from(["sun", "moon", "tide", "rock"]), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_fallback_embed_norm_is_one_or_basis(tokens):
    vec = fallback_embed(" ".join(tokens))
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)


def test_embed_catalog_uses_title_and_description():
    catalog = {"q1": ("Alpine Trail", "grade km"), "q2": ("Alpine Trail", "grade mn")}
    table = embed_catalog(catalog)
    assert set(table) == {"q1", "q2"}
    assert not np.array_equal(table["q1"], table["q2"])
    assert np.array_equal(table["q1"], fallback_embed("Alpine Trail grade km"))


def test_load_embeddings_checks_every_line_but_keeps_only_the_unskipped(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text(_vector_line("a", [3.0] + [0.0] * (SEMANTIC_DIM - 1))
                    + _vector_line("b", [0.0, 4.0] + [0.0] * (SEMANTIC_DIM - 2)), encoding="utf-8")
    full = load_embeddings(path)
    kept = load_embeddings(path, skip={"a"})
    assert list(kept) == ["b"] and np.array_equal(kept["b"], full["b"])
    path.write_text(_vector_line("a", [1.0] * 5) + _vector_line("b", [1.0] * SEMANTIC_DIM),
                    encoding="utf-8")
    with pytest.raises(DataError, match="line 1: expected 768 values, got 5"):
        load_embeddings(path, skip={"a"})


@pytest.mark.parametrize("text", ["", "one short trace", "a a b", "the item fits the pattern " * 9])
def test_sparse_vector_gives_back_the_same_floats(text):
    dense = fallback_embed(text)
    compact = SparseVector(dense)
    assert len(compact.index) == np.count_nonzero(dense)
    assert np.array_equal(np.asarray(compact), dense)
    stacked = np.vstack([compact, dense])  # one stacking path for compact and dense rows
    assert stacked.shape == (2, SEMANTIC_DIM) and np.array_equal(stacked[0], stacked[1])


def test_similarity_range_and_special_values():
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    assert similarity(u, u) == 1.0
    assert similarity(u, v) == 0.0
    assert similarity(u, -u) == -1.0
    assert similarity_mapped(u, v) == 0.5
    assert similarity_mapped(u, -u) == 0.0
    assert similarity_mapped(u, u) == 1.0


def test_similarity_is_scale_invariant_and_symmetric():
    rng = np.random.default_rng(3)
    u = rng.normal(size=10)
    v = rng.normal(size=10)
    assert similarity(3.0 * u, 0.5 * v) == pytest.approx(similarity(u, v), abs=1e-12)
    assert similarity(u, v) == pytest.approx(similarity(v, u), abs=1e-12)


def test_similarity_rejects_bad_inputs():
    with pytest.raises(ValueError, match="mismatch"):
        similarity(np.ones(3), np.ones(4))
    with pytest.raises(ValueError, match="zero vector"):
        similarity(np.zeros(3), np.ones(3))


def _cancelling_pair() -> str:
    """Two distinct tokens that land in one bucket with opposite signs."""
    seen = {}
    for i in range(100_000):
        token = f"t{i}"
        vec = oracle_fallback_embed(token)
        bucket = int(np.flatnonzero(vec)[0])
        sign = vec[bucket] > 0
        if (bucket, not sign) in seen:
            return f"{seen[(bucket, not sign)]} {token}"
        seen[(bucket, sign)] = token
    raise AssertionError("no cancelling pair found")


_CANCELLING = _cancelling_pair()


def test_fully_cancelling_text_maps_to_first_basis_vector():
    first = np.eye(SEMANTIC_DIM)[0]
    assert np.array_equal(oracle_fallback_embed(_CANCELLING), first)
    assert np.array_equal(fallback_embed(_CANCELLING), first)
    assert np.array_equal(fallback_embed(_CANCELLING + " " + _CANCELLING.upper()), first)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from(["alpine", "Trail", "anchor", "", "  ", "\t", _CANCELLING]),
            st.text(min_size=0, max_size=12),
        ),
        max_size=40,
    )
)
@example([])
@example([_CANCELLING])
def test_fallback_embed_matches_the_md5_loop(parts):
    text = " ".join(parts)
    assert np.array_equal(fallback_embed(text), oracle_fallback_embed(text))


_TEXT = st.one_of(
    st.sampled_from(["", " ", "\t\n ", "alpine Trail", _CANCELLING, _CANCELLING + " " + _CANCELLING]),
    st.lists(st.sampled_from(["alpine", "TRAIL", "anchor", "ΑΣ", " ", "\n"]), max_size=12).map("".join),
    st.text(max_size=30),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_TEXT, max_size=12))
@example([])
@example(["", "  ", _CANCELLING])
def test_embed_texts_rows_match_the_md5_loop(texts):
    rows = embed_texts(texts)
    assert rows.shape == (len(texts), SEMANTIC_DIM) and rows.dtype == np.float64
    for row, text in zip(rows, texts):
        assert np.array_equal(row, oracle_fallback_embed(text))
