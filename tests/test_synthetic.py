from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np
import pytest

from fusionrec.data import Event, load_catalog, load_interactions
from fusionrec.synthetic import (
    make_planted_dataset,
    make_zero_shot_variant,
    planted_successor,
    write_dataset,
)
from oracles import make_linear_alignment_suite


def _sequences(dataset):
    per_user = defaultdict(list)
    for user, item, ts, _rating in dataset.events:
        per_user[user].append((ts, item))
    return {user: [item for _, item in sorted(rows)] for user, rows in per_user.items()}


def test_planted_dataset_shape_and_determinism():
    dataset = make_planted_dataset(n_users=30, n_items=20, seed=3, length_range=(6, 9))
    again = make_planted_dataset(n_users=30, n_items=20, seed=3, length_range=(6, 9))
    assert dataset.events == again.events
    assert dataset.catalog == again.catalog

    sequences = _sequences(dataset)
    assert len(sequences) == 30
    assert all(6 <= len(seq) <= 9 for seq in sequences.values())
    assert len(dataset.catalog) == 20
    for user, item, ts, rating in dataset.events:
        assert rating == 5.0
        assert ts >= 1
    for user, seq in sequences.items():
        block = "ab"[int(user[1:]) % 2]
        assert all(item[0] == block for item in seq)


def test_timestamps_count_up_from_one_per_user():
    dataset = make_planted_dataset(n_users=8, n_items=10, seed=1, length_range=(4, 6))
    per_user = defaultdict(list)
    for user, _item, ts, _rating in dataset.events:
        per_user[user].append(ts)
    for stamps in per_user.values():
        assert stamps == list(range(1, len(stamps) + 1))


def test_planted_successor_wraps_within_block():
    assert planted_successor("a07") == "a08"
    assert planted_successor("a49") == "a00"
    assert planted_successor("b49") == "b00"
    assert planted_successor("b03", n_per_block=10) == "b04"
    assert planted_successor("b09", n_per_block=10) == "b00"
    # twin ids resolve through their base
    assert planted_successor("0a07") == "a08"


def test_walks_mostly_follow_the_successor():
    dataset = make_planted_dataset(n_users=60, n_items=40, seed=5, length_range=(10, 14))
    follows = total = 0
    for seq in _sequences(dataset).values():
        for prev, cur in zip(seq, seq[1:]):
            total += 1
            follows += cur == planted_successor(prev, n_per_block=20)
    assert 0.7 < follows / total < 0.95


def test_cold_users_end_on_twins_of_their_natural_successor():
    dataset = make_planted_dataset(
        n_users=24, n_items=20, seed=2, n_cold_users=6, length_range=(6, 9)
    )
    sequences = _sequences(dataset)
    cold_users = [f"u{u:03d}" for u in range(18, 24)]
    assert set(dataset.twins) == {sequences[u][-1] for u in cold_users}
    for user in cold_users:
        seq = sequences[user]
        twin = seq[-1]
        assert twin.startswith("0")
        base = dataset.twins[twin]
        assert planted_successor(seq[-2], n_per_block=10) == base
        assert dataset.catalog[twin] == dataset.catalog[base]
    # twins never appear anywhere except as a cold user's final event
    twin_positions = [
        (user, idx)
        for user, seq in sequences.items()
        for idx, item in enumerate(seq)
        if item in dataset.twins
    ]
    assert all(idx == len(sequences[user]) - 1 for user, idx in twin_positions)
    assert {user for user, _ in twin_positions} == set(cold_users)


def test_twin_count_and_ids_are_distinct_per_block():
    dataset = make_planted_dataset(
        n_users=40, n_items=20, seed=2, n_cold_users=10, length_range=(6, 9)
    )
    assert len(dataset.twins) == 10
    assert all(twin == "0" + base for twin, base in dataset.twins.items())
    per_block = Counter(base[0] for base in dataset.twins.values())
    assert per_block == {"a": 5, "b": 5}


def test_input_validation():
    with pytest.raises(ValueError, match="even"):
        make_planted_dataset(n_items=15)
    with pytest.raises(ValueError, match="at most 100"):
        make_planted_dataset(n_items=120)
    with pytest.raises(ValueError, match="cold users"):
        make_planted_dataset(n_users=5, n_items=10, n_cold_users=6)


def test_zero_shot_variant_renames_every_item():
    dataset = make_planted_dataset(n_users=12, n_items=10, seed=4, n_cold_users=3,
                                   length_range=(5, 7))
    variant = make_zero_shot_variant(dataset)
    assert set(variant.catalog) == {"z" + item for item in dataset.catalog}
    assert len(variant.events) == len(dataset.events)
    for (u1, i1, t1, r1), (u2, i2, t2, r2) in zip(dataset.events, variant.events):
        assert (u2, t2, r2) == (u1, t1, r1)
        assert i2 == "z" + i1
        assert variant.catalog[i2] == dataset.catalog[i1]
    assert variant.twins == {"z" + t: "z" + b for t, b in dataset.twins.items()}
    assert not set(variant.catalog) & set(dataset.catalog)


def test_write_dataset_roundtrips_through_the_loaders(tmp_path):
    dataset = make_planted_dataset(n_users=10, n_items=10, seed=6, n_cold_users=2,
                                   length_range=(4, 6))
    interactions = tmp_path / "interactions.tsv"
    catalog_path = tmp_path / "catalog.tsv"
    write_dataset(dataset, interactions, catalog_path)
    catalog = load_catalog(catalog_path)
    assert catalog == dataset.catalog
    assert load_interactions(interactions, catalog_path) == [Event(*e) for e in dataset.events]


def test_linear_alignment_suite_is_exactly_linear():
    suite = make_linear_alignment_suite(
        n_users=6, n_items=8, collab_dim=5, sem_dim=7,
        pairs_per_user=3, scale=2.0, seed=9,
    )
    assert suite.matrix.shape == (7, 5)
    assert len(suite.collab) == len(suite.semantic) == 8
    for item, e in suite.collab.items():
        assert np.array_equal(suite.semantic[item], suite.matrix @ e)
    dataset = suite.dataset
    assert len(dataset) == 6
    assert np.diff(dataset.pair_ptr).tolist() == [3] * 6
    assert len(dataset.x) == 0 and not dataset.triple_ptr.any()
    for u in range(6):
        chosen = dataset.pair_item[dataset.pair_ptr[u]:dataset.pair_ptr[u + 1]]
        assert len(set(chosen.tolist())) == 3
        for j in chosen:
            assert np.array_equal(dataset.e[j], suite.collab[dataset.items[j]])
            assert np.array_equal(dataset.q[j], suite.matrix @ dataset.e[j])
    again = make_linear_alignment_suite(
        n_users=6, n_items=8, collab_dim=5, sem_dim=7,
        pairs_per_user=3, scale=2.0, seed=9,
    )
    assert np.array_equal(suite.matrix, again.matrix)
