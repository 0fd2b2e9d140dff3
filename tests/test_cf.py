from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import planted_events
from fusionrec import cf as cf_module
from fusionrec.cf import (
    FORWARD_ROWS,
    CfConfig,
    CfModel,
    _backward,
    _draw_drop_masks,
    _forward,
    _infer_last,
    _init_params,
    _left_align,
    next_item_probabilities,
    rank_by_score,
    top_items,
    train_cf,
    training_loss_and_gradients,
    user_representation,
    user_representation_from_vectors,
    user_representations,
    user_representations_from_rows,
    verbalize_prior,
)
from fusionrec.data import (
    TrainingSequence,
    build_training_instances,
    filter_dataset,
    leave_one_out_split,
)
from fusionrec.errors import TrainingError
from fusionrec.synthetic import make_planted_dataset
from oracles import (
    max_relative_gradient_error,
    oracle_cf_backward,
    oracle_cf_forward,
    oracle_rank_by_score,
)


def _toy_instances():
    # three lengths, and items repeated within and across sequences
    return [
        TrainingSequence("u1", ("a", "b"), ("b", "c")),
        TrainingSequence("u2", ("c",), ("d",)),
        TrainingSequence("u3", ("e", "a", "e", "c"), ("a", "e", "c", "e")),
    ]


def _random_biases(params, rng):
    for name, arr in params.items():
        if ".b" in name:  # biases start at zero; give them values the check can see
            params[name] = rng.normal(0.0, 0.1, size=arr.shape)
    return params


def _thawed(model):
    return {name: arr.copy() for name, arr in model.params.items()}


def _scores(model, history):
    """Dot product of the user representation with every item row; entry i
    scores model.items[i]."""
    return model.params["item_emb"][1:] @ user_representation(model, history)


_TOY_CONFIG = dict(embed_dim=6, max_history=4, blocks=2, heads=2, epochs=0, batch_size=4)


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_gradients_match_finite_differences(dropout):
    instances = _toy_instances()
    config = CfConfig(**_TOY_CONFIG, dropout=dropout)
    model = train_cf(instances, config, np.random.default_rng(0))
    params = _random_biases(_thawed(model), np.random.default_rng(2))
    # fixed masks (None without dropout), drawn for the padded batch the loss builds
    length = min(config.max_history, max(len(inst.history) for inst in instances))
    drop = _draw_drop_masks(config, (len(instances), length, config.embed_dim),
                            np.random.default_rng(1))
    _, grads = training_loss_and_gradients(params, config, instances, model.item_index, drop)

    def loss_fn():
        value, _ = training_loss_and_gradients(params, config, instances, model.item_index, drop)
        return value

    assert max_relative_gradient_error(loss_fn, params, grads, h=1e-5) <= 1e-4


def _close(a, b):
    return np.allclose(a, b, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("case", ["plain", "dropout"])
def test_attention_stack_matches_einsum_reference(case, heads):
    config = CfConfig(embed_dim=8, max_history=7, blocks=2, heads=heads,
                      dropout=0.3 if case == "dropout" else 0.0)
    rng = np.random.default_rng(heads)
    n_items = 15
    params = _random_biases(_init_params(config, n_items, rng), rng)
    histories = [list(rng.integers(1, n_items + 1, size=n)) for n in (1, 3, 7, 9, 5, 2)]
    ids = _left_align([h[-config.max_history:] for h in histories])
    drop = _draw_drop_masks(config, (*ids.shape, config.embed_dim), rng)

    outputs, cache = _forward(params, config, ids, drop)
    ref_outputs, ref_cache = oracle_cf_forward(params, config, ids, drop)
    d_outputs = rng.normal(size=outputs.shape)
    grads = _backward(params, config, cache, d_outputs, drop)
    ref_grads = oracle_cf_backward(params, config, ref_cache, d_outputs, drop)

    assert _close(outputs, ref_outputs)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert _close(grads[name], ref_grads[name]), name


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("blocks", [1, 2])
def test_last_position_inference_matches_einsum_reference(blocks, heads):
    config = CfConfig(embed_dim=8, max_history=7, blocks=blocks, heads=heads)
    rng = np.random.default_rng(10 * blocks + heads)
    params = _random_biases(_init_params(config, 15, rng), rng)
    for length in (1, 4, config.max_history):
        h0 = rng.normal(0.0, 0.1, size=(5, length, config.embed_dim))
        ones = np.ones(h0.shape[:2], dtype=np.int64)  # every position real
        rows = _infer_last(params, config, h0)
        assert rows.shape == (5, config.embed_dim)
        assert _close(rows, oracle_cf_forward(params, config, ones, h0=h0)[0][:, -1])
        for row, one in zip(rows, h0):
            assert np.array_equal(row, _infer_last(params, config, one[None])[0])


@pytest.mark.parametrize("heads", [1, 2])
def test_each_position_matches_its_prefix_run_alone(heads):
    config = CfConfig(embed_dim=8, max_history=9, blocks=2, heads=heads)
    rng = np.random.default_rng(10 + heads)
    params = _random_biases(_init_params(config, 12, rng), rng)
    rows = [list(rng.integers(1, 13, size=n)) for n in (9, 4, 6)]
    outputs, _ = _forward(params, config, _left_align(rows))
    worst = 0.0
    for i, row in enumerate(rows):
        for t in range(len(row)):
            alone, _ = _forward(params, config, np.array([row[: t + 1]], dtype=np.int64))
            worst = max(worst, float(np.abs(outputs[i, t] - alone[0, -1]).max()))
    assert worst <= 1e-12
    assert not outputs[2, 6:].any()  # pad positions stay zero


def test_loss_is_the_mean_next_item_cross_entropy_over_every_prefix():
    instances = _toy_instances()
    config = CfConfig(**{**_TOY_CONFIG, "blocks": 1})
    model = train_cf(instances, config, np.random.default_rng(5))
    loss, _ = training_loss_and_gradients(model.params, config, instances, model.item_index)
    terms = []
    for inst in instances:
        for t, target in enumerate(inst.targets):
            scores = _scores(model, list(inst.history[: t + 1]))
            shifted = scores - scores.max()
            log_probs = shifted - np.log(np.exp(shifted).sum())
            terms.append(-log_probs[model.item_index[target] - 1])
    assert len(terms) == 7
    assert loss == pytest.approx(float(np.mean(terms)), rel=1e-12, abs=1e-12)


def test_training_rejects_sequences_longer_than_the_window():
    config = CfConfig(**{**_TOY_CONFIG, "max_history": 3, "epochs": 1})
    with pytest.raises(ValueError, match="1..3 inputs"):
        train_cf(_toy_instances(), config, np.random.default_rng(0))
    with pytest.raises(ValueError, match="one target each"):
        training_loss_and_gradients(
            _init_params(config, 2, np.random.default_rng(0)), config,
            [TrainingSequence("u", ("a", "b"), ("b",))], {"a": 1, "b": 2},
        )


def test_single_step_representation_matches_hand_computation():
    config = CfConfig(embed_dim=5, max_history=3, blocks=1, heads=1, epochs=0)
    model = train_cf(_toy_instances(), config, np.random.default_rng(4))
    p = model.params
    idx = model.item_index["c"]
    h0 = p["item_emb"][idx] + p["pos_emb"][0]  # absolute position 0
    # one real position: attention weight over itself is exactly 1
    ctx = p["blk0.wv"] @ h0 + p["blk0.bv"]
    h_attn = h0 + (p["blk0.wo"] @ ctx + p["blk0.bo"])
    act = np.maximum(p["blk0.w1"] @ h_attn + p["blk0.b1"], 0.0)
    expected = h_attn + (p["blk0.w2"] @ act + p["blk0.b2"])
    rep = user_representation(model, ["c"])
    assert np.allclose(rep, expected, atol=1e-12)


def test_next_item_scores_are_dot_products(toy_world):
    model = toy_world["cf"]
    history = list(toy_world["instances"][0].history)
    rep = user_representation(model, history)
    scores = np.array([float(model.params["item_emb"][model.item_index[item]] @ rep)
                       for item in model.items])
    probs = next_item_probabilities(model, history)
    assert probs.shape == (len(model.items),)
    expected = np.exp(scores - scores.max())
    assert np.allclose(probs, expected / expected.sum(), rtol=1e-12, atol=1e-15)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.argmax(probs) == np.argmax(scores)


def test_history_longer_than_window_uses_suffix(toy_world):
    model = toy_world["cf"]
    vocab = model.items
    window = model.config.max_history
    long_history = [vocab[i % len(vocab)] for i in range(window + 9)]
    full = user_representation(model, long_history)
    suffix = user_representation(model, long_history[-window:])
    assert np.array_equal(full, suffix)


def test_representation_depends_on_order(toy_world):
    model = toy_world["cf"]
    a, b, c = model.items[:3]
    assert not np.allclose(
        user_representation(model, [a, b, c]),
        user_representation(model, [c, b, a]),
    )


def test_vector_override_matches_embedding_lookup(toy_world):
    model = toy_world["cf"]
    history = [model.items[2], model.items[0], model.items[5]]
    rows = np.stack([model.params["item_emb"][model.item_index[q]] for q in history])
    assert np.allclose(
        user_representation_from_vectors(model, rows),
        user_representation(model, history),
        atol=1e-12,
    )


def test_empty_history_is_rejected(toy_world):
    with pytest.raises(ValueError, match="non-empty"):
        user_representation(toy_world["cf"], [])


def test_training_is_deterministic_per_seed():
    instances = _toy_instances()
    config = CfConfig(embed_dim=6, max_history=4, blocks=1, heads=1, epochs=2, batch_size=2)
    first = train_cf(instances, config, np.random.default_rng(7))
    second = train_cf(instances, config, np.random.default_rng(7))
    third = train_cf(instances, config, np.random.default_rng(8))
    for name in first.params:
        assert np.array_equal(first.params[name], second.params[name])
    assert first.training_log == second.training_log
    assert any(
        not np.array_equal(first.params[name], third.params[name]) for name in first.params
    )


def test_zero_epochs_leaves_initialization_untouched():
    config = CfConfig(**_TOY_CONFIG)
    first = train_cf(_toy_instances(), config, np.random.default_rng(3))
    second = train_cf(_toy_instances(), config, np.random.default_rng(3))
    assert first.training_log == []
    for name in first.params:
        assert np.array_equal(first.params[name], second.params[name])
    assert np.array_equal(first.params["item_emb"][0], np.zeros(config.embed_dim))


def test_model_is_frozen_after_training(toy_world):
    model = toy_world["cf"]
    for arr in model.params.values():
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        model.params["item_emb"][1, 0] = 0.0


def test_training_log_tracks_epochs_and_descends(toy_world):
    model = toy_world["cf"]
    log = model.training_log
    assert len(log) == model.config.epochs
    assert log[-1] < log[0]
    for prev, cur in zip(log, log[1:]):
        assert cur <= prev * 1.05


def test_trained_model_separates_planted_targets(toy_world):
    model = toy_world["cf"]
    split = toy_world["split"]
    margins = []
    for user, seq in split.train.items():
        history = [q for q in seq if model.has_item(q)]
        target = split.validation[user]
        if not history or not model.has_item(target):
            continue
        scores = _scores(model, history)
        margins.append(scores[model.item_index[target] - 1] - scores.mean())
    assert len(margins) >= 10
    assert float(np.mean(margins)) > 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_training_raises():
    planted = make_planted_dataset(n_users=12, n_items=10, seed=5, length_range=(6, 8))
    split = leave_one_out_split(filter_dataset(planted_events(planted), 3, 1))
    instances = build_training_instances(split, 6)
    config = CfConfig(
        embed_dim=8, max_history=6, blocks=1, heads=1,
        epochs=3, batch_size=4, learning_rate=1e15, optimizer="sgd",
    )
    with pytest.raises(TrainingError, match="non-finite loss"):
        train_cf(instances, config, np.random.default_rng(0))


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_the_pad_row_stays_exactly_zero_through_training(optimizer):
    config = CfConfig(**{**_TOY_CONFIG, "epochs": 3, "batch_size": 2, "dropout": 0.3,
                         "learning_rate": 0.05, "optimizer": optimizer})
    start = train_cf(_toy_instances(), CfConfig(**_TOY_CONFIG), np.random.default_rng(4))
    model = train_cf(_toy_instances(), config, np.random.default_rng(4))
    assert len(model.training_log) == 3
    # its gradient is exactly 0, so neither optimizer moves it off +0.0
    assert model.params["item_emb"][0].tobytes() == bytes(8 * config.embed_dim)
    assert not np.array_equal(model.params["item_emb"][1:], start.params["item_emb"][1:])


def test_train_rejects_bad_inputs():
    with pytest.raises(ValueError, match="no training instances"):
        train_cf([], CfConfig(), np.random.default_rng(0))


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        CfConfig(embed_dim=7, heads=2)
    with pytest.raises(ValueError, match="max_history"):
        CfConfig(max_history=0)
    with pytest.raises(ValueError, match="dropout"):
        CfConfig(dropout=1.0)


def test_rank_by_score_breaks_ties_by_id():
    instance = TrainingSequence("u1", ("b", "a"), ("a", "c"))
    model = train_cf([instance], CfConfig(embed_dim=4, heads=1, epochs=0), np.random.default_rng(0))
    assert model.items == ["b", "a", "c"]
    ranked = rank_by_score(model, np.array([1.0, 2.0, 2.0]))
    assert ranked == ["a", "c", "b"]


def test_verbalize_prior_without_calibration():
    assert verbalize_prior(0.88) == "likelihood 88%"
    assert verbalize_prior(0.5) == "likelihood 50%"
    assert verbalize_prior(0.0) == "likelihood 0%"
    assert verbalize_prior(1.0) == "likelihood 100%"
    assert verbalize_prior(0.005) == "likelihood 1%"
    with pytest.raises(ValueError, match="probability"):
        verbalize_prior(1.5)
    with pytest.raises(ValueError, match="probability"):
        verbalize_prior(-0.1)


def test_rank_by_score_matches_the_sorted_oracle_with_exact_ties():
    rng = np.random.default_rng(5)
    items = [f"i{n:03d}" for n in rng.permutation(300)]  # row order is not id order
    model = CfModel(config=CfConfig(), item_index={q: i + 1 for i, q in enumerate(items)},
                    items=items, params={})
    for _ in range(20):
        scores = np.round(rng.normal(size=len(items)), 1)  # many exact ties
        scores[rng.integers(len(items), size=5)] = -0.0
        assert rank_by_score(model, scores) == oracle_rank_by_score(items, scores)


@pytest.mark.parametrize("k", [1, 3, 5, 400])
def test_top_items_match_the_sorted_oracle_with_exact_ties(k):
    rng = np.random.default_rng(k)
    items = [f"i{n:03d}" for n in rng.permutation(12)]  # row order is not id order
    model = CfModel(config=CfConfig(), item_index={q: i + 1 for i, q in enumerate(items)},
                    items=items, params={})
    scores = rng.integers(0, 3, size=(FORWARD_ROWS + 5, len(items))) / 4.0  # many exact ties
    scores[0] = 0.5  # every item tied
    scores[1, rng.integers(len(items), size=3)] = -0.0
    top = top_items(model, scores, k)
    assert len(top) == len(scores)
    for row, picked in zip(scores, top):
        assert picked == oracle_rank_by_score(items, row)[:k]
        assert picked == rank_by_score(model, row)[:k]


def _one_user_inference(model, vectors):
    """A one-user run of the inference routine over (L, d) per-step vectors."""
    h0 = vectors + model.params["pos_emb"][: len(vectors)]
    return _infer_last(model.params, model.config, h0[None])[0]


def _training_last_position(model, vectors):
    """The training forward's last-position output over (L, d) per-step
    vectors, looked up as items 1..L of a one-off embedding table."""
    table = np.vstack([np.zeros((1, model.config.embed_dim)), vectors])
    ids = np.arange(1, len(table))[None]
    return _forward({**model.params, "item_emb": table}, model.config, ids)[0][0, -1]


def _assert_matches_both_forwards(model, row, vectors):
    assert np.array_equal(row, _one_user_inference(model, vectors))
    # the smaller last-position products round differently, by about 2e-16
    # absolute; atol covers the entries near zero, where that is > 1e-12 relative
    assert np.allclose(row, _training_last_position(model, vectors), rtol=1e-12, atol=1e-14)


def test_batched_representations_equal_per_user_runs_for_mixed_lengths(toy_world):
    model = toy_world["cf"]
    window = model.config.max_history
    rng = np.random.default_rng(3)
    # one length holds more histories than a single forward pass takes
    lengths = [3] * (FORWARD_ROWS + 9) + list(rng.integers(1, window + 6, size=60))
    histories = [list(rng.choice(model.items, size=n)) for n in lengths]
    batched = user_representations(model, histories)
    for history, row in zip(histories, batched):
        vectors = model.params["item_emb"][model.indices_for(history[-window:])]
        _assert_matches_both_forwards(model, row, vectors)
    with pytest.raises(ValueError, match="non-empty"):
        user_representations(model, [histories[0], []])


def test_one_user_vectors_match_their_rows_of_a_stacked_table(toy_world):
    model = toy_world["cf"]
    window = model.config.max_history
    rng = np.random.default_rng(5)
    # lengths 1, exactly the window and past it
    lengths = [1, window, window + 1, window + 7] + list(rng.integers(1, window + 6, size=20))
    sequences = [rng.normal(size=(n, model.config.embed_dim)) for n in lengths]
    ends = np.cumsum(lengths)
    rows = [np.arange(end - n, end) for n, end in zip(lengths, ends)]
    stacked = user_representations_from_rows(model, np.concatenate(sequences), rows)
    for vectors, row in zip(sequences, stacked):
        assert np.array_equal(user_representation_from_vectors(model, vectors), row)
        _assert_matches_both_forwards(model, row, vectors[-window:])
    with pytest.raises(ValueError, match="non-empty"):
        user_representation_from_vectors(model, np.zeros((0, model.config.embed_dim)))
    with pytest.raises(ValueError, match="non-empty"):
        user_representation_from_vectors(model, np.zeros(model.config.embed_dim))


def _peak_bytes(call) -> int:
    """Peak bytes traced while `call()` runs, over what was held before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _untrained_users(n_histories, length, d, blocks):
    """An untrained d-wide model over 50 items, and histories of `length` of them."""
    config = CfConfig(embed_dim=d, max_history=length, blocks=blocks, heads=1)
    rng = np.random.default_rng(4)
    items = [f"i{k:03d}" for k in range(50)]
    model = CfModel(config, {q: i + 1 for i, q in enumerate(items)}, items,
                    _init_params(config, len(items), rng))
    return model, [list(rng.choice(items, size=length)) for _ in range(n_histories)]


def test_user_representations_hold_a_forward_pass_of_rows_not_every_history(monkeypatch):
    # d = 64: in a narrow model the (B, heads, L, L) attention arrays outweigh the rows
    n, length, d = 2000, 12, 64
    model, histories = _untrained_users(2 * n, length, d, blocks=1)
    rows_bytes = n * length * d * 8  # every history's steps, copied out once

    monkeypatch.setattr(cf_module, "FORWARD_ROWS", 8)
    peak = _peak_bytes(lambda: user_representations(model, histories[:n]))
    assert peak < rows_bytes / 4
    # twice the users add their index lists and output rows, not their steps
    assert _peak_bytes(lambda: user_representations(model, histories)) - peak < rows_bytes / 4
    # a wider forward pass holds at least its own (B, L, d) input more
    monkeypatch.setattr(cf_module, "FORWARD_ROWS", 64)
    wide = _peak_bytes(lambda: user_representations(model, histories[:n]))
    assert wide - peak > (64 - 8) * length * d * 8


# A forward that keeps the training cache (nine activations per block) peaks
# at about 0.56 (one block) and 0.82 (two blocks) of n*L*d*8 bytes here; one
# that drops each block's cache when the block returns and runs the last block
# at the last position only, at about 0.25 and 0.45.
@pytest.mark.parametrize("blocks, share", [(1, 0.4), (2, 0.65)])
def test_representing_users_keeps_no_backward_cache(monkeypatch, blocks, share):
    n, length, d = 2000, 12, 64
    model, histories = _untrained_users(n, length, d, blocks)
    monkeypatch.setattr(cf_module, "FORWARD_ROWS", 64)
    peak = _peak_bytes(lambda: user_representations(model, histories))
    assert peak < share * n * length * d * 8
