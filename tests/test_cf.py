from __future__ import annotations

import numpy as np
import pytest

from conftest import log_from_planted
from fusionrec.cf import (
    CfConfig,
    _backward,
    _draw_drop_masks,
    _forward,
    _init_params,
    _pad_batch,
    item_embedding,
    next_item_probabilities,
    next_item_scores,
    rank_by_score,
    train_cf,
    training_loss_and_gradients,
    user_representation,
    user_representation_from_vectors,
    verbalize_prior,
)
from fusionrec.data import (
    TrainingInstance,
    build_sequences,
    build_training_instances,
    filter_dataset,
    leave_one_out_split,
)
from fusionrec.errors import TrainingError
from fusionrec.gradcheck import max_relative_gradient_error
from fusionrec.synthetic import make_planted_dataset
from oracles import oracle_cf_backward, oracle_cf_forward


def _toy_instances():
    return [
        TrainingInstance("u1", ("a", "b"), "c", 1),
        TrainingInstance("u1", ("a", "b"), "e", 0),
        TrainingInstance("u2", ("c",), "d", 1),
        TrainingInstance("u2", ("c", "d", "a"), "b", 1),
        TrainingInstance("u3", ("e", "a", "b", "c", "d"), "e", 0),
    ]


def _thawed(model):
    return {name: arr.copy() for name, arr in model.params.items()}


_TOY_CONFIG = dict(embed_dim=6, max_history=4, blocks=2, heads=2, epochs=0, batch_size=4)


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_gradients_match_finite_differences(dropout):
    instances = _toy_instances()
    config = CfConfig(**_TOY_CONFIG, dropout=dropout)
    model = train_cf(instances, config, np.random.default_rng(0))
    params = _thawed(model)
    # fixed masks (None without dropout), drawn for the padded batch the loss builds
    length = min(config.max_history, max(len(inst.history) for inst in instances))
    drop = _draw_drop_masks(config, (len(instances), length, config.embed_dim),
                            np.random.default_rng(1))
    _, grads = training_loss_and_gradients(params, config, instances, model.item_index, drop)

    def loss_fn():
        value, _ = training_loss_and_gradients(params, config, instances, model.item_index, drop)
        return value

    assert max_relative_gradient_error(loss_fn, params, grads, h=1e-5) <= 1e-4


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("case", ["plain", "dropout", "h0"])
def test_attention_stack_matches_einsum_reference(case, heads):
    config = CfConfig(embed_dim=8, max_history=7, blocks=2, heads=heads,
                      dropout=0.3 if case == "dropout" else 0.0)
    rng = np.random.default_rng(heads)
    n_items = 15
    params = _init_params(config, n_items, rng)
    for name, arr in params.items():
        if ".b" in name:  # biases start at zero; give them values the check can see
            params[name] = rng.normal(0.0, 0.1, size=arr.shape)
    histories = [list(rng.integers(1, n_items + 1, size=n)) for n in (1, 3, 7, 9, 5, 2)]
    ids = _pad_batch(histories, config.max_history)
    shape = (*ids.shape, config.embed_dim)
    drop = _draw_drop_masks(config, shape, rng)
    h0 = rng.normal(0.0, 0.1, size=shape) if case == "h0" else None

    rep, cache = _forward(params, config, ids, drop, h0)
    ref_rep, ref_cache = oracle_cf_forward(params, config, ids, drop, h0)
    d_rep = rng.normal(size=rep.shape)
    grads = _backward(params, config, cache, d_rep, drop)
    ref_grads = oracle_cf_backward(params, config, ref_cache, d_rep, drop)

    def close(a, b):
        return np.allclose(a, b, rtol=1e-10, atol=1e-12)

    assert close(rep, ref_rep)
    assert close(cache["h_final"], ref_cache["h_final"])
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert close(grads[name], ref_grads[name]), name


def test_single_step_representation_matches_hand_computation():
    config = CfConfig(embed_dim=5, max_history=3, blocks=1, heads=1, epochs=0)
    model = train_cf(_toy_instances(), config, np.random.default_rng(4))
    p = model.params
    idx = model.item_index["c"]
    h0 = p["item_emb"][idx] + p["pos_emb"][config.max_history - 1]
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
    scores = next_item_scores(model, history)
    assert scores.shape == (len(model.items),)
    for i, item in enumerate(model.items):
        row = model.params["item_emb"][model.item_index[item]]
        assert scores[i] == pytest.approx(float(row @ rep), abs=1e-12)
    probs = next_item_probabilities(model, history)
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
    with pytest.raises(ValueError, match="non-empty"):
        user_representation_from_vectors(model, np.zeros((0, model.config.embed_dim)))
    with pytest.raises(ValueError):
        user_representation_from_vectors(model, np.zeros(model.config.embed_dim))


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
    assert model.frozen
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
        scores = next_item_scores(model, history)
        margins.append(scores[model.item_index[target] - 1] - scores.mean())
    assert len(margins) >= 10
    assert float(np.mean(margins)) > 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_training_raises():
    planted = make_planted_dataset(n_users=12, n_items=10, seed=5, length_range=(6, 8))
    split = leave_one_out_split(build_sequences(filter_dataset(log_from_planted(planted), 3, 1)))
    instances = build_training_instances(split, 1, rng=np.random.default_rng(2))
    config = CfConfig(
        embed_dim=8, max_history=6, blocks=1, heads=1,
        epochs=3, batch_size=4, learning_rate=1e15, optimizer="sgd",
    )
    with pytest.raises(TrainingError, match="non-finite loss"):
        train_cf(instances, config, np.random.default_rng(0))


def test_train_rejects_bad_inputs():
    with pytest.raises(ValueError, match="no training instances"):
        train_cf([], CfConfig(), np.random.default_rng(0))
    with pytest.raises(ValueError, match="missing from item index"):
        train_cf(_toy_instances(), CfConfig(epochs=0), np.random.default_rng(0), item_index={"a": 1})


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        CfConfig(embed_dim=7, heads=2)
    with pytest.raises(ValueError, match="max_history"):
        CfConfig(max_history=0)
    with pytest.raises(ValueError, match="dropout"):
        CfConfig(dropout=1.0)


def test_item_embedding_returns_detached_copy(toy_world):
    model = toy_world["cf"]
    item = model.items[0]
    vec = item_embedding(model, item)
    assert np.array_equal(vec, model.params["item_emb"][model.item_index[item]])
    vec[0] += 1.0  # mutating the copy must not reach the frozen table
    assert not np.array_equal(vec, model.params["item_emb"][model.item_index[item]])
    assert item_embedding(model, "never-seen") is None


def test_rank_by_score_breaks_ties_by_id():
    instance = TrainingInstance("u1", ("b", "a"), "c", 1)
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


def test_verbalize_prior_with_calibration_context():
    pool = np.arange(100, dtype=np.float64)
    assert verbalize_prior(99.0, pool) == "likelihood 99%"
    assert verbalize_prior(0.0, pool) == "likelihood 0%"
    assert verbalize_prior(50.0, pool) == "likelihood 50%"
    assert verbalize_prior(0.5, np.ones(10)) != verbalize_prior(1.0, np.ones(10))
    assert verbalize_prior(1.0, np.ones(10)) == "likelihood 50%"
    with pytest.raises(ValueError, match="non-empty"):
        verbalize_prior(0.5, np.array([]))
