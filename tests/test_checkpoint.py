from __future__ import annotations

import numpy as np
import pytest

from fusionrec.checkpoint import load_checkpoint, save_checkpoint
from fusionrec.errors import DataError
from fusionrec.gradcheck import max_relative_gradient_error
from fusionrec.optim import Adam, Sgd, make_optimizer
from oracles import oracle_adam


def _sample_arrays():
    rng = np.random.default_rng(12)
    return {
        "weights": rng.normal(size=(3, 4)),
        "bias": rng.normal(size=5),
        "scalar": np.array(2.5),
    }


def test_checkpoint_roundtrip(tmp_path):
    path = tmp_path / "model.ckpt"
    arrays = _sample_arrays()
    meta = {"epochs": 3, "items": ["a", "b"], "note": "toy"}
    save_checkpoint(path, "cf", meta, arrays)
    kind, loaded_meta, loaded = load_checkpoint(path)
    assert kind == "cf"
    assert loaded_meta == meta
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert loaded[name].shape == arrays[name].shape
        assert np.array_equal(loaded[name], arrays[name])
    assert loaded["scalar"].shape == ()
    assert float(loaded["scalar"]) == 2.5
    assert loaded["weights"].flags.writeable  # copies, not buffer views


def test_checkpoint_bytes_are_deterministic(tmp_path):
    arrays = _sample_arrays()
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    save_checkpoint(first, "cf", {"seed": 1}, arrays)
    save_checkpoint(second, "cf", {"seed": 1}, dict(reversed(list(arrays.items()))))
    assert first.read_bytes() == second.read_bytes()


def test_checkpoint_rejects_foreign_and_damaged_files(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"PNG....whatever")
    with pytest.raises(DataError, match="not a checkpoint file"):
        load_checkpoint(path)

    path.write_bytes(b"FRCKPT1\nxyz\n{}")
    with pytest.raises(DataError, match="corrupt header length"):
        load_checkpoint(path)

    good = tmp_path / "good.ckpt"
    save_checkpoint(good, "cf", {}, {"w": np.ones((4, 4))})
    blob = good.read_bytes()
    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(blob[:-16])
    with pytest.raises(DataError, match="truncated array payload for 'w'"):
        load_checkpoint(truncated)


def test_sgd_step_is_exact_and_in_place():
    params = {"w": np.array([1.0, 2.0, 3.0])}
    grads = {"w": np.array([0.5, -1.0, 0.0])}
    original = params["w"]
    Sgd(learning_rate=0.1).step(params, grads)
    assert params["w"] is original
    assert np.allclose(params["w"], [0.95, 2.1, 3.0], atol=1e-15)


def test_adam_first_step_matches_the_reference_formula():
    lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
    theta = np.array([1.0, -2.0, 0.5])
    grad = np.array([0.3, -0.1, 0.0])
    params = {"w": theta.copy()}
    opt = Adam(lr)
    opt.step(params, {"w": grad})
    m_hat = ((1 - beta1) * grad) / (1 - beta1)
    v_hat = ((1 - beta2) * grad * grad) / (1 - beta2)
    expected = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    assert np.allclose(params["w"], expected, atol=1e-12)
    # with a constant gradient the first step has magnitude ~lr per coordinate
    assert np.allclose(np.abs(params["w"] - theta)[:2], lr, atol=1e-6)
    assert params["w"][2] == theta[2]


def test_adam_keeps_per_parameter_state():
    opt = Adam(0.1)
    params = {"a": np.zeros(2), "b": np.zeros(3)}
    opt.step(params, {"a": np.ones(2), "b": -np.ones(3)})
    opt.step(params, {"a": np.ones(2), "b": -np.ones(3)})
    assert opt.t == 2
    assert set(opt._m) == {"a", "b"}
    assert params["a"][0] < 0 < params["b"][0]


def test_adam_in_place_update_equals_the_textbook_expression_bit_for_bit():
    rng = np.random.default_rng(4)
    shapes = {"w": (7, 5), "b": (7,), "s": ()}
    start = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    grad_seq = [
        {name: rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 2) for name, shape in shapes.items()}
        for _ in range(50)
    ]
    params = {name: arr.copy() for name, arr in start.items()}
    opt = Adam(0.01)
    for grads in grad_seq:
        opt.step(params, grads)
    expected = oracle_adam(dict(start), grad_seq, 0.01)
    for name in shapes:
        assert np.array_equal(params[name], expected[name]), name


def test_make_optimizer_dispatch():
    assert isinstance(make_optimizer("sgd", 0.1), Sgd)
    assert isinstance(make_optimizer("adam", 0.1), Adam)
    with pytest.raises(ValueError, match="unknown optimizer 'rmsprop'"):
        make_optimizer("rmsprop", 0.1)


def test_gradient_checker_accepts_exact_gradients():
    params = {"x": np.array([1.0, -2.0, 0.5]), "y": np.array([[2.0, 1.0]])}

    def loss_fn():
        return float(np.sum(params["x"] ** 2) + 3.0 * np.sum(params["y"] ** 2))

    grads = {"x": 2.0 * params["x"].copy(), "y": 6.0 * params["y"].copy()}
    assert max_relative_gradient_error(loss_fn, params, grads) <= 1e-6


def test_gradient_checker_flags_corruption_and_floors_zeros():
    params = {"x": np.array([1.0, -2.0])}

    def loss_fn():
        return float(np.sum(params["x"] ** 2))

    wrong = {"x": np.array([2.0 * 1.5, -4.0])}
    assert max_relative_gradient_error(loss_fn, params, wrong) > 1e-2

    # a zero-gradient coordinate must not divide by zero
    flat = {"x": np.zeros(2)}
    constant_params = {"x": np.zeros(2)}

    def flat_loss():
        return 1.0

    assert max_relative_gradient_error(flat_loss, constant_params, flat) == 0.0
