from __future__ import annotations

import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from fusionrec import checkpoint as checkpoint_module
from fusionrec.checkpoint import load_checkpoint, load_checkpoint_header, save_checkpoint
from fusionrec.errors import DataError
from fusionrec.optim import Adam, Sgd, make_optimizer
from oracles import max_relative_gradient_error, oracle_adam


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


_ARRAYS = st.dictionaries(
    st.text(max_size=6),
    arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)),
    max_size=4,
)
_META = st.dictionaries(
    st.text(max_size=6),
    st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=6),
              st.lists(st.integers(), max_size=3)),
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(arrays_in=_ARRAYS, meta=_META)
@example(arrays_in={"scalar": np.array(-0.0), "empty": np.zeros((2, 0, 3))}, meta={})
@example(arrays_in={}, meta={"items": []})
def test_checkpoint_roundtrip_over_random_shapes(arrays_in, meta):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "any.ckpt")
        save_checkpoint(path, "kind", meta, arrays_in)
        kind, loaded_meta, loaded = load_checkpoint(path)
        assert load_checkpoint_header(path) == (kind, loaded_meta)
    assert kind == "kind"
    assert loaded_meta == meta
    assert set(loaded) == set(arrays_in)
    for name, array in arrays_in.items():
        assert loaded[name].dtype == np.float64
        assert loaded[name].shape == array.shape
        assert loaded[name].tobytes() == array.tobytes()  # bit-equal, NaN and -0.0 included


class _CountingReader(io.BufferedReader):
    def read(self, size=-1):
        data = super().read(size)
        _CountingReader.bytes_read += len(data)
        return data


def test_header_read_skips_the_payload(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    meta = {"training_log": [0.5, 0.25], "items": ["a"]}
    save_checkpoint(path, "align", meta, _sample_arrays())
    full = path.read_bytes()
    header_end = full.index(b"}\n") + 2
    _CountingReader.bytes_read = 0
    monkeypatch.setattr(
        checkpoint_module, "open", lambda p, mode: _CountingReader(io.FileIO(p, mode)), raising=False
    )
    assert load_checkpoint_header(path) == ("align", meta)
    assert 0 < _CountingReader.bytes_read <= header_end  # the payload was never read


@pytest.mark.parametrize("reader", [load_checkpoint, load_checkpoint_header])
def test_a_payload_of_the_wrong_size_is_refused_by_both_readers(tmp_path, reader):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "align", {"items": ["a"]}, _sample_arrays())
    full = path.read_bytes()
    path.write_bytes(full[: full.index(b"}\n") + 2])  # header only: the payload is cut away
    with pytest.raises(DataError, match="truncated array payload"):
        reader(path)
    path.write_bytes(full + b"\0" * 3)
    with pytest.raises(DataError, match="3 bytes after the array payload"):
        reader(path)


def test_a_payload_cut_short_after_the_size_check_is_a_data_error(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    # larger than a read buffer, so the cut is not already buffered
    arrays = {**_sample_arrays(), "weights": np.ones((100, 100))}
    save_checkpoint(path, "align", {"items": ["a"]}, arrays)
    checked = checkpoint_module._read_header

    def check_then_cut(fh, where):
        found = checked(fh, where)
        os.truncate(where, os.path.getsize(where) - 8)  # the file shrinks after its size passed
        return found

    monkeypatch.setattr(checkpoint_module, "_read_header", check_then_cut)
    with pytest.raises(DataError, match="truncated array payload for 'weights'"):
        load_checkpoint(path)


def test_saved_bytes_are_each_array_as_little_endian_float64(tmp_path):
    arrays = {
        "a_fortran": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
        "b_big_endian": np.arange(3.0).astype(">f8"),
        "c_strided": np.arange(12.0).reshape(3, 4)[:, ::2],
        "d_empty": np.zeros((2, 0)),
        "e_read_only": np.linspace(0.0, 1.0, 5),
    }
    arrays["e_read_only"].flags.writeable = False
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "cf", {}, arrays)
    blob = path.read_bytes()
    payload = b"".join(np.asarray(arrays[n], dtype="<f8").tobytes() for n in sorted(arrays))
    assert blob.endswith(payload)
    _, _, loaded = load_checkpoint(path)
    for name, array in arrays.items():
        assert loaded[name].dtype == np.dtype("<f8") and loaded[name].flags.writeable
        assert np.array_equal(loaded[name], array)


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


def _with_header(header: bytes) -> bytes:
    return b"FRCKPT1\n" + f"{len(header)}\n".encode("ascii") + header + b"\n"


@pytest.mark.parametrize(
    "blob",
    [
        _with_header(b'{"arrays":[],"kind":"cf","me'),
        _with_header(b'{"arrays":[],"kind":"\xff\xfe","meta":{}}'),
        _with_header(b'{"arrays":[],"meta":{}}'),
        _with_header(b'{"arrays":[{"shape":[2]}],"kind":"cf","meta":{}}'),
        _with_header(b'[1, 2]'),
        _with_header(b'{"arrays":[],"kind":"cf","meta":[]}'),
        _with_header(b'{"arrays":[{"name":"w","shape":["x"]}],"kind":"cf","meta":{}}'),
        _with_header(b'{"arrays":[{"name":"w","shape":[-1,2]}],"kind":"cf","meta":{}}'),
        _with_header(b'{"arrays":[{"name":"w","shape":[1.5]}],"kind":"cf","meta":{}}'),
        _with_header(b'{"arrays":[{"name":"w","shape":[true]}],"kind":"cf","meta":{}}'),
        _with_header(b'{"arrays":[{"name":[1],"shape":[]}],"kind":"cf","meta":{}}') + bytes(8),
        _with_header(
            b'{"arrays":[{"name":"a","shape":[2]},{"name":"a","shape":[2]}],"kind":"cf","meta":{}}'
        ) + np.array([1.0, 2.0, 3.0, 4.0], dtype="<f8").tobytes(),
    ],
    ids=[
        "cut-json", "bad-utf8", "no-kind", "array-without-name", "not-an-object", "meta-list",
        "shape-string", "shape-negative", "shape-float", "shape-bool", "name-not-a-string",
        "name-twice",
    ],
)
def test_corrupt_checkpoint_header_is_a_data_error(tmp_path, blob):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(blob)
    with pytest.raises(DataError, match="corrupt header"):
        load_checkpoint(path)
    with pytest.raises(DataError, match="corrupt header"):
        load_checkpoint_header(path)


def test_failed_save_keeps_the_previous_checkpoint_and_no_temp_file(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "cf", {"version": 1}, _sample_arrays())
    before = path.read_bytes()
    # "a" is written first; "b" cannot become float64, so the write fails partway
    arrays = {"a": np.ones(64), "b": np.array(["not a number"], dtype=object)}
    with pytest.raises(ValueError):
        save_checkpoint(path, "cf", {"version": 2}, arrays)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]


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


def test_one_adam_over_two_parameters_steps_each_as_its_own_adam_would():
    rng = np.random.default_rng(9)
    shapes = {"a": (3, 4), "b": ()}
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    alone = {name: {name: arr.copy()} for name, arr in params.items()}
    arrays = dict(params)
    joint, single = Adam(0.05), {name: Adam(0.05) for name in shapes}
    for _ in range(20):
        grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        joint.step(params, grads)
        for name in shapes:
            single[name].step(alone[name], {name: grads[name]})
            assert params[name] is arrays[name]
            assert np.array_equal(params[name], alone[name][name]), name
    assert joint.t == 20


@pytest.mark.parametrize(
    "later",
    [
        {"a": np.ones(2), "c": np.ones(3)},  # renamed
        {"a": np.ones(2)},  # dropped
        {"a": np.ones(2), "b": np.ones(4)},  # resized
    ],
    ids=["renamed", "dropped", "resized"],
)
def test_adam_refuses_a_changed_gradient_layout_before_any_parameter_moves(later):
    params = {"a": np.zeros(2), "b": np.zeros(3), "c": np.zeros(3)}
    opt = Adam(0.1)
    opt.step(params, {"a": np.ones(2), "b": -np.ones(3)})
    before = {name: arr.copy() for name, arr in params.items()}
    with pytest.raises(ValueError, match="^gradient layout changed between Adam steps"):
        opt.step(params, later)
    for name, arr in params.items():
        assert np.array_equal(arr, before[name]), name
    assert opt.t == 1


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


def _fortran_quadratic():
    params = {"w": np.asfortranarray(np.array([[1.0, -2.0, 0.5], [3.0, 0.25, -1.5]]))}
    assert not params["w"].flags.c_contiguous

    def loss_fn():
        return float(np.sum(params["w"] ** 2))

    return params, loss_fn


def test_gradient_checker_perturbs_a_fortran_ordered_parameter_in_place():
    params, loss_fn = _fortran_quadratic()
    assert max_relative_gradient_error(loss_fn, params, {"w": 2.0 * params["w"]}) <= 1e-6


def test_gradient_checker_flags_a_zero_gradient_on_a_fortran_ordered_parameter():
    params, loss_fn = _fortran_quadratic()
    zeros = {"w": np.zeros_like(params["w"])}
    assert max_relative_gradient_error(loss_fn, params, zeros) > 1e-2
