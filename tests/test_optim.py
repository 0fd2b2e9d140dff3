"""The one minibatch loop that trains every model, `optim.fit`, and the one
weight initializer every model draws from, `optim.init_params`."""

from __future__ import annotations

import numpy as np
import pytest

from fusionrec.align import init_alignment
from fusionrec.cf import CfConfig, _init_params
from fusionrec.errors import TrainingError
from fusionrec.optim import fit
from fusionrec.projection import init_projection_stack
from oracles import oracle_alignment_init, oracle_cf_init, oracle_projection_init

_SGD = dict(optimizer="sgd", learning_rate=0.1, what="toy loss")


def _pull_to(values: np.ndarray, params: dict, seen: list):
    """batch_loss for the mean of `values` over a batch; the gradient pulls
    `params["w"]` by a constant, and the batch weighs its size."""

    def batch_loss(chosen):
        seen.append(chosen.copy())
        return float(values[chosen].mean()), {"w": np.ones_like(params["w"])}, len(chosen)

    return batch_loss


def test_the_log_is_the_weighted_mean_of_the_batch_losses():
    values = np.arange(1.0, 8.0)  # batches of 3, 3 and 1 in every epoch
    params = {"w": np.zeros(2)}
    seen: list = []
    log = fit(params, len(values), _pull_to(values, params, seen), epochs=3, batch_size=3,
              rng=np.random.default_rng(0), **_SGD)
    # batch means weighted by batch sizes are the mean over all examples,
    # whatever the permutation
    assert log == pytest.approx([values.mean()] * 3, rel=1e-15)
    assert [len(chosen) for chosen in seen] == [3, 3, 1] * 3
    expected = np.zeros(2)
    for _ in range(9):  # one step per batch
        expected -= 0.1 * np.ones(2)
    assert np.array_equal(params["w"], expected)

    def unit(chosen):
        return float(values[chosen].mean()), {"w": np.zeros(2)}, 1

    rng = np.random.default_rng(0)
    [entry] = fit(params, len(values), unit, epochs=1, batch_size=3, rng=rng, **_SGD)
    perm = np.random.default_rng(0).permutation(len(values))
    batch_means = [values[perm[s : s + 3]].mean() for s in range(0, len(values), 3)]
    assert entry == np.mean(batch_means)


def test_a_non_finite_batch_raises_before_its_step():
    params = {"w": np.zeros(3)}
    calls = []

    def batch_loss(chosen):
        calls.append(len(chosen))
        loss = np.nan if len(calls) == 4 else 1.0
        return loss, {"w": np.ones(3)}, 1

    with pytest.raises(TrainingError, match=r"^non-finite toy loss at epoch 1, batch 1$"):
        fit(params, 4, batch_loss, epochs=3, batch_size=2, rng=np.random.default_rng(1), **_SGD)
    expected = np.zeros(3)
    for _ in range(3):  # the three batches before the bad one stepped
        expected -= 0.1 * np.ones(3)
    assert len(calls) == 4
    assert np.array_equal(params["w"], expected)


def test_each_epoch_draws_exactly_one_permutation():
    values = np.arange(10.0)
    params = {"w": np.zeros(1)}
    seen: list = []
    rng = np.random.default_rng(7)
    fit(params, len(values), _pull_to(values, params, seen), epochs=3, batch_size=4, rng=rng,
        **_SGD)
    reference = np.random.default_rng(7)
    perms = [reference.permutation(len(values)) for _ in range(3)]
    assert rng.bit_generator.state == reference.bit_generator.state
    assert np.array_equal(np.concatenate(seen), np.concatenate(perms))


def test_zero_epochs_log_nothing_and_draw_nothing():
    params = {"w": np.zeros(1)}
    seen: list = []
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    assert fit(params, 5, _pull_to(np.ones(5), params, seen), epochs=0, batch_size=2, rng=rng,
               **_SGD) == []
    assert rng.bit_generator.state == state
    assert seen == [] and np.array_equal(params["w"], np.zeros(1))


def test_an_empty_dataset_is_a_value_error():
    with pytest.raises(ValueError, match="no examples"):
        fit({"w": np.zeros(1)}, 0, lambda chosen: (0.0, {}, 1), epochs=1, batch_size=2,
            rng=np.random.default_rng(0), **_SGD)


def _bit_equal(got: dict, expected: dict) -> bool:
    return list(got) == list(expected) and all(
        got[name].shape == expected[name].shape and got[name].tobytes() == expected[name].tobytes()
        for name in expected
    )


@pytest.mark.parametrize("seed", [0, 17])
def test_every_model_draws_the_weights_of_its_own_init_loop(seed):
    config = CfConfig(embed_dim=3, max_history=5, blocks=2)
    cf = _init_params(config, 7, np.random.default_rng(seed))
    assert _bit_equal(cf, oracle_cf_init(config, 7, np.random.default_rng(seed)))
    net = init_alignment(3, 7, 5, rng=np.random.default_rng(seed))
    assert _bit_equal(net.params, oracle_alignment_init(3, 7, 5, np.random.default_rng(seed)))
    stack = init_projection_stack(3, 5, 7, 9, 11, rng=np.random.default_rng(seed))
    expected = oracle_projection_init(3, 5, 7, 9, 11, np.random.default_rng(seed))
    assert _bit_equal(stack.params, expected)
