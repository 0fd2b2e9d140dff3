"""Optimizers, the one minibatch loop, and the one weight initializer.

Parameters are dicts of named numpy arrays; gradients use the same keys.
Updates are in-place so model objects keep their array identities. `fit` is
the training loop of the CF backbone, the alignment network and the
projection stack alike: one permutation per epoch, one optimizer step per
batch, one log entry per epoch. Each trainer supplies only its batch loss.

Adam keeps its moments as one flat vector each over the whole model, so
each of its elementwise passes runs once per step rather than once per
parameter array; on the CF backbone (24 mostly small arrays) that call
overhead was the largest single cost of a training step.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import TrainingError


# Adam's moment decay rates and denominator guard; no model sets its own.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def init_params(shapes: dict[str, tuple[int, ...]],
                rng: np.random.Generator) -> dict[str, np.ndarray]:
    """One array per entry of a model's shape table, drawn in table order: a
    ``(fan_out, fan_in)`` matrix is Glorot-uniform, with limit
    ``sqrt(6 / (fan_in + fan_out))``, and a vector is zeros."""
    params: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        if len(shape) == 2:
            fan_out, fan_in = shape
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            params[name] = rng.uniform(-limit, limit, size=shape)
        else:
            params[name] = np.zeros(shape)
    return params


class Sgd:
    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name, grad in grads.items():
            params[name] -= self.learning_rate * grad


class Adam:
    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        self._layout: tuple | None = None
        self._m = self._v = np.empty(0)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """One Adam update over the whole model at once, in place.

        The moments are one flat float64 vector each, laid out in the
        gradients' order at the first step. Each step copies the gradients
        into one fresh ``(2, P)`` buffer, P their total size, and runs every
        pass once over all P values; each parameter then takes its slice in
        place. The buffer is allocated per step, not kept: kept on the
        optimizer it raised the benchmark's peak RSS on `cold`.

        The operations and their order are those of the textbook expression
        ``lr * (m / c1) / (sqrt(v / c2) + eps)``, elementwise, so the result
        is the same to the bit. A step whose gradients differ from the first
        in names, order or shapes raises ValueError before any parameter
        moves.
        """
        layout = tuple((name, grad.shape) for name, grad in grads.items())
        if self._layout is None:
            self._layout = layout
            size = sum(grad.size for grad in grads.values())
            self._m, self._v = np.zeros(size), np.zeros(size)
        elif layout != self._layout:
            changed = sorted(set(layout) ^ set(self._layout)) or "order only"
            raise ValueError(f"gradient layout changed between Adam steps: {changed}")
        self.t += 1
        c1 = 1.0 - BETA1**self.t
        c2 = 1.0 - BETA2**self.t
        m, v = self._m, self._v
        a, b = np.empty((2, m.size))
        np.concatenate([grad.ravel() for grad in grads.values()], out=a)
        np.multiply(a, 1.0 - BETA1, out=b)
        m *= BETA1
        m += b
        np.multiply(a, 1.0 - BETA2, out=b)
        b *= a
        v *= BETA2
        v += b
        np.divide(m, c1, out=a)  # m_hat
        a *= self.learning_rate
        np.divide(v, c2, out=b)  # v_hat
        np.sqrt(b, out=b)
        b += EPS
        a /= b
        offset = 0
        for name, grad in grads.items():
            params[name] -= a[offset : offset + grad.size].reshape(grad.shape)
            offset += grad.size


def make_optimizer(name: str, learning_rate: float):
    if name == "sgd":
        return Sgd(learning_rate)
    if name == "adam":
        return Adam(learning_rate)
    raise ValueError(f"unknown optimizer {name!r}")


def fit(params: dict[str, np.ndarray], n: int, batch_loss, *, epochs: int, batch_size: int,
        optimizer: str, learning_rate: float, rng: np.random.Generator, what: str) -> list[float]:
    """Train `params` in place on `n` examples; returns the per-epoch log.

    Each epoch draws one `rng.permutation(n)` and calls `batch_loss(chosen)`
    for each consecutive `batch_size` slice of it. That returns the batch's
    loss, its gradients keyed like `params`, and the batch's weight in the
    log. A non-finite loss raises TrainingError naming `what`, the epoch and
    the batch, before that batch steps. An epoch's log entry is the weighted
    mean of its batch losses.
    """
    if n == 0:
        raise ValueError("no examples to train on")
    opt = make_optimizer(optimizer, learning_rate)
    log: list[float] = []
    for epoch in range(epochs):
        perm = rng.permutation(n)
        losses, weights = [], []
        for batch, start in enumerate(range(0, n, batch_size)):
            loss, grads, weight = batch_loss(perm[start : start + batch_size])
            if not math.isfinite(loss):
                raise TrainingError(f"non-finite {what} at epoch {epoch}, batch {batch}")
            opt.step(params, grads)
            losses.append(loss)
            weights.append(weight)
        log.append(float(np.average(losses, weights=weights)))
    return log
