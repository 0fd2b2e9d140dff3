"""Optimizers, the one minibatch loop, and the shared weight initializer.

Parameters are dicts of named numpy arrays; gradients use the same keys.
Updates are in-place so model objects keep their array identities. `fit` is
the training loop of the CF backbone, the alignment network and the
projection stack alike: one permutation per epoch, one optimizer step per
batch, one log entry per epoch. Each trainer supplies only its batch loss.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import TrainingError

__all__ = ["Sgd", "Adam", "make_optimizer", "fit", "xavier"]


def xavier(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    """Glorot-uniform ``(fan_out, fan_in)`` weight matrix drawn from ``rng``."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


class Sgd:
    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name, grad in grads.items():
            params[name] -= self.learning_rate * grad


class Adam:
    def __init__(
        self,
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """One Adam update, computed in place in two float64 scratch rows.

        The operations and their order are those of the textbook expression
        ``lr * (m / c1) / (sqrt(v / c2) + eps)``, so the result is the same
        to the bit; only the temporaries are reused. The scratch rows are
        sized to the largest parameter and shared by all of them.
        """
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        scratch = np.empty((2, max((grad.size for grad in grads.values()), default=0)))
        for name, grad in grads.items():
            if name not in self._m:
                self._m[name] = np.zeros_like(grad)
                self._v[name] = np.zeros_like(grad)
            m = self._m[name]
            v = self._v[name]
            a, b = (row[: grad.size].reshape(grad.shape) for row in scratch)
            np.multiply(grad, 1.0 - self.beta1, out=a)
            m *= self.beta1
            m += a
            np.multiply(grad, 1.0 - self.beta2, out=b)
            b *= grad
            v *= self.beta2
            v += b
            np.divide(m, c1, out=a)  # m_hat
            a *= self.learning_rate
            np.divide(v, c2, out=b)  # v_hat
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            params[name] -= a


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
