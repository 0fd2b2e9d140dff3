"""Optimizer abstraction: plain gradient descent by default, Adam when configured.

Parameters are dicts of named numpy arrays; gradients use the same keys.
Updates are in-place so model objects keep their array identities. The
weight initializer that every model shares lives here too.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Sgd", "Adam", "make_optimizer", "xavier"]


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
