"""Central finite-difference verification of analytic gradients.

Shared by the backbone, the alignment network, and the projection stack:
each exposes a deterministic loss over a fixed batch plus analytic gradients,
and this helper perturbs every scalar parameter in turn.
"""

from __future__ import annotations

import numpy as np

__all__ = ["max_relative_gradient_error"]


def max_relative_gradient_error(
    loss_fn,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    h: float = 1e-5,
) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``loss_fn`` must be a pure function of the (mutated in place) ``params``.
    Relative error uses max(|analytic|, |numeric|, 1e-5) as the denominator:
    the floor keeps cancellation noise in the central difference (about
    1e-11 times the loss magnitude) from registering as error on entries
    whose true gradient is zero. Each entry is perturbed through its own
    index, so a parameter in any memory layout (a Fortran-ordered or strided
    view) is perturbed in place.
    """
    worst = 0.0
    for name in sorted(grads):
        param = params[name]
        grad = grads[name]
        for idx in np.ndindex(param.shape):
            original = param[idx]
            param[idx] = original + h
            plus = loss_fn()
            param[idx] = original - h
            minus = loss_fn()
            param[idx] = original
            numeric = (plus - minus) / (2.0 * h)
            analytic = grad[idx]
            denom = max(abs(analytic), abs(numeric), 1e-5)
            err = abs(analytic - numeric) / denom
            if err > worst:
                worst = err
    return worst
