"""Finite-difference gradient checking for the tests: the gradient suite
of the acceptance tests and the layer, loss and model tests compare each
analytic gradient with central differences through ``grad_check``."""

from dataclasses import dataclass

import numpy as np


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    worst_index: tuple
    passed: bool
    tol: float


def grad_check(fn, params, h=1e-5, tol=1e-4):
    """Compare analytic gradients against central finite differences.

    ``fn(params) -> (loss, grads)`` must be deterministic; ``grads`` is a
    dict matching ``params``. Relative error uses max(|a|, |b|, 1e-8) as
    the denominator.
    """
    _, analytic = fn(params)
    worst = 0.0
    worst_param = ""
    worst_index = ()
    for name, p in params.items():
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            loss_plus, _ = fn(params)
            p[idx] = orig - h
            loss_minus, _ = fn(params)
            p[idx] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * h)
            a = float(analytic[name][idx])
            denom = max(abs(a), abs(numeric), 1e-8)
            err = abs(a - numeric) / denom
            if err > worst:
                worst = err
                worst_param = name
                worst_index = idx
    return GradCheckReport(max_rel_error=worst, worst_param=worst_param,
                           worst_index=worst_index, passed=worst < tol,
                           tol=tol)
