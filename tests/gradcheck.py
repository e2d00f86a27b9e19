"""Finite-difference gradient checks for the hand-derived backward passes
of mcfr.nn and mcfr.network."""

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class GradCheckReport:
    max_rel_error: float
    tolerance: float
    per_param: dict[str, float]
    checked: int
    kinks: int

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def _rel_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def _loss_at(
    loss_fn: Callable[[], float], flat_p: np.ndarray, i: int, step: float
) -> float:
    orig = flat_p[i]
    flat_p[i] = orig + step
    try:
        return loss_fn()
    finally:
        flat_p[i] = orig


def finite_diff_check(
    loss_fn: Callable[[], float],
    params: dict[str, np.ndarray],
    analytic: dict[str, np.ndarray],
    *,
    h: float = 1e-5,
    tolerance: float = 1e-6,
    coords_per_param: int = 4,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare analytic gradients to central finite differences.

    loss_fn re-evaluates the scalar loss from the (temporarily perturbed)
    params. Relative error uses max(|analytic|, |numeric|, 1) as the
    denominator so near-zero gradients are compared absolutely.

    A coordinate whose central difference disagrees with the analytic
    value is probed again with second-order one-sided differences, at
    (x, x+h, x+2h) and (x, x-h, x-2h). If those two disagree by more than
    the tolerance, the coordinate sits on a kink, such as a ReLU whose
    pre-activation is exactly 0, where the central difference is the mean
    of two different slopes. There the analytic value must match one of
    the one-sided derivatives within the tolerance; every such coordinate
    is counted in the report's ``kinks``. Elsewhere the central-difference
    error stands.
    """
    rng = rng or np.random.default_rng(0)
    per_param: dict[str, float] = {}
    checked = 0
    kinks = 0
    base = None
    for name, grad in analytic.items():
        p = params[name]
        flat_p = p.reshape(-1)
        flat_g = grad.reshape(-1)
        k = min(coords_per_param, flat_p.size)
        idx = rng.choice(flat_p.size, size=k, replace=False)
        worst = 0.0
        for i in idx:
            up = _loss_at(loss_fn, flat_p, i, h)
            down = _loss_at(loss_fn, flat_p, i, -h)
            a = flat_g[i]
            err = _rel_error(a, (up - down) / (2.0 * h))
            if err >= tolerance:
                if base is None:
                    base = loss_fn()
                up2 = _loss_at(loss_fn, flat_p, i, 2.0 * h)
                down2 = _loss_at(loss_fn, flat_p, i, -2.0 * h)
                right = (4.0 * up - 3.0 * base - up2) / (2.0 * h)
                left = (3.0 * base - 4.0 * down + down2) / (2.0 * h)
                if _rel_error(left, right) > tolerance:
                    kinks += 1
                    err = min(_rel_error(a, left), _rel_error(a, right))
            worst = max(worst, err)
            checked += 1
        per_param[name] = worst
    max_err = max(per_param.values()) if per_param else 0.0
    return GradCheckReport(
        max_rel_error=max_err,
        tolerance=tolerance,
        per_param=per_param,
        checked=checked,
        kinks=kinks,
    )
