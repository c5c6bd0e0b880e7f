"""Admissibility, convergence diagnostics, the one number reader and the finite-fields check.

The random-integral construction of an additive dilatively stable process
converges under sufficient conditions that split by the sign of delta:

  condition_a      delta > 0 and alpha > delta/2; no moment condition.
  condition_b      delta < 0 and alpha > -delta/2, together with a finite
                   absolute moment of some order gamma > -delta/(alpha +
                   delta/2) for the compensated driver segments.  The moment
                   requirement is certified analytically from the driver's
                   maximal finite moment order; only the sufficient condition
                   is enforced, because a sharp boundary criterion is not
                   available in this regime.
  selfsimilar      delta = 0 and alpha > 0 with a finite log moment, which
                   every built-in driver has; the process is then
                   alpha-selfsimilar.
  degenerate_equal delta > 0 and alpha = delta/2; the process is a pure
                   deterministic time change of the driver and is simulated
                   directly rather than through the integral.

Everything else is inadmissible.  The cascade partial sums implement the
series criterion behind the moment condition: with E|X|**(1/beta) finite,
S_k = sum_{j<=k} a**(-j*beta) * sum_{l <= a**j * b} |X_l| converges, and the
level gaps S_k - S_{k-1} shrink geometrically.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import NotEnoughSamples, WrongRegime

__all__ = [
    "CONDITION_A",
    "CONDITION_B",
    "SELFSIMILAR",
    "DEGENERATE_EQUAL",
    "INADMISSIBLE",
    "AdmissibilityVerdict",
    "admissibility",
    "required_moment_order",
    "cascade_partial_sums",
]

CONDITION_A = "condition_a"
CONDITION_B = "condition_b"
SELFSIMILAR = "selfsimilar"
DEGENERATE_EQUAL = "degenerate_equal"
INADMISSIBLE = "inadmissible"


@dataclass(frozen=True)
class AdmissibilityVerdict:
    """Outcome of the admissibility check.

    gamma is the certified moment order used in the delta < 0 regime
    (midpoint of the open interval of workable orders); required_gamma is the
    lower endpoint of that interval.  reason is set only when inadmissible.
    """

    status: str
    gamma: float | None = None
    required_gamma: float | None = None
    reason: str | None = None

    @property
    def admissible(self):
        return self.status != INADMISSIBLE


def required_moment_order(params):
    """Lower bound on workable moment orders, -delta/(alpha + delta/2).

    Only defined in the delta < 0, alpha > -delta/2 regime.
    """
    alpha, delta = params.alpha, params.delta
    if not (delta < 0 and alpha > -delta / 2):
        raise WrongRegime(
            "the moment-order bound applies only when delta < 0 and alpha > -delta/2"
        )
    return -delta / (alpha + delta / 2)


def admissibility(params, spec):
    """Classify (alpha, delta) against the driver's moment metadata."""
    alpha, delta = params.alpha, params.delta
    if not (np.isfinite(alpha) and np.isfinite(delta)):
        return AdmissibilityVerdict(
            INADMISSIBLE,
            reason=f"alpha and delta must be finite; got alpha = {alpha:g}, delta = {delta:g}",
        )
    if delta > 0:
        if alpha > delta / 2:
            return AdmissibilityVerdict(CONDITION_A)
        if alpha == delta / 2:
            return AdmissibilityVerdict(DEGENERATE_EQUAL)
        return AdmissibilityVerdict(
            INADMISSIBLE,
            reason=f"delta > 0 needs alpha >= delta/2; got alpha = {alpha:g}, "
            f"delta/2 = {delta / 2:g}",
        )
    if delta == 0:
        if alpha <= 0:
            return AdmissibilityVerdict(
                INADMISSIBLE, reason=f"delta = 0 needs alpha > 0; got alpha = {alpha:g}"
            )
        return AdmissibilityVerdict(SELFSIMILAR)
    # delta < 0
    if alpha <= -delta / 2:
        return AdmissibilityVerdict(
            INADMISSIBLE,
            reason=f"delta < 0 needs alpha > -delta/2; got alpha = {alpha:g}, "
            f"-delta/2 = {-delta / 2:g}",
        )
    required = required_moment_order(params)
    available = spec.max_moment_order()
    if available <= required:
        return AdmissibilityVerdict(
            INADMISSIBLE,
            required_gamma=required,
            reason=f"delta < 0 requires a finite moment of some order > {required:g}, "
            f"but the driver's maximal moment order is {available:g}",
        )
    upper = min(available, required + 2.0)
    return AdmissibilityVerdict(
        CONDITION_B, gamma=0.5 * (required + upper), required_gamma=required
    )


def read_number(kind, name, value, least=None):
    """kind(value) for kind float or int, or a ValueError naming name.

    true is no number, and an int takes only integral numbers (1000.0, not
    2.7).  Text reads as the number it spells: "1e3" is the int 1000.  With
    least given, a number below it is refused too.
    """
    error = ValueError(f"{name} must be a number ({kind.__name__}), got {value!r:.60}")
    if kind is int and isinstance(value, str):
        try:
            value = int(value)  # exact, also beyond the float range
        except ValueError:
            try:
                value = float(value)
            except ValueError:
                raise error from None
    truncated = kind is int and isinstance(value, float) and not value.is_integer()
    if isinstance(value, bool) or truncated:
        raise error
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise error from None
    if least is not None and number < least:
        raise ValueError(f"{name} must be >= {least}, got {number!r}")
    return number


class _Parameters:
    """The check of every driver, jump law and scaling law: all numbers finite, then _check()."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, numbers.Real) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        self._check()


def cascade_partial_sums(samples, a, b, beta, levels):
    """Partial sums S_0..S_levels of the geometric block cascade.

    S_k = sum_{j<=k} a**(-j*beta) * sum_{l <= a**j * b} |samples_l|.  Needs at
    least a**levels * b samples; raises NotEnoughSamples otherwise.  The gaps
    S_k - S_{k-1} are nonnegative and, for a sample law with a finite moment
    of order 1/beta, shrink geometrically in k.  a, b and levels must be
    whole numbers of at least 2, 1 and 0, and beta a finite number > 0;
    ValueError names the one that is not.
    """
    a = read_number(int, "a", a, least=2)
    b = read_number(int, "b", b, least=1)
    levels = read_number(int, "levels", levels, least=0)
    beta = read_number(float, "beta", beta)
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be finite and > 0, got {beta!r}")
    needed = a**levels * b
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size < needed:
        raise NotEnoughSamples(
            f"cascade to level {levels} needs {needed} samples, got {samples.size}"
        )
    abs_cum = np.cumsum(np.abs(samples[:needed]))
    gaps = np.array(
        [float(a) ** (-k * beta) * abs_cum[a**k * b - 1] for k in range(levels + 1)]
    )
    return np.cumsum(gaps)
