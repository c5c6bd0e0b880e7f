"""Exponential time change and its inverse.

The map tau(delta, t) = (e^(delta*t) - 1) / (e^delta - 1) sends 0 to 0 and
1 to 1 for every delta, degenerates to the identity as delta -> 0, and obeys
the cocycle identity

    tau(delta, s + t) = tau(delta, s) + e^(delta*s) * tau(delta, t),

which is what turns stationary-increment processes into exponentially
scaled-increment ones when used as a deterministic clock.
"""

from __future__ import annotations

import numpy as np

from .errors import TimeChangeRange

__all__ = ["DELTA_ZERO_TOL", "tau", "tau_density", "tau_inv"]

# |delta| below this is treated as exactly 0 (identity clock).
DELTA_ZERO_TOL = 1e-12


def _shape_like(value, template):
    return float(value) if np.ndim(template) == 0 else np.asarray(value, dtype=float)


def tau(delta, t):
    """Evaluate the time change at t. Accepts scalars or arrays."""
    t_arr = np.asarray(t, dtype=float)
    if abs(delta) < DELTA_ZERO_TOL:
        return _shape_like(t_arr, t)
    return _shape_like(np.expm1(delta * t_arr) / np.expm1(delta), t)


def tau_inv(delta, s):
    """Invert the time change.

    Raises TimeChangeRange when s is outside the image of tau(delta, .):
    for delta > 0 the image is (-1/(e^delta - 1), inf), for delta < 0
    it is (-inf, 1/(1 - e^delta)).
    """
    s_arr = np.asarray(s, dtype=float)
    if abs(delta) < DELTA_ZERO_TOL:
        return _shape_like(s_arr, s)
    w = s_arr * np.expm1(delta)
    if np.any(w <= -1.0):
        raise TimeChangeRange(
            f"value {s!r} outside the range of the delta = {delta:g} time change"
        )
    return _shape_like(np.log1p(w) / delta, s)


def tau_density(delta, u):
    """Derivative of the time change: delta * e^(delta*u) / (e^delta - 1)."""
    u_arr = np.asarray(u, dtype=float)
    if abs(delta) < DELTA_ZERO_TOL:
        return _shape_like(np.ones_like(u_arr), u)
    return _shape_like(np.exp(delta * u_arr) * (delta / np.expm1(delta)), u)

