"""Additive dilatively stable processes and their transform family.

An additive process X is (alpha, delta)-dilatively stable when its finite
dimensional log-characteristic functions satisfy, for every time dilation
T > 0,

    Psi_{T t_1, ..., T t_k}(theta_1, ..., theta_k)
        = T**delta * Psi_{t_1, ..., t_k}(T**H theta_1, ..., T**H theta_k),

with the scaling exponent H = alpha - delta/2.  Such a process is realised
here as a random integral in logarithmic time,

    X_t = integral_{-inf}^{log t} e^(u H) dY_u,

where the background process Y has exponentially scaled increments and is
realised pathwise as L(tau(delta, .)) for a two-sided Levy driver L and the
exponential clock tau.  The simulator truncates the lower integration limit
where the neglected tail scale drops below a tolerance, refines the log-time
grid uniformly, and takes left-endpoint sums; driver increments are sampled
exactly over the clock increments, so the only discretisation error is in the
weight, not in the driver law.

In the boundary case alpha = delta/2 (H = 0, delta > 0) the integral
degenerates and X is instead simulated directly as L(t**delta / (e**delta -
1)).

The transform family:

  * lamperti_transform   V_u = e^(-H u) X_{e^u}; V has the translative
                         scaling Psi_{. + T} = e^(delta T) Psi_. and solves a
                         wide-sense Ornstein-Uhlenbeck equation with rate
                         lambda = delta/2 - alpha driven by Y.
  * reparam_time_stable  Z_s = V_{log s}: n-fold time scaling s -> n**(1/delta) s
                         multiplies Psi by n.
  * reparam_idt          D_s = V_{log(s)/delta}: Psi at dilated times n*s is
                         n times Psi at s (infinite divisibility with respect
                         to time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drivers import SymmetricStableDriver, sample_increments
from .errors import (
    DegenerateDelta,
    GridMissingUnit,
    InadmissibleParams,
    NonPositiveTime,
    OffGrid,
)
from .integrator import SamplePath, TimeGrid
from .timechange import tau, tau_density
from .validation import DEGENERATE_EQUAL, admissibility

__all__ = [
    "DilationParams",
    "SimulationPlan",
    "plan_dilative",
    "simulate_dilative",
    "simulate_driving",
    "extract_background",
    "lamperti_transform",
    "lamperti_inverse",
    "ou_evolve",
    "ou_from_integral",
    "reparam_time_stable",
    "reparam_idt",
    "Transform",
    "TRANSFORMS",
    "transform_values",
    "pull_back",
]


@dataclass(frozen=True)
class DilationParams:
    """The scaling exponent pair (alpha, delta)."""

    alpha: float
    delta: float

    @property
    def hurst(self):
        """Weight exponent H = alpha - delta/2 of the log-time integral."""
        return self.alpha - self.delta / 2.0

    @property
    def ou_rate(self):
        """Rate lambda = delta/2 - alpha of the OU-type transform; equals -hurst."""
        return self.delta / 2.0 - self.alpha


def _truncation_point(spec, params, tail_tol):
    """Log-time u_min below which the neglected tail scale is < tail_tol.

    The tail integral_{-inf}^{u} e^(s H) dL(tau(s)) has, per unit driver law,
    stable scale parameter (scale * q * e^((pH+delta) u)/(pH+delta))**(1/p)
    for the symmetric stable driver and, otherwise, mean and variance

        mean:     mean_rate * q * e^((H+delta) u) / (H + delta)
        variance: variance_rate * q * e^(2 alpha u) / (2 alpha)

    with q = tau'(0) = delta/(e^delta - 1).  For drivers with both a mean and
    a variance the tolerance budget is split evenly between the two in the
    second-moment sense.  Returns None when the driver is deterministic zero.
    """
    q = tau_density(params.delta, 0.0)
    h, d = params.hurst, params.delta
    if isinstance(spec, SymmetricStableDriver) and spec.index < 2.0:
        p = spec.index
        # admissible parameter regimes force p*H + delta > 0
        rate = p * h + d
        return math.log(tail_tol**p * rate / (spec.scale * q)) / rate
    m1 = spec.mean_rate()
    m2 = spec.variance_rate()
    bounds = []
    if m2 > 0:
        rate = 2.0 * params.alpha
        bounds.append(math.log(0.5 * tail_tol**2 * rate / (m2 * q)) / rate)
    if m1 != 0:
        rate = h + d
        bounds.append(math.log(tail_tol / math.sqrt(2.0) * rate / (abs(m1) * q)) / rate)
    if not bounds:
        return None
    return min(bounds)


def _refined_log_grid(u_min, u_out, refine):
    """Log-time grid from u_min to max(u_out): uniform refinement with the
    output points inserted exactly.  Returns (grid, indices of u_out)."""
    knots = list(u_out)
    if u_min < knots[0]:
        knots = [u_min] + knots
    segments = []
    for lo, hi in zip(knots[:-1], knots[1:]):
        n = max(1, math.ceil((hi - lo) * refine))
        segments.append(np.linspace(lo, hi, n + 1)[:-1])
    segments.append(np.array([knots[-1]]))
    grid = np.concatenate(segments)
    out_idx = np.searchsorted(grid, u_out)
    return grid, out_idx


@dataclass(eq=False)
class SimulationPlan:
    """Precomputed discretisation for repeated path draws.

    run(rng) returns the process values at the requested output times; every
    call consumes the generator identically, so path n of an ensemble is
    reproducible from its derived stream alone.
    """

    spec: object
    params: DilationParams
    durations: np.ndarray  # clock increments fed to the driver sampler
    weights: np.ndarray | None  # e^(u H) left-endpoint weights; None -> direct L
    out_index: np.ndarray | None  # grid positions of the output times

    def __post_init__(self):
        if self.out_index is not None:
            # grid point i > 0 is the (i-1)-th partial sum; an output time at
            # the truncation point (i = 0) is X = 0 and is prepended in run
            self._at_start = bool(self.out_index[0] == 0)
            self._take = self.out_index[int(self._at_start) :] - 1

    def run(self, rng):
        increments = sample_increments(self.spec, self.durations, rng)
        if self.weights is None:
            return np.cumsum(increments)
        values = np.cumsum(self.weights * increments)[self._take]
        if self._at_start:
            return np.concatenate([[0.0], values])
        return values


def plan_dilative(spec, params, log_out_times, refine=8.0, tail_tol=1e-4):
    """Build the discretisation for X at output times e^(u), u in log_out_times.

    Checks admissibility (raising InadmissibleParams with the verdict), picks
    the truncation point from the driver's tail scale, and refines uniformly
    in log time with at least `refine` steps per unit.
    """
    verdict = admissibility(params, spec)
    if not verdict.admissible:
        raise InadmissibleParams(verdict)
    if not 1 <= refine < math.inf:
        raise ValueError(
            f"refine must be a finite number >= 1 (steps per unit log time), got {refine!r}"
        )
    if not 0 < tail_tol < math.inf:
        raise ValueError(f"tail_tol must be a finite number > 0, got {tail_tol!r}")
    u_out = np.asarray(log_out_times, dtype=float)
    if verdict.status == DEGENERATE_EQUAL:
        # X_t = L(t**delta / (e**delta - 1)) exactly; sample L at those times.
        clock = np.exp(params.delta * u_out) / math.expm1(params.delta)
        durations = np.diff(np.concatenate([[0.0], clock]))
        return SimulationPlan(spec, params, durations, None, None)
    try:
        bound = _truncation_point(spec, params, tail_tol)
    except (ValueError, OverflowError):
        # the tolerance's power under- or overflowed, and its log with it
        raise ValueError(
            f"tail_tol = {tail_tol!r} leaves no finite truncation point for this driver"
        ) from None
    u_min = u_out[0] if bound is None else min(bound, u_out[0])
    grid, out_idx = _refined_log_grid(u_min, u_out, refine)
    durations = np.maximum(np.diff(tau(params.delta, grid)), 0.0)
    weights = np.exp(params.hurst * grid[:-1])
    return SimulationPlan(spec, params, durations, weights, out_idx)


def simulate_dilative(
    spec, params, out_times, rng, refine=8.0, tail_tol=1e-4, include_origin=False
):
    """Simulate one path of the additive (alpha, delta)-dilatively stable process.

    out_times must be strictly positive; with include_origin the point t = 0
    with X = 0 is prepended to the returned path.
    """
    pts = out_times.points
    if pts[0] <= 0:
        raise NonPositiveTime("output times must be strictly positive")
    plan = plan_dilative(spec, params, np.log(pts), refine=refine, tail_tol=tail_tol)
    values = plan.run(rng)
    if include_origin:
        return SamplePath(
            TimeGrid(np.concatenate([[0.0], pts])),
            np.concatenate([[0.0], values]),
            role="X",
        )
    return SamplePath(out_times, values, role="X")


def simulate_driving(spec, delta, log_times, rng):
    """Sample the background process Y = L(tau(delta, .)) on a log-time grid.

    Anchored at Y = 0 at log time 0 when the grid contains it, else at the
    first grid point.
    """
    u = log_times.points
    durations = np.maximum(np.diff(tau(delta, u)), 0.0)
    increments = sample_increments(spec, durations, rng)
    cums = np.concatenate([[0.0], np.cumsum(increments)])
    try:
        anchor = log_times.index_of(0.0)
    except OffGrid:
        anchor = 0
    return SamplePath(log_times, cums - cums[anchor], role="Y")


def extract_background(x, params):
    """Recover the background process from an X path on a positive grid.

    Y at log time u is the left-endpoint integral of t**(-H) against X from
    t = 1 to t = e^u (negated below 1), so the grid must contain the point
    t = 1; raises GridMissingUnit otherwise.  On the grid of a simulated path
    the weights cancel the simulation weights and the driver increments are
    recovered up to rounding.
    """
    pts = x.grid.points
    if pts[0] <= 0:
        raise NonPositiveTime("background extraction needs strictly positive times")
    try:
        i1 = x.grid.index_of(1.0)
    except OffGrid as exc:
        raise GridMissingUnit("background extraction needs t = 1 on the grid") from exc
    u = np.log(pts)
    dy = pts[:-1] ** (-params.hurst) * np.diff(x.values)
    cums = np.concatenate([[0.0], np.cumsum(dy)])
    return SamplePath(TimeGrid(u), cums - cums[i1], role="Y")


def lamperti_transform(x, params):
    """Map X on a positive grid to V_u = e^(-H u) X_{e^u} on the log grid."""
    return SamplePath(*transform_values("lamperti", x.grid, x.values, x.role, hurst=params.hurst))


def lamperti_inverse(v, params, include_origin=False):
    """Map V on a log grid back to X_t = t**H V_{log t} on the positive grid."""
    grid, values, role = transform_values(
        "lamperti_inverse", v.grid, v.values, v.role, hurst=params.hurst
    )
    if include_origin:
        grid = TimeGrid(np.concatenate([[0.0], grid.points]))
        values = np.concatenate([[0.0], values])
    return SamplePath(grid, values, role)


def ou_evolve(v0, y, ou_rate, a, b):
    """Wide-sense Ornstein-Uhlenbeck evolution driven by a Y path.

    Returns V on the grid points of y in [a, b], where

        V_t = e^(rate * t) * (v0 + integral_0^t e^(-rate * s) dY_s)

    with the left-endpoint integral on y's grid; the grid must therefore
    contain 0 (the anchor of v0) as well as a and b.  The flow identity
    V_t = e^(rate*(t-s)) V_s + e^(rate*t) * integral_s^t e^(-rate*u) dY_u
    holds exactly at grid level.
    """
    ia = y.grid.index_of(a)
    ib = y.grid.index_of(b)
    if ia > ib:
        raise ValueError("need a <= b")
    i0 = y.grid.index_of(0.0)
    u = y.grid.points
    w = np.exp(-ou_rate * u[:-1])
    cums = np.concatenate([[0.0], np.cumsum(w * np.diff(y.values))])
    integral = cums - cums[i0]
    seg = u[ia : ib + 1]
    values = np.exp(ou_rate * seg) * (float(v0) + integral[ia : ib + 1])
    return SamplePath(TimeGrid(seg.copy()), values, role="V")


def ou_from_integral(spec, params, out_log_times, rng, refine=8.0, tail_tol=1e-4):
    """Simulate the OU-type transform directly from its moving-average form.

    V_t = integral_{-inf}^t e^((u - t) H) dY_u on the given (real) log-time
    grid, built from one driver realisation shared across all output times;
    equal to the transform of a simulate_dilative path drawn from the same
    stream, up to rounding.  Requires delta != 0.
    """
    if params.delta == 0:
        raise DegenerateDelta("the moving-average form needs delta != 0")
    u_out = out_log_times.points
    plan = plan_dilative(spec, params, u_out, refine=refine, tail_tol=tail_tol)
    x_values = plan.run(rng)
    values = np.exp(-params.hurst * u_out) * x_values
    return SamplePath(out_log_times, values, role="V")


def reparam_time_stable(v):
    """Relabel V's clock u -> e^u, giving the time-stable process Z."""
    return SamplePath(*transform_values("time_stable", v.grid, v.values, v.role))


def reparam_idt(v, delta):
    """Relabel V's clock u -> e^(delta u), giving the IDT process D.

    Undefined at delta = 0 (DegenerateDelta); for delta < 0 the relabelled
    grid runs backwards, so points and values are reversed together.
    """
    return SamplePath(*transform_values("idt", v.grid, v.values, v.role, delta=delta))


def _log_clock(pts, delta):
    if pts[0] <= 0:
        raise NonPositiveTime("the transform needs strictly positive times")
    return np.log(pts)


def _exp_clock(pts, delta):
    return np.exp(pts)


def _idt_clock(pts, delta):
    if delta == 0:
        raise DegenerateDelta("IDT reparametrisation needs delta != 0")
    return np.exp(delta * pts)


def _log_time(s, delta):
    if s <= 0:
        raise ValueError(f"cannot pull the nonpositive time {s!r} back through a log clock")
    return math.log(s)


def _idt_time(s, delta):
    if delta == 0:
        raise DegenerateDelta("IDT reparametrisation needs delta != 0")
    return _log_time(s, delta) / delta


@dataclass(frozen=True)
class Transform:
    """One step of the transform family: a time map and a weight shared by every path.

    clock(points, delta) maps the grid forward; inverse(s, delta) maps one
    time of the new grid back.  weight(old, new, hurst) multiplies the
    values; None relabels the clock only.  source is the role the input must
    have (None: any) and role the role of the output.
    """

    clock: object
    inverse: object
    weight: object
    source: str | None
    role: str


TRANSFORMS = {
    # V_u = e^(-H u) X_(e^u)
    "lamperti": Transform(
        _log_clock, lambda s, delta: math.exp(s), lambda t, u, h: np.exp(-h * u), None, "V"
    ),
    # X_t = t^H V_(log t)
    "lamperti_inverse": Transform(
        _exp_clock, _log_time, lambda u, t, h: np.exp(h * u), None, "X"
    ),
    # Z_s = V_(log s)
    "time_stable": Transform(_exp_clock, _log_time, None, "V", "Z"),
    # D_r = V_(log(r) / delta)
    "idt": Transform(_idt_clock, _idt_time, None, "V", "D"),
}

def _transform(name):
    try:
        return TRANSFORMS[name]
    except KeyError:
        raise ValueError(f"unknown transform {name!r}") from None


def transform_values(name, grid, values, role, hurst=None, delta=None):
    """One step of the transform family, on the values of one or many paths.

    values carries the grid along its last axis: one path, or a
    (n_paths, len(grid)) matrix with one row per path.  Each transform is a
    time map and a weight shared by every path, so a whole matrix is mapped
    at once.  role names the process the values describe.  The Lamperti pair
    needs hurst and idt needs delta.  Returns the new (grid, values, role).
    """
    step = _transform(name)
    if step.source is not None and role != step.source:
        raise ValueError(f"the {name} transform expects a {step.source} path, got {role}")
    pts = grid.points
    new = step.clock(pts, delta)
    if new.size > 1 and new[0] > new[-1]:
        # the relabelled clock runs backwards (idt at delta < 0): flip points
        # and columns together
        pts, new, values = pts[::-1], new[::-1], values[..., ::-1]
    if step.weight is None:
        return TimeGrid(new), values.copy(), step.role
    return TimeGrid(new), step.weight(pts, new, hurst) * values, step.role


def pull_back(transforms, delta, s):
    """Map one time of a chain's final grid back to the time of X it came from."""
    for name in reversed(transforms):
        s = _transform(name).inverse(s, delta)
    return s
