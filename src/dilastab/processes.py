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

The transform family, TRANSFORMS, applied by apply_transforms:

  * lamperti     V_u = e^(-H u) X_{e^u}; V has the translative scaling
                 Psi_{. + T} = e^(delta T) Psi_. and solves a wide-sense
                 Ornstein-Uhlenbeck equation with rate lambda = delta/2 - alpha
                 driven by Y.  lamperti_inverse maps V back to X.
  * time_stable  Z_s = V_{log s}: n-fold time scaling s -> n**(1/delta) s
                 multiplies Psi by n.
  * idt          D_s = V_{log(s)/delta}: Psi at dilated times n*s is n times
                 Psi at s (infinite divisibility with respect to time).
"""

from __future__ import annotations

import math
import os
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
    "MAX_COUNT",
    "check_memory",
    "DilationParams",
    "SimulationPlan",
    "plan_dilative",
    "simulate_dilative",
    "simulate_driving",
    "extract_background",
    "ou_evolve",
    "ou_from_integral",
    "Transform",
    "TRANSFORMS",
    "apply_transforms",
    "pull_back",
]


# the most paths, output times or plan cells one run may ask for: an
# (n_paths, points) float matrix of that size stays below numpy's size limit
MAX_COUNT = 10**9

# float64 arrays of a plan's length alive at once while it is built and runs
# one path: 6 to 9 for the four drivers, measured with tracemalloc
_FLOATS_PER_CELL = 9


def _physical_memory():
    """Bytes of physical memory, the most that one run's arrays may take."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError):  # no sysconf, or not these names
        return math.inf


def check_memory(floats, inputs):
    """Raise MemoryError, naming inputs, when `floats` float64s exceed physical memory.

    Called before the arrays are allocated: numpy's allocations succeed far
    beyond what fits, and the process is killed once their pages are touched.
    """
    memory = _physical_memory()
    if 8 * floats > memory:
        raise MemoryError(
            f"{inputs} need {8 * floats / 2**30:.3g} GiB of arrays, more than the "
            f"{memory / 2**30:.3g} GiB of physical memory"
        )


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


def _log_over(numerator, moment, q):
    """log(numerator / (moment * q)), taken in pieces when moment * q underflows to 0."""
    denominator = moment * q
    if denominator == 0:
        return math.log(numerator) - math.log(moment) - math.log(q)
    return math.log(numerator / denominator)


def _truncation_point(spec, params, tail_tol):
    """Log-time u_min below which the neglected tail scale is < tail_tol.

    The tail integral_{-inf}^{u} e^(s H) dL(tau(s)) has, per unit driver law,
    stable scale parameter (scale * q * e^((pH+delta) u)/(pH+delta))**(1/p)
    for the symmetric stable driver and, otherwise, mean and variance

        mean:     mean_rate * q * e^((H+delta) u) / (H + delta)
        variance: variance_rate * q * e^(2 alpha u) / (2 alpha)

    with q = tau'(0) = delta/(e^delta - 1).  For drivers with both a mean and
    a variance the tolerance budget is split evenly between the two in the
    second-moment sense.  Returns None when the driver is deterministic zero,
    and nan when q leaves the float range.
    """
    q = tau_density(params.delta, 0.0)
    if not 0 < q < math.inf:
        return math.nan
    h, d = params.hurst, params.delta
    if isinstance(spec, SymmetricStableDriver) and spec.index < 2.0:
        p = spec.index
        # admissible parameter regimes force p*H + delta > 0
        rate = p * h + d
        return _log_over(tail_tol**p * rate, spec.scale, q) / rate
    m1 = spec.mean_rate()
    m2 = spec.variance_rate()
    bounds = []
    if m2 > 0:
        rate = 2.0 * params.alpha
        bounds.append(_log_over(0.5 * tail_tol**2 * rate, m2, q) / rate)
    if m1 != 0:
        rate = h + d
        bounds.append(_log_over(tail_tol / math.sqrt(2.0) * rate, abs(m1), q) / rate)
    if not bounds:
        return None
    return min(bounds)


def _refined_log_grid(knots, counts):
    """Log-time grid through the knots, with counts[i] uniform cells between
    knots i and i + 1."""
    segments = [
        np.linspace(lo, hi, n + 1)[:-1] for lo, hi, n in zip(knots[:-1], knots[1:], counts)
    ]
    return np.concatenate(segments + [knots[-1:]])


@dataclass(eq=False)
class SimulationPlan:
    """Precomputed discretisation shared by every path of an ensemble.

    X at output time j sums weights[i] times the driver's increment over the
    clock increment durations[i] for the cells i < out_index[j].  The
    driver's per-cell constants spec.cells(durations) are computed once, when
    the plan is built.  Every run(rng) consumes the generator identically, so
    path n of an ensemble is reproducible from its derived stream alone.
    """

    spec: object
    durations: np.ndarray  # clock increments fed to the driver sampler
    weights: np.ndarray  # e^(u H) left-endpoint weights
    out_index: np.ndarray  # grid positions of the output times

    def __post_init__(self):
        self.cells = self.spec.cells(self.durations)
        # grid point i > 0 is the (i-1)-th partial sum; an output time at
        # the truncation point (i = 0) is X = 0 and is prepended in run
        self._at_start = bool(self.out_index[0] == 0)
        self._take = self.out_index[int(self._at_start) :] - 1

    def run(self, rng):
        increments = sample_increments(self.spec, self.durations, rng, self.cells)
        values = (self.weights * increments).cumsum()[self._take]
        if self._at_start:
            return np.concatenate([[0.0], values])
        return values


def plan_dilative(spec, params, log_out_times, refine=8.0, tail_tol=1e-4):
    """Build the discretisation for X at output times e^(u), u in log_out_times.

    Checks admissibility (raising InadmissibleParams with the verdict), picks
    the truncation point from the driver's tail scale, and refines uniformly
    in log time with at least `refine` steps per unit; a grid of more than
    MAX_COUNT cells raises ValueError, and one whose arrays exceed physical
    memory MemoryError, before it is built.
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
    # inf and nan are looked for below, whatever the caller's errstate
    with np.errstate(all="ignore"):
        if verdict.status == DEGENERATE_EQUAL:
            # X_t = L(t**delta / (e**delta - 1)) exactly: one cell of unit
            # weight per output time, whose partial sums are L at the clock
            u_min = u_out[0]
            try:
                clock = np.exp(params.delta * u_out) / math.expm1(params.delta)
            except OverflowError:  # e**delta itself
                clock = np.array([math.inf])
            durations = np.diff(np.concatenate([[0.0], clock]))
            weights, out_idx = np.ones(durations.size), np.arange(1, durations.size + 1)
        else:
            try:
                bound = _truncation_point(spec, params, tail_tol)
            except (ValueError, OverflowError):
                # the tolerance's power under- or overflowed, and its log with it
                raise ValueError(
                    f"tail_tol = {tail_tol!r} leaves no finite truncation point for this driver"
                ) from None
            u_min = u_out[0] if bound is None else min(bound, u_out[0])
            # knots: u_min and the output times, each inserted exactly
            knots = np.concatenate([[u_min], u_out]) if u_min < u_out[0] else u_out
            counts = np.maximum(1.0, np.ceil(np.diff(knots) * refine))
            n_cells = counts.sum()
            # counted before anything is allocated: numpy's own error names no input
            if not n_cells <= MAX_COUNT:
                raise ValueError(
                    f"alpha = {params.alpha!r}, delta = {params.delta!r}, "
                    f"tail_tol = {tail_tol!r} and refine = {refine!r} ask for "
                    f"{n_cells:.6g} grid cells from the truncation point "
                    f"u = {u_min:.6g} to u = {u_out[-1]:.6g}; the count must lie in the "
                    f"float range and be at most {MAX_COUNT}"
                )
            check_memory(
                _FLOATS_PER_CELL * n_cells,
                f"alpha = {params.alpha!r}, delta = {params.delta!r}, tail_tol = {tail_tol!r} "
                f"and refine = {refine!r}, which ask for {n_cells:.6g} grid cells,",
            )
            grid = _refined_log_grid(knots, counts.astype(int))
            out_idx = np.searchsorted(grid, u_out)
            durations = np.maximum(np.diff(tau(params.delta, grid)), 0.0)
            weights = np.exp(params.hurst * grid[:-1])
    finite = np.isfinite(durations).all() and np.isfinite(weights).all()
    if not (finite and math.isfinite(u_min)):
        raise ValueError(
            f"alpha = {params.alpha!r} and delta = {params.delta!r} take the weights "
            f"e^(u H) or the clock tau(delta, u) out of the float range for log times "
            f"u in [{u_min:.6g}, {u_out[-1]:.6g}]"
        )
    return SimulationPlan(spec, durations, weights, out_idx)


def simulate_dilative(spec, params, out_times, rng, refine=8.0, tail_tol=1e-4):
    """Simulate one path of the additive (alpha, delta)-dilatively stable process.

    out_times must be strictly positive.
    """
    pts = out_times.points
    if pts[0] <= 0:
        raise NonPositiveTime("output times must be strictly positive")
    plan = plan_dilative(spec, params, np.log(pts), refine=refine, tail_tol=tail_tol)
    return SamplePath(out_times, plan.run(rng), role="X")


def _partial_sums(increments, anchor):
    """Partial sums along the last axis, from the empty sum at index 0, less the one at anchor."""
    sums = np.cumsum(increments, axis=-1)
    sums = np.concatenate([np.zeros(sums.shape[:-1] + (1,)), sums], axis=-1)
    return sums - sums[..., anchor : anchor + 1]


def simulate_driving(spec, delta, log_times, rng):
    """Sample the background process Y = L(tau(delta, .)) on a log-time grid.

    Anchored at Y = 0 at log time 0 when the grid contains it, else at the
    first grid point.
    """
    u = log_times.points
    durations = np.maximum(np.diff(tau(delta, u)), 0.0)
    increments = sample_increments(spec, durations, rng)
    try:
        anchor = log_times.index_of(0.0)
    except OffGrid:
        anchor = 0
    return SamplePath(log_times, _partial_sums(increments, anchor), role="Y")


def extract_background(x, params):
    """Recover the background process from an X path or ensemble on a positive grid.

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
    dy = pts[:-1] ** (-params.hurst) * np.diff(x.values)
    return SamplePath(TimeGrid(np.log(pts)), _partial_sums(dy, i1), role="Y")


def ou_evolve(v0, y, ou_rate, a, b):
    """Wide-sense Ornstein-Uhlenbeck evolution driven by a Y path or ensemble.

    Returns V on the grid points of y in [a, b], row by row, where

        V_t = e^(rate * t) * (v0 + integral_0^t e^(-rate * s) dY_s)

    with the left-endpoint integral on y's grid; the grid must therefore
    contain 0 (the anchor of v0) as well as a and b.  The flow identity
    V_t = e^(rate*(t-s)) V_s + e^(rate*t) * integral_s^t e^(-rate*u) dY_u
    holds exactly at grid level.  v0 is one number, or one per row.
    """
    ia = y.grid.index_of(a)
    ib = y.grid.index_of(b)
    if ia > ib:
        raise ValueError("need a <= b")
    i0 = y.grid.index_of(0.0)
    u = y.grid.points
    w = np.exp(-ou_rate * u[:-1])
    integral = _partial_sums(w * np.diff(y.values), i0)
    seg = u[ia : ib + 1]
    v0 = np.asarray(v0, dtype=float)[..., None]
    values = np.exp(ou_rate * seg) * (v0 + integral[..., ia : ib + 1])
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
    step = TRANSFORMS.get(name) if isinstance(name, str) else None
    if step is None:
        raise ValueError(f"unknown transform {name!r}")
    return step


def apply_transforms(path, params, transforms):
    """Apply a transform chain to a SamplePath: one path or an ensemble's rows.

    Each transform is a time map and a weight shared by every path, so an
    ensemble is mapped as one matrix and a single path is the one-row case.
    Returns a SamplePath with the new grid, values and role.
    """
    grid, values, role = path.grid, path.values, path.role
    for name in transforms:
        step = _transform(name)
        if step.source is not None and role != step.source:
            raise ValueError(f"the {name} transform expects a {step.source} path, got {role}")
        pts = grid.points
        new = step.clock(pts, params.delta)
        if new.size > 1 and new[0] > new[-1]:
            # the relabelled clock runs backwards (idt at delta < 0): flip
            # points and columns together
            pts, new, values = pts[::-1], new[::-1], values[..., ::-1]
        if step.weight is None:
            values = values.copy()
        else:
            values = step.weight(pts, new, params.hurst) * values
        grid, role = TimeGrid(new), step.role
    return SamplePath(grid, values, role)


def pull_back(transforms, delta, s):
    """Map one time of a chain's final grid back to the time of X it came from."""
    for name in reversed(transforms):
        s = _transform(name).inverse(s, delta)
    return s
