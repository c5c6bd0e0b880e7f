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

from .drivers import sample_increments
from .errors import (
    DegenerateDelta,
    GridMissingUnit,
    InadmissibleParams,
    NonPositiveTime,
    OffGrid,
)
from .integrator import SamplePath, TimeGrid, _partial_sums
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

# a plan's defaults: log-time steps per unit, and the neglected tail's scale
REFINE = 8.0
TAIL_TOL = 1e-4

# float64 arrays of a plan's length alive at once while it is built and
# rows(1) draws and sums one path into its block: the plan holds durations,
# weights and the driver's cells, and a draw its variates and temporaries.
# The peak of tracemalloc over plan_dilative and rows(1), in floats per cell,
# at alpha = delta = 1, times 0.5, 1 and 2 and refine 20000 (119k-202k cells):
#   Gaussian (both tested)   6.13    compound Poisson, Gaussian jumps   6.04
#   stable 1.5               7.00    compound Poisson, two-point jumps  6.05
#   stable 1                 5.13    gamma                              5.13
#   stable 2                 5.13
# plus about 3 KiB of array headers and Python objects, whatever the cells
_FLOATS_PER_CELL = 7

# the most increments SimulationPlan.rows holds at once: it draws whole rows
# into a buffer of this many floats and weighs and sums them as one block, so
# its memory beyond the result is flat in the row count and the cell count
_BLOCK_FLOATS = 2**13


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

    def rate(self, p):
        """p*H + delta: integral_{-inf}^u e^(p s H) dtau(s) = q e^(rate u) / rate.

        It is 2 alpha, exactly, at p = 2, and the drift's H + delta at p = 1.
        """
        return 2.0 * self.alpha if p == 2.0 else p * self.hurst + self.delta

    @property
    def q(self):
        """q = tau'(0) = delta/(e^delta - 1), or nan where it leaves (0, inf); never warns."""
        with np.errstate(all="ignore"):  # e^delta overflows for delta above about 709.78
            q = tau_density(self.delta, 0.0)
        return q if 0 < q < math.inf else math.nan

    @property
    def ou_rate(self):
        """Rate lambda = delta/2 - alpha of the OU-type transform; equals -hurst."""
        return self.delta / 2.0 - self.alpha


def _log_over(numerator, moment, q):
    """log(numerator / (moment * q)), taken in pieces when moment * q leaves the float range."""
    denominator = moment * q
    if not 0 < denominator < math.inf:
        return math.log(numerator) - math.log(moment) - math.log(q)
    return math.log(numerator / denominator)


def _truncation_point(spec, params, tail_tol):
    """Log-time u_min below which the neglected tail scale is < tail_tol.

    With q = params.q = tau'(0) and r(p) = params.rate(p), the
    tail integral_{-inf}^u e^(s H) dL(tau(s)) has stable scale
    (c q e^(r(p) u) / r(p))**(1/p) when the driver's stable_part is (p, c)
    with p < 2, and otherwise mean mean_rate q e^(r(1) u) / r(1) and
    variance variance_rate q e^(r(2) u) / r(2), between which the tolerance
    is split evenly in the second-moment sense.  Returns None when the
    driver is deterministic zero, and nan when q leaves the float range.
    """
    q = params.q
    if math.isnan(q):
        return math.nan
    if spec.stable_part is not None and spec.stable_part[0] < 2.0:
        p, c = spec.stable_part
        # admissible parameter regimes force p*H + delta > 0
        rate = params.rate(p)
        return _log_over(tail_tol**p * rate, c, q) / rate
    m1, m2 = spec.mean_rate(), spec.variance_rate()
    bounds = []
    if m2 > 0:
        rate = params.rate(2.0)
        bounds.append(_log_over(0.5 * tail_tol**2 * rate, m2, q) / rate)
    if m1 != 0:
        rate = params.rate(1.0)
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


def _grid_cells(u, delta, hurst):
    """The cells of the log-time grid u: clock increments and left-endpoint weights.

    The driver moves over tau(delta, u[i + 1]) - tau(delta, u[i]) in cell i
    (0 where rounding makes it negative), weighed by e^(H u[i]).
    """
    durations = np.maximum(np.diff(tau(delta, u)), 0.0)
    return durations, np.exp(hurst * u[:-1])


@dataclass(eq=False)
class SimulationPlan:
    """Precomputed discretisation shared by every path of an ensemble.

    X at output time j sums weights[i] times the driver's increment over the
    clock increment durations[i] for the cells i < out_index[j].  The
    driver's per-cell constants spec.cells(durations) are computed once, when
    the plan is built.  Every run(rng, out) consumes the generator
    identically, so path n of an ensemble is reproducible from its derived
    stream alone.
    """

    spec: object
    params: DilationParams
    durations: np.ndarray  # clock increments fed to the driver sampler
    weights: np.ndarray  # e^(u H) left-endpoint weights
    out_index: np.ndarray  # grid positions of the output times

    def __post_init__(self):
        self.cells = self.spec.cells(self.durations)
        # grid point i > 0 is the (i-1)-th partial sum; an output time at
        # the truncation point (i = 0) is X = 0, the first column in rows
        self._at_start = bool(self.out_index[0] == 0)
        self._take = self.out_index[int(self._at_start) :] - 1

    def run(self, rng, out=None):
        """One path's driver increments over the plan's cells, drawn from rng.

        They are written into out, a C-contiguous float array of one value
        per cell, when it is given (rows passes each path its row of the
        block), and into a new array otherwise; the array is returned.
        """
        return sample_increments(self.spec, self.durations, rng, self.cells, out)

    def rows(self, n_rows, rng_of):
        """Draw n_rows paths into one (n_rows, outputs) matrix.

        Row n is X at the output times for the increments run(rng_of(n)):
        their weighted partial sums at out_index, and 0 at an output time on
        the truncation point.  rng_of is called once per row, in row order,
        so a caller's generators are made only as they are drawn from.  The
        draws are Python-bound and hold the interpreter lock, so they run
        serially: on a 2-core machine one pool task per path on 2 threads had
        made 1000 gamma paths of 710 cells about 4 times slower.  Each path
        is drawn straight into its row of a block of at most _BLOCK_FLOATS
        increments, with no copy, and the block is weighed and summed at
        once.  Draws or weighted sums that leave the float range raise
        ValueError naming the driver, alpha and delta, whatever the caller's
        errstate.
        """
        n_rows, k = int(n_rows), self.durations.size
        values = np.empty((n_rows, self.out_index.size))
        first = int(self._at_start)
        values[:, :first] = 0.0
        block = max(1, _BLOCK_FLOATS // max(k, 1))
        buffer = np.empty((min(block, n_rows), k))
        with np.errstate(all="ignore"):  # inf and nan are looked for after the loop
            for start in range(0, n_rows, block):
                stop = min(start + block, n_rows)
                # the rows of the buffer, each a view that run draws into
                for n, row in zip(range(start, stop), buffer):
                    self.run(rng_of(n), row)
                inc = buffer[: stop - start]
                inc *= self.weights
                inc.cumsum(axis=1, out=inc)
                values[start:stop, first:] = inc[:, self._take]
        at = f"alpha = {self.params.alpha!r} and delta = {self.params.delta!r}"
        _refuse_non_finite(values, self.spec, at)
        return values


def _refuse_non_finite(values, spec, at):
    """Raise ValueError naming the driver if its draws, or sums of them, left the float range."""
    if not np.isfinite(values).all():
        raise ValueError(
            f"{spec._named()} at {at} draws increments or sums of them out of the float range"
        )


def plan_dilative(spec, params, log_out_times, refine=REFINE, tail_tol=TAIL_TOL):
    """Build the discretisation for X at output times e^(u), u in log_out_times.

    Checks admissibility (raising InadmissibleParams with the verdict), picks
    the truncation point from the driver's tail scale, and refines uniformly
    in log time with at least `refine` steps per unit; a grid of more than
    MAX_COUNT cells raises ValueError, and one whose arrays exceed physical
    memory MemoryError, before it is built; weights or a clock out of the
    float range raise ValueError before the driver checks its own cells.
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
            durations, weights = _grid_cells(grid, params.delta, params.hurst)
    finite = np.isfinite(durations).all() and np.isfinite(weights).all()
    if not (finite and math.isfinite(u_min)):
        raise ValueError(
            f"alpha = {params.alpha!r} and delta = {params.delta!r} take the weights "
            f"e^(u H) or the clock tau(delta, u) out of the float range for log times "
            f"u in [{u_min:.6g}, {u_out[-1]:.6g}]"
        )
    return SimulationPlan(spec, params, durations, weights, out_idx)


def simulate_dilative(spec, params, out_times, rng, refine=REFINE, tail_tol=TAIL_TOL):
    """Simulate one path of the additive (alpha, delta)-dilatively stable process.

    out_times must be strictly positive; draws that leave the float range
    raise ValueError naming the driver, alpha and delta.
    """
    pts = out_times.points
    if pts[0] <= 0:
        raise NonPositiveTime("output times must be strictly positive")
    plan = plan_dilative(spec, params, np.log(pts), refine=refine, tail_tol=tail_tol)
    return SamplePath(out_times, plan.rows(1, lambda n: rng)[0], role="X")


def simulate_driving(spec, delta, log_times, rng):
    """Sample the background process Y = L(tau(delta, .)) on a log-time grid.

    Anchored at Y = 0 at log time 0 when the grid contains it, else at the
    first grid point.  At delta = 0 the clock is the identity and Y is the
    two-sided driver L itself: one stream draws the increments of every
    cell, left to right, and their sums are anchored at L(0) = 0.  Draws or
    sums that leave the float range raise ValueError naming the driver and
    delta.
    """
    durations, _ = _grid_cells(log_times.points, delta, 0.0)
    try:
        anchor = log_times.index_of(0.0)
    except OffGrid:
        anchor = 0
    with np.errstate(all="ignore"):  # inf and nan are looked for below
        values = _partial_sums(sample_increments(spec, durations, rng), anchor)
    _refuse_non_finite(values, spec, f"delta = {delta!r}")
    return SamplePath(log_times, values, role="Y")


def extract_background(x, params):
    """Recover the background process from an X path or ensemble on a positive grid.

    Y at log time u sums the increments of X from t = 1 to t = e^u (negated
    below 1), each divided by its cell's weight from _grid_cells, so the grid
    must contain t = 1 (GridMissingUnit otherwise).  On a simulated path's
    grid this recovers the driver increments up to rounding.  Weights that
    take a finite X's increments out of the float range (e^(u H) underflows
    to 0 far below t = 1) raise ValueError naming alpha, delta and the
    times, whatever the caller's errstate.
    """
    pts = x.grid.points
    if pts[0] <= 0:
        raise NonPositiveTime("background extraction needs strictly positive times")
    try:
        i1 = x.grid.index_of(1.0)
    except OffGrid as exc:
        raise GridMissingUnit("background extraction needs t = 1 on the grid") from exc
    u = np.log(pts)
    # inf and nan are looked for below; the unused clock may overflow
    with np.errstate(all="ignore"):
        _, weights = _grid_cells(u, params.delta, params.hurst)
        y = _partial_sums(np.diff(x.values) / weights, i1)
    if np.isfinite(x.values).all() and not np.isfinite(y).all():
        raise ValueError(
            f"alpha = {params.alpha!r} and delta = {params.delta!r} take the weights e^(u H), "
            "or the increments of X divided by them, out of the float range for times in "
            f"[{pts[0]:.6g}, {pts[-1]:.6g}]"
        )
    return SamplePath(TimeGrid(u), y, role="Y")


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


def ou_from_integral(spec, params, out_log_times, rng, refine=REFINE, tail_tol=TAIL_TOL):
    """Simulate the OU-type transform directly from its moving-average form.

    V_t = integral_{-inf}^t e^((u - t) H) dY_u on the given (real) log-time
    grid, built from one driver realisation shared across all output times;
    equal to the transform of a simulate_dilative path drawn from the same
    stream, up to rounding.  Requires delta != 0; draws that leave the float
    range raise ValueError naming the driver, alpha and delta, and weights
    e^(-H u) that take V out of it one naming alpha, delta and the times,
    whatever the caller's errstate.
    """
    if params.delta == 0:
        raise DegenerateDelta("the moving-average form needs delta != 0")
    u_out = out_log_times.points
    plan = plan_dilative(spec, params, u_out, refine=refine, tail_tol=tail_tol)
    x = plan.rows(1, lambda n: rng)[0]
    with np.errstate(all="ignore"):  # inf and nan are looked for below
        weight = TRANSFORMS["lamperti"].weight(np.exp(u_out), u_out, params.hurst)  # e^(-H u)
        values = weight * x
    if not np.isfinite(values).all():
        raise ValueError(
            f"alpha = {params.alpha!r} and delta = {params.delta!r} take the weights "
            "e^(-H u) or V out of the float range for log times in "
            f"[{u_out[0]:.6g}, {u_out[-1]:.6g}]"
        )
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


def _chain(transforms):
    """A chain of names from TRANSFORMS as a tuple; a bare string or an unknown name is refused."""
    if isinstance(transforms, str):  # a chain of names, not a name's letters
        raise ValueError(f"transforms must be a sequence of names, got the string {transforms!r}")
    transforms = tuple(transforms)
    for name in transforms:
        if not isinstance(name, str) or name not in TRANSFORMS:
            raise ValueError(f"unknown transform {name!r}")
    return transforms


def apply_transforms(path, params, transforms):
    """Apply a transform chain to a SamplePath: one path or an ensemble's rows.

    Each transform is a time map and a weight shared by every path, so an
    ensemble is mapped as one matrix and a single path is the one-row case.
    Returns a SamplePath with the new grid, values and role.  A step that
    takes finite values to a non-finite time or value raises ValueError
    naming the transform, alpha, delta and the times it was given, whatever
    the caller's errstate; values that are already non-finite are carried on.
    A bare string of names or an unknown name raises ValueError.
    """
    grid, values, role = path.grid, path.values, path.role
    for name in _chain(transforms):
        step = TRANSFORMS[name]
        if step.source is not None and role != step.source:
            raise ValueError(f"the {name} transform expects a {step.source} path, got {role}")
        pts = grid.points
        with np.errstate(all="ignore"):  # inf and nan are looked for below
            new = step.clock(pts, params.delta)
            if new.size > 1 and new[0] > new[-1]:
                # the relabelled clock runs backwards (idt at delta < 0): flip
                # points and columns together
                pts, new, values = pts[::-1], new[::-1], values[..., ::-1]
            if step.weight is None:
                out = values.copy()
            else:
                out = step.weight(pts, new, params.hurst) * values
        if not (np.isfinite(new).all() and np.isfinite(out).all()) and np.isfinite(values).all():
            raise ValueError(
                f"the {name} transform at alpha = {params.alpha!r} and delta = {params.delta!r} "
                f"takes times in [{grid.points[0]:.6g}, {grid.points[-1]:.6g}] or the values "
                "on them out of the float range"
            )
        grid, values, role = TimeGrid(new), out, step.role
    return SamplePath(grid, values, role)


def pull_back(transforms, delta, s):
    """Map one time of a chain's final grid back to the time of X it came from."""
    for name in reversed(_chain(transforms)):
        s = TRANSFORMS[name].inverse(s, delta)
    return s
