"""Empirical characteristic functions and scaling-law verification.

An ensemble holds N independent path realisations on a common grid.  The
finite dimensional empirical CF at (times, thetas) averages the per-path
terms exp(i * W), W = sum_j theta_j * X(t_j), over paths; its standard error
is sqrt((1 - |cf|^2) / N), except where 1 - |cf|^2 has cancelled to 0 or
below (|W| under about 1e-8): there the terms' own variance
mean(|exp(i * W) - cf|^2), formed from their differences to the first term
so that equal terms give 0, takes its place.  A log-CF is estimated at the
end r = 1 of the ray r * theta, r = k/R for k = 1..R, with the phase
unwrapped continuously from r = 0 where the log-CF is 0 -- the
principal-branch angle alone would be wrong whenever the accumulated phase
passes pi.  A ray is aborted (LowMagnitude) when |cf| falls below
max(0.1, 5/sqrt(N)), the region where log-CF estimates stop being
meaningful at the available sample size, and (PhaseAmbiguous) when doubling
its steps moves the unwrapped phase at r = 1 by whole turns.

A ray is streamed (_ray_means): its per-path terms at r = 1/R and r = 1 are
exact, each position between is formed in a complex N-vector as the one
before it times the first, and only the R means are kept, so a ray takes
O(N) memory whatever R is.  The positions r < 1 only steer the
unwrapping and the floor check.

A scaling law is a linear relation among log-CFs: its terms (a_k, point_k)
at a test point, a_1 = 1, satisfy sum_k a_k Psi(point_k) = 0.  The four
laws, one identity Psi_{Tt}(theta) = T^delta Psi_t(T^H theta) read on X, V,
Z and D, each have two: (1, scaled) and (-multiplier, base).  check_scaling
compares a point's first log-CF (lhs) with minus the sum of the others (rhs),
each component over the pooled standard error hypot(a_k * se_k).  That se
treats the terms as independent, though on one ensemble they share paths:
over 30 seeds x 9 points at N = 2000 the z-scores had an sd of 0.37 (real)
and 0.69 (imaginary), so the 3-sigma gate is conservative.  A point passes
when both components have |z| <= 3; one with an aborted ray (LowMagnitude or
PhaseAmbiguous) is unestimable and fails.

Closed-form oracles exist for the drivers with a stable_part (p, c), whose
exponent is i*m*theta - c*|theta|^p with m = mean_rate(): with
q = delta/(e^delta - 1) and H = alpha - delta/2,

    Psi_t(theta) = i*m*theta * q * t^(H+delta)/(H+delta)
                   - c*|theta|^p * q * t^(pH+delta)/(pH+delta),

valid where its rates (DilationParams.rate, 2 alpha at p = 2) are > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .errors import (
    DegenerateDelta,
    DilastabError,
    LowMagnitude,
    NonPositiveTime,
    OracleOutOfDomain,
    PhaseAmbiguous,
)
from .integrator import SamplePath, TimeGrid

# apply_transforms is looked up here by simulate_ensemble (and by bench/spans.py)
from .processes import REFINE, TAIL_TOL, DilationParams, _chain, apply_transforms
from .processes import check_memory, plan_dilative
from .validation import _Parameters, read_number

__all__ = [
    "EcfEstimate",
    "TestPoint",
    "ScalingLaw",
    "DilativeLaw",
    "TranslativeLaw",
    "TimeStableLaw",
    "IdtLaw",
    "LAWS",
    "ScalingRow",
    "ScalingReport",
    "derive_rng",
    "simulate_ensemble",
    "estimate_log_cf",
    "oracle_log_cf",
    "oracle_joint_log_cf",
    "marginal_points",
    "increment_pair",
    "check_scaling",
]

# the default count of positions along a log-CF ray
R_STEPS = 16
# float64s that a ray holds at once: per position its complex mean and
# np.unwrap's temporaries, per path the projection W, the two exact complex end
# vectors and the two complex vectors of the running power
_FLOATS_PER_POSITION, _FLOATS_PER_PATH = 11, 9


def _path_rng(master_seed, n):
    # replaced by _seeds.path_rng on the first draw: that module loads
    # numpy.random, which `import dilastab` does not
    global _path_rng
    from ._seeds import path_rng as _path_rng

    return _path_rng(master_seed, n)


def derive_rng(master_seed, n):
    """The independent generator for path n; a pure function of (seed, n).

    It has the same PCG64 state and stream as
    np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(n,))),
    but does not spawn; the PCG64 seeds of a block of n are computed at once.
    """
    return _path_rng(master_seed, n)


def simulate_ensemble(
    driver, params, out_times, n_paths, master_seed, refine=REFINE, tail_tol=TAIL_TOL, transforms=()
):
    """Simulate n_paths paths of X; path n depends only on (master_seed, n).

    out_times (a TimeGrid or strictly positive times) is the output grid of
    the underlying additive process, and transforms a chain of names from
    TRANSFORMS applied to every path, e.g. ("lamperti", "time_stable").
    Path n is drawn from derive_rng(master_seed, n) into row n of one
    matrix (SimulationPlan.rows), and the chain then maps the whole matrix
    at once.  An unknown transform name or a bare string of names, an
    n_paths or master_seed that is no whole number of at least 0 and values
    that would exceed physical memory are refused before the plan is built;
    draws that leave the float range raise ValueError naming the driver,
    alpha and delta.
    """
    grid = out_times if isinstance(out_times, TimeGrid) else TimeGrid(out_times)
    transforms = _chain(transforms)
    n_paths = read_number(int, "n_paths", n_paths)
    if n_paths < 0:
        raise ValueError(f"n_paths must be >= 0, got {n_paths!r}")
    master_seed = read_number(int, "master_seed", master_seed)
    if master_seed < 0:
        raise ValueError(f"master_seed must be >= 0, got {master_seed!r}")
    # the values and their transformed copy, refused before the plan is built
    pts = grid.points
    check_memory(2 * n_paths * pts.size, f"n_paths = {n_paths} paths of {pts.size} output times")
    plan = plan_dilative(driver, params, grid, refine, tail_tol)
    x = SamplePath(grid, plan.rows(n_paths, partial(derive_rng, master_seed)))
    return apply_transforms(x, params, transforms)


@dataclass(frozen=True)
class EcfEstimate:
    """Empirical CF and unwrapped log-CF at one point, with standard errors."""

    cf_mean: complex
    cf_se: float
    logcf: complex
    logcf_se: float


def _projection(ens, times, thetas):
    """sum_j thetas[j] * X(times[j]), one per path; a 1-d path is the one-row case."""
    idx = [ens.grid.index_of(t) for t in times]
    th = np.asarray(thetas, dtype=float)
    if th.shape != (len(idx),):
        raise ValueError("times and thetas must have equal length")
    # np.dot gives the bytes of @, whose loop over a single column is slow
    return np.dot(np.atleast_2d(ens.values)[:, idx], th)


def _cf_terms(rs, w):
    """The exact per-path CF terms: row j is exp(1j * rs[j] * w), one complex array.

    cos fills the real parts and sin the imaginary parts, which equals
    np.exp(1j * np.outer(rs, w)) bit for bit wherever rs[j] * w is finite
    (NaN elsewhere) at half its cost: exp also forms the complex product
    1j * x and exponentiates its zero real part.  _ray_means calls it for a
    ray's first and last rows only.
    """
    x = np.outer(rs, w)
    # sin(-0.0) is -0.0, where exp(1j * -0.0) has a +0.0 imaginary part
    x += 0.0
    terms = np.empty(x.shape, dtype=complex)
    np.cos(x, out=terms.real)
    np.sin(x, out=terms.imag)
    return terms


def _ray_means(rs, w):
    """The CF means of the ray rs = (1..R)/R, and the exact terms at its end r = 1.

    Mean k is that of the per-path terms exp(1j * rs[k] * w), formed one
    position at a time in two complex N-vectors, so a ray holds its R means
    and a few N-vectors whatever R is.  The terms at r = 1/R and r = 1 are
    _cf_terms' exact ones.  Each position between is the one before it
    times the first, as e^(i k w/R) = (e^(i w/R))^k, and NaN where w is.
    Position k carries the roundings of k - 1 complex products, about k
    ulps, where np.exp(1j * rs[k] * w) carries the rounding of rs[k] * w:
    the two differ widely only where |w| is so large (1e22) that an ulp of
    rs[k] * w is a turn or more.  Each mean is row.sum() / N, the bytes that
    .mean(axis=1) gives on the (R, N) array of every position's terms.
    """
    ends = _cf_terms(rs[:: max(rs.size - 1, 1)], w)  # the first and last positions, or the one
    first, last = ends[0], ends[-1]
    sums = np.empty(rs.size, dtype=complex)
    sums[0], sums[-1] = first.sum(), last.sum()
    # out of place, in turn: numpy rounds an in-place product of one element differently
    powers, row = np.empty((2, w.size), dtype=complex), first
    for k in range(1, rs.size - 1):
        row = np.multiply(row, first, out=powers[k % 2])
        sums[k] = row.sum()
    return sums / w.size, last


def estimate_log_cf(ens, times, theta_direction, r_steps=R_STEPS):
    """Estimate the log-CF at theta_direction, the end r = 1 of its ray.

    Returns one EcfEstimate of Python numbers, its phase the last of
    np.unwrap over the positions r = k/r_steps, k = 1..r_steps, from 0 at
    r = 0.  Its CF has the bytes of the mean of np.exp(1j * W); the positions
    r < 1 (see _ray_means) only steer the unwrapping and the checks.  Aborts
    with LowMagnitude at the first position whose CF magnitude falls below
    max(0.1, 5/sqrt(N)).  When a step of the unwrapped phase exceeds pi/2,
    the phase at r = 1 is unwrapped again over 2 * r_steps positions, and
    PhaseAmbiguous is raised if the two differ by a turn or more.  r_steps
    must be a whole number of at least 1, and the ensemble must hold at
    least one path (a 1-d path is one); a ray whose means and per-path
    vectors (O(r_steps + n_paths) floats, not their product) would exceed
    physical memory raises MemoryError before they are allocated, and
    non-finite sums sum_j theta_j X(t_j) raise DilastabError before any cos
    or sin.
    """
    r_steps = read_number(int, "r_steps", r_steps)
    if r_steps < 1:
        raise ValueError(f"r_steps must be >= 1, got {r_steps!r}")
    w = _projection(ens, times, theta_direction)
    n = w.size
    if n == 0:
        raise ValueError("an empirical CF needs at least one path, got n_paths = 0")
    bad = np.count_nonzero(~np.isfinite(w))
    if bad:
        point = f"times {list(map(float, times))}, thetas {list(map(float, theta_direction))}"
        raise DilastabError(f"{bad} of {n} paths have a non-finite sum theta_j X(t_j) at {point}")
    per_path = _FLOATS_PER_PATH * n
    check_memory(
        _FLOATS_PER_POSITION * r_steps + per_path,
        f"r_steps = {r_steps} ray positions of n_paths = {n} paths",
    )
    floor = max(0.1, 5.0 / math.sqrt(n))
    rs = np.arange(1, r_steps + 1) / r_steps
    cfs, last = _ray_means(rs, w)
    mags = np.abs(cfs)
    low = np.nonzero(mags < floor)[0]
    if low.size:
        i = int(low[0])
        raise LowMagnitude(float(rs[i]), float(mags[i]), floor)
    cf, mag = complex(cfs[-1]), float(mags[-1])
    var = 1.0 - mag * mag
    if var <= 0.0:
        # |cf| has rounded to 1 (|W| below about 1e-8), but the terms' spread
        # has not: their variance, taken from their differences to the first
        # term, is 0 only where every term is equal
        dev = last - last[0]
        dev -= dev.mean()
        var = float(np.vdot(dev, dev).real) / n
    # freed before a doubled ray allocates its own end terms
    del last
    phases = np.unwrap(np.concatenate([[0.0], np.angle(cfs)]))
    if (np.abs(np.diff(phases)) > math.pi / 2).any():
        # the doubled ray beside the first one's means, magnitudes and phases
        check_memory(
            (4 + 2 * _FLOATS_PER_POSITION) * r_steps + per_path,
            f"{2 * r_steps} ray positions of n_paths = {n} paths",
        )
        fine = _ray_means(np.arange(1, 2 * r_steps + 1) / (2 * r_steps), w)[0]
        # both rays end in the same r = 1 CF, so the phases differ by whole turns
        turns = round((np.unwrap(np.angle(fine))[-1] - phases[-1]) / (2 * math.pi))
        if turns:
            raise PhaseAmbiguous(r_steps, turns)
    se = math.sqrt(var / n)
    return EcfEstimate(cf, se, complex(math.log(mag), float(phases[-1])), se / mag)


def oracle_log_cf(spec, params, t, theta):
    """Closed-form log-CF of the additive process at one (t, theta).

    Supported for the drivers with a stable_part; requires t > 0, positive
    rates p*H + delta and a finite value (OracleOutOfDomain otherwise, also
    when a term overflows).  A non-finite t or theta raises ValueError naming it.
    """
    t, theta = float(t), float(theta)
    for name, value in (("t", t), ("theta", theta)):
        if not math.isfinite(value):
            raise ValueError(f"the oracle needs a finite {name}, got {value!r}")
    if t <= 0:
        raise NonPositiveTime("the oracle needs t > 0")
    try:
        value = _closed_form_log_cf(spec, params, t, theta)
    except OverflowError:
        # a float power raises where a float product would give inf
        value = complex(math.inf, 0.0)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise OracleOutOfDomain(f"the log-CF at t = {t:g}, theta = {theta:g} overflows")
    return value


def _closed_form_log_cf(spec, params, t, theta):
    if spec.stable_part is None:
        raise OracleOutOfDomain(f"no closed-form log-CF for {spec._named()}")
    q = params.q
    if math.isnan(q):
        raise OracleOutOfDomain(
            f"delta = {params.delta!r} takes q = delta/(e^delta - 1) out of the float range"
        )

    def term(p, coefficient):
        rate = params.rate(p)
        if rate <= 0:
            raise OracleOutOfDomain(f"needs {p:g}*H + delta > 0, got {rate:g}")
        return coefficient * q * t**rate / rate

    p, c = spec.stable_part
    m = spec.mean_rate()
    return complex(term(p, -c * abs(theta) ** p), 0.0 if m == 0.0 else term(1.0, m * theta))


def oracle_joint_log_cf(spec, params, times, thetas):
    """Closed-form joint log-CF via independent increments.

    For sorted times t_1 <= ... <= t_k the joint exponent is
    sum_j [Psi_{t_j}(S_j) - Psi_{t_{j-1}}(S_j)] with tail sums
    S_j = theta_j + ... + theta_k and Psi_{t_0} = 0.
    """
    times = [float(t) for t in times]
    thetas = [float(th) for th in thetas]
    if not len(times) == len(thetas) > 0:
        lengths = f"{len(times)} and {len(thetas)}"
        raise ValueError(f"times and thetas must have equal length, at least 1; got {lengths}")
    ts, ths = zip(*sorted(zip(times, thetas), key=lambda pair: pair[0]))
    tails = np.cumsum(ths[::-1])[::-1]
    total, prev = 0.0 + 0.0j, None
    for t, s in zip(ts, tails):
        term = oracle_log_cf(spec, params, t, float(s))
        if prev is not None:
            term -= oracle_log_cf(spec, params, prev, float(s))
        total += term
        prev = t
    return total


@dataclass(frozen=True)
class TestPoint:
    """One finite dimensional test point for a scaling check."""

    # not a test case, despite the name pytest sees on import
    __test__ = False

    times: tuple
    thetas: tuple

    def __post_init__(self):
        if len(self.times) != len(self.thetas) or not self.times:
            raise ValueError("need equally many times and thetas, at least one each")


def marginal_points(times, thetas):
    """The cross product of single-time test points."""
    return [TestPoint((float(t),), (float(th),)) for t in times for th in thetas]


def increment_pair(t1, t2, theta, ratio=-0.5):
    """A two-dimensional test point loading (X(t1), X(t2)) through the
    increment combination theta * X(t1) + ratio*theta * X(t2)."""
    return TestPoint((float(t1), float(t2)), (float(theta), float(ratio * theta)))


class ScalingLaw(_Parameters):
    """A scaling law as a linear relation among log-CFs: sum_k a_k Psi(point_k) = 0.

    terms(point) gives its terms at a test point, ((1.0, scaled),
    (-multiplier, base)).  kind names the law, and chain is the transform
    chain that carries X to the representation the law holds for.  Every
    field must be finite, and those named in positive > 0.
    """

    chain = ()
    # a power of a nonpositive factor is complex, and a log of it undefined
    positive = ()

    def _check(self):
        for name in self.positive:
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"the {self.kind} law needs {name} > 0, got {value!r}")

    def to_dict(self):
        return {"kind": self.kind, **{f.name: getattr(self, f.name) for f in fields(self)}}


@dataclass(frozen=True)
class DilativeLaw(ScalingLaw):
    """Dilative scaling: Psi at times T*t equals T**delta * Psi at thetas T**H."""

    alpha: float
    delta: float
    T: float

    kind = "dilative"
    positive = ("T",)

    def terms(self, point):
        scaled = TestPoint(tuple(self.T * t for t in point.times), point.thetas)
        factor = self.T ** DilationParams(self.alpha, self.delta).hurst
        base = TestPoint(point.times, tuple(factor * th for th in point.thetas))
        return (1.0, scaled), (-self.T**self.delta, base)


@dataclass(frozen=True)
class TranslativeLaw(ScalingLaw):
    """Translative scaling: Psi at times t + T equals e^(delta T) * Psi."""

    delta: float
    T: float

    kind = "translative"
    chain = ("lamperti",)

    def terms(self, point):
        scaled = TestPoint(tuple(t + self.T for t in point.times), point.thetas)
        return (1.0, scaled), (-math.exp(self.delta * self.T), point)


@dataclass(frozen=True)
class TimeStableLaw(ScalingLaw):
    """Time stability: Psi at times n**(1/delta) * t equals n * Psi."""

    delta: float
    n: float

    kind = "time_stable"
    chain = ("lamperti", "time_stable")
    positive = ("n",)

    def _check(self):
        if self.delta == 0:
            raise DegenerateDelta("time stability needs delta != 0")
        super()._check()

    def terms(self, point):
        factor = self.n ** (1.0 / self.delta)
        scaled = TestPoint(tuple(factor * t for t in point.times), point.thetas)
        return (1.0, scaled), (-float(self.n), point)


@dataclass(frozen=True)
class IdtLaw(ScalingLaw):
    """Divisibility in time: Psi at times n * t equals n * Psi."""

    n: float

    kind = "idt"
    chain = ("lamperti", "idt")
    positive = ("n",)

    def terms(self, point):
        scaled = TestPoint(tuple(self.n * t for t in point.times), point.thetas)
        return (1.0, scaled), (-float(self.n), point)


LAWS = (DilativeLaw, TranslativeLaw, TimeStableLaw, IdtLaw)


@dataclass(frozen=True)
class ScalingRow:
    """A law's relation at one test point: lhs (first term) against rhs (the others), with z-scores.

    When any term's log-CF cannot be estimated (LowMagnitude or
    PhaseAmbiguous), lhs, rhs and the z-scores are None, unestimable says
    why, and the row fails.
    """

    times: tuple
    thetas: tuple
    lhs: complex | None
    rhs: complex | None
    z_real: float | None
    z_imag: float | None
    oracle: complex | None = None
    unestimable: str | None = None

    @property
    def passed(self):
        return self.unestimable is None and abs(self.z_real) <= 3.0 and abs(self.z_imag) <= 3.0

    def to_dict(self):
        estimated = self.unestimable is None
        out = {
            "times": list(self.times),
            "thetas": list(self.thetas),
            "lhs": [self.lhs.real, self.lhs.imag] if estimated else None,
            "rhs": [self.rhs.real, self.rhs.imag] if estimated else None,
            "z": [self.z_real, self.z_imag] if estimated else None,
        }
        if self.oracle is not None:
            out["oracle"] = [self.oracle.real, self.oracle.imag]
        if not estimated:
            out["unestimable"] = self.unestimable
        return out


@dataclass(frozen=True)
class ScalingReport:
    """All rows of one scaling check plus the fraction of passing points."""

    law: object
    rows: tuple
    pass_fraction: float

    @property
    def unestimable(self):
        """How many rows could not be estimated; each counts as failed."""
        return sum(1 for row in self.rows if row.unestimable is not None)

    def to_dict(self):
        out = {
            "law": self.law.to_dict(),
            "rows": [row.to_dict() for row in self.rows],
            "pass_fraction": self.pass_fraction,
        }
        if self.unestimable:
            out["unestimable"] = self.unestimable
        return out


def _z_score(diff, se):
    if diff == 0.0:
        return 0.0
    if se == 0.0:
        return math.copysign(math.inf, diff)
    return diff / se


# why a ray has no log-CF estimate; its rows are unestimable
_UNESTIMABLE = (LowMagnitude, PhaseAmbiguous)


def check_scaling(ens, law, points, r_steps=R_STEPS, oracle=None):
    """Run one scaling law over a non-empty list of test points: one row each.

    ens is an ensemble SamplePath, or a (scaled_side, base_side) pair of
    ensembles when the terms should be estimated from independent samples:
    the first on scaled_side, the others on base_side.  On one ensemble the
    terms share paths, which makes the z-scores conservative.  oracle, when
    given, is called as oracle(times, thetas) on each estimated row's first
    term and its value is attached to the row, unless it raises
    OracleOutOfDomain there (a term that overflows).

    Each distinct ray is estimated once per call: a law whose scaled points
    are other points' base points (IdtLaw with n = 2 on times 0.5, 1, 2)
    reuses those estimates.  Rays are keyed by the ensemble's identity too,
    so the two sides of a pair never share one.  A ray without an estimate
    (_UNESTIMABLE) makes its rows unestimable; the other rows still run.
    """
    if not points:
        raise ValueError("check_scaling needs at least one test point")
    scaled_ens, base_ens = ens if isinstance(ens, tuple) else (ens, ens)
    psi = {}

    def estimate_psi(side, point):
        """Unwrapped log-CF estimate at the full ray endpoint, or why it has none."""
        # repr tells -0.0 from 0.0, whose estimates can differ in a zero's sign
        key = (id(side), repr(point.times), repr(point.thetas))
        if key not in psi:
            try:
                psi[key] = estimate_log_cf(side, point.times, point.thetas, r_steps=r_steps)
            except _UNESTIMABLE as exc:
                psi[key] = exc
        return psi[key]

    rows = []
    for point in points:
        terms = law.terms(point)
        (_, first), rest = terms[0], terms[1:]
        ests = [estimate_psi(scaled_ens, first)] + [estimate_psi(base_ens, p) for _, p in rest]
        sides = zip(["scaled side"] + ["base side"] * len(rest), ests)
        low = "; ".join(f"{side}: {e}" for side, e in sides if isinstance(e, _UNESTIMABLE))
        if low:
            row = ScalingRow(point.times, point.thetas, None, None, None, None, unestimable=low)
        else:
            oracle_val = None
            if oracle is not None:
                try:
                    oracle_val = oracle(first.times, first.thetas)
                except OracleOutOfDomain:
                    pass
            lhs = ests[0].logcf
            rhs = sum(-a * e.logcf for (a, _), e in zip(rest, ests[1:]))
            se = math.hypot(*(a * e.logcf_se for (a, _), e in zip(terms, ests)))
            diff = lhs - rhs
            z_re, z_im = (_z_score(d, se) for d in (diff.real, diff.imag))
            row = ScalingRow(point.times, point.thetas, lhs, rhs, z_re, z_im, oracle_val)
        rows.append(row)
    passed = sum(1 for row in rows if row.passed)
    return ScalingReport(law, tuple(rows), passed / len(rows))
