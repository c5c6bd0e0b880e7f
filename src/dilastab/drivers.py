"""Parametric driver laws for the two-sided integrator.

Each driver describes the law of a unit-time increment L(1) through a
closed-form Levy exponent (log-characteristic function of L(1)) and an exact
increment sampler.  Sampling is exact in distribution for every duration
dt >= 0 -- there is no Euler stepping anywhere -- so grid refinement in the
simulators only sharpens the weight discretisation, never the driver law.

Every driver and jump law is a frozen dataclass that owns its law: its
kind (the name in DRIVER_KINDS or JUMP_KINDS, which driver_from_dict reads),
its exponent, its draw and its moments.

Conventions:
  * spec.levy_exponent(theta) returns Psi with E exp(i theta L(t))
    = exp(t * Psi(theta)); Psi(0) = 0 and Re Psi <= 0.
  * the symmetric stable exponent is -scale * |theta|**index; index = 2
    is the Gaussian with variance 2 * scale.
  * spec.max_moment_order() is the supremum of q with E |L(1)|**q < infinity.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import GridMissingOrigin, OffGrid
from .integrator import SamplePath

__all__ = [
    "LevyDriver",
    "GaussianDriver",
    "SymmetricStableDriver",
    "CompoundPoissonDriver",
    "GammaDriver",
    "GaussianJumps",
    "TwoPointJumps",
    "DRIVER_KINDS",
    "JUMP_KINDS",
    "sample_increments",
    "sample_two_sided",
    "driver_to_dict",
    "driver_from_dict",
]


class _Parameters:
    """The check shared by every driver and jump law: all numbers finite.

    Each law's own range checks follow in its _check().
    """

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, numbers.Real) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        self._check()


@dataclass(frozen=True)
class GaussianJumps(_Parameters):
    """Gaussian jump sizes for the compound Poisson driver."""

    mean: float = 0.0
    variance: float = 1.0

    kind = "gaussian"

    def _check(self):
        if self.variance < 0:
            raise ValueError("jump variance must be >= 0")

    def cf(self, th):
        return np.exp(1j * self.mean * th - 0.5 * self.variance * th**2)

    def draw_sums(self, counts, rng):
        scale = np.sqrt(counts * self.variance)
        return counts * self.mean + scale * rng.standard_normal(counts.shape)


@dataclass(frozen=True)
class TwoPointJumps(_Parameters):
    """Jumps of size +magnitude or -magnitude with equal probability."""

    magnitude: float = 1.0

    kind = "two_point"
    mean = 0.0

    def _check(self):
        if self.magnitude <= 0:
            raise ValueError("jump magnitude must be > 0")

    def cf(self, th):
        return np.cos(self.magnitude * th).astype(complex)

    @property
    def variance(self):
        return self.magnitude**2

    def draw_sums(self, counts, rng):
        ups = rng.binomial(counts, 0.5)
        return self.magnitude * (2.0 * ups - counts)


JUMP_KINDS = {law.kind: law for law in (GaussianJumps, TwoPointJumps)}


class LevyDriver(_Parameters):
    """A Levy driver: its unit-time exponent, exact increments and moments.

    Each driver defines _exponent(th), the Levy exponent at a float array
    th; cells(dts), the tuple of per-cell arrays its law takes from an array
    of durations (a location and a scale, a Poisson mean, a gamma shape);
    draw(cells, rng), its increments over those cells, with the variates
    listed in sample_increments; mean_rate() = E L(1); and variance_rate() =
    Var L(1), possibly infinite.  cells depends on the durations alone, so
    every path of a plan shares it; draw neither keeps nor writes it.
    max_moment_order(), the supremum of the finite absolute moment orders of
    L(1), is infinite unless the driver says otherwise.
    """

    def levy_exponent(self, theta):
        """Log-characteristic function of L(1) at theta (scalar or array)."""
        out = self._exponent(np.asarray(theta, dtype=float))
        return complex(out) if np.ndim(theta) == 0 else out

    def max_moment_order(self):
        return math.inf


@dataclass(frozen=True)
class GaussianDriver(LevyDriver):
    """Brownian motion with drift: L(t) ~ N(drift * t, variance * t)."""

    variance: float = 1.0
    drift: float = 0.0

    kind = "gaussian"

    def _check(self):
        if self.variance < 0:
            raise ValueError("variance must be >= 0")

    def _exponent(self, th):
        return 1j * self.drift * th - 0.5 * self.variance * th**2

    def cells(self, dts):
        return self.drift * dts, np.sqrt(self.variance * dts)

    def draw(self, cells, rng):
        loc, scale = cells
        return loc + scale * rng.standard_normal(loc.shape)

    def mean_rate(self):
        return self.drift

    def variance_rate(self):
        return self.variance


@dataclass(frozen=True)
class SymmetricStableDriver(LevyDriver):
    """Symmetric stable motion with exponent -scale * |theta|**index."""

    index: float = 1.5
    scale: float = 1.0

    kind = "symmetric_stable"

    def _check(self):
        if not 0.0 < self.index <= 2.0:
            raise ValueError("stability index must lie in (0, 2]")
        if self.scale <= 0:
            raise ValueError("scale must be > 0")

    def _exponent(self, th):
        return (-self.scale * np.abs(th) ** self.index).astype(complex)

    def cells(self, dts):
        if self.index == 2.0:
            return (np.sqrt(2.0 * self.scale * dts),)
        return ((self.scale * dts) ** (1.0 / self.index),)

    def draw(self, cells, rng):
        (scale,) = cells
        p = self.index
        if p == 2.0:
            # 0.0 + keeps rng.normal(0.0, scale)'s +0.0 where the product is -0.0
            return 0.0 + scale * rng.standard_normal(scale.shape)
        # Chambers-Mallows-Stuck in the symmetric case; CF is exp(-|theta|**p)
        u = rng.uniform(-math.pi / 2, math.pi / 2, scale.shape)
        w = rng.standard_exponential(scale.shape)
        if p == 1.0:
            draws = np.tan(u)
        else:
            pu = p * u
            draws = np.sin(pu) / np.cos(u) ** (1.0 / p) * (np.cos(u - pu) / w) ** ((1.0 - p) / p)
        return scale * draws

    def mean_rate(self):
        # the centre is 0 by symmetry
        return 0.0

    def variance_rate(self):
        return 2.0 * self.scale if self.index == 2.0 else math.inf

    def max_moment_order(self):
        return self.index if self.index < 2.0 else math.inf


@dataclass(frozen=True)
class CompoundPoissonDriver(LevyDriver):
    """Compound Poisson process with the given jump intensity and jump law.

    A jump law (one of JUMP_KINDS) has a mean and a variance, as fields or
    properties; cf(th), the characteristic function of one jump at an array
    th; and draw_sums(counts, rng), the sums of counts[i] independent jumps,
    one per cell.
    """

    rate: float = 1.0
    jumps: GaussianJumps | TwoPointJumps = field(
        default=GaussianJumps(), metadata={"kinds": JUMP_KINDS}
    )

    kind = "compound_poisson"

    def _check(self):
        if self.rate < 0:
            raise ValueError("jump rate must be >= 0")
        if not isinstance(self.jumps, tuple(JUMP_KINDS.values())):
            raise ValueError("jumps must be GaussianJumps or TwoPointJumps")

    def _exponent(self, th):
        return self.rate * (self.jumps.cf(th) - 1.0)

    def cells(self, dts):
        return (self.rate * dts,)

    def draw(self, cells, rng):
        (lam,) = cells
        return self.jumps.draw_sums(rng.poisson(lam), rng)

    def mean_rate(self):
        return self.rate * self.jumps.mean

    def variance_rate(self):
        return self.rate * (self.jumps.variance + self.jumps.mean**2)


@dataclass(frozen=True)
class GammaDriver(LevyDriver):
    """Gamma subordinator: L(t) ~ Gamma(shape * t, rate)."""

    shape: float = 1.0
    rate: float = 1.0

    kind = "gamma"

    def _check(self):
        if self.shape <= 0 or self.rate <= 0:
            raise ValueError("shape and rate must be > 0")

    def _exponent(self, th):
        return -self.shape * np.log(1.0 - 1j * th / self.rate)

    def cells(self, dts):
        return (self.shape * dts,)

    def draw(self, cells, rng):
        (shape,) = cells
        return rng.standard_gamma(shape) * (1.0 / self.rate)

    def mean_rate(self):
        return self.shape / self.rate

    def variance_rate(self):
        return self.shape / self.rate**2


DRIVER_KINDS = {
    driver.kind: driver
    for driver in (GaussianDriver, SymmetricStableDriver, CompoundPoissonDriver, GammaDriver)
}


# (driver, durations' shape, durations' bytes, cells) of the most recent
# call, read and replaced as one tuple: concurrent callers at worst compute
# the cells twice
_last = (None, None, None, None)


def sample_increments(spec, durations, rng):
    """Draw independent increments of L over intervals of the given lengths.

    Vectorised over durations; a duration of 0 yields exactly 0.0.  The
    driver's cells(durations) -- the per-cell constants of its law, the same
    for every path of a plan -- are remembered for the last (driver,
    durations) pair: a call with the same driver object and durations of the
    same shape and bytes reuses them, read-only, and skips the check for
    negative durations that they passed.  Each driver then draws one
    standard variate of each kind per duration (cell), all k cells of a kind
    at once, and maps them with the float operations of numpy's own
    location-scale samplers.  The variates drawn, and their order, therefore
    fix the output bytes for a seed:

    ===========================  =============================================
    driver                       variates, in order
    ===========================  =============================================
    Gaussian                     k standard normals
    stable, index 2              k standard normals
    stable, index < 2            k uniforms on (-pi/2, pi/2), then k standard
                                 exponentials (drawn but unused at index 1)
    compound Poisson, Gaussian   k Poisson counts, then k standard normals
    compound Poisson, two-point  k Poisson counts, then k binomial(count, 1/2)
    gamma                        k standard gammas of shape shape * duration
    ===========================  =============================================
    """
    global _last
    dts = np.asarray(durations, dtype=float)
    key = dts.tobytes()
    last_spec, shape, last_key, cells = _last
    if last_spec is not spec or shape != dts.shape or last_key != key:
        if (dts < 0).any():
            raise ValueError("durations must be >= 0")
        cells = spec.cells(dts.reshape(1) if dts.ndim == 0 else dts)
        for array in cells:
            array.flags.writeable = False
        _last = (spec, dts.shape, key, cells)
    out = spec.draw(cells, rng)
    return float(out[0]) if dts.ndim == 0 else out


def sample_two_sided(spec, grid, rng):
    """Sample the two-sided extension of L on a grid containing 0.

    The positive half accumulates increments left to right from L(0) = 0;
    the negative half is an independent copy laid out right to left, so that
    L(t) - L(s) for s < t <= 0 has the plain increment law of duration t - s.
    A one-sided driver (e.g. the gamma subordinator) therefore stays monotone
    across the whole line.
    """
    try:
        i0 = grid.index_of(0.0)
    except OffGrid as exc:
        raise GridMissingOrigin("two-sided sampling needs 0 on the grid") from exc
    pos_rng, neg_rng = rng.spawn(2)
    pts = grid.points
    values = np.zeros(pts.size)
    if i0 + 1 < pts.size:
        pos_inc = sample_increments(spec, np.diff(pts[i0:]), pos_rng)
        values[i0 + 1 :] = np.cumsum(pos_inc)
    if i0 > 0:
        # durations of the intervals walking left from 0
        neg_durs = np.diff(pts[: i0 + 1])[::-1]
        neg_inc = sample_increments(spec, neg_durs, neg_rng)
        values[:i0] = -np.cumsum(neg_inc)[::-1]
    return SamplePath(grid, values, role="L")


def driver_to_dict(spec):
    """JSON-ready description of a driver; inverse of driver_from_dict."""
    out = {"kind": spec.kind}
    for f in fields(spec):
        value = getattr(spec, f.name)
        out[f.name] = driver_to_dict(value) if "kinds" in f.metadata else value
    return out


def _from_dict(what, kinds, data):
    if not isinstance(data, dict):
        raise ValueError(
            f'a {what} must be described by an object like {{"kind": ...}}, got {data!r:.60}'
        )
    kind = data.get("kind")
    law = kinds.get(kind) if isinstance(kind, str) else None
    if law is None:
        raise ValueError(f"unknown {what} kind {kind!r:.60}")
    values = {}
    for f in fields(law):
        if f.name not in data:
            continue
        value = data[f.name]
        if "kinds" in f.metadata:
            values[f.name] = _from_dict("jump law", f.metadata["kinds"], value)
        else:
            try:
                values[f.name] = float(value)
            except (TypeError, ValueError):
                raise ValueError(
                    f"{kind} {what} field {f.name} must be a number, got {value!r:.60}"
                ) from None
    return law(**values)


def driver_from_dict(data):
    """Build a driver from its dict description; absent fields take their defaults."""
    return _from_dict("driver", DRIVER_KINDS, data)
