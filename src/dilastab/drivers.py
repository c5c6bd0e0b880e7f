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

import json
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .validation import read_number

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

    def draw_sums(self, counts, rng, out):
        rng.standard_normal(out=out)
        part = np.multiply(counts, self.variance)
        out *= np.sqrt(part, out=part)
        out += np.multiply(counts, self.mean, out=part)


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

    def draw_sums(self, counts, rng, out):
        np.multiply(2.0, rng.binomial(counts, 0.5), out=out)
        out -= counts
        out *= self.magnitude


JUMP_KINDS = {law.kind: law for law in (GaussianJumps, TwoPointJumps)}


class LevyDriver(_Parameters):
    """A Levy driver: its unit-time exponent, exact increments and moments.

    Each driver defines _exponent(th), the Levy exponent at a float array
    th; _cells(dts), the tuple of per-cell arrays its law takes from an
    array of durations (a location and a scale, a Poisson mean, a gamma
    shape); draw(cells, rng, out), which writes its increments over those
    cells into the float array out, with the variates listed in
    sample_increments; mean_rate() = E L(1); and variance_rate() = Var L(1),
    possibly infinite.  The cells depend on the durations alone, so a
    SimulationPlan computes them once for all its paths; draw neither keeps
    nor writes them, and computes each increment with the float operations
    of the expression its comment gives, in place where it can.
    max_moment_order(), the supremum of the finite absolute moment orders of
    L(1), is infinite unless the driver says otherwise.  A driver refuses, naming itself, a
    mean or variance of L(1) that its law makes finite but that leaves the
    float range, and cells() any per-cell constant draw cannot take.

    stable_part is (p, c) when the exponent is i * mean_rate() * theta -
    c * |theta|**p, whose integrals have closed-form laws, and else None.
    """

    stable_part = None
    # the largest |per-cell constant| draw takes
    cell_limit = np.finfo(float).max

    def __post_init__(self):
        super().__post_init__()
        for order, what in ((1, "mean"), (2, "variance")):
            try:
                moment = getattr(self, f"{what}_rate")()
            except OverflowError:  # a square beyond the float range
                moment = math.inf
            if order < self.max_moment_order() and not math.isfinite(moment):
                raise ValueError(f"{self._named()} takes the {what} of L(1) out of the float range")

    def _named(self):
        return f"the driver {json.dumps(driver_to_dict(self))}"

    def levy_exponent(self, theta):
        """Log-characteristic function of L(1) at theta (scalar or array)."""
        out = self._exponent(np.asarray(theta, dtype=float))
        return complex(out) if np.ndim(theta) == 0 else out

    def cells(self, dts):
        """The per-cell constants of the law over an array of durations >= 0.

        Every sampler's cells come from here; a constant that is not finite
        or exceeds cell_limit raises ValueError naming the driver.
        """
        if (dts < 0).any():
            raise ValueError("durations must be >= 0")
        with np.errstate(all="ignore"):  # inf and nan are looked for below
            cells = self._cells(dts)
        # |nan| <= limit is False too
        if not all((np.abs(cell) <= self.cell_limit).all() for cell in cells):
            own = self.cell_limit < LevyDriver.cell_limit
            limit = f" or past {self.cell_limit:.6g}, the most its sampler takes," if own else ""
            raise ValueError(
                f"{self._named()} takes its per-cell law constants out of the float range"
                f"{limit} on clock increments up to {dts.max():.6g}"
            )
        return cells

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

    def _cells(self, dts):
        return self.drift * dts, np.sqrt(self.variance * dts)

    def draw(self, cells, rng, out):
        # loc + scale * z
        loc, scale = cells
        rng.standard_normal(out=out)
        out *= scale
        out += loc

    @property
    def stable_part(self):
        return 2.0, 0.5 * self.variance

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

    def _cells(self, dts):
        if self.index == 2.0:
            return (np.sqrt(2.0 * self.scale * dts),)
        return ((self.scale * dts) ** (1.0 / self.index),)

    def draw(self, cells, rng, out):
        (scale,) = cells
        p = self.index
        if p == 2.0:
            # 0.0 + scale * z: 0.0 + keeps rng.normal(0.0, scale)'s +0.0
            # where the product is -0.0
            rng.standard_normal(out=out)
            out *= scale
            out += 0.0
            return
        # Chambers-Mallows-Stuck in the symmetric case; CF is exp(-|theta|**p):
        # scale * draws, with draws = tan(u) at p = 1 and else
        # sin(pu) / cos(u) ** (1 / p) * (cos(u - pu) / w) ** ((1 - p) / p);
        # x **= y takes the same fast paths as x ** y
        u = rng.uniform(-math.pi / 2, math.pi / 2, out.shape)
        rng.standard_exponential(out=out)  # w, drawn but unused at p = 1
        if p == 1.0:
            np.tan(u, out=out)
        else:
            pu = p * u
            root = np.cos(u)
            root **= 1.0 / p
            u -= pu
            np.cos(u, out=u)
            u /= out
            u **= (1.0 - p) / p
            np.sin(pu, out=pu)
            pu /= root
            np.multiply(pu, u, out=out)
        out *= scale

    @property
    def stable_part(self):
        return self.index, self.scale

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
    th; and draw_sums(counts, rng, out), which writes the sums of counts[i]
    independent jumps, one per cell, into out.  Gaussian jumps sum to
    counts * mean + sqrt(counts * variance) * z, two-point ones to
    magnitude * (2.0 * ups - counts) with ups ~ binomial(counts, 1/2).
    """

    rate: float = 1.0
    jumps: GaussianJumps | TwoPointJumps = field(
        default=GaussianJumps(), metadata={"kinds": JUMP_KINDS}
    )

    kind = "compound_poisson"
    # numpy's Generator.poisson refuses a larger mean (numpy/random/_generator.pyx)
    cell_limit = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10

    def _check(self):
        if self.rate < 0:
            raise ValueError("jump rate must be >= 0")
        if not isinstance(self.jumps, tuple(JUMP_KINDS.values())):
            raise ValueError("jumps must be GaussianJumps or TwoPointJumps")

    def _exponent(self, th):
        return self.rate * (self.jumps.cf(th) - 1.0)

    def _cells(self, dts):
        return (self.rate * dts,)

    def draw(self, cells, rng, out):
        (lam,) = cells
        self.jumps.draw_sums(rng.poisson(lam), rng, out)

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

    def _cells(self, dts):
        return (self.shape * dts,)

    def draw(self, cells, rng, out):
        # standard_gamma(shape) * (1.0 / rate)
        (shape,) = cells
        rng.standard_gamma(shape, out=out)
        out *= 1.0 / self.rate

    def mean_rate(self):
        return self.shape / self.rate

    def variance_rate(self):
        try:
            return self.shape / self.rate**2
        except (ZeroDivisionError, OverflowError):  # rate**2 alone left the float range
            return self.mean_rate() / self.rate


DRIVER_KINDS = {
    driver.kind: driver
    for driver in (GaussianDriver, SymmetricStableDriver, CompoundPoissonDriver, GammaDriver)
}


def sample_increments(spec, durations, rng, cells=None, out=None):
    """Draw independent increments of L over intervals of the given lengths.

    Vectorised over durations; a duration of 0 yields exactly 0.0.  cells
    are spec.cells(durations), which the driver computes and checks here
    when not given: a SimulationPlan does so once for all its paths, as
    they depend on the durations alone.  out, when given, is the
    C-contiguous float64 array of the durations' shape (one value for a
    scalar duration) that the increments are written to and that is
    returned, such as one row of a block (SimulationPlan.rows); else a new
    array is.  Each driver then draws one standard variate of each kind per
    duration (cell), all k cells of a kind at once, and maps them with the
    float operations of numpy's own location-scale samplers, into out
    wherever numpy takes an out.  The variates drawn, and their order,
    therefore fix the output bytes for a seed, whether or not out is given:

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
    dts = np.asarray(durations, dtype=float)
    if cells is None:
        cells = spec.cells(dts.reshape(1) if dts.ndim == 0 else dts)
    if out is None:
        out = np.empty(dts.shape or 1)
    spec.draw(cells, rng, out)
    return float(out[0]) if dts.ndim == 0 else out


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
    names = [f.name for f in fields(law)]
    for name in data:
        # a misspelt field would otherwise leave its default in place silently
        if name != "kind" and name not in names:
            raise ValueError(
                f"{kind} {what} has no field {name!r:.60} (its fields: {', '.join(names)})"
            )
    values = {}
    for f in (f for f in fields(law) if f.name in data):
        if "kinds" in f.metadata:
            values[f.name] = _from_dict("jump law", f.metadata["kinds"], data[f.name])
        else:
            values[f.name] = read_number(float, f"{kind} {what} field {f.name}", data[f.name])
    return law(**values)


def driver_from_dict(data):
    """Build a driver from its dict description; absent fields take their defaults.

    A field that the driver or its jump law does not have raises ValueError.
    """
    return _from_dict("driver", DRIVER_KINDS, data)
