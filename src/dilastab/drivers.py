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
from dataclasses import dataclass, field, fields

import numpy as np

from .validation import _Parameters, read_number

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

    def draw(self, counts, rng, out):
        rng.standard_normal(out=out)

    def finish(self, counts, out):
        # counts * mean + sqrt(counts * variance) * z
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

    def draw(self, counts, rng, out):
        out[...] = rng.binomial(counts, 0.5)

    def finish(self, counts, out):
        # magnitude * (2.0 * ups - counts)
        out *= 2.0
        out -= counts
        out *= self.magnitude


JUMP_KINDS = {law.kind: law for law in (GaussianJumps, TwoPointJumps)}


class LevyDriver(_Parameters):
    """A Levy driver: its unit-time exponent, exact increments and moments.

    Each driver defines _exponent(th), the Levy exponent at a float array
    th; _cells(dts), the tuple of per-cell arrays its law takes from an
    array of durations (a location and a scale, a Poisson mean, a gamma
    shape); mean_rate() = E L(1); variance_rate() = Var L(1), possibly
    infinite; and its increments over those cells, drawn in two steps into
    a (kinds, rows, k) block of variates with one row per path
    (SimulationPlan.rows), kinds being the number of variate kinds listed
    for it in sample_increments:
      * draw(cells, rng, out), the per-path step, makes only the generator
        calls, in that table's order, and writes variate kind j into out[j]
        of the path's (kinds, k) view of the block.
      * finish(cells, out), the per-block step, maps a whole block at once,
        in place, with the float operations of the expression its comment
        gives, in that order, and returns the increments, out[-1].
    The cells depend on the durations alone, so a SimulationPlan computes
    them once for all its paths; neither step keeps nor writes them, and
    finish broadcasts them over a block's rows.
    max_moment_order(), the supremum of the finite absolute moment orders of
    L(1), is infinite unless the driver says otherwise.  A driver refuses, naming itself, a
    mean or variance of L(1) that its law makes finite but that leaves the
    float range, and cells() any per-cell constant draw cannot take.

    stable_part is (p, c) when the exponent is i * mean_rate() * theta -
    c * |theta|**p, whose integrals have closed-form laws, and else None.
    """

    stable_part = None
    kinds = 1
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
        # reductions, not an |cell| array of the plan's length; nan fails both
        lo, hi = -self.cell_limit, self.cell_limit
        if not all(lo <= np.min(c, initial=0.0) and np.max(c, initial=0.0) <= hi for c in cells):
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
        scale = self.variance * dts
        return self.drift * dts, np.sqrt(scale, out=scale)

    def draw(self, cells, rng, out):
        rng.standard_normal(out=out[0])

    def finish(self, cells, out):
        # loc + scale * z
        loc, scale = cells
        z = out[0]
        z *= scale
        z += loc
        return z

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

    @property
    def kinds(self):
        return 1 if self.index == 2.0 else 2

    def draw(self, cells, rng, out):
        if self.index == 2.0:
            rng.standard_normal(out=out[0])
            return
        rng.random(out=out[0])  # u, mapped onto (-pi/2, pi/2) by finish
        rng.standard_exponential(out=out[1])  # w, drawn but unused at p = 1

    def finish(self, cells, out):
        (scale,) = cells
        p = self.index
        if p == 2.0:
            # 0.0 + scale * z: 0.0 + keeps rng.normal(0.0, scale)'s +0.0
            # where the product is -0.0
            z = out[0]
            z *= scale
            z += 0.0
            return z
        # u = low + (high - low) * r, rng.uniform(low, high)'s own formula
        low, high = -math.pi / 2, math.pi / 2
        u, w = out
        u *= high - low
        u += low
        # Chambers-Mallows-Stuck in the symmetric case; CF is exp(-|theta|**p):
        # scale * draws, with draws = tan(u) at p = 1 and else
        # sin(pu) / cos(u) ** (1 / p) * (cos(u - pu) / w) ** ((1 - p) / p);
        # x **= y takes the same fast paths as x ** y
        if p == 1.0:
            np.tan(u, out=w)
        else:
            pu = p * u
            root = np.cos(u)
            root **= 1.0 / p
            u -= pu
            np.cos(u, out=u)
            u /= w
            u **= (1.0 - p) / p
            np.sin(pu, out=pu)
            pu /= root
            np.multiply(pu, u, out=w)
        w *= scale
        return w

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
    th; and the sums of counts[i] independent jumps, one per cell, in the
    driver's two steps: draw(counts, rng, out) writes one path's variates
    into out from its integer counts, and finish(counts, out) maps a block
    of them to the sums in place, with the counts as float64.  Gaussian
    jumps sum to counts * mean + sqrt(counts * variance) * z, two-point ones
    to magnitude * (2.0 * ups - counts) with ups ~ binomial(counts, 1/2).
    """

    rate: float = 1.0
    jumps: GaussianJumps | TwoPointJumps = field(
        default=GaussianJumps(), metadata={"kinds": JUMP_KINDS}
    )

    kind = "compound_poisson"
    kinds = 2
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
        # the integer counts live in out[1]'s bytes until the jumps' variates
        # replace them, so no array beyond the block outlives the poisson
        # call; out[0] keeps them as float64, as numpy casts them to multiply
        counts = out[1].view(np.int64)
        counts[...] = rng.poisson(lam)
        out[0] = counts
        self.jumps.draw(counts, rng, out[1])

    def finish(self, cells, out):
        counts, sums = out
        self.jumps.finish(counts, sums)
        return sums

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
        (shape,) = cells
        rng.standard_gamma(shape, out=out[0])

    def finish(self, cells, out):
        # standard_gamma(shape) * (1.0 / rate)
        g = out[0]
        g *= 1.0 / self.rate
        return g

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
    when not given: a SimulationPlan does so once for all its paths, as they
    depend on the durations alone.  Without out, both of the driver's steps
    run on a new (spec.kinds, *durations.shape) array (one value per kind
    for a scalar duration), the one-row block, and the finished increments
    are returned; increments out of the float range raise ValueError naming
    the driver, whatever the caller's errstate.  With out, only the
    per-path step runs: out is a path's (spec.kinds, k) view of a
    (spec.kinds, rows, k) block, such as SimulationPlan.rows passes, the
    variates are written there and out[-1] is returned; the caller maps the
    whole block with spec.finish(cells, block).  Each driver draws one
    standard variate of each kind per duration (cell), all k cells of a kind
    at once, and maps them with the float operations of numpy's own samplers
    (location-scale, uniform).  The variates drawn, and their order,
    therefore fix the output bytes for a seed, whether a path is drawn alone
    or in a block; spec.kinds is the number of kinds:

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
    if out is not None:
        spec.draw(cells, rng, out)
        return out[-1]
    out = np.empty((spec.kinds,) + (dts.shape or (1,)))
    with np.errstate(all="ignore"):  # inf and nan are looked for below
        spec.draw(cells, rng, out)
        increments = spec.finish(cells, out)
    if not np.isfinite(increments).all():
        raise ValueError(f"{spec._named()} draws increments out of the float range")
    return float(increments[0]) if dts.ndim == 0 else increments


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
