"""Parametric driver laws for the two-sided integrator.

Each driver describes the law of a unit-time increment L(1) through a
closed-form Levy exponent (log-characteristic function of L(1)) and an exact
increment sampler.  Sampling is exact in distribution for every duration
dt >= 0 -- there is no Euler stepping anywhere -- so grid refinement in the
simulators only sharpens the weight discretisation, never the driver law.

Conventions:
  * unit_levy_exponent(spec, theta) returns Psi with E exp(i theta L(t))
    = exp(t * Psi(theta)); Psi(0) = 0 and Re Psi <= 0.
  * the symmetric stable exponent is -scale * |theta|**index; index = 2
    is the Gaussian with variance 2 * scale.
  * max_moment_order is the supremum of q with E |L(1)|**q < infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMissingOrigin, OffGrid
from .integrator import SamplePath

__all__ = [
    "GaussianDriver",
    "SymmetricStableDriver",
    "CompoundPoissonDriver",
    "GammaDriver",
    "GaussianJumps",
    "TwoPointJumps",
    "unit_levy_exponent",
    "sample_increment",
    "sample_increments",
    "sample_two_sided",
    "max_moment_order",
    "has_finite_log_moment",
    "mean_rate",
    "variance_rate",
    "driver_to_dict",
    "driver_from_dict",
]


@dataclass(frozen=True)
class GaussianJumps:
    """Gaussian jump sizes for the compound Poisson driver."""

    mean: float = 0.0
    variance: float = 1.0

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("jump variance must be >= 0")


@dataclass(frozen=True)
class TwoPointJumps:
    """Jumps of size +magnitude or -magnitude with equal probability."""

    magnitude: float = 1.0

    def __post_init__(self):
        if self.magnitude <= 0:
            raise ValueError("jump magnitude must be > 0")


@dataclass(frozen=True)
class GaussianDriver:
    """Brownian motion with drift: L(t) ~ N(drift * t, variance * t)."""

    variance: float = 1.0
    drift: float = 0.0

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("variance must be >= 0")


@dataclass(frozen=True)
class SymmetricStableDriver:
    """Symmetric stable motion with exponent -scale * |theta|**index."""

    index: float = 1.5
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.index <= 2.0:
            raise ValueError("stability index must lie in (0, 2]")
        if self.scale <= 0:
            raise ValueError("scale must be > 0")


@dataclass(frozen=True)
class CompoundPoissonDriver:
    """Compound Poisson process with the given jump intensity and jump law."""

    rate: float = 1.0
    jumps: GaussianJumps | TwoPointJumps = GaussianJumps()

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("jump rate must be >= 0")
        if not isinstance(self.jumps, (GaussianJumps, TwoPointJumps)):
            raise ValueError("jumps must be GaussianJumps or TwoPointJumps")


@dataclass(frozen=True)
class GammaDriver:
    """Gamma subordinator: L(t) ~ Gamma(shape * t, rate)."""

    shape: float = 1.0
    rate: float = 1.0

    def __post_init__(self):
        if self.shape <= 0 or self.rate <= 0:
            raise ValueError("shape and rate must be > 0")


LevyDriver = GaussianDriver | SymmetricStableDriver | CompoundPoissonDriver | GammaDriver


def unit_levy_exponent(spec, theta):
    """Log-characteristic function of L(1) at theta (scalar or array)."""
    th = np.asarray(theta, dtype=float)
    if isinstance(spec, GaussianDriver):
        out = 1j * spec.drift * th - 0.5 * spec.variance * th**2
    elif isinstance(spec, SymmetricStableDriver):
        out = (-spec.scale * np.abs(th) ** spec.index).astype(complex)
    elif isinstance(spec, CompoundPoissonDriver):
        if isinstance(spec.jumps, GaussianJumps):
            jump_cf = np.exp(1j * spec.jumps.mean * th - 0.5 * spec.jumps.variance * th**2)
        else:
            jump_cf = np.cos(spec.jumps.magnitude * th).astype(complex)
        out = spec.rate * (jump_cf - 1.0)
    elif isinstance(spec, GammaDriver):
        out = -spec.shape * np.log(1.0 - 1j * th / spec.rate)
    else:
        raise TypeError(f"unknown driver {spec!r}")
    return complex(out) if np.ndim(theta) == 0 else out


def _standard_symmetric_stable(index, shape, rng):
    # Chambers-Mallows-Stuck in the symmetric case; CF is exp(-|theta|**index).
    u = rng.uniform(-math.pi / 2, math.pi / 2, shape)
    w = rng.standard_exponential(shape)
    if index == 1.0:
        return np.tan(u)
    iu = index * u
    return (
        np.sin(iu)
        / np.cos(u) ** (1.0 / index)
        * (np.cos(u - iu) / w) ** ((1.0 - index) / index)
    )


def sample_increments(spec, durations, rng):
    """Draw independent increments of L over intervals of the given lengths.

    Vectorised over durations; a duration of 0 yields exactly 0.0.  Each
    driver draws one standard variate of each kind per duration (cell), all
    k cells of a kind at once, and maps them with the float operations of
    numpy's own location-scale samplers.  The variates drawn, and their
    order, therefore fix the output bytes for a seed:

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
    if (dts < 0).any():
        raise ValueError("durations must be >= 0")
    scalar = dts.ndim == 0
    dts = np.atleast_1d(dts)
    k = dts.shape
    if isinstance(spec, GaussianDriver):
        out = spec.drift * dts + np.sqrt(spec.variance * dts) * rng.standard_normal(k)
    elif isinstance(spec, SymmetricStableDriver):
        if spec.index == 2.0:
            # 0.0 + keeps rng.normal(0.0, scale)'s +0.0 where the product is -0.0
            out = 0.0 + np.sqrt(2.0 * spec.scale * dts) * rng.standard_normal(k)
        else:
            draws = _standard_symmetric_stable(spec.index, k, rng)
            out = (spec.scale * dts) ** (1.0 / spec.index) * draws
    elif isinstance(spec, CompoundPoissonDriver):
        counts = rng.poisson(spec.rate * dts)
        if isinstance(spec.jumps, GaussianJumps):
            scale = np.sqrt(counts * spec.jumps.variance)
            out = counts * spec.jumps.mean + scale * rng.standard_normal(k)
        else:
            ups = rng.binomial(counts, 0.5)
            out = spec.jumps.magnitude * (2.0 * ups - counts)
    elif isinstance(spec, GammaDriver):
        out = rng.standard_gamma(spec.shape * dts) * (1.0 / spec.rate)
    else:
        raise TypeError(f"unknown driver {spec!r}")
    return float(out[0]) if scalar else out


def sample_increment(spec, dt, rng):
    """Draw one increment of L over an interval of length dt >= 0."""
    return sample_increments(spec, float(dt), rng)


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


def max_moment_order(spec):
    """Supremum of the finite absolute moment orders of L(1)."""
    if isinstance(spec, SymmetricStableDriver) and spec.index < 2.0:
        return spec.index
    return math.inf


def has_finite_log_moment(spec):
    """Whether E log^+ |L(1)| is finite.  True for every built-in driver."""
    return isinstance(
        spec, (GaussianDriver, SymmetricStableDriver, CompoundPoissonDriver, GammaDriver)
    )


def mean_rate(spec):
    """E L(1).  The symmetric stable centre is 0 by symmetry."""
    if isinstance(spec, GaussianDriver):
        return spec.drift
    if isinstance(spec, SymmetricStableDriver):
        return 0.0
    if isinstance(spec, CompoundPoissonDriver):
        jump_mean = spec.jumps.mean if isinstance(spec.jumps, GaussianJumps) else 0.0
        return spec.rate * jump_mean
    if isinstance(spec, GammaDriver):
        return spec.shape / spec.rate
    raise TypeError(f"unknown driver {spec!r}")


def variance_rate(spec):
    """Var L(1); infinite for the stable driver with index < 2."""
    if isinstance(spec, GaussianDriver):
        return spec.variance
    if isinstance(spec, SymmetricStableDriver):
        return 2.0 * spec.scale if spec.index == 2.0 else math.inf
    if isinstance(spec, CompoundPoissonDriver):
        if isinstance(spec.jumps, GaussianJumps):
            second = spec.jumps.variance + spec.jumps.mean**2
        else:
            second = spec.jumps.magnitude**2
        return spec.rate * second
    if isinstance(spec, GammaDriver):
        return spec.shape / spec.rate**2
    raise TypeError(f"unknown driver {spec!r}")


def driver_to_dict(spec):
    """JSON-ready description of a driver; inverse of driver_from_dict."""
    if isinstance(spec, GaussianDriver):
        return {"kind": "gaussian", "variance": spec.variance, "drift": spec.drift}
    if isinstance(spec, SymmetricStableDriver):
        return {"kind": "symmetric_stable", "index": spec.index, "scale": spec.scale}
    if isinstance(spec, CompoundPoissonDriver):
        if isinstance(spec.jumps, GaussianJumps):
            jumps = {
                "kind": "gaussian",
                "mean": spec.jumps.mean,
                "variance": spec.jumps.variance,
            }
        else:
            jumps = {"kind": "two_point", "magnitude": spec.jumps.magnitude}
        return {"kind": "compound_poisson", "rate": spec.rate, "jumps": jumps}
    if isinstance(spec, GammaDriver):
        return {"kind": "gamma", "shape": spec.shape, "rate": spec.rate}
    raise TypeError(f"unknown driver {spec!r}")


def _check_description(what, data):
    if not isinstance(data, dict):
        raise ValueError(
            f'{what} must be described by an object like {{"kind": ...}}, got {data!r:.60}'
        )


def driver_from_dict(data):
    """Build a driver from its dict description."""
    _check_description("a driver", data)
    kind = data.get("kind")
    if kind == "gaussian":
        return GaussianDriver(
            variance=float(data.get("variance", 1.0)), drift=float(data.get("drift", 0.0))
        )
    if kind == "symmetric_stable":
        return SymmetricStableDriver(
            index=float(data.get("index", 1.5)), scale=float(data.get("scale", 1.0))
        )
    if kind == "compound_poisson":
        jumps_data = data.get("jumps", {"kind": "gaussian"})
        _check_description("a jump law", jumps_data)
        jkind = jumps_data.get("kind")
        if jkind == "gaussian":
            jumps = GaussianJumps(
                mean=float(jumps_data.get("mean", 0.0)),
                variance=float(jumps_data.get("variance", 1.0)),
            )
        elif jkind == "two_point":
            jumps = TwoPointJumps(magnitude=float(jumps_data.get("magnitude", 1.0)))
        else:
            raise ValueError(f"unknown jump law {jkind!r}")
        return CompoundPoissonDriver(rate=float(data.get("rate", 1.0)), jumps=jumps)
    if kind == "gamma":
        return GammaDriver(shape=float(data.get("shape", 1.0)), rate=float(data.get("rate", 1.0)))
    raise ValueError(f"unknown driver kind {kind!r}")
