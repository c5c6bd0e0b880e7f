"""Grids, sample paths, and the pathwise stochastic integral.

Integrals against a cadlag integrator Y are taken in the left-endpoint
Riemann-Stieltjes sense on the integrator's own grid,

    rs_integral(A, Y, a, b) = sum_j A(t_j) * (Y(t_{j+1}) - Y(t_j)),

with the reversed orientation defined by a sign flip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OffGrid
from .validation import read_number

__all__ = ["TimeGrid", "SamplePath", "PATH_ROLES", "rs_integral"]

# Which process a path's values describe:
#   Y  driver in log time (exponentially scaled increments)
#   X  additive dilatively stable process
#   V  stationary-law transform of X (OU-type)
#   Z  time-stable reparametrisation of V
#   D  infinitely divisible with respect to time reparametrisation of V
PATH_ROLES = ("Y", "X", "V", "Z", "D")

_MATCH_RTOL = 32 * np.finfo(float).eps


def _grid_size(n):
    """The point count of a built grid: a whole number of at least 1."""
    n = read_number(int, "n", n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    return n


@dataclass(eq=False)
class TimeGrid:
    """Strictly increasing finite set of times."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("grid must be a non-empty 1-d array of times")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid times must be finite")
        if pts.size > 1 and not np.all(np.diff(pts) > 0):
            raise ValueError("grid times must be strictly increasing")
        self.points = pts

    @classmethod
    def linear(cls, t_min, t_max, n):
        if not math.isfinite(float(t_max) - float(t_min)):
            raise ValueError(
                f"linear grids need a span t_max - t_min in the float range, "
                f"got {t_min!r} to {t_max!r}"
            )
        return cls(np.linspace(float(t_min), float(t_max), _grid_size(n)))

    @classmethod
    def geometric(cls, t_min, t_max, n):
        if min(t_min, t_max) <= 0:
            raise ValueError(f"geometric grids need times > 0, got {t_min!r} to {t_max!r}")
        return cls(np.exp(np.linspace(math.log(t_min), math.log(t_max), _grid_size(n))))

    def __len__(self):
        return self.points.size

    def index_of(self, t):
        """Index of the grid point equal to t, tolerating a few ulp of drift.

        A point equal to t wins; otherwise the nearer of t's two neighbours
        matches if it lies within _MATCH_RTOL * max(1, |p|, |t|) of t, by
        math.isclose, which matches no point to an infinite t.
        """
        pts = self.points
        t = float(t)
        i = int(np.searchsorted(pts, t))  # pts[i - 1] < t <= pts[i]
        if i < pts.size and pts[i] == t:
            return i
        j = min((j for j in (i - 1, i) if 0 <= j < pts.size), key=lambda j: abs(pts[j] - t))
        if math.isclose(pts[j], t, rel_tol=_MATCH_RTOL, abs_tol=_MATCH_RTOL):
            return j
        raise OffGrid(f"time {t!r} is not a grid point")

    def contains(self, t):
        try:
            self.index_of(t)
        except OffGrid:
            return False
        return True


@dataclass(eq=False)
class SamplePath:
    """Values of one path (1-d) or of an ensemble (an (n_paths, len(grid)) matrix,
    one row per path) along the grid, tagged with the process every row is."""

    grid: TimeGrid
    values: np.ndarray
    role: str = "X"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim not in (1, 2) or vals.shape[-1] != len(self.grid):
            raise ValueError("values must be 1-d or (n_paths, len(grid)), aligned with the grid")
        if self.role not in PATH_ROLES:
            raise ValueError(f"unknown path role {self.role!r}")
        if self.role == "X" and self.grid.points[0] == 0.0 and np.any(vals[..., 0] != 0.0):
            raise ValueError("an additive process must start at 0 when the grid contains 0")
        self.values = vals

    @property
    def n_paths(self):
        """How many paths: 1 for a 1-d path, else the number of rows."""
        return 1 if self.values.ndim == 1 else self.values.shape[0]

    def value_at(self, t):
        """The value at grid time t: a number for one path, one per row for an ensemble."""
        return self.values[..., self.grid.index_of(t)]


def _partial_sums(increments, anchor):
    """Partial sums along the last axis, from the empty sum at index 0, less the one at anchor."""
    sums = np.cumsum(increments, axis=-1)
    sums = np.concatenate([np.zeros(sums.shape[:-1] + (1,)), sums], axis=-1)
    return sums - sums[..., anchor : anchor + 1]


def _weight_values(weight, pts):
    try:
        w = np.asarray(weight(pts), dtype=float)
    except (TypeError, ValueError):
        w = None
    if w is None or w.shape != pts.shape:
        # scalar-only callables get evaluated pointwise
        w = np.asarray([weight(p) for p in pts], dtype=float)
    return w


def rs_integral(weight, path, a, b):
    """Left-endpoint Riemann-Stieltjes integral of `weight` against `path`.

    a and b must be grid points; the reversed orientation (a > b) is the
    negation of the forward one.  Taken along the last axis: a number for
    one path, one per row for an ensemble.
    """
    ia = path.grid.index_of(a)
    ib = path.grid.index_of(b)
    if ia > ib:
        return -rs_integral(weight, path, b, a)
    w = _weight_values(weight, path.grid.points[ia:ib])
    return (w * np.diff(path.values[..., ia : ib + 1])).sum(axis=-1)

