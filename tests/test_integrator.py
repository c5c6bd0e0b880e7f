import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dilastab import OffGrid, SamplePath, TimeGrid, rs_integral

DYADIC_GRID = TimeGrid(np.array([0.0, 1.0, 2.0, 4.0]))
DYADIC_PATH = SamplePath(DYADIC_GRID, np.array([0.0, 1.0, -1.0, 3.0]))


def test_grid_rejects_bad_points():
    with pytest.raises(ValueError):
        TimeGrid(np.array([]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([[0.0, 1.0]]))


def test_grid_constructors():
    lin = TimeGrid.linear(0.0, 1.0, 5)
    assert np.allclose(lin.points, [0.0, 0.25, 0.5, 0.75, 1.0])
    geo = TimeGrid.geometric(0.5, 8.0, 5)
    assert np.allclose(geo.points, [0.5, 1.0, 2.0, 4.0, 8.0])
    # a whole float or numpy int is the count it holds
    assert np.array_equal(TimeGrid.linear(0.0, 1.0, 5.0).points, lin.points)
    assert np.array_equal(TimeGrid.geometric(0.5, 8.0, np.int64(5)).points, geo.points)
    with pytest.raises(ValueError):
        TimeGrid.geometric(0.0, 8.0, 5)
    with pytest.raises(ValueError):
        TimeGrid.geometric(-1.0, 8.0, 5)


@pytest.mark.parametrize("build", [TimeGrid.linear, TimeGrid.geometric])
@pytest.mark.parametrize(
    "n, words",
    [(2.7, "must be a number"), (True, "must be a number"), ("abc", "must be a number"),
     (0, "must be >= 1, got 0"), (-3, "must be >= 1, got -3")],
)
def test_grid_constructors_refuse_a_count_below_1_or_not_whole(build, n, words):
    # linear(0, 1, 2.7) once built 2 points and geometric(1, 2, True) 1, and
    # a negative count failed inside np.linspace, in numpy's own words
    with pytest.raises(ValueError, match=f"^n {words}"):
        build(0.5, 1.0, n)


def test_index_of_exact_and_tolerant():
    grid = DYADIC_GRID
    assert grid.index_of(2.0) == 2
    # round-trip wobble of a few ulps must still land on the knot
    wobbled = math.exp(math.log(4.0))
    assert grid.index_of(wobbled) == 3
    with pytest.raises(OffGrid):
        grid.index_of(2.0 + 1e-7)
    with pytest.raises(OffGrid):
        grid.index_of(3.0)


def test_index_of_prefers_an_exact_match_then_the_nearer_neighbour():
    # both points lie within the matching tolerance of 5e-16
    grid = TimeGrid(np.array([1e-16, 5e-16, 1.0]))
    assert grid.index_of(5e-16) == 1
    assert grid.index_of(1e-16) == 0
    assert grid.index_of(4e-16) == 1
    assert grid.index_of(2e-16) == 0
    ulp = np.spacing(1.0)
    near = TimeGrid(np.array([1.0, 1.0 + 4 * ulp]))
    assert near.index_of(1.0 + ulp) == 0
    assert near.index_of(1.0 + 3 * ulp) == 1
    assert near.index_of(1.0 + 5 * ulp) == 1
    assert near.index_of(1.0 - ulp) == 0


def test_index_of_matches_no_point_to_an_infinite_time():
    # the tolerance _MATCH_RTOL * max(1, |p|, |t|) was infinite there, so
    # inf matched the last point and -inf the first
    grid = TimeGrid(np.array([0.5, 1.0, 2.0]))
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(OffGrid):
            grid.index_of(t)
        assert not grid.contains(t)
        with pytest.raises(OffGrid):
            SamplePath(grid, np.array([1.0, 2.0, 3.0])).value_at(t)


def test_contains():
    assert DYADIC_GRID.contains(1.0)
    assert not DYADIC_GRID.contains(3.0)
    assert len(DYADIC_GRID) == 4


def test_path_validation():
    grid = DYADIC_GRID
    with pytest.raises(ValueError):
        SamplePath(grid, np.zeros(3))
    with pytest.raises(ValueError):
        SamplePath(grid, np.zeros(4), role="Q")
    # a process started at the origin must actually start at zero there
    with pytest.raises(ValueError):
        SamplePath(grid, np.array([0.5, 1.0, 2.0, 3.0]), role="X")
    path = SamplePath(grid, np.array([0.0, 1.0, 2.0, 3.0]))
    assert path.value_at(2.0) == 2.0
    with pytest.raises(OffGrid):
        path.value_at(3.0)


def test_ensemble_validation():
    # an ensemble is the same container with one row per path, checked the
    # same way along its last axis
    grid = DYADIC_GRID
    assert SamplePath(grid, np.zeros(4)).n_paths == 1
    ens = SamplePath(grid, np.array([[0.0, 1.0, 2.0, 3.0], [0.0, -1.0, 5.0, 7.0]]))
    assert ens.n_paths == 2
    assert np.array_equal(ens.value_at(2.0), [2.0, 5.0])
    assert SamplePath(grid, np.zeros((0, 4))).n_paths == 0
    for shape in ((3, 3), (4, 3), (2, 3, 4), ()):
        with pytest.raises(ValueError, match="aligned with the grid"):
            SamplePath(grid, np.zeros(shape))
    with pytest.raises(ValueError, match="must start at 0"):
        SamplePath(grid, np.array([[0.0, 1.0, 2.0, 3.0], [0.5, 1.0, 2.0, 3.0]]))
    # only an X path must start at 0
    assert SamplePath(grid, np.ones((2, 4)), role="Y").role == "Y"


def test_left_sum_on_dyadic_example():
    # weight t against increments (1, -2, 4) from tags (0, 1, 2):
    # 0*1 + 1*(-2) + 2*4 = 6
    assert rs_integral(lambda t: t, DYADIC_PATH, 0.0, 4.0) == 6.0


def test_empty_and_reversed_ranges():
    assert rs_integral(lambda t: t, DYADIC_PATH, 2.0, 2.0) == 0.0
    fwd = rs_integral(lambda t: t, DYADIC_PATH, 1.0, 4.0)
    assert rs_integral(lambda t: t, DYADIC_PATH, 4.0, 1.0) == -fwd


def test_off_grid_endpoints_raise():
    with pytest.raises(OffGrid):
        rs_integral(lambda t: t, DYADIC_PATH, 0.0, 3.0)


@given(
    st.lists(st.integers(-40, 40), min_size=4, max_size=4),
    st.lists(st.integers(-40, 40), min_size=4, max_size=4),
)
def test_linearity_and_additivity(ints_a, ints_b):
    # eighth-integer data keeps every product and sum exact in binary
    va = np.array(ints_a, dtype=float) / 8.0
    vb = np.array(ints_b, dtype=float) / 8.0
    va[0] = vb[0] = 0.0
    pa = SamplePath(DYADIC_GRID, va)
    pb = SamplePath(DYADIC_GRID, vb)
    psum = SamplePath(DYADIC_GRID, va + vb)
    w = lambda t: t
    assert rs_integral(w, psum, 0.0, 4.0) == rs_integral(w, pa, 0.0, 4.0) + rs_integral(
        w, pb, 0.0, 4.0
    )
    assert rs_integral(w, pa, 0.0, 4.0) == rs_integral(w, pa, 0.0, 2.0) + rs_integral(
        w, pa, 2.0, 4.0
    )


def test_change_of_variables_linear():
    # integrating f against X over [0, 2] equals integrating f(2u) against
    # the pulled-back path over [0, 1] when the grid maps exactly
    grid_t = TimeGrid(np.array([0.0, 0.5, 1.0, 1.5, 2.0]))
    grid_u = TimeGrid(np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    vals = np.array([0.0, 0.7, -0.3, 1.1, 0.9])
    path_t = SamplePath(grid_t, vals)
    path_u = SamplePath(grid_u, vals)
    lhs = rs_integral(lambda t: t * t + 1.0, path_t, 0.0, 2.0)
    rhs = rs_integral(lambda u: (2 * u) ** 2 + 1.0, path_u, 0.0, 1.0)
    assert lhs == rhs


def test_change_of_variables_exponential():
    rng = np.random.default_rng(8)
    u = np.linspace(0.0, 1.0, 33)
    vals = np.concatenate([[0.0], np.cumsum(rng.normal(size=32))])
    path_u = SamplePath(TimeGrid(u), vals, role="Y")
    path_t = SamplePath(TimeGrid(np.exp(u)), vals, role="Y")
    lhs = rs_integral(lambda t: 1.0 / t, path_t, 1.0, math.e)
    rhs = rs_integral(lambda v: math.exp(-v), path_u, 0.0, 1.0)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_left_sum_on_smooth_path():
    # integral of cos dY with Y = t^2 over [0, 1]; the exact value is
    # 2 (cos 1 + sin 1 - 1)
    exact = 0.7635465813520725
    grid = TimeGrid(np.linspace(0.0, 1.0, 2001))
    path = SamplePath(grid, grid.points**2)
    left = rs_integral(np.cos, path, 0.0, 1.0)
    assert abs(left - exact) <= 1e-3


def test_scalar_weight_fallback():
    # math.sin only takes scalars; the integrator must fall back gracefully
    got = rs_integral(math.sin, DYADIC_PATH, 0.0, 4.0)
    want = rs_integral(np.sin, DYADIC_PATH, 0.0, 4.0)
    assert got == want
