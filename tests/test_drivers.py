import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dilastab import (
    DRIVER_KINDS,
    JUMP_KINDS,
    CompoundPoissonDriver,
    GammaDriver,
    GaussianDriver,
    GaussianJumps,
    GridMissingOrigin,
    SymmetricStableDriver,
    TimeGrid,
    TwoPointJumps,
    driver_from_dict,
    driver_to_dict,
    sample_increments,
    sample_two_sided,
)

ALL_DRIVERS = [
    GaussianDriver(1.0, 0.0),
    GaussianDriver(2.0, 0.5),
    SymmetricStableDriver(1.5, 1.0),
    SymmetricStableDriver(1.0, 0.7),
    SymmetricStableDriver(2.0, 1.2),
    CompoundPoissonDriver(2.0, GaussianJumps(0.5, 1.0)),
    CompoundPoissonDriver(1.5, TwoPointJumps(0.8)),
    GammaDriver(2.0, 3.0),
]


def test_exponent_gaussian():
    assert GaussianDriver(1.0, 0.0).levy_exponent(1.0) == -0.5
    psi = GaussianDriver(2.0, 0.5).levy_exponent(1.5)
    assert psi == pytest.approx(complex(-2.25, 0.75), rel=1e-15)


def test_exponent_stable():
    psi = SymmetricStableDriver(1.5, 1.0).levy_exponent(2.0)
    assert psi == pytest.approx(-(2.0**1.5), rel=1e-15)
    # index 2 coincides with a centred Gaussian of variance 2 * scale
    g = GaussianDriver(2.4, 0.0).levy_exponent(0.9)
    s = SymmetricStableDriver(2.0, 1.2).levy_exponent(0.9)
    assert s == pytest.approx(g, rel=1e-15)


def test_exponent_compound_poisson():
    spec = CompoundPoissonDriver(2.0, GaussianJumps(0.5, 1.0))
    want = 2.0 * (cmath.exp(0.5j - 0.5) - 1.0)
    assert spec.levy_exponent(1.0) == pytest.approx(want, rel=1e-14)
    assert want == pytest.approx(
        complex(-0.9354385395686584, 0.5815725764253837), rel=1e-15
    )
    two = CompoundPoissonDriver(1.5, TwoPointJumps(0.8))
    assert two.levy_exponent(2.0) == pytest.approx(
        1.5 * (math.cos(1.6) - 1.0), rel=1e-14
    )


def test_exponent_gamma():
    psi = GammaDriver(2.0, 3.0).levy_exponent(1.0)
    want = -2.0 * cmath.log(1.0 - 1j / 3.0)
    assert psi == pytest.approx(want, rel=1e-14)
    assert want == pytest.approx(
        complex(-0.1053605156578263, 0.6435011087932844), rel=1e-14
    )


def test_exponent_at_zero():
    for spec in ALL_DRIVERS:
        assert spec.levy_exponent(0.0) == 0


def test_exponent_array():
    th = np.array([-1.0, 0.0, 2.0])
    out = GaussianDriver(1.0, 0.3).levy_exponent(th)
    assert out.shape == th.shape
    assert out[1] == 0


@given(st.floats(-8, 8), st.sampled_from(range(len(ALL_DRIVERS))))
def test_exponent_conjugate_symmetry(theta, i):
    spec = ALL_DRIVERS[i]
    psi = spec.levy_exponent(theta)
    assert spec.levy_exponent(-theta) == pytest.approx(
        psi.conjugate(), rel=1e-12, abs=1e-15
    )
    assert psi.real <= 1e-15


@pytest.mark.parametrize("spec", ALL_DRIVERS, ids=lambda s: type(s).__name__ + repr(s))
def test_sampling_matches_exponent(spec):
    # the empirical CF of N increments of duration dt must agree with
    # exp(dt * psi) at a few thetas; this pins the sampler to the exponent
    rng = np.random.default_rng(2024)
    dt = 0.7
    n = 20_000
    draws = sample_increments(spec, np.full(n, dt), rng)
    for theta in (0.5, 1.3):
        ecf = np.exp(1j * theta * draws).mean()
        want = cmath.exp(dt * spec.levy_exponent(theta))
        se = math.sqrt((1.0 - abs(ecf) ** 2) / n)
        assert abs(ecf - want) <= 4.0 * se + 1e-12


def location_scale_reference(spec, dts, rng):
    """The increments from numpy's location-scale samplers, one call per law."""
    if isinstance(spec, GaussianDriver):
        return rng.normal(spec.drift * dts, np.sqrt(spec.variance * dts))
    if isinstance(spec, SymmetricStableDriver):
        return rng.normal(0.0, np.sqrt(2.0 * spec.scale * dts))
    if isinstance(spec, CompoundPoissonDriver):
        counts = rng.poisson(spec.rate * dts)
        return rng.normal(counts * spec.jumps.mean, np.sqrt(counts * spec.jumps.variance))
    return rng.gamma(spec.shape * dts, 1.0 / spec.rate)


@pytest.mark.parametrize(
    "spec",
    [
        GaussianDriver(1.0, 0.0),
        GaussianDriver(2.0, 0.5),
        SymmetricStableDriver(2.0, 1.2),
        CompoundPoissonDriver(2.0, GaussianJumps(0.5, 1.0)),
        GammaDriver(2.0, 3.0),
    ],
)
def test_standard_variates_map_like_numpy_samplers(spec):
    # the standard variates, mapped in numpy, give exactly the location-scale
    # samplers' floats, signed zeros included
    dts = np.array([0.0, 0.1, 2.5, 0.0, 1e-9, 7.0] * 50)
    got = sample_increments(spec, dts, np.random.default_rng(3))
    want = location_scale_reference(spec, dts, np.random.default_rng(3))
    assert got.tobytes() == want.tobytes()


def per_path_increments(spec, dts, rng):
    """The increments as each path drew them before cells were shared: every
    per-cell constant recomputed from the durations, with the same float
    operations and variates as the driver's cells and draw."""
    if isinstance(spec, GaussianDriver):
        return spec.drift * dts + np.sqrt(spec.variance * dts) * rng.standard_normal(dts.shape)
    if isinstance(spec, SymmetricStableDriver):
        p = spec.index
        if p == 2.0:
            return 0.0 + np.sqrt(2.0 * spec.scale * dts) * rng.standard_normal(dts.shape)
        u = rng.uniform(-math.pi / 2, math.pi / 2, dts.shape)
        w = rng.standard_exponential(dts.shape)
        if p == 1.0:
            draws = np.tan(u)
        else:
            pu = p * u
            draws = np.sin(pu) / np.cos(u) ** (1.0 / p) * (np.cos(u - pu) / w) ** ((1.0 - p) / p)
        return (spec.scale * dts) ** (1.0 / p) * draws
    if isinstance(spec, CompoundPoissonDriver):
        counts = rng.poisson(spec.rate * dts)
        jumps = spec.jumps
        if isinstance(jumps, GaussianJumps):
            scale = np.sqrt(counts * jumps.variance)
            return counts * jumps.mean + scale * rng.standard_normal(counts.shape)
        return jumps.magnitude * (2.0 * rng.binomial(counts, 0.5) - counts)
    return rng.standard_gamma(spec.shape * dts) * (1.0 / spec.rate)


@pytest.mark.parametrize("spec", ALL_DRIVERS, ids=lambda s: type(s).__name__ + repr(s))
def test_shared_cells_draw_like_the_per_path_formulas(spec):
    # every driver and jump kind, on the call that computes the cells and on
    # the calls that reuse them
    dts = np.array([0.0, 0.1, 2.5, 0.0, 1e-9, 7.0] * 50)
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(3):
        got = sample_increments(spec, dts, rng)
        assert got.tobytes() == per_path_increments(spec, dts, ref).tobytes()


@pytest.fixture
def cells_made(monkeypatch):
    """The cells each driver computes, in order, while the test runs."""
    made = []
    for driver in DRIVER_KINDS.values():

        def counted(self, dts, cells=driver.cells):
            made.append(cells(self, dts))
            return made[-1]

        monkeypatch.setattr(driver, "cells", counted)
    return made


def test_cells_are_remembered_per_driver_and_durations(cells_made):
    dts = np.array([0.1, 0.2, 0.3])
    a, b = GaussianDriver(1.0, 0.0), GaussianDriver(4.0, 0.5)
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)

    def check(spec, durations):
        got = sample_increments(spec, durations, rng)
        assert got.tobytes() == per_path_increments(spec, durations, ref).tobytes()

    # the same bytes under two drivers: each driver gets its own cells
    check(a, dts)
    check(b, dts)
    assert len(cells_made) == 2
    # two equal arrays under one driver: the second reuses the cells
    check(b, dts.copy())
    assert len(cells_made) == 2
    # an array mutated in place between calls is a new key
    dts[1] = 0.7
    check(b, dts)
    assert len(cells_made) == 3
    # the same bytes in another shape, or as a scalar, are new keys too
    zeros = np.zeros(6)
    assert sample_increments(b, zeros, rng).shape == (6,)
    assert sample_increments(b, zeros.reshape(2, 3), rng).shape == (2, 3)
    assert isinstance(sample_increments(b, 0.3, rng), float)
    assert sample_increments(b, np.array([0.3]), rng).shape == (1,)
    assert len(cells_made) == 7


def test_negative_duration_rejected_after_a_hit(cells_made):
    spec = GaussianDriver()
    dts = np.array([0.1, 0.2])
    rng = np.random.default_rng(0)
    sample_increments(spec, dts, rng)
    sample_increments(spec, dts, rng)
    assert len(cells_made) == 1
    with pytest.raises(ValueError, match="durations must be >= 0"):
        sample_increments(spec, np.array([0.1, -0.2]), rng)
    dts[0] = -0.1
    with pytest.raises(ValueError, match="durations must be >= 0"):
        sample_increments(spec, dts, rng)


def test_remembered_cells_are_read_only(cells_made):
    for spec in ALL_DRIVERS:
        sample_increments(spec, np.array([0.1, 0.2]), np.random.default_rng(0))
    assert len(cells_made) == len(ALL_DRIVERS)
    for cells in cells_made:
        for array in cells:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0


def test_zero_duration_is_zero():
    rng = np.random.default_rng(0)
    for spec in ALL_DRIVERS:
        out = sample_increments(spec, np.array([0.0, 0.5, 0.0]), rng)
        assert out[0] == 0.0 and out[2] == 0.0


def test_negative_duration_rejected():
    with pytest.raises(ValueError):
        sample_increments(GaussianDriver(), np.array([0.1, -0.2]), np.random.default_rng(0))


def test_scalar_increment():
    out = sample_increments(GammaDriver(1.0, 1.0), 0.3, np.random.default_rng(1))
    assert isinstance(out, float)


def test_gamma_increments_nonnegative():
    rng = np.random.default_rng(3)
    out = sample_increments(GammaDriver(0.7, 2.0), np.full(500, 0.2), rng)
    assert np.all(out >= 0)


def test_two_point_increments_live_on_lattice():
    spec = CompoundPoissonDriver(3.0, TwoPointJumps(0.7))
    rng = np.random.default_rng(4)
    out = sample_increments(spec, np.full(500, 0.5), rng)
    steps = out / 0.7
    assert np.allclose(steps, np.round(steps))


def test_two_sided_needs_origin():
    grid = TimeGrid(np.array([0.5, 1.0, 2.0]))
    with pytest.raises(GridMissingOrigin):
        sample_two_sided(GaussianDriver(), grid, np.random.default_rng(0))


def test_two_sided_anchored_at_zero():
    grid = TimeGrid(np.array([-2.0, -0.5, 0.0, 1.0, 3.0]))
    path = sample_two_sided(GaussianDriver(), grid, np.random.default_rng(5))
    assert path.role == "L"
    assert path.value_at(0.0) == 0.0


def test_two_sided_gamma_monotone_across_line():
    # the negative half is laid out right to left, so a subordinator keeps
    # nondecreasing paths on the whole line
    grid = TimeGrid(np.linspace(-3.0, 3.0, 25))
    path = sample_two_sided(GammaDriver(1.0, 1.0), grid, np.random.default_rng(6))
    assert np.all(np.diff(path.values) >= 0)
    assert path.values[0] < 0 < path.values[-1]


def test_two_sided_negative_increment_law():
    # L(0) - L(-1.5) must have the plain duration-1.5 increment law
    grid = TimeGrid(np.array([-1.5, 0.0, 1.0]))
    rng = np.random.default_rng(7)
    n = 4000
    incs = np.empty(n)
    for k in range(n):
        path = sample_two_sided(GaussianDriver(1.0, 0.4), grid, rng)
        incs[k] = path.value_at(0.0) - path.value_at(-1.5)
    theta = 0.8
    ecf = np.exp(1j * theta * incs).mean()
    want = cmath.exp(1.5 * GaussianDriver(1.0, 0.4).levy_exponent(theta))
    se = math.sqrt((1.0 - abs(ecf) ** 2) / n)
    assert abs(ecf - want) <= 4.0 * se


def test_two_sided_reproducible():
    grid = TimeGrid(np.array([-1.0, 0.0, 1.0]))
    a = sample_two_sided(GaussianDriver(), grid, np.random.default_rng(9))
    b = sample_two_sided(GaussianDriver(), grid, np.random.default_rng(9))
    assert np.array_equal(a.values, b.values)


def test_moment_metadata():
    assert SymmetricStableDriver(1.5, 1.0).max_moment_order() == 1.5
    assert SymmetricStableDriver(2.0, 1.0).max_moment_order() == math.inf
    assert GaussianDriver().max_moment_order() == math.inf
    assert GammaDriver().max_moment_order() == math.inf


def test_moment_rates():
    assert GaussianDriver(2.0, 0.5).mean_rate() == 0.5
    assert GaussianDriver(2.0, 0.5).variance_rate() == 2.0
    assert SymmetricStableDriver(1.5, 1.0).mean_rate() == 0.0
    assert SymmetricStableDriver(1.5, 1.0).variance_rate() == math.inf
    assert SymmetricStableDriver(2.0, 1.2).variance_rate() == 2.4
    cp = CompoundPoissonDriver(2.0, GaussianJumps(0.5, 1.0))
    assert cp.mean_rate() == 1.0
    assert cp.variance_rate() == 2.0 * (1.0 + 0.25)
    two = CompoundPoissonDriver(1.5, TwoPointJumps(0.8))
    assert two.mean_rate() == 0.0
    assert two.variance_rate() == pytest.approx(1.5 * 0.64)
    assert GammaDriver(2.0, 3.0).mean_rate() == pytest.approx(2.0 / 3.0)
    assert GammaDriver(2.0, 3.0).variance_rate() == pytest.approx(2.0 / 9.0)


def test_empirical_moments_match_rates():
    rng = np.random.default_rng(11)
    spec = CompoundPoissonDriver(2.0, GaussianJumps(0.5, 1.0))
    draws = sample_increments(spec, np.full(20_000, 1.0), rng)
    assert draws.mean() == pytest.approx(spec.mean_rate(), abs=4 * draws.std() / 140)
    assert draws.var() == pytest.approx(spec.variance_rate(), rel=0.1)


def test_driver_dict_round_trip():
    # every kind in the tables, at its defaults and in ALL_DRIVERS, so that a
    # new kind cannot skip the round trip
    assert {type(spec) for spec in ALL_DRIVERS} == set(DRIVER_KINDS.values())
    defaults = [driver() for driver in DRIVER_KINDS.values()]
    defaults += [CompoundPoissonDriver(jumps=jumps()) for jumps in JUMP_KINDS.values()]
    for spec in ALL_DRIVERS + defaults:
        data = driver_to_dict(spec)
        assert data["kind"] == spec.kind and DRIVER_KINDS[spec.kind] is type(spec)
        assert driver_from_dict(data) == spec
        # absent fields take the dataclass defaults
        assert driver_from_dict({"kind": spec.kind}) == type(spec)()


def test_driver_dict_rejects_unknown():
    with pytest.raises(ValueError):
        driver_from_dict({"kind": "cauchy"})
    with pytest.raises(ValueError):
        driver_from_dict({"kind": "compound_poisson", "jumps": {"kind": "levy"}})
    with pytest.raises(ValueError, match="unknown driver kind"):
        driver_from_dict({"kind": ["gaussian"]})


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        GaussianDriver(variance=-1.0)
    with pytest.raises(ValueError):
        SymmetricStableDriver(index=2.5)
    with pytest.raises(ValueError):
        SymmetricStableDriver(index=0.0)
    with pytest.raises(ValueError):
        SymmetricStableDriver(index=1.5, scale=0.0)
    with pytest.raises(ValueError):
        CompoundPoissonDriver(rate=-0.1)
    with pytest.raises(ValueError):
        GaussianJumps(variance=-2.0)
    with pytest.raises(ValueError):
        TwoPointJumps(magnitude=0.0)
    with pytest.raises(ValueError):
        GammaDriver(shape=0.0)
    # one shared check rejects every non-finite parameter, by its field name
    for law, field in [
        (GaussianDriver, "variance"),
        (GaussianDriver, "drift"),
        (SymmetricStableDriver, "index"),
        (SymmetricStableDriver, "scale"),
        (CompoundPoissonDriver, "rate"),
        (GammaDriver, "shape"),
        (GammaDriver, "rate"),
        (GaussianJumps, "mean"),
        (GaussianJumps, "variance"),
        (TwoPointJumps, "magnitude"),
    ]:
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                law(**{field: value})
