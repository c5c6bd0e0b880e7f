import cmath
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dilastab import (
    DRIVER_KINDS,
    JUMP_KINDS,
    CompoundPoissonDriver,
    DilationParams,
    GammaDriver,
    GaussianDriver,
    GaussianJumps,
    SymmetricStableDriver,
    TimeGrid,
    TwoPointJumps,
    driver_from_dict,
    driver_to_dict,
    plan_dilative,
    sample_increments,
    simulate_driving,
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
    # every driver and jump kind, with the cells computed by the call, with
    # one set of cells passed to every call, as a plan passes them, and drawn
    # into one row of larger blocks and mapped by the block step, as
    # SimulationPlan.rows draws
    dts = np.array([0.0, 0.1, 2.5, 0.0, 1e-9, 7.0] * 50)
    rng, shared, into, ref = (np.random.default_rng(8) for _ in range(4))
    cells = spec.cells(dts)
    two_kinds = isinstance(spec, CompoundPoissonDriver) or getattr(spec, "index", 2.0) < 2.0
    assert spec.kinds == (2 if two_kinds else 1)
    for i in range(3):
        want = per_path_increments(spec, dts, ref).tobytes()
        assert sample_increments(spec, dts, rng).tobytes() == want
        assert sample_increments(spec, dts, shared, cells).tobytes() == want
        variates = np.zeros((spec.kinds, 3, dts.size))
        row = sample_increments(spec, dts, into, cells, variates[:, i])
        assert row.base is variates and np.shares_memory(row, variates[-1, i])
        increments = spec.finish(cells, variates[:, i : i + 1])
        assert np.shares_memory(increments, variates[-1, i])
        assert increments[0].tobytes() == want
        others = np.delete(variates, i, axis=1)
        assert not others.any() and not np.signbit(others).any()


@pytest.mark.parametrize("n_rows", [1, 2, 7])
@pytest.mark.parametrize("spec", ALL_DRIVERS, ids=lambda s: type(s).__name__ + repr(s))
def test_one_block_step_maps_every_row_like_its_path_alone(spec, n_rows):
    # each path makes only its generator calls, into its rows of the block
    # of variates; one block step then gives every row the bytes of its
    # path's per-path formulas, signed zeros included
    dts = np.array([0.0, 0.1, 2.5, 0.0, 1e-9, 7.0] * 50)
    cells = spec.cells(dts)
    variates = np.empty((spec.kinds, n_rows, dts.size))
    for n, path in enumerate(variates.swapaxes(0, 1)):
        sample_increments(spec, dts, np.random.default_rng([n_rows, n]), cells, path)
    block = spec.finish(cells, variates)
    for n in range(n_rows):
        want = per_path_increments(spec, dts, np.random.default_rng([n_rows, n]))
        assert block[n].tobytes() == want.tobytes()


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


def test_cells_follow_driver_and_durations(cells_made):
    dts = np.array([0.1, 0.2, 0.3])
    a, b = GaussianDriver(1.0, 0.0), GaussianDriver(4.0, 0.5)
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)

    def check(spec, durations):
        got = sample_increments(spec, durations, rng)
        assert got.tobytes() == per_path_increments(spec, durations, ref).tobytes()

    # the same bytes under two drivers, an equal array, and an array mutated
    # in place between calls: a call without cells computes its own
    check(a, dts)
    check(b, dts)
    check(b, dts.copy())
    dts[1] = 0.7
    check(b, dts)
    assert len(cells_made) == 4
    # other shapes and a scalar
    zeros = np.zeros(6)
    assert sample_increments(b, zeros, rng).shape == (6,)
    assert sample_increments(b, zeros.reshape(2, 3), rng).shape == (2, 3)
    assert isinstance(sample_increments(b, 0.3, rng), float)
    assert sample_increments(b, np.array([0.3]), rng).shape == (1,)
    assert len(cells_made) == 8


def test_negative_duration_rejected_after_a_hit():
    # earlier calls over the same driver and valid durations, with and
    # without cells, leave the check in place for the next call
    spec = GaussianDriver()
    dts = np.array([0.1, 0.2])
    rng = np.random.default_rng(0)
    sample_increments(spec, dts, rng)
    sample_increments(spec, dts, rng, spec.cells(dts))
    with pytest.raises(ValueError, match="durations must be >= 0"):
        sample_increments(spec, np.array([0.1, -0.2]), rng)
    dts[0] = -0.1
    with pytest.raises(ValueError, match="durations must be >= 0"):
        sample_increments(spec, dts, rng)


def test_plan_computes_cells_once(cells_made):
    # every driver's plan computes its cells when it is built; its rows only draw
    rng = np.random.default_rng(6)
    for spec in ALL_DRIVERS:
        plan = plan_dilative(spec, DilationParams(1.0, 1.0), TimeGrid([0.5, 1.0, 2.0]))
        assert plan.cells is cells_made[-1]
        plan.rows(100, lambda n: rng)
    assert len(cells_made) == len(ALL_DRIVERS)


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


def test_two_sided_anchored_at_zero():
    grid = TimeGrid(np.array([-2.0, -0.5, 0.0, 1.0, 3.0]))
    # at delta = 0 the clock is the identity: Y is the two-sided L
    rng = np.random.default_rng(5)
    path = simulate_driving(GaussianDriver(), 0.0, grid, 1, lambda n: rng)
    assert path.value_at(0.0).tolist() == [0.0]


def test_two_sided_gamma_monotone_across_line():
    # the negative half is laid out right to left, so a subordinator keeps
    # nondecreasing paths on the whole line
    grid = TimeGrid(np.linspace(-3.0, 3.0, 25))
    rng = np.random.default_rng(6)
    path = simulate_driving(GammaDriver(1.0, 1.0), 0.0, grid, 1, lambda n: rng).values[0]
    assert np.all(np.diff(path) >= 0)
    assert path[0] < 0 < path[-1]


def test_two_sided_negative_increment_law():
    # L(0) - L(-1.5) must have the plain duration-1.5 increment law
    grid = TimeGrid(np.array([-1.5, 0.0, 1.0]))
    rng = np.random.default_rng(7)
    n = 4000
    paths = simulate_driving(GaussianDriver(1.0, 0.4), 0.0, grid, n, lambda k: rng)
    incs = paths.value_at(0.0) - paths.value_at(-1.5)
    theta = 0.8
    ecf = np.exp(1j * theta * incs).mean()
    want = cmath.exp(1.5 * GaussianDriver(1.0, 0.4).levy_exponent(theta))
    se = math.sqrt((1.0 - abs(ecf) ** 2) / n)
    assert abs(ecf - want) <= 4.0 * se


def test_two_sided_reproducible():
    grid = TimeGrid(np.array([-1.0, 0.0, 1.0]))
    a = simulate_driving(GaussianDriver(), 0.0, grid, 1, lambda n: np.random.default_rng(9))
    b = simulate_driving(GaussianDriver(), 0.0, grid, 1, lambda n: np.random.default_rng(9))
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
    # a field that the driver or its jump law does not declare, e.g. a typo
    with pytest.raises(ValueError, match="gaussian driver has no field 'varaince'"):
        driver_from_dict({"kind": "gaussian", "varaince": 4.0})
    with pytest.raises(ValueError, match="gamma driver has no field 'jumps'"):
        driver_from_dict({"kind": "gamma", "jumps": {"kind": "gaussian"}})
    with pytest.raises(ValueError, match="gaussian jump law has no field 'std'"):
        driver_from_dict({"kind": "compound_poisson", "jumps": {"kind": "gaussian", "std": 2}})


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
    with pytest.raises(ValueError, match="jumps must be GaussianJumps or TwoPointJumps"):
        CompoundPoissonDriver(jumps=3)
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


@pytest.mark.parametrize("spec", ALL_DRIVERS, ids=repr)
def test_stable_part_states_the_exponent(spec):
    # stable_part = (p, c) exactly when the exponent is i m theta - c |theta|^p
    want = {
        GaussianDriver: lambda s: (2.0, 0.5 * s.variance),
        SymmetricStableDriver: lambda s: (s.index, s.scale),
    }.get(type(spec), lambda s: None)(spec)
    assert spec.stable_part == want
    if want is not None:
        p, c = want
        th = np.array([-2.5, -0.3, 0.0, 0.7, 4.0])
        law = 1j * spec.mean_rate() * th - c * np.abs(th) ** p
        np.testing.assert_allclose(spec.levy_exponent(th), law, rtol=1e-15)


@pytest.mark.parametrize(
    "data, field",
    [
        ({"kind": "gaussian", "variance": True}, "variance"),
        ({"kind": "symmetric_stable", "index": False}, "index"),
        ({"kind": "compound_poisson", "jumps": {"kind": "two_point", "magnitude": True}}, "magnitude"),
    ],
)
def test_boolean_fields_are_no_numbers(data, field):
    # float(True) would read as 1.0
    with pytest.raises(ValueError, match=f"field {field} must be a number"):
        driver_from_dict(data)


def test_two_sided_is_one_stream_of_anchored_sums():
    # the increments over every cell, drawn left to right from one stream,
    # summed from L(0) = 0 in both directions
    grid = TimeGrid(np.array([-2.0, -0.5, 0.0, 1.0, 3.0]))
    rng = np.random.default_rng(3)
    path = simulate_driving(GammaDriver(1.0, 1.0), 0.0, grid, 1, lambda n: rng).values[0]
    inc = sample_increments(GammaDriver(1.0, 1.0), np.diff(grid.points), np.random.default_rng(3))
    np.testing.assert_allclose(np.diff(path), inc, rtol=1e-15)
    assert path[2] == 0.0


def test_poisson_cell_limit_is_numpys():
    # numpy's Generator.poisson draws at the limit and refuses the next float
    limit = CompoundPoissonDriver.cell_limit
    rng = np.random.default_rng(0)
    assert rng.poisson(limit) >= 0
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(np.nextafter(limit, np.inf))
    assert CompoundPoissonDriver(rate=limit).cells(np.ones(1))[0][0] == limit
    with pytest.raises(ValueError, match=r"or past 9\.22337e\+18"):
        CompoundPoissonDriver(rate=float(np.nextafter(limit, np.inf))).cells(np.ones(1))


TWO_SIDED = TimeGrid(np.arange(-2.0, 3.0))
OVERFLOWING_CELLS = {
    "simulate_driving_delta_0": lambda spec, rng: simulate_driving(
        spec, 0.0, TWO_SIDED, 1, lambda n: rng
    ),
    "simulate_driving": lambda spec, rng: simulate_driving(spec, 1.0, TWO_SIDED, 1, lambda n: rng),
    "sample_increments": lambda spec, rng: sample_increments(spec, np.ones(3), rng),
    "sample_increments_scalar": lambda spec, rng: sample_increments(spec, 1.0, rng),
    "plan_dilative": lambda spec, rng: plan_dilative(
        spec, DilationParams(1.0, 1.0), TimeGrid([0.5, 1.0])
    ),
}


@pytest.mark.parametrize("errstate", ["raise", "warn", "ignore"])
@pytest.mark.parametrize("sampler", list(OVERFLOWING_CELLS))
@pytest.mark.parametrize(
    "spec",
    [SymmetricStableDriver(0.3, 1e300), CompoundPoissonDriver(rate=1e300)],
    ids=["stable", "poisson"],
)
def test_every_sampler_names_the_driver_whose_cells_it_cannot_draw(errstate, sampler, spec):
    # (scale * dt)**(1/index) overflows, and a Poisson mean of 1e300 is past
    # numpy's limit: one ValueError naming the driver, with no RuntimeWarning
    # and no numpy error, whatever the caller's errstate
    with np.errstate(all=errstate), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="float range") as exc:
            OVERFLOWING_CELLS[sampler](spec, np.random.default_rng(0))
    assert json.dumps(driver_to_dict(spec)) in str(exc.value)
    assert "lam value" not in str(exc.value)


@pytest.mark.parametrize("errstate", ["raise", "warn", "ignore"])
@pytest.mark.parametrize(
    "durations, seed", [(np.full(6, 1.0), 0), (1.0, 34)], ids=["array", "scalar"]
)
def test_sample_increments_refuses_draws_out_of_the_float_range(errstate, durations, seed):
    # scale * tan(u) overflows for |tan(u)| > 17.9: at index 3 of seed 0's six
    # draws, and at seed 34's one; the finite cells pass, the increment does not
    spec = SymmetricStableDriver(1.0, 1e307)
    with np.errstate(all=errstate), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="float range") as exc:
            sample_increments(spec, durations, np.random.default_rng(seed))
    assert str(exc.value) == f"{spec._named()} draws increments out of the float range"


def test_cells_name_nan_durations():
    with pytest.raises(ValueError, match="the driver .*gaussian.* up to nan"):
        GaussianDriver().cells(np.array([1.0, math.nan]))


@pytest.mark.parametrize(
    "make, what",
    [
        (lambda: GammaDriver(1.0, 1e-200), "variance"),  # rate**2 underflows to 0
        (lambda: GammaDriver(1.0, 1e-160), "variance"),  # shape / rate**2 overflows
        (lambda: GammaDriver(1e308, 1e-10), "mean"),
        (lambda: GammaDriver(5e-324, 5e-324), "variance"),  # mean 1, variance 1 / 5e-324
        (lambda: CompoundPoissonDriver(1e300, GaussianJumps(0.0, 1e300)), "variance"),
        (lambda: CompoundPoissonDriver(1e300, GaussianJumps(1e300, 0.0)), "mean"),
        (lambda: CompoundPoissonDriver(1.0, GaussianJumps(1e200, 0.0)), "variance"),  # mean**2
        (lambda: CompoundPoissonDriver(1.0, TwoPointJumps(1e200)), "variance"),  # magnitude**2
    ],
    ids=[
        "gamma-rate-squared-underflows",
        "gamma-variance-overflows",
        "gamma-mean-overflows",
        "gamma-least-subnormals",
        "poisson-variance-overflows",
        "poisson-mean-overflows",
        "gaussian-jump-mean-squared",
        "two-point-magnitude-squared",
    ],
)
def test_driver_refuses_moments_out_of_the_float_range(make, what):
    with pytest.raises(ValueError, match="out of the float range") as exc:
        make()
    assert str(exc.value).startswith('the driver {"kind": ')
    if what is not None:
        assert f"the {what} of L(1)" in str(exc.value)


def test_gamma_moments_stay_exact_and_finite_at_extreme_rates():
    assert GammaDriver(2.0, 3.0).variance_rate() == 2.0 / 3.0**2
    # rate**2 overflows, the variance is below the float range
    assert GammaDriver(1.0, 1e200).variance_rate() == 0.0
    assert GammaDriver(1.0, 1e200).mean_rate() == 1e-200
    # a variance the law makes infinite is not refused
    assert SymmetricStableDriver(1.5, 1e300).variance_rate() == math.inf
