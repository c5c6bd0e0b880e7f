import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dilastab import (
    CompoundPoissonDriver,
    DegenerateDelta,
    DilationParams,
    GammaDriver,
    GaussianDriver,
    GaussianJumps,
    TRANSFORMS,
    GridMissingUnit,
    InadmissibleParams,
    NonPositiveTime,
    SamplePath,
    SimulationPlan,
    SymmetricStableDriver,
    TimeGrid,
    apply_transforms,
    driver_to_dict,
    extract_background,
    ibp_integral,
    ou_evolve,
    ou_from_integral,
    plan_dilative,
    rs_integral,
    sample_increments,
    simulate_dilative,
    simulate_driving,
    simulate_ensemble,
    tau,
)
from dilastab import processes
from dilastab.processes import _truncation_point, pull_back
from dilastab.timechange import tau_density
from test_drivers import ALL_DRIVERS

UNIT = DilationParams(1.0, 1.0)
OUT = TimeGrid(np.array([0.5, 1.0, 2.0, 4.0]))


def test_params_derived_exponents():
    assert UNIT.hurst == 0.5
    assert UNIT.ou_rate == -0.5
    p = DilationParams(0.8, 0.6)
    assert p.hurst == pytest.approx(0.5, rel=1e-15)
    assert p.ou_rate == pytest.approx(-0.5, rel=1e-15)
    n = DilationParams(1.0, -1.0)
    assert n.hurst == 1.5
    assert n.ou_rate == -1.5


def test_plan_rejects_bad_inputs():
    log_out = np.log(OUT.points)
    with pytest.raises(InadmissibleParams) as exc:
        plan_dilative(GaussianDriver(), DilationParams(0.3, 1.0), log_out)
    assert exc.value.verdict is not None
    with pytest.raises(ValueError):
        plan_dilative(GaussianDriver(), UNIT, log_out, refine=0.5)
    with pytest.raises(ValueError):
        plan_dilative(GaussianDriver(), UNIT, log_out, tail_tol=0.0)


@pytest.mark.parametrize("errstate", ["raise", "warn", "ignore"])
@pytest.mark.parametrize(
    "alpha, delta, t_max",
    [
        (1e308, 1.0, 2.0),  # the weights and the truncation point
        (1e5, 800.0, 2.0),  # the clock
        (400.0, 800.0, 2.0),  # the clock of the alpha = delta/2 branch
        (2.0, 1.0, 1e300),  # the weights at a late time
    ],
)
def test_plan_names_what_leaves_the_float_range(errstate, alpha, delta, t_max):
    # a one-line error naming alpha and delta, whatever the caller's errstate,
    # instead of numpy's FloatingPointError or warning and an inf in the plan
    with np.errstate(all=errstate), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="float range") as exc:
            plan_dilative(GaussianDriver(), DilationParams(alpha, delta), np.log([0.5, t_max]))
    message = str(exc.value)
    assert f"alpha = {alpha!r}" in message and f"delta = {delta!r}" in message
    assert f"{math.log(t_max):.6g}]" in message


def test_degenerate_plan_has_one_cell_per_output():
    params = DilationParams(0.5, 1.0)
    spec = GaussianDriver()
    plan = plan_dilative(spec, params, np.log(OUT.points))
    # one cell of unit weight per output time, each output the sum up to it
    assert plan.durations.shape == plan.weights.shape == (len(OUT),)
    assert plan.weights.tolist() == [1.0] * len(OUT)
    assert plan.out_index.tolist() == list(range(1, len(OUT) + 1))
    # the increments are read straight off the clock at the output knots
    np.testing.assert_allclose(plan.durations.cumsum(), OUT.points / (math.e - 1.0), rtol=1e-14)
    rng, ref = np.random.default_rng(0), np.random.default_rng(0)
    vals = plan.rows(1, lambda n: rng)[0]
    assert vals.shape == (len(OUT),)
    assert vals.tobytes() == sample_increments(spec, plan.durations, ref).cumsum().tobytes()


def test_plan_rejects_negative_durations():
    with pytest.raises(ValueError, match="durations must be >= 0"):
        SimulationPlan(GaussianDriver(), UNIT, np.array([0.1, -0.2]), np.ones(2), np.arange(1, 3))


def test_truncation_point_takes_an_underflowing_log_in_pieces():
    q = tau_density(50.0, 0.0)
    spec = GaussianDriver(variance=1e-310)
    assert spec.variance * q == 0.0
    # log(0.5 tol^2 * 2 alpha / (m2 q)) / (2 alpha), with the log of the
    # product taken as the sum of its factors' logs
    want = (math.log(0.5 * 1e-4**2 * 60.0) - math.log(1e-310) - math.log(q)) / 60.0
    assert _truncation_point(spec, DilationParams(30.0, 50.0), 1e-4) == want
    assert round(want, 2) == 12.41
    # where the product is a normal float, the log of the quotient as before
    q = tau_density(1.0, 0.0)
    want = math.log(0.5 * 1e-4**2 * 2.0 / (1.0 * q)) / 2.0
    assert _truncation_point(GaussianDriver(), UNIT, 1e-4) == want


def test_degenerate_variance_matches_clock():
    # at alpha = delta/2 the process is the driver read at t^d / (e^d - 1)
    params = DilationParams(0.5, 1.0)
    rng = np.random.default_rng(12)
    n = 4000
    plan = plan_dilative(GaussianDriver(), params, np.log(OUT.points))
    draws = plan.rows(n, lambda i: rng)
    for j, t in enumerate(OUT.points):
        want = t / (math.e - 1.0)
        got = draws[:, j].var()
        se = want * math.sqrt(2.0 / n)
        assert abs(got - want) <= 4.0 * se


def test_simulate_validates_times():
    rng = np.random.default_rng(0)
    with pytest.raises(NonPositiveTime):
        simulate_dilative(
            GaussianDriver(), UNIT, TimeGrid(np.array([-1.0, 1.0])), rng
        )
    with pytest.raises(NonPositiveTime):
        simulate_dilative(GaussianDriver(), UNIT, TimeGrid(np.array([0.0, 1.0])), rng)


def test_simulate_reproducible():
    a = simulate_dilative(GaussianDriver(), UNIT, OUT, np.random.default_rng(7))
    b = simulate_dilative(GaussianDriver(), UNIT, OUT, np.random.default_rng(7))
    assert np.array_equal(a.values, b.values)
    assert a.role == "X"


def test_variance_at_unit_time():
    # Var X_1 = q / (2 alpha) with q = 1 / (e - 1) for alpha = delta = 1
    want = 0.2909883534346632
    n = 4000
    rng = np.random.default_rng(13)
    plan = plan_dilative(GaussianDriver(), UNIT, np.array([0.0]), refine=64.0)
    draws = plan.rows(n, lambda i: rng)[:, 0]
    se = want * math.sqrt(2.0 / n)
    assert abs(draws.var() - want) <= 4.0 * se


def _summed_per_row(plan, n_rows, rng_of):
    """The reference for rows: each row's increments weighed and summed on their own.

    Row n is (weights * increments).cumsum() at the output positions, with a
    leading 0.0 where the plan starts at an output time.
    """
    take = plan.out_index[plan.out_index > 0] - 1
    lead = [0.0] * int(plan.out_index[0] == 0)
    rows = []
    for n in range(n_rows):
        increments = sample_increments(plan.spec, plan.durations, rng_of(n), plan.cells)
        rows.append(np.concatenate([lead, (plan.weights * increments).cumsum()[take]]))
    return np.array(rows).reshape(n_rows, plan.out_index.size)


def _block_rows(plan):
    """Rows per block of SimulationPlan.rows for this plan."""
    return max(1, processes._BLOCK_FLOATS // max(plan.durations.size, 1))


BLOCK_PLANS = {
    **{repr(spec): (spec, UNIT, [0.5, 1.0, 2.0]) for spec in ALL_DRIVERS},
    # the truncation point lies above t = 0.5, so X_0.5 = 0: the first column
    "starts-at-an-output": (
        SymmetricStableDriver(0.05, 1.0),
        DilationParams(30.0, 1.0),
        [0.5, 2.0],
    ),
    # no cells at all: one output time, X = 0
    "no-cells": (GaussianDriver(0.0, 0.0), UNIT, [1.0]),
}


@pytest.mark.parametrize("case", BLOCK_PLANS)
def test_rows_sum_blocks_as_each_row_alone(case):
    spec, params, times = BLOCK_PLANS[case]
    plan = plan_dilative(spec, params, np.log(times))
    if case == "starts-at-an-output":
        assert plan.out_index[0] == 0
    if case == "no-cells":
        assert plan.durations.size == 0
    block = _block_rows(plan)
    for n_rows in sorted({0, 1, block - 1, block, block + 1, 3 * block + 5}):

        def rng_of(n):
            return np.random.default_rng([n_rows, n])

        got = plan.rows(n_rows, rng_of)
        assert got.shape == (n_rows, len(times))
        assert got.tobytes() == _summed_per_row(plan, n_rows, rng_of).tobytes()
        if plan.out_index[0] == 0:
            assert (got[:, 0] == 0.0).all()


def test_an_ensemble_is_a_prefix_of_a_larger_one_across_blocks():
    times = (0.5, 1.0, 2.0)
    plan = plan_dilative(GaussianDriver(), UNIT, np.log(times))
    block = _block_rows(plan)
    n = 3 * block + 5
    big = simulate_ensemble(GaussianDriver(), UNIT, times, n, master_seed=5).values
    for m in (1, block - 1, block, block + 1, 2 * block + 3, n):
        small = simulate_ensemble(GaussianDriver(), UNIT, times, m, master_seed=5).values
        assert small.tobytes() == big[:m].tobytes()


@pytest.mark.parametrize(
    "spec, refine, n_rows, cells",
    [(GammaDriver(1.0, 1.0), 64.0, 1000, 710), (SymmetricStableDriver(1.5, 1.0), 8.0, 4000, 81)],
    ids=["gamma", "stable"],
)
def test_rows_memory_stays_flat_in_the_row_count(spec, refine, n_rows, cells):
    # beyond the (n_rows, outputs) result, rows holds a block of increments,
    # not all of them: the whole (n_rows, cells) matrix of gamma is 5.7 MB
    plan = plan_dilative(spec, UNIT, np.log(np.geomspace(0.5, 8.0, 8)), refine=refine)
    assert plan.durations.size == cells
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        values = plan.rows(n_rows, lambda n: rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - values.nbytes < 2**20


@pytest.mark.parametrize("spec", ALL_DRIVERS, ids=repr)
def test_floats_per_cell_bound_a_plan_and_its_first_row(spec):
    # check_memory guards _FLOATS_PER_CELL floats per cell before a plan is
    # built; at 9 it under-counted stable 1.5, which peaked at 10 per cell
    # when each path was drawn into a new array and copied into the block
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        plan = plan_dilative(spec, UNIT, np.log([0.5, 1.0, 2.0]), refine=20000.0)
        plan.rows(1, lambda n: rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cells = plan.durations.size
    assert cells > 10**5
    # a few KiB of array headers and Python objects do not grow with the cells
    assert peak <= processes._FLOATS_PER_CELL * 8 * cells + 2**14


def test_round_trip_recovers_background():
    rng = np.random.default_rng(3)
    grid = TimeGrid(np.exp(np.array([-1.0, -0.25, 0.0, 0.5, 1.2])))
    x = simulate_dilative(GaussianDriver(), UNIT, grid, rng, refine=4.0, tail_tol=1e-2)
    y = extract_background(x, UNIT)
    assert y.role == "Y"
    assert y.value_at(0.0) == 0.0
    # re-integrating the recovered increments against the same weight gives
    # the original increments back
    pts = x.grid.points
    h = UNIT.hurst
    rebuilt = np.cumsum(
        np.concatenate([[x.values[0]], pts[:-1] ** h * np.diff(y.values)])
    )
    # align both at the unit-time knot
    i1 = x.grid.index_of(1.0)
    rebuilt += x.values[i1] - rebuilt[i1]
    assert np.allclose(rebuilt, x.values, rtol=0, atol=1e-12)


def test_extract_background_needs_only_the_weights():
    # the clock tau(5, 150) overflows, but the weights e^(H u) do not
    grid = TimeGrid(np.exp(np.array([0.0, 100.0, 150.0])))
    x = SamplePath(grid, np.array([0.0, 1.0, 2.0]))
    y = extract_background(x, DilationParams(3.0, 5.0))
    assert np.array_equal(y.values, [0.0, 1.0, 1.0])


@pytest.mark.parametrize("errstate", ["raise", "warn", "ignore"])
def test_extract_background_names_weights_that_underflow(errstate):
    # e^(29.5 u) is 0 at u = -30 and -26: one ValueError naming alpha, delta
    # and the times, where the division gave an all-nan Y, whatever the errstate
    grid = TimeGrid(np.exp([-30.0, -26.0, 0.0]))
    x = SamplePath(grid, np.array([0.0, 0.0, 1.0]))
    with np.errstate(all=errstate), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="float range") as exc:
            extract_background(x, DilationParams(30.0, 1.0))
    message = str(exc.value)
    assert message.startswith("alpha = 30.0 and delta = 1.0 ")
    assert f"times in [{grid.points[0]:.6g}, 1]" in message


def test_extract_background_needs_unit_knot():
    grid = TimeGrid(np.array([0.5, 2.0]))
    x = SamplePath(grid, np.array([0.1, 0.4]))
    with pytest.raises(GridMissingUnit):
        extract_background(x, UNIT)
    bad = SamplePath(TimeGrid(np.array([-1.0, 1.0])), np.array([0.0, 0.2]))
    with pytest.raises(NonPositiveTime):
        extract_background(bad, UNIT)


def test_lamperti_round_trip():
    rng = np.random.default_rng(4)
    x = simulate_dilative(GaussianDriver(), UNIT, OUT, rng)
    v = apply_transforms(x, UNIT, ("lamperti",))
    assert type(v) is SamplePath and v.role == "V"
    assert np.allclose(v.grid.points, np.log(OUT.points), rtol=1e-14)
    back = apply_transforms(v, UNIT, ("lamperti_inverse",))
    assert back.role == "X"
    assert np.allclose(back.values, x.values, rtol=1e-14)
    assert np.allclose(back.grid.points, x.grid.points, rtol=1e-14)


def test_lamperti_rejects_nonpositive_times():
    bad = SamplePath(TimeGrid(np.array([0.0, 1.0])), np.array([0.0, 0.3]))
    with pytest.raises(NonPositiveTime):
        apply_transforms(bad, UNIT, ("lamperti",))


def test_ou_evolve_zero_noise():
    # with a flat driving path the evolution is the pure exponential decay,
    # returned on the [a, b] segment of the grid
    grid = TimeGrid(np.array([-1.0, -0.5, 0.0, 0.5, 1.0]))
    y = SamplePath(grid, np.zeros(5), role="Y")
    v = ou_evolve(1.3, y, -0.5, 0.0, 1.0)
    assert v.role == "V"
    seg = grid.points[2:]
    assert np.allclose(v.grid.points, seg, rtol=1e-15)
    assert np.allclose(v.values, 1.3 * np.exp(-0.5 * seg), rtol=1e-14)


def test_ou_evolve_flow_identity():
    # V_t = e^(rate (t-s)) V_s + e^(rate t) * integral_s^t e^(-rate u) dY_u
    # must hold exactly at grid level
    rng = np.random.default_rng(5)
    grid = TimeGrid(np.linspace(-1.5, 1.5, 13))
    vals = np.concatenate([[0.0], np.cumsum(rng.normal(size=12) * 0.3)])
    vals -= vals[grid.index_of(0.0)]
    y = SamplePath(grid, vals, role="Y")
    rate = -0.7
    full = ou_evolve(0.83, y, rate, -1.5, 1.5)
    s, t = 0.75, 1.5
    integral = rs_integral(lambda u: np.exp(-rate * u), y, s, t)
    rhs = math.exp(rate * (t - s)) * full.value_at(s) + math.exp(rate * t) * integral
    assert full.value_at(t) == pytest.approx(rhs, rel=1e-12)


def test_ou_evolve_requires_anchor_knots():
    grid = TimeGrid(np.array([-1.0, 1.0]))
    y = SamplePath(grid, np.array([-0.2, 0.5]), role="Y")
    with pytest.raises(Exception):
        ou_evolve(0.0, y, -0.5, 0.0, 1.0)


def test_ou_from_integral_matches_transform():
    log_out = TimeGrid(np.array([-0.7, 0.0, 0.7, 1.4]))
    out = TimeGrid(np.exp(log_out.points))
    for seed in range(5):
        v = ou_from_integral(GaussianDriver(), UNIT, log_out, np.random.default_rng(seed))
        x = simulate_dilative(GaussianDriver(), UNIT, out, np.random.default_rng(seed))
        w = apply_transforms(x, UNIT, ("lamperti",))
        assert v.role == "V"
        assert np.allclose(v.values, w.values, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("errstate", ["raise", "warn", "ignore"])
def test_ou_from_integral_names_a_weight_that_overflows(errstate):
    # e^(-H u) = e^799 at u = -2 times X = 0 at the truncation point: one
    # ValueError naming alpha and delta, where V was [nan, -3.9e-23]
    grid = TimeGrid(np.array([-2.0, 0.0]))
    params = DilationParams(400.0, 1.0)
    with np.errstate(all=errstate), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="float range") as exc:
            ou_from_integral(GaussianDriver(), params, grid, np.random.default_rng(0))
    message = str(exc.value)
    assert message.startswith("alpha = 400.0 and delta = 1.0 ")
    assert "log times in [-2, 0]" in message


def test_ou_from_integral_rejects_zero_delta():
    params = DilationParams(0.7, 0.0)
    with pytest.raises(DegenerateDelta):
        ou_from_integral(
            GaussianDriver(), params, TimeGrid(np.array([0.0, 1.0])), np.random.default_rng(0)
        )


def test_reparam_time_stable():
    grid = TimeGrid(np.array([-1.0, 0.0, 1.0]))
    v = SamplePath(grid, np.array([0.2, -0.1, 0.4]), role="V")
    z = apply_transforms(v, UNIT, ("time_stable",))
    assert z.role == "Z"
    assert np.allclose(z.grid.points, np.exp(grid.points), rtol=1e-15)
    assert np.array_equal(z.values, v.values)
    with pytest.raises(Exception):
        apply_transforms(SamplePath(grid, np.zeros(3), role="Y"), UNIT, ("time_stable",))


def test_reparam_idt():
    grid = TimeGrid(np.array([-1.0, 0.0, 1.0]))
    vals = np.array([0.2, -0.1, 0.4])
    v = SamplePath(grid, vals, role="V")
    d = apply_transforms(v, UNIT, ("idt",))
    assert d.role == "D"
    assert np.allclose(d.grid.points, np.exp(grid.points), rtol=1e-15)
    assert np.array_equal(d.values, vals)
    # a negative rate reverses the direction of the clock, so both arrays flip
    neg = apply_transforms(v, DilationParams(1.0, -1.0), ("idt",))
    assert np.allclose(neg.grid.points, np.exp(-grid.points[::-1]), rtol=1e-15)
    assert np.array_equal(neg.values, vals[::-1])
    with pytest.raises(DegenerateDelta):
        apply_transforms(v, DilationParams(1.0, 0.0), ("idt",))


@pytest.mark.parametrize("transforms", ["lamperti", "idt", ""])
def test_apply_transforms_and_pull_back_refuse_a_bare_string(transforms):
    # "lamperti" was read letter by letter and refused as unknown transform 'l';
    # "" was an empty chain that mapped nothing
    words = f"transforms must be a sequence of names, got the string {transforms!r}"
    with pytest.raises(ValueError, match=re.escape(words)):
        apply_transforms(SamplePath(OUT, np.ones(4)), UNIT, transforms)
    with pytest.raises(ValueError, match=re.escape(words)):
        pull_back(transforms, 1.0, 2.0)


@pytest.mark.parametrize("errstate", ["raise", "warn", "ignore"])
@pytest.mark.parametrize("delta", [0.0, 0.1])
def test_driving_draws_past_the_float_range_name_the_driver(errstate, delta):
    # increments or their partial sums overflow: one ValueError naming the
    # driver and delta, with no RuntimeWarning, whatever the errstate
    spec = GaussianDriver(5e-324, 1.7e308)
    grid = TimeGrid(np.linspace(-3.0, 3.0, 25))
    with np.errstate(all=errstate), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="float range") as exc:
            simulate_driving(spec, delta, grid, np.random.default_rng(0))
    assert json.dumps(driver_to_dict(spec)) in str(exc.value)
    assert f"at delta = {delta!r} " in str(exc.value)


@pytest.mark.parametrize("errstate", ["raise", "warn", "ignore"])
@pytest.mark.parametrize(
    "points, values",
    [([0.5, 1e308], [1.0, 1.0]), ([0.5, 2.0], [1.0, 1e308])],
    ids=["clock", "weight"],
)
def test_transform_names_what_leaves_the_float_range(errstate, points, values):
    # e^u or t^H * X(t) overflows on finite input: one ValueError naming the
    # transform, alpha, delta and the times, whatever the errstate
    grid = TimeGrid(np.array(points))
    with np.errstate(all=errstate), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="float range") as exc:
            apply_transforms(SamplePath(grid, np.array(values)), UNIT, ("lamperti_inverse",))
        # values that are already non-finite are carried on, not refused
        carried = apply_transforms(SamplePath(grid, np.full(2, math.inf)), UNIT, ("lamperti",))
    message = str(exc.value)
    assert message.startswith("the lamperti_inverse transform at alpha = 1.0 and delta = 1.0 ")
    assert f"times in [{points[0]:.6g}, {points[1]:.6g}]" in message
    assert carried.values.tolist() == [math.inf, math.inf]


def test_simulate_driving_anchor_and_clock():
    log_grid = TimeGrid(np.array([-1.0, 0.0, 0.8]))
    y = simulate_driving(GaussianDriver(), 1.0, log_grid, np.random.default_rng(6))
    assert y.role == "Y"
    assert y.value_at(0.0) == 0.0
    # variance of Y_u - Y_0 is the clock increment tau(u) - tau(0)
    n = 4000
    rng = np.random.default_rng(14)
    draws = np.empty(n)
    for k in range(n):
        p = simulate_driving(GaussianDriver(), 1.0, log_grid, rng)
        draws[k] = p.value_at(0.8)
    want = tau(1.0, 0.8)
    se = want * math.sqrt(2.0 / n)
    assert abs(draws.var() - want) <= 4.0 * se


def test_truncation_tightens_with_tolerance():
    # a stricter tail budget must not shrink the simulated window: the clock
    # covers at least as much total duration and at least as many steps
    log_out = np.array([0.0])
    loose = plan_dilative(GaussianDriver(), UNIT, log_out, tail_tol=1e-2)
    tight = plan_dilative(GaussianDriver(), UNIT, log_out, tail_tol=1e-6)
    assert len(tight.durations) >= len(loose.durations)
    assert tight.durations.sum() >= loose.durations.sum()


def test_stable_simulation_runs():
    rng = np.random.default_rng(15)
    params = DilationParams(1.0, 0.5)
    path = simulate_dilative(SymmetricStableDriver(1.5), params, OUT, rng)
    assert np.all(np.isfinite(path.values))


@given(
    st.sampled_from(sorted(TRANSFORMS)),
    st.one_of(st.floats(-4.0, -0.1), st.floats(0.1, 4.0)),
    st.floats(1e-3, 50.0),
)
def test_transform_inverse_undoes_clock(name, delta, t):
    # each table entry's scalar inverse maps its forward clock back, at
    # either sign of delta; one rounding of exp(delta * t) near 1 moves
    # log(.) / delta by about 1e-16 / |delta|, hence the absolute term
    step = TRANSFORMS[name]
    forward = float(step.clock(np.array([t]), delta)[0])
    assert pull_back((name,), delta, forward) == step.inverse(forward, delta)
    assert step.inverse(forward, delta) == pytest.approx(t, rel=1e-13, abs=1e-14)


def test_pull_back_inverts_a_chain_and_rejects_what_it_cannot():
    t = 1.7
    s = float(np.exp(-0.5 * np.log(t)))  # lamperti then idt at delta = -0.5
    assert pull_back(("lamperti", "idt"), -0.5, s) == pytest.approx(t, rel=1e-14)
    with pytest.raises(ValueError):
        pull_back(("idt",), 1.0, 0.0)
    with pytest.raises(DegenerateDelta):
        pull_back(("idt",), 0.0, 1.0)
    with pytest.raises(ValueError):
        pull_back(("spin",), 1.0, 1.0)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def test_pathwise_functions_take_an_ensemble_row_by_row():
    # every pathwise function works along the last axis: on a 4-row
    # ensemble it gives each row's single-path result bit for bit, on a grid
    # long enough for numpy's pairwise sums to split each row
    params = DilationParams(0.8, 0.6)
    grid = TimeGrid.geometric(math.exp(-2.0), math.exp(2.0), 201)
    x = simulate_ensemble(GaussianDriver(), params, grid, 4, master_seed=5)
    rows = [SamplePath(grid, row) for row in x.values]
    assert x.n_paths == 4 and x.values.shape == (4, 201)
    pts = grid.points
    for t in (pts[0], 1.0, pts[-1]):
        assert _same_bits(x.value_at(t), [row.value_at(t) for row in rows])
    weight, weight_prime = (lambda t: t**-0.3), (lambda t: -0.3 * t**-1.3)
    for a, b in ((pts[0], pts[-1]), (pts[150], pts[7]), (1.0, 1.0)):
        want = [rs_integral(weight, row, a, b) for row in rows]
        assert _same_bits(rs_integral(weight, x, a, b), want)
        want = [ibp_integral(weight, weight_prime, row, a, b) for row in rows]
        assert _same_bits(ibp_integral(weight, weight_prime, x, a, b), want)
    y = extract_background(x, params)
    ys = [extract_background(row, params) for row in rows]
    assert y.role == "Y" and np.array_equal(y.grid.points, ys[0].grid.points)
    assert _same_bits(y.values, [row.values for row in ys])
    u = y.grid.points
    v0s = np.array([0.3, -1.2, 0.0, 2.5])
    for v0 in (0.83, v0s):
        v = ou_evolve(v0, y, params.ou_rate, u[20], u[180])
        each = np.broadcast_to(v0, 4)
        vs = [ou_evolve(r0, row, params.ou_rate, u[20], u[180]) for r0, row in zip(each, ys)]
        assert v.role == "V" and np.array_equal(v.grid.points, vs[0].grid.points)
        assert _same_bits(v.values, [row.values for row in vs])
    chain = ("lamperti", "idt")
    d = apply_transforms(x, params, chain)
    ds = [apply_transforms(row, params, chain) for row in rows]
    assert d.role == "D" and np.array_equal(d.grid.points, ds[0].grid.points)
    assert _same_bits(d.values, [row.values for row in ds])


# _truncation_point(spec, params, 1e-4) away from alpha = delta = 1, recorded
# bit for bit before the stable tail was read from stable_part, for the
# Gaussian with drift, stable 1.5, stable 0.8, compound Poisson and gamma
TAIL_DRIVERS = (
    GaussianDriver(variance=0.7, drift=0.3),
    SymmetricStableDriver(1.5, 0.6),
    SymmetricStableDriver(0.8, 1.3),
    CompoundPoissonDriver(2.0, GaussianJumps(0.5, 0.3)),
    GammaDriver(2.0, 3.0),
)
TAIL_PINS = {
    (0.35, -0.4): (-69.62268895020581, -33.77339586816653, -276.071364665785, -77.64917431237872, -74.94607359165762),
    (0.25, -0.2): (-68.98930020901682, -44.698304367344946, -128.18373868616396, -77.01578557118972, -74.31268485046863),
    (0.7, 0.0): (-13.15762910282312, -12.624661685741765, -14.661526888038178, -14.162269865992696, -13.583033997266748),
    (0.5, 1.0): (-18.21582812596066, -12.763360079585365, -7.089311707435519, -18.667813249703716, -17.06842567312312),
    (1.0, 1.0): (-8.761340472700358, -6.97356816665711, -4.823456764867362, -8.987333034571886, -8.187639246281586),
    (0.8, -0.5): (-16.709787468532877, -12.532064392210136, -26.32073874243414, -18.89882893094367, -18.16161964347428),
    (2.0, 3.0): (-3.8801350222661246, -2.70202948368714, -1.3401595882462156, -3.993131303201889, -3.5932844090567393),
    (0.3, 0.1): (-32.02926995398269, -29.470965846728053, -29.28064244808139, -32.78257849355445, -30.116932532586787),
    (3.0, -1.0): (-3.1581302285772583, -2.8979861403880096, -4.167513912518555, -3.639719350307633, -3.477533307064367),
    (0.05, 0.1): (-210.09321441617666, -155.56853395242373, -98.82805023092527, -214.61306565360724, -198.61918988780127),
}


@pytest.mark.parametrize("alpha, delta", list(TAIL_PINS))
def test_truncation_points_are_pinned_away_from_the_default_pair(alpha, delta):
    params = DilationParams(alpha, delta)
    got = tuple(_truncation_point(spec, params, 1e-4) for spec in TAIL_DRIVERS)
    assert got == TAIL_PINS[(alpha, delta)]


@pytest.mark.parametrize("alpha, delta", list(TAIL_PINS))
def test_rate_is_p_hurst_plus_delta(alpha, delta):
    params = DilationParams(alpha, delta)
    assert params.rate(2.0) == 2.0 * alpha
    assert params.rate(1.0) == params.hurst + delta
    assert params.rate(0.8) == 0.8 * params.hurst + delta


@pytest.mark.parametrize("errstate", ["raise", "warn", "ignore"])
def test_plan_names_the_driver_whose_cells_leave_the_float_range(errstate):
    # (scale * dt)**(1/index) overflows: one line naming the driver, instead of
    # inf cells, numpy's warning and nan paths
    spec = SymmetricStableDriver(0.3, 1e300)
    with np.errstate(all=errstate), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="float range") as exc:
            plan_dilative(spec, UNIT, np.log(OUT.points))
    assert '{"kind": "symmetric_stable", "index": 0.3, "scale": 1e+300}' in str(exc.value)


def test_plan_names_alpha_and_delta_before_the_driver():
    # the weights leave the float range first: the plan blames alpha and
    # delta, and leaves the driver's own check to its cells
    spec = SymmetricStableDriver(0.3, 1e300)
    with pytest.raises(ValueError, match=r"alpha = 1e\+308 and delta = 1.0"):
        plan_dilative(spec, DilationParams(1e308, 1.0), np.log(OUT.points))


def test_only_the_driver_describes_a_driver():
    # the per-cell check and the driver's JSON live in drivers.py alone
    assert not hasattr(processes, "json")
    assert not hasattr(processes, "driver_to_dict")


def test_truncation_point_is_finite_where_moment_times_q_overflows():
    # variance_rate * tau'(0) = 1.7e308 * 1.58 overflows; the log is taken in
    # pieces instead of failing as log(0) and blaming tail_tol
    spec = CompoundPoissonDriver(rate=1.7e308)
    bound = _truncation_point(spec, DilationParams(2.0, -1.0), 1e-4)
    assert math.isfinite(bound) and bound < 0
    with pytest.raises(ValueError, match='the driver {"kind": "compound_poisson"'):
        plan_dilative(spec, DilationParams(2.0, -1.0), np.log(OUT.points))
