import json
import math
import re
import tracemalloc
import warnings
from functools import partial

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
    TwoPointJumps,
    apply_transforms,
    derive_rng,
    driver_to_dict,
    extract_background,
    ou_evolve,
    plan_dilative,
    rs_integral,
    sample_increments,
    simulate_driving,
    simulate_ensemble,
    tau,
)
from dilastab import ecf, processes
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
    with pytest.raises(InadmissibleParams) as exc:
        plan_dilative(GaussianDriver(), DilationParams(0.3, 1.0), OUT)
    assert exc.value.verdict is not None
    with pytest.raises(ValueError):
        plan_dilative(GaussianDriver(), UNIT, OUT, refine=0.5)
    with pytest.raises(ValueError):
        plan_dilative(GaussianDriver(), UNIT, OUT, tail_tol=0.0)


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
            plan_dilative(GaussianDriver(), DilationParams(alpha, delta), TimeGrid([0.5, t_max]))
    message = str(exc.value)
    assert f"alpha = {alpha!r}" in message and f"delta = {delta!r}" in message
    assert f"{math.log(t_max):.6g}]" in message


def test_degenerate_plan_has_one_cell_per_output():
    params = DilationParams(0.5, 1.0)
    spec = GaussianDriver()
    plan = plan_dilative(spec, params, OUT)
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
        SimulationPlan(GaussianDriver(), "delta = 1.0", np.array([0.1, -0.2]), np.ones(2), [1, 2])


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
    plan = plan_dilative(GaussianDriver(), params, OUT)
    draws = plan.rows(n, lambda i: rng)
    for j, t in enumerate(OUT.points):
        want = t / (math.e - 1.0)
        got = draws[:, j].var()
        se = want * math.sqrt(2.0 / n)
        assert abs(got - want) <= 4.0 * se


@pytest.mark.parametrize("first", [-1.0, 0.0, -0.0])
def test_plan_refuses_non_positive_times(first):
    # the plan takes its log times itself: log 0 and log -1 have no float time
    with pytest.raises(NonPositiveTime, match="^output times must be strictly positive$"):
        plan_dilative(GaussianDriver(), UNIT, TimeGrid([first, 1.0]))


def test_plan_refuses_log_times():
    # an array of log times (here u = 0, t = 1) fails loudly, not as a wrong plan
    with pytest.raises(AttributeError, match="points"):
        plan_dilative(GaussianDriver(), UNIT, np.array([0.0]))


def test_plan_rows_reproducible():
    plan = plan_dilative(GaussianDriver(), UNIT, OUT)
    a = plan.rows(1, lambda n: np.random.default_rng(7))[0]
    b = plan.rows(1, lambda n: np.random.default_rng(7))[0]
    assert np.array_equal(a, b)


def test_variance_at_unit_time():
    # Var X_1 = q / (2 alpha) with q = 1 / (e - 1) for alpha = delta = 1
    want = 0.2909883534346632
    n = 4000
    rng = np.random.default_rng(13)
    plan = plan_dilative(GaussianDriver(), UNIT, TimeGrid([1.0]), refine=64.0)
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
        SymmetricStableDriver(1.5, 1.0),
        DilationParams(30.0, 1.0),
        [0.5, 2.0],
    ),
    # no cells at all: one output time, X = 0
    "no-cells": (GaussianDriver(0.0, 0.0), UNIT, [1.0]),
}


@pytest.mark.parametrize("case", BLOCK_PLANS)
def test_rows_sum_blocks_as_each_row_alone(case):
    spec, params, times = BLOCK_PLANS[case]
    plan = plan_dilative(spec, params, TimeGrid(times))
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


@pytest.mark.parametrize(
    "n_rows, words",
    [(2.7, "n_rows must be a number (int), got 2.7"), (True, "got True"), (-1, "n_rows must be >= 0")],
)
def test_rows_reads_n_rows_as_a_whole_count(n_rows, words):
    # 2.7 once drew 2 rows, True 1, and -1 failed in numpy naming no input
    plan = plan_dilative(GaussianDriver(), UNIT, TimeGrid([0.5, 1.0, 2.0]))
    with pytest.raises(ValueError, match=re.escape(words)):
        plan.rows(n_rows, lambda n: np.random.default_rng(n))
    assert plan.rows(2.0, np.random.default_rng).shape == (2, 3)
    assert plan.rows(np.int64(2), np.random.default_rng).shape == (2, 3)


def test_an_ensemble_is_a_prefix_of_a_larger_one_across_blocks():
    times = (0.5, 1.0, 2.0)
    plan = plan_dilative(GaussianDriver(), UNIT, TimeGrid(times))
    block = _block_rows(plan)
    n = 3 * block + 5
    big = simulate_ensemble(GaussianDriver(), UNIT, times, n, master_seed=5).values
    for m in (1, block - 1, block, block + 1, 2 * block + 3, n):
        small = simulate_ensemble(GaussianDriver(), UNIT, times, m, master_seed=5).values
        assert small.tobytes() == big[:m].tobytes()


@pytest.mark.parametrize("delta", [0.0, 1.0], ids=["two-sided-L", "delta-1"])
def test_background_rows_are_one_row_draws_across_blocks(delta):
    # Y's rows from partial(derive_rng, s) are, bit for bit, the one-row
    # draws from derive_rng(s, n), over more than one block of rows, and
    # every row is 0 at log time 0
    grid = TimeGrid(np.linspace(-2.0, 3.0, 401))
    block = max(1, processes._BLOCK_FLOATS // (len(grid) - 1))
    n = 3 * block + 5
    spec = SymmetricStableDriver(1.5, 1.0)
    y = simulate_driving(spec, delta, grid, n, partial(derive_rng, 5))
    assert y.role == "Y" and y.values.shape == (n, len(grid))
    assert (y.value_at(0.0) == 0.0).all()
    for k in range(n):
        one = simulate_driving(spec, delta, grid, 1, lambda m: derive_rng(5, k))
        assert one.values.tobytes() == y.values[k].tobytes()


@pytest.mark.parametrize(
    "spec",
    [
        SymmetricStableDriver(1.5, 1.0),
        GaussianDriver(),
        GammaDriver(1.0, 1.0),
        CompoundPoissonDriver(1.5, TwoPointJumps(0.8)),
    ],
    ids=repr,
)
def test_an_ensemble_draws_each_path_through_run_sample_increments_and_derive_rng(
    monkeypatch, spec
):
    # the benchmark's traced run counts these calls, and its smoke test wants
    # one of run and derive_rng per path; sample_increments is counted by the
    # durations it is given, so each call must get all of the plan's
    plans, seeds, durations = [], [], []

    def run(self, *args, run=SimulationPlan.run):
        plans.append(self)
        return run(self, *args)

    def derive_rng(*args, derive=ecf.derive_rng):
        seeds.append(args)
        return derive(*args)

    def sample(spec, dts, *args, sample=processes.sample_increments):
        durations.append(dts)
        return sample(spec, dts, *args)

    monkeypatch.setattr(SimulationPlan, "run", run)
    monkeypatch.setattr(ecf, "derive_rng", derive_rng)
    monkeypatch.setattr(processes, "sample_increments", sample)
    simulate_ensemble(spec, UNIT, np.geomspace(0.5, 8.0, 8), 300, master_seed=3)
    assert seeds == [(3, n) for n in range(300)]
    assert len(plans) == len(durations) == 300 and all(plan is plans[0] for plan in plans)
    assert all(np.array_equal(d, plans[0].durations) for d in durations)


@pytest.mark.parametrize(
    "spec, refine, n_rows, cells",
    [(GammaDriver(1.0, 1.0), 64.0, 1000, 710), (SymmetricStableDriver(1.5, 1.0), 8.0, 4000, 81)],
    ids=["gamma", "stable"],
)
def test_rows_memory_stays_flat_in_the_row_count(spec, refine, n_rows, cells):
    # beyond the (n_rows, outputs) result, rows holds a block of increments,
    # not all of them: the whole (n_rows, cells) matrix of gamma is 5.7 MB
    plan = plan_dilative(spec, UNIT, TimeGrid(np.geomspace(0.5, 8.0, 8)), refine=refine)
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
        plan = plan_dilative(spec, UNIT, TimeGrid([0.5, 1.0, 2.0]), refine=20000.0)
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
    plan = plan_dilative(GaussianDriver(), UNIT, grid, refine=4.0, tail_tol=1e-2)
    x = SamplePath(grid, plan.rows(1, lambda n: rng)[0])
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


def test_extract_background_refuses_a_path_that_is_not_x():
    # a V path's values were divided by X's weights and returned as a Y
    v = SamplePath(TimeGrid([0.5, 1.0, 2.0]), np.array([0.1, 0.0, 0.3]), role="V")
    with pytest.raises(ValueError, match="^extract_background expects an X path, got V$"):
        extract_background(v, UNIT)


def test_lamperti_round_trip():
    rng = np.random.default_rng(4)
    x = SamplePath(OUT, plan_dilative(GaussianDriver(), UNIT, OUT).rows(1, lambda n: rng)[0])
    v = apply_transforms(x, UNIT, ("lamperti",))
    assert type(v) is SamplePath and v.role == "V"
    assert np.allclose(v.grid.points, np.log(OUT.points), rtol=1e-14)
    back = apply_transforms(v, UNIT, ("lamperti_inverse",))
    assert back.role == "X"
    assert np.allclose(back.values, x.values, rtol=1e-14)
    assert np.allclose(back.grid.points, x.grid.points, rtol=1e-14)


def test_lamperti_rejects_nonpositive_times():
    bad = SamplePath(TimeGrid(np.array([0.0, 1.0])), np.array([0.0, 0.3]))
    with pytest.raises(NonPositiveTime) as exc:
        apply_transforms(bad, UNIT, ("lamperti",))
    # named as every other refusal of the chain: the transform, alpha, delta
    # and the times it was given
    assert str(exc.value) == (
        "the lamperti transform at alpha = 1.0 and delta = 1.0 takes times in [0, 1]; "
        "its log clock needs strictly positive times"
    )


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


def test_ou_evolve_refuses_a_after_b():
    grid = TimeGrid(np.array([-1.0, 0.0, 1.0]))
    y = SamplePath(grid, np.array([-0.2, 0.0, 0.5]), role="Y")
    with pytest.raises(ValueError, match="need a <= b"):
        ou_evolve(0.0, y, -0.5, 1.0, 0.0)


def test_ou_evolve_refuses_a_driver_that_is_not_y():
    # an X path's increments were integrated as Y's and returned as a V
    x = SamplePath(TimeGrid([-1.0, 0.0, 1.0]), np.array([-0.2, 0.0, 0.5]))
    with pytest.raises(ValueError, match="^ou_evolve expects a Y driver, got X$"):
        ou_evolve(0.5, x, -0.5, 0.0, 1.0)


def test_ou_evolve_requires_anchor_knots():
    grid = TimeGrid(np.array([-1.0, 1.0]))
    y = SamplePath(grid, np.array([-0.2, 0.5]), role="Y")
    with pytest.raises(Exception):
        ou_evolve(0.0, y, -0.5, 0.0, 1.0)


@pytest.mark.parametrize("errstate", ["raise", "warn", "ignore"])
def test_lamperti_names_a_weight_that_overflows(errstate):
    # e^(-H u) = e^799 at u = -2 times X = 0 at the truncation point: one
    # ValueError naming alpha and delta, where V was [nan, -3.9e-23]
    params = DilationParams(400.0, 1.0)
    with np.errstate(all=errstate), warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = TimeGrid(np.exp([-2.0, 0.0]))
        rng = np.random.default_rng(0)
        plan = plan_dilative(GaussianDriver(), params, grid)
        x = SamplePath(grid, plan.rows(1, lambda n: rng)[0])
        with pytest.raises(ValueError, match="float range") as exc:
            apply_transforms(x, params, ("lamperti",))
    assert str(exc.value) == (
        "the lamperti transform at alpha = 400.0 and delta = 1.0 takes times in "
        "[0.135335, 1] or the values on them out of the float range"
    )


@pytest.mark.parametrize("errstate", ["raise", "warn", "ignore"])
@pytest.mark.parametrize(
    "log_times, shown",
    [([-800.0, 0.0], "[-800, 0]"), ([0.0, 710.0], "[0, 710]"), ([-1000.0, 1000.0], "[-1000, 1000]")],
    ids=["underflow", "overflow", "both"],
)
def test_exp_clocks_refuse_log_times_with_no_float_time(errstate, log_times, shown):
    # e^u underflows to 0 below about -745: lamperti_inverse made an X refused
    # for not starting at 0, and time_stable and idt a grid at time 0 that no
    # log clock pulls back
    v = SamplePath(TimeGrid(np.array(log_times)), np.array([0.3, -0.2]), role="V")
    for name in ("lamperti_inverse", "time_stable", "idt"):
        with np.errstate(all=errstate), warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                apply_transforms(v, UNIT, (name,))
        assert str(exc.value) == (
            f"the {name} transform at alpha = 1.0 and delta = 1.0 takes times in {shown} "
            "or the values on them out of the float range"
        )


@pytest.mark.parametrize(
    "name, times, shown",
    [
        ("lamperti", [1e300, np.nextafter(1e300, math.inf)], "[1e+300, 1e+300]"),
        ("lamperti_inverse", [-1e-20, 0.0], "[-1e-20, 0]"),
        ("time_stable", [-1e-20, 0.0], "[-1e-20, 0]"),
        ("idt", [-1e-20, 0.0], "[-1e-20, 0]"),
    ],
    ids=["lamperti", "lamperti_inverse", "time_stable", "idt"],
)
def test_a_transform_refuses_to_take_distinct_times_to_one(name, times, shown):
    # TimeGrid had refused the merged times in a line naming no transform
    role = "X" if name == "lamperti" else "V"
    path = SamplePath(TimeGrid(np.array(times)), np.array([0.3, -0.2]), role=role)
    with pytest.raises(ValueError) as exc:
        apply_transforms(path, UNIT, (name,))
    assert str(exc.value) == (
        f"the {name} transform at alpha = 1.0 and delta = 1.0 takes times in {shown} "
        "to float times that are not strictly increasing"
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


def applicable_chains(role, longest=2):
    """Every chain of 1 to `longest` TRANSFORMS names whose steps accept the role before them."""
    chains, frontier = [], [((), role)]
    for _ in range(longest):
        frontier = [
            (chain + (name,), step.role)
            for chain, before in frontier
            for name, step in TRANSFORMS.items()
            if step.source in (None, before)
        ]
        chains += [chain for chain, _ in frontier]
    return chains


@pytest.mark.parametrize("delta", [1.0, -0.5])
@pytest.mark.parametrize("role", ["X", "V"])
def test_no_chain_output_shares_memory_with_its_input(role, delta):
    # a relabel-only step copies the values it is handed and relabels the
    # chain's own matrix in place (as a reversed view where delta < 0)
    params = DilationParams(1.0, delta)
    grid = TimeGrid(np.array([1.5, 2.0, 2.5, 3.0]))
    chains = applicable_chains(role)
    assert len(chains) == {"X": 8, "V": 14}[role]
    for chain in chains:
        path = SamplePath(grid, np.arange(8.0).reshape(2, 4), role=role)
        out = apply_transforms(path, params, chain)
        assert not np.shares_memory(out.values, path.values), chain
        assert np.array_equal(path.values, np.arange(8.0).reshape(2, 4)), chain


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
            simulate_driving(spec, delta, grid, 1, lambda n: np.random.default_rng(0))
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


@pytest.mark.parametrize("errstate", ["raise", "warn", "ignore"])
def test_driving_refuses_anchored_sums_past_the_float_range(errstate):
    # the sums from the first grid point stay finite, but Y, the same sums
    # less the one at log time 0, does not: refused with no RuntimeWarning,
    # whatever the errstate
    spec = SymmetricStableDriver(1.0, 1e307)
    grid = TimeGrid(np.linspace(-3.0, 3.0, 7))
    increments = sample_increments(spec, np.diff(grid.points), np.random.default_rng(905))
    assert np.isfinite(np.cumsum(increments)).all()
    with np.errstate(all=errstate), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at delta = 0.0 draws increments or sums of them"):
            simulate_driving(spec, 0.0, grid, 1, lambda n: np.random.default_rng(905))


def test_simulate_driving_anchor_and_clock():
    log_grid = TimeGrid(np.array([-1.0, 0.0, 0.8]))
    # variance of Y_u - Y_0 is the clock increment tau(u) - tau(0)
    n = 4000
    rng = np.random.default_rng(14)
    y = simulate_driving(GaussianDriver(), 1.0, log_grid, n, lambda k: rng)
    assert y.role == "Y" and y.values.shape == (n, 3)
    assert (y.value_at(0.0) == 0.0).all()
    draws = y.value_at(0.8)
    want = tau(1.0, 0.8)
    se = want * math.sqrt(2.0 / n)
    assert abs(draws.var() - want) <= 4.0 * se


def test_simulate_driving_anchors_at_the_first_point_without_log_time_zero():
    # no grid point at u = 0: Y starts at 0 on the first point and sums the
    # driver's increments over the clock from there
    log_grid = TimeGrid(np.array([0.5, 1.0, 2.0]))
    rng = np.random.default_rng(6)
    y = simulate_driving(GaussianDriver(), 1.0, log_grid, 1, lambda n: rng).values[0]
    durations = np.diff(tau(1.0, log_grid.points))
    increments = sample_increments(GaussianDriver(), durations, np.random.default_rng(6))
    assert y.tolist() == [0.0, *np.cumsum(increments)]


def test_truncation_tightens_with_tolerance():
    # a stricter tail budget must not shrink the simulated window: the clock
    # covers at least as much total duration and at least as many steps
    unit = TimeGrid([1.0])
    loose = plan_dilative(GaussianDriver(), UNIT, unit, tail_tol=1e-2)
    tight = plan_dilative(GaussianDriver(), UNIT, unit, tail_tol=1e-6)
    assert len(tight.durations) >= len(loose.durations)
    assert tight.durations.sum() >= loose.durations.sum()


def test_stable_simulation_runs():
    rng = np.random.default_rng(15)
    params = DilationParams(1.0, 0.5)
    path = plan_dilative(SymmetricStableDriver(1.5), params, OUT).rows(1, lambda n: rng)[0]
    assert np.all(np.isfinite(path))


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
    weight = lambda t: t**-0.3
    for a, b in ((pts[0], pts[-1]), (pts[150], pts[7]), (1.0, 1.0)):
        want = [rs_integral(weight, row, a, b) for row in rows]
        assert _same_bits(rs_integral(weight, x, a, b), want)
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
# Gaussian with drift, stable 1.5, stable 0.8, compound Poisson and gamma;
# the stable 0.8 entries were re-recorded when the tail rule below index 1
# came to bound the tail's log-CF, not its scale, by tail_tol
TAIL_DRIVERS = (
    GaussianDriver(variance=0.7, drift=0.3),
    SymmetricStableDriver(1.5, 0.6),
    SymmetricStableDriver(0.8, 1.3),
    CompoundPoissonDriver(2.0, GaussianJumps(0.5, 0.3)),
    GammaDriver(2.0, 3.0),
)
TAIL_PINS = {
    (0.35, -0.4): (-69.62268895020581, -33.77339586816653, -322.1230665256659, -77.64917431237872, -74.94607359165762),
    (0.25, -0.2): (-68.98930020901682, -44.698304367344946, -151.20958961610444, -77.01578557118972, -74.31268485046863),
    (0.7, 0.0): (-13.15762910282312, -12.624661685741765, -17.95093416374396, -14.162269865992696, -13.583033997266748),
    (0.5, 1.0): (-18.21582812596066, -12.763360079585365, -8.931379781830756, -18.667813249703716, -17.06842567312312),
    (1.0, 1.0): (-8.761340472700358, -6.97356816665711, -6.139219675149674, -8.987333034571886, -8.187639246281586),
    (0.8, -0.5): (-16.709787468532877, -12.532064392210136, -31.73858602006719, -18.89882893094367, -18.16161964347428),
    (2.0, 3.0): (-3.8801350222661246, -2.70202948368714, -1.8819443160095204, -3.993131303201889, -3.5932844090567393),
    (0.3, 0.1): (-32.02926995398269, -29.470965846728053, -35.42086936273218, -32.78257849355445, -30.116932532586787),
    (3.0, -1.0): (-3.1581302285772583, -2.8979861403880096, -5.190885064960352, -3.639719350307633, -3.477533307064367),
    (0.05, 0.1): (-210.09321441617666, -155.56853395242373, -117.24873097487763, -214.61306565360724, -198.61918988780127),
}


@pytest.mark.parametrize("alpha, delta", list(TAIL_PINS))
def test_truncation_points_are_pinned_away_from_the_default_pair(alpha, delta):
    params = DilationParams(alpha, delta)
    got = tuple(_truncation_point(spec, params, 1e-4) for spec in TAIL_DRIVERS)
    assert got == TAIL_PINS[(alpha, delta)]


@pytest.mark.parametrize("index", [0.1, 0.25])
def test_a_small_index_plan_keeps_the_tail_its_cf_needs(index):
    # below index 1 a tail whose stable scale is below tail_tol still has a
    # log-CF of up to tail_tol**index: the plan once dropped it, so stable
    # 0.1 drew X(0.5) = 0.0 on every path and its ECF read 1.0 against 0.765
    spec, n_paths = SymmetricStableDriver(index, 1.0), 4000
    times = np.array([0.5, 1.0, 2.0])
    x = simulate_ensemble(spec, UNIT, times, n_paths, master_seed=17).values
    for t, column in zip(times, x.T):
        # the law is symmetric, so its CF is real: E cos(X_t) against it,
        # with the standard error of a mean of n_paths cosines under the law
        cf, cf2 = (math.exp(ecf.oracle_log_cf(spec, UNIT, t, th).real) for th in (1.0, 2.0))
        se = math.sqrt(((1.0 + cf2) / 2.0 - cf**2) / n_paths)
        assert abs(np.cos(column).mean() - cf) <= 4.0 * se


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
            plan_dilative(spec, UNIT, OUT)
    assert '{"kind": "symmetric_stable", "index": 0.3, "scale": 1e+300}' in str(exc.value)


def test_plan_names_alpha_and_delta_before_the_driver():
    # the weights leave the float range first: the plan blames alpha and
    # delta, and leaves the driver's own check to its cells
    spec = SymmetricStableDriver(0.3, 1e300)
    with pytest.raises(ValueError, match=r"alpha = 1e\+308 and delta = 1.0"):
        plan_dilative(spec, DilationParams(1e308, 1.0), OUT)


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
        plan_dilative(spec, DilationParams(2.0, -1.0), OUT)
