import cmath
import dataclasses
import json
import math
import pickle
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dilastab import (
    CompoundPoissonDriver,
    DegenerateDelta,
    DilastabError,
    DilationParams,
    DilativeLaw,
    GammaDriver,
    GaussianDriver,
    GaussianJumps,
    IdtLaw,
    LowMagnitude,
    NonPositiveTime,
    OffGrid,
    OracleOutOfDomain,
    PhaseAmbiguous,
    SamplePath,
    SymmetricStableDriver,
    TestPoint,
    TimeGrid,
    TimeStableLaw,
    TranslativeLaw,
    apply_transforms,
    check_scaling,
    derive_rng,
    driver_to_dict,
    estimate_log_cf,
    increment_pair,
    marginal_points,
    oracle_joint_log_cf,
    oracle_log_cf,
    plan_dilative,
    simulate_ensemble,
)
from dilastab._seeds import BLOCK, _block_seeds
from dilastab import ecf
from dilastab.ecf import _cf_terms, _projection, _ray_means
from dilastab.processes import pull_back
from dilastab.validation import CONDITION_A, CONDITION_B, admissibility

UNIT = DilationParams(1.0, 1.0)


def normal_ensemble(mean, std, n, seed):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(np.array([1.0]))
    return SamplePath(grid, rng.normal(mean, std, (n, 1)))


def estimate_cf(ens, times, thetas):
    """The empirical CF at one point: the r = 1 end of a one-step ray."""
    return estimate_log_cf(ens, times, thetas, r_steps=1)


def test_estimate_matches_gaussian_cf():
    n = 20_000
    ens = normal_ensemble(0.4, 1.2, n, 0)
    for theta in (0.5, 1.0):
        est = estimate_cf(ens, (1.0,), (theta,))
        want = cmath.exp(1j * 0.4 * theta - 0.72 * theta**2)
        assert abs(est.cf_mean - want) <= 4.0 * est.cf_se
        assert [f.name for f in dataclasses.fields(est)] == ["cf_mean", "cf_se", "logcf", "logcf_se"]


def test_se_formula():
    ens = normal_ensemble(0.0, 1.0, 500, 1)
    est = estimate_cf(ens, (1.0,), (0.7,))
    draws = np.exp(0.7j * ens.values[:, 0])
    want_se = math.sqrt((1.0 - abs(draws.mean()) ** 2) / 500)
    assert est.cf_se == pytest.approx(want_se, rel=1e-12)
    assert est.logcf_se == pytest.approx(est.cf_se / abs(est.cf_mean), rel=1e-12)


def test_se_survives_a_cf_that_rounds_to_one():
    # at theta = 1e-8, 1 - |cf|^2 rounds to 0; the terms' spread about cf,
    # about theta * sd(X), must stand in for it, or every z-score is infinite
    ens = normal_ensemble(0.0, 1.0, 1000, 1)
    x = ens.values[:, 0]
    for theta in (1e-8, 1e-9):
        assert 1.0 - abs(np.exp(1j * theta * x).mean()) ** 2 == 0.0
        est = estimate_cf(ens, (1.0,), (theta,))
        assert est.cf_se > 0
        assert est.cf_se == pytest.approx(theta * x.std() / math.sqrt(1000), rel=1e-9)
        assert est.logcf_se == pytest.approx(est.cf_se / abs(est.cf_mean), rel=1e-12)


def test_projection_validation():
    ens = normal_ensemble(0.0, 1.0, 50, 2)
    with pytest.raises(ValueError):
        estimate_cf(ens, (1.0,), (0.5, 0.7))
    with pytest.raises(OffGrid):
        estimate_cf(ens, (2.0,), (0.5,))


def test_log_cf_unwraps_past_principal_branch():
    # the mean-4 Gaussian log-CF has imaginary part 4 theta, well past pi at
    # theta = 1; a principal-branch log would report about 4 - 2 pi
    n = 20_000
    ens = normal_ensemble(4.0, 1.0, n, 42)
    top = estimate_log_cf(ens, (1.0,), (1.0,), r_steps=16)
    assert abs(top.logcf.imag - 4.0) <= 4.0 * top.logcf_se
    principal = cmath.log(top.cf_mean)
    assert abs((top.logcf.imag - principal.imag) - 2 * math.pi) < 1e-9


def test_log_cf_ray_structure():
    # the estimate is the ray's end r = 1, whose CF is the same at every r_steps
    ens = normal_ensemble(0.0, 1.0, 2000, 3)
    top = estimate_log_cf(ens, (1.0,), (1.5,), r_steps=4)
    assert_same_bits(top.cf_mean, estimate_cf(ens, (1.0,), (1.5,)).cf_mean)
    with pytest.raises(ValueError):
        estimate_log_cf(ens, (1.0,), (1.5,), r_steps=0)


def test_log_cf_refuses_an_empty_ensemble():
    # 5/sqrt(N) once divided by zero; check_scaling raised it as a traceback
    empty = SamplePath(TimeGrid(np.array([1.0])), np.zeros((0, 1)))
    with pytest.raises(ValueError, match="at least one path, got n_paths = 0"):
        estimate_log_cf(empty, (1.0,), (1.0,))
    ens = simulate_ensemble(GaussianDriver(), UNIT, (0.5, 1.0, 2.0), 0, master_seed=1)
    with pytest.raises(ValueError, match="n_paths = 0"):
        check_scaling(ens, DilativeLaw(1.0, 1.0, 2.0), marginal_points((0.5, 1.0), (1.0,)))


def test_a_constant_ensemble_gives_infinite_z_scores():
    # every path is t at t = 1, 2: |cf| = 1 and the standard error is 0, so
    # the relation's nonzero difference is -inf sigma and the row fails
    ens = SamplePath(TimeGrid(np.array([1.0, 2.0])), np.tile([1.0, 2.0], (50, 1)))
    report = check_scaling(ens, DilativeLaw(1.0, 1.0, 2.0), marginal_points((1.0,), (0.5,)))
    (row,) = report.rows
    assert row.z_real == row.z_imag == -math.inf
    assert not row.passed and report.pass_fraction == 0.0


def test_a_single_path_is_the_one_row_ensemble():
    # a 1-d path once raised IndexError in the projection; as one row, its
    # |cf| is 1, below the floor 5/sqrt(1), so every row is unestimable
    row = simulate_ensemble(GaussianDriver(), UNIT, (0.5, 1.0, 2.0), 1, master_seed=4)
    path = SamplePath(row.grid, row.values[0])
    law, points = DilativeLaw(1.0, 1.0, 2.0), marginal_points((0.5, 1.0), (0.5, 1.0))
    report = check_scaling(path, law, points)
    assert report.unestimable == len(points) and report.pass_fraction == 0.0
    assert report.to_dict() == check_scaling(row, law, points).to_dict()
    with pytest.raises(LowMagnitude) as exc:
        estimate_log_cf(path, (1.0,), (1.0,))
    assert exc.value.floor == 5.0


def test_log_cf_aborts_on_low_magnitude():
    # std 10 kills |cf| long before theta = 1
    ens = normal_ensemble(0.0, 10.0, 1000, 4)
    with pytest.raises(LowMagnitude) as exc:
        estimate_log_cf(ens, (1.0,), (1.0,), r_steps=4)
    err = exc.value
    assert err.r == 0.25
    assert err.floor == pytest.approx(max(0.1, 5 / math.sqrt(1000)))
    assert err.magnitude < err.floor


def test_log_cf_rejects_a_phase_that_turns_past_pi_per_step():
    # mean 60 turns the phase by 3.75 rad per step of 16: the unwrapped phase
    # lands a whole number of turns off, which doubling the steps exposes
    ens = normal_ensemble(60.0, 0.1, 1000, 5)
    with pytest.raises(PhaseAmbiguous, match="--r-steps") as exc:
        estimate_log_cf(ens, (1.0,), (1.0,), r_steps=16)
    assert exc.value.r_steps == 16 and exc.value.turns != 0
    top = estimate_log_cf(ens, (1.0,), (1.0,), r_steps=64)
    assert abs(top.logcf.imag - 60.0) < 0.1
    # mean 30 turns it by 1.875 rad per step, above pi/2 but below pi: the
    # doubled ray agrees, and the estimate is the one of 16 steps
    ens = normal_ensemble(30.0, 0.1, 1000, 5)
    top = estimate_log_cf(ens, (1.0,), (1.0,), r_steps=16)
    assert abs(top.logcf.imag - 30.0) < 0.1


@pytest.mark.parametrize("mean", [0.0, 0.3, -4.0, 30.0, -30.0])
def test_log_cf_phases_are_np_unwraps(mean):
    # the phase at r = 1 is the last of np.unwrap over the ray's means; mean
    # 30 steps by about 1.875 rad, which the doubled ray confirms
    ens = normal_ensemble(mean, 0.1, 1000, 6)
    est = estimate_log_cf(ens, (1.0,), (1.0,), r_steps=16)
    cfs, _ = _ray_means(np.arange(1, 17) / 16, _projection(ens, (1.0,), (1.0,)))
    want = np.unwrap(np.concatenate([[0.0], np.angle(cfs)]))[-1]
    assert_same_bits(est.logcf.imag, want)
    assert [type(v) for v in dataclasses.astuple(est)] == [complex, float, complex, float]


def test_projection_has_the_bytes_of_matmul():
    rng = np.random.default_rng(4)
    values = rng.normal(size=(300, 4))
    values[rng.random(values.shape) < 0.1] = 0.0
    values[rng.random(values.shape) < 0.1] = -0.0
    ens = SamplePath(TimeGrid(np.array([0.5, 1.0, 2.0, 4.0])), values)
    points = [((1.0,), (0.5,)), ((2.0,), (-0.0,)), ((0.5, 4.0), (1.0, -0.5))]
    for times, thetas in points + [((0.5, 1.0, 2.0), (0.3, -1.2, 2.5))]:
        want = values[:, [ens.grid.index_of(t) for t in times]] @ np.array(thetas)
        assert_same_bits(_projection(ens, times, thetas), want)


def exp_log_cf(w, r_steps):
    """A ray's (cf_mean, logcf) per position from np.exp(1j * x), or estimate_log_cf's LowMagnitude."""
    rs = np.arange(1, r_steps + 1) / r_steps
    cfs = np.exp(1j * np.outer(rs, w)).mean(axis=1)
    mags = np.abs(cfs)
    floor = max(0.1, 5.0 / math.sqrt(w.size))
    low = np.nonzero(mags < floor)[0]
    if low.size:
        return LowMagnitude(float(rs[low[0]]), float(mags[low[0]]), floor)
    phases = np.unwrap(np.concatenate([[0.0], np.angle(cfs)]))[1:]
    return cfs, np.array([complex(math.log(m), p) for m, p in zip(mags, phases)])


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    assert np.array_equal(got, want)
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(got, part)), np.signbit(getattr(want, part)))


def power_terms(w, r_steps):
    """A ray's per-path terms as powers: the exponential at r = 1/r_steps and
    r = 1, and each row between the row before it times the first."""
    rs = np.arange(1, r_steps + 1) / r_steps
    first, last = np.exp(1j * np.outer(rs[[0, -1]], w))
    rows = [first]
    for _ in range(r_steps - 2):
        rows.append(rows[-1] * first)
    return np.array(rows + [last] if r_steps > 1 else rows)


def cf_ensembles():
    rng = np.random.default_rng(8)
    grid = TimeGrid(np.array([0.5, 1.0]))
    huge = 1e22 * (1.0 + 1e-16 * rng.integers(-3, 4, (500, 2)))
    return {
        "gaussian": SamplePath(grid, rng.normal(0.3, 1.0, (2000, 2))),
        "gamma": SamplePath(grid, rng.gamma(2.0, 0.5, (2000, 2))),
        "near 1e22": SamplePath(grid, huge),
        "at 1e22": SamplePath(grid, np.full((500, 2), 1e22)),
    }


@pytest.mark.parametrize("name", ["gaussian", "gamma", "near 1e22", "at 1e22"])
@pytest.mark.parametrize(
    "times, thetas",
    [((1.0,), (0.0,)), ((1.0,), (-0.0,)), ((1.0,), (0.5,)), ((0.5, 1.0), (0.5, -0.25))],
)
def test_ecf_bytes_equal_the_complex_exponential(name, times, thetas):
    ens = cf_ensembles()[name]
    w = ens.values[:, [ens.grid.index_of(t) for t in times]] @ np.asarray(thetas)
    want = exp_log_cf(w, r_steps=16)
    if isinstance(want, LowMagnitude):
        with pytest.raises(LowMagnitude) as exc:
            estimate_log_cf(ens, times, thetas, r_steps=16)
        assert (exc.value.r, exc.value.magnitude, exc.value.floor) == (want.r, want.magnitude, want.floor)
    else:
        est = estimate_log_cf(ens, times, thetas, r_steps=16)
        assert_same_bits(est.cf_mean, want[0][-1])
        if name in ("gaussian", "gamma"):
            # the ray's positions between its ends, powers of the first
            # position's terms, stay within k ulps of the exponential's
            cfs, _ = _ray_means(np.arange(1, 17) / 16, w)
            k = np.arange(2, 16)
            assert (abs(cfs[1:-1] - want[0][1:-1]) <= 32 * k * np.finfo(float).eps).all()
        top = est.logcf
        if name == "at 1e22" and any(thetas):
            # every path's W is 5e21 (or 2.5e21), so one ray step turns the
            # phase by about 3e20 rad, and an ulp of rs * W is a million:
            # no branch follows from the data, and the unwrapped phase at
            # r = 1 is fixed only up to a multiple of 2 pi
            assert_same_bits(top.real, want[1][-1].real)
            turns = (top.imag - want[1][-1].imag) / (2 * math.pi)
            assert abs(turns - round(turns)) < 1e-9
        else:
            assert_same_bits(top, want[1][-1])
        assert_same_bits(estimate_cf(ens, times, thetas).cf_mean, np.exp(1j * w).mean())
    # the mean at r = 1 even where the ray aborts before reaching it
    assert_same_bits(_cf_terms((1.0,), w).mean(axis=1), [np.exp(1j * w).mean()])


EDGE_W = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e22, -1e22, np.nan])


@given(
    r_steps=st.integers(1, 64),
    w=st.lists(st.one_of(EDGE_W, st.floats(-1e3, 1e3)), min_size=1, max_size=40),
)
def test_ray_terms_are_exact_at_the_ends_and_powers_between(r_steps, w):
    w = np.array(w)
    rs = np.arange(1, r_steps + 1) / r_steps
    cfs, last = _ray_means(rs, w)
    finite = ~np.isnan(w)
    if finite.all():
        # the means of the exponential's bytes at both ends, of its powers between
        assert_same_bits(cfs, power_terms(w, r_steps).mean(axis=1))
    else:
        # a NaN projection spoils every mean
        assert np.isnan(cfs).all()
    # the exact per-path terms at r = 1, NaN where the projection is
    assert_same_bits(last[finite], np.exp(1j * w[finite]))
    assert np.isnan(last[~finite]).all()


def test_ray_terms_evaluate_cos_and_sin_at_the_ends_only(monkeypatch):
    import dilastab.ecf as ecf_module

    evaluated = []

    def counted(rs, w):
        evaluated.append(len(rs) * len(w))
        return _cf_terms(rs, w)

    monkeypatch.setattr(ecf_module, "_cf_terms", counted)
    ens = normal_ensemble(0.0, 1.0, 300, 12)
    for r_steps, count in [(1, 300), (2, 600), (16, 600)]:
        evaluated.clear()
        estimate_log_cf(ens, (1.0,), (0.5,), r_steps=r_steps)
        assert evaluated == [count]


def all_cos_sin_terms(rs, w):
    """The kernel that filled every row of a ray with cos and sin."""
    x = np.outer(rs, w)
    x += 0.0
    terms = np.empty(x.shape, dtype=complex)
    np.cos(x, out=terms.real)
    np.sin(x, out=terms.imag)
    return terms


def test_check_scaling_on_a_wrapping_ray_matches_all_cos_sin_rows(monkeypatch):
    import dilastab.ecf as ecf_module

    # the phase at t = 4, theta = 0.7 is about 42 rad, so that ray wraps six
    # times, each of its 16 steps turning it by less than pi
    driver = GaussianDriver(variance=0.01, drift=20.0)
    ens = simulate_ensemble(driver, UNIT, (0.5, 1.0, 2.0, 4.0), 500, master_seed=13)
    law = DilativeLaw(1.0, 1.0, 2.0)
    points = marginal_points((0.5, 1.0, 2.0), (0.5, 0.7)) + [increment_pair(0.5, 1.0, 1.0)]
    got = check_scaling(ens, law, points).rows
    monkeypatch.setattr(
        ecf_module, "_ray_means", lambda rs, w: (all_cos_sin_terms(rs, w).mean(axis=1), None)
    )
    want = check_scaling(ens, law, points).rows
    assert max(row.lhs.imag for row in got) > 40
    assert all(row.passed for row in got)
    for a, b in zip(got, want):
        for x, y in [(a.lhs, b.lhs), (a.rhs, b.rhs), (a.z_real, b.z_real), (a.z_imag, b.z_imag)]:
            assert x == pytest.approx(y, rel=1e-12, abs=1e-12)


def ray_peak(ens, r_steps):
    """The tracemalloc peak of one estimate_log_cf at theta 1, in bytes."""
    tracemalloc.start()
    try:
        estimate_log_cf(ens, (1.0,), (1.0,), r_steps=r_steps)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ray_memory_does_not_grow_with_r_steps():
    # a ray streams its positions: the (r_steps, n_paths) complex terms it
    # once held made the peak at 256 steps about 13 times that at 16
    ens = normal_ensemble(0.0, 0.1, 4000, 15)
    assert ray_peak(ens, 256) < 1.25 * ray_peak(ens, 16)


@pytest.mark.parametrize(
    "n_paths, r_steps, mean",
    [(4000, 1, 0.0), (4000, 16, 0.0), (4000, 16, 30.0), (30, 20000, 0.0), (30, 20000, 4e4)],
)
def test_floats_per_position_and_path_bound_a_ray(n_paths, r_steps, mean):
    # check_memory guards these floats before a ray; a mean of 30 or 4e4
    # turns the phase by about 2 rad per step, so the doubled ray runs too
    ens = normal_ensemble(mean, 1e-3, n_paths, 16)
    doubled = mean != 0.0
    per_position = 4 + 2 * ecf._FLOATS_PER_POSITION if doubled else ecf._FLOATS_PER_POSITION
    floats = per_position * r_steps + ecf._FLOATS_PER_PATH * n_paths
    # a few KiB of array headers and Python objects do not grow with either
    assert ray_peak(ens, r_steps) <= 8 * floats + 2**14


@pytest.mark.parametrize("r_steps", [16, 16.0, np.int64(16), np.float64(16.0)])
def test_log_cf_takes_an_integral_r_steps(r_steps):
    ens = normal_ensemble(0.0, 1.0, 300, 14)
    want = estimate_log_cf(ens, (1.0,), (0.5,), r_steps=16)
    assert estimate_log_cf(ens, (1.0,), (0.5,), r_steps=r_steps) == want


@pytest.mark.parametrize("r_steps", [2.5, 16.000001, True, False, math.nan, math.inf])
def test_log_cf_rejects_a_non_integral_r_steps(r_steps):
    # r_steps = 2.5 once made a ray ending at r = 1.2, reported as the estimate at theta
    ens = normal_ensemble(0.0, 1.0, 300, 14)
    with pytest.raises(ValueError, match="r_steps"):
        estimate_log_cf(ens, (1.0,), (0.5,), r_steps=r_steps)


def test_cf_terms_equal_the_complex_exponential_elementwise():
    rng = np.random.default_rng(9)
    edge = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e22, -1e22, 1e300, -1e300, np.pi, -np.pi]
    w = np.concatenate([edge, rng.normal(0.0, 3.0, 200), 1e22 * rng.normal(size=50)])
    rs = np.arange(1, 17) / 16
    got = _cf_terms(rs, w)
    assert_same_bits(got, np.exp(1j * np.outer(rs, w)))
    with np.errstate(invalid="ignore"):
        assert np.isnan(_cf_terms(rs, np.array([np.inf, -np.inf, np.nan]))).all()


def test_oracle_gaussian_frozen():
    got = oracle_log_cf(GaussianDriver(), UNIT, 1.0, 1.0)
    assert got == pytest.approx(-0.14549417671733159, rel=1e-14)
    assert got.imag == 0.0
    # the same value shows up at (t, theta) = (2, 0.5): 2 alpha = H + delta
    assert oracle_log_cf(GaussianDriver(), UNIT, 2.0, 0.5) == pytest.approx(
        got, rel=1e-14
    )


def test_oracle_gaussian_with_drift_frozen():
    spec = GaussianDriver(2.0, 0.5)
    params = DilationParams(0.8, 0.6)
    got = oracle_log_cf(spec, params, 2.0, 0.7)
    assert got == pytest.approx(
        complex(-0.6775490816266242, 0.497765766446653), rel=1e-12
    )


def test_oracle_negative_delta_frozen():
    got = oracle_log_cf(GaussianDriver(), DilationParams(1.0, -1.0), 2.0, 1.0)
    assert got == pytest.approx(-1.5819767068693265, rel=1e-13)


def test_oracle_stable_frozen():
    spec = SymmetricStableDriver(1.5, 1.0)
    params = DilationParams(1.0, 0.5)
    assert oracle_log_cf(spec, params, 1.0, 1.0) == pytest.approx(
        -0.47430587154978404, rel=1e-13
    )
    assert oracle_log_cf(spec, params, 2.0, 1.0) == pytest.approx(
        -1.4629592993172504, rel=1e-13
    )


def test_oracle_edge_cases():
    assert oracle_log_cf(GaussianDriver(), UNIT, 3.0, 0.0) == 0
    with pytest.raises(NonPositiveTime):
        oracle_log_cf(GaussianDriver(), UNIT, 0.0, 1.0)
    with pytest.raises(NonPositiveTime):
        oracle_log_cf(GaussianDriver(), UNIT, -1.0, 1.0)
    with pytest.raises(OracleOutOfDomain):
        oracle_log_cf(CompoundPoissonDriver(1.0, GaussianJumps()), UNIT, 1.0, 1.0)
    with pytest.raises(OracleOutOfDomain):
        oracle_log_cf(GammaDriver(), UNIT, 1.0, 1.0)
    # t**rate overflows (OverflowError), or the product does (inf, then nan at variance 0)
    with pytest.raises(OracleOutOfDomain, match="overflows"):
        oracle_log_cf(GaussianDriver(), DilationParams(2.0, 1.0), 1e300, 1.0)
    with pytest.raises(OracleOutOfDomain, match="overflows"):
        oracle_log_cf(GaussianDriver(variance=1e300), UNIT, 1e10, 1e10)
    with pytest.raises(OracleOutOfDomain, match="overflows"):
        oracle_log_cf(SymmetricStableDriver(1.5, 1.0), UNIT, 1e300, 1.0)


@pytest.mark.parametrize("errstate", ["raise", "warn", "ignore"])
def test_oracle_names_a_delta_whose_clock_rate_leaves_the_float_range(errstate):
    # q = delta/(e^delta - 1) underflows to 0 where e^delta overflows: the
    # oracle refuses it, as the plan's truncation point does, and never warns
    with np.errstate(all=errstate), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OracleOutOfDomain, match=r"delta = 1e\+308 takes q"):
            oracle_log_cf(GaussianDriver(), DilationParams(1e308, 1e308), 1.0, 0.5)


@given(
    st.floats(0.1, 5.0),
    st.floats(1.1, 4.0),
    st.floats(-3.0, 3.0),
    st.floats(0.6, 2.0),
    st.floats(-1.0, 1.5).filter(lambda d: abs(d) > 1e-3),
)
def test_oracle_satisfies_dilative_identity(t, T, theta, alpha, delta):
    params = DilationParams(alpha, delta)
    if delta > 0 and alpha <= delta / 2:
        return
    if delta < 0 and alpha <= -delta / 2:
        return
    h = params.hurst
    lhs = oracle_log_cf(GaussianDriver(), params, T * t, theta)
    rhs = T**delta * oracle_log_cf(GaussianDriver(), params, t, T**h * theta)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


def chain_log_cf(spec, params, chain, point):
    """The closed-form log-CF of the chain's process at point, read through X.

    Each time is pulled back to X's, and after lamperti, V_u = e^(-H u) X_(e^u),
    each theta carries the weight t^(-H) of its time t of X.
    """
    times = [pull_back(chain, params.delta, s) for s in point.times]
    h = params.hurst if "lamperti" in chain else 0.0
    thetas = [th * t**-h for t, th in zip(times, point.thetas)]
    return oracle_joint_log_cf(spec, params, times, thetas)


@given(
    spec=st.sampled_from([GaussianDriver(0.4, 0.7), SymmetricStableDriver(1.5, 1.0)]),
    alpha=st.floats(0.3, 2.0),
    delta=st.one_of(st.floats(-1.0, -0.2), st.floats(0.2, 1.5)),
    scale=st.floats(0.4, 3.0),
    start=st.floats(0.3, 2.0),
    gap=st.one_of(st.none(), st.floats(1.2, 3.0)),
    theta=st.one_of(st.floats(-2.0, -0.2), st.floats(0.2, 2.0)),
)
def test_every_law_relation_holds_exactly_for_the_closed_form(
    spec, alpha, delta, scale, start, gap, theta
):
    # sum_k a_k Psi(point_k) = 0 on X, V, Z and D alike, at one- and two-time points
    params = DilationParams(alpha, delta)
    assume(admissibility(params, spec).status in (CONDITION_A, CONDITION_B))
    laws = [
        DilativeLaw(alpha, delta, scale),
        TranslativeLaw(delta, math.log(scale)),
        TimeStableLaw(delta, scale),
        IdtLaw(scale),
    ]
    for law in laws:
        # the times of the chain's final grid: log times on V, times elsewhere
        times = (start,) if gap is None else (start, gap * start)
        if law.chain == ("lamperti",):
            times = tuple(math.log(t) for t in times)
        point = TestPoint(times, (theta, -0.5 * theta)[: len(times)])
        values = [a * chain_log_cf(spec, params, law.chain, p) for a, p in law.terms(point)]
        assert abs(sum(values)) <= 1e-12 * max(map(abs, values)), (law, point, values)


def test_joint_oracle_reduces_to_marginal():
    got = oracle_joint_log_cf(GaussianDriver(), UNIT, (2.0,), (0.7,))
    want = oracle_log_cf(GaussianDriver(), UNIT, 2.0, 0.7)
    assert got == pytest.approx(want, rel=1e-14)
    # a zero tail coordinate adds nothing
    padded = oracle_joint_log_cf(GaussianDriver(), UNIT, (2.0, 5.0), (0.7, 0.0))
    assert padded == pytest.approx(want, rel=1e-14)


def test_joint_oracle_refuses_unequal_lengths():
    # zip would drop the unpaired time silently
    with pytest.raises(ValueError, match="equal length"):
        oracle_joint_log_cf(GaussianDriver(), UNIT, (1.0, 2.0), (0.7,))


def test_joint_oracle_refuses_empty_input():
    # zip(*sorted(...)) had raised "not enough values to unpack"
    with pytest.raises(ValueError, match="equal length, at least 1; got 0 and 0$"):
        oracle_joint_log_cf(GaussianDriver(), UNIT, [], [])


@pytest.mark.parametrize(
    "t, theta, words",
    [
        (math.nan, 1.0, "finite t, got nan"),
        (math.inf, 1.0, "finite t, got inf"),
        (1.0, math.nan, "finite theta, got nan"),
        (1.0, -math.inf, "finite theta, got -inf"),
    ],
)
def test_oracle_refuses_a_non_finite_time_or_theta(t, theta, words):
    # a nan t had been blamed on an overflow of the log-CF
    with pytest.raises(ValueError, match=f"^the oracle needs a {words}$"):
        oracle_log_cf(GaussianDriver(), UNIT, t, theta)


def test_joint_oracle_permutation_invariant():
    spec = SymmetricStableDriver(1.5, 1.0)
    params = DilationParams(1.0, 0.5)
    a = oracle_joint_log_cf(spec, params, (0.5, 2.0), (1.0, -0.5))
    b = oracle_joint_log_cf(spec, params, (2.0, 0.5), (-0.5, 1.0))
    assert a == pytest.approx(b, rel=1e-14)


def test_joint_oracle_increment_formula():
    # independent increments: Psi(t1, t2; th1, th2)
    # = Psi_{t1}(th1 + th2) + (Psi_{t2} - Psi_{t1})(th2) for t1 < t2
    t1, t2, th1, th2 = 0.5, 2.0, 1.0, -0.5
    got = oracle_joint_log_cf(GaussianDriver(), UNIT, (t1, t2), (th1, th2))
    psi = lambda t, th: oracle_log_cf(GaussianDriver(), UNIT, t, th)
    want = psi(t1, th1 + th2) + psi(t2, th2) - psi(t1, th2)
    assert got == pytest.approx(want, rel=1e-13)


def test_point_constructors():
    pts = marginal_points((0.5, 1.0), (1.0, 2.0))
    assert len(pts) == 4
    assert pts[0] == TestPoint((0.5,), (1.0,))
    pair = increment_pair(1.0, 2.0, 1.0)
    assert pair == TestPoint((1.0, 2.0), (1.0, -0.5))
    custom = increment_pair(1.0, 2.0, 2.0, ratio=-1.0)
    assert custom == TestPoint((1.0, 2.0), (2.0, -2.0))
    with pytest.raises(ValueError):
        TestPoint((1.0, 2.0), (0.5,))
    with pytest.raises(ValueError):
        TestPoint((), ())


def test_law_mappings():
    # every law is two terms, ((1, scaled), (-multiplier, base))
    law = DilativeLaw(1.0, 1.0, 2.0)
    p = TestPoint((0.5, 1.0), (1.0, -0.5))
    (one, scaled), (a, base) = law.terms(p)
    assert one == 1.0
    assert scaled == TestPoint((1.0, 2.0), (1.0, -0.5))
    assert base.times == (0.5, 1.0)
    assert base.thetas == pytest.approx((math.sqrt(2.0), -math.sqrt(0.5)))
    assert a == -2.0

    tr = TranslativeLaw(1.0, math.log(2.0))
    (one, scaled), _ = tr.terms(TestPoint((0.0,), (1.0,)))
    assert one == 1.0
    assert scaled.times == (math.log(2.0),)
    _, (a, base) = tr.terms(p)
    assert base == p
    assert a == pytest.approx(-2.0, rel=1e-15)

    ts = TimeStableLaw(2.0, 4.0)
    (one, scaled), (a, base) = ts.terms(TestPoint((1.0,), (1.0,)))
    assert (one, scaled.times, a, base) == (1.0, (2.0,), -4.0, TestPoint((1.0,), (1.0,)))
    with pytest.raises(DegenerateDelta):
        TimeStableLaw(0.0, 2.0)

    idt = IdtLaw(3.0)
    (one, scaled), (a, base) = idt.terms(TestPoint((1.0,), (1.0,)))
    assert (one, scaled.times, a, base) == (1.0, (3.0,), -3.0, TestPoint((1.0,), (1.0,)))

    for l in (law, tr, ts, idt):
        d = l.to_dict()
        assert d["kind"] == l.kind
        json.dumps(d)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build, field",
    [
        (lambda v: DilativeLaw(v, 1.0, 2.0), "alpha"),
        (lambda v: TranslativeLaw(1.0, v), "T"),
        (lambda v: TimeStableLaw(v, 2.0), "delta"),
        (lambda v: IdtLaw(v), "n"),
    ],
    ids=["dilative", "translative", "time_stable", "idt"],
)
def test_laws_refuse_a_non_finite_field(build, field, value):
    # each of these once built a law; IdtLaw(inf) checked to an rhs of -inf
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
        build(value)


def test_simulate_ensemble_refuses_an_unknown_transform_before_planning(monkeypatch):
    import dilastab.ecf as ecf_module

    def plan(*args, **kwargs):
        raise AssertionError("an unknown transform reached plan_dilative")

    monkeypatch.setattr(ecf_module, "plan_dilative", plan)
    grid = TimeGrid(np.array([0.5, 1.0]))
    # a name that is not a string is unknown too, not an unhashable key
    for name in ("spin", [1], 1, None):
        with pytest.raises(ValueError, match=r"^unknown transform"):
            simulate_ensemble(GaussianDriver(), UNIT, grid, 2, 0, transforms=["lamperti", name])
        with pytest.raises(ValueError, match=r"^unknown transform"):
            apply_transforms(SamplePath(grid, [1.0, 2.0]), UNIT, [name])


def test_simulate_ensemble_reproducible():
    grid = TimeGrid(np.array([0.5, 1.0, 2.0]))
    a = simulate_ensemble(GaussianDriver(), UNIT, grid, 40, master_seed=99, refine=8.0)
    b = simulate_ensemble(GaussianDriver(), UNIT, grid, 40, master_seed=99, refine=8.0)
    assert np.array_equal(a.values, b.values)
    assert a.n_paths == 40 and a.role == "X"
    # row n is exactly the single-path simulation under the derived stream
    rng = derive_rng(99, 0)
    direct = plan_dilative(GaussianDriver(), UNIT, grid, refine=8.0).rows(1, lambda n: rng)[0]
    assert np.array_equal(a.values[0], direct)


@pytest.mark.parametrize(
    "n_paths, words",
    [(2.5, "n_paths must be a number (int), got 2.5"), (True, "got True"), (-1, "n_paths must be >= 0")],
)
def test_simulate_ensemble_reads_n_paths_as_a_whole_count(monkeypatch, n_paths, words):
    # 2.5 once drew 2 rows, and -1 failed in numpy with an error naming no input
    import dilastab.ecf as ecf_module

    def reached(*args, **kwargs):
        raise AssertionError("a bad n_paths reached check_memory or plan_dilative")

    monkeypatch.setattr(ecf_module, "check_memory", reached)
    monkeypatch.setattr(ecf_module, "plan_dilative", reached)
    with pytest.raises(ValueError, match=re.escape(words)):
        simulate_ensemble(GaussianDriver(), UNIT, (0.5, 1.0), n_paths, master_seed=0)


def test_simulate_ensemble_takes_a_whole_float_or_numpy_count():
    # a master_seed is read as n_paths is
    want = simulate_ensemble(GaussianDriver(), UNIT, (0.5, 1.0), 3, master_seed=2).values
    for n_paths, master_seed in ((3.0, 2.0), (np.int64(3), np.int64(2)), ("3", "2")):
        got = simulate_ensemble(GaussianDriver(), UNIT, (0.5, 1.0), n_paths, master_seed=master_seed)
        assert np.array_equal(got.values, want)


@pytest.mark.parametrize("transforms", ["lamperti", "idt", ""])
def test_simulate_ensemble_refuses_a_bare_string_of_transforms(monkeypatch, transforms):
    # "lamperti" was read letter by letter and refused as unknown transform 'l'
    import dilastab.ecf as ecf_module

    def plan(*args, **kwargs):
        raise AssertionError("a bare string reached plan_dilative")

    monkeypatch.setattr(ecf_module, "plan_dilative", plan)
    words = f"transforms must be a sequence of names, got the string {transforms!r}"
    with pytest.raises(ValueError, match=re.escape(words)):
        simulate_ensemble(GaussianDriver(), UNIT, (0.5, 1.0), 2, 0, transforms=transforms)


@pytest.mark.parametrize(
    "master_seed, words",
    [
        (-1, "master_seed must be >= 0, got -1"),
        (1.5, "master_seed must be a number (int), got 1.5"),
        (True, "master_seed must be a number (int), got True"),
        ("x", "master_seed must be a number (int), got 'x'"),
    ],
)
def test_simulate_ensemble_reads_master_seed_as_a_whole_number(monkeypatch, master_seed, words):
    # -1 and 1.5 failed in numpy's seeding with errors naming no input
    import dilastab.ecf as ecf_module

    def reached(*args, **kwargs):
        raise AssertionError("a bad master_seed reached check_memory or plan_dilative")

    monkeypatch.setattr(ecf_module, "check_memory", reached)
    monkeypatch.setattr(ecf_module, "plan_dilative", reached)
    with pytest.raises(ValueError, match=re.escape(words)):
        simulate_ensemble(GaussianDriver(), UNIT, (0.5, 1.0), 2, master_seed=master_seed)


DRAWS_PAST_THE_FLOAT_RANGE = {
    "gaussian-drift": (GaussianDriver(5e-324, 1.7e308), UNIT),  # the weighted sum overflows
    # cos(u)**(1/index) underflows to 0
    "stable-index": (SymmetricStableDriver(5e-324, 5e-324), UNIT),
    "poisson": (
        CompoundPoissonDriver(1.0, GaussianJumps(0.0, 1.7e308)),
        DilationParams(0.5, 0.0),
    ),
}
SIMULATORS = {
    "simulate_ensemble": lambda spec, params: simulate_ensemble(
        spec, params, (0.5, 1.0, 2.0), 30, master_seed=1
    ),
    "plan_rows": lambda spec, params: plan_dilative(
        spec, params, TimeGrid(np.array([0.5, 1.0, 2.0]))
    ).rows(1, lambda n: np.random.default_rng(0)),
}


@pytest.mark.parametrize("errstate", ["raise", "warn", "ignore"])
@pytest.mark.parametrize(
    "simulator, spec, params",
    [
        pytest.param(simulator, spec, params, id=f"{case}-{simulator}")
        for case, (spec, params) in DRAWS_PAST_THE_FLOAT_RANGE.items()
        for simulator in SIMULATORS
    ],
)
def test_draws_past_the_float_range_name_the_driver(errstate, simulator, spec, params):
    # finite cells whose draws or weighted sums are not: one ValueError naming
    # the driver, alpha and delta, with no RuntimeWarning, whatever the errstate
    with np.errstate(all=errstate), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="float range") as exc:
            SIMULATORS[simulator](spec, params)
    message = str(exc.value)
    assert json.dumps(driver_to_dict(spec)) in message
    assert f"alpha = {params.alpha!r} and delta = {params.delta!r}" in message


def test_transform_ensemble_chain():
    grid = TimeGrid.geometric(0.5, 2.0, 3)
    ens = simulate_ensemble(GaussianDriver(), UNIT, grid, 20, master_seed=7)
    v = apply_transforms(ens, UNIT, ("lamperti",))
    assert np.allclose(v.grid.points, np.log(grid.points), rtol=1e-14)
    assert v.role == "V"
    z = apply_transforms(v, UNIT, ("time_stable",))
    assert np.allclose(z.grid.points, grid.points, rtol=1e-14)
    assert np.array_equal(z.values, v.values)
    d = apply_transforms(v, UNIT, ("idt",))
    assert np.allclose(d.grid.points, grid.points, rtol=1e-14)
    assert (z.role, d.role) == ("Z", "D")


def row_by_row(ens, params, transforms, role):
    """The reference: the chain applied to each row as its own SamplePath."""
    rows = [
        apply_transforms(SamplePath(ens.grid, row, role=role), params, transforms)
        for row in ens.values
    ]
    return rows[0].grid.points, np.array([path.values for path in rows]), rows[0].role


@pytest.mark.parametrize(
    "params, chain",
    [
        (UNIT, ("lamperti",)),
        (UNIT, ("lamperti", "lamperti_inverse")),
        (UNIT, ("lamperti", "time_stable")),
        (UNIT, ("lamperti", "idt")),
        (DilationParams(1.0, -0.5), ("lamperti", "idt")),
    ],
)
def test_ensemble_chain_equals_row_by_row(params, chain):
    grid = TimeGrid.geometric(0.5, 2.0, 5)
    x = simulate_ensemble(GaussianDriver(), params, grid, 12, master_seed=3)
    # the whole chain at once, and its last step on an ensemble of the
    # intermediate role, both bit-for-bit equal to the per-row chain
    points, values, role = row_by_row(x, params, chain, "X")
    chained = simulate_ensemble(GaussianDriver(), params, grid, 12, 3, transforms=chain)
    for ens in (apply_transforms(x, params, chain), chained):
        assert np.array_equal(ens.grid.points, points)
        assert np.array_equal(ens.values, values)
        assert ens.role == role
    v = apply_transforms(x, params, chain[:1])
    last = apply_transforms(v, params, chain[1:])
    assert np.array_equal(last.values, row_by_row(v, params, chain[1:], "V")[1])
    assert last.role == role


def test_ensemble_carries_one_role():
    grid = TimeGrid(np.array([0.5, 1.0]))
    assert [f.name for f in dataclasses.fields(SamplePath)] == ["grid", "values", "role"]
    assert SamplePath(grid, np.zeros((2, 2))).role == "X"
    with pytest.raises(ValueError, match="role"):
        SamplePath(grid, np.zeros((2, 2)), role="Q")


def test_idt_with_negative_delta_reverses_columns():
    params = DilationParams(1.0, -0.5)
    grid = TimeGrid(np.array([-1.0, 0.0, 1.0]))
    v = SamplePath(grid, np.arange(6.0).reshape(2, 3), role="V")
    d = apply_transforms(v, params, ("idt",))
    assert np.array_equal(d.grid.points, np.exp(-0.5 * grid.points)[::-1])
    assert np.array_equal(d.values, [[2.0, 1.0, 0.0], [5.0, 4.0, 3.0]])
    assert np.array_equal(v.values, np.arange(6.0).reshape(2, 3))


@pytest.mark.parametrize(
    "points, params, chain, role, error",
    [
        ((0.0, 1.0), UNIT, ("lamperti",), "X", NonPositiveTime),
        ((0.5, 1.0), UNIT, ("time_stable",), "X", ValueError),
        ((0.5, 1.0), UNIT, ("lamperti", "idt", "idt"), "X", ValueError),
        ((-1.0, 1.0), DilationParams(0.7, 0.0), ("idt",), "V", DegenerateDelta),
        ((0.5, 1.0), UNIT, ("spin",), "X", ValueError),
        ((0.5, 1.0), UNIT, ("lamperti",), "Q", ValueError),
    ],
)
def test_ensemble_chain_raises_like_row_by_row(points, params, chain, role, error):
    grid = TimeGrid(np.array(points))
    with pytest.raises(error):
        apply_transforms(SamplePath(grid, np.zeros((3, 2)), role=role), params, chain)
    with pytest.raises(error):
        row_by_row(SamplePath(grid, np.zeros((3, 2))), params, chain, role)


def test_empty_ensemble():
    times = (0.5, 1.0, 2.0)
    ens = simulate_ensemble(GaussianDriver(), UNIT, times, 0, 1, transforms=("lamperti", "idt"))
    assert ens.values.shape == (0, 3)
    assert np.allclose(ens.grid.points, times, rtol=1e-14)


def test_check_scaling_small_run():
    ens = simulate_ensemble(GaussianDriver(), UNIT, (0.5, 1.0, 2.0), 800, 11, refine=16.0)
    law = DilativeLaw(1.0, 1.0, 2.0)
    points = marginal_points((0.5, 1.0), (0.5, 1.0))
    report = check_scaling(ens, law, points, oracle=lambda t, th: oracle_joint_log_cf(GaussianDriver(), UNIT, t, th))
    assert report.pass_fraction == 1.0
    assert len(report.rows) == 4
    for row in report.rows:
        assert row.passed
        assert row.oracle is not None
    blob = json.dumps(report.to_dict())
    parsed = json.loads(blob)
    assert parsed["pass_fraction"] == 1.0
    assert parsed["law"]["kind"] == "dilative"
    assert "oracle" in parsed["rows"][0]


def test_check_scaling_leaves_out_an_oracle_out_of_domain():
    ens = simulate_ensemble(GaussianDriver(), UNIT, (0.5, 1.0, 2.0), 200, 3, refine=8.0)

    def oracle(times, thetas):
        if times == (1.0,):
            raise OracleOutOfDomain("overflows")
        return oracle_joint_log_cf(GaussianDriver(), UNIT, times, thetas)

    report = check_scaling(ens, DilativeLaw(1.0, 1.0, 2.0), marginal_points((0.5, 1.0), (0.5,)), oracle=oracle)
    first, second = report.to_dict()["rows"]
    assert "oracle" not in first and len(first["z"]) == 2
    assert "oracle" in second


def test_check_scaling_accepts_paired_ensembles():
    ens = simulate_ensemble(GaussianDriver(), UNIT, (0.5, 1.0, 2.0), 800, 11, refine=16.0)
    law = DilativeLaw(1.0, 1.0, 2.0)
    points = [TestPoint((0.5,), (1.0,)), TestPoint((1.0,), (0.5,))]
    single = check_scaling(ens, law, points)
    paired = check_scaling((ens, ens), law, points)
    for a, b in zip(single.rows, paired.rows):
        assert a.lhs == b.lhs and a.rhs == b.rhs
        assert a.z_real == b.z_real and a.z_imag == b.z_imag


def test_check_scaling_refuses_an_empty_list_of_points():
    # no points once gave no rows and a pass fraction of 1.0
    with pytest.raises(ValueError, match="at least one test point"):
        check_scaling(normal_ensemble(0.0, 1.0, 50, 3), IdtLaw(2.0), [])


def test_check_scaling_flags_wrong_multiplier():
    # a multiplier off by 2^0.5 on points with enough signal must fail
    ens = simulate_ensemble(GaussianDriver(), UNIT, (0.5, 1.0, 2.0), 4000, 21, refine=16.0)
    wrong = DilativeLaw(0.75, 0.5, 2.0)  # keeps H = 0.5, shifts the multiplier
    points = [TestPoint((1.0,), (1.0,)), TestPoint((0.5,), (1.5,))]
    report = check_scaling(ens, wrong, points)
    assert report.pass_fraction == 0.0


IDT_POINTS = marginal_points((0.5, 1.0, 2.0), (0.25, 0.5, 0.75, 1.0)) + [
    increment_pair(0.5, 1.0, 1.0),
    increment_pair(1.0, 2.0, 1.0),
]


def idt_ensemble(n_paths, seed):
    return simulate_ensemble(
        GaussianDriver(), UNIT, (0.5, 1.0, 2.0, 4.0), n_paths, seed, transforms=("lamperti", "idt")
    )


def pointwise_rows(scaled_ens, base_ens, law, points, r_steps=16):
    """The reference: both terms of every point estimated on their own."""
    rows = []
    for point in points:
        (_, sp), (a, bp) = law.terms(point)
        lhs = estimate_log_cf(scaled_ens, sp.times, sp.thetas, r_steps)
        base = estimate_log_cf(base_ens, bp.times, bp.thetas, r_steps)
        rhs = -a * base.logcf
        se = math.hypot(lhs.logcf_se, -a * base.logcf_se)
        diff = lhs.logcf - rhs
        rows.append((lhs.logcf, rhs, diff.real / se, diff.imag / se))
    return rows


def count_log_cf_calls(monkeypatch):
    import dilastab.ecf as ecf_module

    calls = []
    original = ecf_module.estimate_log_cf

    def counted(ens, times, thetas, r_steps=16):
        calls.append((id(ens), tuple(times), tuple(thetas)))
        return original(ens, times, thetas, r_steps=r_steps)

    monkeypatch.setattr(ecf_module, "estimate_log_cf", counted)
    return calls


def test_check_scaling_estimates_each_distinct_ray_once(monkeypatch):
    ens = idt_ensemble(600, 5)
    law = IdtLaw(2.0)
    rays = set()
    for point in IDT_POINTS:
        for _, side in law.terms(point):
            rays.add((side.times, side.thetas))
    assert (len(rays), 2 * len(IDT_POINTS)) == (19, 28)
    expected = pointwise_rows(ens, ens, law, IDT_POINTS)
    calls = count_log_cf_calls(monkeypatch)
    report = check_scaling(ens, law, IDT_POINTS)
    assert len(calls) == len(set(calls)) == len(rays)
    got = [(row.lhs, row.rhs, row.z_real, row.z_imag) for row in report.rows]
    assert got == expected


def test_check_scaling_keeps_paired_ensembles_apart(monkeypatch):
    scaled, base = idt_ensemble(600, 5), idt_ensemble(600, 6)
    law = IdtLaw(2.0)
    expected = pointwise_rows(scaled, base, law, IDT_POINTS)
    calls = count_log_cf_calls(monkeypatch)
    report = check_scaling((scaled, base), law, IDT_POINTS)
    # every point's scaled ray is on one ensemble and its base ray on the
    # other, so no estimate is shared between the sides
    assert len(calls) == 2 * len(IDT_POINTS)
    got = [(row.lhs, row.rhs, row.z_real, row.z_imag) for row in report.rows]
    assert got == expected
    shared = [(r.lhs, r.rhs) for r in check_scaling(scaled, law, IDT_POINTS).rows]
    assert [(lhs, rhs) for lhs, rhs, *_ in got] != shared


def reference_rng(seed, n):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n,)))


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**100 + 5, 2**130])
def test_derive_rng_is_the_spawned_seed_sequence(seed):
    # BLOCK and then BLOCK - 1 step back across a block edge; 2**32 takes the fallback
    for n in (0, BLOCK, BLOCK - 1, 70000, 2**32 - 1, 2**32):
        got, want = derive_rng(seed, n), reference_rng(seed, n)
        assert got.bit_generator.state == want.bit_generator.state
        assert np.array_equal(got.integers(0, 2**63, 8), want.integers(0, 2**63, 8))


@given(st.integers(0, 2**256), st.integers(0, 2**32 - 1))
def test_derive_rng_is_the_spawned_seed_sequence_for_any_seed(seed, n):
    # master seeds of 1 to 8 uint32 words: the pool numpy computes, and the
    # hash constant's closed form for the words beyond the pool's 4
    got, want = derive_rng(seed, n), reference_rng(seed, n)
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(got.random(4), want.random(4))


def test_derive_rng_across_blocks_and_seeds_evicting_the_cache():
    # two seeds alternate over the last and first key of many blocks, more
    # blocks than the cache holds, then the first keys are drawn again after
    # their blocks were evicted
    blocks = range(1, _block_seeds.cache_info().maxsize + 4)
    keys = [n for k in blocks for n in (k * BLOCK - 1, k * BLOCK)]
    keys += keys[:4]
    for i, n in enumerate(keys):
        for seed in ((7, 2**40 + 3) if i % 2 else (2**40 + 3, 7)):
            got, want = derive_rng(seed, n), reference_rng(seed, n)
            assert got.bit_generator.state == want.bit_generator.state, (seed, n)
    info = _block_seeds.cache_info()
    assert info.currsize == info.maxsize


def test_derive_rng_numpy_integers_match_python_ints():
    want = derive_rng(7, 5).random(6)
    pairs = [(np.int64(7), 5), (np.uint64(7), np.uint64(5)), (7, np.uint32(5)), (np.uint8(7), np.int8(5))]
    for seed, n in pairs:
        assert np.array_equal(derive_rng(seed, n).random(6), want)


def test_derive_rng_rejects_what_seed_sequence_rejects():
    for seed, n in [(-1, 0), (7, -1)]:
        with pytest.raises(ValueError):
            derive_rng(seed, n)
    # a seed that is no integer gets SeedSequence's own words
    with pytest.raises(TypeError) as want:
        np.random.SeedSequence(1.5, spawn_key=(0,))
    with pytest.raises(TypeError, match=re.escape(str(want.value))):
        derive_rng(1.5, 0)


def test_derived_generator_pickles_like_the_reference():
    got, want = derive_rng(7, 3), reference_rng(7, 3)
    assert np.array_equal(got.random(3), want.random(3))
    got2, want2 = pickle.loads(pickle.dumps(got)), pickle.loads(pickle.dumps(want))
    assert np.array_equal(got2.random(5), want2.random(5))


def test_derived_seed_words_are_the_reference_seed_sequences():
    # the block's words for PCG64's call, as often as it is made, and the
    # SeedSequence's for any other
    got = derive_rng(7, 3).bit_generator.seed_seq
    want = np.random.SeedSequence(7, spawn_key=(3,))
    for args in [(4, np.uint64), (8,), (2, np.uint64), (4, np.uint64)]:
        assert np.array_equal(got.generate_state(*args), want.generate_state(*args))


def test_derived_generator_does_not_spawn():
    with pytest.raises(TypeError):
        derive_rng(7, 3).spawn(2)


def test_derived_generators_do_not_share_state():
    a, b, again = derive_rng(7, 10), derive_rng(7, 11), derive_rng(7, 10)
    ref_a, ref_b = reference_rng(7, 10), reference_rng(7, 11)
    for _ in range(3):
        assert a.random() == ref_a.random()
        assert b.random() == ref_b.random()
    assert np.array_equal(again.random(4), reference_rng(7, 10).random(4))


def test_import_leaves_numpy_random_unloaded(package_env):
    code = "import sys, dilastab; sys.exit('numpy.random' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=package_env).returncode == 0


# oracle_log_cf(spec, params, 3.0, -1.3) away from alpha = delta = 1, where
# 2H + delta == 2 alpha exactly and a changed rate would not show, recorded
# bit for bit before the closed forms were read from stable_part: the
# Gaussian with drift (real, imaginary), stable 1.5, stable 0.8 and stable 2
# (real parts).  Stable 2 was recorded with the rate 2H + delta and takes the
# exact 2 alpha, which moves some of these values by one ulp.
ORACLE_PINS = {
    (0.35, -0.4): (-2.2121218104460514, -3.719709180865722, -4.049685830492734, -50.8265162673974, -2.5281392119383446),
    (0.25, -0.2): (-2.26074322053698, -3.3825747398734993, -4.314725692975364, -24.14813597886786, -2.5837065377565493),
    (0.7, 0.0): (-1.9669642649377186, -1.2021300274144164, -2.6844436824299227, -5.297828676568993, -2.2479591599288216),
    (0.5, 1.0): (-1.0327176663396198, -0.6809127470371119, -1.5527199616169216, -2.7997863483151204, -1.180248761530994),
    (1.0, 1.0): (-1.5490764995094295, -0.7862503155930481, -2.0225349199887566, -3.103454323243905, -1.770373142296491),
    (0.8, -0.5): (-2.7245067050729657, -1.648836963340944, -3.4246979247834752, -8.707619653277138, -3.1137219486548187),
    (2.0, 3.0): (-1.8827673093306072, -0.819101698861001, -2.2943337241065866, -3.106334754065977, -2.1517340678064087),
    (0.3, 0.1): (-1.812093432449096, -1.55630006924802, -2.9999194942263037, -7.066713603679368, -2.0709639227989673),
    (3.0, -1.0): (-113.6923154867546, -3.8470499018941915, -35.28927742835376, -10.182252726983513, -129.9340748420053),
    (0.05, 0.1): (-6.27727578612743, -4.138863155688416, -9.438060115928396, -17.018234144189528, -7.174029469859922),
}


@pytest.mark.parametrize("alpha, delta", list(ORACLE_PINS))
def test_oracle_values_are_pinned_away_from_the_default_pair(alpha, delta):
    params = DilationParams(alpha, delta)
    gauss_re, gauss_im, stable15, stable08, stable2 = ORACLE_PINS[(alpha, delta)]
    value = oracle_log_cf(GaussianDriver(variance=0.7, drift=0.3), params, 3.0, -1.3)
    assert (value.real, value.imag) == (gauss_re, gauss_im)
    for (index, scale), want in ((1.5, 0.6), stable15), ((0.8, 1.3), stable08):
        assert oracle_log_cf(SymmetricStableDriver(index, scale), params, 3.0, -1.3) == want
    value = oracle_log_cf(SymmetricStableDriver(2.0, 0.4), params, 3.0, -1.3)
    assert abs(value.real - stable2) <= math.ulp(stable2) and value.imag == 0.0


def test_oracle_needs_positive_rates():
    with pytest.raises(OracleOutOfDomain, match="needs 0.8"):
        # 0.8 * H + delta = 0.8 * 1.55 - 1.5 < 0
        oracle_log_cf(SymmetricStableDriver(0.8, 1.0), DilationParams(0.8, -1.5), 1.0, 1.0)
    with pytest.raises(OracleOutOfDomain, match="needs 1"):
        # the drift's H + delta = 1.55 - 1.6 < 0, where 2 alpha > 0
        oracle_log_cf(GaussianDriver(drift=1.0), DilationParams(0.75, -1.6), 1.0, 1.0)
    assert oracle_log_cf(GaussianDriver(), DilationParams(0.75, -1.6), 1.0, 1.0).imag == 0.0


def test_non_finite_samples_are_reported_not_estimated():
    # one inf and one nan among 40 paths: before any cos or sin, which would
    # warn, and instead of rows whose lhs, rhs and z are nan
    values = np.ones((40, 2))
    values[3, 1], values[7, 1] = math.inf, math.nan
    ens = SamplePath(TimeGrid(np.array([1.0, 2.0])), values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DilastabError, match=r"^2 of 40 paths .* times \[2.0\], thetas \[0.5\]"):
            estimate_log_cf(ens, (2.0,), (0.5,))
        with pytest.raises(DilastabError, match="2 of 40 paths"):
            check_scaling(ens, DilativeLaw(1.0, 1.0, 2.0), marginal_points([1.0], [0.5]))
    # the finite column alone still estimates
    assert estimate_log_cf(ens, (1.0,), (0.5,)).logcf.imag == pytest.approx(0.5)
