"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single pass/fail line
(visible under pytest -s or in captured output), and enforces the stated
runtime budget where one applies.  The two large ensembles are shared
module-scoped fixtures; their build time is charged to the first criterion
that uses them.
"""

import json
import math
import time

import numpy as np
import pytest

from dilastab import (
    CONDITION_A,
    CONDITION_B,
    DEGENERATE_EQUAL,
    INADMISSIBLE,
    SELFSIMILAR,
    CompoundPoissonDriver,
    DilationParams,
    DilativeLaw,
    EnsembleConfig,
    GammaDriver,
    GaussianDriver,
    GaussianJumps,
    IdtLaw,
    SymmetricStableDriver,
    TestPoint,
    TimeGrid,
    TimeStableLaw,
    TranslativeLaw,
    TwoPointJumps,
    admissibility,
    apply_transforms,
    cascade_partial_sums,
    check_scaling,
    estimate_log_cf,
    extract_background,
    increment_pair,
    oracle_joint_log_cf,
    oracle_log_cf,
    ou_evolve,
    rs_integral,
    simulate_dilative,
    simulate_driving,
    simulate_ensemble,
)
from dilastab.cli import main as cli_main
from dilastab.processes import ou_from_integral

MASTER_SEED = 20250819
UNIT = DilationParams(1.0, 1.0)
STABLE_PARAMS = DilationParams(1.0, 0.5)
STABLE_DRIVER = SymmetricStableDriver(1.5, 1.0)

# eleven marginal points plus one two-dimensional increment point; every
# (t, theta) product is large enough that a factor sqrt(2) multiplier error
# is resolvable at 10^4 paths
GAUSS_POINTS = [
    TestPoint((t,), (th,))
    for t, th in [
        (0.5, 1.0),
        (0.5, 1.5),
        (0.5, 2.0),
        (1.0, 0.5),
        (1.0, 0.75),
        (1.0, 1.0),
        (1.0, 1.5),
        (2.0, 0.25),
        (2.0, 0.5),
        (2.0, 0.75),
        (4.0, 0.25),
    ]
] + [increment_pair(1.0, 2.0, 1.0)]


CRITERION_LINES = []


def report(num, label, ok, elapsed):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {label}: {status} ({elapsed:.2f}s)"
    CRITERION_LINES.append(line)
    print(line)


@pytest.fixture(scope="module")
def gauss_bundle():
    start = time.perf_counter()
    cfg = EnsembleConfig(
        GaussianDriver(),
        UNIT,
        (0.5, 1.0, 2.0, 4.0, 8.0),
        refine=128.0,
        tail_tol=1e-4,
    )
    ens = simulate_ensemble(cfg, 10_000, master_seed=MASTER_SEED)
    return {"ens": ens, "build": time.perf_counter() - start, "charged": False}


@pytest.fixture(scope="module")
def stable_bundle():
    start = time.perf_counter()
    cfg = EnsembleConfig(
        STABLE_DRIVER, STABLE_PARAMS, (0.5, 1.0, 2.0), refine=64.0, tail_tol=1e-4
    )
    ens = simulate_ensemble(cfg, 10_000, master_seed=MASTER_SEED)
    return {"ens": ens, "build": time.perf_counter() - start, "charged": False}


def charge(bundle):
    if bundle["charged"]:
        return 0.0
    bundle["charged"] = True
    return bundle["build"]


def test_criterion_01_oracle_scaling_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)
    drivers = [GaussianDriver(), GaussianDriver(2.0, 0.5), STABLE_DRIVER]
    checked = 0
    worst = 0.0
    while checked < 200:
        alpha = float(rng.uniform(0.1, 2.5))
        delta = float(rng.uniform(-1.5, 2.5))
        spec = drivers[checked % len(drivers)]
        params = DilationParams(alpha, delta)
        if not admissibility(params, spec).admissible:
            continue
        t = float(rng.uniform(0.1, 5.0))
        big = float(rng.uniform(1.05, 4.0))
        theta = float(rng.uniform(-3.0, 3.0))
        lhs = oracle_log_cf(spec, params, big * t, theta)
        rhs = big**delta * oracle_log_cf(spec, params, t, big**params.hurst * theta)
        scale = max(abs(lhs), abs(rhs), 1e-300)
        worst = max(worst, abs(lhs - rhs) / scale)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, "closed-form scaling identity", ok, elapsed)
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_unit_time_variance(gauss_bundle):
    start = time.perf_counter()
    ens = gauss_bundle["ens"]
    column = ens.values[:, ens.grid.index_of(1.0)]
    target = 1.0 / (2.0 * (math.e - 1.0))
    se = target * math.sqrt(2.0 / (ens.n_paths - 1))
    got = column.var(ddof=1)
    elapsed = time.perf_counter() - start + charge(gauss_bundle)
    ok = abs(got - target) <= 3.0 * se and elapsed < 30.0
    report(2, "unit-time variance", ok, elapsed)
    assert abs(got - target) <= 3.0 * se, (got, target, se)
    assert elapsed < 30.0


def test_criterion_03_dilative_check_and_misspecification(gauss_bundle):
    start = time.perf_counter()
    ens = gauss_bundle["ens"]
    good = check_scaling(ens, DilativeLaw(1.0, 1.0, 2.0), GAUSS_POINTS)
    # the wrong law keeps the simulated weight exponent (H = 0.5) but shifts
    # the assumed rate, so only the multiplier is off, by a factor sqrt(2)
    wrong = check_scaling(ens, DilativeLaw(0.75, 0.5, 2.0), GAUSS_POINTS)
    elapsed = time.perf_counter() - start + charge(gauss_bundle)
    ok = good.pass_fraction >= 0.99 and wrong.pass_fraction < 0.5 and elapsed < 60.0
    report(3, "dilative law check and mis-specified rejection", ok, elapsed)
    assert good.pass_fraction >= 0.99, [r.to_dict()["z"] for r in good.rows]
    assert wrong.pass_fraction < 0.5, [r.to_dict()["z"] for r in wrong.rows]
    assert elapsed < 60.0


def test_criterion_04_stable_process_against_oracle(stable_bundle):
    start = time.perf_counter()
    ens = stable_bundle["ens"]
    points = [
        TestPoint((t,), (th,)) for t in (0.5, 1.0) for th in (0.5, 1.0)
    ] + [increment_pair(0.5, 1.0, 1.0)]
    rep = check_scaling(ens, DilativeLaw(1.0, 0.5, 2.0), points)
    oracle_points = [
        ((0.5,), (0.5,)),
        ((0.5,), (1.0,)),
        ((1.0,), (0.5,)),
        ((1.0,), (1.0,)),
        ((2.0,), (0.5,)),
        ((0.5, 1.0), (1.0, -0.5)),
    ]
    oracle_z = []
    for times, thetas in oracle_points:
        est = estimate_log_cf(ens, times, thetas)[-1]
        want = oracle_joint_log_cf(STABLE_DRIVER, STABLE_PARAMS, times, thetas)
        oracle_z.append(abs(est.logcf - want) / est.logcf_se)
    elapsed = time.perf_counter() - start + charge(stable_bundle)
    ok = (
        rep.pass_fraction >= 0.99
        and max(oracle_z) <= 3.0
        and elapsed < 60.0
    )
    report(4, "heavy-tailed process against its oracle", ok, elapsed)
    assert rep.pass_fraction >= 0.99, [r.to_dict()["z"] for r in rep.rows]
    assert max(oracle_z) <= 3.0, oracle_z
    assert elapsed < 60.0


def test_criterion_05_background_round_trip():
    start = time.perf_counter()
    eps = np.finfo(float).eps
    rng = np.random.default_rng(MASTER_SEED)
    drivers = [
        GaussianDriver(),
        GaussianDriver(2.0, 0.5),
        STABLE_DRIVER,
        CompoundPoissonDriver(2.0, GaussianJumps(0.5, 1.0)),
        GammaDriver(2.0, 3.0),
    ]
    regimes = [(1.0, 1.0), (1.0, -1.0), (0.7, 0.0), (0.5, 1.0)]
    worst = 0.0
    for case in range(100):
        spec = drivers[case % len(drivers)]
        alpha, delta = regimes[case % len(regimes)]
        if isinstance(spec, SymmetricStableDriver) and delta < 0:
            delta = -0.5  # keep the moment requirement below the stable index
        params = DilationParams(alpha, delta)
        size = int(rng.integers(4, 11))
        u = np.unique(np.concatenate([rng.uniform(-1.5, 1.5, size), [0.0]]))
        grid = TimeGrid(np.exp(u))
        x = simulate_dilative(spec, params, grid, rng, refine=4.0, tail_tol=1e-2)
        y = extract_background(x, params)
        pts = x.grid.points
        rebuilt = x.values[0] + np.cumsum(
            np.concatenate([[0.0], pts[:-1] ** params.hurst * np.diff(y.values)])
        )
        steps = len(pts) - 1
        scale = abs(x.values[0]) + np.abs(np.diff(x.values)).sum()
        tol = 4.0 * eps * steps * scale
        err = np.abs(rebuilt - x.values).max()
        if tol > 0:
            worst = max(worst, err / tol)
        else:
            worst = max(worst, 0.0 if err == 0 else math.inf)
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0
    report(5, "background extraction round trip", ok, elapsed)
    assert worst <= 1.0, worst


def test_criterion_06_transform_consistency(gauss_bundle):
    start = time.perf_counter()
    # exact evolution identity on a shared grid
    log_grid = TimeGrid(np.linspace(-1.5, 1.5, 13))
    y = simulate_driving(GaussianDriver(), 1.0, log_grid, np.random.default_rng(5))
    rate = UNIT.ou_rate
    flow = ou_evolve(0.83, y, rate, -1.5, 1.5)
    s, t = 0.75, 1.5
    integral = rs_integral(lambda u: np.exp(-rate * u), y, s, t)
    rhs = math.exp(rate * (t - s)) * flow.value_at(s) + math.exp(rate * t) * integral
    flow_err = abs(flow.value_at(t) - rhs) / max(1.0, abs(rhs))

    # the moving-average form equals the transformed direct simulation
    log_out = TimeGrid(np.array([-0.7, 0.0, 0.7, 1.4]))
    out = TimeGrid(np.exp(log_out.points))
    agree = True
    for seed in range(5):
        v = ou_from_integral(GaussianDriver(), UNIT, log_out, np.random.default_rng(seed))
        x = simulate_dilative(GaussianDriver(), UNIT, out, np.random.default_rng(seed))
        w = apply_transforms(x, UNIT, ("lamperti",))
        agree = agree and np.allclose(v.values, w.values, rtol=1e-12, atol=1e-14)

    # transforming there and back preserves the scaling verdicts
    ens = gauss_bundle["ens"]
    v_ens = apply_transforms(ens, UNIT, ("lamperti",))
    back = apply_transforms(v_ens, UNIT, ("lamperti_inverse",))
    law = DilativeLaw(1.0, 1.0, 2.0)
    direct = check_scaling(ens, law, GAUSS_POINTS)
    round_trip = check_scaling(back, law, GAUSS_POINTS)
    z_direct = np.array([[r.z_real, r.z_imag] for r in direct.rows])
    z_back = np.array([[r.z_real, r.z_imag] for r in round_trip.rows])
    verdicts_match = np.allclose(z_back, z_direct, rtol=1e-6, atol=1e-8) and all(
        a.passed == b.passed for a, b in zip(direct.rows, round_trip.rows)
    )
    elapsed = time.perf_counter() - start + charge(gauss_bundle)
    ok = flow_err <= 1e-12 and agree and verdicts_match
    report(6, "transform consistency", ok, elapsed)
    assert flow_err <= 1e-12
    assert agree
    assert verdicts_match


def test_criterion_07_law_transport(gauss_bundle):
    start = time.perf_counter()
    ens = gauss_bundle["ens"]
    big = 2.0
    h = UNIT.hurst
    dilative = check_scaling(ens, DilativeLaw(1.0, 1.0, big), GAUSS_POINTS)

    def scaled_thetas(point):
        return tuple(
            ph * (big * t) ** h for t, ph in zip(point.times, point.thetas)
        )

    log_points = [
        TestPoint(tuple(math.log(t) for t in p.times), scaled_thetas(p))
        for p in GAUSS_POINTS
    ]
    # delta = 1 makes the relabelled clocks coincide with the original times
    flat_points = [TestPoint(p.times, scaled_thetas(p)) for p in GAUSS_POINTS]

    v_ens = apply_transforms(ens, UNIT, ("lamperti",))
    z_ens = apply_transforms(v_ens, UNIT, ("time_stable",))
    d_ens = apply_transforms(v_ens, UNIT, ("idt",))

    reports = {
        "translative": check_scaling(
            v_ens, TranslativeLaw(1.0, math.log(big)), log_points
        ),
        "time_stable": check_scaling(z_ens, TimeStableLaw(1.0, big), flat_points),
        "idt": check_scaling(d_ens, IdtLaw(big), flat_points),
    }
    z_ref = np.array([[r.z_real, r.z_imag] for r in dilative.rows])
    all_pass = dilative.pass_fraction == 1.0
    all_match = True
    for rep in reports.values():
        all_pass = all_pass and rep.pass_fraction == 1.0
        z_got = np.array([[r.z_real, r.z_imag] for r in rep.rows])
        all_match = all_match and np.allclose(z_got, z_ref, rtol=1e-6, atol=1e-8)
    elapsed = time.perf_counter() - start + charge(gauss_bundle)
    ok = all_pass and all_match
    report(7, "scaling law transport across representations", ok, elapsed)
    assert all_pass, {k: v.pass_fraction for k, v in reports.items()}
    assert all_match


def test_criterion_08_admissibility_table():
    start = time.perf_counter()
    cases = [
        (DilationParams(1.0, 1.0), GaussianDriver(), CONDITION_A),
        (DilationParams(0.8, 0.6), GaussianDriver(2.0, 0.5), CONDITION_A),
        (DilationParams(1.0, 0.5), STABLE_DRIVER, CONDITION_A),
        (DilationParams(2.0, 3.0), GammaDriver(2.0, 3.0), CONDITION_A),
        (DilationParams(1.0, 1.0), CompoundPoissonDriver(2.0, TwoPointJumps(1.0)), CONDITION_A),
        (DilationParams(0.5, 1.0), GaussianDriver(), DEGENERATE_EQUAL),
        (DilationParams(1.0, 2.0), SymmetricStableDriver(0.8), DEGENERATE_EQUAL),
        (DilationParams(0.3, 1.0), GaussianDriver(), INADMISSIBLE),
        (DilationParams(-1.0, 0.5), GammaDriver(), INADMISSIBLE),
        (DilationParams(0.7, 0.0), GaussianDriver(), SELFSIMILAR),
        (DilationParams(0.5, 0.0), SymmetricStableDriver(2.0), SELFSIMILAR),
        (DilationParams(1.2, 0.0), GammaDriver(), SELFSIMILAR),
        (DilationParams(0.0, 0.0), GaussianDriver(), INADMISSIBLE),
        (DilationParams(-0.3, 0.0), SymmetricStableDriver(1.5), INADMISSIBLE),
        (DilationParams(1.0, -1.0), GaussianDriver(), CONDITION_B),
        (DilationParams(1.0, -0.5), SymmetricStableDriver(1.9), CONDITION_B),
        (DilationParams(2.0, -1.0), GammaDriver(), CONDITION_B),
        (DilationParams(0.6, -0.4), CompoundPoissonDriver(1.0, TwoPointJumps(0.5)), CONDITION_B),
        (DilationParams(1.0, -1.0), SymmetricStableDriver(1.5), INADMISSIBLE),
        (DilationParams(0.5, -1.0), GaussianDriver(), INADMISSIBLE),
    ]
    failures = []
    seen = set()
    for params, spec, want in cases:
        verdict = admissibility(params, spec)
        seen.add(verdict.status)
        if verdict.status != want:
            failures.append((params, spec, verdict.status, want))
    # the moment-order rejection must name both the need and the supply
    stable_verdict = admissibility(DilationParams(1.0, -1.0), SymmetricStableDriver(1.5))
    named = "2" in stable_verdict.reason and "1.5" in stable_verdict.reason
    elapsed = time.perf_counter() - start
    ok = not failures and named and seen == {
        CONDITION_A,
        CONDITION_B,
        DEGENERATE_EQUAL,
        SELFSIMILAR,
        INADMISSIBLE,
    }
    report(8, "admissibility truth table", ok, elapsed)
    assert not failures, failures
    assert named
    assert seen == {CONDITION_A, CONDITION_B, DEGENERATE_EQUAL, SELFSIMILAR, INADMISSIBLE}


def test_criterion_09_cascade_partial_sums():
    start = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)
    gaps = []
    for _ in range(100):
        samples = rng.normal(size=2**12)
        sums = cascade_partial_sums(samples, a=2, b=1, beta=2.0, levels=12)
        gaps.append(sums[12] - sums[11])
    median_gap = float(np.median(gaps))
    exact = np.array_equal(
        cascade_partial_sums(np.ones(2**12), a=2, b=1, beta=2.0, levels=12),
        np.array([2.0 - 2.0 ** -k for k in range(13)]),
    )
    elapsed = time.perf_counter() - start
    ok = median_gap < 1e-2 and exact
    report(9, "cascade partial sums converge", ok, elapsed)
    assert median_gap < 1e-2, median_gap
    assert exact


def test_criterion_10_thread_invariant_output(tmp_path, capsys):
    start = time.perf_counter()
    csv_blobs = []
    json_blobs = []
    for threads in (1, 4, 8):
        csv_path = tmp_path / f"paths_{threads}.csv"
        code = cli_main(
            [
                "simulate",
                "--n-paths",
                "300",
                "--seed",
                str(MASTER_SEED),
                "--threads",
                str(threads),
                "--output",
                str(csv_path),
            ]
        )
        assert code == 0
        csv_blobs.append(csv_path.read_bytes())
        json_path = tmp_path / f"report_{threads}.json"
        code = cli_main(
            [
                "verify",
                "--law",
                "dilative",
                "--T",
                "2",
                "--times",
                "0.5,1",
                "--thetas",
                "1",
                "--n-paths",
                "300",
                "--seed",
                str(MASTER_SEED),
                "--threads",
                str(threads),
                "--output",
                str(json_path),
            ]
        )
        assert code == 0
        json_blobs.append(json_path.read_bytes())
    capsys.readouterr()
    same_csv = csv_blobs[0] == csv_blobs[1] == csv_blobs[2]
    same_json = json_blobs[0] == json_blobs[1] == json_blobs[2]
    parsed = json.loads(json_blobs[0])
    elapsed = time.perf_counter() - start
    ok = same_csv and same_json and parsed["pass_fraction"] == 1.0
    report(10, "byte-identical output across thread counts", ok, elapsed)
    assert same_csv
    assert same_json
    assert parsed["pass_fraction"] == 1.0
