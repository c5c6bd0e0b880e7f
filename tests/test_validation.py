import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dilastab import (
    CONDITION_A,
    CONDITION_B,
    DEGENERATE_EQUAL,
    INADMISSIBLE,
    SELFSIMILAR,
    CompoundPoissonDriver,
    DilationParams,
    GammaDriver,
    GaussianDriver,
    NotEnoughSamples,
    SymmetricStableDriver,
    TwoPointJumps,
    WrongRegime,
    admissibility,
    cascade_partial_sums,
    required_moment_order,
)


def test_positive_delta_branches():
    v = admissibility(DilationParams(1.0, 1.0), GaussianDriver())
    assert v.status == CONDITION_A and v.admissible
    assert v.gamma is None
    v = admissibility(DilationParams(0.5, 1.0), GaussianDriver())
    assert v.status == DEGENERATE_EQUAL and v.admissible
    v = admissibility(DilationParams(0.3, 1.0), GaussianDriver())
    assert v.status == INADMISSIBLE and not v.admissible
    # heavy tails are fine here: no moment condition in this regime
    v = admissibility(DilationParams(1.0, 0.5), SymmetricStableDriver(0.6))
    assert v.status == CONDITION_A


def test_zero_delta_branches():
    v = admissibility(DilationParams(0.7, 0.0), GaussianDriver())
    assert v.status == SELFSIMILAR and v.admissible
    v = admissibility(DilationParams(0.0, 0.0), GaussianDriver())
    assert v.status == INADMISSIBLE
    v = admissibility(DilationParams(-0.2, 0.0), GaussianDriver())
    assert v.status == INADMISSIBLE


def test_negative_delta_gamma_values():
    v = admissibility(DilationParams(1.0, -1.0), GaussianDriver())
    assert v.status == CONDITION_B and v.admissible
    assert v.required_gamma == 2.0
    assert v.gamma == 3.0
    v = admissibility(DilationParams(1.0, -0.5), SymmetricStableDriver(1.9))
    assert v.status == CONDITION_B
    assert v.required_gamma == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert v.gamma == pytest.approx(1.2833333333333332, rel=1e-15)
    assert v.gamma < 1.9


def test_negative_delta_rejections():
    # boundary alpha = -delta/2 is out
    v = admissibility(DilationParams(0.5, -1.0), GaussianDriver())
    assert v.status == INADMISSIBLE
    # a 1.5-stable driver cannot supply the order-2 moment needed here
    v = admissibility(DilationParams(1.0, -1.0), SymmetricStableDriver(1.5))
    assert v.status == INADMISSIBLE and not v.admissible
    assert "2" in v.reason and "1.5" in v.reason


@pytest.mark.parametrize("delta", [1.0, 0.0, -1.0])
def test_a_nan_alpha_is_refused_as_not_finite(delta):
    # nan fails every comparison: without the finite check it would get the
    # wrong reason at delta > 0, be admitted as self-similar at delta = 0 and
    # raise required_moment_order's WrongRegime at delta < 0
    v = admissibility(DilationParams(math.nan, delta), GaussianDriver())
    assert v.status == INADMISSIBLE
    assert v.reason.startswith("alpha and delta must be finite; got alpha = nan")


def test_required_moment_order():
    assert required_moment_order(DilationParams(1.0, -1.0)) == 2.0
    assert required_moment_order(DilationParams(1.0, -0.5)) == pytest.approx(
        2.0 / 3.0, rel=1e-15
    )
    with pytest.raises(WrongRegime):
        required_moment_order(DilationParams(1.0, 1.0))
    with pytest.raises(WrongRegime):
        required_moment_order(DilationParams(1.0, 0.0))
    with pytest.raises(WrongRegime):
        required_moment_order(DilationParams(0.5, -1.0))


def test_verdict_reason_populated_only_on_rejection():
    ok = admissibility(DilationParams(1.0, 1.0), GaussianDriver())
    assert ok.reason is None
    bad = admissibility(DilationParams(0.3, 1.0), GaussianDriver())
    assert bad.reason


def test_cascade_exact_dyadic():
    # constant samples of size 1: gap k is 2^{-2k} * 2^k = 2^{-k}, so the
    # partial sums are exactly 2 - 2^{-k}
    samples = np.ones(2**12)
    sums = cascade_partial_sums(samples, a=2, b=1, beta=2.0, levels=12)
    want = np.array([2.0 - 2.0 ** -k for k in range(13)])
    assert np.array_equal(sums, want)
    # beta = 1 makes every gap exactly 1
    flat = cascade_partial_sums(samples, a=2, b=1, beta=1.0, levels=12)
    assert np.array_equal(flat, np.arange(1.0, 14.0))


def test_cascade_needs_enough_samples():
    with pytest.raises(NotEnoughSamples):
        cascade_partial_sums(np.ones(7), a=2, b=1, beta=1.0, levels=3)
    # exactly a^levels * b samples is fine
    cascade_partial_sums(np.ones(8), a=2, b=1, beta=1.0, levels=3)


def test_cascade_param_validation():
    samples = np.ones(16)
    with pytest.raises(ValueError):
        cascade_partial_sums(samples, a=1, b=1, beta=1.0, levels=2)
    with pytest.raises(ValueError):
        cascade_partial_sums(samples, a=2, b=0, beta=1.0, levels=2)
    with pytest.raises(ValueError):
        cascade_partial_sums(samples, a=2, b=1, beta=0.0, levels=2)
    with pytest.raises(ValueError):
        cascade_partial_sums(samples, a=2, b=1, beta=1.0, levels=-1)
    # whole floats and numpy ints read as the ints they hold
    want = cascade_partial_sums(samples, a=2, b=1, beta=1.0, levels=2)
    got = cascade_partial_sums(samples, a=2.0, b=np.int64(1), beta=1, levels=2.0)
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "name, value, words",
    [
        ("a", 2.9, "a must be a number"),
        ("b", 1.5, "b must be a number"),
        ("levels", 3.6, "levels must be a number"),
        ("levels", True, "levels must be a number"),
        ("beta", None, "beta must be a number"),
        ("beta", math.nan, "beta must be finite and > 0"),
        ("beta", math.inf, "beta must be finite and > 0"),
        ("beta", -1.0, "beta must be finite and > 0"),
    ],
)
def test_cascade_refuses_a_truncated_or_non_finite_input(name, value, words):
    # a = 2.9, b = 1.5, levels = 3.6 once gave the sums of a = 2, b = 1,
    # levels = 3, levels = True ran level 1, and a nan or inf beta returned
    # all-NaN sums
    args = {"a": 2, "b": 1, "beta": 1.0, "levels": 3, name: value}
    with pytest.raises(ValueError, match=f"^{words}"):
        cascade_partial_sums(np.ones(64), **args)


@given(st.integers(0, 2**32 - 1), st.floats(0.3, 2.0))
def test_cascade_sums_nondecreasing(seed, beta):
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=2**6 * 3)
    sums = cascade_partial_sums(samples, a=2, b=3, beta=beta, levels=6)
    assert sums.shape == (7,)
    assert np.all(np.diff(sums) >= 0)


def test_truth_table_spans_all_verdicts():
    cases = [
        (DilationParams(1.0, 1.0), GaussianDriver(), CONDITION_A),
        (DilationParams(0.8, 0.6), GaussianDriver(2.0, 0.5), CONDITION_A),
        (DilationParams(1.0, 0.5), SymmetricStableDriver(1.5), CONDITION_A),
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
    seen = set()
    for params, spec, want in cases:
        verdict = admissibility(params, spec)
        assert verdict.status == want, (params, spec)
        seen.add(verdict.status)
    assert seen == {CONDITION_A, CONDITION_B, DEGENERATE_EQUAL, SELFSIMILAR, INADMISSIBLE}
