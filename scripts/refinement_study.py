"""Measure the left-endpoint discretisation bias against its prediction.

The simulator weights each clock increment at the left edge of its log-time
cell, which biases second moments low by a computable factor per cell:

    rho(step) = ((e^(delta step) - 1) / delta) / ((e^(2 alpha step) - 1) / (2 alpha))

with step = 1 / refine.  The study estimates Var X_1 at increasing
refinement and prints the observed ratio to the closed-form variance next
to rho.  Scaling-law checks are immune to this bias because it cancels
between the two sides; absolute comparisons against the oracle are not,
which is why they need refine around 64 or more.

Usage: python scripts/refinement_study.py [--paths N] [--seed S]
"""

import argparse
import math

import numpy as np

from dilastab import (
    DilationParams,
    GaussianDriver,
    TimeGrid,
    plan_dilative,
)


def predicted_ratio(alpha, delta, step):
    num = math.expm1(delta * step) / delta if delta != 0 else step
    den = math.expm1(2 * alpha * step) / (2 * alpha)
    return num / den


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--paths", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    alpha = delta = 1.0
    params = DilationParams(alpha, delta)
    target = 1.0 / (2.0 * (math.e - 1.0))
    se = target * math.sqrt(2.0 / (args.paths - 1))
    print(f"closed-form Var X_1 = {target:.6f} (sampling se {se:.6f})")
    print(f"{'refine':>7} {'sample var':>11} {'observed':>9} {'predicted':>10}")
    rng = np.random.default_rng(args.seed)
    for refine in (4, 8, 16, 32, 64, 128):
        plan = plan_dilative(GaussianDriver(), params, TimeGrid([1.0]), refine=float(refine))
        draws = plan.rows(args.paths, lambda n: rng)[:, 0]
        var = draws.var(ddof=1)
        print(
            f"{refine:>7} {var:>11.6f} {var / target:>9.4f}"
            f" {predicted_ratio(alpha, delta, 1.0 / refine):>10.4f}"
        )


if __name__ == "__main__":
    main()
