"""Simulate one ensemble and verify every scaling law it should satisfy.

The base process is checked against its dilative law, then the same paths
are carried through each law's transform chain (law.chain: the log-clock
transform and its relabellings) and each representation is checked against
the law it inherits.  All four reports must agree down to the z-scores,
because the underlying draws are identical.

Usage: python scripts/scaling_demo.py [--paths N] [--seed S] [--T FACTOR]
"""

import argparse
import math

from dilastab import (
    DilationParams,
    DilativeLaw,
    GaussianDriver,
    IdtLaw,
    TestPoint,
    TimeStableLaw,
    TranslativeLaw,
    apply_transforms,
    check_scaling,
    increment_pair,
    simulate_ensemble,
)


def demo_points():
    marginals = [
        (0.5, 1.0),
        (0.5, 2.0),
        (1.0, 0.5),
        (1.0, 1.0),
        (2.0, 0.5),
        (4.0, 0.25),
    ]
    return [TestPoint((t,), (th,)) for t, th in marginals] + [
        increment_pair(1.0, 2.0, 1.0)
    ]


def print_report(name, report):
    print(f"{name}: pass fraction {report.pass_fraction:.3f}")
    for row in report.rows:
        times = ",".join(f"{t:g}" for t in row.times)
        thetas = ",".join(f"{th:g}" for th in row.thetas)
        mark = "ok" if row.passed else "FAIL"
        if row.unestimable is None:
            z = f"z=({row.z_real:+.2f}, {row.z_imag:+.2f})"
        else:
            z = f"unestimable ({row.unestimable})"
        print(f"  t=({times}) theta=({thetas})  {z}  {mark}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--paths", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--T", type=float, default=2.0)
    args = parser.parse_args()

    params = DilationParams(1.0, 1.0)
    print(f"simulating {args.paths} paths (seed {args.seed}) ...")
    ens = simulate_ensemble(
        GaussianDriver(),
        params,
        (0.5, 1.0, 2.0, 4.0, 8.0),
        args.paths,
        master_seed=args.seed,
        refine=64.0,
    )

    points = demo_points()
    h = params.hurst

    def mapped_thetas(point):
        return tuple(
            th * (args.T * t) ** h for t, th in zip(point.times, point.thetas)
        )

    log_points = [
        TestPoint(tuple(math.log(t) for t in p.times), mapped_thetas(p))
        for p in points
    ]
    flat_points = [TestPoint(p.times, mapped_thetas(p)) for p in points]

    laws = (
        (DilativeLaw(1.0, 1.0, args.T), points),
        (TranslativeLaw(1.0, math.log(args.T)), log_points),
        (TimeStableLaw(1.0, args.T), flat_points),
        (IdtLaw(args.T), flat_points),
    )
    for law, law_points in laws:
        law_ens = apply_transforms(ens, params, law.chain)
        print_report(law.kind, check_scaling(law_ens, law, law_points))


if __name__ == "__main__":
    main()
