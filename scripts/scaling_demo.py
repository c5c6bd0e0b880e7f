"""Simulate one ensemble and verify every scaling law it should satisfy.

The base process is checked against its dilative law, then the same paths
are rewritten through the log-clock transform and its relabellings, and each
representation is checked against the law it inherits.  All four reports
must agree down to the z-scores, because the underlying draws are identical.

Usage: python scripts/scaling_demo.py [--paths N] [--seed S] [--T FACTOR]
"""

import argparse
import math

from dilastab import (
    DilationParams,
    DilativeLaw,
    EnsembleConfig,
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


def base_points():
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
        print(
            f"  t=({times}) theta=({thetas})"
            f"  z=({row.z_real:+.2f}, {row.z_imag:+.2f})  {mark}"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--paths", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--T", type=float, default=2.0)
    args = parser.parse_args()

    params = DilationParams(1.0, 1.0)
    config = EnsembleConfig(
        GaussianDriver(), params, (0.5, 1.0, 2.0, 4.0, 8.0), refine=64.0
    )
    print(f"simulating {args.paths} paths (seed {args.seed}) ...")
    ens = simulate_ensemble(config, args.paths, master_seed=args.seed)

    points = base_points()
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

    v_ens = apply_transforms(ens, params, ("lamperti",))
    z_ens = apply_transforms(v_ens, params, ("time_stable",))
    d_ens = apply_transforms(v_ens, params, ("idt",))

    print_report(
        "dilative", check_scaling(ens, DilativeLaw(1.0, 1.0, args.T), points)
    )
    print_report(
        "translative",
        check_scaling(v_ens, TranslativeLaw(1.0, math.log(args.T)), log_points),
    )
    print_report(
        "time_stable",
        check_scaling(z_ens, TimeStableLaw(1.0, args.T), flat_points),
    )
    print_report("idt", check_scaling(d_ens, IdtLaw(args.T), flat_points))


if __name__ == "__main__":
    main()
