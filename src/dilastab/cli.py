"""Command line interface: simulate ensembles, verify scaling laws, print oracles.

Three subcommands:

  simulate   write an ensemble as CSV (columns path_id,t,value, sorted by
             path then time).
  verify     simulate an ensemble, run one scaling-law check, write the
             report as JSON, and exit 3 when the pass fraction falls below
             the threshold.
  oracle     write the closed-form log-CF as CSV (columns t,theta,re,im).

Configuration comes from an optional JSON file (--config) with individual
flags taking precedence.  The master seed resolves as: --seed flag, then the
config file, then the DILASTAB_SEED environment variable, then 0.  All
numbers are emitted with shortest round-trip formatting, so equal inputs
produce byte-identical outputs.  --threads is accepted and ignored: paths are
drawn serially, because the per-path work holds the interpreter lock and a
thread pool only slowed it down (1000 gamma paths at refine 64 on 2 cores:
71 ms serial, 273 ms with one pool task per path on 2 threads).

Exit codes: 0 success, 1 I/O failure, 2 inadmissible or otherwise unusable
configuration, 3 verification below threshold.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .drivers import driver_from_dict
from .ecf import (
    DilativeLaw,
    EnsembleConfig,
    IdtLaw,
    TestPoint,
    TimeStableLaw,
    TranslativeLaw,
    check_scaling,
    marginal_points,
    oracle_joint_log_cf,
    oracle_log_cf,
    simulate_ensemble,
)
from .errors import DilastabError, InadmissibleParams
from .integrator import TimeGrid
from .processes import DilationParams

__all__ = ["main", "cmd_simulate", "cmd_verify", "cmd_oracle"]

_DEFAULT_CONFIG = {
    "driver": {"kind": "gaussian", "variance": 1.0, "drift": 0.0},
    "alpha": 1.0,
    "delta": 1.0,
    "grid": {"t_min": 0.5, "t_max": 2.0, "points": 5, "spacing": "geometric"},
    "n_paths": 1000,
    "refine": 8.0,
    "tail_tol": 1e-4,
    "transforms": [],
}

_LAW_CHAINS = {
    "dilative": (),
    "translative": ("lamperti",),
    "time_stable": ("lamperti", "time_stable"),
    "idt": ("lamperti", "idt"),
}


def _fmt(x):
    return repr(float(x))


@dataclass
class RunConfig:
    driver: object
    params: DilationParams
    t_min: float
    t_max: float
    points: int
    spacing: str
    n_paths: int
    master_seed: int
    refine: float
    tail_tol: float
    transforms: tuple

    def grid_points(self):
        if self.spacing == "linear":
            return np.linspace(self.t_min, self.t_max, self.points)
        if self.spacing == "geometric":
            if self.t_min <= 0:
                raise ValueError("geometric spacing needs t_min > 0")
            return np.exp(np.linspace(math.log(self.t_min), math.log(self.t_max), self.points))
        raise ValueError(f"unknown spacing {self.spacing!r}")


def _json_object(what, value):
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {json.dumps(value):.60}")
    return value


def _number(kind, key, value):
    """kind(value), with a malformed value reported under its config key."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be a number ({kind.__name__}), got {value!r:.60}") from None


def _load_config(args):
    data = dict(_DEFAULT_CONFIG)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            data.update(_json_object("the config file", json.load(fh)))
    grid = dict(_DEFAULT_CONFIG["grid"])
    grid.update(_json_object("grid", data.get("grid", {})))

    driver_data = data["driver"]
    if getattr(args, "driver", None):
        driver_data = json.loads(args.driver)
    driver = driver_from_dict(driver_data)

    def pick(flag, key, default):
        value = getattr(args, flag, None)
        if value is not None:
            return value
        return data.get(key, default)

    def pick_grid(flag, key):
        value = getattr(args, flag, None)
        return value if value is not None else grid[key]

    seed = getattr(args, "seed", None)
    if seed is None:
        seed = data.get("master_seed")
    if seed is None:
        seed = int(os.environ.get("DILASTAB_SEED", "0"))

    transforms = getattr(args, "transform", None)
    if transforms is None:
        transforms = data.get("transforms", [])
    if not isinstance(transforms, list):
        raise ValueError(f"transforms must be a list of names, got {transforms!r:.60}")

    config = RunConfig(
        driver=driver,
        params=DilationParams(
            alpha=_number(float, "alpha", pick("alpha", "alpha", 1.0)),
            delta=_number(float, "delta", pick("delta", "delta", 1.0)),
        ),
        t_min=_number(float, "t_min", pick_grid("t_min", "t_min")),
        t_max=_number(float, "t_max", pick_grid("t_max", "t_max")),
        points=_number(int, "points", pick_grid("points", "points")),
        spacing=str(pick_grid("spacing", "spacing")),
        n_paths=_number(int, "n_paths", pick("n_paths", "n_paths", 1000)),
        master_seed=_number(int, "master_seed", seed),
        refine=_number(float, "refine", pick("refine", "refine", 8.0)),
        tail_tol=_number(float, "tail_tol", pick("tail_tol", "tail_tol", 1e-4)),
        transforms=tuple(transforms),
    )
    for key in ("t_min", "t_max"):
        # checked here: grid_points would make numpy warn on stderr first
        value = getattr(config, key)
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value!r}")
    if config.n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {config.n_paths}")
    if "lamperti" in config.transforms and config.spacing != "geometric":
        raise ValueError("a transform chain containing 'lamperti' needs geometric spacing")
    return config


def _ensemble_config(run, extra_times=()):
    pts = run.grid_points()
    if extra_times:
        merged = np.sort(np.concatenate([pts, np.asarray(extra_times, dtype=float)]))
        keep = np.ones(merged.size, dtype=bool)
        gaps = np.diff(merged)
        tol = 64 * np.finfo(float).eps * np.maximum(1.0, np.abs(merged[1:]))
        keep[1:] = gaps > tol
        pts = merged[keep]
    return EnsembleConfig(
        driver=run.driver,
        params=run.params,
        out_times=TimeGrid(pts),
        refine=run.refine,
        tail_tol=run.tail_tol,
        transforms=run.transforms,
    )


def _write_text(path, text):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_simulate(args):
    run = _load_config(args)
    if args.include_origin and run.transforms:
        raise ValueError("--include-origin applies only to untransformed output")
    ens = simulate_ensemble(_ensemble_config(run), run.n_paths, run.master_seed)
    lines = ["path_id,t,value"]
    times = [_fmt(t) for t in ens.grid.points]
    for n in range(ens.n_paths):
        if args.include_origin:
            lines.append(f"{n},{_fmt(0.0)},{_fmt(0.0)}")
        # one row at a time: Python floats format faster than numpy scalars,
        # and converting the whole matrix at once would hold it all as objects
        lines += [f"{n},{t},{v!r}" for t, v in zip(times, ens.values[n].tolist())]
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def _parse_floats(text):
    return [float(part) for part in text.split(",") if part.strip()]


def _build_law(args, run):
    # --law-alpha / --law-delta override only what the checker assumes, not
    # the simulation; that is how a deliberately mis-specified law is probed.
    delta = run.params.delta if args.law_delta is None else float(args.law_delta)
    if args.law_alpha is not None:
        alpha = float(args.law_alpha)
    elif args.law_delta is not None:
        # a wrong delta alone moves only the law's multiplier; the theta
        # scaling keeps the simulated process's weight exponent, otherwise a
        # centred Gaussian run would satisfy the shifted law as well and the
        # mis-specification would be undetectable
        alpha = run.params.hurst + delta / 2.0
    else:
        alpha = run.params.alpha
    if args.law == "dilative":
        if args.T is None:
            raise ValueError("--law dilative needs --T")
        return DilativeLaw(alpha, delta, float(args.T))
    if args.law == "translative":
        if args.T is None:
            raise ValueError("--law translative needs --T")
        return TranslativeLaw(delta, float(args.T))
    if args.law == "time_stable":
        if args.n is None:
            raise ValueError("--law time_stable needs --n")
        return TimeStableLaw(delta, float(args.n))
    if args.law == "idt":
        if args.n is None:
            raise ValueError("--law idt needs --n")
        return IdtLaw(float(args.n))
    raise ValueError(f"unknown law {args.law!r}")


def _pullback_time(transforms, delta, s):
    """Map a final-grid time back through the transform chain to X time."""
    for name in reversed(transforms):
        if name == "lamperti":
            s = math.exp(s)
        elif name == "lamperti_inverse":
            if s <= 0:
                raise ValueError("cannot pull a nonpositive time back through the log clock")
            s = math.log(s)
        elif name == "time_stable":
            if s <= 0:
                raise ValueError("time-stable times must be positive")
            s = math.log(s)
        elif name == "idt":
            if s <= 0:
                raise ValueError("IDT times must be positive")
            s = math.log(s) / delta
    return s


def cmd_verify(args):
    run = _load_config(args)
    if run.n_paths < 25:
        raise ValueError(
            f"verify needs n_paths >= 25: the |cf| floor 5/sqrt(n_paths) is "
            f"{5.0 / math.sqrt(run.n_paths):.4g} > 1 at n_paths = {run.n_paths}, "
            "so no log-CF could be estimated"
        )
    law = _build_law(args, run)
    if not run.transforms:
        run = replace(run, transforms=_LAW_CHAINS[args.law])

    if args.times is None or args.thetas is None:
        raise ValueError("verify needs --times and --thetas")
    points = marginal_points(_parse_floats(args.times), _parse_floats(args.thetas))
    for pair in args.pair or []:
        vals = _parse_floats(pair)
        if len(vals) != 4:
            raise ValueError("--pair needs t1,t2,theta1,theta2")
        points.append(TestPoint((vals[0], vals[1]), (vals[2], vals[3])))

    needed = []
    for point in points:
        needed.extend(law.scaled_point(point).times)
        needed.extend(law.base_point(point).times)
    pulled = [_pullback_time(run.transforms, run.params.delta, s) for s in sorted(set(needed))]

    ens = simulate_ensemble(
        _ensemble_config(run, extra_times=pulled),
        run.n_paths,
        run.master_seed,
    )
    oracle = None
    if not run.transforms:
        try:
            oracle_log_cf(run.driver, run.params, 1.0, 1.0)
        except DilastabError:
            oracle = None
        else:
            oracle = partial(oracle_joint_log_cf, run.driver, run.params)
    report = check_scaling(ens, law, points, r_steps=args.r_steps, oracle=oracle)
    _write_text(args.output, json.dumps(report.to_dict(), indent=2) + "\n")
    if report.pass_fraction < args.threshold:
        print(
            f"verification failed: pass fraction {report.pass_fraction:g} "
            f"below threshold {args.threshold:g}",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_oracle(args):
    run = _load_config(args)
    if args.times is None or args.thetas is None:
        raise ValueError("oracle needs --times and --thetas")
    lines = ["t,theta,re,im"]
    for t in _parse_floats(args.times):
        for theta in _parse_floats(args.thetas):
            value = oracle_log_cf(run.driver, run.params, t, theta)
            lines.append(f"{_fmt(t)},{_fmt(theta)},{_fmt(value.real)},{_fmt(value.imag)}")
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def _add_common(parser):
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--driver", help="driver description as a JSON object")
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--t-min", dest="t_min", type=float)
    parser.add_argument("--t-max", dest="t_max", type=float)
    parser.add_argument("--points", type=int)
    parser.add_argument("--spacing", choices=["linear", "geometric"])
    parser.add_argument("--n-paths", dest="n_paths", type=int)
    parser.add_argument("--seed", type=int, help="master seed (else DILASTAB_SEED, else 0)")
    parser.add_argument("--refine", type=float)
    parser.add_argument("--tail-tol", dest="tail_tol", type=float)
    parser.add_argument(
        "--transform",
        action="append",
        choices=["lamperti", "lamperti_inverse", "time_stable", "idt"],
        help="transform chain entry; repeat for a chain",
    )
    parser.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    parser.add_argument("--output", help="output file (default stdout)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dilastab",
        description="simulate dilatively stable processes and verify their scaling laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write an ensemble as CSV")
    _add_common(sim)
    sim.add_argument(
        "--include-origin",
        action="store_true",
        help="prepend the t=0, value 0 row to every path",
    )
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify", help="check one scaling law and write a JSON report")
    _add_common(ver)
    ver.add_argument(
        "--law", required=True, choices=["dilative", "translative", "time_stable", "idt"]
    )
    ver.add_argument("--T", type=float, help="dilation factor / time shift for the law")
    ver.add_argument("--n", type=float, help="multiplier for time_stable / idt laws")
    ver.add_argument(
        "--law-alpha",
        dest="law_alpha",
        type=float,
        help="alpha assumed by the checker (defaults to the simulation alpha)",
    )
    ver.add_argument(
        "--law-delta",
        dest="law_delta",
        type=float,
        help="delta assumed by the checker; alone it shifts only the law "
        "multiplier (defaults to the simulation delta)",
    )
    ver.add_argument("--times", help="comma-separated base test times")
    ver.add_argument("--thetas", help="comma-separated base test thetas")
    ver.add_argument(
        "--pair",
        action="append",
        help="two-dimensional test point as t1,t2,theta1,theta2; repeatable",
    )
    ver.add_argument("--threshold", type=float, default=0.99)
    ver.add_argument("--r-steps", dest="r_steps", type=int, default=16)
    ver.set_defaults(func=cmd_verify)

    orc = sub.add_parser("oracle", help="write the closed-form log-CF as CSV")
    _add_common(orc)
    orc.add_argument("--times", help="comma-separated times")
    orc.add_argument("--thetas", help="comma-separated thetas")
    orc.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InadmissibleParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DilastabError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
