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
produce byte-identical outputs.  --threads is accepted and ignored, for the
reason simulate_ensemble gives.

n_paths and the grid's points are at most MAX_COUNT = 10**9 each, so that
the (n_paths, points) float matrix stays below numpy's size limit; a size
within it that does not fit in memory exits 2 as well.

Exit codes: 0 success, 1 I/O failure, 2 inadmissible or otherwise unusable
configuration, 3 verification below threshold.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from .drivers import driver_from_dict
from .ecf import (
    LAWS,
    EnsembleConfig,
    TestPoint,
    check_scaling,
    marginal_points,
    oracle_joint_log_cf,
    oracle_log_cf,
    simulate_ensemble,
)
from .errors import DilastabError
from .integrator import TimeGrid
from .processes import TRANSFORMS, DilationParams, pull_back

__all__ = ["MAX_COUNT", "main", "cmd_simulate", "cmd_verify", "cmd_oracle"]

MAX_COUNT = 10**9

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

_SPACINGS = {"linear": TimeGrid.linear, "geometric": TimeGrid.geometric}

_LAW_KINDS = {law.kind: law for law in LAWS}


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


def _json_object(what, value):
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {json.dumps(value):.60}")
    return value


def _number(kind, key, value):
    """kind(value), with a malformed value reported under its config key.

    JSON true is no number, and an int key takes only integral numbers
    (1000.0 but not 2.7): int() would turn true into 1 and truncate 2.7 to 2.
    """
    truncated = kind is int and isinstance(value, float) and not value.is_integer()
    if kind is not str and (isinstance(value, bool) or truncated):
        raise ValueError(f"{key} must be a number ({kind.__name__}), got {value!r:.60}")
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be a number ({kind.__name__}), got {value!r:.60}") from None


def _load_config(args):
    data = dict(_DEFAULT_CONFIG)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            data.update(_json_object("the config file", json.load(fh)))
    # the four grid keys are looked up like the top-level ones
    grid = _json_object("grid", data["grid"])
    data.update({key: grid.get(key, value) for key, value in _DEFAULT_CONFIG["grid"].items()})

    driver_data = data["driver"]
    if getattr(args, "driver", None):
        driver_data = json.loads(args.driver)
    driver = driver_from_dict(driver_data)

    def pick(key, kind):
        """kind(the flag's value, else the config's)."""
        value = getattr(args, key, None)
        return _number(kind, key, data[key] if value is None else value)

    # checked here, where an error can name the seed's source; derive_rng's cannot
    seed, seed_key = getattr(args, "seed", None), "--seed"
    if seed is None:
        seed, seed_key = data.get("master_seed"), "master_seed"
    if seed is None:
        seed, seed_key = os.environ.get("DILASTAB_SEED", "0"), "DILASTAB_SEED"
    master_seed = _number(int, seed_key, seed)
    if master_seed < 0:
        raise ValueError(f"{seed_key} must be a non-negative integer, got {master_seed}")

    transforms = getattr(args, "transform", None) or data["transforms"]
    if not isinstance(transforms, list) or not all(isinstance(name, str) for name in transforms):
        raise ValueError(f"transforms must be a list of names, got {transforms!r:.60}")

    config = RunConfig(
        driver=driver,
        params=DilationParams(pick("alpha", float), pick("delta", float)),
        t_min=pick("t_min", float),
        t_max=pick("t_max", float),
        points=pick("points", int),
        spacing=pick("spacing", str),
        n_paths=pick("n_paths", int),
        master_seed=master_seed,
        refine=pick("refine", float),
        tail_tol=pick("tail_tol", float),
        transforms=tuple(transforms),
    )
    for key in ("t_min", "t_max"):
        # checked here: the grid builders would make numpy warn on stderr first
        value = getattr(config, key)
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value!r}")
    if config.spacing not in _SPACINGS:
        raise ValueError(f"unknown spacing {config.spacing!r}")
    if config.n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {config.n_paths}")
    for key in ("n_paths", "points"):
        # checked before anything is allocated: numpy's own error names no key
        if getattr(config, key) > MAX_COUNT:
            raise ValueError(f"{key} must be at most {MAX_COUNT}")
    return config


def _ensemble_config(run, extra_times=()):
    if "lamperti" in run.transforms and run.spacing != "geometric":
        raise ValueError("a transform chain containing 'lamperti' needs geometric spacing")
    grid = _SPACINGS[run.spacing](run.t_min, run.t_max, run.points)
    pts = grid.points
    if extra_times:
        merged = np.sort(np.concatenate([pts, np.asarray(extra_times, dtype=float)]))
        keep = np.ones(merged.size, dtype=bool)
        gaps = np.diff(merged)
        tol = 64 * np.finfo(float).eps * np.maximum(1.0, np.abs(merged[1:]))
        keep[1:] = gaps > tol
        grid = TimeGrid(merged[keep])
    return EnsembleConfig(
        driver=run.driver,
        params=run.params,
        out_times=grid,
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


def _parse_floats(flag, text):
    """The comma-separated numbers given to flag, each checked by _finite."""
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated numbers, got {text!r:.60}") from None
    return _finite(flag, values)


def _finite(flag, values):
    """values, once each is finite or None; else the one-line error naming the flag."""
    for value in values:
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value!r}")
    return values


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
    # each law takes the fields it names: alpha, delta, --T or --n
    law = _LAW_KINDS[args.law]
    values = {"alpha": alpha, "delta": delta, "T": args.T, "n": args.n}
    for f in fields(law):
        if values[f.name] is None:
            raise ValueError(f"--law {args.law} needs --{f.name}")
    return law(**{f.name: float(values[f.name]) for f in fields(law)})


def cmd_verify(args):
    run = _load_config(args)
    if run.n_paths < 25:
        raise ValueError(
            f"verify needs n_paths >= 25: the |cf| floor 5/sqrt(n_paths) is "
            f"{5.0 / math.sqrt(run.n_paths):.4g} > 1 at n_paths = {run.n_paths}, "
            "so no log-CF could be estimated"
        )
    for flag in ("T", "n", "law_alpha", "law_delta", "threshold"):
        _finite("--" + flag.replace("_", "-"), [getattr(args, flag)])
    law = _build_law(args, run)
    if not run.transforms:
        run = replace(run, transforms=law.chain)

    if args.times is None or args.thetas is None:
        raise ValueError("verify needs --times and --thetas")
    points = marginal_points(
        _parse_floats("--times", args.times), _parse_floats("--thetas", args.thetas)
    )
    for pair in args.pair or []:
        vals = _parse_floats("--pair", pair)
        if len(vals) != 4:
            raise ValueError("--pair needs t1,t2,theta1,theta2")
        points.append(TestPoint((vals[0], vals[1]), (vals[2], vals[3])))

    # every number the law derives, checked before anything is simulated
    try:
        reached = [law.scaled_point(p) for p in points] + [law.base_point(p) for p in points]
        needed = sorted({t for point in reached for t in point.times})
        pulled = [pull_back(run.transforms, run.params.delta, s) for s in needed]
        derived = [law.multiplier, *pulled, *(th for point in reached for th in point.thetas)]
        in_range = all(math.isfinite(x) for x in derived)
    except OverflowError:
        in_range = False
    if not in_range:
        (scale,) = (f.name for f in fields(law) if f.name in ("T", "n"))
        raise ValueError(
            f"--{scale} = {getattr(law, scale)!r} takes the test points or the "
            "law's multiplier out of the float range"
        )

    ens = simulate_ensemble(
        _ensemble_config(run, extra_times=pulled),
        run.n_paths,
        run.master_seed,
    )
    oracle = None
    if not run.transforms:
        try:
            oracle_log_cf(run.driver, run.params, 1.0, 1.0)
            oracle = partial(oracle_joint_log_cf, run.driver, run.params)
        except DilastabError:
            pass
    report = check_scaling(ens, law, points, r_steps=args.r_steps, oracle=oracle)
    _write_text(args.output, json.dumps(report.to_dict(), indent=2) + "\n")
    if report.pass_fraction < args.threshold:
        unestimable = f" ({report.unestimable} unestimable)" if report.unestimable else ""
        print(
            f"verification failed: pass fraction {report.pass_fraction:g} "
            f"below threshold {args.threshold:g}{unestimable}",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_oracle(args):
    run = _load_config(args)
    if args.times is None or args.thetas is None:
        raise ValueError("oracle needs --times and --thetas")
    times = _parse_floats("--times", args.times)
    thetas = _parse_floats("--thetas", args.thetas)
    lines = ["t,theta,re,im"]
    for t in times:
        for theta in thetas:
            value = oracle_log_cf(run.driver, run.params, t, theta)
            lines.append(f"{_fmt(t)},{_fmt(theta)},{_fmt(value.real)},{_fmt(value.imag)}")
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """Rejects an argument with one stderr line, like every other error.

    add_subparsers builds each subcommand's parser with this class too.
    """

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _add_common(parser):
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--driver", help="driver description as a JSON object")
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--t-min", dest="t_min", type=float)
    parser.add_argument("--t-max", dest="t_max", type=float)
    parser.add_argument("--points", type=int)
    parser.add_argument("--spacing", choices=list(_SPACINGS))
    parser.add_argument("--n-paths", dest="n_paths", type=int)
    parser.add_argument("--seed", type=int, help="master seed (else DILASTAB_SEED, else 0)")
    parser.add_argument("--refine", type=float)
    parser.add_argument("--tail-tol", dest="tail_tol", type=float)
    parser.add_argument(
        "--transform",
        action="append",
        choices=list(TRANSFORMS),
        help="transform chain entry; repeat for a chain",
    )
    parser.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    parser.add_argument("--output", help="output file (default stdout)")


def build_parser():
    parser = _Parser(
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
    ver.add_argument("--law", required=True, choices=list(_LAW_KINDS))
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
        # numpy raises where it would warn on stderr and go on with inf or nan
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except (DilastabError, ValueError, KeyError) as exc:
        # InadmissibleParams is a DilastabError, json.JSONDecodeError a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, OverflowError) as exc:
        # numpy's error under the errstate above, or a float power's or math's
        print(f"error: this configuration leaves the float range ({exc})", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: not enough memory for this configuration{detail}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
