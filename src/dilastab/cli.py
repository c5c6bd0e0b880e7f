"""Command line interface: simulate ensembles, verify scaling laws, print oracles.

Three subcommands:

  simulate   write an ensemble as CSV (columns path_id,t,value, sorted by
             path then time), formatted in blocks of whole paths.
  verify     simulate an ensemble, run one scaling-law check, write the
             report as JSON, and exit 3 when the pass fraction falls below
             the threshold.
  oracle     write the closed-form log-CF as CSV (columns t,theta,re,im).

Every input is one row of _INPUTS, which builds the flags and checks the
values.  Configuration comes from an optional JSON file (--config) with
individual flags taking precedence, and a value is checked the same way
whatever its source.  The master seed resolves as: --seed flag, then the
config file, then the DILASTAB_SEED environment variable, then 0.  All
numbers are emitted with shortest round-trip formatting, so equal inputs
produce byte-identical outputs.  --threads is accepted and ignored, for the
reason simulate_ensemble gives.

n_paths, the grid's points, r_steps and the cells of the refined log-time
grid are at most processes.MAX_COUNT = 10**9 each, so that no float array
the run allocates reaches numpy's size limit; arrays within it that would
exceed physical memory are refused before they are allocated, by
processes.check_memory, and a size that still does not fit exits 2 as well.

Exit codes: 0 success, 1 I/O failure, 2 inadmissible or otherwise unusable
configuration, 3 verification below threshold.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .drivers import GaussianDriver, driver_from_dict
from .ecf import (
    LAWS,
    R_STEPS,
    TestPoint,
    check_scaling,
    marginal_points,
    oracle_joint_log_cf,
    oracle_log_cf,
    simulate_ensemble,
)
from .errors import DilastabError, InadmissibleParams
from .integrator import TimeGrid
from .processes import MAX_COUNT, REFINE, TAIL_TOL, TRANSFORMS, DilationParams
from .processes import check_memory, pull_back
from .validation import admissibility, read_number

__all__ = ["MAX_COUNT", "main", "cmd_simulate", "cmd_verify", "cmd_oracle"]

_SPACINGS = {"linear": TimeGrid.linear, "geometric": TimeGrid.geometric}

_LAW_KINDS = {law.kind: law for law in LAWS}


def _fmt(x):
    return repr(float(x))


@dataclass(frozen=True)
class Input:
    """One command-line input: its flag and, if the config file may give it, its key.

    key is the JSON key, "grid.points" for points under "grid".  kind is
    float, int, str, bool (a switch), dict (the driver: an object, or its
    JSON text), tuple (comma-separated finite numbers) or list (of names;
    the flag repeats).  bound maps words of _BOUNDS to their limits.  help
    is one text, or one per subcommand.
    """

    flag: str
    kind: type = str
    default: object = None
    key: str | None = None
    bound: dict = field(default_factory=dict)
    help: str | dict | None = None
    commands: tuple = ("simulate", "verify", "oracle")
    required: bool = False
    env: str | None = None

    @property
    def dest(self):
        """The flag's argparse dest, and the run config's attribute."""
        return self.flag[2:].replace("-", "_")


_BOUNDS = {
    "finite": lambda value, limit: math.isfinite(value),
    "at least": operator.ge,
    "above": operator.gt,
    "at most": operator.le,
    "one of": lambda value, names: value in names,
}
_FINITE = {"finite": None}
_VERIFY = ("verify",)

# Every input of every subcommand, in the order of the help.  The grid times
# are checked here because the grid builders would make numpy warn on stderr
# first; the counts before anything is allocated, because numpy's own error
# names no key; the seed here, where an error can name its source.
_INPUTS = (
    Input("--config", help="JSON configuration file"),
    Input("--driver", dict, GaussianDriver(), "driver", help="driver description as a JSON object"),
    Input("--alpha", float, 1.0, "alpha"),
    Input("--delta", float, 1.0, "delta"),
    Input("--t-min", float, 0.5, "grid.t_min", _FINITE),
    Input("--t-max", float, 2.0, "grid.t_max", _FINITE),
    Input("--points", int, 5, "grid.points", {"at least": 1, "at most": MAX_COUNT}),
    Input("--spacing", str, "geometric", "grid.spacing", {"one of": tuple(_SPACINGS)}),
    Input("--n-paths", int, 1000, "n_paths", {"at least": 1, "at most": MAX_COUNT}),
    Input("--seed", int, 0, "master_seed", {"at least": 0}, env="DILASTAB_SEED",
          help="master seed (else DILASTAB_SEED, else 0)"),
    Input("--refine", float, REFINE, "refine", {**_FINITE, "at least": 1}),
    Input("--tail-tol", float, TAIL_TOL, "tail_tol", {**_FINITE, "above": 0}),
    Input("--transform", list, (), "transforms", {"one of": tuple(TRANSFORMS)},
          help={"simulate": "transform chain entry; repeat for a chain",
                "verify": "transform chain entry; repeat for a chain",
                "oracle": "refused: the oracle is the log-CF of X"}),
    Input("--threads", int, 1, help="accepted and ignored"),
    Input("--output", help="output file (default stdout)"),
    Input("--include-origin", bool, False, commands=("simulate",),
          help="prepend the t=0, value 0 row to every path"),
    Input("--law", bound={"one of": tuple(_LAW_KINDS)}, commands=_VERIFY, required=True),
    Input("--T", float, bound=_FINITE, commands=_VERIFY,
          help="dilation factor / time shift for the law"),
    Input("--n", float, bound=_FINITE, commands=_VERIFY,
          help="multiplier for time_stable / idt laws"),
    Input("--law-alpha", float, bound=_FINITE, commands=_VERIFY,
          help="alpha assumed by the checker (defaults to the simulation alpha)"),
    Input("--law-delta", float, bound=_FINITE, commands=_VERIFY,
          help="delta assumed by the checker; alone it shifts only the law "
          "multiplier (defaults to the simulation delta)"),
    Input("--times", tuple, commands=("verify", "oracle"), required=True,
          help={"verify": "comma-separated base test times", "oracle": "comma-separated times"}),
    Input("--thetas", tuple, commands=("verify", "oracle"), required=True,
          help={"verify": "comma-separated base test thetas", "oracle": "comma-separated thetas"}),
    Input("--pair", list, (), commands=_VERIFY,
          help="two-dimensional test point as t1,t2,theta1,theta2; repeatable"),
    Input("--threshold", float, 0.99, bound=_FINITE, commands=_VERIFY),
    Input("--r-steps", int, R_STEPS, bound={"at least": 1, "at most": MAX_COUNT},
          commands=_VERIFY),
)


def _json_object(what, value):
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {json.dumps(value):.60}")
    return value


def _read(kind, name, value):
    """value as an input of this kind, or a ValueError naming name."""
    if kind is dict:
        if isinstance(value, str):
            try:
                value = json.loads(value)
            except json.JSONDecodeError:
                raise ValueError(f"{name} must be a JSON object, got {value!r:.60}") from None
        return driver_from_dict(value)
    if kind is list:
        if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
            raise ValueError(f"{name} must be a list of names, got {value!r:.60}")
        return tuple(value)
    if kind is tuple:  # comma-separated numbers, each finite
        try:
            numbers = tuple(float(part) for part in value.split(",") if part.strip())
        except ValueError:
            raise ValueError(f"{name} must be comma-separated numbers, got {value!r:.60}") from None
        if not numbers:
            raise ValueError(f"{name} must hold at least one number, got {value!r:.60}")
        for number in numbers:
            if not math.isfinite(number):
                raise ValueError(f"{name} must be finite, got {number!r}")
        return numbers
    if kind is bool:
        return value
    return str(value) if kind is str else read_number(kind, name, value)


def _load_config(args):
    """args, each input of args.command replaced by its checked value; params added.

    A value comes from the flag, else the config file, else the row's env,
    and is read and bounded the same way whatever its source: an error
    names the key or flag, and the source if that is another.  Else the
    value is the row's default, as it stands.
    """
    config = {}
    if args.config:
        with open(args.config) as fh:
            config = dict(_json_object("the config file", json.load(fh)))
        grid = _json_object("grid", config.pop("grid", {}))
        # a misspelt key would otherwise leave its default in place silently
        keys = {row.key for row in _INPUTS if row.key}
        unknown = [key for key in config if key not in keys or "." in key]
        unknown += [f"grid.{key}" for key in grid if f"grid.{key}" not in keys]
        if unknown:
            raise ValueError(f"unknown config key {unknown[0]!r:.60}")
        config.update((f"grid.{key}", value) for key, value in grid.items())
    for row in (row for row in _INPUTS if args.command in row.commands):
        value, source = getattr(args, row.dest), row.flag
        if value is None and row.key in config:
            value, source = config[row.key], row.key
        elif value is None and row.env and row.env in os.environ:
            value, source = os.environ[row.env], row.env
        elif value is None:
            setattr(args, row.dest, row.default)
            continue
        name = row.key or row.flag
        try:
            value = _read(row.kind, name, value)
            for word, limit in row.bound.items():
                for item in value if row.kind is list else (value,):
                    if not _BOUNDS[word](item, limit):
                        shown = "" if limit is None else f" {limit}"
                        raise ValueError(f"{name} must be {word}{shown}, got {item!r:.60}")
        except ValueError as exc:
            if source == name:
                raise
            raise ValueError(f"{exc} (from {source})") from None
        setattr(args, row.dest, value)
    args.params = DilationParams(args.alpha, args.delta)
    return args


def _output_grid(run, extra_times=()):
    if "lamperti" in run.transform and run.spacing != "geometric":
        raise ValueError("a transform chain containing 'lamperti' needs geometric spacing")
    # the builders' temporaries: three arrays of the grid's length
    check_memory(3 * run.points, f"points = {run.points} output times")
    grid = _SPACINGS[run.spacing](run.t_min, run.t_max, run.points)
    # a time the grid already holds, under TimeGrid's own matching rule, is not added twice
    extra = [t for t in extra_times if not grid.contains(t)]
    if extra:
        grid = TimeGrid(np.union1d(grid.points, extra))
    return grid


# values per block of CSV text: about 1024 paths of 8 times
_CSV_BLOCK = 8192


def _open_output(path):
    """The output as a context: the file at path, else stdout, which stays open."""
    return open(path, "w") if path else nullcontext(sys.stdout)


def _write_text(out, text):
    """Every output of every command goes through here (the benchmark counts it)."""
    out.write(text)


def cmd_simulate(run):
    if run.include_origin and run.transform:
        raise ValueError("--include-origin applies only to untransformed output")
    ens = simulate_ensemble(
        run.driver, run.params, _output_grid(run), run.n_paths, run.seed,
        run.refine, run.tail_tol, run.transform,
    )
    times = [_fmt(t) for t in ens.grid.points]
    # whole paths per block, so that the text held at once stays near
    # _CSV_BLOCK values however many paths there are
    block = max(1, _CSV_BLOCK // len(times))
    with _open_output(run.output) as out:
        _write_text(out, "path_id,t,value\n")
        for start in range(0, ens.n_paths, block):
            lines = []
            for n in range(start, min(start + block, ens.n_paths)):
                if run.include_origin:
                    lines.append(f"{n},{_fmt(0.0)},{_fmt(0.0)}")
                # one row at a time: Python floats format faster than numpy scalars
                lines += [f"{n},{t},{v!r}" for t, v in zip(times, ens.values[n].tolist())]
            _write_text(out, "\n".join(lines) + "\n")
    return 0


def _build_law(run):
    # --law-alpha / --law-delta override only what the checker assumes, not
    # the simulation; that is how a deliberately mis-specified law is probed.
    delta = run.params.delta if run.law_delta is None else run.law_delta
    if run.law_alpha is not None:
        alpha = run.law_alpha
    elif run.law_delta is not None:
        # a wrong delta alone moves only the law's multiplier; the theta
        # scaling keeps the simulated process's weight exponent, otherwise a
        # centred Gaussian run would satisfy the shifted law as well and the
        # mis-specification would be undetectable
        alpha = run.params.hurst + delta / 2.0
    else:
        alpha = run.params.alpha
    # each law takes the fields it names: alpha, delta, --T or --n
    law = _LAW_KINDS[run.law]
    values = {"alpha": alpha, "delta": delta, "T": run.T, "n": run.n}
    for f in fields(law):
        if values[f.name] is None:
            raise ValueError(f"--law {run.law} needs --{f.name}")
    return law(**{f.name: float(values[f.name]) for f in fields(law)})


def cmd_verify(run):
    if run.n_paths < 25:
        raise ValueError(
            f"verify needs n_paths >= 25: the |cf| floor 5/sqrt(n_paths) is "
            f"{5.0 / math.sqrt(run.n_paths):.4g} > 1 at n_paths = {run.n_paths}, "
            "so no log-CF could be estimated"
        )
    law = _build_law(run)
    if not run.transform:
        run.transform = law.chain
    points = marginal_points(run.times, run.thetas)
    for pair in run.pair:
        vals = _read(tuple, "--pair", pair)
        if len(vals) != 4:
            raise ValueError("--pair needs t1,t2,theta1,theta2")
        points.append(TestPoint((vals[0], vals[1]), (vals[2], vals[3])))

    # every number the law derives, checked before anything is simulated
    try:
        terms = [term for p in points for term in law.terms(p)]
        needed = sorted({t for _, point in terms for t in point.times})
        pulled = [pull_back(run.transform, run.params.delta, s) for s in needed]
        derived = [*(a for a, _ in terms), *pulled, *(th for _, p in terms for th in p.thetas)]
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
        run.driver, run.params, _output_grid(run, extra_times=pulled), run.n_paths, run.seed,
        run.refine, run.tail_tol, run.transform,
    )
    # check_scaling drops a row's oracle where it has none (OracleOutOfDomain)
    oracle = None if run.transform else partial(oracle_joint_log_cf, run.driver, run.params)
    try:
        report = check_scaling(ens, law, points, r_steps=run.r_steps, oracle=oracle)
    except FloatingPointError:
        # sum_j theta_j X(t_j) overflowed; simulate_ensemble refuses non-finite draws,
        # so the thetas are the cause, and numpy's text names only its own matmul
        raise ValueError(
            "--thetas (or a --pair's thetas) times the simulated values leave the "
            "float range: a sum theta_j X(t_j) overflows"
        ) from None
    with _open_output(run.output) as out:
        _write_text(out, json.dumps(report.to_dict(), indent=2) + "\n")
    if report.pass_fraction < run.threshold:
        unestimable = f" ({report.unestimable} unestimable)" if report.unestimable else ""
        print(
            f"verification failed: pass fraction {report.pass_fraction:g} "
            f"below threshold {run.threshold:g}{unestimable}",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_oracle(run):
    # the grid and (alpha, delta) are checked as simulate checks them,
    # although the closed form needs neither the grid nor a plan
    _output_grid(run)
    verdict = admissibility(run.params, run.driver)
    if not verdict.admissible:
        raise InadmissibleParams(verdict)
    if run.transform:
        raise ValueError(
            "--transform (config key transforms) applies to simulate and verify only: "
            "oracle writes the closed-form log-CF of X"
        )
    lines = ["t,theta,re,im"]
    for t in run.times:
        for theta in run.thetas:
            value = oracle_log_cf(run.driver, run.params, t, theta)
            lines.append(f"{_fmt(t)},{_fmt(theta)},{_fmt(value.real)},{_fmt(value.imag)}")
    with _open_output(run.output) as out:
        _write_text(out, "\n".join(lines) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """Rejects an argument with one stderr line, like every other error.

    add_subparsers builds each subcommand's parser with this class too.
    """

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser():
    """Every flag of _INPUTS, its value left as text for _load_config to check."""
    parser = _Parser(
        prog="dilastab",
        description="simulate dilatively stable processes and verify their scaling laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text, func in (
        ("simulate", "write an ensemble as CSV", cmd_simulate),
        ("verify", "check one scaling law and write a JSON report", cmd_verify),
        ("oracle", "write the closed-form log-CF as CSV", cmd_oracle),
    ):
        cmd = sub.add_parser(command, help=text)
        for row in (row for row in _INPUTS if command in row.commands):
            text = row.help.get(command) if isinstance(row.help, dict) else row.help
            action = {bool: "store_true", list: "append"}.get(row.kind, "store")
            choices = row.bound.get("one of")
            shown = {"metavar": "{" + ",".join(choices) + "}"} if choices else {}
            cmd.add_argument(row.flag, action=action, help=text, required=row.required, **shown)
        cmd.set_defaults(func=func)
    return parser


# argparse answers an abbreviation of any of these flags
_SWITCHES = {"--help", *(row.flag for row in _INPUTS if row.kind is bool)}
_FLAGS = _SWITCHES | {row.flag for row in _INPUTS if row.kind is not bool}


def _takes_value(token):
    """Whether token is a flag, or an abbreviation of flags, that takes a value."""
    named = {token} if token in _FLAGS else {f for f in _FLAGS if f.startswith(token)}
    return token.startswith("--") and "=" not in token and named and not named & _SWITCHES


def _join_values(argv):
    """argv with each value-taking flag joined by "=" to a next token that starts with one "-".

    argparse reads such a token (-1e3, -0.5,1) as a flag unless it is a plain
    decimal, and then says the flag before it expected one argument.
    """
    out = []
    for token in argv:
        if out and _takes_value(out[-1]) and token[:1] == "-" and token[:2] != "--":
            out[-1] += f"={token}"
        else:
            out.append(token)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_join_values(sys.argv[1:] if argv is None else argv))
    try:
        # numpy raises where it would warn on stderr and go on with inf or nan
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(_load_config(args))
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
