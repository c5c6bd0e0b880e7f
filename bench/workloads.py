"""The benchmark's workloads: fixed `dilastab` CLI commands and their output checks.

Every input is fixed except the per-command seed.  All three workloads use
alpha = delta = 1 and geometric output spacing; BENCHMARK.json says why each
one is there and bench/predictions.json which layer metrics each should move.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

# flags every workload shares; threads, size, seed and output come per command
_COMMON = ("--alpha", "1", "--delta", "1", "--spacing", "geometric", "--tail-tol", "1e-4")


@dataclass(frozen=True)
class Workload:
    """One fixed CLI command; `points` is per path (simulate) or rows (verify)."""

    name: str
    argv: tuple
    n_paths: int
    kind: str  # "simulate" (CSV) or "verify" (JSON report)
    points: int
    threads: int = 1

    def command(self, seed, output, n_paths=None, threads=None):
        """The full argv for one command writing to `output`."""
        return [
            *self.argv,
            "--threads",
            str(self.threads if threads is None else threads),
            "--n-paths",
            str(self.n_paths if n_paths is None else n_paths),
            "--seed",
            str(seed),
            "--output",
            str(output),
        ]

    def check(self, data, n_paths=None):
        """Check one command's output bytes.

        Returns (error, pass_fraction): error is None when the output is
        right, and pass_fraction is the verify report's, else None.
        """
        n = self.n_paths if n_paths is None else n_paths
        if self.kind == "simulate":
            return check_csv(data, n, self.points), None
        return check_report(data, self.points)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simulate-csv",
            (
                "simulate",
                "--driver",
                '{"kind": "symmetric_stable", "index": 1.5, "scale": 1.0}',
                *_COMMON,
                "--t-min",
                "0.5",
                "--t-max",
                "8",
                "--points",
                "8",
                "--refine",
                "8",
            ),
            n_paths=4000,
            kind="simulate",
            points=8,
        ),
        Workload(
            "verify-idt",
            (
                "verify",
                "--law",
                "idt",
                "--n",
                "2",
                "--driver",
                '{"kind": "gaussian", "variance": 1.0, "drift": 0.0}',
                *_COMMON,
                "--t-min",
                "0.5",
                "--t-max",
                "2",
                "--points",
                "5",
                "--refine",
                "8",
                "--times",
                "0.5,1,2",
                "--thetas",
                "0.25,0.5,0.75,1",
                "--pair",
                "0.5,1,1,-0.5",
                "--pair",
                "1,2,1,-0.5",
                "--r-steps",
                "16",
                "--threshold",
                "0.99",
            ),
            n_paths=4000,
            kind="verify",
            points=14,
        ),
        Workload(
            "simulate-gamma-fine-t2",
            (
                "simulate",
                "--driver",
                '{"kind": "gamma", "shape": 1.0, "rate": 1.0}',
                *_COMMON,
                "--t-min",
                "0.5",
                "--t-max",
                "8",
                "--points",
                "8",
                "--refine",
                "64",
            ),
            n_paths=1000,
            kind="simulate",
            points=8,
            threads=2,
        ),
    )
}


def check_csv(data, n_paths, points):
    """The CSV header is right, there are n_paths * points rows grouped by
    path in strictly increasing time order, and every number is finite."""
    try:
        return _check_csv(data, n_paths, points)
    except (ValueError, IndexError) as exc:  # not ASCII, a missing field or not a number
        return f"unparsable output: {exc}"


def _check_csv(data, n_paths, points):
    lines = data.decode("ascii").split("\n")
    if lines[0] != "path_id,t,value":
        return f"bad header {lines[0][:40]!r}"
    if lines[-1] != "":
        return "output does not end with a newline"
    rows = lines[1:-1]
    if len(rows) != n_paths * points:
        return f"{len(rows)} rows, expected {n_paths * points}"
    times = [row.split(",")[1] for row in rows[:points]]
    grid = [float(t) for t in times]
    if not all(math.isfinite(t) and t > 0 for t in grid):
        return "non-finite or non-positive output time"
    if any(b <= a for a, b in zip(grid, grid[1:])):
        return "times of path 0 are not increasing"
    for i, row in enumerate(rows):
        fields = row.split(",")
        if len(fields) != 3:
            return f"row {i + 1} has {len(fields)} fields"
        pid, t, value = fields
        if pid != str(i // points) or t != times[i % points]:
            return f"row {i + 1} is out of path/time order"
        if not math.isfinite(float(value)):
            return f"row {i + 1} has a non-finite value"
    return None


def check_report(data, n_rows):
    """The verify report has n_rows rows with finite lhs, rhs and z."""
    try:
        report = json.loads(data)
    except ValueError as exc:
        return f"report is not JSON: {exc}", None
    rows = report.get("rows") if isinstance(report, dict) else None
    if not isinstance(rows, list) or len(rows) != n_rows:
        return f"expected {n_rows} rows", None
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            return f"row {i} is not an object", None
        for key in ("lhs", "rhs", "z"):
            pair = row.get(key)
            if not (isinstance(pair, list) and len(pair) == 2):
                return f"row {i} has no {key} pair", None
            if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in pair):
                return f"row {i} has a non-finite {key}", None
    fraction = report.get("pass_fraction")
    if not isinstance(fraction, (int, float)) or not 0.0 <= fraction <= 1.0:
        return "pass_fraction missing or out of [0, 1]", None
    return None, float(fraction)
