"""The dilastab benchmark: fixed CLI workloads, checked outputs, timed in-process.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
                         [--paths N]

One client runs back-to-back `dilastab.cli.main(argv)` calls in this process
(a closed loop) for --seconds, each with a seed drawn from --seed, and checks
every output.  The program is imported from `src/` of the checkout that holds
this file; nothing is installed or built.

--trace 0 prints the end-to-end metrics: the 90th percentile command wall
time, the import time of a fresh interpreter (setup_s), the peak RSS of a
fresh process running one command, and the fraction of commands whose output
checked out.  It also prints paths/s, the median and the fastest command wall
time and the failed fraction, which BENCHMARK.json does not bound.  On a host
that slows this one down by up to 1.7x in phases of seconds to minutes, a
run's median lands anywhere between the fast and the slow level, and even its
fastest command is slow when the whole run falls in one phase, while the 90th
percentile sits at the slow level in nearly every run.

--trace 1 runs each seed twice, untraced and traced in alternating order,
checks that both give the same bytes, and prints per-command means of the
per-layer metrics from bench/spans.py plus the tracing overhead.  The spans
are written to .bench_out/ when the run ends.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; with --workload all (the default) each metric
name is prefixed by its workload's.  A `record` line before it repeats the
metrics with the run's provenance (nproc, Python and numpy versions, the
line count of src/dilastab, the git commit when there is one, and the seed).
--paths shrinks every command, for quick checks only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
# metrics printed with the end-to-end ones but not declared in BENCHMARK.json
UNBOUNDED_UNITS = {
    "paths_per_s": "paths/s",
    "cmd_s_p50": "s",
    "cmd_s_min": "s",
    "failed_frac": "ratio",
}

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _import_program():
    """Import dilastab from this checkout's src/, never from anywhere else."""
    if not (SRC / "dilastab" / "__init__.py").is_file():
        raise SystemExit(f"error: no dilastab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dilastab
    from dilastab import cli

    if SRC.resolve() not in Path(dilastab.__file__).resolve().parents:
        raise SystemExit(f"error: dilastab was imported from {dilastab.__file__}")
    return cli


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def provenance(seed):
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=30,
            )
            commit = done.stdout.strip() if done.returncode == 0 else None
    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "dilastab").rglob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_dilastab_lines": lines,
        "git_commit": commit,
        "seed": seed,
    }


class Outcome(NamedTuple):
    """One checked command."""

    ok: bool
    wall: float
    digest: str | None  # sha256 of the output bytes
    pass_fraction: float | None  # of a verify report
    layers: dict | None  # per-layer metrics of a traced command


class Client:
    """Runs one workload's commands in-process and checks their outputs."""

    def __init__(self, cli, workload, n_paths, workdir):
        self.cli = cli
        self.workload = workload
        self.n_paths = n_paths
        self.output = Path(workdir) / f"{workload.name}.out"
        self.stderr = ""

    def argv(self, seed, threads=None):
        return self.workload.command(seed, self.output, n_paths=self.n_paths, threads=threads)

    def call(self, argv):
        """cli.main(argv) with stderr captured; the exit code, or None if it raised."""
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is a failed command, not a failed run
                print(f"{type(exc).__name__}: {exc}", file=err)
                code = None
        self.stderr = err.getvalue()
        return code

    def run(self, seed, threads=None, timed=None):
        """Run and check one command.

        `timed`, when given, runs the call and returns (result, wall, layer
        metrics); the traced run passes the tracer's.
        """
        self.output.unlink(missing_ok=True)
        argv = self.argv(seed, threads)
        if timed is None:
            start = perf_counter()
            code = self.call(argv)
            wall, layers = perf_counter() - start, None
        else:
            code, wall, layers = timed(lambda: self.call(argv))
        error, fraction, digest = None, None, None
        if code not in (0, 3):
            error = f"exit code {code}: {self.stderr.strip()[-200:]}"
        elif not self.output.exists():
            error = "no output file"
        else:
            data = self.output.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            error, fraction = self.workload.check(data, self.n_paths)
        if error:
            print(f"{self.workload.name} seed {seed}: {error}", file=sys.stderr)
        return Outcome(error is None, wall, digest, fraction, layers)


def command_seeds(seed):
    """The per-command seeds of a run: a pure function of the benchmark seed."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


def setup_wall():
    """Wall time of one fresh interpreter that imports dilastab."""
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import dilastab"],
        env=_child_env(),
        cwd=ROOT,
        check=True,
        capture_output=True,
        timeout=60,
    )
    return perf_counter() - start


def peak_rss_mib(client, seed):
    """ru_maxrss of a fresh process that runs one command of the workload."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "rss_child.py"), json.dumps(client.argv(seed))],
        env=_child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"peak RSS child failed: {done.stderr.strip()[-300:]}")
    return int(done.stdout.split()[-1]) / 1024.0


def _p90(walls):
    return statistics.quantiles(walls, n=10, method="inclusive")[8] if len(walls) > 1 else walls[0]


def measure_end_to_end(client, seed, seconds):
    seeds = command_seeds(seed)
    client.run(next(seeds))  # warm-up: first-call imports and caches, not measured
    setup_wall()
    cmd_seeds, results, setups = [], [], []
    start = perf_counter()
    while not results or perf_counter() < start + seconds:
        cmd_seeds.append(next(seeds))
        results.append(client.run(cmd_seeds[-1]))
        # set-up times are spread over the run, so they see the same
        # machine as the commands do
        due = start + seconds * len(setups) / SETUP_REPEATS
        if len(setups) < SETUP_REPEATS and perf_counter() >= due:
            setups.append(setup_wall())
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_wall())

    # byte identity, outside the timed loop: the same seed gives the same
    # bytes, and so does a serial run of a threaded workload
    first_seed, first = cmd_seeds[0], results[0].digest
    identical = client.run(first_seed).digest == first
    if client.workload.threads > 1:
        identical &= client.run(first_seed, threads=1).digest == first
    if not identical:
        print(f"{client.workload.name}: output bytes differ between runs", file=sys.stderr)

    walls = [r.wall for r in results]
    fractions = [r.pass_fraction for r in results if r.pass_fraction is not None]
    failed = sum(not r.ok for r in results)
    attempted = len(results)
    metrics = {
        "cmd_s_p90": _p90(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mib(client, first_seed),
        "ok_frac": (attempted - failed) / attempted,
        # printed, not bounded: the host's slow phases, up to about 100 s
        # long, move these by up to 1.7x from one run to the next
        "paths_per_s": (attempted - failed) * client.n_paths / sum(walls),
        "cmd_s_p50": statistics.median(walls),
        "cmd_s_min": min(walls),
        "failed_frac": failed / attempted,
    }
    extras = {
        "commands": attempted,
        "pass_fraction_mean": statistics.fmean(fractions) if fractions else None,
        "bytes_identical": identical,
    }
    return identical and failed == 0, attempted, failed, metrics, extras


def measure_layers(client, seed, seconds):
    from spans import Tracer, summarize

    tracer = Tracer()
    seeds = command_seeds(seed)
    client.run(next(seeds))  # warm-up, not measured
    plain_walls, traced_walls, layers = [], [], []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while not layers or perf_counter() < deadline:
        cmd_seed = next(seeds)
        if len(layers) % 2 == 0:
            plain = client.run(cmd_seed)
            traced_run = client.run(cmd_seed, timed=tracer.traced)
        else:
            traced_run = client.run(cmd_seed, timed=tracer.traced)
            plain = client.run(cmd_seed)
        same = plain.digest == traced_run.digest
        if not same:
            print(
                f"{client.workload.name} seed {cmd_seed}: tracing changed the output",
                file=sys.stderr,
            )
        attempted += 2
        failed += (not plain.ok) + (not traced_run.ok or not same)
        plain_walls.append(plain.wall)
        traced_walls.append(traced_run.wall)
        layers.append(traced_run.layers)

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{client.workload.name}.f64")
    metrics = summarize(layers)
    metrics["trace.overhead_ratio"] = sum(traced_walls) / sum(plain_walls)
    extras = {"commands": attempted, "traced_commands": len(layers)}
    return failed == 0, attempted, failed, metrics, extras


def run_workload(cli, spec, name, seed, seconds, trace, n_paths):
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        client = Client(cli, workload, n_paths or workload.n_paths, workdir)
        measure = measure_layers if trace else measure_end_to_end
        correct, attempted, failed, values, extras = measure(client, seed, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    unbounded = {
        key: {"value": value, "unit": UNBOUNDED_UNITS[key]}
        for key, value in values.items()
        if key not in metrics
    }
    print(f"== {name}  seed {seed}  trace {trace}  {extras['commands']} commands")
    for key, metric in metrics.items():
        print(f"  {key:34s} {metric['value']:.6g} {metric['unit']}")
    for key, metric in unbounded.items():
        print(f"  {key:34s} {metric['value']:.6g} {metric['unit']}  (not bounded)")
    record = {
        "workload": name,
        "provenance": provenance(seed),
        "extras": extras,
        "metrics": metrics,
        "unbounded": unbounded,
    }
    print("record " + json.dumps(record))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--paths",
        type=int,
        help="paths per command instead of the workload's own (for quick checks)",
    )
    args = parser.parse_args(argv)
    cli = _import_program()

    selected = names if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(cli, spec, name, args.seed, args.seconds, args.trace, args.paths)
        for name in selected
    }
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": metric
                for name, r in results.items()
                for key, metric in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
