"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit in
both modes, that tracing leaves the program's outputs byte-identical and puts
every wrapped function back, and that the benchmark refuses to run without
the program's sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
TINY = ["--seed", "3", "--seconds", "0.5", "--paths", "300"]


def _bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _check_result(done, declared, workloads=None):
    """The last line is the result object: every declared metric with its unit
    (prefixed by the workload when several ran), and each is printed above."""
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    prefixes = [f"{w}." for w in workloads] if workloads else [""]
    expected = {p + m["name"]: m["unit"] for p in prefixes for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    printed = [line.split() for line in done.stdout.splitlines()]
    for m in declared:
        hits = [f for f in printed if f[:1] == [m["name"]] and f[-1:] == [m["unit"]]]
        assert len(hits) == len(prefixes), m["name"]
    return result


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_end_to_end_metrics_are_printed_with_units(workload):
    done = _bench("--workload", workload, "--trace", "0", *TINY)
    result = _check_result(done, SPEC["end_to_end"])
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    printed = {line.split()[0] for line in done.stdout.splitlines() if line.startswith("  ")}
    assert {"paths_per_s", "cmd_s_p50", "cmd_s_min", "failed_frac"} <= printed


def test_traced_run_prints_every_layer_metric_for_every_workload():
    done = _bench("--workload", "all", "--trace", "1", *TINY)
    result = _check_result(done, SPEC["per_layer"], WORKLOAD_NAMES)
    # counts that depend only on the fixed inputs
    assert result["metrics"]["simulate-csv.processes.cells_per_path"]["value"] == 81
    assert result["metrics"]["verify-idt.processes.cells_per_path"]["value"] == 84
    assert result["metrics"]["simulate-gamma-fine-t2.processes.cells_per_path"]["value"] == 710
    assert result["metrics"]["verify-idt.ecf.rows"]["value"] == 14


def test_tracing_leaves_outputs_unchanged_and_unwraps():
    sys.path.insert(0, str(BENCH))
    from run import Client, _import_program
    from spans import Tracer, _targets
    from workloads import WORKLOADS

    cli = _import_program()
    from dilastab.integrator import SamplePath, TimeGrid

    def wrapped():
        return [getattr(owner, attr) for owner, attr, *_ in _targets()] + [
            SamplePath.__post_init__,
            TimeGrid.__post_init__,
        ]

    originals = wrapped()
    work = ROOT / ".bench_out" / "smoke-trace"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    try:
        for workload in WORKLOADS.values():
            client = Client(cli, workload, 300, work)
            plain = client.run(11)
            with_spans = client.run(11, timed=tracer.traced)
            assert plain.ok and with_spans.ok
            assert plain.digest == with_spans.digest, workload.name
            assert with_spans.layers["processes.run_calls"] == 300
            assert with_spans.layers["ecf.derive_rng_calls"] == 300
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert wrapped() == originals


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = _bench(
            "--workload", WORKLOAD_NAMES[0], *TINY, cwd=bare, script=bare / "bench" / "run.py"
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_predictions_name_declared_metrics_and_workloads():
    predictions = json.loads((BENCH / "predictions.json").read_text())["predictions"]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    layers = {m["name"] for m in SPEC["per_layer"]}
    covered = set()
    for p in predictions:
        assert set(p["layer_metrics"]) <= layers
        assert set(p["moves"]) <= end_to_end
        assert set(p["on"]) | set(p["unmoved"]) <= set(WORKLOAD_NAMES)
        covered |= set(p["layer_metrics"])
    assert covered == layers
