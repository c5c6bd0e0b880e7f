import hashlib
import runpy
from pathlib import Path

import pytest

from dilastab.cli import main

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


# read from its file, without putting bench/ on sys.path
WORKLOADS = runpy.run_path(str(WORKLOADS_PY))["WORKLOADS"]

# the first 16 hex digits of the sha256 of each benchmark command's output at
# its full size, by workload and seed; every change that keeps the draws, the
# transforms, the ECF and the formatting must keep them
DIGESTS = {
    ("simulate-csv", 11): "ba36ecdad5ad37fe",
    ("simulate-csv", 987654): "eab236d4290300f5",
    ("verify-idt", 11): "6850ea49872d274a",
    ("verify-idt", 987654): "9d5904b63eced88c",
    ("simulate-gamma-fine-t2", 11): "cb28acde91046f15",
    ("simulate-gamma-fine-t2", 987654): "2f67a6e9ef315ef6",
}


def test_every_workload_has_its_digests():
    assert {name for name, _ in DIGESTS} == set(WORKLOADS)


@pytest.mark.parametrize("name, seed", sorted(DIGESTS))
def test_benchmark_workloads_keep_their_bytes(tmp_path, name, seed):
    workload = WORKLOADS[name]
    target = tmp_path / "out"
    assert main(workload.command(seed, target)) == 0
    data = target.read_bytes()
    assert workload.check(data)[0] is None
    assert hashlib.sha256(data).hexdigest()[:16] == DIGESTS[name, seed]
