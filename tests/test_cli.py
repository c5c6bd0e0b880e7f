import collections
import contextlib
import hashlib
import io
import json
import math
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dilastab import DRIVER_KINDS, cli, ecf, processes
from dilastab.cli import main


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # how argparse ends a rejected command line
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SMALL = ("--t-min", "0.5", "--t-max", "2.0", "--points", "3", "--n-paths", "4")


def test_simulate_csv_shape(capsys):
    code, out, err = run_cli(capsys, "simulate", *SMALL, "--seed", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "path_id,t,value"
    assert len(lines) == 1 + 4 * 3
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.5
    # rows are grouped by path, each in time order
    ids = [int(l.split(",")[0]) for l in lines[1:]]
    assert ids == sorted(ids)


def test_simulate_reproducible(capsys):
    _, a, _ = run_cli(capsys, "simulate", *SMALL, "--seed", "7")
    _, b, _ = run_cli(capsys, "simulate", *SMALL, "--seed", "7")
    _, c, _ = run_cli(capsys, "simulate", *SMALL, "--seed", "8")
    assert a == b
    assert a != c


def test_simulate_threads_do_not_change_bytes(capsys):
    _, a, _ = run_cli(capsys, "simulate", *SMALL, "--seed", "7", "--threads", "1")
    _, b, _ = run_cli(capsys, "simulate", *SMALL, "--seed", "7", "--threads", "4")
    assert a == b


def test_seed_resolution_order(capsys, monkeypatch):
    monkeypatch.setenv("DILASTAB_SEED", "7")
    _, from_env, _ = run_cli(capsys, "simulate", *SMALL)
    _, explicit, _ = run_cli(capsys, "simulate", *SMALL, "--seed", "7")
    assert from_env == explicit
    # the flag beats the environment
    _, flag_wins, _ = run_cli(capsys, "simulate", *SMALL, "--seed", "9")
    _, plain_nine, _ = run_cli(capsys, "simulate", *SMALL, "--seed", "9")
    assert flag_wins == plain_nine
    monkeypatch.delenv("DILASTAB_SEED")
    _, fallback, _ = run_cli(capsys, "simulate", *SMALL)
    _, zero, _ = run_cli(capsys, "simulate", *SMALL, "--seed", "0")
    assert fallback == zero


def test_config_file_and_overrides(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "grid": {"t_min": 0.5, "t_max": 2.0, "points": 3},
                "n_paths": 5,
                "master_seed": 11,
            }
        )
    )
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 5 * 3
    # a flag overrides the file
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--n-paths", "2")
    assert len(out.strip().split("\n")) == 1 + 2 * 3
    # config master_seed equals the flag spelling of the same seed
    _, by_flag, _ = run_cli(
        capsys, "simulate", *SMALL, "--n-paths", "5", "--seed", "11"
    )
    _, by_file, _ = run_cli(capsys, "simulate", "--config", str(cfg))
    assert by_file == by_flag


def test_simulate_include_origin(capsys):
    code, out, _ = run_cli(capsys, "simulate", *SMALL, "--seed", "1", "--include-origin")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 4 * 4
    assert lines[1] == "0,0.0,0.0"
    code, _, err = run_cli(
        capsys, "simulate", *SMALL, "--include-origin", "--transform", "lamperti"
    )
    assert code == 2
    assert "include-origin" in err


def test_a_log_clock_given_non_positive_times_names_its_transform(capsys):
    # the second lamperti is given the first one's log times, some below 0
    code, out, err = run_cli(
        capsys, "simulate", "--transform", "lamperti", "--transform", "lamperti", "--n-paths", "3"
    )
    assert out == ""
    words = (
        "the lamperti transform at alpha = 1.0 and delta = 1.0 takes times in "
        "[-0.693147, 0.693147]; its log clock needs strictly positive times"
    )
    assert_one_error_line(code, err, words)


def test_simulate_output_file(capsys, tmp_path):
    target = tmp_path / "paths.csv"
    code, out, _ = run_cli(
        capsys, "simulate", *SMALL, "--seed", "1", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("path_id,t,value\n")


def test_simulate_writes_blocks_of_rows_alike_to_a_file_and_stdout(capsys, tmp_path, monkeypatch):
    # 3000 paths of 8 times span three blocks of rows; the bytes do not
    # depend on where they go, nor on how they are split
    writes = []
    write = cli._write_text
    monkeypatch.setattr(cli, "_write_text", lambda out, text: writes.append(write(out, text)))
    argv = ("simulate", "--n-paths", "3000", "--points", "8", "--seed", "5")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and len(writes) >= 4  # the header and at least three blocks
    target = tmp_path / "paths.csv"
    assert run_cli(capsys, *argv, "--output", str(target)) == (0, "", "")
    assert target.read_text() == out
    assert out.count("\n") == 1 + 3000 * 8


def test_simulate_csv_memory_stays_near_the_matrix(tmp_path):
    # the CSV is formatted a block of rows at a time: the peak of Python
    # allocations stays within a few times the 8 B of each value, where the
    # whole text built at once took about 193 B per value
    target = tmp_path / "paths.csv"
    tracemalloc.start()
    try:
        code = main(["simulate", "--n-paths", "20000", "--points", "10", "--output", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak / (20000 * 10) < 48


def test_oracle_golden_values(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--times", "1.0", "--thetas", "0.0,1.0"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,theta,re,im"
    zero = lines[1].split(",")
    assert float(zero[2]) == 0.0 and float(zero[3]) == 0.0
    unit = lines[2].split(",")
    assert float(unit[2]) == pytest.approx(-0.14549417671733159, rel=1e-14)
    assert float(unit[3]) == 0.0


def test_oracle_stable_golden(capsys):
    code, out, _ = run_cli(
        capsys,
        "oracle",
        "--driver",
        '{"kind": "symmetric_stable", "index": 1.0, "scale": 1.0}',
        "--times",
        "2.0",
        "--thetas",
        "1.0",
    )
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert float(row[2]) == pytest.approx(-1.09738580245311, rel=1e-12)


def test_oracle_unsupported_driver(capsys):
    code, _, err = run_cli(
        capsys,
        "oracle",
        "--driver",
        '{"kind": "gamma", "shape": 1.0, "rate": 1.0}',
        "--times",
        "1.0",
        "--thetas",
        "1.0",
    )
    # the driver by its JSON, not by its Python class
    assert_one_error_line(code, err, 'no closed-form log-CF for the driver {"kind": "gamma", ')
    assert "GammaDriver" not in err


def test_oracle_refuses_a_transform_chain(capsys, tmp_path):
    # the oracle is X's log-CF: a chain from the flag or the config file once
    # exited 0 with X's values, as if it had been applied
    oracle = ("oracle", "--times", "1,2", "--thetas", "0.5")
    cfg = tmp_path / "run.json"
    cfg.write_text('{"transforms": ["lamperti", "idt"]}')
    for extra in (("--transform", "lamperti"), ("--config", str(cfg))):
        code, out, err = run_cli(capsys, *oracle, *extra)
        assert out == ""
        assert_one_error_line(code, err, "--transform", "transforms", "oracle")
    # an empty chain is no chain
    cfg.write_text('{"transforms": []}')
    code, out, _ = run_cli(capsys, *oracle, "--config", str(cfg))
    assert code == 0 and out == run_cli(capsys, *oracle)[1]


def test_verify_passes_correct_law(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "verify",
        "--law",
        "dilative",
        "--T",
        "2",
        "--times",
        "0.5,1",
        "--thetas",
        "0.5,1",
        "--n-paths",
        "600",
        "--seed",
        "3",
        "--output",
        str(target),
    )
    assert code == 0
    report = json.loads(target.read_text())
    assert report["pass_fraction"] == 1.0
    assert report["law"] == {"kind": "dilative", "alpha": 1.0, "delta": 1.0, "T": 2.0}
    assert len(report["rows"]) == 4
    row = report["rows"][0]
    for key in ("times", "thetas", "lhs", "rhs", "z", "oracle"):
        assert key in row


def test_verify_passes_a_true_law_at_tiny_theta(capsys):
    # 1 - |cf|^2 rounds to 0 here on both sides; the se must not, or z is infinite
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--law",
        "dilative",
        "--T",
        "2",
        "--times",
        "1",
        "--thetas",
        "1e-8",
        "--n-paths",
        "1000",
        "--seed",
        "3",
    )
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert all(math.isfinite(z) for z in row["z"])


def test_verify_pair_points(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--law",
        "dilative",
        "--T",
        "2",
        "--times",
        "1",
        "--thetas",
        "1",
        "--pair",
        "0.5,1.0,1.0,-0.5",
        "--n-paths",
        "600",
        "--seed",
        "3",
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["rows"]) == 2
    assert report["rows"][1]["times"] == [0.5, 1.0]


def test_verify_flags_misspecified_delta(capsys):
    # shifting only the assumed delta moves the law multiplier; the check
    # must reject it even though the theta scaling still matches
    code, out, err = run_cli(
        capsys,
        "verify",
        "--law",
        "dilative",
        "--T",
        "2",
        "--law-delta",
        "0.5",
        "--times",
        "1.0",
        "--thetas",
        "1.0,1.5",
        "--n-paths",
        "4000",
        "--seed",
        "4",
    )
    assert code == 3
    assert "pass fraction" in err
    report = json.loads(out)
    assert report["pass_fraction"] == 0.0
    # the implied alpha keeps the simulated weight exponent: 0.5 + 0.5 / 2
    assert report["law"]["alpha"] == 0.75
    assert report["law"]["delta"] == 0.5


def test_verify_flags_wrong_family(capsys):
    # the log-clock transform of the process is stationary, so a dilative
    # law cannot hold for it
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--law",
        "dilative",
        "--T",
        "2",
        "--transform",
        "lamperti",
        "--times",
        "0.25",
        "--thetas",
        "1.0",
        "--n-paths",
        "1000",
        "--seed",
        "5",
    )
    assert code == 3
    report = json.loads(out)
    assert report["pass_fraction"] == 0.0
    # transformed runs carry no closed-form oracle
    assert "oracle" not in report["rows"][0]


def test_verify_zero_variance_degenerates_cleanly(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--law",
        "dilative",
        "--T",
        "2",
        "--driver",
        '{"kind": "gaussian", "variance": 0.0}',
        "--times",
        "0.5,1",
        "--thetas",
        "1.0",
        "--n-paths",
        "50",
        "--seed",
        "6",
    )
    assert code == 0
    assert json.loads(out)["pass_fraction"] == 1.0


def test_verify_other_laws_run(capsys):
    for law, extra in [
        ("translative", ("--T", "0.6931471805599453")),
        ("time_stable", ("--n", "2")),
        ("idt", ("--n", "2")),
    ]:
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--law",
            law,
            *extra,
            "--times",
            "0.0" if law == "translative" else "1.0",
            "--thetas",
            "0.5",
            "--n-paths",
            "400",
            "--seed",
            "3",
        )
        assert code == 0, law
        assert json.loads(out)["law"]["kind"] == law


def test_inadmissible_parameters_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "simulate", *SMALL, "--alpha", "0.2", "--delta", "1.0"
    )
    assert code == 2
    assert "error" in err


def test_moment_rejection_names_orders(capsys):
    code, _, err = run_cli(
        capsys,
        "simulate",
        *SMALL,
        "--driver",
        '{"kind": "symmetric_stable", "index": 1.5, "scale": 1.0}',
        "--alpha",
        "1.0",
        "--delta",
        "-1.0",
    )
    assert code == 2
    assert "2" in err and "1.5" in err


def test_unknown_driver_kind_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "simulate", *SMALL, "--driver", '{"kind": "brown"}'
    )
    assert code == 2


def test_missing_config_exit_1(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "simulate", "--config", str(tmp_path / "absent.json")
    )
    assert code == 1
    assert "I/O" in err


def test_bad_config_json_exit_2(capsys, tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 2


def test_lamperti_needs_geometric_spacing(capsys):
    code, _, err = run_cli(
        capsys,
        "simulate",
        *SMALL,
        "--spacing",
        "linear",
        "--transform",
        "lamperti",
    )
    assert code == 2
    assert "geometric" in err


def assert_one_error_line(code, err, *words):
    assert code == 2
    lines = err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("error: ")
    for word in words:
        assert word in lines[0]


@pytest.mark.parametrize(
    "command",
    [("simulate",), ("verify", "--law", "idt", "--n", "2", "--times", "1", "--thetas", "1")],
)
@pytest.mark.parametrize("n_paths", ["0", "-3"])
def test_nonpositive_n_paths_exit_2(capsys, command, n_paths):
    code, _, err = run_cli(capsys, *command, *SMALL[:-2], "--n-paths", n_paths)
    assert_one_error_line(code, err, "n_paths")


def test_verify_rejects_ensembles_below_the_cf_floor(capsys):
    args = ("verify", "--law", "idt", "--n", "2", "--times", "1", "--thetas", "0.5")
    code, _, err = run_cli(capsys, *args, "--n-paths", "24")
    assert_one_error_line(code, err, "n_paths >= 25", "5/sqrt(n_paths)")
    code, _, _ = run_cli(capsys, *args, "--n-paths", "400", "--threshold", "0")
    assert code == 0


@pytest.mark.parametrize("flag", ["--alpha", "--delta"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_nonfinite_parameters_exit_2(capsys, flag, value):
    # the table's line for every command: verify once blamed --T or --n, and
    # simulate gave the admissibility verdict
    for command in (
        ("simulate", *SMALL),
        ("verify", "--law", "dilative", "--T", "2", "--times", "1", "--thetas", "0.5", "--n-paths", "30"),
        ("verify", "--law", "idt", "--n", "2", "--times", "1", "--thetas", "0.5", "--n-paths", "30"),
        ("oracle", "--times", "1", "--thetas", "0.5"),
    ):
        code, _, err = run_cli(capsys, *command, f"{flag}={value}")
        assert_one_error_line(code, err, f"{flag[2:]} must be finite, got {value} (from {flag})")


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (("--t-max", "inf"), "t_max", "inf"),
        (("--t-min", "inf", "--spacing", "linear"), "t_min", "inf"),
        (("--t-max", "nan"), "t_max", "nan"),
    ],
)
def test_nonfinite_grid_times_exit_2(capsys, argv, key, value):
    # outside pytest a numpy RuntimeWarning would print to stderr before the error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(capsys, "simulate", "--points", "3", "--n-paths", "2", *argv)
    assert_one_error_line(code, err, f"{key} must be finite", value)
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("value", ["nan", "inf", "0.5"])
def test_unusable_refine_exit_2(capsys, value):
    code, _, err = run_cli(capsys, "simulate", *SMALL, "--refine", value)
    assert_one_error_line(code, err, "refine", repr(float(value)))


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-4", "1e-300"])
def test_unusable_tail_tol_exit_2(capsys, value):
    code, _, err = run_cli(capsys, "simulate", *SMALL, f"--tail-tol={value}")
    assert_one_error_line(code, err, "tail_tol", repr(float(value)))


@pytest.mark.parametrize(
    "content, words",
    [
        ('{"grid": null}', ("grid", "JSON object")),
        ('{"driver": "gaussian"}', ("driver", "'gaussian'")),
        ("[1, 2]", ("config file", "JSON object")),
        ('{"n_paths": null}', ("n_paths",)),
        ('{"transforms": "lamperti"}', ("transforms", "list")),
        ('{"npaths": 5, "grid": {"pionts": 3}}', ("unknown config key 'npaths'",)),
        ('{"grid": {"pionts": 3}}', ("unknown config key 'grid.pionts'",)),
        ('{"grid.points": 3}', ("unknown config key 'grid.points'",)),
        # no JSON, no UTF-8, or nested past Python's recursion limit: CONFIG
        # stands for the flag and the file's path
        ("", ("CONFIG cannot be read as JSON: Expecting value",)),
        (b"\xff\xfe", ("CONFIG cannot be read as JSON: 'utf-8' codec can't decode",)),
        ("[" * 3000 + "]" * 3000, ("CONFIG cannot be read as JSON",)),
        ('{"driver": ' + "[" * 3000 + "]" * 3000 + "}", ("CONFIG cannot be read as JSON",)),
    ],
)
def test_malformed_config_exit_2(capsys, tmp_path, content, words):
    cfg = tmp_path / "run.json"
    cfg.write_bytes(content if isinstance(content, bytes) else content.encode())
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert_one_error_line(code, err, *(w.replace("CONFIG", f"--config {str(cfg)!r}") for w in words))


@pytest.mark.parametrize(
    "argv, content, key",
    [
        ((), '{"n_paths": 1e308}', "n_paths"),
        ((), '{"grid": {"points": 1e308}}', "points"),
        (("--n-paths", str(cli.MAX_COUNT + 1)), None, "n_paths"),
        (("--points", str(10**400)), None, "points"),
    ],
)
def test_oversized_counts_exit_2_before_allocating(
    capsys, tmp_path, monkeypatch, argv, content, key
):
    def allocate(*args, **kwargs):
        raise AssertionError("an oversized count reached the allocation")

    monkeypatch.setattr(cli, "_output_grid", allocate)
    monkeypatch.setattr(cli, "simulate_ensemble", allocate)
    if content is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(content)
        argv = (*argv, "--config", str(cfg))
    code, out, err = run_cli(capsys, "simulate", *argv)
    assert out == ""
    assert_one_error_line(code, err, f"{key} must be at most {cli.MAX_COUNT}")


SMALL_VERIFY = ("verify", "--law", "dilative", "--T", "2", "--times", "1", "--thetas", "1", "--n-paths", "30")


@pytest.mark.parametrize("r_steps", ["1e300", str(cli.MAX_COUNT + 1)])
def test_oversized_r_steps_exit_2_before_simulating(capsys, monkeypatch, r_steps):
    # 1e300 once reached np.arange, whose error named no input
    def allocate(*args, **kwargs):
        raise AssertionError("an oversized r_steps reached the simulation")

    monkeypatch.setattr(cli, "simulate_ensemble", allocate)
    code, out, err = run_cli(capsys, *SMALL_VERIFY, "--r-steps", r_steps)
    assert out == ""
    assert_one_error_line(code, err, f"--r-steps must be at most {cli.MAX_COUNT}")


def test_a_ray_over_physical_memory_exits_2_before_allocating(capsys, monkeypatch):
    # 10**8 ray positions of 30 paths once asked numpy for 22.4 GiB, and its
    # error named no input; a streamed ray needs its 10**8 complex means
    def allocate(*args, **kwargs):
        raise AssertionError("a ray over the memory figure reached the allocation")

    monkeypatch.setattr(processes, "_physical_memory", lambda: 2**30)
    monkeypatch.setattr(ecf, "_ray_means", allocate)
    code, out, err = run_cli(capsys, *SMALL_VERIFY, "--r-steps", "100000000")
    assert out == ""
    words = ("not enough memory", "r_steps = 100000000", "n_paths = 30 paths", "8.2 GiB", "the 1 GiB")
    assert_one_error_line(code, err, *words)


@pytest.mark.parametrize("message", ["Unable to allocate 29.8 GiB for an array", ""])
def test_out_of_memory_exit_2(capsys, monkeypatch, message):
    # the largest size allowed passes the check; its allocation is faked
    def allocate(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "simulate_ensemble", allocate)
    code, out, err = run_cli(capsys, "simulate", "--n-paths", str(cli.MAX_COUNT))
    assert out == ""
    assert_one_error_line(code, err, "not enough memory", message)


@pytest.mark.parametrize(
    "content, key",
    [
        ('{"master_seed": 1.5}', "master_seed"),
        ('{"master_seed": false}', "master_seed"),
        ('{"n_paths": 2.7}', "n_paths"),
        ('{"n_paths": true}', "n_paths"),
        ('{"n_paths": Infinity}', "n_paths"),
        ('{"grid": {"points": 2.9}}', "points"),
        ('{"alpha": true}', "alpha"),
    ],
)
def test_config_numbers_are_not_truncated(capsys, tmp_path, content, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(content)
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert_one_error_line(code, err, key)
    assert out == ""


def test_config_integral_floats_are_integers(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"master_seed": 11.0, "n_paths": 4.0, "grid": {"points": 3.0}}')
    code, by_file, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--t-min", "0.5", "--t-max", "2.0")
    _, by_flag, _ = run_cli(capsys, "simulate", *SMALL, "--seed", "11")
    assert code == 0 and by_file == by_flag


@pytest.mark.parametrize(
    "argv, env, content, key",
    [
        (("--seed", "-1"), None, None, "--seed"),
        ((), "-1", None, "DILASTAB_SEED"),
        ((), "abc", None, "DILASTAB_SEED"),
        ((), "1.5", None, "DILASTAB_SEED"),
        ((), None, '{"master_seed": -2}', "master_seed"),
    ],
)
def test_bad_seed_names_its_source(capsys, monkeypatch, tmp_path, argv, env, content, key):
    if env is None:
        monkeypatch.delenv("DILASTAB_SEED", raising=False)
    else:
        monkeypatch.setenv("DILASTAB_SEED", env)
    if content is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(content)
        argv += ("--config", str(cfg))
    code, _, err = run_cli(capsys, "simulate", *SMALL, *argv)
    assert_one_error_line(code, err, key)


GOLDEN_BASE = ("simulate", "--t-min", "0.5", "--t-max", "2.0", "--points", "4", "--n-paths", "6")


@pytest.mark.parametrize(
    "extra, digest",
    [
        (
            ("--transform", "lamperti", "--transform", "idt"),
            "d2f251b748b097a6554413070e66b8500511cb9a91ed23d624c739f9148808eb",
        ),
        (
            ("--transform", "lamperti", "--transform", "idt", "--delta", "-0.5"),
            "9259005df70a2af47bea6bdeae31662ab7f5319bb75fe1cf75c1d68ca8f330d2",
        ),
        (
            ("--include-origin",),
            "7aa04284c7ea2e287f902fc99c1e8ae0792d9deca2e0f90a6d53d3466e570868",
        ),
    ],
)
def test_simulate_bytes_are_pinned(capsys, extra, digest):
    # sha256 of outputs recorded before ensembles became matrix-first; any
    # change to the draws, the transform arithmetic or the formatting shows
    code, out, _ = run_cli(capsys, *GOLDEN_BASE, "--seed", "13", *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _stable(index):
    return json.dumps({"kind": "symmetric_stable", "index": index, "scale": 1.0})


@pytest.mark.parametrize(
    "driver, extra, digest",
    [
        (_stable(1.5), (), "f37254182c52a5f17d08cdb5b677a95eb0d17b599b3256c1a89bfabbb6c5e106"),
        (_stable(1.0), (), "1f6f2ffebaa7ba8c48fb0413239602bf508f9cab0cc820920debce343e875763"),
        (_stable(2.0), (), "41742c98481e3cbc41a14d11e75374ec15a1f44a81a4ad0028c0daee2cd6df79"),
        (
            '{"kind": "gamma", "shape": 1.0, "rate": 1.0}',
            (),
            "a08ff209a458dfa674b819fe5abfb5d85210622527f90b9343f02df1dd4abeb0",
        ),
        (
            '{"kind": "compound_poisson", "rate": 3.0,'
            ' "jumps": {"kind": "gaussian", "mean": 0.5, "variance": 2.0}}',
            (),
            "554179f6842056493859a3ac5b3d4149dbaa76f428fb52e7a440bca591cf6154",
        ),
        (
            '{"kind": "compound_poisson", "rate": 3.0,'
            ' "jumps": {"kind": "two_point", "magnitude": 0.5}}',
            (),
            "d6302f37ae4d3241cbb6e17cef042297291624626dd63539093008b8164e4a7d",
        ),
        (
            '{"kind": "gaussian", "variance": 2.0, "drift": 0.3}',
            (),
            "69c5110b41d80a6d98bac1ebd2857e40176c12d0fa10ca776071f2e8aad11908",
        ),
        (
            '{"kind": "gaussian", "variance": 1.0, "drift": 0.0}',
            ("--alpha", "0.5", "--delta", "1"),  # alpha = delta/2: X is L at a clock
            "525cb661d53b23178eb254ddc9bd4e525a2d485808d548fd5d3227e3e04d9414",
        ),
    ],
    ids=[
        "stable-1.5",
        "stable-1.0",
        "stable-2.0",
        "gamma",
        "compound-poisson-gaussian",
        "compound-poisson-two-point",
        "gaussian-drift",
        "alpha-delta-half",
    ],
)
def test_simulate_bytes_are_pinned_per_driver(capsys, driver, extra, digest):
    # sha256 recorded before the driver samplers drew standard variates and
    # mapped them in numpy; the order of the variates each driver draws is
    # the seed-to-bytes contract
    code, out, _ = run_cli(capsys, *GOLDEN_BASE, "--seed", "13", "--driver", driver, *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_report_bytes_are_pinned(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--law",
        "idt",
        "--n",
        "2",
        "--times",
        "0.5,1",
        "--thetas",
        "0.5,1",
        "--pair",
        "0.5,1,1,-0.5",
        "--n-paths",
        "200",
        "--seed",
        "13",
    )
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "5536292f86e98acad90d82c9aec1ddd4a0d150b03726385a1d4ccb4a3997bd5c"
    )


@pytest.mark.parametrize(
    "driver, words",
    [
        ('{"kind": "gaussian", "variance": null}', ("variance", "must be a number", "None")),
        ('{"kind": "compound_poisson", "rate": [1]}', ("rate", "must be a number", "[1]")),
        # true once read as 1.0
        ('{"kind": "gaussian", "variance": true}', ("field variance must be a number", "True")),
        (
            '{"kind": "compound_poisson", "jumps": {"kind": "gaussian", "mean": false}}',
            ("field mean must be a number", "False"),
        ),
        (
            '{"kind": "compound_poisson", "jumps": {"kind": "two_point", "magnitude": "x"}}',
            ("magnitude", "must be a number"),
        ),
        ('{"kind": ["gaussian"]}', ("unknown driver kind", "['gaussian']")),
        ('{"kind": "gaussian", "drift": "nan"}', ("drift must be finite", "nan")),
        ('{"kind": "gaussian", "variance": 1e400}', ("variance must be finite", "inf")),
        (
            '{"kind": "compound_poisson", "jumps": {"kind": "gaussian", "mean": "-inf"}}',
            ("mean must be finite", "-inf"),
        ),
        ('{"kind": "gaussian", "varaince": 4}', ("gaussian driver has no field 'varaince'",)),
        (
            '{"kind": "compound_poisson", "jumps": {"kind": "two_point", "magnitud": 2}}',
            ("two_point jump law has no field 'magnitud'", "magnitude"),
        ),
        # nested past Python's recursion limit: json's RecursionError once
        # ended in a traceback
        ("[" * 3000 + "]" * 3000, ("driver is JSON nested too deep", "(from --driver)")),
        ('{"a": ' * 3000 + "1" + "}" * 3000, ("driver is JSON nested too deep", "(from --driver)")),
    ],
)
def test_bad_driver_fields_exit_2(capsys, driver, words):
    code, out, err = run_cli(capsys, "simulate", *SMALL, "--driver", driver)
    assert out == ""
    assert_one_error_line(code, err, *words)


VERIFY_IDT = ("verify", "--law", "idt", "--n", "2", "--times", "1", "--thetas", "0.5")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("verify", "--law", "dilative", "--T", "2", "--times", "1", "--thetas", "nan"), "--thetas"),
        (("verify", "--law", "dilative", "--T", "2", "--times", "inf", "--thetas", "1"), "--times"),
        (VERIFY_IDT + ("--pair", "0.5,1,nan,-0.5"), "--pair"),
        (("verify", "--law", "dilative", "--T", "nan", "--times", "1", "--thetas", "1"), "--T"),
        (("verify", "--law", "idt", "--n", "inf", "--times", "1", "--thetas", "1"), "--n"),
        (VERIFY_IDT + ("--threshold", "nan"), "--threshold"),
        (VERIFY_IDT + ("--law-alpha=-inf",), "--law-alpha"),
        (VERIFY_IDT + ("--law-delta", "nan"), "--law-delta"),
    ],
)
def test_nonfinite_verify_numbers_exit_2(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv, "--n-paths", "50")
    assert out == ""
    assert_one_error_line(code, err, f"{flag} must be finite")


@pytest.mark.parametrize("value, words", [("1.5", "at most 1, got 1.5"), ("-3", "at least 0, got -3")])
def test_threshold_outside_0_to_1_exits_2(capsys, value, words):
    # 1.5 once exited 3 on a pass fraction of 1, and -3 exited 0 whatever the rows said
    code, out, err = run_cli(capsys, *VERIFY_IDT, "--n-paths", "50", "--threshold", value)
    assert out == ""
    assert_one_error_line(code, err, "--threshold", words)


def test_unestimable_rows_are_reported_not_fatal(capsys):
    # one ray's |cf| falls below the floor 5/sqrt(200): that row is marked
    # unestimable and fails, and the other rows are still checked
    code, out, err = run_cli(
        capsys,
        "verify",
        "--law",
        "dilative",
        "--T",
        "2",
        "--times",
        "0.5,1",
        "--thetas",
        "0.5,1",
        "--n-paths",
        "200",
        "--seed",
        "13",
        "--driver",
        _stable(1.5),
    )
    assert code == 3
    assert "unestimable" in err
    report = json.loads(out)
    rows = report["rows"]
    assert len(rows) == 4
    bad = [row for row in rows if "unestimable" in row]
    assert report["unestimable"] == len(bad) >= 1
    for row in bad:
        assert row["lhs"] is None and row["rhs"] is None and row["z"] is None
        assert "below the floor" in row["unestimable"]
    for row in rows:
        if row not in bad:
            assert len(row["z"]) == 2 and row["lhs"] is not None
    assert report["pass_fraction"] <= 1 - len(bad) / 4


def test_ambiguous_phase_rows_are_reported_unestimable(capsys):
    # drift 20 turns the phase at t = 4 by about 3.8 rad per step of 16, so
    # unwrapping lands 16 turns off; the row is unestimable, not a huge z
    argv = (
        "verify",
        "--law",
        "dilative",
        "--T",
        "2",
        "--driver",
        '{"kind":"gaussian","variance":0.01,"drift":20.0}',
        "--times",
        "2",
        "--thetas",
        "1",
        "--t-max",
        "4",
        "--n-paths",
        "1000",
        "--seed",
        "101",
    )
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert "1 unestimable" in err
    report = json.loads(out)
    assert report["unestimable"] == 1
    (row,) = report["rows"]
    assert row["lhs"] is None and row["z"] is None
    assert "--r-steps" in row["unestimable"] and "r_steps = 16" in row["unestimable"]
    # 64 steps follow the phase onto the oracle's branch (about +62)
    code, out, err = run_cli(capsys, *argv, "--r-steps", "64")
    (row,) = json.loads(out)["rows"]
    assert row["lhs"] == [-0.022790019277790535, 60.44004734366801]


@pytest.mark.parametrize(
    "law, extra, times",
    [
        ("dilative", ("--T", "3"), "0.7,1.3"),
        ("translative", ("--T", "0.3"), "-0.2,0.4"),
        ("time_stable", ("--n", "3"), "0.7,1.3"),
        ("idt", ("--n", "3"), "0.7,1.3"),
    ],
)
@pytest.mark.parametrize("delta", ["1", "-0.5"])
def test_verify_test_times_lie_on_the_transformed_grid(capsys, monkeypatch, law, extra, times, delta):
    # every scaled and base time of the law, pulled back through the law's
    # chain and simulated, is a point of the transformed ensemble's grid
    seen = []

    def checked(ens, law, points, **kwargs):
        for point in points:
            for t in (s for _, term in law.terms(point) for s in term.times):
                assert ens.grid.contains(t), (t, ens.grid.points)
        seen.append(len(points))
        return check_scaling(ens, law, points, **kwargs)

    check_scaling = cli.check_scaling
    monkeypatch.setattr(cli, "check_scaling", checked)
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--law",
        law,
        *extra,
        f"--times={times}",
        "--thetas",
        "0.5",
        f"--pair={times},0.5,-0.25",
        "--alpha",
        "1",
        "--delta",
        delta,
        "--n-paths",
        "100",
        "--threshold",
        "0",
    )
    assert code == 0
    assert seen == [3]
    assert json.loads(out)["law"]["kind"] == law


def test_verify_law_chain_needs_geometric_spacing(capsys):
    # the chain a law picks is checked like one given with --transform
    code, _, err = run_cli(
        capsys,
        "verify",
        "--law",
        "translative",
        "--T",
        "0.5",
        "--times",
        "0",
        "--thetas",
        "1",
        "--spacing",
        "linear",
    )
    assert_one_error_line(code, err, "geometric")


def test_verify_idt_at_zero_delta_exit_2(capsys):
    code, _, err = run_cli(capsys, *VERIFY_IDT, "--delta", "0", "--alpha", "1")
    assert_one_error_line(code, err, "delta != 0")


def test_unknown_spacing_in_config_exit_2(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"grid": {"spacing": "hexagonal"}}')
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert_one_error_line(code, err, "spacing", "hexagonal")


def test_oracle_overflow_exit_2(capsys):
    code, out, err = run_cli(capsys, "oracle", "--times", "1e300", "--thetas", "1", "--alpha", "2")
    assert out == ""
    assert_one_error_line(code, err, "overflows")


def test_oracle_clock_rate_overflow_exit_2(capsys):
    # e^delta overflows in q = delta/(e^delta - 1): the line names delta, not numpy's expm1
    code, out, err = run_cli(
        capsys,
        *("oracle", "--times=1", "--thetas=0.5,2", "--points=3"),
        *("--delta=1e308", "--alpha=1e308"),
    )
    assert out == ""
    assert_one_error_line(code, err, "delta = 1e+308")
    assert "expm1" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [(("--times", "nan", "--thetas", "1"), "--times"), (("--times", "1", "--thetas", "inf"), "--thetas")],
)
def test_nonfinite_oracle_numbers_exit_2(capsys, argv, flag):
    code, out, err = run_cli(capsys, "oracle", *argv)
    assert out == ""
    assert_one_error_line(code, err, f"{flag} must be finite")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("verify", "--law", "idt", "--n", "2", "--times", ",", "--thetas", "1"), "--times"),
        (("verify", "--law", "idt", "--n", "2", "--times", "1", "--thetas", " "), "--thetas"),
        (VERIFY_IDT + ("--pair", ","), "--pair"),
        (("oracle", "--times", ",", "--thetas", "1"), "--times"),
        (("oracle", "--times", "1", "--thetas", ",,"), "--thetas"),
    ],
)
def test_an_empty_list_of_numbers_exit_2(capsys, argv, flag):
    # `verify --times ,` passed with "rows": [] and a pass fraction of 1.0,
    # and `oracle --times ,` wrote only its header
    code, out, err = run_cli(capsys, *argv, *(("--n-paths", "100") if argv[0] == "verify" else ()))
    assert out == ""
    assert_one_error_line(code, err, f"{flag} must hold at least one number")


@pytest.mark.parametrize(
    "command", [("simulate",), VERIFY_IDT, ("oracle", "--times", "1", "--thetas", "1")]
)
@pytest.mark.parametrize(
    "key, value, words",
    [
        ("grid.points", 0, "grid.points must be at least 1, got 0"),
        ("grid.points", -3, "grid.points must be at least 1, got -3"),
        ("grid.spacing", "hexagonal", "grid.spacing must be one of"),
        ("n_paths", 0, "n_paths must be at least 1, got 0"),
        ("refine", 0, "refine must be at least 1, got 0.0"),
        ("tail_tol", 0, "tail_tol must be above 0, got 0.0"),
        ("master_seed", -1, "master_seed must be at least 0, got -1"),
    ],
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_every_command_bounds_each_field_alike(
    capsys, tmp_path, command, key, value, words, source
):
    # oracle takes the same fields as simulate and checks them the same way,
    # although it builds no plan
    (row,) = [row for row in cli._INPUTS if row.key == key]
    argv = [*command, "--n-paths", "30"] if key != "n_paths" else list(command)
    if source == "flag":
        argv.append(f"{row.flag}={value}")
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(nested({key: value})))
        argv += ["--config", str(cfg)]
    code, out, err = run_cli(capsys, *argv)
    assert out == ""
    suffix = f" (from {row.flag})" if source == "flag" else ""
    assert_one_error_line(code, err, words)
    assert err.rstrip().endswith(suffix)


@pytest.mark.parametrize(
    "argv",
    [
        ("--alpha", "0.2", "--delta", "1"),
        ("--alpha", "nan"),
        ("--t-min", "3", "--t-max", "1"),
        ("--transform", "lamperti", "--spacing", "linear"),
    ],
    ids=["inadmissible", "nonfinite-alpha", "decreasing-grid", "lamperti-on-linear"],
)
def test_oracle_checks_grid_and_parameters_like_simulate(capsys, argv):
    _, _, by_simulate = run_cli(capsys, "simulate", "--n-paths", "2", *argv)
    code, out, err = run_cli(capsys, "oracle", "--times", "1", "--thetas", "1", *argv)
    assert out == ""
    assert_one_error_line(code, err)
    assert err == by_simulate


@pytest.mark.parametrize(
    "argv, config",
    [
        (("simulate", "--t-min", "2", "--t-max", "0.5"), None),
        (("simulate", "--t-min", "1", "--t-max", "1.0000000000000002", "--points", "5"), None),
        (("simulate",), {"grid": {"t_min": 2.0, "t_max": 0.5}}),
        (("oracle", "--times", "1", "--thetas", "1", "--t-min", "2", "--t-max", "0.5"), None),
    ],
    ids=["flags", "times-that-round-to-one", "config-keys", "oracle"],
)
def test_a_grid_that_is_not_increasing_names_its_inputs(capsys, tmp_path, argv, config):
    # the builder's own line, "grid times must be strictly increasing", named no input
    if config is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        argv += ("--config", str(cfg))
    code, out, err = run_cli(capsys, *argv, "--n-paths", "3")
    assert out == ""
    words = ("--t-min", "--t-max", "--points", "grid.t_min", "grid.t_max", "grid.points")
    assert_one_error_line(code, err, *words, "grid times must be strictly increasing")


@pytest.mark.parametrize(
    "argv, memory, target, name, words",
    [
        (
            ("--refine", "1e8", "--n-paths", "1", "--points", "2"),
            8 * 2**30,
            processes,
            "_refined_log_grid",
            # processes._FLOATS_PER_CELL = 7 floats of 8 B per cell
            ("refine = 100000000.0", "9.63283e+08 grid cells", "50.2 GiB", "the 8 GiB"),
        ),
        (
            ("--n-paths", "40000", "--points", "5"),
            2**20,
            ecf,
            "plan_dilative",
            ("n_paths = 40000 paths of 5 output times", "0.00298 GiB", "0.000977 GiB"),
        ),
        (
            ("--points", "100000", "--n-paths", "1"),
            2**20,
            cli._SPACINGS,
            "geometric",
            ("points = 100000 output times", "0.00224 GiB"),
        ),
    ],
    ids=["refined-grid", "ensemble", "output-grid"],
)
def test_arrays_over_physical_memory_exit_2_before_allocating(
    capsys, monkeypatch, argv, memory, target, name, words
):
    def allocate(*args, **kwargs):
        raise AssertionError("arrays over the memory figure reached the allocation")

    # the memory figure is set here, so the result does not depend on the machine
    monkeypatch.setattr(processes, "_physical_memory", lambda: memory)
    if isinstance(target, dict):
        monkeypatch.setitem(target, name, allocate)
    else:
        monkeypatch.setattr(target, name, allocate)
    code, out, err = run_cli(capsys, "simulate", *argv)
    assert out == ""
    assert_one_error_line(code, err, "not enough memory for this configuration", *words)


@pytest.mark.parametrize(
    "driver, has_oracle, digest",
    [
        (
            '{"kind": "gaussian", "variance": 2.0, "drift": 0.3}',
            True,
            "a0e793d0a3b5a8848c3718a8ab3246d91bff8d5985fee64864cd108b1d0fe7be",
        ),
        (
            '{"kind": "gamma", "shape": 1.0, "rate": 1.0}',
            False,
            "6d86fa9c9d789d728b48336d1daa40f545084afcc54f5d24d2359d00eee7d4f4",
        ),
    ],
    ids=["closed-form", "gamma"],
)
def test_verify_attaches_the_oracle_wherever_it_has_a_value(capsys, driver, has_oracle, digest):
    # sha256 recorded while verify still probed the oracle at (t, theta) =
    # (1, 1) before attaching it; each row now keeps or drops it on its own
    code, out, err = run_cli(
        capsys,
        "verify",
        *("--law", "dilative", "--T", "2", "--times", "0.5,1", "--thetas", "0.5,1"),
        *("--pair", "0.5,1,1,-0.5", "--n-paths", "300", "--seed", "4", "--threshold", "0"),
        *("--driver", driver),
    )
    assert code == 0 and err == ""
    rows = json.loads(out)["rows"]
    assert len(rows) == 5 and all(("oracle" in row) == has_oracle for row in rows)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_time_near_a_grid_point_is_added_not_merged(capsys):
    # 1.00000000000001 lies 45 ulp above the grid point 1: farther than the
    # grid's matching tolerance, so it is simulated as a point of its own,
    # and the user's grid points stay as they are
    seen = []
    simulate = cli.simulate_ensemble

    def simulated(driver, params, out_times, *args):
        seen.append(out_times.points)
        return simulate(driver, params, out_times, *args)

    argv = ("verify", "--law", "dilative", "--T", "1", "--times", "1.00000000000001")
    argv += ("--thetas", "1", "--t-min", "1", "--t-max", "2", "--points", "2")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "simulate_ensemble", simulated)
        code, out, err = run_cli(capsys, *argv, "--spacing", "linear", "--n-paths", "100")
    assert code == 0 and err == ""
    assert seen[0].tolist() == [1.0, 1.00000000000001, 2.0]
    assert json.loads(out)["rows"][0]["times"] == [1.00000000000001]


def test_verify_row_keeps_no_oracle_that_overflows(capsys):
    code, out, err = run_cli(
        capsys,
        "verify",
        "--law",
        "dilative",
        "--T",
        "1e200",
        "--times",
        "1",
        "--thetas",
        "1",
        "--n-paths",
        "30",
        "--driver",
        '{"kind": "gaussian", "variance": 0}',
    )
    assert code == 0 and err == ""
    (row,) = json.loads(out)["rows"]
    assert "oracle" not in row and row["z"] == [0.0, 0.0]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("simulate", "--n-paths", "abc"), "--n-paths"),
        (("simulate", "--seed", "x"), "--seed"),
        (("verify", "--law", "nope", "--times", "1", "--thetas", "1"), "--law"),
        (("verify", "--times", "1", "--thetas", "1"), "--law"),
        (("simulate", "--bogus", "1"), "--bogus"),
        (VERIFY_IDT[:-2] + ("--thetas", "0.5,abc"), "--thetas"),
        (("verify", "--law", "idt", "--n", "2", "--thetas", "0.5"), "--times"),
        (("oracle", "--times", "1"), "--thetas"),
    ],
    ids=[
        "wrong-type",
        "wrong-type-seed",
        "invalid-choice",
        "missing-required",
        "unknown-flag",
        "number-list",
        "missing-times",
        "missing-thetas",
    ],
)
def test_argument_rejections_are_one_line(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert out == ""
    assert_one_error_line(code, err, flag)


def test_a_value_that_starts_with_a_minus_is_read_as_the_value(capsys):
    # argparse alone reads -1e3 and -0.5,1 as flags: "expected one argument"
    code, out, err = run_cli(
        capsys, "simulate", "--spacing", "linear", "--t-min", "-1e3", "--t-max", "1",
        "--n-paths", "1", "--points", "2",
    )
    assert out == ""
    assert_one_error_line(code, err, "output times must be strictly positive")
    spaced = run_cli(capsys, "oracle", "--times", "1", "--thetas", "-0.5,1")
    joined = run_cli(capsys, "oracle", "--times", "1", "--thetas=-0.5,1")
    assert spaced == joined
    assert joined[0] == 0 and joined[2] == ""
    assert joined[1].splitlines()[1].startswith("1.0,-0.5,")
    # an abbreviation takes its value too; a switch takes none
    assert run_cli(capsys, "oracle", "--times", "1", "--thet", "-0.5,1") == joined
    code, out, err = run_cli(capsys, "simulate", "--include-origin", "-1")
    assert_one_error_line(code, err, "unrecognized arguments: -1")


def test_help_still_prints_usage(capsys):
    code, out, err = run_cli(capsys, "verify", "--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: dilastab verify [-h]")


@pytest.mark.parametrize("command", ["simulate", "verify", "oracle"])
def test_main_builds_the_flags_of_the_named_subcommand_only(capsys, monkeypatch, command):
    # every command once built all three subcommands' parsers, about 1.9 ms
    calls = collections.Counter()
    add_argument = cli._Parser.add_argument

    def counted(self, *args, **kwargs):
        calls[self.prog] += 1
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "add_argument", counted)
    # each parser adds its own -h
    flags = {
        f"dilastab {name}": 1 + sum(name in row.commands for row in cli._INPUTS)
        for name in ("simulate", "verify", "oracle")
    }
    assert run_cli(capsys, command, "--help")[0] == 0
    assert calls == {"dilastab": 1, f"dilastab {command}": flags[f"dilastab {command}"]}
    # without a subcommand named first, every one is built for the message
    for argv in (["--help"], [], ["bogus", command]):
        calls.clear()
        run_cli(capsys, *argv)
        assert calls == {"dilastab": 1, **flags}


VERIFY_ONE_POINT = ("verify", "--n-paths", "30", "--times", "1", "--thetas", "1")


@pytest.mark.parametrize(
    "argv",
    [
        ("--law", "translative", "--T", "800"),
        ("--law", "dilative", "--T", "1e300", "--alpha", "3"),
    ],
    ids=["multiplier-and-pull-back", "theta-scale"],
)
def test_verify_law_out_of_float_range_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *VERIFY_ONE_POINT, *argv)
    assert out == ""
    assert_one_error_line(code, err, "--T", "float range")


@pytest.mark.parametrize(
    "law, time",
    [
        (("time_stable", "--n", "1e100", "--times", "1"), "1e+100"),
        (("idt", "--n", "1e70", "--times", "1"), "1e+70"),
        (("time_stable", "--n", "2", "--times", "1e100"), "1e+100"),
        (("idt", "--n", "2", "--times", "1", "--pair", "1e100,1,1,1"), "1e+100"),
    ],
    ids=["scaled", "scaled-idt", "base", "pair"],
)
def test_verify_names_a_test_time_the_chain_rounds_off_the_grid(capsys, law, time):
    # the chain's round trip s -> time of X -> s drifts by about |log s|/2 ulps,
    # past TimeGrid's matching rule from about s = 1e58; such a run exited 2
    # with "time 1e+100 is not a grid point", which named no input
    code, out, err = run_cli(
        capsys, "verify", "--law", *law, "--thetas", "1e-60", "--n-paths", "30", "--threshold", "0"
    )
    assert out == ""
    scale = f"--n = {float(law[2])!r} "
    assert_one_error_line(code, err, scale, f"the time {time}, ", "rounds off the grid")


def test_verify_runs_a_large_scale_the_chain_carries_back(capsys):
    # at --n 1e80 the round trip still lands within the matching rule
    code, out, _ = run_cli(
        capsys, "verify", "--law", "time_stable", "--n", "1e80", "--times", "1",
        "--thetas", "1e-60", "--n-paths", "30", "--threshold", "0",
    )
    assert code == 0
    assert len(json.loads(out)["rows"]) == 1


@pytest.mark.parametrize(
    "argv, words",
    [
        (("simulate", *SMALL, "--alpha", "1e308"), ("alpha = 1e+308", "delta = 1.0")),
        (("simulate", *SMALL, "--refine", "1e308"), ()),
        (
            ("verify", "--law", "dilative", "--T", "2", "--times", "1", "--thetas", "1e308")
            + ("--n-paths", "30"),
            ("--thetas", "--pair", "overflow"),
        ),
        (
            ("verify", "--law", "dilative", "--T", "2", "--times", "1", "--thetas", "1")
            + ("--pair", "1,2,1e308,1e308", "--n-paths", "30"),
            ("--thetas", "--pair", "overflow"),
        ),
        (
            ("simulate", "--t-max=1e308", "--transform=lamperti_inverse", "--spacing=geometric")
            + ("--n-paths=30",),
            ("lamperti_inverse", "[0.5, 1e+308]"),
        ),
        (
            ("simulate", "--refine=1", "--transform=lamperti_inverse", "--n-paths=30")
            + ("--driver", '{"kind": "gamma", "shape": 1e308}'),
            ("lamperti_inverse",),
        ),
        (
            ("simulate", "--spacing", "linear", "--t-min=-1.7e308", "--t-max", "1.7e308")
            + ("--n-paths", "3"),
            ("-1.7e+308 to 1.7e+308",),
        ),
    ],
    ids=[
        "weight-overflow",
        "cell-count-overflow",
        "projection-overflow",
        "pair-overflow",
        "transform-clock-overflow",
        "transform-weight-overflow",
        "linear-span-overflow",
    ],
)
def test_float_overflow_exit_2(capsys, argv, words):
    # numpy would warn on stderr and write inf, or Python raise OverflowError;
    # the law's derived thetas are finite, while theta * X(t) is not
    code, out, err = run_cli(capsys, *argv)
    assert out == ""
    assert_one_error_line(code, err, "float range", *words)


@pytest.mark.parametrize(
    "argv, count",
    [
        (("--alpha", "1e-300", "--delta", "0"), "2.83678e+303"),
        (("--refine", "1e308"), "inf"),
        (("--refine", "1e9"), "9.63283e+09"),
    ],
    ids=["far-truncation-point", "infinite-count", "count-over-bound"],
)
def test_oversized_refined_grid_exit_2(capsys, monkeypatch, argv, count):
    def allocate(*args, **kwargs):
        raise AssertionError("an oversized grid reached the allocation")

    monkeypatch.setattr(processes, "_refined_log_grid", allocate)
    code, out, err = run_cli(capsys, "simulate", *argv)
    assert out == ""
    words = ("alpha = ", "delta = ", "tail_tol = ", "refine = ", "truncation point")
    assert_one_error_line(code, err, *words, f"{count} grid cells", f"at most {cli.MAX_COUNT}")


def test_underflowing_truncation_denominator_simulates(capsys):
    # variance * tau'(0) underflows to 0 in the truncation point's log
    code, out, err = run_cli(
        capsys,
        "simulate",
        *("--points", "3", "--n-paths", "2", "--delta", "50", "--alpha", "30"),
        *("--driver", '{"kind": "gaussian", "variance": 1e-310}'),
    )
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 6
    assert all(math.isfinite(float(value)) for _, _, value in rows)


@pytest.mark.parametrize(
    "argv, words",
    [
        (("--law", "dilative", "--T", "-2"), ("dilative", "T > 0")),
        (("--law", "idt", "--n", "0"), ("idt", "n > 0")),
        (("--law", "time_stable", "--n", "-1"), ("time_stable", "n > 0")),
    ],
)
def test_verify_law_needs_a_positive_scale(capsys, argv, words):
    code, out, err = run_cli(capsys, *VERIFY_ONE_POINT, *argv)
    assert out == ""
    assert_one_error_line(code, err, *words)


@pytest.mark.parametrize("command", [("simulate",), VERIFY_IDT])
def test_unhashable_transform_names_exit_2(capsys, tmp_path, command):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"transforms": [[1]]}')
    code, out, err = run_cli(capsys, *command, "--n-paths", "30", "--config", str(cfg))
    assert out == ""
    assert_one_error_line(code, err, "transforms", "[[1]]")


# The fuzz test below draws command lines from the documented flags: three
# values in four are valid, so that many runs get past the parser.
BAD_FLOATS = ("-1", "0", "1e308", "-1e308", "nan", "-inf", "abc")
BAD_INTS = ("0", "-2", "1e308", "inf", "abc")
BAD_LISTS = ("-1,1", "0", "1e308", "nan", "abc", "")


def either(valid, bad=()):
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(bad if i == 0 and bad else valid))


FLOATS = either(("2", "0.5", "1"), BAD_FLOATS)
LISTS = either(("1", "0.5,2"), BAD_LISTS)
# a positive float anywhere from the least subnormal to near the largest float
ACROSS_THE_RANGE = st.one_of(
    st.sampled_from((5e-324, 1.7e308)),
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-323, 307)),
)


@st.composite
def laws_across_the_range(draw, kinds):
    """A law of any kind, each of its fields left out or drawn across the float range."""
    kind = draw(st.sampled_from(sorted(kinds)))
    out = {"kind": kind}
    for f in fields(kinds[kind]):
        if draw(st.booleans()):
            nested_kinds = f.metadata.get("kinds")
            law = laws_across_the_range(nested_kinds) if nested_kinds else ACROSS_THE_RANGE
            out[f.name] = draw(law)
    return out


COMMON_FLAGS = {
    "--driver": st.one_of(
        either(
            (
                '{"kind": "symmetric_stable", "index": 1.5}',
                '{"kind": "compound_poisson", "jumps": {"kind": "two_point"}}',
            ),
            ('{"kind": "gamma", "shape": 1e308}', '{"kind": "gaussian", "variance": -1}', "{"),
        ),
        laws_across_the_range(DRIVER_KINDS).map(json.dumps),
    ),
    "--alpha": FLOATS,
    "--delta": FLOATS,
    "--t-min": FLOATS,
    "--t-max": FLOATS,
    "--points": either(("3", "5"), BAD_INTS),
    "--spacing": either(("linear", "geometric"), ("hexagonal",)),
    "--seed": either(("3", "7"), BAD_INTS),
    "--refine": FLOATS,
    "--tail-tol": FLOATS,
    "--transform": either(("lamperti", "lamperti_inverse", "time_stable", "idt"), ("spin",)),
    "--threads": either(("1", "2"), BAD_INTS),
}
COMMAND_FLAGS = {
    "simulate": ({"--include-origin": None}, ()),
    "verify": (
        {
            "--law": either(("dilative", "translative", "time_stable", "idt"), ("nope",)),
            "--T": FLOATS,
            "--n": FLOATS,
            "--times": LISTS,
            "--thetas": LISTS,
            "--law-alpha": FLOATS,
            "--law-delta": FLOATS,
            "--pair": either(("0.5,1,1,-0.5",), ("1,2,nan,1", "1,2", "abc")),
            "--threshold": either(("0", "0.5"), BAD_FLOATS),
            "--r-steps": either(("1", "4"), BAD_INTS),
        },
        ("--law", "--T", "--n", "--times", "--thetas"),
    ),
    "oracle": ({"--times": LISTS, "--thetas": LISTS}, ("--times", "--thetas")),
}
# valid values of n_paths stay at most 40, so every drawn run is cheap
N_PATHS = either(("30", "40"), ("1", "0", "-5", "1e308", "nan", "abc"))
# JSON values for a config key or flag of each kind, valid and not; the valid
# counts stay at most 10, so every drawn run is cheap
TABLE_VALUES = {
    float: (0.5, 1, 2, "2", "1.5", 0, -1, 1e308, 10**400, math.nan, math.inf, True, None, "x", [1]),
    int: (3, 4, 3.0, "3", "3.0", "1e1", 2.5, "2.5", 0, -2, 1e308, 10**400, math.inf, True, "x"),
    str: ("linear", "geometric", "hexagonal", 3, None),
    dict: (
        {"kind": "gamma"},
        {"kind": "gaussian", "variance": 2},
        {"kind": "gaussian", "varaince": 2},
        {"kind": "cauchy"},
        '{"kind": "gamma"}',
        "gaussian",
        None,
    ),
    list: ([], ["lamperti"], ["lamperti", "idt"], ["idt"], ["spin"], [1]),
}
TABLE_KEYS = [row for row in cli._INPUTS if row.key]
ROWS = {row.flag: row for row in cli._INPUTS}


def nested(flat):
    """The config file's JSON object for keys like "grid.points"."""
    out = {}
    for key, value in flat.items():
        section, _, leaf = key.rpartition(".")
        (out.setdefault(section, {}) if section else out)[leaf] = value
    return out


@st.composite
def table_configs(draw):
    """A config of table keys and drawn values, and at times one key nothing declares."""
    rows = draw(st.lists(st.sampled_from(TABLE_KEYS), max_size=3, unique_by=lambda row: row.key))
    flat = {row.key: draw(st.sampled_from(TABLE_VALUES[row.kind])) for row in rows}
    if draw(st.integers(0, 3)) == 0:
        flat[draw(st.sampled_from(("npaths", "grid.pionts", "seed")))] = 1
    return json.dumps(nested(flat))


FIXED_CONFIGS = either(
    (
        None,
        "{}",
        '{"transforms": ["lamperti", "idt"], "grid": {"spacing": "geometric"}}',
        '{"driver": {"kind": "gamma"}, "master_seed": 5}',
    ),
    (
        '{"transforms": [[1]]}',
        '{"grid": {"points": 1e308, "spacing": "linear"}}',
        '{"grid": {"t_min": 0, "spacing": "linear"}}',
        '{"n_paths": 1e308}',
        '{"alpha": "x", "master_seed": -1}',
        "[1]",
        "{",
    ),
)


CONFIGS = st.one_of(FIXED_CONFIGS, table_configs())


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    own, always = COMMAND_FLAGS[command]
    flags = {**COMMON_FLAGS, **own}
    chosen = list(always) + draw(st.lists(st.sampled_from(sorted(flags)), max_size=4, unique=True))
    argv = [command]
    for flag in dict.fromkeys(chosen):
        values = flags[flag]
        argv.append(flag if values is None else f"{flag}={draw(values)}")
    config = draw(CONFIGS)
    if config is None or "n_paths" not in config:
        argv.append(f"--n-paths={draw(N_PATHS)}")
    return argv, config


# the ci profile of conftest.py raises both property tests' example counts
@settings(max_examples=max(150, settings.default.max_examples))
@given(case=command_lines())
@example(case=(["simulate", "--n-paths", "abc"], None))
@example(case=([*VERIFY_ONE_POINT, "--law", "translative", "--T", "800"], None))
@example(case=([*VERIFY_ONE_POINT, "--law", "dilative", "--T", "1e300", "--alpha", "3"], None))
@example(case=(["simulate", "--n-paths", "30"], '{"transforms": [[1]]}'))
@example(case=(["simulate", '--driver={"kind": "gamma", "rate": 1e-200}', "--n-paths=2"], None))
@example(case=(["simulate", '--driver={"kind": "compound_poisson", "rate": 1e300}'], None))
@example(
    case=(["simulate", '--driver={"kind": "gaussian", "variance": 5e-324, "drift": 1.7e308}'], None)
)
@example(
    case=(["simulate", '--driver={"kind": "symmetric_stable", "index": 5e-324, "scale": 5e-324}'], None)
)
@example(case=([*VERIFY_ONE_POINT[:5], "--thetas", "1e308", "--law", "dilative", "--T", "2"], None))
def test_fuzzed_command_lines_exit_cleanly(tmp_path_factory, case):
    argv, config = case
    if config is not None:
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(config)
        argv = [*argv, "--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    # an exception other than SystemExit escapes and fails the test with its
    # traceback; a drawn driver can ask for a refined grid of up to MAX_COUNT
    # cells (a stable index near 0 at delta = 0), which a memory figure of
    # 16 MiB refuses before it is allocated and drawn 40 times
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch.object(
        processes, "_physical_memory", lambda: 2**24
    ):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3), (argv, lines)
    assert not any("Traceback" in line for line in lines)
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)
        # numpy's own words ("overflow encountered in matmul") name no input, and
        # main's generic float-range line is for what no command foresaw
        assert "encountered" not in lines[0], (argv, lines)
        assert not lines[0].startswith("error: this configuration leaves"), (argv, lines)


def run_with_config(tmp_path_factory, argv, config):
    """(exit code, stdout, stderr lines) of main(argv) with config as the config file."""
    path = tmp_path_factory.getbasetemp() / "parity.json"
    path.write_text(json.dumps(nested(config)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([*argv, "--config", str(path)])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue().splitlines()


def as_flags(row, value):
    """The flags that give row the JSON value: text as it is, anything else as JSON."""
    items = value if row.kind is list else [value]
    return [f"{row.flag}={item if isinstance(item, str) else json.dumps(item)}" for item in items]


@settings(max_examples=max(80, settings.default.max_examples))
@given(
    case=st.sampled_from(TABLE_KEYS).flatmap(
        lambda row: st.tuples(st.just(row), st.sampled_from(TABLE_VALUES[row.kind]))
    )
)
@example(case=(ROWS["--points"], 3.0))
@example(case=(ROWS["--n-paths"], "1e1"))
@example(case=(ROWS["--seed"], 10**400))  # a seed beyond the float range
def test_flag_and_config_values_are_read_alike(tmp_path_factory, case):
    # a value set by its flag and by the config file runs the same way: the
    # same exit code, and on success the same bytes
    row, value = case
    base = {key: 3 for key in ("n_paths", "grid.points") if key != row.key}
    by_flag = run_with_config(tmp_path_factory, ["simulate", *as_flags(row, value)], base)
    by_config = run_with_config(tmp_path_factory, ["simulate"], {**base, row.key: value})
    assert by_flag[0] == by_config[0] in (0, 2), (row.flag, value, by_flag, by_config)
    if by_flag[0] == 0:
        assert by_flag[1] == by_config[1]
    else:
        for _, _, lines in (by_flag, by_config):
            assert len(lines) == 1 and lines[0].startswith("error:"), (row.flag, value, lines)


def test_readme_lists_every_input():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for row in cli._INPUTS:
        assert f"`{row.flag}`" in readme, row.flag
        if row.key:
            assert f"`{row.key}`" in readme, row.key


def test_overflowing_driver_constants_name_the_driver(capsys):
    # (scale * dt)**(1/index) overflows in the driver's cells; the line names
    # the driver and its fields, not numpy's power
    driver = '{"kind":"symmetric_stable","index":0.3,"scale":1e300}'
    code, out, err = run_cli(
        capsys, "simulate", "--driver", driver, "--n-paths", "3", "--points", "2"
    )
    assert out == ""
    assert_one_error_line(code, err, '"kind": "symmetric_stable"', '"scale": 1e+300', "float range")
    assert "power" not in err


@pytest.mark.parametrize(
    "driver, words",
    [
        (
            '{"kind":"compound_poisson","rate":1e300}',
            ('"kind": "compound_poisson"', '"rate": 1e+300'),
        ),
        ('{"kind":"gamma","shape":1,"rate":1e-200}', ('"kind": "gamma"', '"rate": 1e-200')),
        ('{"kind":"gamma","shape":1,"rate":1e-160}', ('"kind": "gamma"', '"rate": 1e-160')),
    ],
    ids=["poisson-mean-past-numpy", "gamma-rate-squared-underflows", "gamma-variance-overflows"],
)
def test_drivers_that_cannot_be_drawn_name_themselves(capsys, driver, words):
    # numpy's "lam value too large", a ZeroDivisionError traceback and a line
    # blaming tail_tol before the driver checked its own constants
    code, out, err = run_cli(capsys, "simulate", "--driver", driver, "--n-paths", "2", "--points=2")
    assert out == ""
    assert_one_error_line(code, err, "the driver", *words, "float range")
    assert "lam value" not in err and "tail_tol" not in err


@pytest.mark.parametrize(
    "argv, kind",
    [
        (
            ("simulate", "--n-paths=3", "--points=3")
            + ("--driver", '{"kind": "gaussian", "variance": 5e-324, "drift": 1.7e+308}'),
            "gaussian",
        ),
        (
            ("verify", "--law=dilative", "--T=2", "--times=1", "--thetas=1", "--n-paths=30")
            + ("--alpha=0.5", "--delta=0", "--driver")
            + ('{"kind": "compound_poisson", "jumps": {"kind": "gaussian", "variance": 1.7e+308}}',),
            "compound_poisson",
        ),
        (
            ("simulate", "--n-paths=3", "--points=3")
            + ("--driver", '{"kind": "symmetric_stable", "index": 5e-324, "scale": 5e-324}'),
            "symmetric_stable",
        ),
    ],
    ids=["gaussian-drift-sum", "poisson-jump-sums", "stable-index-near-0"],
)
def test_draws_past_the_float_range_name_the_driver(capsys, argv, kind):
    # numpy's "overflow encountered in accumulate" (or "in multiply", "divide
    # by zero encountered in divide") named neither the driver nor its fields
    code, out, err = run_cli(capsys, *argv)
    assert out == ""
    assert_one_error_line(code, err, f'the driver {{"kind": "{kind}"', "alpha = ", "float range")
    assert "encountered" not in err


def test_law_alpha_changes_only_the_checked_law(capsys):
    plain = run_cli(capsys, *SMALL_VERIFY)
    assert plain[0] in (0, 3)
    assert run_cli(capsys, *SMALL_VERIFY, "--law-alpha", "1.0") == plain
    code, out, _ = run_cli(capsys, *SMALL_VERIFY, "--law-alpha", "1.5")
    assert code in (0, 3)
    assert json.loads(out)["law"] == {"kind": "dilative", "alpha": 1.5, "delta": 1.0, "T": 2.0}


@pytest.mark.parametrize(
    "argv, words",
    [
        (("--law", "dilative", "--times", "1", "--thetas", "1"), ("--law dilative needs --T",)),
        (VERIFY_IDT[1:] + ("--pair", "0.5,1,1"), ("--pair needs t1,t2,theta1,theta2",)),
    ],
    ids=["dilative-without-T", "pair-of-three"],
)
def test_verify_rejects_an_incomplete_law_or_pair(capsys, argv, words):
    code, out, err = run_cli(capsys, "verify", *argv, "--n-paths", "30")
    assert out == ""
    assert_one_error_line(code, err, *words)
