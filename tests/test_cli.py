"""Command-line interface: subcommands, formats, determinism, exit codes."""
import csv
import io
import json

import numpy as np
import pytest

from cechcircle import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# chi-curve
# ---------------------------------------------------------------------------

def test_chi_curve_single_row(capsys):
    code, out, _ = run_cli(capsys, "chi-curve", "--n", "3",
                           "--t-min", "0.25", "--t-max", "0.25", "--steps", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert float(rows[0]["chi"]) == pytest.approx(0.75, abs=1e-13)
    assert float(rows[0]["chi_normalized"]) == pytest.approx(0.25, abs=1e-13)


def test_chi_curve_peak_location(capsys):
    code, out, _ = run_cli(capsys, "chi-curve", "--n", "100",
                           "--t-min", "0.01", "--t-max", "0.49", "--steps", "200")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 200
    best = max(rows, key=lambda r: float(r["chi"]))
    assert 0.24 <= float(best["t"]) <= 0.27


def test_chi_curve_constant_for_one_point(capsys):
    code, out, _ = run_cli(capsys, "chi-curve", "--n", "1",
                           "--t-min", "0.05", "--t-max", "0.45", "--steps", "5")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(float(r["chi"]) == 1.0 for r in rows)


def test_chi_curve_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "chi-curve", "--n", "4", "--format", "json",
                           "--t-min", "0.1", "--t-max", "0.3", "--steps", "3")
    assert code == 0
    rows = json.loads(out)
    assert [float(r["t"]) for r in rows] == [0.1, 0.2, 0.3]
    from cechcircle import expected_euler_char
    for r in rows:
        assert float(r["chi"]) == expected_euler_char(4, float(r["t"]))


def test_chi_curve_json_is_one_indented_list(capsys):
    code, out, _ = run_cli(capsys, "chi-curve", "--n", "7", "--format", "json",
                           "--t-min", "0.013", "--t-max", "0.4999", "--steps", "4")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_chi_curve_streams_the_rows_of_a_huge_grid():
    import os
    import subprocess
    import sys
    import threading
    import time
    from pathlib import Path

    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "cechcircle.cli", "chi-curve", "--n", "5",
            "--t-min", "0.01", "--t-max", "0.4", "--steps", "100000000000"]
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
    killer = threading.Timer(5, proc.kill)  # a grid built up front prints nothing for minutes
    killer.start()
    try:
        lines = [proc.stdout.readline() for _ in range(3)]
    finally:
        killer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    assert time.perf_counter() - started < 5
    assert lines[0] == "n,t,chi,chi_normalized\n"
    assert lines[1].startswith("5,0.01,")
    assert [len(line.split(",")) for line in lines[1:]] == [4, 4]


def test_chi_curve_stops_quietly_when_the_reader_closes_the_pipe():
    # `chi-curve ... | head -2`: the rows left go nowhere, with no error
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "cechcircle.cli", "chi-curve", "--n", "5",
            "--t-min", "0.01", "--t-max", "0.4", "--steps", "100000000000"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    try:
        lines = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        code = proc.wait(timeout=30)
    finally:
        proc.kill()
        proc.wait()
    with proc.stderr:
        err = proc.stderr.read()
    assert lines[0] == "n,t,chi,chi_normalized\n"
    assert lines[1].startswith("5,0.01,")
    assert code == 0
    assert err == ""


def test_chi_curve_bad_grid_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "chi-curve", "--n", "3",
                           "--t-min", "0.3", "--t-max", "0.1", "--steps", "5")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ["--n", "0", "--t-min", "0.1", "--t-max", "0.3", "--steps", "5"],
    ["--n", "3", "--t-min", "0.1", "--t-max", "0.3", "--steps", "0"],
    ["--n", "3", "--t-min", "0.1", "--t-max", "0.3", "--steps", "1"],
    ["--n", "3", "--t-min", "0", "--t-max", "0.3", "--steps", "5"],
    ["--n", "3", "--t-min", "0.1", "--t-max", "0.5", "--steps", "5"],
    ["--n", "3", "--t-min", "0.1", "--t-max", "0.1", "--steps", "5"],
    ["--n", "3", "--t-min", "0.1", "--t-max", "0.3", "--steps", str(10**17)],
])
def test_chi_curve_checks_come_before_any_row(capsys, argv):
    code, out, err = run_cli(capsys, "chi-curve", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# spikes
# ---------------------------------------------------------------------------

def test_spikes_table(capsys):
    code, out, _ = run_cli(capsys, "spikes", "--n", "100", "--max-m", "3")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["m"] for r in rows] == ["2", "3"]
    assert float(rows[0]["omega_m"]) == pytest.approx(0.18394, abs=1e-4)
    assert float(rows[1]["omega_m"]) == pytest.approx(0.09022, abs=1e-4)


def test_spikes_boundary_row_present(capsys):
    code, out, _ = run_cli(capsys, "spikes", "--n", "9", "--max-m", "2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["m"] for r in rows] == ["2"]  # 9 > 2*2^2


def test_spikes_empty_with_warning(capsys):
    code, out, err = run_cli(capsys, "spikes", "--n", "8", "--max-m", "2")
    assert code == 0
    assert list(csv.DictReader(io.StringIO(out))) == []
    assert "warning" in err


def test_spikes_empty_json_is_an_empty_list(capsys):
    code, out, err = run_cli(capsys, "spikes", "--n", "8", "--max-m", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == []
    assert "warning" in err


@pytest.mark.parametrize("argv", [
    ["spikes", "--n", "-3", "--max-m", "3"],
    ["spikes", "--n", "0", "--max-m", "3"],
    ["spikes", "--n", "100", "--max-m", "1"],
])
def test_spikes_bad_range_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("epsilon", ["2", "1", "0", "-0.5"])
def test_spikes_epsilon_outside_unit_interval_usage_error(capsys, epsilon):
    code, out, err = run_cli(capsys, "spikes", "--n", "100", "--max-m", "3", "--epsilon", epsilon)
    assert code == 2
    assert out == ""
    assert err == "error: --epsilon must be in (0, 1)\n"  # before any row: no warnings


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

def test_census_json_deterministic(capsys, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for path in (out1, out2):
        code, _, _ = run_cli(capsys, "census", "--n", "6", "--t", "0.2",
                             "--trials", "50", "--seed", "11",
                             "--output", str(path))
        assert code == 0
    a, b = json.loads(out1.read_text()), json.loads(out2.read_text())
    a.pop("metadata"), b.pop("metadata")
    assert a == b
    assert a["n"] == 6 and a["trials"] == 50 and a["master_seed"] == 11
    assert sum(c["count"] for c in a["counts"]) == 50
    assert a["chi_checked"] == a["chi_agreed"]


def test_census_threads_equal_serial(capsys, tmp_path):
    serial, threaded = tmp_path / "s.json", tmp_path / "t.json"
    run_cli(capsys, "census", "--n", "8", "--t", "0.26", "--trials", "60",
            "--seed", "5", "--output", str(serial))
    run_cli(capsys, "census", "--n", "8", "--t", "0.26", "--trials", "60",
            "--seed", "5", "--threads", "3", "--output", str(threaded))
    a, b = json.loads(serial.read_text()), json.loads(threaded.read_text())
    a.pop("metadata"), b.pop("metadata")
    assert a == b


def test_census_bad_trials_usage_error(capsys):
    code, _, err = run_cli(capsys, "census", "--n", "5", "--t", "0.2",
                           "--trials", "0", "--seed", "1")
    assert code == 2


def test_census_bad_threads_env_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CECHCIRCLE_THREADS", "abc")
    code, out, err = run_cli(capsys, "census", "--n", "5", "--t", "0.2",
                             "--trials", "3", "--seed", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "CECHCIRCLE_THREADS" in err


def test_census_internal_error_is_a_runtime_failure(capsys, monkeypatch):
    from cechcircle import montecarlo

    monkeypatch.setattr(montecarlo, "_eulers_from_counts", lambda c: np.full(len(c), -1))
    code, out, err = run_cli(capsys, "census", "--n", "5", "--t", "0.2",
                             "--trials", "3", "--seed", "1", "--threads", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("internal error: Euler cross-check failed")


def test_census_zero_threads_env_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CECHCIRCLE_THREADS", "0")
    code, out, err = run_cli(capsys, "census", "--n", "5", "--t", "0.2",
                             "--trials", "3", "--seed", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: CECHCIRCLE_THREADS must be a positive integer")


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def _write_points(tmp_path, values):
    path = tmp_path / "pts.txt"
    path.write_text("".join(f"{v}\n" for v in values))
    return str(path)


def test_classify_two_sphere(capsys, tmp_path):
    path = _write_points(tmp_path, [0, 0.25, 0.5, 0.75])
    code, out, _ = run_cli(capsys, "classify", "--input", path, "--t", "0.26")
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == {"kind": "even", "a": 1, "l": 1}
    assert payload["display"] == "S^2"
    assert payload["betti"] == [1, 0, 1]
    assert payload["euler_characteristic"] == 2


def test_classify_s0_and_s3(capsys, tmp_path):
    path = _write_points(tmp_path, [0, 0.5])
    code, out, _ = run_cli(capsys, "classify", "--input", path, "--t", "0.2")
    assert code == 0
    assert json.loads(out)["type"] == {"kind": "even", "a": 1, "l": 0}
    path = _write_points(tmp_path, [0, 0.2, 0.4, 0.6, 0.8])
    code, out, _ = run_cli(capsys, "classify", "--input", path, "--t", "0.31")
    assert code == 0
    assert json.loads(out)["type"] == {"kind": "odd", "l": 1}


def test_classify_decides_decimal_ties_exactly(capsys, tmp_path):
    # five points 0.2 apart: at t = 0.1 neighbouring arcs just touch (C_5),
    # at t = 0.3 each arc just reaches the third point on (N(5, 3))
    path = _write_points(tmp_path, ["0", "0.2", "0.4", "0.6", "0.8"])
    for t, want in [("0.1", "S^1"), ("0.3", "S^3")]:
        code, out, _ = run_cli(capsys, "classify", "--input", path, "--t", t)
        assert code == 0
        assert json.loads(out)["display"] == want


def test_classify_non_finite_t_usage_error(capsys, tmp_path):
    path = _write_points(tmp_path, [0, 0.5])
    for t in ("nan", "inf"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["classify", "--input", path, "--t", t])
        assert exc.value.code == 2
    capsys.readouterr()


def test_classify_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.1\nnot-a-number\n")
    code, _, err = run_cli(capsys, "classify", "--input", str(path), "--t", "0.2")
    assert code == 2
    assert "line 2" in err


def test_classify_non_utf8_file_usage_error(capsys, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"0.1\n# caf\xe9\n0.5\n")
    code, out, err = run_cli(capsys, "classify", "--input", str(path), "--t", "0.2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 2: not UTF-8")


def test_classify_missing_file_is_runtime_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "classify",
                           "--input", str(tmp_path / "nope.txt"), "--t", "0.2")
    assert code == 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_a1_pass(capsys):
    code, out, err = run_cli(capsys, "verify", "a1", "--n", "10", "--t", "0.2",
                             "--trials", "500", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["theorem"] == "a1" and payload["passed"]
    assert "PASS" in err


def test_verify_b_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "b", "--k", "0", "--n", "50",
                           "--t", "0.125", "--trials", "100", "--seed", "3")
    assert code == 0
    assert json.loads(out)["passed"]


def test_verify_missing_flag_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "a1", "--n", "10",
                           "--trials", "100", "--seed", "1")
    assert code == 2
    assert "--t" in err


@pytest.mark.parametrize("n", ["3", "4"])
def test_verify_c_with_n_at_most_k_squared_usage_error(capsys, monkeypatch, n):
    # its t = n(k-1)/(2k(n-1)) lies in k's band iff n > k^2; no trial runs
    from cechcircle import montecarlo

    monkeypatch.setattr(montecarlo, "_tally", lambda *args: pytest.fail("a trial ran"))
    code, out, err = run_cli(capsys, "verify", "c", "--k", "2", "--n", n, "--trials", "2", "--seed", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: verify c needs n > k^2")
    assert f"n={n}, k=2" in err


@pytest.mark.parametrize("k", ["2", "3"])
def test_verify_a2_with_n_at_most_k_and_no_t_usage_error(capsys, monkeypatch, k):
    # its default t = n(k-1)/(2k(n-1)) lies below 1/2 iff n > k; no trial runs
    from cechcircle import montecarlo

    monkeypatch.setattr(montecarlo, "_tally", lambda *args: pytest.fail("a trial ran"))
    code, out, err = run_cli(capsys, "verify", "a2", "--k", k, "--n", k, "--trials", "5", "--seed", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: verify a2 needs n > k without --t")
    assert f"n={k}, k={k}" in err


def test_verify_bad_theorem_name(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "zz", "--n", "10", "--trials", "10", "--seed", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_missing_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_threads_equal_serial(capsys):
    argv = ["verify", "a1", "--n", "30", "--t", "0.26", "--trials", "200", "--seed", "4"]
    serial = run_cli(capsys, *argv, "--threads", "1")
    threaded = run_cli(capsys, *argv, "--threads", "2")
    assert serial == threaded


@pytest.mark.parametrize("argv", [
    ["census", "--n", "-5", "--t", "0.2", "--trials", "10", "--seed", "1"],
    ["census", "--n", "5", "--t", "nan", "--trials", "10", "--seed", "1"],
    ["verify", "a1", "--n", "10", "--t", "nan", "--trials", "10", "--seed", "1"],
    ["verify", "a2", "--k", "2", "--n", "1", "--trials", "10", "--seed", "1"],
    ["verify", "b", "--k", "0", "--n", "0", "--t", "0.125", "--trials", "10", "--seed", "1"],
    ["census", "--n", "5", "--t", "0.2", "--trials", "3", "--seed", "1", "--threads", "0"],
    ["census", "--n", "5", "--t", "0.2", "--trials", "3", "--seed", "1", "--threads", "-4"],
    ["verify", "a1", "--n", "5", "--t", "0.2", "--trials", "3", "--seed", "1", "--threads", "0"],
    ["census", "--n", "5", "--t", "0.2", "--trials", "3", "--seed", "18446744073709551616"],
    ["census", "--n", "5", "--t", "0.2", "--trials", "3", "--seed", "-1", "--threads", "2"],
    ["verify", "a1", "--n", "5", "--t", "0.2", "--trials", "3", "--seed", "-1"],
])
def test_monte_carlo_bad_input_usage_error(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err
    if argv[0] == "verify" and argv[1] == "b":
        assert "n must be >= 1" in err
    if "--seed" in argv and argv[argv.index("--seed") + 1] != "1":
        assert "seed must be in [0, 2^64)" in err


def test_largest_seed_is_accepted(capsys):
    # the seed is one 64-bit Philox key word; seeds past either end are in
    # test_monte_carlo_bad_input_usage_error
    code, out, _ = run_cli(capsys, "census", "--n", "5", "--t", "0.2", "--trials", "3",
                           "--seed", str(2**64 - 1))
    assert code == 0
    assert json.loads(out)["master_seed"] == 2**64 - 1


@pytest.mark.parametrize("argv", [
    ["verify", "a2", "--k", "2", "--n", "50", "--trials", "10", "--seed", "1", "--margin", "nan"],
    ["verify", "c", "--k", "2", "--n", "100", "--trials", "10", "--seed", "1", "--slack", "inf"],
    ["verify", "c", "--k", "2", "--n", "100", "--trials", "10", "--seed", "1", "--epsilon", "nan"],
    ["verify", "c", "--k", "2", "--n", "100", "--trials", "10", "--seed", "1", "--delta", "inf"],
    ["spikes", "--n", "100", "--max-m", "3", "--epsilon", "nan"],
    ["chi-curve", "--n", "10", "--t-min", "nan", "--t-max", "0.3", "--steps", "3"],
    ["chi-curve", "--n", "10", "--t-min", "0.1", "--t-max", "inf", "--steps", "3"],
    ["census", "--n", "5", "--t", "0.2x", "--trials", "3", "--seed", "1"],
])
def test_non_finite_or_garbled_float_option_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "must be a finite number" in captured.err
