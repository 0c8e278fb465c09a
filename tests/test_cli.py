"""Command-line interface: subcommands, formats, determinism, exit codes."""
import csv
import importlib
import io
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from cechcircle import cli
from cechcircle.exact import spike_analysis


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


def test_spikes_stops_at_the_last_m_with_n_above_2m_squared(capsys, monkeypatch):
    # spike_analysis needs n > 2m^2, so at n = 100 the table ends at m = 7
    # however large --max-m is, and no m past it is tried
    want = run_cli(capsys, "spikes", "--n", "100", "--max-m", "7")
    assert [r["m"] for r in csv.DictReader(io.StringIO(want[1]))] == [str(m) for m in range(2, 8)]

    def checked(m, n, epsilon):
        if not n > 2 * m * m:
            pytest.fail(f"spike_analysis tried m={m} at n={n}")
        return spike_analysis(m, n, epsilon)

    monkeypatch.setattr(cli, "spike_analysis", checked)
    assert run_cli(capsys, "spikes", "--n", "100", "--max-m", str(10**12)) == want


def test_spikes_bound_past_the_float_range_is_inf(capsys):
    # at n = 20000, e^(1 + (m-1) ln n + (n-1) ln(m/(m+1))) overflows a float
    # from m = 94 on; every row up to the last m with n > 2m^2 still prints
    code, out, err = run_cli(capsys, "spikes", "--n", "20000", "--max-m", "100")
    assert code == 0 and err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["m"] for r in rows] == [str(m) for m in range(2, 100)]
    assert rows[0]["b_mn"] != "inf" and rows[-1]["b_mn"] == "inf"
    code, out, _ = run_cli(capsys, "spikes", "--n", "20000", "--max-m", "100", "--format", "json")
    assert code == 0 and json.loads(out)[-1]["b_mn"] == "inf"


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


def test_no_environment_variable_stands_in_for_a_flag(capsys, monkeypatch):
    # --threads, like every flag, is read from argv alone
    argv = ["census", "--n", "5", "--t", "0.2", "--trials", "3", "--seed", "1"]
    _, plain, _ = run_cli(capsys, *argv)
    for flag in COMMAND_FLAGS["census"].split():
        monkeypatch.setenv("CECHCIRCLE_" + flag[2:].upper(), "abc")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    a, b = json.loads(plain), json.loads(out)
    a.pop("metadata"), b.pop("metadata")
    assert a == b


def test_census_internal_error_is_a_runtime_failure(capsys, monkeypatch):
    guard = importlib.import_module("cechcircle.classify")
    monkeypatch.setattr(guard, "_eulers_from_counts", lambda c: np.full(len(c), -1))
    code, out, err = run_cli(capsys, "census", "--n", "5", "--t", "0.2",
                             "--trials", "3", "--seed", "1", "--threads", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("internal error: Euler cross-check failed")


@pytest.mark.parametrize("command", [["census"], ["verify", "a1"]])
@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_below_one_usage_error_before_any_trial(capsys, monkeypatch, command, threads):
    from cechcircle import montecarlo

    monkeypatch.setattr(montecarlo, "_tally_block", lambda *args: pytest.fail("a trial ran"))
    code, out, err = run_cli(capsys, *command, "--n", "5", "--t", "0.2", "--trials", "3",
                             "--seed", "1", "--threads", threads)
    assert (code, out, err) == (2, "", f"error: workers must be >= 1, got {threads}\n")


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


def test_classify_cross_checks_the_euler_dp(capsys, monkeypatch, tmp_path):
    # a point file goes through the census's guard step, Euler DP included
    guard = importlib.import_module("cechcircle.classify")
    monkeypatch.setattr(guard, "_eulers_from_counts", lambda c: np.full(len(c), -1))
    path = _write_points(tmp_path, ["0", "0.2", "0.4", "0.6", "0.8"])
    code, out, err = run_cli(capsys, "classify", "--input", path, "--t", "0.1")
    assert (code, out) == (1, "")
    assert err.startswith("internal error: Euler cross-check failed for S^1")
    assert err.endswith(" t=0.1\n")


def test_classify_takes_every_positive_t(capsys, tmp_path):
    # t >= 1/2 gives the point; t <= 0 is a usage error that names t > 0
    path = _write_points(tmp_path, [0, 0.5])
    for t in ("0.5", "0.7"):
        code, out, _ = run_cli(capsys, "classify", "--input", path, "--t", t)
        assert (code, json.loads(out)["display"]) == (0, "point")
    for t in ("0", "-0.3"):
        assert run_cli(capsys, "classify", "--input", path, "--t", t) == (2, "", "error: t must be > 0\n")


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


def test_verify_b_bound_past_float_cancellation(capsys):
    # t = nu_10, so r' = tau_10: float Stevens terms reach 10^29 and cancel to 0
    code, out, err = run_cli(capsys, "verify", "b", "--k", "10", "--n", "200",
                             "--t", "0.4564393939393939", "--trials", "50", "--seed", "1")
    assert (code, err) == (0, "PASS\n")
    assert json.loads(out)["bound"] == 0.0


def test_verify_missing_flag_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "a1", "--n", "10", "--trials", "100", "--seed", "1"])
    assert exc.value.code == 2
    assert "--t" in capsys.readouterr().err


THEOREM_ARGV = {
    "a1": ["--n", "5", "--t", "0.2"],
    "a2": ["--k", "2", "--n", "50"],
    "b": ["--k", "0", "--n", "50", "--t", "0.125"],
    "c": ["--k", "2", "--n", "5"],
}


@pytest.mark.parametrize("theorem, flag", [
    ("a1", "--k"), ("a1", "--delta"), ("a1", "--slack"), ("a1", "--margin"),
    ("a2", "--t"), ("a2", "--delta"), ("a2", "--slack"),
    ("b", "--delta"), ("b", "--slack"), ("b", "--margin"),
    ("c", "--t"), ("c", "--margin"),
])
def test_verify_rejects_a_flag_its_theorem_does_not_read(capsys, monkeypatch, theorem, flag):
    from cechcircle import montecarlo

    monkeypatch.setattr(montecarlo, "_tally", lambda *args: pytest.fail("a trial ran"))
    argv = ["verify", theorem, *THEOREM_ARGV[theorem], "--trials", "10", "--seed", "1",
            flag, "7" if flag == "--k" else "0.3"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert flag in captured.err


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
    # its t = n(k-1)/(2k(n-1)) lies in k's band iff n > k^2 (n = 8 at
    # k = 3 would run at t = 0.381, in band 4); no trial runs
    from cechcircle import montecarlo

    monkeypatch.setattr(montecarlo, "_tally", lambda *args: pytest.fail("a trial ran"))
    for n in {"2": ["2", "3", "4"], "3": ["3", "8", "9"]}[k]:
        code, out, err = run_cli(capsys, "verify", "a2", "--k", k, "--n", n, "--trials", "5", "--seed", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: verify a2 needs n > k^2, so that its t")
        assert f"n={n}, k={k}" in err


@pytest.mark.parametrize("k", ["1", "0", "-3"])
@pytest.mark.parametrize("theorem, n", [("a2", "50"), ("c", "100")])
def test_verify_spike_theorem_with_k_below_2_usage_error(capsys, monkeypatch, theorem, n, k):
    # both sample at the k-th spike centre, which needs k >= 2; no trial runs
    from cechcircle import montecarlo

    monkeypatch.setattr(montecarlo, "_tally", lambda *args: pytest.fail("a trial ran"))
    code, out, err = run_cli(capsys, "verify", theorem, "--k", k, "--n", n, "--trials", "5", "--seed", "1")
    assert (code, out, err) == (2, "", "error: k must be >= 2\n")


@pytest.mark.parametrize("k, n, margin", [
    ("2", "19", []), ("2", "20", []), ("3", "10", []), ("2", "50", ["--margin", "0"]),
])
def test_verify_a2_with_n_at_most_1_over_margin_usage_error(capsys, monkeypatch, k, n, margin):
    # b_(2k-2) sits about one per sample below chi, so at n * margin <= 1 the
    # lower side tests that offset, not the theorem; no trial runs
    from cechcircle import montecarlo

    monkeypatch.setattr(montecarlo, "_tally", lambda *args: pytest.fail("a trial ran"))
    code, out, err = run_cli(capsys, "verify", "a2", "--k", k, "--n", n, "--trials", "5", "--seed", "1", *margin)
    assert code == 2
    assert out == ""
    assert err.startswith("error: verify a2 needs n > 1/margin")
    assert f"n={n}, margin={float(margin[1]) if margin else 0.05}, 1/margin=" in err


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
    ["census", "--n", "16777217", "--t", "0.2", "--trials", "1", "--seed", "1"],
    ["verify", "a1", "--n", "16777217", "--t", "0.25", "--trials", "2", "--seed", "1"],
])
def test_n_above_2_to_the_24_usage_error(capsys, monkeypatch, argv):
    # one row of 2^24 points already peaks at about 1.3 GB; no trial runs
    from cechcircle import montecarlo

    monkeypatch.setattr(montecarlo, "_tally_block", lambda *args: pytest.fail("a trial ran"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: n must be <= 2^24, got 16777217\n"


@pytest.mark.parametrize("argv", [
    ["verify", "a2", "--k", "2", "--n", "50", "--trials", "10", "--seed", "1", "--margin", "nan"],
    ["verify", "c", "--k", "2", "--n", "100", "--trials", "10", "--seed", "1", "--slack", "inf"],
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


def test_every_command_runs_without_the_tests_on_the_path(tmp_path):
    # pytest puts tests/ on sys.path, so an import of the test references
    # from the package would pass every in-process test and fail for users
    import os
    import subprocess
    import sys
    from pathlib import Path

    (tmp_path / "pts.txt").write_text("0\n0.2\n0.4\n0.6\n0.8\n")
    commands = [
        "chi-curve --n 5 --t-min 0.1 --t-max 0.3 --steps 3", "spikes --n 100 --max-m 3",
        "census --n 12 --t 0.2525 --trials 20 --seed 3", "classify --input pts.txt --t 0.3",
        "verify a1 --n 10 --t 0.2 --trials 500 --seed 3",
        "verify a2 --k 2 --n 50 --trials 300 --seed 3",
        "verify b --k 0 --n 50 --t 0.125 --trials 100 --seed 3",
        "verify c --k 2 --n 100 --trials 300 --seed 3",
    ]
    script = ("import contextlib, io, sys\nfrom cechcircle import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    codes = [cli.main(argv.split()) for argv in sys.argv[1:]]\n"
              "print(codes, sorted({'reference', 'conftest'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, *commands], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{[0] * len(commands)} []\n"


def _readme_cli_block() -> str:
    """The sh block of README's `## CLI` section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]


def test_readme_cli_examples_run(capsys, monkeypatch, tmp_path):
    # every `cechcircle ...` line of README's CLI block, verbatim
    commands = [shlex.split(line)[1:] for line in _readme_cli_block().splitlines()
                if line.startswith("cechcircle ")]
    assert len(commands) >= 8
    (tmp_path / "points.txt").write_text("0\n0.2\n0.4\n0.6\n0.8\n")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, argv
        capsys.readouterr()


@pytest.mark.parametrize("t", ["0", "-0.3"])
def test_verify_a1_nonpositive_t_usage_error(capsys, monkeypatch, t):
    # rejected before any trial, as census rejects it
    from cechcircle import montecarlo

    monkeypatch.setattr(montecarlo, "_tally", lambda *args: pytest.fail("a trial ran"))
    code, out, err = run_cli(capsys, "verify", "a1", "--n", "5", "--t", t,
                             "--trials", "2000000", "--seed", "1")
    assert (code, out, err) == (2, "", "error: t must be > 0\n")


@pytest.mark.parametrize("argv, flag", [
    (["verify", "a2", "--k", "2", "--n", "50", "--margin", "-1"], "margin"),
    (["verify", "c", "--k", "2", "--n", "100", "--slack", "-2"], "slack"),
])
def test_verify_negative_margin_or_slack_usage_error(capsys, monkeypatch, argv, flag):
    # a window that can hold nothing is a usage error, not a FAIL
    from cechcircle import montecarlo

    monkeypatch.setattr(montecarlo, "_tally", lambda *args: pytest.fail("a trial ran"))
    code, out, err = run_cli(capsys, *argv, "--trials", "10", "--seed", "1")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} must be >= 0")


# ---------------------------------------------------------------------------
# parsers
# ---------------------------------------------------------------------------

COMMAND_FLAGS = {
    "chi-curve": "--n --t-min --t-max --steps --format --output",
    "spikes": "--n --max-m --epsilon --format --output",
    "census": "--n --t --trials --seed --threads --output",
    "classify": "--input --t --output",
    "verify a1": "--n --t --trials --seed --threads --output",
    "verify a2": "--k --n --margin --trials --seed --threads --output",
    "verify b": "--k --n --t --trials --seed --threads --output",
    "verify c": "--k --n --delta --slack --trials --seed --threads --output",
}


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["verify", "--help"]])
def test_help_lists_every_command(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out = capsys.readouterr().out
    assert exc.value.code == 0
    for name in COMMAND_FLAGS:
        assert f"\n  {name} " in out


@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_command_help_lists_exactly_its_flags(capsys, command):
    import re

    with pytest.raises(SystemExit) as exc:
        cli.main([*command.split(), "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out.startswith(f"usage: cechcircle {command} ")
    assert set(re.findall(r"--[a-z][a-z-]*", out)) == {"--help", *COMMAND_FLAGS[command].split()}


def test_readme_verify_flag_table_matches_the_parsers():
    # README's CLI block lists each theorem's own flags, one line each, from
    # `#   a1  --t` to `#   c   --k ...`; the common flags are listed above them
    import re

    table = re.findall(r"^#   (a1|a2|b|c) +((?:\[?--[a-z-]+\]? )+)", _readme_cli_block(), re.MULTILINE)
    assert [theorem for theorem, _ in table] == ["a1", "a2", "b", "c"]
    common = {"--n", "--trials", "--seed", "--threads", "--output"}
    for theorem, flags in table:
        listed = set(re.findall(r"--[a-z-]+", flags)) | common
        assert listed == {*cli.COMMANDS[f"verify {theorem}"][2], "--output"}, theorem


@pytest.mark.parametrize("argv", [
    ["census", "--n", "5", "--t", "0.2", "--trials", "3", "--seed", "1"],
    ["verify", "a1", "--n", "10", "--t", "0.2", "--trials", "500", "--seed", "3"],
])
def test_a_call_builds_only_its_commands_parser(capsys, monkeypatch, argv):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(built) == 1, built
