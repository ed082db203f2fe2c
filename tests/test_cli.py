import glob
import os
import subprocess
import sys

import pytest

import fujitalab
from fujitalab import cli
from fujitalab.exponents import REPORT_CSV_COLUMNS


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    comments = [l for l in lines if l.startswith("# ")]
    data = [l for l in lines if not l.startswith("# ")]
    return comments, data


BASE = "N = 3\nsigma1 = 0\nsigma2 = 0\nrho = -0.5\np = 3\n"

DEMO_CONFIGS = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), os.pardir, "demos", "configs", "*.cfg")))


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------

def test_exponents_command_writes_report(tmp_path, capsys):
    cfg = _write(tmp_path, "exp.cfg", BASE)
    rc = cli.main(["exponents", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "p_star = 2" in out
    comments, data = _read_csv(tmp_path / "exponents.csv")
    assert comments and comments[0].startswith("# params:")
    assert data[0] == ",".join(REPORT_CSV_COLUMNS)
    assert len(data) == 2
    row = dict(zip(REPORT_CSV_COLUMNS, data[1].split(",")))
    assert row["p_star"] == "2"
    assert row["r_lo"] == "3" and row["r_hi"] == "9"


def test_exponents_output_is_deterministic(tmp_path):
    cfg = _write(tmp_path, "exp.cfg", BASE)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert cli.main(["exponents", "--config", cfg, "--out", str(a_dir)]) == 0
    assert cli.main(["exponents", "--config", cfg, "--out", str(b_dir)]) == 0
    a = (a_dir / "exponents.csv").read_bytes()
    b = (b_dir / "exponents.csv").read_bytes()
    assert a == b


def test_blowup_scan_command(tmp_path):
    cfg = _write(tmp_path, "scan.cfg", (
        "N = 3\nsigma1 = 0\nsigma2 = 0\nrho = -0.5\n"
        "p_lo = 1.5\np_hi = 2.5\namplitude = 4\n"
        "grid_m = 384\ngrid_r_max = 30\ngrid_r_min = 0.03\n"
        "dt_init = 5e-3\nt_max = 50\n"))
    rc = cli.main(["blowup-scan", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    comments, data = _read_csv(tmp_path / "blowup_scan.csv")
    joined = "\n".join(comments)
    assert "amplitude" in joined and "bracket" in joined
    assert data[0] == "p,outcome,t_star_or_Tmax,max_norm"
    assert len(data) >= 3          # endpoints plus at least one bisection


def test_capacity_fit_command(tmp_path):
    cfg = _write(tmp_path, "cap.cfg", (
        "N = 3\nsigma1 = 0\nsigma2 = 0\nrho = -0.5\np = 1.5\n"
        "radii = 10, 30, 100, 300, 1000\n"))
    rc = cli.main(["capacity-fit", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    comments, data = _read_csv(tmp_path / "capacity_fit.csv")
    assert any("fitted" in c for c in comments)
    assert len(data) == 6


def test_local_solve_command(tmp_path):
    cfg = _write(tmp_path, "loc.cfg", (
        "N = 3\nsigma1 = 0\nsigma2 = 0\nrho = 0\np = 2\n"
        "q = 4\nhorizon = 0.5\ngrid_m = 256\nn_times = 32\n"
        "u0 = gaussian(0, 1, 0.5)\nw = bump(1, 0.5)\n"))
    rc = cli.main(["local-solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    comments, data = _read_csv(tmp_path / "local_trajectory.csv")
    assert any("existence horizon" in c for c in comments)
    assert len(data) > 2


def test_mild_solve_command(tmp_path):
    cfg = _write(tmp_path, "mild.cfg", (
        "N = 3\nsigma1 = 0\nsigma2 = -0.1\nrho = -0.5\np = 3\n"
        "u0 = gaussian(0, 1, 1e-3)\nw = bump(1, 1e-3)\n"
        "grid_m = 256\nt_max = 2\nn_times = 32\n"))
    rc = cli.main(["mild-solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    assert (tmp_path / "mild_trajectory.csv").exists()
    assert (tmp_path / "mild_convergence.csv").exists()


def test_transform_check_command(tmp_path):
    cfg = _write(tmp_path, "tr.cfg", (
        "N = 3\nsigma1 = -1\nsigma2 = -0.5\nrho = -0.5\np = 3\n"
        "u0 = gaussian(0, 1, 0.5)\nw = bump(1, 0.5)\n"
        "grid_m = 384\ngrid_r_min = 0.003\nn_snapshots = 5\n"
        "t_end = 0.3\ndt_init = 2e-3\n"))
    rc = cli.main(["transform-check", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    comments, data = _read_csv(tmp_path / "transform_check.csv")
    assert any("theta=" in c for c in comments)
    assert data[0].startswith("t,")
    assert len(data) >= 4          # header plus interior snapshots


def test_unforced_problem_runs_without_profile_keys(tmp_path):
    # u0 and w both fall back to the zero profile, parsed like a given one
    cfg = _write(tmp_path, "bare.cfg", (
        "N = 3\nsigma1 = 0\nsigma2 = -0.1\nrho = -0.5\np = 3\n"
        "grid_m = 128\nt_max = 1\nn_times = 8\n"))
    rc = cli.main(["mild-solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    comments, _ = _read_csv(tmp_path / "mild_trajectory.csv")
    assert "u0=zero w=zero" in comments[0]


def test_demo_configs_are_deterministic(tmp_path):
    assert len(DEMO_CONFIGS) == len(cli.COMMANDS) == 7
    for path in DEMO_CONFIGS:
        command = os.path.basename(path)[:-len(".cfg")].replace("_", "-")
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / command / tag
            assert cli.main([command, "--config", path,
                             "--out", str(out)]) == cli.EXIT_OK, command
            runs.append({name: (out / name).read_bytes()
                         for name in sorted(os.listdir(out))})
        assert runs[0] and runs[0] == runs[1], command


def test_semigroup_check_command(tmp_path):
    cfg = _write(tmp_path, "sg.cfg", (
        "N = 3\nsigma1 = -0.5\n"
        "lq_a = 2\nlq_b = 4\ngrid_m = 512\ngrid_r_max = 40\n"
        "t_lo = 1\nt_hi = 10\nn_times = 9\n"))
    rc = cli.main(["semigroup-check", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    comments, data = _read_csv(tmp_path / "semigroup_check.csv")
    joined = "\n".join(comments)
    assert "fitted" in joined and "theory" in joined
    assert len(data) == 10


def test_schema_flag(capsys):
    assert cli.main(["--schema"]) == cli.EXIT_OK
    assert "[exponents]" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# failure modes map to distinct exit codes
# ---------------------------------------------------------------------------

def test_config_errors_exit_2(tmp_path):
    bad_profile = _write(tmp_path, "bad1.cfg",
                         BASE + "u0 = vortex(1)\nw = zero\n"
                         "t_max = 1\n")
    assert cli.main(["mild-solve", "--config", bad_profile,
                     "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    unknown_key = _write(tmp_path, "bad2.cfg", BASE + "surprise = 7\n")
    assert cli.main(["exponents", "--config", unknown_key,
                     "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert cli.main(["exponents", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path)]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("command, text", [
    ("capacity-fit", "N = 3\nsigma1 = inf\np = 1.5\nradii = 10, 100, 1000\n"),
    ("exponents", "N = 3\nsigma1 = inf\np = 1.5\n"),
    ("capacity-fit", "N = 3\np = 1.5\nradii = 10, 100, 1e400\n"),
], ids=["capacity-fit-sigma1", "exponents-sigma1", "capacity-fit-radii"])
def test_non_finite_values_exit_2(tmp_path, command, text):
    cfg = _write(tmp_path, "inf.cfg", text)
    assert cli.main([command, "--config", cfg,
                     "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert not (tmp_path / (command.replace("-", "_") + ".csv")).exists()


MILD_TUPLE = "N = 3\nsigma2 = -0.1\nrho = -0.5\np = 3\n"


@pytest.mark.parametrize("command, extra", [
    ("mild-solve", "grid_m = 8\n"),
    ("mild-solve", "grid_r_max = -1\n"),
    ("mild-solve", "u0 = gaussian(0, 0, 1)\n"),
    ("mild-solve", "n_times = 4\n"),
    ("semigroup-check", "t_lo = 0\n"),
], ids=["grid_m", "grid_r_max", "u0", "n_times", "t_lo"])
def test_invalid_inputs_to_builders_exit_2(tmp_path, command, extra):
    # values the schema types admit but the grid, profile, solver settings
    # or time list reject are configuration errors, not tracebacks
    cfg = _write(tmp_path, "bad.cfg", MILD_TUPLE + extra)
    assert cli.main([command, "--config", cfg,
                     "--out", str(tmp_path)]) == cli.EXIT_CONFIG


def test_hypothesis_violations_exit_3(tmp_path):
    # subcritical p has an empty admissible window: the gate must fire
    # before any numerics run
    cfg = _write(tmp_path, "sub.cfg", (
        "N = 3\nsigma1 = 0\nsigma2 = 0\nrho = -0.5\np = 1.5\n"
        "u0 = zero\nw = bump(1, 1e-3)\ngrid_m = 256\n"))
    assert cli.main(["mild-solve", "--config", cfg,
                     "--out", str(tmp_path)]) == cli.EXIT_HYPOTHESIS


def test_numerical_failures_exit_4_but_write_artifacts(tmp_path):
    # the log-cutoff capacity is pre-asymptotic on desk-scale radii: the
    # quality gate fails, the exit code says so, and the measured values
    # are still written for inspection
    cfg = _write(tmp_path, "log.cfg", (
        "N = 4\nsigma1 = 0\nsigma2 = 0\nrho = 0\np = 2\n"
        "radii = 1e2, 1e3, 1e4, 1e5, 1e6\nlog_case = true\n"))
    rc = cli.main(["capacity-fit", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_NUMERICAL
    comments, data = _read_csv(tmp_path / "capacity_fit.csv")
    assert any("QUALITY GATE FAILED" in c for c in comments)
    assert len(data) == 6


def test_undefined_r_squared_fails_the_capacity_gate(tmp_path):
    # T = R^50 makes T^(rho+1) overflow, so the normalised capacities reach
    # 0 and both R^2 are nan: the gate must fail rather than wave nan past
    cfg = _write(tmp_path, "nan.cfg", (
        "N = 3\nrho = 0.9\np = 1.5\nradii = 10, 100, 1000, 10000\n"
        "t_exponent = 50\n"))
    with pytest.warns(RuntimeWarning):
        rc = cli.main(["capacity-fit", "--config", cfg,
                       "--out", str(tmp_path)])
    assert rc == cli.EXIT_NUMERICAL
    comments, data = _read_csv(tmp_path / "capacity_fit.csv")
    assert any("QUALITY GATE FAILED" in c for c in comments)
    assert any("r_squared=nan" in c for c in comments)
    assert len(data) == 5


def test_datum_above_the_blowup_cap_exits_2(tmp_path):
    # the direct run behind transform-check stops at a sup norm of 1e8, so
    # a datum that starts above it is a configuration error
    cfg = _write(tmp_path, "cap.cfg", (
        "N = 3\nsigma1 = -0.7\nsigma2 = -0.5\nrho = -0.5\np = 3\n"
        "u0 = gaussian(0, 1, 1e9)\n"))
    rc = cli.main(["transform-check", "--config", cfg,
                   "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert not (tmp_path / "transform_check.csv").exists()


def test_overflowing_nonlinearity_exits_4_without_traceback(tmp_path):
    # the norms of a datum of size 1e120 overflow, and so does |u0|^3: the
    # solver must stop there with a numerical failure, neither with an
    # uncaught error nor after a numpy overflow warning
    cfg = _write(tmp_path, "ovf.cfg", (
        "N = 3\nsigma1 = 0\nsigma2 = -0.1\nrho = -0.5\np = 3\n"
        "u0 = gaussian(0, 1, 1e120)\nw = zero\n"
        "grid_m = 128\nn_times = 8\n"))
    src = os.path.dirname(os.path.dirname(fujitalab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys; from fujitalab import cli; sys.exit(cli.main())",
         "mild-solve", "--config", cfg, "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == cli.EXIT_NUMERICAL, run.stderr
    assert "numerical failure:" in run.stderr
    assert "Traceback" not in run.stderr
    assert "RuntimeWarning" not in run.stderr


def test_cli_rejects_missing_command():
    assert cli.main([]) == cli.EXIT_CONFIG
