import glob
import hashlib
import os
import subprocess
import sys
import time

import pytest

import fujitalab
from fujitalab import cli
from fujitalab.exponents import REPORT_CSV_COLUMNS


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()[:16]


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    comments = [l for l in lines if l.startswith("# ")]
    data = [l for l in lines if not l.startswith("# ")]
    return comments, data


BASE = "N = 3\nsigma1 = 0\nsigma2 = 0\nrho = -0.5\np = 3\n"

DEMO_CONFIGS = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), os.pardir, "demos", "configs", "*.cfg")))

# sha256 prefixes of the demo CSVs; test_mild.py pins the mild-solve and
# local-solve ones
DEMO_CSV_SHA256 = {
    "blowup_scan.csv": "798685e8f8d95810",
    "capacity_fit.csv": "250fcf15657b02f6",
    "exponents.csv": "af3af68adfd3f4b7",
    "semigroup_check.csv": "f14a20b15fa004a3",
    "transform_check.csv": "9c123059f5fd6446",
}


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
    pinned = {}
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
        pinned.update((name, _sha256(data)) for name, data in runs[0].items()
                      if name in DEMO_CSV_SHA256)
    assert pinned == DEMO_CSV_SHA256


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

def test_config_errors_exit_2(tmp_path, capsys, monkeypatch):
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
    not_utf8 = tmp_path / "latin1.cfg"
    not_utf8.write_bytes(b"N = 3\n# caf\xe9\n")
    assert cli.main(["exponents", "--config", str(not_utf8),
                     "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "cannot read config" in capsys.readouterr().err

    # an output directory that cannot be made stops the run before compute
    def no_run(*args):
        raise AssertionError("a runner started")
    monkeypatch.setitem(cli._DISPATCH, "exponents", no_run)
    a_file = _write(tmp_path, "a_file", "")
    good = _write(tmp_path, "good.cfg", BASE)
    assert cli.main(["exponents", "--config", good,
                     "--out", os.path.join(a_file, "sub")]) == cli.EXIT_CONFIG
    out_is_file = _write(tmp_path, "out.cfg", BASE + "out_dir = %s\n" % a_file)
    assert cli.main(["exponents", "--config", out_is_file]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.count("cannot make output directory") == 2


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
    ("mild-solve", "grid_r_min = 0.5\ngrid_r_max = -1\n"),
    ("mild-solve", "grid_r_max = 1e300\n"),
    ("mild-solve", "u0 = gaussian(0, 1e-200, 1)\n"),
    ("blowup-scan", "bracket_width = 0\n"),
    ("transform-check", "n_snapshots = 2\n"),
], ids=["grid_m", "grid_r_max", "u0", "n_times", "t_lo", "grid_r_min",
        "grid_r_max_huge", "u0_width_underflow", "bracket_width",
        "n_snapshots"])
@pytest.mark.filterwarnings("error")
def test_invalid_inputs_to_builders_exit_2(tmp_path, command, extra):
    # values the schema types admit but the grid, profile, solver settings
    # or time list reject are configuration errors, not tracebacks, and are
    # rejected before numpy meets them (no warning)
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


@pytest.mark.parametrize("tuple_", [
    "sigma2 = 0\nrho = 0.5\n",        # critical power +inf
    "sigma2 = -1.5\nrho = -0.5\n",    # p* = 1.25, so p* - 1/2 < 1
], ids=["infinite_p_star", "p_star_below_1.5"])
def test_calibration_preconditions_exit_3(tmp_path, tuple_):
    # amplitude = 0 calibrates at p* -/+ 1/2, which must exist and exceed
    # 1; when it does not, the run stops before any numerics
    cfg = _write(tmp_path, "cal.cfg", (
        "N = 3\nsigma1 = 0\n" + tuple_ + "p_lo = 1.25\np_hi = 3\n"
        "amplitude = 0\ngrid_m = 384\ngrid_r_max = 30\ngrid_r_min = 0.03\n"
        "dt_init = 5e-3\nt_max = 50\n"))
    rc = cli.main(["blowup-scan", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_HYPOTHESIS
    assert not (tmp_path / "blowup_scan.csv").exists()


@pytest.mark.parametrize("amplitude", [0, 1], ids=["calibrated", "given"])
@pytest.mark.parametrize("r_min", [0.9993, 1, 2])
def test_grid_that_misses_the_scan_forcing_exits_3(tmp_path, monkeypatch,
                                                   r_min, amplitude):
    # the scan forcing is a bump on r < 1: a grid from r_min >= 1 gives it
    # zero mass, and one from just below 1 a subnormal mass whose inverse
    # overflows; either way int w > 0 fails, before any run
    from fujitalab import blowup

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")
    monkeypatch.setattr(blowup, "integrate_nonlinear", no_run)
    cfg = _write(tmp_path, "miss.cfg", BASE + (
        "p_lo = 1.5\np_hi = 2.5\namplitude = %g\ngrid_m = 64\n"
        "grid_r_max = 30\ngrid_r_min = %r\n" % (amplitude, r_min)))
    rc = cli.main(["blowup-scan", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_HYPOTHESIS
    assert not (tmp_path / "blowup_scan.csv").exists()


def test_negative_amplitude_exits_2_before_any_run(tmp_path, capsys,
                                                  monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a scan ran")
    monkeypatch.setattr(cli, "calibrate_amplitude", no_run)
    monkeypatch.setattr(cli, "scan_threshold", no_run)
    cfg = _write(tmp_path, "amp.cfg", BASE + "p_lo = 1.5\np_hi = 3\n"
                 "amplitude = -1\n")
    rc = cli.main(["blowup-scan", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert "amplitude must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "blowup_scan.csv").exists()


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
    assert _sha256((tmp_path / "capacity_fit.csv").read_bytes()) == \
        "f7696009378b7108"


@pytest.mark.filterwarnings("error")
def test_undefined_r_squared_fails_the_capacity_gate(tmp_path):
    # T = R^50 makes I_time = T^(1-kappa) R^a_time underflow to 0 at
    # R = 1e4, T = 1e200, so the time fit's slope and R^2 are nan: the gate
    # must fail rather than wave nan past
    cfg = _write(tmp_path, "nan.cfg", (
        "N = 3\nrho = -0.9\np = 1.5\nradii = 10, 100, 1000, 10000\n"
        "t_exponent = 50\n"))
    rc = cli.main(["capacity-fit", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_NUMERICAL
    comments, data = _read_csv(tmp_path / "capacity_fit.csv")
    assert any("QUALITY GATE FAILED" in c for c in comments)
    assert any("r_squared=nan" in c for c in comments)
    assert len(data) == 5
    assert _sha256((tmp_path / "capacity_fit.csv").read_bytes()) == \
        "e6a4ea8ac6571e96"


@pytest.mark.parametrize("text, message", [
    ("rho = 0.9\np = 1.5\nradii = 10, 100, 1000, 10000\nt_exponent = 50\n",
     "T^(rho+1) overflows"),
    ("sigma1 = 1e300\nradii = 2, 20, 200\nt_exponent = 1\n",
     "a capacity profile constant"),
    ("p = 1.0000001\nradii = 10, 100, 1000\n", "a capacity profile constant"),
    ("radii = 20, 200, 1e300\nt_exponent = 1\n", "powers of R and T"),
    ("sigma2 = -1.9999999\np = 1.0000001\nradii = 1e3, 1e4, 1e5\n"
     "log_case = true\n", "the log-cutoff capacity"),
], ids=["forcing-time-factor", "time-radial-power", "kappa-power",
        "huge-radius", "log-kappa-power"])
@pytest.mark.filterwarnings("error")
def test_overflowing_capacity_exits_4(tmp_path, capsys, text, message):
    # T = R^50 puts T^(rho+1) = 1e380 past the float range at R = 1e4; a
    # radial power 2e300, a kappa^kappa at p -> 1 or R^2 at R = 1e300 leave
    # it too, and each is reported as an overflow before a fit is written
    cfg = _write(tmp_path, "big.cfg", "N = 3\n" + text)
    rc = cli.main(["capacity-fit", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_NUMERICAL
    assert message in capsys.readouterr().err
    assert not (tmp_path / "capacity_fit.csv").exists()


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


@pytest.mark.filterwarnings("error")
def test_snapshots_closer_than_the_step_floor_exit_2(tmp_path, monkeypatch,
                                                     capsys):
    # t_end = 1e-20 puts all 9 snapshot times within the step floor
    # dt_min = 1e-10 of 0: one step would give them one field and a
    # residual of about 1e9, so it is a config error before any run
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")
    monkeypatch.setattr(cli, "integrate_nonlinear", no_run)
    demo = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                        "configs", "transform_check.cfg")
    with open(demo, encoding="utf-8") as fh:
        text = fh.read().replace("t_end = 0.5", "t_end = 1e-20")
    assert "t_end = 1e-20" in text
    cfg = _write(tmp_path, "close.cfg", text)
    rc = cli.main(["transform-check", "--config", cfg,
                   "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert "closer than the step floor" in capsys.readouterr().err
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


@pytest.mark.filterwarnings("error")
def test_overflowing_norm_exits_4_in_process(tmp_path, capsys):
    # the datum of the test above, run in process: an L^q norm of the run
    # overflows, and the solver names it without a numpy warning
    cfg = _write(tmp_path, "ovf.cfg", (
        "N = 3\nsigma1 = 0\nsigma2 = -0.1\nrho = -0.5\np = 3\n"
        "u0 = gaussian(0, 1, 1e120)\nw = zero\n"
        "grid_m = 64\nn_times = 8\n"))
    rc = cli.main(["mild-solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure: an L^" in err and "norm overflowed" in err


@pytest.mark.filterwarnings("error")
def test_unforced_closure_ignores_an_overflowing_forcing_power(tmp_path):
    # with w = zero the forcing term of the closure inequality is absent:
    # T^(rho + 1) at T = 1e10, rho = 50 overflows a float, and must not
    # decide the horizon nor escape as an OverflowError
    cfg = _write(tmp_path, "unforced.cfg", (
        "N = 2\nsigma1 = 0\nsigma2 = 0\nrho = 50\np = 2\nq = 4\n"
        "u0 = gaussian(0, 1, 0.5)\nw = zero\ngrid_m = 24\n"
        "grid_r_min = 0.03\ngrid_r_max = 10\nhorizon = 1e10\nn_times = 8\n"))
    rc = cli.main(["local-solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    comments, _ = _read_csv(str(tmp_path / "local_trajectory.csv"))
    assert "# existence horizon: T=1e+10 of guess 1e+10" in comments


@pytest.mark.filterwarnings("error")
def test_forced_horizon_whose_time_factor_overflows_exits_4(tmp_path):
    # T^(rho + 1) at the guess 1.4e154, rho = 1, is beyond the float range,
    # so the forcing constant C2 cannot be probed
    cfg = _write(tmp_path, "forced.cfg", (
        "N = 2\nsigma1 = 0\nsigma2 = 0\nrho = 1\np = 1.1\nq = 1.5\n"
        "u0 = gaussian(0, 1, 0.5)\nw = bump(1, 0.5)\ngrid_m = 24\n"
        "grid_r_min = 0.03\ngrid_r_max = 10\nhorizon = 1.4e154\n"
        "n_times = 8\n"))
    rc = cli.main(["local-solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_NUMERICAL


@pytest.mark.filterwarnings("error")
def test_nonzero_data_whose_probe_norms_underflow_exits_4(tmp_path):
    # the demo local-solve config at a horizon of 1e300: the L^4 norms of
    # the linear response underflow to 0 on the probe times, which must not
    # pass for zero data with a zero ball radius
    cfg = _write(tmp_path, "underflow.cfg", (
        "N = 3\nsigma1 = 0\nsigma2 = 0\nrho = 0\np = 2\nq = 4\n"
        "u0 = gaussian(0, 1, 0.5)\nw = bump(1, 0.5)\ngrid_m = 32\n"
        "grid_r_min = 0.03\nhorizon = 1e300\nn_times = 10\n"))
    rc = cli.main(["local-solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_NUMERICAL


@pytest.mark.parametrize("horizon", ["0", "-1"])
@pytest.mark.filterwarnings("error")
def test_nonpositive_horizon_exits_2(tmp_path, horizon):
    cfg = _write(tmp_path, "horizon.cfg", (
        "N = 2\nsigma1 = 0\nsigma2 = 0\nrho = 0\np = 1.5\nq = 2\n"
        "u0 = zero\nw = zero\ngrid_m = 16\ngrid_r_min = 0.5\n"
        "grid_r_max = 1\nhorizon = %s\n" % horizon))
    rc = cli.main(["local-solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG


@pytest.mark.filterwarnings("error")
def test_overflowing_reaction_is_a_rejected_step(tmp_path):
    # |u|^p overflows on every trial at p = 1e300; each trial is rejected
    # without a numpy warning, and too few snapshots remain for a residual
    cfg = _write(tmp_path, "power.cfg", (
        "N = 3\nsigma1 = -0.7\nsigma2 = -0.5\nrho = -0.5\np = 1e300\n"
        "u0 = gaussian(0, 1, 2)\ngrid_m = 32\ngrid_r_min = 0.03\n"
        "t_end = 0.05\n"))
    rc = cli.main(["transform-check", "--config", cfg,
                   "--out", str(tmp_path)])
    assert rc == cli.EXIT_NUMERICAL


@pytest.mark.parametrize("command, text", [
    ("semigroup-check", "N = 2\nsigma1 = 1e300\ngrid_m = 16\n"
                        "grid_r_min = 0.5\ngrid_r_max = 1\n"),
    ("semigroup-check", "N = 2\nsigma1 = 400\ngrid_m = 32\n"
                        "grid_r_min = 2\ngrid_r_max = 30\nt_lo = 1\n"
                        "t_hi = 10\nn_times = 5\n"),
    ("semigroup-check", "N = 2\nsigma1 = 207.5\ngrid_m = 32\n"
                        "grid_r_min = 2\ngrid_r_max = 30\nt_lo = 1\n"
                        "t_hi = 10\nn_times = 5\n"),
    ("transform-check", "N = 3\nsigma1 = -0.7\nsigma2 = 300\n"
                        "rho = -0.5\np = 3\n"),
    ("blowup-scan", "N = 3\nsigma2 = 300\nrho = -0.5\np = 2\n"
                    "amplitude = 1\n"),
], ids=["time-weight", "time-weight-underflow", "mass-weight-overflow",
        "reaction-weight", "scan-reaction-weight"])
@pytest.mark.filterwarnings("error")
def test_overflowing_grid_weight_exits_4(tmp_path, capsys, command, text):
    # r^(-s1) and r^(s2-s1) beyond the float range stop the run with a
    # numerical failure that names the weight, not with a numpy warning;
    # so does an r^(-s1) that underflows, or whose inverse times
    # r^(N-1) cells overflows, either of which would zero L on those nodes
    cfg = _write(tmp_path, "weight.cfg", text)
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_NUMERICAL
    assert "the grid weight r^(" in capsys.readouterr().err


SMALL_GRID = "grid_m = 16\ngrid_r_min = 0.5\ngrid_r_max = 1\n"


@pytest.mark.parametrize("command, text, code", [
    ("blowup-scan", "N = 2\nrho = 1e300\np = 2\namplitude = 1\n"
                    "t_max = 5\ndt_init = 0.05\np_lo = 1.5\np_hi = 3\n", 4),
    ("transform-check", "N = 2\nsigma1 = 1\nrho = 1e300\np = 2\n"
                        "u0 = zero\nw = zero\nt_end = 0.125\n", 4),
    ("local-solve", "N = 2\nrho = 1e300\np = 1.5\nq = 2\n"
                    "u0 = gaussian(0, 1, 1)\nw = bump(1, 1)\n", 4),
    ("local-solve", "N = 2\nrho = 1\np = 1.5\nq = 2\nu0 = zero\n"
                    "w = gaussian(0, 1, 1)\nhorizon = 1e300\n", 4),
    ("local-solve", "N = 2\np = 1.5\nq = 2\nw = zero\n"
                    "u0 = gaussian(1e300, 1, 0)\n", 0),
    ("mild-solve", "N = 2\nrho = -0.5\np = 3\nw = zero\n"
                   "u0 = powerlaw(1e300, 1)\n", 2),
    ("mild-solve", "N = 3\nrho = -0.999999999999\np = 3\n"
                   "u0 = gaussian(0, 1, 1e-3)\nw = bump(1, 1e-15)\n", 0),
    ("local-solve", "N = 2\nrho = -0.999999999999\np = 1.5\nq = 2\n"
                    "u0 = gaussian(0, 1, 1)\nw = bump(1, 1e-12)\n", 0),
    ("blowup-scan", "N = 2\nrho = -0.999999999999\np = 2\namplitude = 1\n"
                    "t_max = 5\ndt_init = 0.05\np_lo = 1.5\np_hi = 3\n", 4),
], ids=["scan-forcing-factor", "transport-factor", "probe-forcing-factor",
        "forced-horizon", "far-gaussian", "powerlaw-overflow",
        "mild-rho-near-minus-one", "local-rho-near-minus-one",
        "scan-rho-near-minus-one"])
@pytest.mark.filterwarnings("error")
def test_float_range_edges_keep_the_contract(tmp_path, command, text, code):
    # t^(rho+1) and Lambda^(-rho-1) at rho = 1e300, and T^(rho+1) at a
    # horizon of 1e300, leave the float range (exit 4, no OverflowError);
    # profiles far outside it sample to 0 or to a non-finite datum (exit 2)
    # without a numpy warning.  At rho = -1 + 1e-12 each step weight
    # int s^rho ds is (b^e - a^e) / e with e = 1e-12, where a difference of
    # powers cancels: small forcing still gives a solution (exit 0), and the
    # scan, which blows up at both ends of its p range, has no bracket
    cfg = _write(tmp_path, "edge.cfg", text + SMALL_GRID)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == code


@pytest.mark.parametrize("command, text", [
    ("transform-check", "N = 3\nrho = -0.5\nu0 = gaussian(0, 1, 1)\n"
                        "t_end = 1e300\n"),
    ("blowup-scan", "N = 3\nrho = -0.5\np = 2\namplitude = 1\n"
                    "t_max = 1e300\n"),
], ids=["transform-horizon", "scan-horizon"])
@pytest.mark.filterwarnings("error")
def test_horizon_beyond_the_step_budget_exits_4(tmp_path, capsys, command,
                                                text):
    # at most 256 dt_init a step (the top rung of the step ladder), a
    # horizon of 1e300 needs far more than the 10^6-step budget: the run
    # stops before its first step
    cfg = _write(tmp_path, "long.cfg", text + SMALL_GRID)
    start = time.perf_counter()
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path)])
    assert time.perf_counter() - start < 0.5
    assert rc == cli.EXIT_NUMERICAL
    assert "than the budget of 1000000" in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [
    ("transform-check", "N = 3\nsigma1 = -1\np = 3\nu0 = gaussian(0, 1, 0.5)\n"
                        "grid_m = 32\nn_snapshots = 3\nt_end = %s\n" % t)
    for t in ("1e-150", "1e-160", "1e-162", "1e-200", "1e-300", "5e-324")
] + [
    ("blowup-scan", "N = 3\nrho = -0.5\np_lo = 1.5\np_hi = 2.5\n"
                    "amplitude = 1\nt_max = 1e-200\ngrid_m = 32\n"),
], ids=["transform-1e-150", "transform-1e-160", "transform-1e-162",
        "transform-1e-200", "transform-1e-300", "transform-5e-324",
        "scan-1e-200"])
@pytest.mark.filterwarnings("error")
def test_tiny_horizon_keeps_the_contract(tmp_path, command, text):
    # steps below dt = 1e-150 square to a subnormal or to 0, which the
    # step controller's error constant e / dt^2 must survive
    cfg = _write(tmp_path, "tiny.cfg", text)
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path)])
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL)


def test_import_and_closed_form_commands_load_no_scipy(tmp_path):
    # scipy.linalg is bound at the first factorisation, and nothing else in
    # the package needs scipy: importing the CLI and running the two
    # commands that never solve must leave it unloaded
    demos = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                         "configs")
    script = (
        "import sys\n"
        "def loaded(): return sorted(m for m in sys.modules "
        "if m.startswith('scipy'))\n"
        "from fujitalab import cli\n"
        "print('scipy after import', loaded())\n"
        "for cmd in ('exponents', 'capacity-fit'):\n"
        "    cfg = '%s/' + cmd.replace('-', '_') + '.cfg'\n"
        "    assert cli.main([cmd, '--config', cfg, '--out', '%s']) == 0\n"
        "    print('scipy after', cmd, loaded())\n" % (demos, tmp_path))
    src = os.path.dirname(os.path.dirname(fujitalab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = [l for l in run.stdout.splitlines() if l.startswith("scipy")]
    assert lines == ["scipy after import []", "scipy after exponents []",
                     "scipy after capacity-fit []"], run.stdout


def test_cli_rejects_missing_command():
    assert cli.main([]) == cli.EXIT_CONFIG
