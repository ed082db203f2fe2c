import math
import os
from dataclasses import replace

import numpy as np
import pytest

from fujitalab import blowup, cli, radial, semigroup
from fujitalab.errors import NoBracket, NumericalFailure
from fujitalab.exponents import ProblemParams, critical_forced


def _params(p=2.0, rho=-0.5, s1=0.0, s2=0.0):
    return ProblemParams(N=3, sigma1=s1, sigma2=s2, rho=rho, p=p)


def _grid(m=384):
    return radial.RadialGrid.log_spaced(30.0, m, r_min=0.03)


def _forcing(grid, amp):
    fld = radial.field_from_callable(grid, radial.bump_profile(1.0, 1.0), 3.0)
    meas = grid.nodes ** 2 * grid.cell_widths()
    mass = float(np.sum(fld.values * meas)) * 4.0 * math.pi
    return fld.with_values(fld.values * (amp / mass))


# ---------------------------------------------------------------------------
# direct integrator
# ---------------------------------------------------------------------------

def test_zero_data_zero_forcing_stays_zero():
    g = _grid()
    u0 = radial.RadialField(g, np.zeros(g.m), 3.0)
    out = blowup.integrate_nonlinear(u0, None, _params(), blowup.BlowupConfig(t_max=2.0))
    assert out.status == blowup.GLOBAL
    assert out.max_norm == 0.0


@pytest.mark.filterwarnings("error")
def test_overflowing_trial_is_a_rejected_step():
    # |u|^3 of a 1e200 datum overflows every trial: each is rejected and
    # halved, four rungs down the ladder dt_init 2^(k/4), until dt_min,
    # with no numpy warning and no step taken
    g = _grid(64)
    u0 = radial.field_from_callable(g, radial.gaussian_profile(0, 1, 1e200),
                                    3.0)
    cfg = blowup.BlowupConfig(dt_init=1e-3, t_max=1.0, blowup_norm_cap=1e300)
    out = blowup.integrate_nonlinear(u0, None, _params(p=3.0), cfg)
    assert out.status == blowup.INCONCLUSIVE
    assert out.steps == 0 and out.t_end == 0.0
    assert out.min_dt == 1e-3 * 2.0 ** (-92 / 4)   # 1.19e-10, above dt_min


def test_attempted_steps_past_the_budget_raise_with_the_partial_outcome(
        monkeypatch):
    # the budget counts attempted steps, rejected ones included
    monkeypatch.setattr(blowup, "_STEP_BUDGET", 40)
    g = _grid()
    u0 = radial.RadialField(g, np.zeros(g.m), 3.0)
    cfg = blowup.BlowupConfig(dt_init=5e-3, t_max=50.0)
    with pytest.raises(NumericalFailure, match="budget of 40 steps") as info:
        blowup.integrate_nonlinear(u0, _forcing(g, 4.0), _params(p=1.5), cfg)
    partial = info.value.outcome
    assert partial.status == blowup.INCONCLUSIVE
    assert 0 < partial.steps <= 40 and 0.0 < partial.t_end < 50.0


def test_small_data_supercritical_is_global():
    g = _grid()
    u0 = radial.field_from_callable(g, radial.gaussian_profile(0.0, 1.0, 1e-3), 3.0)
    params = _params(p=3.0)
    out = blowup.integrate_nonlinear(u0, None, params, blowup.BlowupConfig(t_max=10.0))
    assert out.status == blowup.GLOBAL
    assert out.max_norm < 2e-3
    assert out.final_norm < 1e-3       # diffusion wins, the norm decays


def test_strong_forcing_subcritical_blows_up():
    g = _grid()
    u0 = radial.RadialField(g, np.zeros(g.m), 3.0)
    out = blowup.integrate_nonlinear(
        u0, _forcing(g, 4.0), _params(p=1.5),
        blowup.BlowupConfig(dt_init=5e-3, t_max=50.0))
    assert out.status == blowup.BLOWN_UP
    assert out.t_star is not None and 0.0 < out.t_star < 50.0
    assert out.max_norm >= 1e8


def test_blowup_time_decreases_with_amplitude():
    g = _grid()
    u0 = radial.RadialField(g, np.zeros(g.m), 3.0)
    cfg = blowup.BlowupConfig(dt_init=5e-3, t_max=50.0)
    params = _params(p=1.5)
    stars = []
    for amp in (2.0, 4.0, 8.0):
        out = blowup.integrate_nonlinear(u0, _forcing(g, amp), params, cfg)
        assert out.status == blowup.BLOWN_UP
        stars.append(out.t_star)
    assert stars[0] > stars[1] > stars[2]


def test_blowup_time_stable_under_step_refinement():
    g = _grid()
    u0 = radial.RadialField(g, np.zeros(g.m), 3.0)
    params = _params(p=1.5)
    w = _forcing(g, 4.0)
    coarse = blowup.integrate_nonlinear(
        u0, w, params, blowup.BlowupConfig(dt_init=5e-3, t_max=50.0))
    fine = blowup.integrate_nonlinear(
        u0, w, params, blowup.BlowupConfig(dt_init=2.5e-3, t_max=50.0))
    assert coarse.status == fine.status == blowup.BLOWN_UP
    assert abs(coarse.t_star - fine.t_star) / fine.t_star < 0.05


def _t_star(p, dt_init):
    g = _grid()
    u0 = radial.RadialField(g, np.zeros(g.m), 3.0)
    out = blowup.integrate_nonlinear(
        u0, _forcing(g, 4.0), _params(p=p),
        blowup.BlowupConfig(dt_init=dt_init, t_max=50.0))
    assert out.status == blowup.BLOWN_UP
    return out.t_star


def test_blowup_time_converges_at_first_order_in_dt_init():
    # The error estimate is the slope term of the source, of order dt^2,
    # held near tol = 2 dt_init: dt scales as dt_init^(1/2), and the
    # second-order step's error in t* as dt^2, that is as dt_init.  Ladder
    # rungs (2^(1/4) apart) and the discrete rejections scatter the ratio
    # of successive differences (0.5 to 1.4 across 2e-2 ... 3e-4), so the
    # order is a least-squares fit over four levels, within 0.3 of 1.
    # Measured: 1.09 against a reference at dt_init = 1.5625e-4, whose
    # own error (about 3e-3) is about 5% of the smallest difference.
    ref = _t_star(1.5, 1.5625e-4)
    levels = [2e-2, 1e-2, 5e-3, 2.5e-3]
    errors = [_t_star(1.5, h) - ref for h in levels]
    assert all(e > 0.0 for e in errors)      # late, and later when coarser
    order = np.polyfit(np.log(levels), np.log(errors), 1)[0]
    assert 0.7 < order < 1.3


@pytest.mark.parametrize("p, implicit_euler", [(1.5, 13.32), (1.75, 33.69)])
def test_blowup_time_at_the_demo_step_beats_implicit_euler(p, implicit_euler):
    # t* at the demo dt_init lies nearer a fine-step reference than the
    # implicit-Euler integrator's 13.32 and 33.69 did
    ref = _t_star(p, 3.125e-4)
    assert abs(_t_star(p, 5e-3) - ref) < abs(implicit_euler - ref)


def test_global_run_takes_few_steps_and_mostly_reuses_factors(monkeypatch):
    # the estimate stays small on a decaying solution, so dt climbs the
    # ladder two rungs or more at a time, and the factors of W - dt T are
    # rebuilt only when dt changes rung
    built = []
    original = semigroup.SemigroupOp.step_matrix_banded

    def counted(self, dt):
        built.append(dt)
        return original(self, dt)

    monkeypatch.setattr(semigroup.SemigroupOp, "step_matrix_banded", counted)
    g = _grid()
    u0 = radial.RadialField(g, np.zeros(g.m), 3.0)
    out = blowup.integrate_nonlinear(
        u0, _forcing(g, 4.0), _params(p=2.5),
        blowup.BlowupConfig(dt_init=5e-3, t_max=50.0))
    assert out.status == blowup.GLOBAL
    assert out.steps <= 150
    assert len(built) < out.steps / 2


def test_unweighted_blowup_has_the_type_one_rate():
    # Giga & Kohn (1985): with s1 = s2 = 0 the sup norm blows up like
    # (T* - t)^(-1/(p-1)), slope -2 at p = 1.5.  T* is the time the norm
    # passes the cap of 1e8, about 2e-4 before the blow-up itself, so
    # the slope flattens as T* - t nears that gap; the window 0.3 / 2^j,
    # j = 0..5, keeps that bias to a few percent.  Measured: -1.93, with
    # local slopes -1.91 ... -1.95; the band is 10% of the rate.
    g = _grid()
    u0 = radial.RadialField(g, np.zeros(g.m), 3.0)
    w = _forcing(g, 4.0)
    cfg = blowup.BlowupConfig(dt_init=5e-3, t_max=50.0)
    first = blowup.integrate_nonlinear(u0, w, _params(p=1.5), cfg)
    gaps = 0.3 * 0.5 ** np.arange(6)
    out = blowup.integrate_nonlinear(u0, w, _params(p=1.5), cfg,
                                     sample_times=first.t_star - gaps)
    assert out.status == blowup.BLOWN_UP and len(out.snapshots) == 6
    times = np.array([t for t, _ in out.snapshots])
    sups = [float(np.abs(f.values).max()) for _, f in out.snapshots]
    slope = np.polyfit(np.log(out.t_star - times), np.log(sups), 1)[0]
    assert -2.2 < slope < -1.8


def test_snapshots_taken_at_requested_times():
    g = _grid()
    u0 = radial.field_from_callable(g, radial.gaussian_profile(0.0, 1.0, 0.1), 3.0)
    times = [0.0, 0.25, 0.5]
    out = blowup.integrate_nonlinear(
        u0, None, _params(p=3.0), blowup.BlowupConfig(t_max=1.0),
        sample_times=times)
    got = [t for t, _ in out.snapshots]
    assert got == pytest.approx(times, abs=1e-9)


@pytest.mark.parametrize("times", [
    [1e-21, 2e-21, 3e-21],          # every time within the floor of 0
    [0.0, 0.25, 0.25 + 5e-11],      # two times within the floor of each other
    [0.5, 0.25, 0.25],              # a repeated time, requested out of order
], ids=["near-zero", "near-pair", "repeat"])
def test_snapshots_closer_than_the_step_floor_are_rejected(times,
                                                           monkeypatch):
    # a step is at least dt_min = 1e-10 long, so such times would all be
    # taken by one step and share its field: ValueError before any step
    def no_step(*args):
        raise AssertionError("a step was taken")
    monkeypatch.setattr(semigroup.SemigroupOp, "_step", no_step)
    g = _grid()
    u0 = radial.field_from_callable(g, radial.gaussian_profile(0.0, 1.0, 0.1), 3.0)
    with pytest.raises(ValueError, match="closer than the step floor"):
        blowup.integrate_nonlinear(u0, None, _params(p=3.0),
                                   blowup.BlowupConfig(t_max=1.0),
                                   sample_times=times)


def test_snapshots_one_step_floor_apart_hold_their_own_fields():
    # times exactly dt_min apart are kept, each with its own field
    g = _grid()
    u0 = radial.field_from_callable(g, radial.gaussian_profile(0.0, 1.0, 0.1), 3.0)
    cfg = blowup.BlowupConfig(dt_init=1e-3, dt_min=2.0 ** -20, t_max=1.0)
    times = [0.25, 0.25 + 2.0 ** -20, 0.5]
    assert cfg.snapshot_times(times + [2.0, 0.0]) == times
    out = blowup.integrate_nonlinear(u0, None, _params(p=3.0), cfg,
                                     sample_times=times)
    got = [t for t, _ in out.snapshots]
    assert got == pytest.approx(times, abs=1e-12)
    first, second = (f.values for _, f in out.snapshots[:2])
    assert not np.array_equal(first, second)


def test_norm_cap_must_exceed_initial_datum():
    g = _grid()
    u0 = radial.field_from_callable(g, radial.gaussian_profile(0.0, 1.0, 10.0), 3.0)
    with pytest.raises(ValueError):
        blowup.integrate_nonlinear(
            u0, None, _params(), blowup.BlowupConfig(blowup_norm_cap=5.0))


def test_config_validation():
    with pytest.raises(ValueError):
        blowup.BlowupConfig(dt_init=1e-12, dt_min=1e-10)
    with pytest.raises(ValueError):
        blowup.BlowupConfig(t_max=-1.0)


# ---------------------------------------------------------------------------
# threshold scan
# ---------------------------------------------------------------------------

def test_scan_brackets_the_critical_power():
    params = _params()
    cfg = blowup.BlowupConfig(dt_init=5e-3, t_max=50.0)
    amp = blowup.calibrate_amplitude(params, cfg)
    rep = blowup.scan_threshold(params, (1.25, 3.0), amp, cfg)
    lo, hi = rep.bracket
    assert hi - lo <= 0.25 + 1e-12
    assert rep.p_star_theory == pytest.approx(2.0)
    # endpoints of the bisection disagree in outcome
    by_p = {row.p: row.outcome for row in rep.rows}
    assert by_p[min(by_p)] == blowup.BLOWN_UP
    assert by_p[max(by_p)] == blowup.GLOBAL
    # the bracket sits near the predicted threshold
    assert lo < 2.0 + 0.25 and hi > 2.0 - 0.55
    assert "Finite-horizon" in rep.note


def test_scan_requires_a_sign_change():
    params = _params()
    cfg = blowup.BlowupConfig(dt_init=5e-3, t_max=20.0)
    with pytest.raises(NoBracket):
        blowup.scan_threshold(params, (2.5, 3.0), 0.01, cfg)


def test_scan_rejects_bad_range():
    with pytest.raises(ValueError):
        blowup.scan_threshold(_params(), (3.0, 2.0), 1.0,
                              blowup.BlowupConfig())


def test_scan_straddles_threshold_in_weighted_case():
    # the same machinery, with both weights on: the bracket must still
    # land around the predicted power
    params = ProblemParams(N=3, sigma1=-1.0, sigma2=-0.5, rho=-0.5, p=2.0)
    assert critical_forced(params) == pytest.approx(2.0)
    cfg = blowup.BlowupConfig(dt_init=5e-3, t_max=50.0)
    grid = _grid()
    amp = blowup.calibrate_amplitude(params, cfg, grid=grid)
    rep = blowup.scan_threshold(params, (1.25, 3.5), amp, cfg, grid=grid)
    lo, hi = rep.bracket
    assert lo - 0.3 < 2.0 < hi + 0.3


def test_calibration_fails_when_nothing_ignites():
    # a horizon so short that even the largest probe stays global; the
    # message names the horizon the probes ran, not the default target
    params = _params()
    cfg = blowup.BlowupConfig(dt_init=5e-3, t_max=0.01)
    with pytest.raises(NoBracket, match=r"up to 4096 ignited blow-up by "
                                        r"t=0\.01 at p=1\.5$"):
        blowup.calibrate_amplitude(params, cfg)


# demo tuple, then benchmark-domain tuples: p* - 1/2 = 1.2475 (two
# halvings, the longest ignition-to-cap stretch), 1.3896 (no halving) and
# 1.7062 (amplitude 8)
_CALIBRATION_TUPLES = [(0.0, 0.0, -0.5),
                       (0.245838, -0.296317, -0.569587),
                       (-0.200802, -0.157412, -0.59543),
                       (-0.187677, 0.253637, -0.479127)]


@pytest.mark.parametrize("s1, s2, rho", _CALIBRATION_TUPLES)
def test_calibration_reads_the_same_outcomes_at_the_full_cap(
        s1, s2, rho, monkeypatch):
    # a probe stops once its norm passes 1e3; run to the 1e8 cap it must
    # pick the same amplitude
    params = _params(s1=s1, s2=s2, rho=rho)
    cfg = blowup.BlowupConfig(dt_init=5e-3, t_max=50.0)
    amp = blowup.calibrate_amplitude(params, cfg)
    monkeypatch.setattr(blowup, "_IGNITION", 1e8)
    assert blowup.calibrate_amplitude(params, cfg) == amp


def test_calibration_runs_no_probe_twice(monkeypatch):
    # the igniting amplitude stays global at p* + 1/2, so nothing is
    # halved and p* - 1/2, which already blew up there, is not run again
    runs = []
    original = blowup.integrate_nonlinear

    def counted(u0, w, params, cfg, *args):
        runs.append((params.p, float(w.values.max())))
        return original(u0, w, params, cfg, *args)

    monkeypatch.setattr(blowup, "integrate_nonlinear", counted)
    s1, s2, rho = _CALIBRATION_TUPLES[2]
    params = _params(s1=s1, s2=s2, rho=rho)
    p_star = critical_forced(params)
    amp = blowup.calibrate_amplitude(
        params, blowup.BlowupConfig(dt_init=5e-3, t_max=50.0))
    assert amp == 4.0
    assert [p for p, _ in runs] == [p_star - 0.5] * 6 + [p_star + 0.5]
    assert len(set(runs)) == len(runs)


def test_scan_stops_when_the_bracket_reaches_float_spacing(monkeypatch):
    # a bracket_width below the float spacing of p cannot be met; the
    # bisection stops once the midpoint is an end of the bracket
    runs = []

    def instant(params, p, grid, w, cfg):
        runs.append(p)
        if len(runs) > 200:     # the run cap: fail instead of bisecting on
            raise RuntimeError("still bisecting after 200 runs")
        status = blowup.BLOWN_UP if p < 1.8 else blowup.GLOBAL
        return blowup.SolveOutcome(status, 1.0, 0.5, 1.0, 1.0, 1, 1.0)

    monkeypatch.setattr(blowup, "_run_at_p", instant)
    cfg = blowup.BlowupConfig(dt_init=5e-3, t_max=50.0)
    rep = blowup.scan_threshold(_params(), (1.25, 3.0), 1.0, cfg,
                                bracket_width=1e-300)
    assert len(runs) < 64
    lo, hi = rep.bracket
    assert lo < 1.8 <= hi and math.nextafter(lo, math.inf) == hi


@pytest.fixture(scope="module")
def demo_scan(tmp_path_factory):
    """The demo blowup-scan config through the CLI: (attempted steps, rows)."""
    attempts = []
    original = semigroup.SemigroupOp._step

    def counted(self, *args):
        attempts.append(None)
        return original(self, *args)

    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                       "configs", "blowup_scan.cfg")
    out = tmp_path_factory.mktemp("demo_scan")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semigroup.SemigroupOp, "_step", counted)
        assert cli.main(["blowup-scan", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "blowup_scan.csv").read_text(encoding="utf-8").splitlines()
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    return len(attempts), rows


def test_demo_scan_stays_within_its_step_budget(demo_scan):
    # every attempted IMEX step, rejected ones included, of the calibration
    # and the scan: 1,287 with the probes capped at 1e3, 1,628 when they
    # run to the scan's 1e8 cap
    assert demo_scan[0] <= 1300


def test_demo_scan_keeps_its_blowup_time(demo_scan):
    # the scan's own runs keep the full cap, so their t* does not move
    rows = {row[0]: row for row in demo_scan[1]}
    assert rows["1.25"][1:3] == ["BlownUp", "10.923880185931532"]


def test_scan_rows_serialize():
    assert blowup.SCAN_CSV_COLUMNS == ["p", "outcome", "t_star_or_Tmax", "max_norm"]
    row = blowup.ScanRow(p=2.0, outcome=blowup.GLOBAL,
                         t_star_or_tmax=50.0, max_norm=0.5)
    assert row.outcome == "Global"
