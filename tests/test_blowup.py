import math
from dataclasses import replace

import numpy as np
import pytest

from fujitalab import blowup, radial
from fujitalab.errors import NoBracket
from fujitalab.exponents import ProblemParams, critical_forced


def _params(p=2.0, rho=-0.5, s1=0.0, s2=0.0):
    return ProblemParams(N=3, sigma1=s1, sigma2=s2, rho=rho, p=p)


def _grid(s1=0.0, m=384):
    return radial.RadialGrid.log_spaced(30.0, m, r_min=0.03, sigma1=s1)


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
    assert not out.blew_up


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


def test_snapshots_taken_at_requested_times():
    g = _grid()
    u0 = radial.field_from_callable(g, radial.gaussian_profile(0.0, 1.0, 0.1), 3.0)
    times = [0.0, 0.25, 0.5]
    out = blowup.integrate_nonlinear(
        u0, None, _params(p=3.0), blowup.BlowupConfig(t_max=1.0),
        sample_times=times)
    got = [t for t, _ in out.snapshots]
    assert got == pytest.approx(times, abs=1e-9)


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
    grid = _grid(s1=-1.0)
    amp = blowup.calibrate_amplitude(params, cfg, grid=grid)
    rep = blowup.scan_threshold(params, (1.25, 3.5), amp, cfg, grid=grid)
    lo, hi = rep.bracket
    assert lo - 0.3 < 2.0 < hi + 0.3


def test_calibration_fails_when_nothing_ignites():
    # cap the doublings so even the largest probe stays global
    params = _params()
    cfg = blowup.BlowupConfig(dt_init=5e-3, t_max=50.0)
    with pytest.raises(NoBracket):
        blowup.calibrate_amplitude(params, cfg, t_target=0.05,
                                   amp_start=1e-6, max_doublings=3)


def test_scan_rows_serialize():
    assert blowup.SCAN_CSV_COLUMNS == ["p", "outcome", "t_star_or_Tmax", "max_norm"]
    row = blowup.ScanRow(p=2.0, outcome=blowup.GLOBAL,
                         t_star_or_tmax=50.0, max_norm=0.5)
    assert row.outcome == "Global"
