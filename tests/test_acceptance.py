"""End-to-end acceptance checks for every shipped claim.

Each test prints one ``[nn] PASS/FAIL`` line with the measured quantity
next to its tolerance (run with -s to see them all), then asserts.  The
log-cutoff criterion (09) checks its decay law on R in [1e100, 1e300],
the far end of the float range: the capacity approaches its asymptotic
log-power only for astronomically large R.  Its pre-asymptotic behaviour
on desk-scale radii is pinned separately, by the log-fit tests in
test_capacity.py and the exit-4 test in test_cli.py.  See the capacity
module docstring and the README.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fujitalab import blowup, capacity, mild, radial, semigroup
from fujitalab import exponents
from fujitalab.exponents import ProblemParams, critical_forced

from conftest import sample_supercritical_tuples


def _verdict(num, ok, detail):
    print("[%02d] %s %s" % (num, "PASS" if ok else "FAIL", detail))
    return ok


def _rel(a, b):
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


# ---------------------------------------------------------------------------
# 01: exponent identity suite
# ---------------------------------------------------------------------------

def test_01_exponent_identities():
    t0 = time.perf_counter()
    tuples = sample_supercritical_tuples(20260819, 10_000)
    worst_id = 0.0
    bounds_ok = True
    for prm in tuples:
        lo, hi = exponents.r_window(prm)
        # the raw window may protrude below 1/r = 0; usable exponents
        # live in its intersection with r in (1, inf)
        lo, hi = max(lo, 0.0), min(hi, 1.0)
        if not lo < hi:
            bounds_ok = False
            break
        for frac in (0.25, 0.5, 0.75):
            inv_r = lo + frac * (hi - lo)
            wts = exponents.derived_weights(prm, 1.0 / inv_r)
            bounds_ok &= 0.0 < wts.mu < 1.0 / prm.p
            bounds_ok &= 0.0 < wts.beta < 1.0
            bounds_ok &= 0.0 < wts.delta < 1.0
            lhs = 1.0 - prm.p * wts.mu - wts.delta
            worst_id = max(worst_id,
                           _rel(lhs, -wts.mu),
                           _rel(prm.rho + 1.0 - wts.beta, -wts.mu),
                           _rel(wts.delta, 1.0 - (prm.p - 1.0) * wts.mu))
    elapsed = time.perf_counter() - t0
    ok = bounds_ok and worst_id <= 1e-12 and elapsed < 5.0
    assert _verdict(1, ok,
                    "10^4 tuples, 3 window points each: bounds %s, worst "
                    "identity residual %.2e (tol 1e-12), %.2fs (budget 5s)"
                    % ("hold" if bounds_ok else "VIOLATED", worst_id, elapsed))


# ---------------------------------------------------------------------------
# 02: unweighted and unforced special cases
# ---------------------------------------------------------------------------

def test_02_special_cases():
    rng = np.random.default_rng(20260819)
    worst_ulp = 0.0
    n_finite = n_infinite = 0
    for _ in range(100):
        n = int(rng.integers(2, 12))
        rho = float(rng.uniform(-0.95, 2.0))
        prm = ProblemParams(N=n, sigma1=0.0, sigma2=0.0, rho=rho, p=2.0)
        got = critical_forced(prm)
        den = n - 2.0 * rho - 2.0
        if den > 0.0:
            want = (n - 2.0 * rho) / den
            worst_ulp = max(worst_ulp, abs(got - want) / math.ulp(want))
            n_finite += 1
        else:
            assert math.isinf(got)
            n_infinite += 1

    flat = ProblemParams(N=2, sigma1=0.0, sigma2=0.0, rho=0.0, p=2.0)
    two_d_inf = math.isinf(critical_forced(flat))

    indep = True
    for n in (3, 4, 5, 7):
        want = n / (n - 2.0)
        vals = {critical_forced(ProblemParams(N=n, sigma1=s1, sigma2=0.0,
                                              rho=0.0, p=2.0))
                for s1 in (0.0, -0.5, -1.0, -1.5, -1.9)}
        indep &= len(vals) == 1
        got = vals.pop()
        worst_ulp = max(worst_ulp, abs(got - want) / math.ulp(want))

    ok = worst_ulp <= 2.0 and two_d_inf and indep
    assert _verdict(2, ok,
                    "100 samples (%d finite, %d infinite), worst %.1f ulp "
                    "(tol 2); N=2 rho=0 infinite: %s; sigma1-independence: %s"
                    % (n_finite, n_infinite, worst_ulp, two_d_inf, indep))


# ---------------------------------------------------------------------------
# 03: threshold quadratic negative above the critical power
# ---------------------------------------------------------------------------

def test_03_threshold_quadratic():
    t0 = time.perf_counter()
    tuples = sample_supercritical_tuples(31337, 100)
    worst_val = -math.inf
    worst_closed = 0.0
    for prm in tuples:
        p_star = critical_forced(prm)
        for p in p_star * (1.0 + np.linspace(0.0, 4.0, 1000)):
            worst_val = max(worst_val, exponents.quadratic_f(prm, float(p)))
        # the polynomial's monomials cancel almost completely at the
        # threshold, so agreement is measured against their magnitude;
        # that is the scale double precision can certify
        rho_a = prm.rho * prm.diffusion_depth
        scale = (abs(rho_a) * p_star ** 2
                 + abs(prm.N - 2.0 + rho_a) * p_star
                 + prm.N + prm.sigma2)
        gap = abs(exponents.quadratic_f_at_critical(prm)
                  - exponents.quadratic_f(prm, p_star))
        worst_closed = max(worst_closed, gap / scale)
    elapsed = time.perf_counter() - t0
    ok = worst_val < 0.0 and worst_closed <= 1e-12 and elapsed < 5.0
    assert _verdict(3, ok,
                    "100 tuples x 1000 powers: max f = %.3e (< 0), closed "
                    "form residual %.2e (tol 1e-12), %.2fs (budget 5s)"
                    % (worst_val, worst_closed, elapsed))


# ---------------------------------------------------------------------------
# 04: linear smoothing decay rates
# ---------------------------------------------------------------------------

def test_04_smoothing_slopes():
    t0 = time.perf_counter()
    times = np.geomspace(1.0, 10.0, 9)
    worst = 0.0
    label = []
    for s1 in (0.0, -0.5, -1.0):
        # r_max = 80: the borderline power-law data carry heavy tails,
        # and the deepest weight diffuses to r ~ t by time 10
        g = radial.RadialGrid.log_spaced(80.0, 1024)
        op = semigroup.SemigroupOp(
            g, ProblemParams(N=3, sigma1=s1, sigma2=0.0, rho=0.0, p=2.0))
        for (a, b) in ((2.0, 4.0), (2.0, 6.0), (3.0, 6.0)):
            src = radial.field_from_callable(
                g, radial.powerlaw_profile(3.0 / a), 3.0)
            fit = semigroup.smoothing_slope(op, a, b, src, times)
            worst = max(worst, fit.relative_error)
            label.append("s1=%g (%g,%g): %.1f%%"
                         % (s1, a, b, 100.0 * fit.relative_error))
    elapsed = time.perf_counter() - t0
    ok = worst < 0.10 and elapsed < 120.0
    assert _verdict(4, ok,
                    "9 fits, worst slope error %.1f%% (tol 10%%), %.1fs "
                    "(budget 120s)" % (100.0 * worst, elapsed)), label


# ---------------------------------------------------------------------------
# 05: smoothing with a singular spatial weight
# ---------------------------------------------------------------------------

def test_05_weighted_smoothing():
    t0 = time.perf_counter()
    g = radial.RadialGrid.log_spaced(40.0, 1024)
    op = semigroup.SemigroupOp(
        g, ProblemParams(N=3, sigma1=0.0, sigma2=0.0, rho=0.0, p=2.0))
    src = radial.field_from_callable(g, radial.powerlaw_profile(1.5), 3.0)
    times = np.geomspace(1.0, 10.0, 9)
    worst = 0.0
    details = []
    for gamma in (0.5, 1.0):
        fit = semigroup.weighted_smoothing_check(op, 2.0, 4.0, gamma, src, times)
        want = -(3.0 / 2.0) * (1.0 / 2.0 - 1.0 / 4.0) - gamma / 2.0
        assert fit.theory == pytest.approx(want, rel=1e-12)
        worst = max(worst, fit.relative_error)
        details.append("gamma=%g: fitted %.4f vs %.4f" % (gamma, fit.fitted, want))
    elapsed = time.perf_counter() - t0
    ok = worst < 0.10 and elapsed < 120.0
    assert _verdict(5, ok,
                    "%s; worst error %.1f%% (tol 10%%), %.1fs (budget 120s)"
                    % ("; ".join(details), 100.0 * worst, elapsed))


# ---------------------------------------------------------------------------
# 06: dilation covariance of the weighted semigroup
# ---------------------------------------------------------------------------

def test_06_dilation_covariance():
    t0 = time.perf_counter()
    details = []
    ok = True
    for s1 in (0.0, -1.0):
        prm = ProblemParams(N=3, sigma1=s1, sigma2=0.0, rho=0.0, p=2.0)

        def disc(m, r_min):
            g = radial.RadialGrid.log_commensurate(30.0, m, lam=2.0,
                                                   r_min=r_min)
            op = semigroup.SemigroupOp(g, prm)
            src = radial.field_from_callable(
                g, radial.gaussian_profile(0.0, 1.0, 1.0), 3.0)
            return semigroup.scaling_identity_check(op, 2.0, 0.1, src)

        coarse = disc(2048, 2e-3)
        fine = disc(4096, 1e-3)
        ok &= coarse < 1e-3 and fine < 0.5 * coarse
        details.append("s1=%g: %.2e -> %.2e (ratio %.2f)"
                       % (s1, coarse, fine, fine / coarse))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    assert _verdict(6, ok,
                    "%s; tol 1e-3 with halving, %.1fs (budget 60s)"
                    % ("; ".join(details), elapsed))


# ---------------------------------------------------------------------------
# 07: weighted mass conservation
# ---------------------------------------------------------------------------

def test_07_mass_conservation():
    worst = 0.0
    for s1 in (0.0, -1.0):
        g = radial.RadialGrid.log_spaced(50.0, 1024)
        op = semigroup.SemigroupOp(
            g, ProblemParams(N=3, sigma1=s1, sigma2=0.0, rho=0.0, p=2.0))
        fld = radial.field_from_callable(g, radial.bump_profile(1.0, 1.0), 3.0)
        m0 = radial.weighted_integral(fld, weight=s1)
        m1 = radial.weighted_integral(op.apply(fld, 1.0), weight=s1)
        worst = max(worst, abs(m1 - m0) / abs(m0))
    ok = worst < 1e-6
    assert _verdict(7, ok,
                    "bump support 1 on r_max=50 grid: worst relative drift "
                    "%.2e over unit time (tol 1e-6)" % worst)


# ---------------------------------------------------------------------------
# 08: capacity slope fits
# ---------------------------------------------------------------------------

def test_08_capacity_fits():
    t0 = time.perf_counter()
    radii = (10.0, 30.0, 100.0, 300.0, 1000.0)

    sub = ProblemParams(N=3, sigma1=0.0, sigma2=0.0, rho=-0.5, p=1.5)
    rep = capacity.capacity_exponent_fit(sub, radii)   # balanced: T = R^2
    sub_err = max(abs(rep.time_fit.fitted + 2.0),
                  abs(rep.space_fit.fitted + 2.0)) / 2.0
    sub_r2 = min(rep.time_fit.r_squared, rep.space_fit.r_squared)

    forced = ProblemParams(N=3, sigma1=0.0, sigma2=0.0, rho=1.0, p=2.0)
    rep2 = capacity.capacity_exponent_fit(forced, radii, t_exponent=3.0)
    f_err = max(abs(rep2.time_fit.fitted - rep2.time_fit.theory) / 6.0,
                abs(rep2.space_fit.fitted - rep2.space_fit.theory) / 4.0)

    elapsed = time.perf_counter() - t0
    ok = (sub_err <= 0.05 and sub_r2 >= 0.99
          and rep.nonexistence_predicted
          and rep2.slopes_negative
          and rep2.time_fit.theory == pytest.approx(-6.0)
          and rep2.space_fit.theory == pytest.approx(-4.0)
          and f_err <= 0.05 and elapsed < 60.0)
    assert _verdict(8, ok,
                    "subcritical slopes %.4f/%.4f vs -2 (err %.2f%%, R^2 "
                    "%.6f); forced-coupling slopes %.3f/%.3f vs -6/-4 "
                    "(err %.2f%%); %.1fs (budget 60s)"
                    % (rep.time_fit.fitted, rep.space_fit.fitted,
                       100.0 * sub_err, sub_r2, rep2.time_fit.fitted,
                       rep2.space_fit.fitted, 100.0 * f_err, elapsed))


# ---------------------------------------------------------------------------
# 09: log-cutoff decay at the critical power, on R in [1e100, 1e300]
# (L = log sqrt(R) from 115 to 345), where the (log R)^theory law holds;
# on desk-scale radii the slope is still pre-asymptotic (test_capacity.py)
# ---------------------------------------------------------------------------

def test_09_log_cutoff_critical_decay():
    prm = ProblemParams(N=4, sigma1=0.0, sigma2=0.0, rho=0.0, p=2.0)
    radii = np.geomspace(1e100, 1e300, 9)
    fit = capacity.log_capacity_fit(prm, radii).fit
    err = abs(fit.fitted - fit.theory) / abs(fit.theory)
    ok = err <= 0.10
    _verdict(9, ok,
             "log(log R)-slope %.4f vs theory %.1f on R in [1e100, 1e300]: "
             "error %.1f%% (tol 10%%), R^2 %.6f"
             % (fit.fitted, fit.theory, 100.0 * err, fit.r_squared))
    assert ok, (
        "on R in [1e100, 1e300] (log sqrt(R) from 115 to 345) the "
        "log-cutoff capacity should decay like (log R)^%.1f to within "
        "10%%; the measured slope is %.3f" % (fit.theory, fit.fitted))


# ---------------------------------------------------------------------------
# 10: small-data contraction certificate
# ---------------------------------------------------------------------------

def test_10_contraction_certificate():
    t0 = time.perf_counter()
    prm = ProblemParams(N=3, sigma1=0.0, sigma2=-0.1, rho=-0.5, p=3.0)
    g = radial.RadialGrid.log_spaced(30.0, 512, r_min=0.03)
    u0 = radial.field_from_callable(
        g, radial.gaussian_profile(0.0, 1.0, 1e-3), 3.0)
    w = radial.field_from_callable(g, radial.bump_profile(1.0, 1e-3), 3.0)
    cfg = mild.MildConfig(t_max=2.0, n_times=32)
    sol = mild.solve_global_small(u0, w, prm, cfg)

    ratios_ok = sol.converged and all(r < 0.5 for r in sol.ratios)
    again = mild.picard_step(sol.trajectory, u0, w, prm, cfg)
    resid = mild.x_distance(again, sol.trajectory, sol.mu, sol.r)

    idx = np.linspace(3, len(sol.trajectory.times) - 1, 5).astype(int)
    stops = [float(sol.trajectory.times[i]) for i in idx]
    direct = blowup.integrate_nonlinear(
        u0, w, prm, blowup.BlowupConfig(dt_init=5e-4, t_max=2.0),
        sample_times=stops)
    snaps = dict(direct.snapshots)
    worst = 0.0
    for i, t in zip(idx, stops):
        row = radial.RadialField(g, sol.trajectory.values[i], 3.0)
        ours = radial.lq_norm(row, sol.r)
        ref = radial.lq_norm(snaps[t], sol.r)
        worst = max(worst, abs(ours - ref) / ref)
    elapsed = time.perf_counter() - t0
    ok = (ratios_ok and resid < 2.0 * cfg.picard_tol and worst < 0.02
          and elapsed < 300.0)
    assert _verdict(10, ok,
                    "ratios max %.2e (< 0.5), fixed-point residual %.1e "
                    "(tol %.0e), direct-march agreement %.2f%% at 5 times "
                    "(tol 2%%), %.1fs (budget 300s)"
                    % (max(sol.ratios), resid, 2.0 * cfg.picard_tol,
                       100.0 * worst, elapsed))


# ---------------------------------------------------------------------------
# 11: blow-up/global dichotomy scan
# ---------------------------------------------------------------------------

def test_11_threshold_scan():
    t0 = time.perf_counter()
    prm = ProblemParams(N=3, sigma1=0.0, sigma2=0.0, rho=-0.5, p=2.0)
    cfg = blowup.BlowupConfig(dt_init=5e-3, t_max=50.0)
    amp = blowup.calibrate_amplitude(prm, cfg)
    rep = blowup.scan_threshold(prm, (1.25, 3.0), amp, cfg)
    lo, hi = rep.bracket
    elapsed = time.perf_counter() - t0
    ok = (hi - lo <= 0.5
          and lo <= 2.25 and hi >= 1.75       # overlaps 2 +- 0.25
          and "Finite-horizon" in rep.note
          and elapsed < 900.0)
    assert _verdict(11, ok,
                    "amplitude %g, bracket (%.4f, %.4f) width %.4f (tol "
                    "0.5) around predicted 2, limitation noted: %s, %.1fs "
                    "(budget 900s)"
                    % (amp, lo, hi, hi - lo, "Finite-horizon" in rep.note,
                       elapsed))


# ---------------------------------------------------------------------------
# 12: local existence window with continuous trace
# ---------------------------------------------------------------------------

def test_12_local_existence():
    prm = ProblemParams(N=3, sigma1=0.0, sigma2=0.0, rho=0.0, p=2.0)
    g = radial.RadialGrid.log_spaced(30.0, 512, r_min=0.03)
    u0 = radial.field_from_callable(
        g, radial.gaussian_profile(0.0, 1.0, 0.5), 3.0)
    w = radial.field_from_callable(g, radial.bump_profile(1.0, 0.5), 3.0)
    sol = mild.solve_local_Lq(u0, w, prm, q=4.0, horizon_guess=2.0)

    idx = np.linspace(2, len(sol.trajectory.times) - 1, 5).astype(int)
    stops = [float(sol.trajectory.times[i]) for i in idx]
    direct = blowup.integrate_nonlinear(
        u0, w, prm, blowup.BlowupConfig(dt_init=5e-4, t_max=sol.t_end),
        sample_times=stops)
    snaps = dict(direct.snapshots)
    worst = 0.0
    for i, t in zip(idx, stops):
        row = radial.RadialField(g, sol.trajectory.values[i], 3.0)
        ours = radial.lq_norm(row, 4.0)
        ref = radial.lq_norm(snaps[t], 4.0)
        worst = max(worst, abs(ours - ref) / ref)

    ok = (sol.converged and sol.t_end > 0.0
          and sol.continuity_jump < 5.0 * sol.scheme_tol
          and worst < 0.02)
    assert _verdict(12, ok,
                    "T = %.4f > 0, trace jump %.4f vs 5x scheme tol %.4f, "
                    "direct-march agreement %.2f%% at 5 times (tol 2%%)"
                    % (sol.t_end, sol.continuity_jump,
                       5.0 * sol.scheme_tol, 100.0 * worst))
