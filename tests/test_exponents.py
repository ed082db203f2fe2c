import math
from dataclasses import replace

import numpy as np
import pytest

from fujitalab import exponents as ex
from fujitalab.errors import (EmptyWindow, HypothesisViolation, Inadmissible,
                              WindowViolation)

from conftest import sample_supercritical_tuples


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_valid_tuple_passes():
    p = ex.ProblemParams(N=3, sigma1=-0.5, sigma2=-1.0, rho=-0.25, p=2.5)
    assert ex.validate(p) == []
    ex.require_valid(p)


@pytest.mark.parametrize("kwargs", [
    dict(N=1),
    dict(sigma1=-2.0),
    dict(sigma2=-2.5),
    dict(rho=-1.0),
    dict(p=1.0),
    dict(p=0.5),
    dict(sigma1=math.inf),
    dict(p=math.inf),
    dict(N=math.inf),
])
def test_invalid_tuples_raise(kwargs):
    base = dict(N=3, sigma1=0.0, sigma2=0.0, rho=0.0, p=2.0)
    base.update(kwargs)
    with pytest.raises(HypothesisViolation):
        ex.require_valid(ex.ProblemParams(**base))


def test_diffusion_depth():
    p = ex.ProblemParams(N=4, sigma1=-0.5, sigma2=0.0, rho=0.0, p=2.0)
    assert p.diffusion_depth == 1.5


# ---------------------------------------------------------------------------
# closed forms on hand-checked tuples
# ---------------------------------------------------------------------------

def test_reference_tuple_exponents():
    # N=3, no weights, rho=-1/2: every threshold is rational
    p = ex.ProblemParams(N=3, sigma1=0.0, sigma2=0.0, rho=-0.5, p=3.0)
    assert ex.fujita_first(p) == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert ex.fujita_second(p) == pytest.approx(1.0, rel=1e-15)
    assert ex.scaling_index(p) == pytest.approx(3.0, rel=1e-15)
    assert ex.critical_forced(p) == pytest.approx(2.0, rel=1e-15)
    assert ex.forcing_index(p) == pytest.approx(1.5, rel=1e-15)


def test_degenerate_tuple_exponents():
    # weighted case: A = 1, rho*A = -1/2
    p = ex.ProblemParams(N=3, sigma1=-1.0, sigma2=-0.5, rho=-0.5, p=2.5)
    assert p.diffusion_depth == 1.0
    # (N + s2 - rho*A) / (N - 2 - rho*A) = 3.0 / 1.5
    assert ex.critical_forced(p) == pytest.approx(2.0, rel=1e-15)
    assert ex.fujita_first(p) == pytest.approx(1.0 + 1.5 / 2.0, rel=1e-15)


def test_critical_forced_infinite_when_denominator_closes():
    p = ex.ProblemParams(N=2, sigma1=0.0, sigma2=0.0, rho=0.0, p=2.0)
    assert math.isinf(ex.critical_forced(p))
    # positive rho can close the denominator in any dimension
    p = ex.ProblemParams(N=4, sigma1=0.0, sigma2=0.0, rho=1.5, p=2.0)
    assert math.isinf(ex.critical_forced(p))


def test_unweighted_special_case_formula():
    # sigma1 = sigma2 = 0 collapses the threshold to (N-2rho)/(N-2rho-2)
    for n in (3, 4, 5):
        for rho in (-0.5, -0.25, 0.25):
            p = ex.ProblemParams(N=n, sigma1=0.0, sigma2=0.0, rho=rho, p=2.0)
            got = ex.critical_forced(p)
            want = (n - 2.0 * rho) / (n - 2.0 * rho - 2.0)
            assert got == pytest.approx(want, rel=1e-14)


def test_threshold_independent_of_degeneracy_when_rho_zero():
    # sigma2 = 0, rho = 0: threshold is N/(N-2) no matter the u_t weight
    vals = set()
    for s1 in (0.0, -0.5, -1.0, -1.5):
        p = ex.ProblemParams(N=3, sigma1=s1, sigma2=0.0, rho=0.0, p=2.0)
        vals.add(ex.critical_forced(p))
    assert vals == {3.0}


# ---------------------------------------------------------------------------
# the sign certificate quadratic
# ---------------------------------------------------------------------------

def test_quadratic_matches_polynomial_evaluation():
    p = ex.ProblemParams(N=3, sigma1=-0.5, sigma2=-1.0, rho=-0.25, p=2.5)
    rho_a = p.rho * p.diffusion_depth
    direct = rho_a * 2.5 ** 2 - (3.0 - 2.0 + rho_a) * 2.5 + (3.0 - 1.0)
    assert ex.quadratic_f(p) == pytest.approx(direct, rel=1e-15)


def test_quadratic_negative_above_threshold():
    for params in sample_supercritical_tuples(seed=7071, count=50):
        p_star = ex.critical_forced(params)
        for frac in (1.0, 1.5, 3.0, 10.0):
            assert ex.quadratic_f(params, p_star * frac) < 0.0


def test_quadratic_closed_form_at_threshold():
    for params in sample_supercritical_tuples(seed=11, count=200):
        closed = ex.quadratic_f_at_critical(params)
        direct = ex.quadratic_f(params, ex.critical_forced(params))
        assert closed < 0.0
        assert abs(closed - direct) <= 1e-12 * max(1.0, abs(closed))


def test_quadratic_closed_form_rejects_infinite_threshold():
    p = ex.ProblemParams(N=2, sigma1=0.0, sigma2=0.0, rho=0.0, p=2.0)
    with pytest.raises(HypothesisViolation):
        ex.quadratic_f_at_critical(p)


# ---------------------------------------------------------------------------
# admissible window and decay weights
# ---------------------------------------------------------------------------

def test_reference_window_and_weights():
    p = ex.ProblemParams(N=3, sigma1=0.0, sigma2=0.0, rho=-0.5, p=3.0)
    lo, hi = ex.r_window(p)
    # window in 1/r coordinates is (1/9, 1/3): r may sit in (3, 9)
    assert lo == pytest.approx(1.0 / 9.0, rel=1e-14)
    assert hi == pytest.approx(1.0 / 3.0, rel=1e-14)
    r = ex.default_r(p)
    assert r == pytest.approx(4.5, rel=1e-14)
    w = ex.derived_weights(p, r)
    assert w.mu == pytest.approx(1.0 / 6.0, rel=1e-13)
    assert w.beta == pytest.approx(2.0 / 3.0, rel=1e-13)
    assert w.delta == pytest.approx(2.0 / 3.0, rel=1e-13)


def test_weight_identities_hold_in_bulk():
    for params in sample_supercritical_tuples(seed=23, count=400):
        w = ex.derived_weights(params)
        p = params.p
        assert 0.0 < w.mu < 1.0 / p
        assert 0.0 < w.beta < 1.0
        assert 0.0 < w.delta < 1.0
        lhs = 1.0 - p * w.mu - w.delta
        assert abs(lhs - (-w.mu)) <= 1e-12 * max(1.0, abs(w.mu))
        assert abs((-w.mu) - (params.rho + 1.0 - w.beta)) <= 1e-12
        assert abs(w.delta - (1.0 - (p - 1.0) * w.mu)) <= 1e-12


def test_window_empty_below_threshold():
    p = ex.ProblemParams(N=3, sigma1=0.0, sigma2=0.0, rho=-0.5, p=1.5)
    with pytest.raises(EmptyWindow):
        ex.r_window(p)


def test_weights_reject_r_outside_window():
    p = ex.ProblemParams(N=3, sigma1=0.0, sigma2=0.0, rho=-0.5, p=3.0)
    with pytest.raises(WindowViolation):
        ex.derived_weights(p, 2.0)     # 1/r = 0.5 > hi
    with pytest.raises(WindowViolation):
        ex.derived_weights(p, 20.0)    # 1/r = 0.05 < lo
    with pytest.raises(WindowViolation):
        ex.derived_weights(p, 0.5)     # r <= 1 never carries an L^r theory


def test_default_r_clips_window_to_usable_exponents():
    # large p pushes the window floor below zero; the midpoint must still
    # produce a finite r > 1 inside the clipped window
    p = ex.ProblemParams(N=5, sigma1=-0.2, sigma2=-0.4, rho=-0.3, p=12.0)
    r = ex.default_r(p)
    assert r > 1.0
    ex.derived_weights(p, r)


# ---------------------------------------------------------------------------
# local-theory admissibility
# ---------------------------------------------------------------------------

def test_local_alpha_reference_value():
    p = ex.ProblemParams(N=3, sigma1=0.0, sigma2=0.0, rho=0.0, p=2.0)
    assert ex.local_alpha(p, 4.0) == pytest.approx(0.375, rel=1e-15)


def test_local_admissibility_inequalities():
    p = ex.ProblemParams(N=3, sigma1=0.0, sigma2=0.0, rho=0.0, p=2.0)
    assert ex.local_q_admissible(p, 4.0)
    assert not ex.local_q_admissible(p, 1.5)   # q < p
    ex.require_admissible_q(p, 4.0)
    with pytest.raises(Inadmissible) as info:
        ex.require_admissible_q(p, 1.5)
    assert "q=1.5" in str(info.value)


def test_local_alpha_below_one_iff_admissible_kernel():
    for params in sample_supercritical_tuples(seed=37, count=100):
        n, p = params.N, params.p
        q_edge = n * (p - 1.0) / (2.0 + params.sigma2)
        q = max(q_edge, n * p / (n + params.sigma2), p) * 1.1
        assert ex.local_q_admissible(params, q)
        assert ex.local_alpha(params, q) < 1.0


# ---------------------------------------------------------------------------
# regime classification and report assembly
# ---------------------------------------------------------------------------

def test_regime_classification_branches():
    mk = lambda **kw: ex.ProblemParams(**kw)
    assert ex.classify_regime(
        mk(N=3, sigma1=0.0, sigma2=0.0, rho=0.5, p=5.0)
    ) is ex.Regime.NO_GLOBAL_RHO_POSITIVE
    assert ex.classify_regime(
        mk(N=3, sigma1=0.0, sigma2=0.0, rho=0.0, p=2.5)
    ) is ex.Regime.NO_GLOBAL_CRITICAL_RHO_ZERO
    assert ex.classify_regime(
        mk(N=3, sigma1=0.0, sigma2=0.0, rho=-0.5, p=1.5)
    ) is ex.Regime.NO_GLOBAL_SUBCRITICAL
    assert ex.classify_regime(
        mk(N=3, sigma1=0.0, sigma2=0.0, rho=-0.5, p=3.0)
    ) is ex.Regime.GLOBAL_CANDIDATE_SUPERCRITICAL
    # N = 2 with rho = 0: every power sits in the nonexistence range
    assert ex.classify_regime(
        mk(N=2, sigma1=0.0, sigma2=0.0, rho=0.0, p=50.0)
    ) is ex.Regime.NO_GLOBAL_CRITICAL_RHO_ZERO
    # sign-indefinite forcing defeats every nonexistence statement
    assert ex.classify_regime(
        mk(N=3, sigma1=0.0, sigma2=0.0, rho=0.5, p=5.0), w_mass_sign=-1
    ) is ex.Regime.UNCLASSIFIED


def test_report_totality_and_csv_row():
    # subcritical p: window is empty, report must still assemble
    p = ex.ProblemParams(N=3, sigma1=0.0, sigma2=0.0, rho=-0.5, p=1.5)
    rep = ex.build_report(p)
    assert rep.window is None and rep.weights is None
    row = ex.report_csv_row(rep)
    assert len(row) == len(ex.REPORT_CSV_COLUMNS)

    p = replace(p, p=3.0)
    rep = ex.build_report(p)
    assert rep.weights is not None
    text = ex.report_text(rep)
    assert "p_star = 2" in text
    assert "mu = 0.16666666666666666" in text or "mu = 0.1666" in text


def test_report_text_roundtrips_key_values():
    p = ex.ProblemParams(N=3, sigma1=0.0, sigma2=0.0, rho=-0.5, p=3.0)
    text = ex.report_text(ex.build_report(p))
    pairs = dict(line.split(" = ") for line in text.splitlines())
    assert float(pairs["p_fujita"]) == pytest.approx(5.0 / 3.0)
    assert float(pairs["r"]) == pytest.approx(4.5)
    assert pairs["regime"] == "GlobalCandidate_Supercritical"
