import decimal
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from fujitalab import exponents as ex
from fujitalab.errors import (EmptyWindow, HypothesisViolation, Inadmissible,
                              Overflow, WindowViolation)

from conftest import sample_supercritical_tuples


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_valid_tuple_passes():
    p = ex.ProblemParams(N=3, sigma1=-0.5, sigma2=-1.0, rho=-0.25, p=2.5)
    assert replace(p, p=3.0).p == 3.0


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
        ex.ProblemParams(**base)


def test_every_violation_is_listed_and_replace_is_checked():
    with pytest.raises(HypothesisViolation) as info:
        ex.ProblemParams(N=1, sigma1=-3.0, rho=-1.0, p=1.0)
    assert str(info.value) == (
        "N must be an integer >= 2, got 1; sigma1 must exceed -2, got -3.0; "
        "rho must exceed -1, got -1.0; p must exceed 1, got 1.0")
    # a non-finite entry is reported alone
    with pytest.raises(HypothesisViolation,
                       match="^N must be finite, got nan$"):
        ex.ProblemParams(N=math.nan, p=0.5)
    with pytest.raises(HypothesisViolation, match="rho must exceed -1"):
        replace(ex.ProblemParams(N=3), rho=-1.0)


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
    r = ex.derived_weights(p).r
    assert r == pytest.approx(4.5, rel=1e-14)
    w = ex.derived_weights(p, r)
    assert w.r == r and w.delta == ex.local_alpha(p, r)
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
    r = ex.derived_weights(p).r
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
    ex.require_admissible_q(p, 4.0)
    with pytest.raises(Inadmissible) as info:
        ex.require_admissible_q(p, 1.5)         # q < p
    assert "q=1.5" in str(info.value)


def test_local_alpha_below_one_iff_admissible_kernel():
    for params in sample_supercritical_tuples(seed=37, count=100):
        n, p = params.N, params.p
        q_edge = n * (p - 1.0) / (2.0 + params.sigma2)
        q = max(q_edge, n * p / (n + params.sigma2), p) * 1.1
        ex.require_admissible_q(params, q)
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


# ---------------------------------------------------------------------------
# the forcing time factor int_a^b s^rho ds = int_a^b s^(e-1) ds
# ---------------------------------------------------------------------------

def _power_integral_reference(a, b, e):
    """(b^e - a^e) / e in 50-digit decimal arithmetic (inf past its range)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        ctx.traps[decimal.Overflow] = False
        e = decimal.Decimal(e)
        lo = (decimal.Decimal(a).ln() * e).exp() if a > 0.0 else 0
        return ((decimal.Decimal(b).ln() * e).exp() - lo) / e


def _rel_err(got, ref):
    return abs((decimal.Decimal(got) - ref) / ref)


RHO_PLUS_ONE = [1e-12, 1e-6, 1e-3, 0.5, 1.0, 51.0]


@pytest.mark.parametrize("e", RHO_PLUS_ONE)
def test_power_integral_matches_a_50_digit_reference(e):
    # the difference of powers ((a+h)^e - a^e) / e is off by 9e-5 at
    # e = 1e-6, h/a = 1e-6, and by 100% at e = 1e-12
    slices = [(0.0, b) for b in (1e-3, 0.7, 3.0, 1e3)]
    slices += [(a, a + a * ratio) for a in (1e-3, 0.7, 3.0, 1e3)
               for ratio in (1e-8, 1e-6, 1e-4, 1e-2, 1.0)]
    for a, b in slices:
        ref = _power_integral_reference(a, b, e)
        assert _rel_err(ex._power_integral(a, b, e), ref) <= 1e-13, (a, b)


@pytest.mark.parametrize("e", RHO_PLUS_ONE)
def test_power_integral_weights_of_a_partition_sum_to_the_whole(e):
    # log-spaced stored times cut into equal slices, as the Duhamel march
    edges = [0.0]
    for t in np.geomspace(2e-3, 2.0, 32):
        h = (t - edges[-1]) / 4
        edges += [edges[-1] + k * h for k in (1, 2, 3)] + [float(t)]
    total = math.fsum(ex._power_integral(a, b, e)
                      for a, b in zip(edges, edges[1:]))
    assert _rel_err(total, _power_integral_reference(0.0, 2.0, e)) <= 1e-13


@pytest.mark.parametrize("a, b, e", [
    (0.0, 1e300, 2.0),              # T^2 / 2
    (1e300, 2e300, 1.5),            # both powers overflow
    (1e200, 1.1e200, 1.6),
    (0.0, 1e308, 1e308),            # past any decimal exponent too
    (0.0, 1e300, 1e-12),            # 1e12 T^(1e-12), inside the range
])
@pytest.mark.filterwarnings("error")
def test_power_integral_raises_overflow_beyond_the_float_range(a, b, e):
    ref = _power_integral_reference(a, b, e)
    if ref < decimal.Decimal(sys.float_info.max):
        assert _rel_err(ex._power_integral(a, b, e), ref) <= 1e-13
        return
    with pytest.raises(Overflow) as info:
        ex._power_integral(a, b, e)
    assert info.value.__context__ is None


def test_power_integral_overflows_with_its_power_above_e_one():
    # b^51 overflows by a factor 30 and b^51 / 51 does not; like the
    # difference of powers, the function needs b^e in range
    b = math.exp((math.log(sys.float_info.max) + math.log(30.0)) / 51.0)
    assert _power_integral_reference(0.0, b, 51.0) < sys.float_info.max
    with pytest.raises(Overflow):
        ex._power_integral(0.0, b, 51.0)


def test_power_integral_is_private():
    # the benchmark tracer wraps every name in __all__, and this one runs
    # once per time step
    assert "_power_integral" not in ex.__all__
