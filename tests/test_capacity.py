import math

import numpy as np
import pytest
from scipy import integrate

from fujitalab import capacity
from fujitalab.errors import ConditionViolation, PoorFit, QuadratureFailure
from fujitalab.exponents import ProblemParams, critical_forced
from fujitalab.radial import sphere_area


def _params(p=1.5, rho=-0.5, s1=0.0, s2=0.0, n=3):
    return ProblemParams(N=n, sigma1=s1, sigma2=s2, rho=rho, p=p)


# ---------------------------------------------------------------------------
# cutoff profiles
# ---------------------------------------------------------------------------

def test_cutoff_ranges_and_plateaus():
    s = np.linspace(-0.5, 1.5, 401)
    for prof in (capacity.PSI, capacity.PHI):
        vals = prof(s)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(capacity.PSI(np.linspace(0.5, 0.75, 50)) == 1.0)
    assert np.all(capacity.PSI(np.linspace(0.0, 0.25, 50)) == 0.0)
    assert np.all(capacity.PSI(np.linspace(0.81, 2.0, 50)) == 0.0)
    assert np.all(capacity.PHI(np.linspace(0.0, 1.0, 50)) == 1.0)
    assert np.all(capacity.PHI(np.linspace(2.0, 5.0, 50)) == 0.0)


def test_cutoff_derivative_vanishes_on_plateaus():
    s = np.linspace(0.5, 0.75, 50)
    assert np.all(capacity.PSI.d1(s) == 0.0)
    assert np.all(capacity.PSI.d2(s) == 0.0)


def test_cutoff_derivatives_match_finite_differences():
    h = 1e-6
    s = np.linspace(0.26, 0.49, 23)     # inside a ramp
    fd1 = (capacity.PSI(s + h) - capacity.PSI(s - h)) / (2.0 * h)
    fd2 = (capacity.PSI(s + h) - 2.0 * capacity.PSI(s) + capacity.PSI(s - h)) / h ** 2
    assert np.allclose(capacity.PSI.d1(s), fd1, rtol=1e-7, atol=1e-7)
    assert np.allclose(capacity.PSI.d2(s), fd2, rtol=1e-3, atol=1e-3)


def test_smoothness_at_plateau_junctions():
    # C^2 matching is what keeps the capacity integrands bounded
    eps = 1e-9
    for x in (0.25, 0.5, 0.75, 0.8):
        assert capacity.PSI(np.array([x - eps]))[0] == pytest.approx(
            capacity.PSI(np.array([x + eps]))[0], abs=1e-6)
        assert capacity.PSI.d1(np.array([x - eps]))[0] == pytest.approx(
            capacity.PSI.d1(np.array([x + eps]))[0], abs=1e-5)


# ---------------------------------------------------------------------------
# fixed composite quadrature
# ---------------------------------------------------------------------------

def test_unsettled_quadrature_raises():
    # sin(1e4 x) turns about 1,600 times on [0, 1]: the Simpson sum over
    # every other node disagrees with the full one, and the gate says so
    with pytest.raises(QuadratureFailure, match="test integrand did not settle"):
        capacity._integrate(lambda x: np.sin(1e4 * x), [(0.0, 1.0)],
                            "test integrand")


def test_sign_split_bisects_to_adjacent_floats():
    edges = capacity._sign_split(lambda x: x - 1.0 / 3.0, 0.0, 1.0)
    assert len(edges) == 3 and (edges[0], edges[2]) == (0.0, 1.0)
    assert abs(edges[1] - 1.0 / 3.0) <= math.ulp(1.0 / 3.0)


def _one_point_split(core, lo, hi):
    # the reference bisection: one core call on one point per step
    probes = np.linspace(lo, hi, 129)
    vals = np.asarray(core(probes), dtype=float)
    edges = [lo]
    for i in range(len(probes) - 1):
        a, b = probes[i], probes[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0 or fa * fb >= 0.0:
            continue
        mid = 0.5 * (a + b)
        while a < mid < b:
            fm = float(core(np.array([mid]))[0])
            if fa * fm <= 0.0:
                b = mid
            else:
                a, fa = mid, fm
            mid = 0.5 * (a + b)
        edges.append(mid)
    edges.append(hi)
    return tuple(edges)


def _log_core(n_dim, kappa, big_l):
    # the core of log_space_capacity
    P = capacity.LOG_PHI
    return lambda s: ((2.0 * kappa - 1.0) * P.d1(s) * P.d1(s) / big_l ** 2
                      + P(s) * P.d2(s) / big_l ** 2
                      + (n_dim - 2.0) * P(s) * P.d1(s) / big_l)


def _sweep_cores(count, seed):
    # space cores on tuples drawn like the capacity_sweep benchmark domain
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.choice([2, 3, 4]))
        s1, s2 = rng.uniform(-0.5, 0.5, 2)
        rho = rng.uniform(-0.6, 0.5)
        p_star = critical_forced(_params(p=2.0, rho=rho, s1=s1, s2=s2, n=n))
        p = 1.0 + rng.uniform(0.3, 0.8) * (min(p_star, 4.0) - 1.0)
        yield capacity._space_core(capacity.PHI, float(n), p / (p - 1.0))


def test_batched_split_is_the_one_point_bisection_bit_for_bit():
    # the batched passes reach the same split points as one core call per
    # step, from at most 8 calls per sign change after the probe scan
    cases = [(core, 1.0, 2.0) for core in _sweep_cores(200, 1)]
    cases += [(_log_core(n, kappa, big_l), 0.0, 1.0) for n in (3, 4, 5)
              for kappa in (1.5, 2.0, 3.0) for big_l in (2.5, 10.0, 100.0, 345.0)]
    cases.append((lambda x: x - 1.0 / 3.0, 0.0, 1.0))
    # on ends off the dyadic grid a midpoint can round, so the tree must
    # round as the walk does
    cases.append((lambda x: x - 1.0 / 3.0, 0.1, 0.7))
    roots = 0
    for core, lo, hi in cases:
        calls = []

        def counted(x):
            calls.append(np.size(x))
            return core(x)

        edges = capacity._sign_split(counted, lo, hi)
        assert edges == _one_point_split(core, lo, hi)
        assert calls[0] == 129 and len(calls) - 1 <= 8 * (len(edges) - 2)
        roots += len(edges) - 2
    # every case has one sign change but two LOG_PHI cores, which have none
    assert roots == len(cases) - 2


@pytest.mark.parametrize("core, n_edges", [
    (lambda x: (x - 0.3) * (x - 0.7), 4),       # two roots in one ramp
    (lambda x: x - 0.5, 2),                     # 0 at a probe node: no split
    (lambda x: (x - 0.5) * (x - 0.5001), 2),    # two roots in one probe interval
    (lambda x: x - 1e-3, 3),                    # a root in the first interval
    (lambda x: x - (1.0 - 1e-3), 3),            # a root in the last interval
])
def test_batched_split_walks_like_the_reference_on_edge_cases(core, n_edges):
    edges = capacity._sign_split(core, 0.0, 1.0)
    assert edges == _one_point_split(core, 0.0, 1.0) and len(edges) == n_edges


# ---------------------------------------------------------------------------
# the exact power cancellation in the Laplacian capacity
# ---------------------------------------------------------------------------

def test_space_integrand_power_cancellation():
    # |Lap(phi^2k)|^k phi^(-2k/(p-1)) == (2k)^k |core|^k wherever phi > 0
    p = 1.5
    kappa = p / (p - 1.0)
    dim = 3.0
    phi = capacity.PHI
    core = capacity._space_core(phi, dim, kappa)
    y = np.linspace(1.05, 1.95, 37)     # ramp region, phi in (0, 1)
    P, dP, d2P = phi(y), phi.d1(y), phi.d2(y)
    lap = (2.0 * kappa * P ** (2.0 * kappa - 1.0) * (d2P + (dim - 1.0) / y * dP)
           + 2.0 * kappa * (2.0 * kappa - 1.0) * P ** (2.0 * kappa - 2.0) * dP ** 2)
    lhs = np.abs(lap) ** kappa * P ** (-2.0 * kappa / (p - 1.0))
    rhs = (2.0 * kappa) ** kappa * np.abs(core(y)) ** kappa
    assert np.allclose(lhs, rhs, rtol=1e-10)


# ---------------------------------------------------------------------------
# the three integrals against an independent quadrature
# ---------------------------------------------------------------------------

def test_integrals_match_scipy_quadrature():
    params = _params(p=1.5, rho=-0.5)
    R, T = 2.0, 3.0
    kappa = params.p / (params.p - 1.0)
    got = capacity.capacity_integrals(params, R, T)

    w_t = (params.sigma1 * params.p - params.sigma2) / (params.p - 1.0)
    time_s, _ = integrate.quad(
        lambda s: abs(capacity.PSI.d1(np.array([s]))[0]) ** kappa, 0.25, 0.8,
        points=[0.5, 0.75], limit=200)
    time_y, _ = integrate.quad(
        lambda y: capacity.PHI(np.array([y]))[0] ** (2.0 * kappa)
        * y ** (params.N - 1.0 + w_t), 0.0, 2.0, points=[1.0], limit=200)
    want_time = (T ** (1.0 - kappa) * kappa ** kappa * time_s
                 * R ** (params.N + w_t) * sphere_area(float(params.N)) * time_y)
    assert got.time == pytest.approx(want_time, rel=1e-5)

    core = capacity._space_core(capacity.PHI, float(params.N), kappa)
    space_y, _ = integrate.quad(
        lambda y: abs(core(np.array([y]))[0]) ** kappa
        * y ** (params.N - 1.0 - params.sigma2 / (params.p - 1.0)),
        1.0, 2.0, limit=400)
    psi_s, _ = integrate.quad(
        lambda s: capacity.PSI(np.array([s]))[0] ** kappa, 0.25, 0.8,
        points=[0.5, 0.75], limit=200)
    a_s = params.N - (2.0 * params.p + params.sigma2) / (params.p - 1.0)
    want_space = ((2.0 * kappa) ** kappa * space_y
                  * R ** a_s * sphere_area(float(params.N)) * T * psi_s)
    assert got.space == pytest.approx(want_space, rel=1e-4)

    force_s, _ = integrate.quad(
        lambda s: s ** params.rho * capacity.PSI(np.array([s]))[0] ** kappa,
        0.25, 0.8, points=[0.5, 0.75], limit=200)
    want_force = T ** (params.rho + 1.0) * force_s
    assert got.forcing == pytest.approx(want_force, rel=1e-5)


@pytest.mark.parametrize("rho", [-0.5, 0.0, 1.0])
def test_forcing_factor_doubles_by_its_exponent(rho):
    params = _params(p=2.5, rho=rho)
    a = capacity.capacity_integrals(params, 10.0, 4.0).forcing
    b = capacity.capacity_integrals(params, 10.0, 8.0).forcing
    assert b / a == pytest.approx(2.0 ** (rho + 1.0), rel=1e-6)


@pytest.mark.parametrize("rho", [100.0, 200.0, 300.0, 1000.0])
def test_forcing_factor_settles_at_large_rho(rho):
    # y^rho puts nearly all the weight at the end of psi's support, so the
    # rise onto the plateau is a negligible share of the integral; at
    # rho = 300 that piece's own coarse-to-fine gap exceeds the tolerance
    params = _params(p=1.5, rho=rho, s1=-0.2)
    T = 10.0 ** 0.01
    got = capacity.capacity_integrals(params, 10.0, T).forcing
    force_s, _ = integrate.quad(
        lambda s: s ** rho * capacity.PSI(np.array([s]))[0] ** 3.0,
        0.25, 0.8, points=[0.5, 0.75], limit=200, epsabs=0.0, epsrel=1e-10)
    assert got == pytest.approx(T ** (rho + 1.0) * force_s, rel=1e-6)


def test_time_integral_scales_by_one_minus_kappa():
    params = _params(p=2.0, rho=-0.5)
    kappa = 2.0
    a = capacity.capacity_integrals(params, 10.0, 4.0).time
    b = capacity.capacity_integrals(params, 10.0, 8.0).time
    assert b / a == pytest.approx(2.0 ** (1.0 - kappa), rel=1e-6)


def test_integrals_reject_degenerate_geometry():
    with pytest.raises(ConditionViolation):
        capacity.capacity_integrals(_params(), 0.5, 1.0)
    with pytest.raises(ConditionViolation):
        capacity.capacity_integrals(_params(), 10.0, -1.0)


# ---------------------------------------------------------------------------
# exponent fits
# ---------------------------------------------------------------------------

def test_subcritical_fit_is_exactly_minus_two():
    params = _params(p=1.5, rho=-0.5)
    radii = [10.0, 30.0, 100.0, 300.0, 1000.0]
    rep = capacity.capacity_exponent_fit(params, radii)
    assert rep.t_exponent == pytest.approx(2.0)
    for fit in (rep.time_fit, rep.space_fit):
        assert fit.fitted == pytest.approx(-2.0, rel=1e-6)
        assert fit.r_squared > 0.999999
    assert rep.nonexistence_predicted
    assert rep.slopes_negative


def test_positive_rho_coupling_gives_two_negative_slopes():
    params = _params(p=2.0, rho=1.0)
    radii = [10.0, 30.0, 100.0, 300.0, 1000.0]
    rep = capacity.capacity_exponent_fit(params, radii, t_exponent=3.0)
    assert rep.time_fit.theory == pytest.approx(-6.0)
    assert rep.space_fit.theory == pytest.approx(-4.0)
    assert abs(rep.time_fit.fitted - (-6.0)) < 0.05 * 6.0
    assert abs(rep.space_fit.fitted - (-4.0)) < 0.05 * 4.0
    assert rep.slopes_negative


def test_slope_sign_flips_across_threshold():
    radii = [10.0, 30.0, 100.0, 300.0, 1000.0]
    below = capacity.capacity_exponent_fit(_params(p=1.95, rho=-0.5), radii)
    above = capacity.capacity_exponent_fit(_params(p=2.05, rho=-0.5), radii)
    assert below.time_fit.fitted < 0.0 < above.time_fit.fitted
    assert below.nonexistence_predicted
    assert not above.nonexistence_predicted


def test_fit_scales_the_same_constants_as_capacity_integrals():
    # the fit computes the profile constants once; every radius must still
    # reproduce capacity_integrals at (R, R^m) to the last bit
    params = _params(p=2.0, rho=0.5, s1=-0.3, s2=0.2)
    radii = [10.0, 30.0, 100.0, 300.0, 1000.0]
    rep = capacity.capacity_exponent_fit(params, radii, t_exponent=1.5)
    for k, R in enumerate(rep.radii):
        parts = capacity.capacity_integrals(params, R, R ** 1.5)
        assert rep.time_raw[k] == parts.time
        assert rep.space_raw[k] == parts.space


def test_fit_guards():
    params = _params()
    with pytest.raises(ConditionViolation):
        capacity.capacity_exponent_fit(params, [10.0, 20.0])
    with pytest.raises(ConditionViolation):
        capacity.capacity_exponent_fit(params, [10.0, 20.0, 40.0])  # < 1.5 decades
    with pytest.raises(ConditionViolation):
        capacity.capacity_exponent_fit(params, [0.5, 10.0, 1000.0])
    with pytest.raises(ConditionViolation):    # T = R^-1 < 1
        capacity.capacity_exponent_fit(params, [10.0, 100.0, 1000.0],
                                       t_exponent=-1.0)


# ---------------------------------------------------------------------------
# the logarithmic cutoff at the critical power
# ---------------------------------------------------------------------------

def _critical_params():
    # p equals (N + sigma2)/(N - 2) and rho = 0: the borderline power
    return ProblemParams(N=4, sigma1=0.0, sigma2=0.0, rho=0.0, p=2.0)


def test_log_capacity_positive_and_decaying():
    params = _critical_params()
    v1 = capacity.log_space_capacity(params, 1e3)
    v2 = capacity.log_space_capacity(params, 1e6)
    assert v1 > v2 > 0.0


def test_log_fit_requires_the_critical_setup():
    with pytest.raises(ConditionViolation):
        capacity.log_capacity_fit(_params(p=1.5, rho=-0.5),
                                  np.geomspace(1e2, 1e6, 7))
    with pytest.raises(ConditionViolation):
        capacity.log_capacity_fit(
            ProblemParams(N=4, sigma1=0.0, sigma2=0.0, rho=0.0, p=3.0),
            np.geomspace(1e2, 1e6, 7))


def test_log_fit_reports_preasymptotic_range_honestly():
    # the decay is logarithmic, so desk-scale radii sit far from the
    # asymptote; the fit must refuse to certify rather than pass anyway
    params = _critical_params()
    with pytest.raises(PoorFit) as info:
        capacity.log_capacity_fit(params, np.geomspace(1e2, 1e6, 9))
    rep = info.value.report
    assert rep.fit.theory == pytest.approx(-1.0)
    assert rep.fit.fitted < -1.5          # far from theory on this range
    assert rep.values.shape == rep.radii.shape


def test_log_slope_creeps_toward_theory_with_growing_radii():
    # moving the window outward must move the fitted slope toward -1;
    # this is the honest convergence evidence available at finite R
    params = _critical_params()

    def slope(lo, hi):
        try:
            return capacity.log_capacity_fit(
                params, np.geomspace(lo, hi, 7)).fit.fitted
        except PoorFit as exc:
            return exc.report.fit.fitted

    near = slope(1e2, 1e6)
    mid = slope(1e6, 1e14)
    far = slope(1e12, 1e32)
    assert near < mid < far < -0.5
