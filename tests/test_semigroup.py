import math

import numpy as np
import pytest
import scipy.linalg

from fujitalab import mild, radial, semigroup
from fujitalab.errors import ConditionViolation, StepFailure
from fujitalab.exponents import ProblemParams


def _params(s1, n=3):
    return ProblemParams(N=n, sigma1=s1, sigma2=0.0, rho=0.0, p=2.0)


def _op(s1, r_max=40.0, m=512):
    g = radial.RadialGrid.log_spaced(r_max, m)
    return semigroup.SemigroupOp(g, _params(s1))


# ---------------------------------------------------------------------------
# basic stepping behaviour
# ---------------------------------------------------------------------------

def test_zero_time_is_identity():
    op = _op(0.0)
    fld = radial.field_from_callable(op.grid, radial.gaussian_profile(0.0, 1.0, 1.0), 3.0)
    out = op.apply(fld, 0.0)
    assert np.array_equal(out.values, fld.values)


def test_no_spurious_flux_at_the_axis():
    # a constant field is a steady state away from the far boundary: any
    # dent near r = 0 would expose a wrong inner closure
    op = _op(-1.0, r_max=80.0, m=1024)
    fld = radial.RadialField(op.grid, np.ones(op.grid.m), 3.0)
    out = op.apply(fld, 0.05)
    inner = op.grid.nodes < 0.5
    assert np.allclose(out.values[inner], 1.0, atol=1e-9)


def test_march_preserves_positivity():
    op = _op(-0.5)
    fld = radial.field_from_callable(op.grid, radial.bump_profile(1.0, 1.0), 3.0)
    out = op.evolve_through(fld, [0.5]).values[0]
    assert np.all(out >= -1e-15)
    assert float(np.max(out)) < 1.0     # maximum principle


def test_sup_norm_never_grows():
    for s1 in (0.0, -1.0):
        op = _op(s1)
        fld = radial.field_from_callable(op.grid, radial.gaussian_profile(1.0, 0.3, 2.0), 3.0)
        prev = float(np.max(np.abs(fld.values)))
        for t in (0.01, 0.1, 1.0):
            cur = float(np.max(np.abs(op.apply(fld, t).values)))
            assert cur <= prev * (1.0 + 1e-12)
            prev = cur


# ---------------------------------------------------------------------------
# the cached tridiagonal factorisation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [384, 4096])
def test_implicit_solve_cache_matches_a_fresh_operator_exactly(m):
    # a repeated dt reuses the kept factors, a new dt replaces them, and a
    # return to an earlier dt refactors it: every path must give the bits
    # of a fresh operator's first solve
    op = _op(-0.5, m=m)
    rng = np.random.default_rng(m)
    for dt in (1e-3, 1e-3, 2e-3, 1e-3):
        rhs = rng.standard_normal(m)
        fresh = _op(-0.5, m=m).implicit_solve(rhs, dt)
        assert np.array_equal(op.implicit_solve(rhs, dt), fresh)


def _extended_solve(op, rhs, dt):
    # (I - dt L) x = rhs by the Thomas algorithm in long double, with L
    # assembled from the nodes in the same precision: a reference that
    # shares neither the kernel nor its double-precision coefficients
    ld = np.longdouble
    r = op.grid.nodes.astype(ld)
    n = ld(op.params.N)
    h = np.diff(r)
    cond = ((r[:-1] + r[1:]) / 2) ** (n - 1) / h
    cond_gh = (r[-1] + h[-1] / 2) ** (n - 1) / h[-1]
    cells = np.empty_like(r)
    cells[0] = h[0] / 2
    cells[1:-1] = (h[:-1] + h[1:]) / 2
    cells[-1] = h[-1]
    k = ld(dt) * r ** ld(-op.params.sigma1) / (r ** (n - 1) * cells)
    diag = list(1 + k * (np.insert(cond, 0, 0) + np.append(cond, cond_gh)))
    up, lo = list(-k[:-1] * cond), list(-k[1:] * cond)
    d = list(rhs.astype(ld))
    for i in range(1, r.size):
        f = lo[i - 1] / diag[i - 1]
        diag[i] -= f * up[i - 1]
        d[i] -= f * d[i - 1]
    d[-1] /= diag[-1]
    for i in range(r.size - 2, -1, -1):
        d[i] = (d[i] - up[i] * d[i + 1]) / diag[i]
    return np.array(d, dtype=ld)


@pytest.mark.parametrize("m", [384, 4096])
@pytest.mark.parametrize("s1", [-1.5, 0.0, 1.0])
def test_implicit_solve_against_an_extended_precision_solve(s1, m):
    # sup-relative error over dt = 1e-3, 1, 1e3 is 5e-16 to 3.9e-12 on these
    # cases; the general pivoted LU of I - dt L that this solve replaced
    # measured 5e-16 to 4.7e-12 against the same reference
    op = _op(s1, m=m)
    rhs = np.random.default_rng(m).standard_normal(m)
    for dt in (1e-3, 1.0, 1e3):
        ref = _extended_solve(op, rhs, dt)
        err = np.max(np.abs(op.implicit_solve(rhs, dt) - ref))
        assert err <= 1e-11 * np.max(np.abs(ref))


def test_implicit_solve_leaves_rhs_untouched():
    op = _op(0.0)
    rhs = np.linspace(1.0, 2.0, op.grid.m)
    kept = rhs.copy()
    for dt in (1e-3, 1e-3):
        op.implicit_solve(rhs, dt)
        assert np.array_equal(rhs, kept)


def test_semigroup_property_one_step_composition():
    op = _op(-0.5)
    fld = radial.field_from_callable(op.grid, radial.gaussian_profile(0.0, 1.0, 1.0), 3.0)
    once = op.apply(fld, 0.2, substeps=64)
    twice = op.apply(op.apply(fld, 0.1, substeps=32), 0.1, substeps=32)
    scale = float(np.max(np.abs(once.values)))
    assert np.allclose(once.values, twice.values, atol=1e-9 * scale)


def test_evolve_through_tracks_apply():
    # the incremental march and the one-shot apply() take different second
    # order steps, so they agree to O(dt^2), not to rounding
    op = _op(0.0)
    fld = radial.field_from_callable(op.grid, radial.bump_profile(1.0, 1.0), 3.0)
    stops = [0.05, 0.1, 0.2]

    def worst(substeps):
        through = op.evolve_through(fld, stops, substeps=substeps)
        errs = []
        for t, got in zip(stops, through.values):
            ref = op.apply(fld, t, substeps=substeps)
            scale = float(np.max(np.abs(ref.values)))
            errs.append(float(np.max(np.abs(got - ref.values))) / scale)
        return max(errs)

    coarse, fine = worst(16), worst(64)
    assert coarse < 2e-3
    assert fine < coarse / 8


@pytest.mark.parametrize("s1", [-1.0, 0.0, 1.0])
def test_march_is_second_order_from_t0_on_rough_data(s1):
    # r^(-3/2) excites the stiff modes (lambda_min is about -2e7 at
    # sigma1 = 0); an L-stable second-order step needs no start-up to keep
    # its order
    g = radial.RadialGrid.log_spaced(30.0, 512, r_min=0.03)
    op = semigroup.SemigroupOp(g, _params(s1))
    gen = np.column_stack([op.apply_operator(e) for e in np.eye(g.m)])
    fld = radial.field_from_callable(g, radial.powerlaw_profile(1.5), 3.0)
    exact = scipy.linalg.expm(gen) @ fld.values
    meas = g.nodes ** 2 * g.cell_widths()

    def err(n):
        got = op.evolve_through(fld, [1.0], substeps=n).values[0]
        return math.sqrt(float(np.sum((got - exact) ** 2 * meas)
                               / np.sum(exact ** 2 * meas)))

    order = math.log2(err(16) / err(32))
    assert 1.9 <= order <= 2.1


# ---------------------------------------------------------------------------
# the TR-BDF2 step
# ---------------------------------------------------------------------------

_STAGE = 1.0 - math.sqrt(0.5)       # both stages solve with I - (_STAGE h) L


def _tr_bdf2(op, u, h, s):
    # a trapezoid stage over (2 - sqrt2) h, then the BDF2 stage, with the
    # constant source s / (_STAGE h) added at the two stages' weights
    a = _STAGE * h
    mid = op.implicit_solve(u + a * op.apply_operator(u) + 2.0 * s, a)
    return op.implicit_solve((1.0 + math.sqrt(2.0)) / 2.0 * mid
                             - (math.sqrt(2.0) - 1.0) / 2.0 * u + s, a)


@pytest.mark.parametrize("s1", [-0.5, 0.0, 0.5])
def test_march_step_matches_the_tr_bdf2_stages(s1):
    op = _op(s1)
    fld = radial.field_from_callable(op.grid, radial.bump_profile(1.0, 1.0), 3.0)
    ref = _tr_bdf2(op, fld.values, 0.02, np.zeros(op.grid.m))
    got = op.apply(fld, 0.02, substeps=1).values
    assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("s1", [-0.5, 0.0, 0.5])
def test_duhamel_slice_matches_the_tr_bdf2_stages(s1):
    # the slice is one TR-BDF2 step of acc with the source (c / h) src
    op = _op(s1)
    r = op.grid.nodes
    acc = np.exp(-r ** 2)
    src = np.where(r < 1.0, 1.0, 0.0) * r ** (-0.5)
    h, c = 0.05, 0.3
    ref = _tr_bdf2(op, acc, h, _STAGE * c * src)
    got = op.march(acc, [h], 1, (src, np.array([[c]])))[0]
    assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("s1", [-0.5, 0.0, 0.5])
def test_duhamel_slice_of_a_rough_source_is_nonnegative(s1):
    # the source enters as c (A^-2 / sqrt2 + (1 - 1/sqrt2) A^-1) src, and
    # A^-1 is a nonnegative matrix: no ringing, even at stiff slice widths
    op = _op(s1)
    r = op.grid.nodes
    src = np.where(r < 1.0, 1.0, 0.0) * r ** (-0.5)
    for h in (1e-4, 1e-2, 1.0):
        out = op.march(np.zeros(op.grid.m), [h], 1, (src, np.array([[h]])))[0]
        assert np.all(out >= 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("acc_scale, c", [(1e308, 1.0), (1.0, 1e307)])
def test_duhamel_slice_beyond_float_range_is_a_step_failure(acc_scale, c):
    op = _op(0.0, m=64)
    ones = np.ones(op.grid.m)
    with pytest.raises(StepFailure):
        op.march(acc_scale * ones, [0.01], 1, (100.0 * ones, np.array([[c]])))


@pytest.mark.parametrize("s1", [-0.5, 0.0, 0.5])
def test_march_with_a_zero_source_is_the_march_without_one(s1):
    # skipping the source where it vanishes is a shortcut, not a second
    # numerical path
    op = _op(s1)
    fld = radial.field_from_callable(op.grid, radial.bump_profile(1.0, 1.0), 3.0)
    zero = np.zeros(op.grid.m)
    times = [0.01, 0.05, 0.2]
    hs = np.diff([0.0] + times) / 4
    plain = op.march(fld.values, times, 4)
    sourced = op.march(fld.values, times, 4, (zero, np.outer(hs, np.ones(4))))
    for a, b in zip(plain, sourced):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("s1", [-0.5, 0.0, 0.5])
def test_march_with_one_source_row_per_step_is_the_hand_loop(s1):
    # the march scales every step's row of an interval in one operation;
    # that must be _step with (_STAGE c[j, k]) g[j, k], bit for bit
    op = _op(s1)
    r = op.grid.nodes
    fld = radial.field_from_callable(op.grid, radial.bump_profile(1.0, 1.0), 3.0)
    times = [0.01, 0.05, 0.2]
    n = 3
    rows = np.array([np.exp(-(k + 1.0) * r) * r ** (-0.5) for k in range(n)])
    hs = np.diff([0.0] + times) / n
    g = np.array([(j + 1.0) * rows for j in range(len(times))])
    c = np.array([[0.3 * h, h, 2.0 * h] for h in hs])

    got = op.march(fld.values, times, n, (g, c))
    assert got.shape == (len(times), op.grid.m)
    u, t_prev = fld.values, 0.0
    for j, t in enumerate(times):
        h = (t - t_prev) / n
        for k in range(n):
            u = op._step(u, h, g[j, k] * (_STAGE * c[j, k]))
        assert np.array_equal(got[j], u)
        t_prev = t


_BAD_MARCHES = {
    "apply-zero-substeps": lambda op, fld: op.apply(fld, 1.0, substeps=0),
    "apply-negative-substeps": lambda op, fld: op.apply(fld, 1.0, substeps=-2),
    "evolve-through-no-times": lambda op, fld: op.evolve_through(fld, []),
    "march-zero-time": lambda op, fld: op.march(fld.values, [0.0, 1.0]),
    "march-nan-time": lambda op, fld: op.march(fld.values, [0.5, math.nan]),
    "forcing-decreasing-times": lambda op, fld: mild.duhamel_forcing(
        fld, op.params, [0.5, 0.2]),
}


@pytest.mark.parametrize("case", sorted(_BAD_MARCHES))
def test_march_rejects_bad_counts_and_times(case):
    # a caller's error is a ValueError, not an unchanged field, an
    # IndexError or a StepFailure from a negative step
    op = _op(0.0, m=64)
    fld = radial.field_from_callable(op.grid, radial.bump_profile(1.0, 1.0), 3.0)
    with pytest.raises(ValueError):
        _BAD_MARCHES[case](op, fld)


@pytest.mark.filterwarnings("error")
def test_march_beyond_float_range_is_a_step_failure():
    # a step from values at the float limit overflows (W b or 2 x - u):
    # the march checks its result once and raises, with no numpy warning
    op = _op(0.0, m=64)
    fld = radial.RadialField(op.grid, np.full(op.grid.m, 1e308), 3.0)
    with pytest.raises(StepFailure):
        op.apply(fld, 1e-6, substeps=1)


# ---------------------------------------------------------------------------
# conservation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s1", [0.0, -1.0])
def test_weighted_mass_conserved(s1):
    op = _op(s1, r_max=50.0, m=1024)
    fld = radial.field_from_callable(op.grid, radial.bump_profile(1.0, 1.0), 3.0)
    m0 = radial.weighted_integral(fld, weight=s1)
    m1 = radial.weighted_integral(op.apply(fld, 1.0), weight=s1)
    assert abs(m1 - m0) / abs(m0) < 1e-6


# ---------------------------------------------------------------------------
# decay-rate fits
# ---------------------------------------------------------------------------

def test_smoothing_slope_borderline_datum():
    s1 = -0.5
    op = _op(s1, m=1024)
    a, b = 2.0, 4.0
    src = radial.field_from_callable(
        op.grid, radial.powerlaw_profile(op.params.N / a), 3.0)
    fit = semigroup.smoothing_slope(op, a, b, src, np.geomspace(1.0, 10.0, 9))
    theory = -(3.0 / (2.0 + s1)) * (1.0 / a - 1.0 / b)
    assert fit.theory == pytest.approx(theory, rel=1e-12)
    assert fit.relative_error < 0.10
    assert fit.r_squared > 0.999


def test_generic_datum_decays_no_slower_than_operator_norm():
    op = _op(0.0, m=1024)
    src = radial.field_from_callable(op.grid, radial.gaussian_profile(0.0, 1.0, 1.0), 3.0)
    fit = semigroup.smoothing_slope(op, 2.0, 4.0, src, np.geomspace(1.0, 10.0, 9))
    assert fit.fitted < fit.theory + 0.02


def test_weighted_smoothing_shift():
    op = _op(0.0, m=1024)
    src = radial.field_from_callable(op.grid, radial.powerlaw_profile(1.5), 3.0)
    plain = semigroup.smoothing_slope(op, 2.0, 4.0, src, np.geomspace(1.0, 10.0, 9))
    weighted = semigroup.weighted_smoothing_check(
        op, 2.0, 4.0, 0.5, src, np.geomspace(1.0, 10.0, 9))
    assert weighted.theory == pytest.approx(plain.theory - 0.5 / 2.0, rel=1e-12)
    assert weighted.relative_error < 0.10


def test_weighted_smoothing_takes_its_norms_in_one_pass(monkeypatch):
    # one lq_norm call on the evolved trajectory, each of whose norms is
    # the bits of the 1-D norm of its row
    op = _op(0.0, m=512)
    src = radial.field_from_callable(op.grid, radial.powerlaw_profile(1.5), 3.0)
    times = np.geomspace(1.0, 10.0, 9)
    calls, orig = [], semigroup.lq_norm

    def lq_norm(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(semigroup, "lq_norm", lq_norm)
    fit = semigroup.weighted_smoothing_check(op, 2.0, 4.0, 0.5, src, times)
    assert len(calls) == 1
    weighted = src.with_values(src.values * op.weight(-0.5))
    rows = op.march(weighted.values, times)
    want = [orig(weighted.with_values(v), 4.0) for v in rows]
    assert fit.y.tolist() == want


def test_smoothing_rejects_invalid_pairs():
    op = _op(-1.0)
    src = radial.field_from_callable(op.grid, radial.bump_profile(1.0, 1.0), 3.0)
    with pytest.raises(ConditionViolation):
        # 1/a = 1/1.2 exceeds 1 + s1/N = 2/3
        semigroup.smoothing_slope(op, 1.2, 4.0, src, [1.0, 2.0, 4.0])
    with pytest.raises(ConditionViolation):
        semigroup.smoothing_slope(op, 4.0, 2.0, src, [1.0, 2.0, 4.0])
    with pytest.raises(ConditionViolation):
        # with gamma > 0 the middle inequality is strict:
        # 1/q2 = gamma/N + 1/q1 = 1/2
        semigroup.weighted_smoothing_check(op, 4.0, 2.0, 0.75, src,
                                           [1.0, 2.0, 4.0])
    # a = b is the trivial boundary case, with theory slope 0
    assert semigroup.smoothing_slope(op, 2.0, 2.0, src,
                                     [1.0, 2.0, 4.0]).theory == 0.0


def test_fit_loglog_recovers_exact_power():
    t = np.geomspace(1.0, 10.0, 7)
    slope, r2 = semigroup.fit_loglog(t, 3.0 * t ** -0.75)
    assert slope == pytest.approx(-0.75, rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# dilation covariance
# ---------------------------------------------------------------------------

def test_scaling_identity_on_commensurate_grid():
    s1 = -1.0
    g = radial.RadialGrid.log_commensurate(30.0, 1024, lam=2.0, r_min=4e-3)
    op = semigroup.SemigroupOp(g, _params(s1))
    src = radial.field_from_callable(g, radial.gaussian_profile(0.0, 1.0, 1.0), 3.0)
    disc = semigroup.scaling_identity_check(op, 2.0, 0.1, src)
    assert disc < 1e-3


def test_scaling_identity_rejects_an_incommensurate_grid():
    # a log step that does not divide log(lam) has no exact index shift,
    # and the check measures only the exact dilation
    s1 = 0.0
    g = radial.RadialGrid.log_spaced(30.0, 1024, r_min=4e-3)
    op = semigroup.SemigroupOp(g, _params(s1))
    src = radial.field_from_callable(g, radial.gaussian_profile(0.0, 1.0, 1.0), 3.0)
    with pytest.raises(ValueError, match="not log-uniform with a step "
                                         "dividing"):
        semigroup.scaling_identity_check(op, 1.7, 0.1, src)


def test_scaling_identity_rejects_bad_dilation():
    op = _op(0.0)
    src = radial.field_from_callable(op.grid, radial.gaussian_profile(0.0, 1.0, 1.0), 3.0)
    with pytest.raises(ValueError):
        semigroup.scaling_identity_check(op, -2.0, 0.1, src)


def test_shift_boundary_conventions():
    # the index shift that realizes the dilation continues the profile
    # flat below the first node (radial symmetry) and by zero past the
    # last one (absorbing far field)
    vals = np.linspace(1.0, 2.0, 8)
    assert np.array_equal(semigroup._shift(vals, 3)[:5], vals[3:])
    assert np.array_equal(semigroup._shift(vals, 3)[5:], np.zeros(3))
    assert np.array_equal(semigroup._shift(vals, -2)[:3], [1.0, 1.0, 1.0])
    assert np.array_equal(semigroup._shift(vals, -2)[2:], vals[:6])
