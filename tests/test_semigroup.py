import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from fujitalab import radial, semigroup
from fujitalab.errors import ConditionViolation
from fujitalab.exponents import ProblemParams


def _params(s1, n=3):
    return ProblemParams(N=n, sigma1=s1, sigma2=0.0, rho=0.0, p=2.0)


def _op(s1, r_max=40.0, m=512):
    g = radial.RadialGrid.log_spaced(r_max, m, sigma1=s1)
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


def test_implicit_euler_preserves_positivity():
    op = _op(-0.5)
    fld = radial.field_from_callable(op.grid, radial.bump_profile(1.0, 1.0), 3.0)
    out = op.apply(fld, 0.5, scheme=semigroup.SCHEME_IE)
    assert np.all(out.values >= -1e-15)
    assert float(np.max(out.values)) < 1.0     # maximum principle


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
def test_implicit_solve_matches_banded_solve_exactly(m):
    # a repeated dt reuses the kept factors, a new dt replaces them, and a
    # return to an earlier dt refactors it: every path must give the bits
    # of a fresh banded solve
    op = _op(-0.5, m=m)
    rng = np.random.default_rng(m)
    for dt in (1e-3, 1e-3, 2e-3, 1e-3):
        rhs = rng.standard_normal(m)
        ref = solve_banded((1, 1), op.step_matrix_banded(dt), rhs)
        assert np.array_equal(op.implicit_solve(rhs, dt), ref)


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
    # the incremental march opens with first-order substeps to damp rough
    # data, so it tracks the one-shot second-order apply() to O(dt), not
    # to rounding; 2% at this resolution, tighter when substeps double
    op = _op(0.0)
    fld = radial.field_from_callable(op.grid, radial.bump_profile(1.0, 1.0), 3.0)
    stops = [0.05, 0.1, 0.2]

    def worst(substeps):
        through = op.evolve_through(fld, stops, substeps=substeps)
        errs = []
        for t, got in zip(stops, through):
            ref = op.apply(fld, t, substeps=substeps)
            scale = float(np.max(np.abs(ref.values)))
            errs.append(float(np.max(np.abs(got.values - ref.values))) / scale)
        return max(errs)

    coarse, fine = worst(16), worst(64)
    assert coarse < 0.02
    assert fine < coarse


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


def test_smoothing_rejects_invalid_pairs():
    op = _op(-1.0)
    src = radial.field_from_callable(op.grid, radial.bump_profile(1.0, 1.0), 3.0)
    with pytest.raises(ConditionViolation):
        # 1/a = 1/1.2 exceeds 1 + s1/N = 2/3
        semigroup.smoothing_slope(op, 1.2, 4.0, src, [1.0, 2.0, 4.0])
    with pytest.raises(ConditionViolation):
        semigroup.smoothing_slope(op, 4.0, 2.0, src, [1.0, 2.0, 4.0])


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
    g = radial.RadialGrid.log_commensurate(30.0, 1024, lam=2.0, r_min=4e-3,
                                           sigma1=s1)
    op = semigroup.SemigroupOp(g, _params(s1))
    src = radial.field_from_callable(g, radial.gaussian_profile(0.0, 1.0, 1.0), 3.0)
    disc = semigroup.scaling_identity_check(op, 2.0, 0.1, src, substeps=32)
    assert disc < 1e-3


def test_scaling_identity_interpolation_fallback_is_worse():
    # a grid incommensurate with lam forces resampling; the measured
    # discrepancy is then interpolation-dominated but still small
    s1 = 0.0
    g = radial.RadialGrid.log_spaced(30.0, 1024, r_min=4e-3, sigma1=s1)
    op = semigroup.SemigroupOp(g, _params(s1))
    src = radial.field_from_callable(g, radial.gaussian_profile(0.0, 1.0, 1.0), 3.0)
    disc = semigroup.scaling_identity_check(op, 1.7, 0.1, src, substeps=32)
    assert 1e-8 < disc < 0.05


def test_scaling_identity_rejects_bad_dilation():
    op = _op(0.0)
    src = radial.field_from_callable(op.grid, radial.gaussian_profile(0.0, 1.0, 1.0), 3.0)
    with pytest.raises(ValueError):
        semigroup.scaling_identity_check(op, -2.0, 0.1, src)


def test_sample_log_boundary_conventions():
    g = radial.RadialGrid.log_spaced(10.0, 64)
    fld = radial.RadialField(g, np.linspace(1.0, 2.0, 64), 3.0)
    vals = semigroup.sample_log(fld, np.array([g.nodes[0] / 2.0, 20.0]))
    assert vals[0] == 1.0        # flat continuation at the axis
    assert vals[1] == 0.0        # absorbing far field
