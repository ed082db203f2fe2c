import math

import numpy as np
import pytest
from scipy import integrate

from fujitalab import radial


# ---------------------------------------------------------------------------
# grid factories
# ---------------------------------------------------------------------------

def test_log_spaced_grid_basics():
    g = radial.RadialGrid.log_spaced(30.0, 256)
    assert g.m == 256
    assert g.nodes[0] == pytest.approx(30.0 * 1e-4)
    assert g.nodes[-1] == pytest.approx(30.0)
    assert np.all(np.diff(g.nodes) > 0)
    steps = np.diff(np.log(g.nodes))
    assert np.allclose(steps, steps[0], rtol=1e-9)


def test_commensurate_grid_step_divides_dilation():
    g = radial.RadialGrid.log_commensurate(30.0, 2048, lam=2.0, r_min=2e-3)
    h = math.log(g.nodes[-1] / g.nodes[0]) / (g.m - 1)
    k = math.log(2.0) / h
    assert abs(k - round(k)) < 1e-9
    assert g.nodes[-1] == pytest.approx(30.0, rel=1e-12)
    assert g.nodes[0] <= 2e-3 * (1.0 + 1e-12)


def test_cell_widths_cover_the_interval():
    g = radial.RadialGrid.log_spaced(20.0, 128, r_min=0.01)
    total = float(np.sum(g.cell_widths()))
    assert total == pytest.approx(20.0 - 0.01, rel=1e-12)


def test_grid_rejects_bad_nodes():
    good = np.linspace(0.5, 2.0, 16)
    unordered = good.copy()
    unordered[[3, 4]] = unordered[[4, 3]]
    negative = good - 1.0
    for nodes in (unordered, negative):
        with pytest.raises(ValueError, match="strictly increasing"):
            radial.RadialGrid(nodes)
    with pytest.raises(ValueError, match="at least 16 nodes"):
        radial.RadialGrid(good[:15])
    with pytest.raises(ValueError, match="at least 16 nodes"):
        radial.RadialGrid.log_spaced(10.0, 4)


# ---------------------------------------------------------------------------
# norms and integrals against closed forms
# ---------------------------------------------------------------------------

def test_lq_norm_of_powerlaw_closed_form():
    # |r^{-1}|^2 r^2 dr integrates to b - a exactly in three dimensions
    g = radial.RadialGrid.log_spaced(10.0, 4096, r_min=0.1)
    fld = radial.field_from_callable(g, radial.powerlaw_profile(1.0), 3.0)
    got = radial.lq_norm(fld, 2.0)
    want = (4.0 * math.pi * (10.0 - 0.1)) ** 0.5
    assert got == pytest.approx(want, rel=1e-6)


def test_lq_norm_gaussian_against_quadrature():
    g = radial.RadialGrid.log_spaced(25.0, 4096)
    prof = radial.gaussian_profile(0.0, 1.0, 2.0)
    fld = radial.field_from_callable(g, prof, 3.0)
    for q in (2.0, 3.0, 1.0):
        got = radial.lq_norm(fld, q)
        ref, _ = integrate.quad(
            lambda r: abs(prof(np.array([r]))[0]) ** q * r ** 2.0, 0.0, 25.0)
        want = (4.0 * math.pi * ref) ** (1.0 / q)
        assert got == pytest.approx(want, rel=5e-5)


def test_sup_norm_is_max_abs():
    g = radial.RadialGrid.log_spaced(5.0, 64)
    vals = np.linspace(-3.0, 2.0, 64)
    fld = radial.RadialField(g, vals, 3.0)
    assert radial.lq_norm(fld, math.inf) == 3.0


def test_weighted_integral_keeps_sign():
    g = radial.RadialGrid.log_spaced(5.0, 512)
    fld = radial.field_from_callable(g, radial.bump_profile(1.0, -2.0), 3.0)
    assert radial.weighted_integral(fld) < 0.0


def test_sphere_area_values():
    assert radial.sphere_area(3.0) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert radial.sphere_area(2.0) == pytest.approx(2.0 * math.pi, rel=1e-14)
    # non-integer dimensions appear after the change of variables
    assert radial.sphere_area(4.0) == pytest.approx(2.0 * math.pi ** 2, rel=1e-14)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_bump_profile_support_and_peak():
    prof = radial.bump_profile(2.0, 3.0)
    r = np.array([0.0, 1.0, 1.999, 2.0, 5.0])
    vals = prof(r)
    assert vals[0] == pytest.approx(3.0)
    assert vals[1] > 0.0
    assert vals[3] == 0.0 and vals[4] == 0.0


def test_gaussian_profile_symmetry_and_amplitude():
    prof = radial.gaussian_profile(1.0, 0.5, 2.0)
    assert prof(np.array([1.0]))[0] == pytest.approx(2.0)
    left, right = prof(np.array([0.5, 1.5]))
    assert left == pytest.approx(right, rel=1e-14)


def test_zero_profile_mass_sign():
    prof = radial.zero_profile()
    assert np.all(prof(np.linspace(0.0, 5.0, 7)) == 0.0)


def test_profile_guards():
    with pytest.raises(ValueError):
        radial.gaussian_profile(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        radial.bump_profile(-1.0, 1.0)


# ---------------------------------------------------------------------------
# field container
# ---------------------------------------------------------------------------

def test_field_shape_and_finiteness_guards():
    g = radial.RadialGrid.log_spaced(5.0, 64)
    with pytest.raises(ValueError):
        radial.RadialField(g, np.zeros(63), 3.0)
    with pytest.raises(ValueError):
        radial.RadialField(g, np.full(64, np.nan), 3.0)


def test_with_values_keeps_grid_and_dimension():
    g = radial.RadialGrid.log_spaced(5.0, 64)
    fld = radial.RadialField(g, np.zeros(64), 3.0)
    out = fld.with_values(np.ones(64))
    assert out.grid is g
    assert out.dimension == 3.0
    assert np.all(out.values == 1.0)
