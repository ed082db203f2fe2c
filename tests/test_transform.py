import math

import numpy as np
import pytest

from fujitalab import blowup, radial, transform
from fujitalab.errors import DegenerateTransform, InsufficientResolution
from fujitalab.exponents import ProblemParams


def _params(s1, s2, rho=-0.5, p=2.0):
    return ProblemParams(N=3, sigma1=s1, sigma2=s2, rho=rho, p=p)


# ---------------------------------------------------------------------------
# derived constants
# ---------------------------------------------------------------------------

def test_identity_when_time_weight_absent():
    tp = transform.transform_params(_params(0.0, -0.5))
    assert tp.theta == 1.0
    assert tp.nbar == 3.0
    assert tp.lam == 1.0
    assert tp.sbar == pytest.approx(-0.5)


def test_constants_for_weighted_case():
    tp = transform.transform_params(_params(-1.0, -0.5))
    assert tp.theta == pytest.approx(0.5)
    assert tp.sbar == pytest.approx(2.0 * 0.5 / 1.0)      # 2(s2-s1)/(2+s1)
    assert tp.nbar == pytest.approx(4.0)                  # 2(N+s1)/(2+s1)
    assert tp.lam == pytest.approx(0.5 ** (2.0 * 1.0 / 3.0))


def test_valid_tuple_can_round_onto_the_degenerate_transform():
    # s2 > -2 keeps 2 + sbar > 0 in exact arithmetic, but 2 + s1 and
    # s2 - s1 both round to multiples of 16 near 1e17, so sbar = -2 exactly
    params = _params(1e17, -2.0 + 2.0 ** -51)
    with pytest.raises(DegenerateTransform, match=r"2 \+ sbar vanishes"):
        transform.transform_params(params)


def test_effective_dimension_is_generally_noninteger():
    tp = transform.transform_params(_params(-0.5, -0.5))
    assert tp.nbar == pytest.approx(2.0 * 2.5 / 1.5)
    assert abs(tp.nbar - round(tp.nbar)) > 0.1


# ---------------------------------------------------------------------------
# field transport
# ---------------------------------------------------------------------------

def test_identity_transform_keeps_everything():
    g = radial.RadialGrid.log_spaced(10.0, 64)
    fld = radial.field_from_callable(g, radial.gaussian_profile(0.0, 1.0, 1.0), 3.0)
    out = transform.to_transformed(fld, _params(0.0, -0.5))
    assert np.allclose(out.grid.nodes, g.nodes, rtol=1e-14)
    assert np.array_equal(out.values, fld.values)
    assert out.dimension == 3.0


def test_roundtrip_recovers_nodes_and_values():
    g = radial.RadialGrid.log_spaced(10.0, 128, r_min=1e-3)
    params = _params(-1.0, -0.5)
    fld = radial.field_from_callable(g, radial.gaussian_profile(1.0, 0.7, 2.0), 3.0)
    there = transform.to_transformed(fld, params)
    back = transform.from_transformed(there, params)
    assert np.allclose(back.grid.nodes, g.nodes, rtol=1e-12)
    assert np.allclose(back.values, fld.values, rtol=1e-12)


def test_transported_dimension_is_effective():
    g = radial.RadialGrid.log_spaced(10.0, 64)
    params = _params(-1.0, -0.5)
    fld = radial.field_from_callable(g, radial.bump_profile(2.0, 1.0), 3.0)
    out = transform.to_transformed(fld, params)
    assert out.dimension == pytest.approx(4.0)


def test_log_grid_maps_to_log_grid():
    g = radial.RadialGrid.log_spaced(10.0, 64)
    out = transform.to_transformed(
        radial.RadialField(g, np.ones(64), 3.0), _params(-1.0, -0.5))
    steps = np.diff(np.log(out.grid.nodes))
    assert np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)


def test_forcing_transport_trivial_when_identity():
    params = _params(0.0, 0.0)
    w = radial.gaussian_profile(0.0, 1.0, 3.0)
    W = transform.forcing_W(w, params)
    s = np.geomspace(0.01, 5.0, 40)
    assert np.allclose(W(s), w(s), rtol=1e-13)


def test_forcing_transport_closed_form():
    # constant profile isolates the Lambda^(-rho-1) prefactor and the
    # weight r(s)^(-s1) moved off the time derivative
    params = _params(-1.0, -0.5, rho=-0.5)
    tp = transform.transform_params(params)
    W = transform.forcing_W(lambda r: np.ones_like(r), params)
    s = np.geomspace(0.1, 2.0, 17)
    r_of_s = (tp.theta ** (2.0 / (2.0 + tp.sbar)) * s) ** (1.0 / tp.theta)
    want = tp.lam ** (-0.5) * r_of_s
    assert np.allclose(W(s), want, rtol=1e-12)


# ---------------------------------------------------------------------------
# residual of the transformed equation along a real trajectory
# ---------------------------------------------------------------------------

def _trajectory(params, n_snap, dt_init):
    g = radial.RadialGrid.log_spaced(30.0, 512, r_min=0.003)
    u0 = radial.field_from_callable(g, radial.gaussian_profile(0.0, 1.0, 0.5), 3.0)
    w = radial.field_from_callable(g, radial.bump_profile(1.0, 0.5), 3.0)
    cfg = blowup.BlowupConfig(dt_init=dt_init, t_max=1.0)
    times = np.linspace(0.0, 0.5, n_snap)
    out = blowup.integrate_nonlinear(u0, w, params, cfg, sample_times=times)
    assert out.status == blowup.GLOBAL
    snap_t = [t for t, _ in out.snapshots]
    snap_f = [f for _, f in out.snapshots]
    return snap_t, snap_f, radial.bump_profile(1.0, 0.5)


def test_residual_small_on_identity_trajectory():
    params = _params(0.0, 0.0, rho=0.0)
    times, fields, w = _trajectory(params, 9, 1e-3)
    res = transform.residual_check(times, fields, w, params)
    assert len(res) == len(times) - 2
    assert max(res) < 0.05


def test_residual_small_after_change_of_variables():
    params = _params(-1.0, -0.5, rho=0.0)
    times, fields, w = _trajectory(params, 9, 1e-3)
    res = transform.residual_check(times, fields, w, params)
    assert max(res) < 0.08


def test_residual_decreases_under_time_refinement():
    params = _params(-0.5, -0.5, rho=0.0)
    coarse = transform.residual_check(*_trajectory(params, 5, 2e-3), params)
    fine = transform.residual_check(*_trajectory(params, 17, 5e-4), params)
    assert max(fine) < max(coarse)


def test_residual_rejects_tiny_grids():
    # 20 nodes leave 2 interior nodes after the 8-node trim at each end
    params = _params(0.0, 0.0, rho=0.0)
    g = radial.RadialGrid.log_spaced(5.0, 20)
    flds = [radial.RadialField(g, np.ones(20), 3.0) for _ in range(3)]
    with pytest.raises(InsufficientResolution, match="only 2 interior"):
        transform.residual_check([0.0, 0.1, 0.2], flds,
                                 radial.zero_profile(), params)
