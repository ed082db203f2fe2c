import hashlib
import math
import os

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import solve_banded

from fujitalab import capacity, cli, mild, radial, semigroup
from fujitalab.errors import EmptyWindow, Inadmissible, Overflow
from fujitalab.exponents import ProblemParams, derived_weights


def _params(p=3.0, rho=-0.5, s2=-0.1):
    return ProblemParams(N=3, sigma1=0.0, sigma2=s2, rho=rho, p=p)


def _grid(m=384):
    return radial.RadialGrid.log_spaced(30.0, m, r_min=0.03)


def _gaussian(grid, amp):
    return radial.field_from_callable(
        grid, radial.gaussian_profile(0.0, 1.0, amp), 3.0)


def _bump(grid, amp):
    return radial.field_from_callable(grid, radial.bump_profile(1.0, amp), 3.0)


# ---------------------------------------------------------------------------
# forcing response
# ---------------------------------------------------------------------------

def test_forcing_response_vanishes_without_forcing():
    g = _grid(128)
    w = radial.RadialField(g, np.zeros(g.m), 3.0)
    traj = mild.duhamel_forcing(w, _params(), np.geomspace(0.01, 1.0, 12))
    weights = derived_weights(_params())
    assert traj.x_norm(weights.mu, weights.r) == 0.0
    assert all(np.all(v == 0.0) for v in traj.values)


def test_forcing_response_is_linear_in_the_profile():
    g = _grid(128)
    t_grid = np.geomspace(0.01, 1.0, 12)
    one = mild.duhamel_forcing(_bump(g, 1.0), _params(), t_grid)
    two = mild.duhamel_forcing(_bump(g, 2.0), _params(), t_grid)
    for a, b in zip(one.values, two.values):
        assert np.allclose(2.0 * a, b, rtol=1e-12, atol=1e-300)


def test_forcing_response_against_direct_march():
    # independent check: implicit Euler with the t^rho factor integrated
    # exactly over each step, far more steps than the response quadrature
    params = _params()
    g = _grid()
    w = _bump(g, 1.0)
    t_end = 0.5
    t_grid = np.geomspace(5e-3, t_end, 16)
    traj = mild.duhamel_forcing(w, params, t_grid)

    # I - h L from the columns of L, solved apart from the operator's kernel
    op = semigroup.SemigroupOp(g, params)
    n_steps = 1500
    h = t_end / n_steps
    step = np.eye(g.m) - h * np.column_stack(
        [op.apply_operator(e) for e in np.eye(g.m)])
    ab = np.zeros((3, g.m))
    ab[0, 1:] = np.diag(step, 1)
    ab[1] = np.diag(step)
    ab[2, :-1] = np.diag(step, -1)
    rho1 = params.rho + 1.0
    u = np.zeros(g.m)
    for k in range(n_steps):
        t0 = k * h
        ck = ((t0 + h) ** rho1 - t0 ** rho1) / rho1
        u = solve_banded((1, 1), ab, u + ck * w.values, check_finite=False)
    meas = g.nodes ** 2 * g.cell_widths()
    diff = traj.values[-1] - u
    rel = math.sqrt(float(np.sum(diff ** 2 * meas) / np.sum(u ** 2 * meas)))
    assert rel < 0.02


# ---------------------------------------------------------------------------
# fixed-point iteration
# ---------------------------------------------------------------------------

def test_plan_weighs_each_slice_by_its_scalar_formula():
    # the plan's arrays hold the per-slice scalar expressions, so F[u] is a
    # hand loop of march steps over them, bit for bit, head cell included:
    # the forcing on all nsub slices, F[u] on nsub // 2
    params, g = _params(), _grid(128)
    op = semigroup.SemigroupOp(g, params)
    times, nsub, theta = np.geomspace(0.01, 1.0, 9), 6, -0.4
    plan = mild._Plan(op, times, nsub, _bump(g, 1.0), theta)
    assert plan.forcing[1].shape == (times.size, nsub)
    assert plan.c.shape == plan.frac.shape == (times.size, nsub // 2)
    u = np.random.default_rng(5).standard_normal((times.size, g.m))
    got = mild._nonlinear_values(plan, u)
    wgt = op.weight(params.sigma2 - params.sigma1)
    acc, t_prev, t1 = np.zeros(g.m), 0.0, times[0]
    for j, t in enumerate(times):
        h = (t - t_prev) / nsub
        for k in range(nsub):
            w_k = mild._power_integral(t_prev + k * h, t_prev + (k + 1) * h,
                                       params.rho + 1.0)
            assert plan.forcing[1][j, k] == w_k
        h = (t - t_prev) / (nsub // 2)
        for k in range(nsub // 2):
            if j == 0:
                c, vals = t1 * mild._power_integral(
                    k * h / t1, (k + 1) * h / t1, theta + 1.0), u[0]
            else:
                frac = (math.log((t_prev + (k + 0.5) * h) / t_prev)
                        / math.log(t / t_prev))
                c, vals = h, (1.0 - frac) * u[j - 1] + frac * u[j]
            src = wgt * np.abs(vals) ** params.p
            acc = op._step(acc, h, src * (semigroup._STAGE * c))
        assert np.array_equal(got[j], acc)
        t_prev = t


def test_picard_of_zero_is_the_linear_part():
    params = _params()
    g = _grid(256)
    u0 = _gaussian(g, 1e-3)
    cfg = mild.MildConfig(t_max=2.0, n_times=16)
    times = np.geomspace(2e-3, 2.0, 16)
    zero = mild.Trajectory(times=times, values=np.zeros((times.size, g.m)),
                           like=u0)
    stepped = mild.picard_step(zero, u0, None, params, cfg)
    op = semigroup.SemigroupOp(g, params)
    ref = op.evolve_through(u0, list(times), substeps=cfg.duhamel_substeps)
    for got, want in zip(stepped.values, ref.values):
        scale = float(np.max(np.abs(want))) or 1.0
        assert np.allclose(got, want, atol=1e-12 * scale)


def test_global_solution_certificate():
    params = _params()
    g = _grid(256)
    cfg = mild.MildConfig(t_max=2.0, n_times=32)
    sol = mild.solve_global_small(_gaussian(g, 1e-3), _bump(g, 1e-3), params, cfg)
    assert sol.converged
    assert len(sol.diffs) >= 2
    assert all(r < 0.5 for r in sol.ratios)
    assert sol.trajectory.x_norm(sol.mu, sol.r) > 0.0
    # applying the map once more must move the iterate less than 2 tol
    again = mild.picard_step(sol.trajectory, _gaussian(g, 1e-3),
                             _bump(g, 1e-3), params, cfg)
    resid = mild.x_distance(again, sol.trajectory, sol.mu, sol.r)
    assert resid < 2.0 * cfg.picard_tol


def test_one_norm_pass_per_picard_step(monkeypatch):
    # the first distance is the linear part's X-norm; each later step
    # takes its norms once, in x_distance
    calls = []
    orig = radial.lq_norm

    def lq_norm(*args):
        calls.append(None)
        return orig(*args)

    monkeypatch.setattr(radial, "lq_norm", lq_norm)
    g = _grid(256)
    cfg = mild.MildConfig(t_max=2.0, n_times=32)
    sol = mild.solve_global_small(_gaussian(g, 1e-3), _bump(g, 1e-3),
                                  _params(), cfg)
    assert sol.ratios and len(calls) == 1 + len(sol.ratios)


def test_forcing_and_picard_step_need_no_metric():
    # p = 1.5 leaves the window empty: the forcing response needs no
    # metric, and a Picard step needs one only for its head exponent
    params = _params(p=1.5, s2=0.0)
    g = _grid(128)
    times = np.geomspace(0.01, 1.0, 12)
    u0, w = _gaussian(g, 1e-3), _bump(g, 1e-3)
    forced = mild.duhamel_forcing(w, params, times)
    assert forced.values.shape == (times.size, g.m)
    assert np.any(forced.values != 0.0)
    with pytest.raises(EmptyWindow):
        mild.picard_step(forced, u0, w, params)
    stepped = mild.picard_step(forced, u0, w, params, head_theta=0.0)
    assert np.all(stepped.times == times)
    assert np.all(np.isfinite(stepped.values))


def test_contraction_tightens_as_data_shrink():
    params = _params()
    g = _grid(256)
    cfg = mild.MildConfig(t_max=2.0, n_times=16)
    first_ratios = []
    for scale in (4e-3, 2e-3, 1e-3):
        sol = mild.solve_global_small(_gaussian(g, scale), _bump(g, scale),
                                      params, cfg)
        assert sol.converged
        first_ratios.append(sol.ratios[0])
    assert first_ratios[0] > first_ratios[1] > first_ratios[2]


def test_contraction_speed_scales_like_nonlinearity_order():
    # the first contraction ratio behaves like C M^(p-1); its log-log
    # slope across data scales pins the nonlinearity order
    params = _params()
    g = _grid(256)
    cfg = mild.MildConfig(t_max=2.0, n_times=16)
    scales = (0.01, 0.1)
    ratios = []
    for s in scales:
        sol = mild.solve_global_small(_gaussian(g, s), None, params, cfg)
        ratios.append(sol.ratios[0])
    slope = math.log(ratios[1] / ratios[0]) / math.log(scales[1] / scales[0])
    assert slope == pytest.approx(params.p - 1.0, abs=0.25)


def test_large_data_overflow_is_reported():
    params = _params()
    g = _grid(256)
    cfg = mild.MildConfig(t_max=2.0, n_times=16, max_picard=12)
    with pytest.raises(Overflow):
        mild.solve_global_small(_gaussian(g, 1.0e3), None, params, cfg)


# ---------------------------------------------------------------------------
# containers and metrics
# ---------------------------------------------------------------------------

def test_trajectory_validation():
    g = _grid(128)
    f = radial.RadialField(g, np.zeros(g.m), 3.0)
    two = np.zeros((2, g.m))
    # NaN times fail the check as _Plan's does
    for times in ([0.0, 1.0], [1.0, 0.5], [math.nan, 1.0], [0.5, math.nan]):
        with pytest.raises(ValueError, match="increasing"):
            mild.Trajectory(times=np.array(times), values=two, like=f)
    # one row per time, each on like's grid
    for bad in (np.zeros((3, g.m)), np.zeros((2, g.m - 1)), np.zeros(g.m)):
        with pytest.raises(ValueError, match="shape"):
            mild.Trajectory(times=np.array([0.5, 1.0]), values=bad, like=f)


@pytest.mark.parametrize("dimension", [3.0, 2.6])
def test_norms_are_bitwise_the_trapezoid_formula(dimension):
    # the solvers' norms are the trapezoid formula bit for bit, and taking
    # them leaves the grid its nodes alone
    g = _grid(128)
    rng = np.random.default_rng(7)
    like = radial.RadialField(g, np.zeros(g.m), dimension)
    times = np.geomspace(0.01, 1.0, 6)
    vals = [rng.standard_normal(g.m) * 10.0 ** k for k in range(-3, 3)]
    cells = g.cell_widths()
    for q in (1.0, 2.0, 4.0, 7.5):
        want = [(radial.sphere_area(dimension)
                 * float(np.abs(v) ** q * g.nodes ** (dimension - 1.0)
                         @ cells)) ** (1.0 / q) for v in vals]
        assert [radial.lq_norm(like.with_values(v), q) for v in vals] == want
        traj = mild.Trajectory(times, vals, like)
        assert traj.x_norm(0.0, q) == max(want)
        assert radial.lq_norm(traj, q) == want
        zero = mild.Trajectory(times, [0.0 * v for v in vals], like)
        assert mild.x_distance(traj, zero, 0.0, q) == max(want)
    assert list(vars(g)) == ["nodes"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dimension", [3.0, 2.6])
def test_one_pass_norms_are_lq_norm_bit_for_bit(dimension):
    # lq_norm on a stack of rows takes one |V|^q r^(N-1) pass, then a 1-D
    # dot per row: the same bits as lq_norm row by row
    g = _grid(512)
    rng = np.random.default_rng(11)
    like = radial.RadialField(g, np.zeros(g.m), dimension)
    rows = rng.standard_normal((32, g.m)) * 10.0 ** rng.uniform(-3, 3, (32, 1))
    times = np.geomspace(0.01, 1.0, 32)
    stack = mild.Trajectory(times, rows.copy(), like)
    for q in (1.0, 2.0, 4.0, 4.86, math.inf):
        want = [radial.lq_norm(like.with_values(v), q) for v in rows]
        assert radial.lq_norm(stack, q) == want
        assert stack.norms(q).tolist() == want
    # a row whose norm overflows is inf, and the solver's Overflow in
    # Trajectory.norms, with no warning
    rows[5] = 1e300
    stack = mild.Trajectory(times, rows, like)
    got = radial.lq_norm(stack, 4.0)
    assert got[5] == math.inf and all(map(math.isfinite, got[:5] + got[6:]))
    assert radial.lq_norm(like.with_values(rows[5]), 4.0) == math.inf
    with pytest.raises(Overflow):
        stack.norms(4.0)


def test_x_distance_demands_common_grid():
    g = _grid(128)
    f = radial.RadialField(g, np.zeros(g.m), 3.0)
    two = np.zeros((2, g.m))
    a = mild.Trajectory(times=np.array([0.5, 1.0]), values=two, like=f)
    b = mild.Trajectory(times=np.array([0.5, 2.0]), values=two, like=f)
    with pytest.raises(ValueError):
        mild.x_distance(a, b, 0.5, 2.0)


def test_config_validation():
    with pytest.raises(ValueError):
        mild.MildConfig(picard_tol=0.0)
    with pytest.raises(ValueError):
        mild.MildConfig(n_times=4)
    with pytest.raises(ValueError):
        mild.MildConfig(max_picard=1)


def test_csv_row_builders():
    g = _grid(128)
    f = radial.RadialField(g, np.ones(g.m), 3.0)
    traj = mild.Trajectory(times=np.array([0.5, 1.0]),
                           values=np.ones((2, g.m)), like=f)
    rows = mild.trajectory_csv_rows(traj, traj.norms(2.0), mu=0.25)
    assert len(rows) == 2
    assert len(rows[0]) == len(mild.TRAJECTORY_CSV_COLUMNS)
    conv = mild.convergence_csv_rows([1.0, 0.1], [0.1])
    assert conv[0][2] == "" and conv[1][2] == 0.1


# ---------------------------------------------------------------------------
# weak-form residual
# ---------------------------------------------------------------------------

def _solved(cfg):
    params = _params()
    g = radial.RadialGrid.log_spaced(30.0, 512, r_min=0.03)
    u0 = _gaussian(g, 1e-3)
    w = _bump(g, 1e-3)
    sol = mild.solve_global_small(u0, w, params, cfg)
    assert sol.converged
    return sol, u0, w, params


def test_weak_residual_small_and_refining():
    test_fn = mild.bump_test_function(t_end=2.0, r_lo=0.0, r_hi=10.0)
    coarse_sol, u0, w, params = _solved(mild.MildConfig(t_max=5.0, n_times=64))
    coarse = mild.weak_residual(coarse_sol.trajectory, u0, w, params, test_fn)
    fine_sol, _, _, _ = _solved(
        mild.MildConfig(t_max=5.0, n_times=128, duhamel_substeps=6))
    fine = mild.weak_residual(fine_sol.trajectory, u0, w, params, test_fn)
    assert coarse < 0.01
    assert fine < coarse


def test_weak_residual_rejects_oversized_test_support():
    sol, u0, w, params = _solved(mild.MildConfig(t_max=2.0, n_times=16))
    with pytest.raises(ValueError):
        mild.weak_residual(sol.trajectory, u0, w, params,
                           mild.bump_test_function(3.0, 0.0, 10.0))
    with pytest.raises(ValueError):
        mild.weak_residual(sol.trajectory, u0, w, params,
                           mild.bump_test_function(1.0, 0.0, 60.0))


@pytest.mark.parametrize("rho", [-0.9, -0.5, -0.1, 0.0, 0.5, 2.0])
def test_forcing_time_factor_matches_adaptive_quadrature(rho):
    # weak_residual integrates int_0^T s^rho eta(s) ds with the capacity
    # module's ramp quadrature: plateau in closed form, ramp by checked
    # Simpson; an independent adaptive quadrature must agree
    for t_end in (0.5, 1.5, 2.0):
        for frac in (0.25, 0.5, 0.9):
            eta = mild.bump_test_function(t_end, 0.0, 1.0, frac).eta
            got = capacity._profile_power_integral(eta, 1.0, rho + 1.0,
                                                   "forcing time factor")
            ref, _ = integrate.quad(lambda s: s ** rho * float(eta(s)), 0.0,
                                    t_end, points=[frac * t_end], limit=200)
            assert got == pytest.approx(ref, rel=1e-8), (t_end, frac)


def test_forcing_time_factor_counts_the_left_value():
    # eta holds its plateau in its left value; written as an explicit
    # plateau piece, it has the same time factor
    eta = mild.bump_test_function(1.5, 0.0, 1.0, 0.5).eta
    flat = (0.0, eta.intervals[0][0], 1.0, 1.0)
    explicit = capacity.RampProfile((flat,) + eta.intervals, left=1.0,
                                    right=0.0)
    for rho in (-0.5, 0.0, 2.0):
        assert (capacity._profile_power_integral(eta, 1.0, rho + 1.0, "t")
                == pytest.approx(capacity._profile_power_integral(
                    explicit, 1.0, rho + 1.0, "t"), rel=1e-14))


@pytest.mark.parametrize("frac", [0.0, 1.0, -0.1])
def test_test_function_rejects_plateau_outside_the_horizon(frac):
    with pytest.raises(ValueError, match="t_flat_frac"):
        mild.bump_test_function(1.0, 0.0, 8.0, t_flat_frac=frac)


def test_test_function_shape():
    fn = mild.bump_test_function(t_end=1.0, r_lo=0.0, r_hi=8.0)
    assert fn.eta(np.array([0.0]))[0] == 1.0
    assert fn.eta(np.array([0.99]))[0] < 0.01
    r = np.array([3.0, 9.0])
    chi = fn.chi(r)
    assert chi[0] == 1.0 and chi[1] == 0.0


# ---------------------------------------------------------------------------
# order of the Duhamel time quadrature
# ---------------------------------------------------------------------------

def _global_run(nsub):
    # the mild-solve demo tuple, data and horizon on a coarser grid
    g = _grid(128)
    cfg = mild.MildConfig(t_max=2.0, n_times=32, duhamel_substeps=nsub)
    sol = mild.solve_global_small(_gaussian(g, 1e-3), _bump(g, 1e-3),
                                  _params(), cfg)
    assert sol.converged
    return np.array(sol.trajectory.values)


def _local_run(nsub):
    params = ProblemParams(N=3, sigma1=0.0, sigma2=0.0, rho=-0.5, p=2.0)
    g = _grid(128)
    cfg = mild.MildConfig(n_times=16, duhamel_substeps=nsub)
    sol = mild.solve_local_Lq(_gaussian(g, 0.5), _bump(g, 0.5), params,
                              q=4.0, horizon_guess=2.0, cfg=cfg)
    assert sol.converged
    return np.array(sol.trajectory.values)


def _strong_run(nsub):
    # a strongly nonlinear local tuple: u0 and w of height 3, T near 0.157
    params = ProblemParams(N=3, sigma1=0.2, sigma2=-0.2, rho=0.1, p=2.0)
    g = _grid(128)
    cfg = mild.MildConfig(n_times=16, duhamel_substeps=nsub)
    sol = mild.solve_local_Lq(_gaussian(g, 3.0), _bump(g, 3.0), params,
                              q=4.0, horizon_guess=2.0, cfg=cfg)
    assert sol.converged
    return np.array(sol.trajectory.values)


@pytest.mark.parametrize("run, floor", [(_global_run, 1.4),
                                        (_local_run, 1.4),
                                        (_strong_run, 1.3)],
                         ids=["global", "local", "strong"])
def test_duhamel_quadrature_order_at_rho_minus_half(run, floor):
    # errors against a 64-substep run at 2, 4 and 8 substeps, F[u] taking
    # half of them.  With each slice weighted by the exact int s^rho ds the
    # observed orders are 1.76 and 1.55 (global) and 1.66 and 1.65 (local);
    # sampling s^rho at slice midpoints gave -0.08 and 0.47, and -0.13 and
    # 0.47, the O(h^(1+rho)) error of the midpoint rule on a singular
    # integrand.  The strong tuple reads 1.56 and 1.42, a pre-asymptotic
    # dip: against a 256-substep run its orders from 8 to 64 substeps are
    # 1.64, 1.76 and 1.89, so its floor sits 0.1 below the dip
    ref = run(64)
    errs = [np.max(np.abs(run(n) - ref)) / np.max(np.abs(ref))
            for n in (2, 4, 8)]
    orders = [math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2])]
    assert min(orders) >= floor, (errs, orders)


# ---------------------------------------------------------------------------
# local-in-time solver
# ---------------------------------------------------------------------------

def test_local_solution_basics():
    params = ProblemParams(N=3, sigma1=0.0, sigma2=0.0, rho=0.0, p=2.0)
    g = _grid(256)
    sol = mild.solve_local_Lq(_gaussian(g, 0.5), _bump(g, 0.5), params,
                              q=4.0, horizon_guess=1.0)
    assert sol.converged
    assert 0.0 < sol.t_end <= 1.0
    assert sol.radius > 0.0 and sol.c1 > 0.0 and sol.c2 > 0.0
    assert sol.continuity_jump < 5.0 * sol.scheme_tol
    assert sol.trajectory.times[-1] == pytest.approx(sol.t_end, rel=1e-12)


def test_local_zero_data_runs_the_full_horizon():
    params = ProblemParams(N=3, sigma1=0.0, sigma2=0.0, rho=0.0, p=2.0)
    g = _grid(128)
    u0 = radial.RadialField(g, np.zeros(g.m), 3.0)
    sol = mild.solve_local_Lq(u0, None, params, q=4.0, horizon_guess=0.7)
    assert sol.t_end == pytest.approx(0.7)
    assert sol.trajectory.x_norm(0.0, sol.q) == 0.0
    assert sol.converged


@pytest.mark.filterwarnings("error")
def test_overflowing_source_weight_is_an_overflow():
    # r^(s2 - s1) with s2 = 1e300 is beyond the float range for r > 1
    params = ProblemParams(N=2, sigma1=0.0, sigma2=1e300, rho=0.0, p=2.0)
    g = radial.RadialGrid.log_spaced(2.0, 16, r_min=0.5)
    u0 = radial.field_from_callable(g, radial.gaussian_profile(0.0, 1.0, 0.5),
                                    2.0)
    w = radial.field_from_callable(g, radial.bump_profile(1.0, 1.0), 2.0)
    with pytest.raises(Overflow):
        mild.solve_local_Lq(u0, w, params, q=4.0, horizon_guess=1.0)


def test_local_rejects_inadmissible_index():
    params = ProblemParams(N=3, sigma1=0.0, sigma2=0.0, rho=0.0, p=2.0)
    g = _grid(128)
    with pytest.raises(Inadmissible):
        mild.solve_local_Lq(_gaussian(g, 0.5), None, params,
                            q=1.5, horizon_guess=1.0)


# ---------------------------------------------------------------------------
# the demo runs: pinned bits and a work budget
# ---------------------------------------------------------------------------

def _demo_run(tmp_path_factory, command, name):
    """Run a demo config through the CLI; returns the solution, the numbers
    of RadialFields built, of marches, of _power_integral calls in mild and
    of TR-BDF2 steps, and the output directory."""
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                       "configs", name)
    got, built, marches, powers, steps = {}, [], [], [], []
    solver = getattr(cli, command)
    post_init = radial.RadialField.__post_init__
    march = semigroup.SemigroupOp.march
    power = mild._power_integral
    step = semigroup.SemigroupOp._step

    def counted_field(self):
        built.append(None)
        post_init(self)

    def counted_march(*args, **kwargs):
        marches.append(None)
        return march(*args, **kwargs)

    def counted_power(*args):
        powers.append(None)
        return power(*args)

    def counted_step(*args):
        steps.append(None)
        return step(*args)

    def kept(*args, **kwargs):
        got["sol"] = solver(*args, **kwargs)
        return got["sol"]

    out = tmp_path_factory.mktemp("demo_" + command)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radial.RadialField, "__post_init__", counted_field)
        mp.setattr(semigroup.SemigroupOp, "march", counted_march)
        mp.setattr(mild, "_power_integral", counted_power)
        mp.setattr(semigroup.SemigroupOp, "_step", counted_step)
        mp.setattr(cli, command, kept)
        mode = name[:-len(".cfg")].replace("_", "-")
        assert cli.main([mode, "--config", cfg, "--out", str(out)]) == 0
    return (got["sol"], len(built), len(marches), len(powers), len(steps),
            out)


@pytest.fixture(scope="module")
def local_demo(tmp_path_factory):
    return _demo_run(tmp_path_factory, "solve_local_Lq", "local_solve.cfg")


@pytest.fixture(scope="module")
def global_demo(tmp_path_factory):
    return _demo_run(tmp_path_factory, "solve_global_small", "mild_solve.cfg")


def test_local_demo_keeps_its_horizon(local_demo):
    assert repr(local_demo[0].t_end) == "0.8976844053855424"


def test_global_demo_keeps_its_certificate(global_demo):
    sol = global_demo[0]
    assert sol.trajectory.x_norm(sol.mu, sol.r) == 0.0007392269520816072
    assert sol.diffs == [0.0007392268989013923, 7.74883718505878e-11]


def _cli_norm_passes(tmp_path, monkeypatch, command, solver):
    """lq_norm calls inside the solver and outside it, in the CLI, on the
    command's demo config."""
    solving, calls = [False], {True: 0, False: 0}
    orig_norm, orig_solve = radial.lq_norm, getattr(cli, solver)

    def lq_norm(*args):
        calls[solving[0]] += 1
        return orig_norm(*args)

    def solve(*args, **kwargs):
        solving[0] = True
        try:
            return orig_solve(*args, **kwargs)
        finally:
            solving[0] = False

    monkeypatch.setattr(radial, "lq_norm", lq_norm)
    monkeypatch.setattr(cli, solver, solve)
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                       "configs", command.replace("-", "_") + ".cfg")
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    return calls[True], calls[False]


def test_mild_solve_takes_the_final_norms_once(tmp_path, monkeypatch):
    # the comment line's x_norm is read off the CSV rows' weighted_norm
    # column, so the CLI adds one norm pass to the solver's, not two
    solver, cli_only = _cli_norm_passes(tmp_path, monkeypatch, "mild-solve",
                                        "solve_global_small")
    assert solver > 0 and cli_only == 1
    with open(tmp_path / "mild_trajectory.csv") as fh:
        text = fh.read()
    assert "x_norm=%.10g" % 0.0007392269520796437 in text


def test_local_solve_takes_no_norms_beyond_the_solvers(tmp_path, monkeypatch):
    # the CSV rows are written from the trace the continuity gate took
    solver, cli_only = _cli_norm_passes(tmp_path, monkeypatch, "local-solve",
                                        "solve_local_Lq")
    assert solver > 0 and cli_only == 0


def test_local_demo_stays_within_its_work_budget(local_demo):
    # 1,412 RadialFields when every stored time of every iterate was one;
    # the solver now builds a handful, the CLI's own the rest
    sol, built, marches = local_demo[:3]
    assert built <= 400
    # the probe's forcing, linear and nonlinear parts, the final linear
    # part, then one march per Picard step
    assert 0 < marches <= 3 + 1 + len(sol.ratios)
    # 64 stored times of 4 TR-BDF2 steps for each of the probe's two
    # linear marches and the final one, of 2 for each F[u] march (the
    # probe's and one per Picard step): 2,048 with 9 Picard steps, 3,328
    # when F[u] took all 4 slices
    assert local_demo[4] <= 2048


def test_local_demo_weighs_each_slice_once_per_grid(local_demo):
    # the probe grid and the final grid: 64 stored times of 4 slices, each
    # weighing the forcing, plus the 2 head-cell slices of F[u]; Picard
    # steps reuse the final grid's weights
    sol, powers = local_demo[0], local_demo[3]
    assert len(sol.ratios) >= 2
    assert powers == 2 * (64 * 4 + 2)


_DEMO_CSV_SHA256 = {
    "local_trajectory.csv": "42b79cac5c878166",
    "mild_trajectory.csv": "126f41b1df59c90b",
    "mild_convergence.csv": "a1586aa6329654b9",
}


def test_demo_csvs_keep_their_bytes(local_demo, global_demo):
    # the mild-solve and local-solve CSVs are pinned byte for byte
    got = {}
    for out in (local_demo[-1], global_demo[-1]):
        for path in out.iterdir():
            got[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    assert got == _DEMO_CSV_SHA256
