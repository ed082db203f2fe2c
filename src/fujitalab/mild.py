"""Mild-solution solvers built on the Duhamel integral form.

The forced problem is recast as the fixed-point equation

    u(t) = S(t) u0 + F(u)(t) + H(t),
    F(u)(t) = int_0^t S(t-s) ( r^(s2-s1) |u(s)|^p ) ds,
    H(t)    = int_0^t S(t-s) ( s^rho  r^(-s1)  w ) ds,

where S is the semigroup of the weighted linear part.  Two constructions
share one quadrature engine and one Picard driver: a global small-data
solver contracting in the time-weighted norm sup_t t^mu ||u(t)||_{L^r},
and a local-in-time solver working in plain C([0,T]; L^q) (mu = 0, r = q).

Every time integral is one SemigroupOp.march across a log-spaced grid of
stored times, each interval cut into equal slices, each slice one TR-BDF2
step with a constant source; an interval's sources are one array.
A slice weighs the forcing by the exact integral of s^rho over it, so the
singularity at s = 0 (rho < 0) does not cap the order at 1 + rho; the
nonlinear source on the cell touching t = 0 follows the power law
(s/t_1)^theta of the first stored time t_1, weighed the same way.  The
linear part S(t) u0 + H(t) is one such march from u0.  A trajectory is one
(n_times, m) array, whose norms radial.lq_norm takes in one pass.
The weak-form residual's test function is made of capacity's ramp profiles.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .capacity import RampProfile, _profile_power_integral
from .errors import NotContracting, NoValidT, NumericalFailure, Overflow
from .exponents import (ProblemParams, _power_integral, derived_weights,
                        local_alpha, require_admissible_q)
from .radial import RadialField, lq_norm, sphere_area
from .semigroup import SemigroupOp

OVERFLOW_GUARD = 1e30


@dataclass(frozen=True)
class MildConfig:
    """Knobs shared by the global and local fixed-point solvers.

    r is the Lebesgue index of the global solver's contraction metric; it
    defaults to the admissible-window midpoint when left None, and the
    time weight mu follows from it.  t_max is the horizon surrogate of the
    global construction; stored times are log-spaced on [1e-3 t_max, t_max]
    with n_times points, since the t^mu weight cannot be evaluated at t = 0.
    """

    r: Optional[float] = None
    max_picard: int = 20
    picard_tol: float = 1e-10
    duhamel_substeps: int = 4
    t_max: float = 10.0
    n_times: int = 64

    def __post_init__(self):
        if not self.picard_tol > 0.0:
            raise ValueError("picard_tol must be positive")
        if self.max_picard < 2:
            raise ValueError("max_picard must be at least 2")
        if self.duhamel_substeps < 1:
            raise ValueError("duhamel_substeps must be at least 1")
        if not self.t_max > 0.0:
            raise ValueError("t_max must be positive")
        if self.n_times < 8:
            raise ValueError("n_times must be at least 8")


class Trajectory:
    """Snapshots at increasing positive times.

    ``values`` has one row per time, on the grid and in the dimension of
    ``like``, so lq_norm(trajectory, q) gives the norm of every row.
    """

    def __init__(self, times: np.ndarray, values, like: RadialField):
        t = np.asarray(times, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("times must be a nonempty 1-d array")
        if t[0] <= 0.0 or np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be positive and strictly increasing")
        v = np.asarray(values, dtype=float)
        if v.shape != (t.size, like.grid.m):
            raise ValueError("need values of shape (%d, %d), got %s"
                             % (t.size, like.grid.m, v.shape))
        self.times, self.values = t, v
        self.grid, self.dimension = like.grid, like.dimension

    def norms(self, q: float) -> np.ndarray:
        """L^q norm of every stored time; Overflow where one is inf."""
        out = lq_norm(self, q)
        if not all(map(math.isfinite, out)):
            raise Overflow("an L^%g norm overflowed" % q)
        return np.array(out)

    def x_norm(self, mu: float, r: float) -> float:
        """The X-norm sup_j times[j]^mu ||values[j]||_{L^r}."""
        out = 0.0
        for t, n in zip(self.times, self.norms(r)):
            out = max(out, t ** mu * n)
        return out


def x_distance(a: Trajectory, b: Trajectory, mu: float, r: float) -> float:
    """sup_j t_j^mu ||a_j - b_j||_{L^r} over the common time grid."""
    if a.times.size != b.times.size or np.any(a.times != b.times):
        raise ValueError("trajectories live on different time grids")
    return Trajectory(a.times, a.values - b.values, a).x_norm(mu, r)


def _time_grid(t_max: float, n_times: int) -> np.ndarray:
    return np.geomspace(1e-3 * t_max, t_max, n_times)


# ---------------------------------------------------------------------------
# quadrature engine
# ---------------------------------------------------------------------------

def _nonlinear_values(op: SemigroupOp, u_vals: np.ndarray,
                      params: ProblemParams, times: np.ndarray, nsub: int,
                      head_theta: float) -> np.ndarray:
    """March the nonlinear integral F[u] across the stored times.

    On the head cell (0, t_1], t_1 = times[0], the source is modelled as
    (s/t_1)^head_theta g(t_1): the self-similar profile of the weighted
    construction (head_theta = -p mu > -1) or a frozen constant (0) for
    the local theory, integrated exactly as a forcing.  Interior slices
    interpolate u log-linearly in time between stored snapshots, all
    slices of an interval in one (nsub, m) array.
    """
    if head_theta <= -1.0:
        raise ValueError("head cell diverges for exponent %g" % head_theta)
    wgt = op.weight(params.sigma2 - params.sigma1)
    p, t1, ks = params.p, times[0], range(nsub)

    def source(j, t_prev, h):       # called by the march, overflow ignored
        if j == 0:
            vals, c = u_vals[0], np.array(
                [t1 * _power_integral(k * h / t1, (k + 1) * h / t1,
                                      head_theta + 1.0) for k in ks])
        else:
            span = math.log(times[j] / t_prev)
            frac = np.array([math.log((t_prev + (k + 0.5) * h) / t_prev)
                             / span for k in ks])[:, None]
            vals = (1.0 - frac) * u_vals[j - 1] + frac * u_vals[j]
            c = np.full(nsub, h)
        g = wgt * np.abs(vals) ** p
        if not np.isfinite(g).all():
            raise Overflow("the source r^(s2-s1) |u|^p overflowed")
        return g, c

    return op.march(np.zeros_like(u_vals[0]), times, nsub, source)


def _linear_values(op: SemigroupOp, u0: RadialField,
                   w: Optional[RadialField], params: ProblemParams,
                   times: np.ndarray, nsub: int) -> np.ndarray:
    """S(t) u0 + H(t) at the stored times, as one (n_times, m) array: one
    march from u0 whose source r^(-s1) w each slice weighs by the exact
    integral of s^rho over it, or without a source when w is zero."""
    source = None
    if w is not None and np.any(w.values != 0.0):
        src, e = op.time_weight * w.values, params.rho + 1.0

        def source(j, t_prev, h):
            return src, np.array([_power_integral(t_prev + k * h,
                                                  t_prev + (k + 1) * h, e)
                                  for k in range(nsub)])
    return op.march(u0.values, times, nsub, source)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def duhamel_forcing(w: RadialField, params: ProblemParams,
                    t_grid: Sequence[float],
                    cfg: Optional[MildConfig] = None) -> Trajectory:
    """Forcing response H(t) on the given times by substep quadrature."""
    cfg = cfg if cfg is not None else MildConfig()
    times = np.asarray(t_grid, dtype=float)
    zero = w.with_values(np.zeros_like(w.values))
    vals = _linear_values(SemigroupOp(w.grid, params), zero, w, params, times,
                          cfg.duhamel_substeps)
    return Trajectory(times, vals, w)


def picard_step(u_n: Trajectory, u0: RadialField, w: Optional[RadialField],
                params: ProblemParams, cfg: Optional[MildConfig] = None,
                linear: Optional[Trajectory] = None,
                head_theta: Optional[float] = None,
                metric: Optional[Tuple[float, float]] = None) -> Trajectory:
    """One fixed-point application G(u) = S(t) u0 + F(u) + H.

    linear may carry a precomputed S(t) u0 + H trajectory on the same time
    grid to avoid recomputing it on every iteration.  The head-cell
    exponent defaults to -p mu, mu from metric = (mu, r) or else from
    derived_weights(params, cfg.r), which raises EmptyWindow outside the
    global theory.  Raises Overflow when any output value exceeds the
    divergence guard.
    """
    cfg = cfg if cfg is not None else MildConfig()
    times = u_n.times
    op = SemigroupOp(u0.grid, params)
    if head_theta is None:
        mu = metric[0] if metric else derived_weights(params, cfg.r).mu
        head_theta = -params.p * mu
    if linear is None:
        lin_vals = _linear_values(op, u0, w, params, times,
                                  cfg.duhamel_substeps)
    else:
        lin_vals = linear.values
    out = lin_vals + _nonlinear_values(op, u_n.values, params, times,
                                       cfg.duhamel_substeps, head_theta)
    worst = float(np.max(np.abs(out)))
    if worst > OVERFLOW_GUARD:
        raise Overflow("iterate reached %g, beyond the %g guard"
                       % (worst, OVERFLOW_GUARD))
    return Trajectory(times, out, u0)


def _iterate(linear: Trajectory, u0: RadialField, w: Optional[RadialField],
             params: ProblemParams, cfg: MildConfig, head_theta: float,
             metric: Tuple[float, float]
             ) -> Tuple[Trajectory, List[float], List[float], bool]:
    """Picard iteration from the linear part G(0) in the metric (mu, r).

    Returns the last iterate, the distances of consecutive iterates, their
    ratios and whether the last distance fell below picard_tol.
    """
    mu, r = metric
    u_prev = linear
    diffs = [linear.x_norm(mu, r)]   # iterate 1 against the zero iterate 0
    ratios: List[float] = []
    if diffs[0] < cfg.picard_tol:
        return u_prev, diffs, ratios, True
    for _ in range(1, cfg.max_picard):
        u_next = picard_step(u_prev, u0, w, params, cfg, linear=linear,
                             head_theta=head_theta)
        d = x_distance(u_next, u_prev, mu, r)
        ratios.append(d / diffs[-1])
        diffs.append(d)
        u_prev = u_next
        if len(ratios) >= 3 and all(q >= 1.0 for q in ratios[-3:]):
            raise NotContracting(
                "difference ratios %s show no contraction; the data is "
                "likely too large for the fixed-point construction"
                % ["%.3g" % q for q in ratios[-3:]])
        if d < cfg.picard_tol:
            return u_prev, diffs, ratios, True
    return u_prev, diffs, ratios, False


@dataclass
class GlobalSolution:
    """Fixed point of the weighted-metric construction plus its certificate."""

    trajectory: Trajectory
    diffs: List[float]
    ratios: List[float]
    converged: bool
    r: float
    mu: float


def solve_global_small(u0: RadialField, w: Optional[RadialField],
                       params: ProblemParams,
                       cfg: Optional[MildConfig] = None) -> GlobalSolution:
    """Picard iteration in the t^mu-weighted L^r metric.

    The seed is the linear part G(0); iteration stops when consecutive
    iterates differ by less than picard_tol in the X norm.  Per-iteration
    contraction ratios are reported; three consecutive ratios at or above
    one abort with NotContracting, the signature of data too large for the
    small-data regime.
    """
    cfg = cfg if cfg is not None else MildConfig()
    weights = derived_weights(params, cfg.r)
    mu, r = weights.mu, weights.r
    times = _time_grid(cfg.t_max, cfg.n_times)
    op = SemigroupOp(u0.grid, params)
    lin_vals = _linear_values(op, u0, w, params, times, cfg.duhamel_substeps)
    linear = Trajectory(times, lin_vals, u0)
    u, diffs, ratios, converged = _iterate(linear, u0, w, params, cfg,
                                           -params.p * mu, (mu, r))
    return GlobalSolution(u, diffs, ratios, converged, r, mu)


@dataclass
class LocalSolution:
    """Local-in-time fixed point with its existence-window bookkeeping."""

    trajectory: Trajectory
    t_end: float
    q: float
    radius: float
    c1: float
    c2: float
    continuity_jump: float
    scheme_tol: float
    diffs: List[float]
    ratios: List[float]
    converged: bool


def solve_local_Lq(u0: RadialField, w: Optional[RadialField],
                   params: ProblemParams, q: float, horizon_guess: float,
                   cfg: Optional[MildConfig] = None) -> LocalSolution:
    """Local existence run in C([0,T]; L^q) with an empirical horizon.

    The closure inequality R(T) = C1 T^(1-alpha) M^p + C2 |f|_q T^(rho+1)
    <= M/2 selects the horizon: C1 and C2 are measured from probe
    evaluations of the two Duhamel integrals on the linear trace (the
    theory's constants are non-constructive), M is twice the sup of the
    linear response, and T is the largest admissible time up to the guess.
    Raises NoValidT when even the smallest probe step fails the
    inequality, and NumericalFailure when the probe norms of nonzero data
    underflow to 0 or the fixed point's L^q trace jumps by more than five
    times the linear trace's own grid modulus.
    """
    require_admissible_q(params, q)
    if not horizon_guess > 0.0:
        raise ValueError("horizon_guess must be positive")
    cfg = cfg if cfg is not None else MildConfig()
    alpha = local_alpha(params, q)
    nsub = cfg.duhamel_substeps
    op = SemigroupOp(u0.grid, params)

    probe_times = _time_grid(horizon_guess, cfg.n_times)

    def probe_norms(vals, times=probe_times):
        return Trajectory(times, vals, u0).norms(q)

    h_probe = None
    if w is not None and np.any(w.values != 0.0):
        # Overflow before any probe unless T^(rho+1) and its integral fit
        _power_integral(0.0, horizon_guess, params.rho + 1.0)
        zero = u0.with_values(np.zeros_like(u0.values))
        h_probe = _linear_values(op, zero, w, params, probe_times, nsub)
    lin_probe = _linear_values(op, u0, w, params, probe_times, nsub)
    m0 = float(np.max(probe_norms(lin_probe)))
    if m0 == 0.0:
        if np.any(u0.values != 0.0) or h_probe is not None:
            raise NumericalFailure(
                "the L^%g norms of the nonzero linear response underflow to "
                "0 on the probe times up to %g" % (q, horizon_guess))
        traj = Trajectory(probe_times, np.zeros_like(lin_probe), u0)
        return LocalSolution(traj, horizon_guess, q, 0.0, 0.0, 0.0,
                             0.0, cfg.picard_tol, [0.0], [], True)
    radius = 2.0 * m0

    f_probe = _nonlinear_values(op, lin_probe, params, probe_times, nsub, 0.0)
    c1 = max(n / (t ** (1.0 - alpha) * m0 ** params.p)
             for t, n in zip(probe_times, probe_norms(f_probe)))
    f_norm = 0.0
    c2 = 0.0
    if h_probe is not None:
        f_norm = float(probe_norms([op.time_weight * w.values],
                                   probe_times[:1])[0])
        with np.errstate(all="ignore"):
            c2 = float(np.max([n / (f_norm * t ** (params.rho + 1.0))
                               for t, n in zip(probe_times,
                                               probe_norms(h_probe))]))
        if not math.isfinite(c2):
            raise Overflow("the forcing constant C2 is not finite on the "
                           "probe times")

    def closure(t_end: float) -> float:
        value = c1 * t_end ** (1.0 - alpha) * radius ** params.p
        if c2 > 0.0:    # then T^(rho+1) is finite up to the guess
            value += c2 * f_norm * t_end ** (params.rho + 1.0)
        return value

    t_floor = 1e-6 * horizon_guess
    if closure(t_floor) > 0.5 * radius:
        raise NoValidT("closure value %g exceeds %g even at T=%g"
                       % (closure(t_floor), 0.5 * radius, t_floor))
    if closure(horizon_guess) <= 0.5 * radius:
        t_end = horizon_guess
    else:
        lo, hi = t_floor, horizon_guess
        for _ in range(80):
            mid = math.sqrt(lo * hi)
            if closure(mid) <= 0.5 * radius:
                lo = mid
            else:
                hi = mid
        t_end = lo

    times = _time_grid(t_end, cfg.n_times)
    lin_vals = _linear_values(op, u0, w, params, times, nsub)
    linear = Trajectory(times, lin_vals, u0)
    u, diffs, ratios, converged = _iterate(linear, u0, w, params, cfg, 0.0,
                                           (0.0, q))

    trace = u.norms(q)
    lin_trace = linear.norms(q)
    jump = float(np.max(np.abs(np.diff(trace))))
    scheme_tol = max(float(np.max(np.abs(np.diff(lin_trace)))),
                     cfg.picard_tol)
    if jump > 5.0 * scheme_tol:
        raise NumericalFailure(
            "L^q trace jumps by %g, beyond 5x the scheme modulus %g"
            % (jump, scheme_tol))
    return LocalSolution(u, t_end, q, radius, c1, c2, jump,
                         scheme_tol, diffs, ratios, converged)


# ---------------------------------------------------------------------------
# weak-form residual
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceTimeTest:
    """Separable C^2 test function eta(t) chi(r), compactly supported.

    Both factors are quintic-smoothstep ramp profiles, so the weak-form
    pairing takes their derivatives in closed form.
    """

    eta: RampProfile
    chi: RampProfile


def bump_test_function(t_end: float, r_lo: float, r_hi: float,
                       t_flat_frac: float = 0.5) -> SpaceTimeTest:
    """Standard plateau test function on [0, t_end] x [r_lo, r_hi].

    eta equals 1 on [0, t_flat_frac t_end], 0 < t_flat_frac < 1, and ramps
    to 0 at t_end; chi ramps up over the first quarter of [r_lo, r_hi],
    holds 1, and ramps down over the last quarter.
    """
    if not (0.0 <= r_lo < r_hi and t_end > 0.0 and 0.0 < t_flat_frac < 1.0):
        raise ValueError("need 0 <= r_lo < r_hi, t_end > 0, 0 < t_flat_frac < 1")
    span = r_hi - r_lo
    r_a, r_b = r_lo + 0.25 * span, r_hi - 0.25 * span
    eta = RampProfile(intervals=((t_flat_frac * t_end, t_end, 1.0, 0.0),),
                      left=1.0, right=0.0)
    chi = RampProfile(intervals=((r_lo, r_a, 0.0, 1.0), (r_a, r_b, 1.0, 1.0),
                                 (r_b, r_hi, 1.0, 0.0)),
                      left=0.0, right=0.0)
    return SpaceTimeTest(eta=eta, chi=chi)


def weak_residual(traj: Trajectory, u0: RadialField,
                  w: Optional[RadialField], params: ProblemParams,
                  test: SpaceTimeTest) -> float:
    """Relative defect of the distributional form of the equation.

    Pairs the trajectory against eta(t) chi(r): the sum of the evolution
    term int u (r^s1 Q_t + Lap Q), the source term
    int (r^s2 |u|^p + t^rho w) Q, and the initial pairing
    int r^s1 u0 Q(0) vanishes for exact solutions.  Returns |sum| divided
    by the largest term magnitude; time quadrature is trapezoidal over
    the stored grid with u(0) = u0 prepended, except the t^rho factor of
    the forcing, which separates: exact on eta's plateau, Simpson on its ramp.

    The test support must end inside the trajectory horizon and inside
    the radial grid, otherwise the truncated quadrature is meaningless.
    """
    t_end, r_hi = test.eta.intervals[-1][1], test.chi.intervals[-1][1]
    if t_end > traj.times[-1]:
        raise ValueError("test support [0, %g] exceeds the trajectory "
                         "horizon %g" % (t_end, traj.times[-1]))
    grid = u0.grid
    if r_hi > grid.nodes[-1]:
        raise ValueError("test support reaches r=%g beyond the grid edge %g"
                         % (r_hi, grid.nodes[-1]))
    r = grid.nodes
    cw = grid.cell_widths()
    area = sphere_area(float(params.N))
    meas = area * r ** (params.N - 1.0) * cw
    chi = test.chi(r)
    lap_chi = test.chi.d2(r) + (params.N - 1.0) / r * test.chi.d1(r)
    w_s1 = r ** params.sigma1
    w_s2 = r ** params.sigma2

    times = np.concatenate(([0.0], traj.times))
    vals = [u0.values] + list(traj.values)
    evo = np.empty(times.size)
    src = np.empty(times.size)
    for i, (t, v) in enumerate(zip(times, vals)):
        eta, eta_d = float(test.eta(t)), float(test.eta.d1(t))
        evo[i] = float(np.sum(v * (w_s1 * eta_d * chi + eta * lap_chi)
                              * meas))
        src[i] = float(np.sum(w_s2 * np.abs(v) ** params.p * eta * chi
                              * meas))
    term_evo = float(np.trapezoid(evo, times))
    term_src = float(np.trapezoid(src, times))

    term_force = 0.0
    if w is not None and np.any(w.values != 0.0):
        space = float(np.sum(w.values * chi * meas))
        term_force = space * _profile_power_integral(
            test.eta, 1.0, params.rho + 1.0, "forcing time factor")
    term_init = float(np.sum(w_s1 * u0.values * chi * meas))

    total = term_evo + term_src + term_force + term_init
    scale = max(abs(term_evo), abs(term_src) + abs(term_force),
                abs(term_init))
    if scale == 0.0:
        return 0.0
    return abs(total) / scale


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

TRAJECTORY_CSV_COLUMNS = ["t", "Lr_norm", "weighted_norm", "max_value"]

CONVERGENCE_CSV_COLUMNS = ["iteration", "x_norm_diff", "ratio"]


def trajectory_csv_rows(traj: Trajectory, r: float, mu: float) -> List[list]:
    peaks = np.max(np.abs(traj.values), axis=1)
    return [[float(t), float(n), float(t ** mu * n), float(peak)]
            for t, n, peak in zip(traj.times, traj.norms(r), peaks)]


def convergence_csv_rows(diffs: Sequence[float],
                         ratios: Sequence[float]) -> List[list]:
    rows = []
    for k, d in enumerate(diffs):
        ratio = ratios[k - 1] if 1 <= k <= len(ratios) else ""
        rows.append([k + 1, float(d), ratio])
    return rows
