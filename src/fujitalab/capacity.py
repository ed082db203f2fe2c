"""Test-function capacity integrals and their exponent fits.

Testing the equation against a separable space-time cutoff turns the
nonexistence question into a race of three integrals: the capacity of the
time derivative, the capacity of the Laplacian, and the forcing response.
Each factors exactly into a 1-D profile integral times powers of the
spatial radius R and the horizon T, so slopes in log R can be measured
essentially to quadrature accuracy and compared with the closed forms.
The profile constants depend on (N, s1, s2, p) alone, so a fit computes
them once and then only scales them by R and T per radius; the forcing
response, which no fit reads, is computed only by capacity_integrals.

The cutoff profiles are piecewise quintic smoothsteps: the supports and
plateau values are dictated by the construction, while the ramp shape is
our choice (any C^2 interpolation works; constants, not exponents, depend
on it).  The same ramp profiles build the test function of the mild
solver's weak-form residual (mild.weak_residual).  All quadrature is fixed
composite Simpson on the ramp bands (1024 pairs each, checked against the
512-pair sum over every other node of the same samples), split at sign
changes of the integrand core, so runs are deterministic.  Each span lies
in one ramp piece and is evaluated on that piece alone: one jet gives the
value and both derivatives from the whole profile's own formulas, with
the same bits, at about two thirds of the cost of a pass over every
piece.  Each sign change is bisected to machine accuracy from batched
core passes over a six-level dyadic midpoint tree, about 8 calls where
one call per step took about 47, at the same split points bit for bit.

A warning on the logarithmic cutoff used at the critical power: its
capacity is a slowly varying function of log R, and the leading power of
log R emerges only once log R dwarfs the ramp's shape constants.  On
desk-scale ranges of R the measured log-log slope overshoots the
asymptotic one (N=4, p=2, theory -1: slope -2.13 on R in [1e2, 1e6]);
it is -0.82 on [1e12, 1e32] and reaches -0.974 (R^2 0.99998) only on
[1e100, 1e300], near the top of the float range.  See log_capacity_fit
for the honest reporting.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ConditionViolation, Overflow, PoorFit, QuadratureFailure
from .exponents import ProblemParams, _power_integral, critical_forced
from .radial import sphere_area
from .semigroup import SlopeFit

__all__ = [
    "RampProfile", "PSI", "PHI", "LOG_PHI",
    "CapacityParts", "capacity_integrals",
    "CapacityFitReport", "capacity_exponent_fit",
    "LogCapacityReport", "log_capacity_fit", "log_space_capacity",
    "FIT_CSV_COLUMNS",
]

_RAMP_STEPS = 2048       # Simpson steps per ramp span, checked on every other node
_QUAD_RTOL = 1e-6
_SPLIT_DEPTH = 6         # bisection steps per batched core pass of _sign_split
_R2_FLOOR = 0.99         # fits below this R^2 raise PoorFit
_LOG_MAX = math.log(np.finfo(float).max)


@contextmanager
def _overflow(what: str):
    """Overflow naming ``what``, not a numpy warning or an OverflowError."""
    try:
        with np.errstate(over="raise"):
            yield
    except (OverflowError, FloatingPointError):
        raise Overflow("%s leaves the float range" % what) from None


# --------------------------------------------------------------------------
# quintic smoothstep and piecewise profiles
# --------------------------------------------------------------------------

# the quintic smoothstep 10 x^3 - 15 x^4 + 6 x^5 and its first two
# derivatives, on x in [0, 1]

def _s5(xc: np.ndarray) -> np.ndarray:
    return xc ** 3 * (10.0 - 15.0 * xc + 6.0 * xc * xc)


def _ds5(xc: np.ndarray) -> np.ndarray:
    return 30.0 * xc ** 2 * (1.0 - xc) ** 2


def _d2s5(xc: np.ndarray) -> np.ndarray:
    return 60.0 * xc * (1.0 - 3.0 * xc + 2.0 * xc ** 2)


class _Ramp(NamedTuple):
    """One quintic ramp piece: v_left at lo to v_right at hi."""
    lo: float
    hi: float
    vl: float
    vr: float

    def _jet(self, x, orders: Sequence[int] = (0, 1, 2)) -> Tuple[np.ndarray, ...]:
        """The derivatives of the given orders (0, 1 or 2) of the ramp at x.

        xi = (x - lo) / (hi - lo), its clip to [0, 1] and its inside mask
        0 < xi < 1 are computed once for all orders.  Derivatives vanish
        outside the open ramp, and at xi = 1 the value is
        vl + (vr - vl), which is vr exactly for 0/1 plateau values.
        """
        x = np.asarray(x, dtype=float)
        xi = (x - self.lo) / (self.hi - self.lo)
        if max(orders) > 0:
            inside = (xi > 0.0) & (xi < 1.0)
            xc = np.where(inside, xi, 0.0)
        jet = []
        for k in orders:
            if k == 0:
                jet.append(self.vl + (self.vr - self.vl) * _s5(np.clip(xi, 0.0, 1.0)))
            else:
                shape = _ds5 if k == 1 else _d2s5
                jet.append((self.vr - self.vl) / (self.hi - self.lo) ** k
                           * np.where(inside, shape(xc), 0.0))
        return tuple(jet)


@dataclass(frozen=True)
class RampProfile:
    """C^2 profile made of constant plateaus joined by quintic ramps.

    ``intervals`` is a tuple of (lo, hi, v_left, v_right) pieces, each
    starting where the one before ends and at the value it ends with; a
    piece with v_left == v_right is a plateau, otherwise a smoothstep
    ramp.  ``left`` and ``right`` are the values outside the covered
    range, equal to the first v_left and the last v_right.  Values and the
    first two derivatives are vectorized.
    """

    intervals: Tuple[Tuple[float, float, float, float], ...]
    left: float
    right: float

    def __post_init__(self):
        if not self.intervals:
            raise ValueError("a profile needs at least one piece")
        prev_hi, prev_v = self.intervals[0][0], self.left
        for lo, hi, vl, vr in self.intervals:
            if not hi > lo:
                raise ValueError("profile pieces must be nonempty")
            if lo != prev_hi:
                raise ValueError("profile pieces must meet: a piece starts "
                                 "at %r, not at %r" % (lo, prev_hi))
            if vl != prev_v:
                raise ValueError("profile values must not jump: %r meets %r "
                                 "at %r" % (prev_v, vl, lo))
            prev_hi, prev_v = hi, vr
        if self.right != prev_v:
            raise ValueError("profile values must not jump: %r meets %r "
                             "at %r" % (prev_v, self.right, prev_hi))

    def __call__(self, x) -> np.ndarray:
        return self._evaluate(x, 0)

    def d1(self, x) -> np.ndarray:
        return self._evaluate(x, 1)

    def d2(self, x) -> np.ndarray:
        return self._evaluate(x, 2)

    def _jet(self, x) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self(x), self.d1(x), self.d2(x)

    def _evaluate(self, x, order: int) -> np.ndarray:
        """The derivative of the given order, piece by piece over all of x."""
        x = np.asarray(x, dtype=float)
        if order == 0:
            out = np.where(x < self.intervals[0][0], self.left, self.right)
        else:
            out = np.zeros_like(x)
        for lo, hi, vl, vr in self.intervals:
            if vl != vr:
                piece = _Ramp(lo, hi, vl, vr)._jet(x, (order,))[0]
            elif order == 0:
                piece = vl
            else:
                continue
            out = np.where((x >= lo) & (x < hi), piece, out)
        return out

    def _ramps(self) -> List[_Ramp]:
        return [_Ramp(*piece) for piece in self.intervals if piece[2] != piece[3]]


# The space-time cutoffs of the capacity integrals.  PSI, the time profile:
# 0 on [0, 1/4], 1 on [1/2, 3/4], 0 from 4/5 on.  PHI, the space profile:
# 1 on [0, 1], 0 from 2 on.  LOG_PHI, the space profile in stretched log
# coordinates for the critical power: 1 for s <= 0, 0 from s = 1 on.
PSI = RampProfile(
    intervals=((0.0, 0.25, 0.0, 0.0),
               (0.25, 0.5, 0.0, 1.0),
               (0.5, 0.75, 1.0, 1.0),
               (0.75, 0.8, 1.0, 0.0)),
    left=0.0, right=0.0)
PHI = RampProfile(
    intervals=((0.0, 1.0, 1.0, 1.0),
               (1.0, 2.0, 1.0, 0.0)),
    left=1.0, right=0.0)
LOG_PHI = RampProfile(intervals=((0.0, 1.0, 1.0, 0.0),), left=1.0, right=0.0)


# --------------------------------------------------------------------------
# fixed composite quadrature
# --------------------------------------------------------------------------

def _simpson(y: np.ndarray, h: float) -> float:
    """Composite Simpson sum of an odd number of samples spaced h apart."""
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1::2]) + 2.0 * np.sum(y[2:-2:2])))


def _sign_split(core: Callable[[np.ndarray], np.ndarray],
                lo: float, hi: float) -> Tuple[float, ...]:
    """Panel edges on [lo, hi] split at sign changes of ``core``.

    Integrands of the form |core|^kappa lose smoothness where the core
    crosses zero; splitting the panels there restores the full Simpson
    order.  Roots are bisected until the midpoint is an end of the
    bracket, that is to machine accuracy, deterministically.  A midpoint
    with no known core value costs one core call on every node of the
    _SPLIT_DEPTH-level dyadic tree over the bracket, built with the walk's
    own 0.5 * (a + b); as the core is elementwise, the split points are
    those of one call per step, bit for bit.
    """
    probes = np.linspace(lo, hi, 129)
    vals = np.asarray(core(probes), dtype=float)
    edges = [lo]
    known = {}
    for i in range(len(probes) - 1):
        a, b = probes[i], probes[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0 or fa * fb >= 0.0:
            continue
        mid = 0.5 * (a + b)
        while a < mid < b:
            if mid not in known:
                nodes = _dyadic_nodes(a, b)
                known = dict(zip(nodes.tolist(),
                                 np.asarray(core(nodes), dtype=float).tolist()))
            fm = known[mid]
            if fa * fm <= 0.0:
                b = mid
            else:
                a, fa = mid, fm
            mid = 0.5 * (a + b)
        edges.append(mid)
    edges.append(hi)
    return tuple(edges)


def _dyadic_nodes(a: float, b: float) -> np.ndarray:
    """The interior nodes of the _SPLIT_DEPTH-level midpoint tree over (a, b)."""
    ends = np.array([a, b])
    for _ in range(_SPLIT_DEPTH):
        finer = np.empty(2 * ends.size - 1)
        finer[0::2] = ends
        finer[1::2] = 0.5 * (ends[:-1] + ends[1:])
        ends = finer
    return ends[1:-1]


def _ramp_spans(profile: RampProfile,
                core: Optional[Callable] = None) -> List[Tuple[float, float, _Ramp]]:
    """The ramp bands of ``profile`` as (lo, hi, ramp) spans, each with the
    ramp piece it lies in, split at sign changes of ``core(x, ramp)``."""
    spans = []
    for ramp in profile._ramps():
        edges = ((ramp.lo, ramp.hi) if core is None
                 else _sign_split(lambda x: core(x, ramp), ramp.lo, ramp.hi))
        spans += [(lo, hi, ramp) for lo, hi in zip(edges, edges[1:])]
    return spans


def _simpson_sums(fn: Callable[..., np.ndarray],
                  spans: Sequence[tuple]) -> Tuple[float, float]:
    """(coarse, fine) composite Simpson sums over the (lo, hi) ramp spans.

    Each span's integrand is evaluated once, at _RAMP_STEPS + 1 nodes; the
    coarse sum takes every other node.  A span (lo, hi, ramp) passes its
    ramp piece to ``fn`` after the nodes.
    """
    coarse = fine = 0.0
    for lo, hi, *ramp in spans:
        y = np.asarray(fn(np.linspace(lo, hi, _RAMP_STEPS + 1), *ramp), dtype=float)
        h = (hi - lo) / _RAMP_STEPS
        coarse += _simpson(y[::2], 2.0 * h)
        fine += _simpson(y, h)
    return coarse, fine


def _settled(coarse: float, fine: float, what: str) -> float:
    """fine, when the coarse sum agrees with it to the tolerance; else
    QuadratureFailure rather than a silently wrong number."""
    if abs(fine - coarse) > _QUAD_RTOL * max(abs(fine), 1e-300) + 1e-300:
        raise QuadratureFailure(
            "quadrature for the %s did not settle: %.3e vs %.3e"
            % (what, coarse, fine))
    return fine


def _integrate(fn: Callable[..., np.ndarray],
               spans: Sequence[tuple], what: str) -> float:
    """Composite Simpson over the (lo, hi) ramp spans, checked."""
    return _settled(*_simpson_sums(fn, spans), what)


def _profile_power_integral(profile: RampProfile, power: float,
                            exponent: float, what: str) -> float:
    """integral of profile(y)^power * y^(exponent - 1) dy over [0, inf).

    Plateau pieces, and ``left`` before the first piece, integrate in
    closed form (``_power_integral``), ramp pieces numerically.  The
    coarse-to-fine check is made on the whole integral, so a ramp piece
    that is a negligible share of it (psi's rise, under a large exponent)
    cannot fail it.  The profile must vanish beyond its last piece (psi and
    phi do) and ``exponent`` must be positive for integrability at the
    origin.
    """
    if exponent <= 0.0:
        raise QuadratureFailure(
            "the %s integrand is not integrable at the origin "
            "(radial exponent %.6g <= 0)" % (what, exponent))
    lo0 = profile.intervals[0][0]
    total = coarse = profile.left ** power * _power_integral(0.0, lo0, exponent)
    fn = lambda y, ramp: ramp._jet(y, (0,))[0] ** power * y ** (exponent - 1.0)
    for lo, hi, vl, vr in profile.intervals:
        if vl != vr:
            piece_coarse, piece = _simpson_sums(fn, [(lo, hi, _Ramp(lo, hi, vl, vr))])
        elif vl != 0.0:
            piece_coarse = piece = vl ** power * _power_integral(lo, hi, exponent)
        else:
            continue
        total += piece
        coarse += piece_coarse
    return _settled(coarse, total, what)


# --------------------------------------------------------------------------
# the three capacity integrals
# --------------------------------------------------------------------------

class CapacityParts(NamedTuple):
    time: float
    space: float
    forcing: float


def _exponents(params: ProblemParams) -> Tuple[float, float, float]:
    """kappa = p/(p-1) and the R-powers a_time, a_space of the capacities."""
    p = params.p
    n_dim = float(params.N)
    return (p / (p - 1.0),
            n_dim + (params.sigma1 * p - params.sigma2) / (p - 1.0),
            n_dim - (2.0 * p + params.sigma2) / (p - 1.0))


def _space_core(phi: RampProfile, dim: float, kappa: float) -> Callable:
    # The Laplacian capacity integrand contains |Lap(phi^2k)|^k phi^(-2k/(p-1))
    # whose phi powers cancel exactly; this is the bounded core left behind,
    # evaluated on the ramp piece of phi that holds y when one is given.
    def core(y: np.ndarray, ramp=phi) -> np.ndarray:
        P, dP, d2P = ramp._jet(y)
        return (2.0 * kappa - 1.0) * dP * dP + P * d2P + (dim - 1.0) * P * dP / y
    return core


class _Model(NamedTuple):
    """The capacity integrals of one tuple up to their R and T powers."""
    kappa: float
    a_time: float
    a_space: float
    time: float         # omega * kappa^kappa int|psi'|^kappa * int phi^2k y^(a_t-1)
    space: float        # omega * int psi^kappa * int (2k)^k |core|^k y^w


@_overflow("a capacity profile constant")
def _model(params: ProblemParams) -> _Model:
    """The profile constants, which depend on (N, s1, s2, p) only."""
    kappa, a_time, a_space = _exponents(params)
    n_dim = float(params.N)
    omega = sphere_area(params.N)

    dpsi = lambda s, ramp: np.abs(ramp._jet(s, (1,))[0]) ** kappa
    c_dpsi = kappa ** kappa * _integrate(dpsi, _ramp_spans(PSI), "time cutoff derivative")
    time = omega * c_dpsi * _profile_power_integral(PHI, 2.0 * kappa, a_time,
                                                    "time capacity")
    c_psi = _profile_power_integral(PSI, kappa, 1.0, "time cutoff plateau")
    core = _space_core(PHI, n_dim, kappa)
    weight_exp = n_dim - 1.0 - params.sigma2 / (params.p - 1.0)
    c_space = _integrate(lambda y, ramp: (2.0 * kappa) ** kappa
                         * np.abs(core(y, ramp)) ** kappa * y ** weight_exp,
                         _ramp_spans(PHI, core), "Laplacian capacity")
    return _Model(kappa, a_time, a_space, time, omega * c_psi * c_space)


def _check_cutoff(params: ProblemParams, R: float, T: float) -> None:
    if not (1.0 < R < math.inf and 1.0 < T < math.inf):
        raise ConditionViolation("capacity cutoffs need finite R > 1 and "
                                 "T > 1, got R=%g T=%g" % (R, T))
    if (params.rho + 1.0) * math.log(T) > _LOG_MAX:
        raise Overflow("the forcing time factor T^(rho+1) overflows at "
                       "T=%g" % T)


@_overflow("a capacity integral scaled by powers of R and T")
def _scaled(model: _Model, R: float, T: float) -> Tuple[float, float]:
    """The time and space capacities at radius R and horizon T."""
    return (model.time * T ** (1.0 - model.kappa) * R ** model.a_time,
            model.space * T * R ** model.a_space)


def capacity_integrals(params: ProblemParams, R: float, T: float) -> CapacityParts:
    """The three separable capacity integrals at cutoff radius R, horizon T.

    time:    integral of |d/dt Q|^kappa |x|^((s1 p - s2)/(p-1)) Q^(-1/(p-1))
    space:   integral of |x|^(-s2/(p-1)) |Lap Q|^kappa Q^(-1/(p-1))
    forcing: the forcing time factor, integral of t^rho psi^kappa(t/T) dt

    with Q(t, x) = psi^kappa(t/T) phi^(2 kappa)(|x|/R) and
    kappa = p/(p-1).  Everything factors exactly into profile constants
    times R and T powers; the profile constants are quadrature-exact up to
    the documented tolerance.
    """
    _check_cutoff(params, R, T)
    model = _model(params)
    with _overflow("a capacity integral scaled by powers of R and T"):
        # psi vanishes near 0, so the rho > -1 singularity never meets the support
        forcing = _profile_power_integral(PSI, model.kappa, params.rho + 1.0,
                                          "forcing time factor")
        return CapacityParts(*_scaled(model, R, T), forcing * T ** (params.rho + 1.0))


# --------------------------------------------------------------------------
# exponent fits
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CapacityFitReport:
    """Slopes of the normalized capacity integrals against the cutoff radius.

    Values are normalized by the forcing time factor T^(rho+1), the scale
    both sides of the nonexistence inequality share.  ``t_exponent`` is m
    in the coupling T = R^m; m = s1 + 2 balances the two capacities onto a
    common slope.  Negative theory slopes are the nonexistence regime.
    """
    radii: np.ndarray
    t_exponent: float
    time_raw: np.ndarray
    space_raw: np.ndarray
    time_norm: np.ndarray
    space_norm: np.ndarray
    time_fit: SlopeFit
    space_fit: SlopeFit
    combined_fit: SlopeFit
    nonexistence_predicted: bool
    slopes_negative: bool


FIT_CSV_COLUMNS = ["R", "T", "I_time", "I_space", "fitted_slope", "theory_slope"]


def capacity_exponent_fit(params: ProblemParams, radii: Sequence[float],
                          t_exponent: Optional[float] = None) -> CapacityFitReport:
    """Fit the R-slopes of the capacity integrals under a coupling T = R^m.

    Defaults to the balanced coupling m = sigma1 + 2, under which the time
    and Laplacian capacities share the slope
    N - 2 rho - rho sigma1 - (2p + sigma2)/(p - 1) after normalization by
    T^(rho+1); a general m gives the two slopes
    a_t - m (rho + kappa) and a_s - m rho with
    a_t = N + (sigma1 p - sigma2)/(p-1), a_s = N - (2p + sigma2)/(p-1).
    The profile constants are computed once; only the powers of R and T
    change from radius to radius.

    Raises PoorFit (carrying the report) when either component regression
    has R^2 below 0.99 or undefined; raises ConditionViolation when the
    radii span less than 1.5 decades or some T = R^m is not in (1, inf),
    and Overflow when some T^(rho+1) (before any quadrature) or capacity
    leaves the float range.
    """
    rr = np.asarray(sorted(float(R) for R in radii), dtype=float)
    if rr.size < 3:
        raise ConditionViolation("need at least 3 radii for a slope fit")
    if rr[0] <= 1.0:
        raise ConditionViolation("capacity radii must exceed 1")
    if math.log10(rr[-1] / rr[0]) < 1.5 - 1e-9:
        raise ConditionViolation(
            "radii span %.2f decades; at least 1.5 needed for a stable fit"
            % math.log10(rr[-1] / rr[0]))
    m = float(t_exponent) if t_exponent is not None else params.sigma1 + 2.0
    horizons = []
    for R in rr:
        if not 0.0 < m * math.log(R) < _LOG_MAX:    # T = R^m before the power
            raise ConditionViolation("capacity cutoffs need T = R^m in "
                                     "(1, inf), got R=%g m=%g" % (R, m))
        horizons.append(R ** m)
        _check_cutoff(params, R, horizons[-1])

    model = _model(params)
    theory_time = model.a_time - m * (params.rho + model.kappa)
    theory_space = model.a_space - m * params.rho

    # scalar powers per radius: numpy's array ** may differ in the last bit
    parts = [_scaled(model, R, T) for R, T in zip(rr, horizons)]
    time_raw, space_raw = (np.array(c) for c in zip(*parts))
    scale = np.array([T ** (params.rho + 1.0) for T in horizons])
    time_norm, space_norm = time_raw / scale, space_raw / scale

    time_fit = SlopeFit.from_loglog(rr, time_norm, theory_time)
    space_fit = SlopeFit.from_loglog(rr, space_norm, theory_space)
    combined_fit = SlopeFit.from_loglog(rr, time_norm + space_norm,
                                        max(theory_time, theory_space))

    report = CapacityFitReport(
        radii=rr, t_exponent=m,
        time_raw=time_raw, space_raw=space_raw,
        time_norm=time_norm, space_norm=space_norm,
        time_fit=time_fit, space_fit=space_fit, combined_fit=combined_fit,
        nonexistence_predicted=max(theory_time, theory_space) < 0.0,
        slopes_negative=max(time_fit.fitted, space_fit.fitted) < 0.0)
    if not (time_fit.r_squared >= _R2_FLOOR and space_fit.r_squared >= _R2_FLOOR):
        raise PoorFit("capacity exponent regression fell below R^2 = %g "
                      "(time %.6f, space %.6f)"
                      % (_R2_FLOOR, time_fit.r_squared, space_fit.r_squared),
                      report=report)
    return report


# --------------------------------------------------------------------------
# logarithmic cutoff at the critical power
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LogCapacityReport:
    radii: np.ndarray
    values: np.ndarray
    fit: SlopeFit


@_overflow("the log-cutoff capacity")
def log_space_capacity(params: ProblemParams, R: float) -> float:
    """Laplacian capacity of the log-coordinate cutoff, per time factor.

    The spatial profile is log_phi(log(|x| / sqrt(R)) / log(sqrt(R))),
    supported on sqrt(R) < |x| < R.  Returned without the psi time factor,
    which multiplies it as a plain constant times T.
    """
    if R <= math.e ** 2:
        raise ConditionViolation("log cutoff needs R large enough that "
                                 "log(sqrt(R)) > 1; got R=%g" % R)
    kappa, _, a_space = _exponents(params)
    n_dim = float(params.N)
    big_l = math.log(math.sqrt(R))

    def core(s: np.ndarray, ramp: _Ramp) -> np.ndarray:
        P, dP, d2P = ramp._jet(s)
        return ((2.0 * kappa - 1.0) * dP * dP / big_l ** 2
                + P * d2P / big_l ** 2
                + (n_dim - 2.0) * P * dP / big_l)

    fn = lambda s, ramp: ((2.0 * kappa) ** kappa * np.abs(core(s, ramp)) ** kappa
                          * np.exp(a_space * big_l * s))
    integral = _integrate(fn, _ramp_spans(LOG_PHI, core), "log-cutoff capacity")
    return sphere_area(params.N) * R ** (a_space / 2.0) * big_l * integral


def log_capacity_fit(params: ProblemParams,
                     radii: Sequence[float]) -> LogCapacityReport:
    """Fit the log(log R)-slope of the critical-power capacity.

    Requires rho = 0, N >= 3 and p equal to (N + sigma2)/(N - 2), where
    the radial power in the Laplacian capacity vanishes and the capacity
    decays only logarithmically; the theory slope is (2 - N)/(2 + sigma2).

    Honesty note: the computed capacity behaves as
    (log R)^(theory) * P(1/log R) with P a ramp-shape polynomial whose
    linear term is large for any C^2 ramp.  The pure power law is reached
    only for astronomically large R, so on ranges like R in [1e2, 1e6] the
    fitted slope lands far from the theory value and this function then
    raises PoorFit or reports the mismatch, rather than pretending the
    asymptotic regime was observed.  Measured with the default cutoffs at
    N=4, p=2 (theory -1), 9 radii per range:

        R range          slope     error   R^2
        [1e2, 1e6]      -2.1255    113%    0.977  (PoorFit)
        [1e12, 1e32]    -0.8156     18%    0.9996
        [1e100, 1e300]  -0.9743    2.6%    0.99998

    so the theory slope is met to within a few percent only on the far
    end of the range a float R can hold (R < 1.8e308, log sqrt(R) < 355).
    """
    if params.rho != 0.0:
        raise ConditionViolation("log-cutoff capacity applies to the "
                                 "unforced-exponent case rho = 0")
    if params.N < 3:
        raise ConditionViolation("log-cutoff capacity needs N >= 3")
    p_critical = critical_forced(params)
    if abs(params.p - p_critical) > 1e-9 * max(1.0, abs(p_critical)):
        raise ConditionViolation(
            "log-cutoff capacity applies at the critical power %.12g, "
            "got p=%.12g" % (p_critical, params.p))
    rr = np.asarray(sorted(float(R) for R in radii), dtype=float)
    if rr.size < 3:
        raise ConditionViolation("need at least 3 radii for a slope fit")

    values = np.asarray([log_space_capacity(params, R) for R in rr])
    theory = (2.0 - float(params.N)) / (2.0 + params.sigma2)
    fit = SlopeFit.from_loglog(np.log(rr), values, theory)
    report = LogCapacityReport(radii=rr, values=values, fit=fit)
    if not fit.r_squared >= _R2_FLOOR:
        raise PoorFit(
            "log-cutoff capacity is still pre-asymptotic on this range: "
            "R^2 = %.4f < %g (fitted slope %.3f vs theory %.3f)"
            % (fit.r_squared, _R2_FLOOR, fit.fitted, theory),
            report=report)
    return report
