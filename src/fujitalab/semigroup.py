"""Discrete semigroup of the degenerate operator |x|^(-s1) Lap on radial data.

The generator is discretized in conservative flux form on the radial grid:

    (L u)_i = r_i^(-s1) * [F_{i+1/2} - F_{i-1/2}] / (r_i^(N-1) cell_i),
    F_{i+1/2} = rmid^(N-1) (u_{i+1} - u_i) / h_i,

with a reflecting (zero-flux) inner boundary and an absorbing outer
boundary (zero ghost value beyond r_max).  The telescoping flux sum makes
the weighted mass  int r^(N-1+s1) u dr  exact up to the outer boundary
flux, so compactly supported data conserve mass to rounding error.

Time stepping is TR-BDF2 (Bank et al. 1985; Hosea & Shampine 1996): L-stable
and second order from t = 0 on rough data, with no start-up rule.  Its
trapezoid and BDF2 stages both solve with A = I - a L, a = (1 - 1/sqrt2) h:
y = A^-1 u, then u <- A^-1 (alpha y - sqrt2 u), alpha = 1 + sqrt2.  With
L = W^-1 T, T symmetric and W = r^(N-1+s1) cells, a solve is one of the
positive definite W - a T, L D L^T-factored at most twice per step size
(LAPACK pttrf, bound at the first factorisation) and reused (pttrs).
Every application of exp(tL) is one SemigroupOp.march across stored
times, which returns them stacked as one array; a Duhamel source is given
as arrays, a weight and a source row per step.  A march that does not name
its step count takes 16 steps to its first stored time and sizes each
later interval by the time it starts at, so no step is longer than 1/16
of that time: the error is set where the march leaves rough data.  A
solve carries NaN and inf through; a march checks finiteness once, over
all its stored times, the direct integrator once per trial step.

The module also carries the three certification studies used by the
acceptance experiments:

* :func:`smoothing_slope` fits the L^a -> L^b decay rate
  t^(-(N/A)(1/a - 1/b)), A = 2+s1, realized exactly by the borderline
  power-law datum r^(-N/a);
* :func:`weighted_smoothing_check` does the same for data premultiplied
  by |x|^(-gamma), whose rate gains the shift -gamma/A;
* :func:`scaling_identity_check` verifies the dilation identity
  D_lam^(-1) S(t) D_lam = S(lam^A t) on an interior window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConditionViolation, Overflow, StepFailure
from .exponents import ProblemParams
from .radial import RadialField, RadialGrid, Trajectory, lq_norm

__all__ = [
    "SemigroupOp",
    "SlopeFit",
    "fit_loglog",
    "smoothing_slope",
    "weighted_smoothing_check",
    "scaling_identity_check",
]

_SUBSTEPS = 16      # a march that does not name its count: steps to its
                    # first stored time, and most per later interval
_STAGE = 1.0 - math.sqrt(0.5)   # a / h: both TR-BDF2 stages solve with I - a L
_ALPHA, _SQRT2 = 1.0 + math.sqrt(2.0), math.sqrt(2.0)
_TINY, _HUGE = float(np.finfo(float).tiny), float(np.finfo(float).max)
dpttrf = dpttrs = None      # scipy.linalg.lapack, bound at first factorisation


@dataclass
class SemigroupOp:
    """Evolution operator S(t) = exp(t |x|^(-s1) Lap) on a radial grid.

    The operator owns the radial weights of the equation (``weight``).  Its
    generator and ``time_weight`` = r^(-s1) are assembled once at
    construction; the factors of W - dt T are kept for the last dt and
    for every dt met a second time.
    """

    grid: RadialGrid
    params: ProblemParams

    def __post_init__(self):
        r = self.grid.nodes
        n = float(self.params.N)
        h = np.diff(r)
        rmid = 0.5 * (r[:-1] + r[1:])
        cond = rmid ** (n - 1.0) / h          # conductance across interior faces

        # ghost node beyond r_max at the last step width, value pinned to zero
        h_gh = h[-1]
        cond_gh = (r[-1] + 0.5 * h_gh) ** (n - 1.0) / h_gh

        # the grid's trapezoid cells, the last one widened to the ghost
        cells = self.grid.cell_widths()
        cells[-1] = 0.5 * (h[-1] + h_gh)

        self.time_weight = self.weight(-self.params.sigma1)
        with np.errstate(divide="ignore", over="ignore"):
            w = r ** (n - 1.0) * cells / self.time_weight
        if not all(_TINY <= a.min() and a.max() <= _HUGE
                   for a in (self.time_weight, w)):
            raise Overflow("the grid weight r^(%g) leaves the normal float "
                           "range" % -self.params.sigma1)
        # T is symmetric: off-diagonal cond, diagonal minus the conductances
        # into and out of each node (the last one's out through the ghost)
        tdi = -np.append(0.0, cond) - np.append(cond, cond_gh)
        self._w, self._tdi, self._cond = w, tdi, cond
        self._ldl_dt: Optional[float] = None
        self._ldl: Sequence[np.ndarray] = ()
        self._seen, self._kept = set(), {}   # dts met, factors of repeats

    def weight(self, a: float) -> np.ndarray:
        """r^a at the nodes; raises Overflow, not a numpy warning, where a
        value leaves the float range."""
        with np.errstate(over="ignore"):
            out = self.grid.nodes ** a
        if not np.isfinite(out).all():
            raise Overflow("the grid weight r^(%g) overflows" % a)
        return out

    # -- low-level pieces ---------------------------------------------------

    def apply_operator(self, values: np.ndarray) -> np.ndarray:
        """Matrix-vector product L u = W^-1 T u."""
        out = self._tdi * values
        out[:-1] += self._cond * values[1:]
        out[1:] += self._cond * values[:-1]
        return out / self._w

    def step_matrix_banded(self, dt: float) -> Tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal of the symmetric positive definite
        W - dt T, which implicit_solve hands to LAPACK pttrf."""
        return self._w - dt * self._tdi, -dt * self._cond

    def implicit_solve(self, rhs: np.ndarray, dt: float) -> np.ndarray:
        """Solve (I - dt L) x = rhs as (W - dt T) x = W rhs.

        A dt other than the last one takes its kept L D L^T factors or is
        factored, and a dt met before keeps them.  rhs is not modified.
        Raises StepFailure when W - dt T is not positive definite; a
        non-finite rhs gives a non-finite x, which the caller checks.
        """
        global dpttrf, dpttrs
        if dt != self._ldl_dt:
            ldl = self._kept.get(dt)
            if ldl is None:
                if dpttrf is None:
                    from scipy.linalg.lapack import dpttrf, dpttrs
                *ldl, info = dpttrf(*self.step_matrix_banded(dt),
                                    overwrite_d=1, overwrite_e=1)
                if info != 0:
                    raise StepFailure("step matrix W - dt T is not positive "
                                      "definite at dt=%g" % dt)
                if dt in self._seen:
                    self._kept[dt] = ldl
                self._seen.add(dt)
            self._ldl, self._ldl_dt = ldl, dt
        x, _ = dpttrs(*self._ldl, self._w * rhs, overwrite_b=1)
        return x

    def _step(self, acc: np.ndarray, h: float,
              s: Optional[np.ndarray] = None) -> np.ndarray:
        # one TR-BDF2 step of width h with the scaled source s = a (c / h) g
        # of a march: b = acc + s, y = A^-1 b, A^-1 (alpha (y + s) - sqrt2 b)
        a = _STAGE * h
        b = acc if s is None else acc + s
        y = self.implicit_solve(b, a)
        if s is not None:
            y += s
        y *= _ALPHA
        y -= _SQRT2 * b
        return self.implicit_solve(y, a)

    # -- public API ----------------------------------------------------------

    @np.errstate(over="ignore", invalid="ignore")
    def march(self, values: np.ndarray, times: Sequence[float],
              substeps: Optional[int] = None,
              source: Optional[tuple] = None) -> np.ndarray:
        """values marched to each of the increasing positive times, with
        ``substeps`` equal TR-BDF2 steps (two solves each) per interval,
        as one (len(times),) + values.shape array.

        With substeps None, the interval from 0 takes 16 equal steps and
        the interval from t_prev to t takes ceil(16 (t - t_prev) / t_prev)
        of them, at most 16: no step is longer than t_prev / 16.  A count
        that is not a whole number raises ValueError.

        source, when given, is a pair (g, c) of arrays: c[j, k] weighs step
        k of interval j, and g is one row for every step or one row per
        step, g[j, k].  Step k of interval j, of width h, carries the
        constant source (c[j, k] / h) g[j, k].  That enters as
        c (A^-2 / sqrt2 + (1 - 1/sqrt2) A^-1) g; A^-1 is a nonnegative
        matrix, so a rough nonnegative source cannot ring.  A march with a
        source names its substeps.  Raises StepFailure, after the last
        interval, naming the first stored time with a value that is not
        finite.
        """
        if substeps is not None and not float(substeps).is_integer():
            raise ValueError("a march needs a whole number of substeps, got %r"
                             % (substeps,))
        n = _SUBSTEPS if substeps is None else int(substeps)
        ts = list(times)
        if n < 1 or not ts or not all(b > a for a, b in zip([0.0] + ts, ts)):
            raise ValueError("a march needs substeps >= 1 and positive, "
                             "strictly increasing times")
        if substeps is None and source is not None:
            raise ValueError("a march with a source names its substeps")
        out, u, t_prev = np.empty((len(ts),) + values.shape), values, 0.0
        if source is not None:      # weights, and rows per step, scaled once
            g, sc = source[0], _STAGE * source[1]
            per_step = g.ndim != values.ndim
            g = sc[..., None] * g if per_step else g
        for j, t in enumerate(ts):
            dt, nj = t - t_prev, n
            if substeps is None and dt < t_prev:    # no step over t_prev / n
                nj = math.ceil(n * (dt / t_prev))
            h = dt / nj
            if source is not None:
                s = g[j] if per_step else sc[j][:, None] * g
            for k in range(nj):
                u = self._step(u, h, None if source is None else s[k])
            out[j] = u
            t_prev = t
        finite = np.isfinite(out.reshape(len(ts), -1)).all(axis=1)
        if not finite.all():
            raise StepFailure("a march left the float range by t=%g"
                              % ts[int(np.argmin(finite))])
        return out

    def apply(self, fld: RadialField, t: float,
              substeps: Optional[int] = None) -> RadialField:
        """Evolve a field by time t >= 0 with ``substeps`` equal TR-BDF2
        steps, 16 when None (one interval from 0, see march)."""
        if t < 0.0:
            raise ValueError("cannot evolve backwards, t=%g" % t)
        if t == 0.0:
            return fld.with_values(fld.values.copy())
        return fld.with_values(self.march(fld.values, [t], substeps)[0])

    def evolve_values(self, values: np.ndarray, t: float,
                      substeps: Optional[int] = None) -> np.ndarray:
        """Array-level apply() for t > 0.  No solver in the package calls
        it; it stays because the benchmark tracer patches it by name."""
        return self.march(values, [t], substeps)[0]

    def evolve_through(self, source: RadialField, t_list: Sequence[float],
                       substeps: Optional[int] = None) -> Trajectory:
        """The Trajectory of source at increasing positive times t_list,
        marched incrementally with ``substeps`` TR-BDF2 steps per interval;
        with None, each interval after the first is sized by the time it
        starts at (see march)."""
        return Trajectory(t_list, self.march(source.values, t_list, substeps),
                          source)


# ---------------------------------------------------------------------------
# log-log slope fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlopeFit:
    """Result of a log-log regression against a theoretical exponent."""

    fitted: float
    theory: float
    r_squared: float
    x: np.ndarray
    y: np.ndarray

    @classmethod
    def from_loglog(cls, x: Sequence[float], y: Sequence[float],
                    theory: float) -> "SlopeFit":
        """Fit log y against log x (see fit_loglog) and keep the data."""
        fitted, r2 = fit_loglog(x, y)
        return cls(fitted=fitted, theory=theory, r_squared=r2,
                   x=np.asarray(x, dtype=float), y=np.asarray(y, dtype=float))

    @property
    def relative_error(self) -> float:
        if self.theory == 0.0:
            return abs(self.fitted)
        return abs(self.fitted - self.theory) / abs(self.theory)


@np.errstate(divide="ignore", invalid="ignore")
def fit_loglog(x: Sequence[float], y: Sequence[float]) -> Tuple[float, float]:
    """Least-squares slope and R^2 of log y against log x.

    A zero or non-finite value makes both nan, which no R^2 gate passes.
    """
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def smoothing_slope(op: SemigroupOp, a: float, b: float, source: RadialField,
                    t_list: Sequence[float]) -> SlopeFit:
    """Fit the decay of ||S(t) source||_b and compare to the L^a -> L^b rate.

    Theory: ||S(t) phi||_b <= C t^(-(N/A)(1/a - 1/b)) ||phi||_a for
    1/b < 1/a < 1 + s1/N.  The operator norm is an exact power of t by
    scaling, and the borderline datum r^(-N/a) realizes it; generic data
    decay faster, so callers who want the fitted slope to meet the theory
    line should pass that borderline source (see
    :func:`fujitalab.radial.powerlaw_profile`).  a = b is allowed as the
    trivial boundary case with zero theoretical rate.  This is the
    gamma = 0 case of :func:`weighted_smoothing_check`.
    """
    return weighted_smoothing_check(op, a, b, 0.0, source, t_list)


def weighted_smoothing_check(op: SemigroupOp, q1: float, q2: float,
                             gamma: float, source: RadialField,
                             t_list: Sequence[float]) -> SlopeFit:
    """Fit the decay of ||S(t)(|x|^(-gamma) source)||_{q2}.

    Theory: ||S(t)(|x|^(-gamma) phi)||_{q2}
            <= C t^(-(N/A)(1/q1 - 1/q2) - gamma/A) ||phi||_{q1}
    under 0 <= gamma < N and 0 < 1/q2 < gamma/N + 1/q1 < 1 + s1/N, where
    gamma = 0 also allows q1 = q2 (rate 0).  As in :func:`smoothing_slope`,
    the borderline source r^(-N/q1) realizes the rate exactly.
    """
    n = op.params.N
    if not (0.0 <= gamma < n):
        raise ConditionViolation("need 0 <= gamma < N, got gamma=%r" % (gamma,))
    if not (1.0 < q1 < math.inf and 1.0 < q2 < math.inf):
        raise ConditionViolation("need 1 < q1, q2 < inf")
    edge = 1.0 + op.params.sigma1 / n
    mid = gamma / n + 1.0 / q1
    if not (0.0 < 1.0 / q2 < mid < edge
            or gamma == 0.0 and 0.0 < 1.0 / q2 == mid < edge):
        raise ConditionViolation(
            "need 0 < 1/q2 < gamma/N + 1/q1 < 1 + sigma1/N (1/q2 = 1/q1 "
            "allowed at gamma = 0), got 1/q2=%g mid=%g edge=%g"
            % (1.0 / q2, mid, edge))
    a_depth = op.params.diffusion_depth
    theory = -(n / a_depth) * (1.0 / q1 - 1.0 / q2) - gamma / a_depth
    weighted = source.with_values(source.values * op.weight(-gamma))
    norms = np.array(lq_norm(op.evolve_through(weighted, t_list), q2))
    return SlopeFit.from_loglog(t_list, norms, theory)


# ---------------------------------------------------------------------------
# dilation identity
# ---------------------------------------------------------------------------

def _shift(values: np.ndarray, k: int) -> np.ndarray:
    """values[i + k] at node i: flat below the first node, zero past the last."""
    idx = np.arange(values.size) + k
    out = values[np.clip(idx, 0, values.size - 1)]
    out[idx >= values.size] = 0.0
    return out


def scaling_identity_check(op: SemigroupOp, lam: float, t: float,
                           source: RadialField) -> float:
    """Relative discrepancy of D_lam^(-1) S(t) D_lam = S(lam^A t), A = 2+s1.

    Both sides are formed on the operator's own grid and compared in
    L^2(r^(N-1) dr) over the interior window
    [20 r_min, r_max / (4 max(lam, 1/lam))] so that the boundary closures
    and the shift's fill values stay out of the measure.  Returns
    ||lhs - rhs||_2 / ||rhs||_2 on the window.

    The grid must be log-uniform with a step dividing log(lam) (see
    RadialGrid.log_commensurate), and ValueError is raised otherwise: the
    dilation is then realized exactly as an index shift.  On such a grid
    the discrete operator itself scales as lam^(-A) under the shift, so
    the interior identity holds exactly for the scheme and the measured
    discrepancy isolates the effect of the domain truncation.  That error
    is controlled by the truncation radii, not the node or step count: the
    convergent refinement family deepens r_min (e.g. halves it) together
    with doubling m.
    """
    if lam <= 0.0:
        raise ValueError("dilation factor must be positive")
    r = op.grid.nodes
    shift = None
    steps = np.diff(np.log(r))
    if np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        h = math.log(r[-1] / r[0]) / (r.size - 1)
        ratio = abs(math.log(lam)) / h
        k = round(ratio)
        if 1 <= k <= r.size - 8 and abs(ratio - k) <= 1e-8 * max(1.0, ratio):
            shift = k if lam > 1.0 else -k
    if shift is None:
        raise ValueError("the grid is not log-uniform with a step dividing "
                         "log(%g)" % lam)

    dilated = source.with_values(_shift(source.values, shift))
    lhs = _shift(op.apply(dilated, t).values, -shift)
    t_scaled = lam ** op.params.diffusion_depth * t
    rhs = op.apply(source, t_scaled).values

    spread = max(lam, 1.0 / lam)
    window = (20.0 * r[0], r[-1] / (4.0 * spread))
    mask = (r >= window[0]) & (r <= window[1])
    if mask.sum() < 8:
        raise ValueError("comparison window too small: %r" % (window,))
    meas = r[mask] ** (float(op.params.N) - 1.0) * op.grid.cell_widths()[mask]
    num = float(np.sqrt(np.sum((lhs[mask] - rhs[mask]) ** 2 * meas)))
    den = float(np.sqrt(np.sum(rhs[mask] ** 2 * meas)))
    if den == 0.0:
        raise ValueError("reference side vanishes on the window")
    return num / den
