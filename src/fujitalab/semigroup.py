"""Discrete semigroup of the degenerate operator |x|^(-s1) Lap on radial data.

The generator is discretized in conservative flux form on the radial grid:

    (L u)_i = r_i^(-s1) * [F_{i+1/2} - F_{i-1/2}] / (r_i^(N-1) cell_i),
    F_{i+1/2} = rmid^(N-1) (u_{i+1} - u_i) / h_i,

with a reflecting (zero-flux) inner boundary and an absorbing outer
boundary (zero ghost value beyond r_max).  The telescoping flux sum makes
the weighted mass  int r^(N-1+s1) u dr  exact up to the outer boundary
flux, so compactly supported data conserve mass to rounding error.

Time stepping is implicit Euler (first order, inverse-positive: the step
matrix is an M-matrix, so nonnegative data stay nonnegative) or
Crank-Nicolson (second order, A-stable).  Both reduce to one tridiagonal
solve with I - dt L per step.  Each step size is factored once (LAPACK
gttrf); the factors are kept and reused (gttrs) for every following step
of that size.

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
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import ConditionViolation, StepFailure
from .exponents import ProblemParams, require_valid
from .radial import SPACING_LOG, RadialField, RadialGrid, lq_norm

__all__ = [
    "SemigroupOp",
    "SlopeFit",
    "fit_loglog",
    "smoothing_slope",
    "weighted_smoothing_check",
    "scaling_identity_check",
    "sample_log",
]

SCHEME_IE = "implicit-euler"
SCHEME_CN = "crank-nicolson"

_SUBSTEPS = 32      # equal steps of a march that does not name its count


@dataclass
class SemigroupOp:
    """Evolution operator S(t) = exp(t |x|^(-s1) Lap) on a radial grid.

    The operator matrix is assembled once at construction; the LU factors
    of I - dt L are kept for the last dt solved with.
    """

    grid: RadialGrid
    params: ProblemParams

    def __post_init__(self):
        require_valid(self.params)
        r = self.grid.nodes
        n, s1 = float(self.params.N), self.params.sigma1
        h = np.diff(r)
        rmid = 0.5 * (r[:-1] + r[1:])
        cond = rmid ** (n - 1.0) / h          # conductance across interior faces

        # ghost node beyond r_max at the last spacing, value pinned to zero
        h_gh = h[-1]
        cond_gh = (r[-1] + 0.5 * h_gh) ** (n - 1.0) / h_gh

        cells = np.empty_like(r)
        cells[0] = 0.5 * h[0]
        cells[1:-1] = 0.5 * (h[:-1] + h[1:])
        cells[-1] = 0.5 * (h[-1] + h_gh)

        scale = r ** (-s1) / (r ** (n - 1.0) * cells)
        lo = np.zeros_like(r)
        up = np.zeros_like(r)
        di = np.zeros_like(r)
        up[:-1] = scale[:-1] * cond
        lo[1:] = scale[1:] * cond
        di[0] = -scale[0] * cond[0]
        di[1:-1] = -scale[1:-1] * (cond[:-1] + cond[1:])
        di[-1] = -scale[-1] * (cond[-1] + cond_gh)
        self._lo, self._di, self._up = lo, di, up
        self._cells = cells
        self._lu_dt: Optional[float] = None
        self._lu: Tuple[np.ndarray, ...] = ()

    # -- low-level pieces ---------------------------------------------------

    def apply_operator(self, values: np.ndarray) -> np.ndarray:
        """Matrix-vector product L u."""
        out = self._di * values
        out[:-1] += self._up[:-1] * values[1:]
        out[1:] += self._lo[1:] * values[:-1]
        return out

    def step_matrix_banded(self, dt: float) -> np.ndarray:
        """Banded storage of I - dt L for scipy.linalg.solve_banded."""
        m = self.grid.m
        ab = np.zeros((3, m))
        ab[0, 1:] = -dt * self._up[:-1]
        ab[1, :] = 1.0 - dt * self._di
        ab[2, :-1] = -dt * self._lo[1:]
        return ab

    def implicit_solve(self, rhs: np.ndarray, dt: float) -> np.ndarray:
        """Solve (I - dt L) x = rhs with the LU factors of I - dt L.

        A dt other than the last one is factored first and its factors
        replace the kept ones.  rhs is not modified.  Raises StepFailure on
        a singular matrix or non-finite output.
        """
        if dt != self._lu_dt:
            ab = self.step_matrix_banded(dt)
            *lu, info = dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
            if info != 0:
                raise StepFailure("step matrix I - dt L is singular at "
                                  "dt=%g" % dt)
            self._lu, self._lu_dt = tuple(lu), dt
        x, _ = dgttrs(*self._lu, rhs)
        if not np.all(np.isfinite(x)):
            raise StepFailure("implicit solve produced non-finite values")
        return x

    def _march(self, values: np.ndarray, t: float, substeps: Optional[int],
               scheme: Optional[str]) -> np.ndarray:
        # substeps equal steps, Crank-Nicolson unless scheme is SCHEME_IE
        n = _SUBSTEPS if substeps is None else int(substeps)
        if t == 0.0 or n == 0:
            return values.copy()
        dt = t / n
        u = values.copy()
        if scheme == SCHEME_IE:
            for _ in range(n):
                u = self.implicit_solve(u, dt)
        else:
            half = 0.5 * dt
            for _ in range(n):
                rhs = u + half * self.apply_operator(u)
                u = self.implicit_solve(rhs, half)
        return u

    # -- public API ----------------------------------------------------------

    def apply(self, fld: RadialField, t: float, substeps: Optional[int] = None,
              scheme: Optional[str] = None) -> RadialField:
        """Evolve a field by time t >= 0 (Crank-Nicolson by default)."""
        if t < 0.0:
            raise ValueError("cannot evolve backwards, t=%g" % t)
        return fld.with_values(self._march(fld.values, t, substeps, scheme))

    def evolve_values(self, values: np.ndarray, t: float,
                      substeps: Optional[int] = None,
                      scheme: Optional[str] = None) -> np.ndarray:
        """Array-level apply(), used by the solvers to avoid field wrapping."""
        return self._march(values, t, substeps, scheme)

    def evolve_through(self, source: RadialField, t_list: Sequence[float],
                       substeps: Optional[int] = None) -> List[RadialField]:
        """Fields at increasing times t_list, marched incrementally.

        The first interval from t = 0 always uses implicit Euler substeps:
        rough data (the borderline power-law sources in particular) excite
        high modes that Crank-Nicolson barely damps, and the first-order
        startup removes them before Crank-Nicolson takes over.
        """
        ts = list(t_list)
        if any(b <= a for a, b in zip(ts, ts[1:])) or ts[0] <= 0.0:
            raise ValueError("t_list must be positive and strictly increasing")
        out = []
        u = source.values.copy()
        t_prev = 0.0
        for k, t in enumerate(ts):
            scheme = SCHEME_IE if k == 0 else SCHEME_CN
            u = self._march(u, t - t_prev, substeps, scheme)
            out.append(source.with_values(u))
            t_prev = t
        return out


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


def fit_loglog(x: Sequence[float], y: Sequence[float]) -> Tuple[float, float]:
    """Least-squares slope and R^2 of log y against log x."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def _check_pair(params: ProblemParams, inv_a: float, inv_b: float) -> None:
    # validity region of the L^a -> L^b estimate: 1/b <= 1/a < 1 + s1/N
    edge = 1.0 + params.sigma1 / params.N
    if not (0.0 < inv_b <= inv_a < edge):
        raise ConditionViolation(
            "need 1/b <= 1/a < 1 + sigma1/N, got 1/a=%g 1/b=%g edge=%g"
            % (inv_a, inv_b, edge))


def smoothing_slope(op: SemigroupOp, a: float, b: float, source: RadialField,
                    t_list: Sequence[float]) -> SlopeFit:
    """Fit the decay of ||S(t) source||_b and compare to the L^a -> L^b rate.

    Theory: ||S(t) phi||_b <= C t^(-(N/A)(1/a - 1/b)) ||phi||_a for
    1/b < 1/a < 1 + s1/N.  The operator norm is an exact power of t by
    scaling, and the borderline datum r^(-N/a) realizes it; generic data
    decay faster, so callers who want the fitted slope to meet the theory
    line should pass that borderline source (see
    :func:`fujitalab.radial.powerlaw_profile`).  a = b is allowed as the
    trivial boundary case with zero theoretical rate.
    """
    if not (1.0 < a < math.inf and 1.0 < b < math.inf):
        raise ConditionViolation("need 1 < a, b < inf, got a=%r b=%r" % (a, b))
    _check_pair(op.params, 1.0 / a, 1.0 / b)
    theory = -(op.params.N / op.params.diffusion_depth) * (1.0 / a - 1.0 / b)
    fields = op.evolve_through(source, t_list)
    norms = np.array([lq_norm(f, b) for f in fields])
    return SlopeFit.from_loglog(t_list, norms, theory)


def weighted_smoothing_check(op: SemigroupOp, q1: float, q2: float,
                             gamma: float, source: RadialField,
                             t_list: Sequence[float]) -> SlopeFit:
    """Fit the decay of ||S(t)(|x|^(-gamma) source)||_{q2}.

    Theory: ||S(t)(|x|^(-gamma) phi)||_{q2}
            <= C t^(-(N/A)(1/q1 - 1/q2) - gamma/A) ||phi||_{q1}
    under 0 <= gamma < N and 0 < 1/q2 < gamma/N + 1/q1 < 1 + s1/N.  As in
    :func:`smoothing_slope`, the borderline source r^(-N/q1) realizes the
    rate exactly.
    """
    n = op.params.N
    if not (0.0 <= gamma < n):
        raise ConditionViolation("need 0 <= gamma < N, got gamma=%r" % (gamma,))
    if not (1.0 < q1 < math.inf and 1.0 < q2 < math.inf):
        raise ConditionViolation("need 1 < q1, q2 < inf")
    edge = 1.0 + op.params.sigma1 / n
    mid = gamma / n + 1.0 / q1
    if not (0.0 < 1.0 / q2 < mid < edge):
        raise ConditionViolation(
            "need 0 < 1/q2 < gamma/N + 1/q1 < 1 + sigma1/N, got 1/q2=%g "
            "mid=%g edge=%g" % (1.0 / q2, mid, edge))
    a_depth = op.params.diffusion_depth
    theory = -(n / a_depth) * (1.0 / q1 - 1.0 / q2) - gamma / a_depth
    weighted = source.with_values(
        source.values * op.grid.nodes ** (-gamma))
    fields = op.evolve_through(weighted, t_list)
    norms = np.array([lq_norm(f, q2) for f in fields])
    return SlopeFit.from_loglog(t_list, norms, theory)


# ---------------------------------------------------------------------------
# dilation identity
# ---------------------------------------------------------------------------

def sample_log(fld: RadialField, radii: np.ndarray) -> np.ndarray:
    """Sample a field at arbitrary radii, linearly in log r.

    Below the first node the profile is taken flat (radial symmetry forces
    u'(0) = 0); beyond the last node it is zero (absorbing far field).
    """
    r = fld.grid.nodes
    out = np.interp(np.log(radii), np.log(r), fld.values,
                    left=float(fld.values[0]), right=0.0)
    out = np.where(radii > r[-1], 0.0, out)
    return out


def scaling_identity_check(op: SemigroupOp, lam: float, t: float,
                           source: RadialField,
                           window: Optional[Tuple[float, float]] = None,
                           substeps: Optional[int] = None) -> float:
    """Relative discrepancy of D_lam^(-1) S(t) D_lam = S(lam^A t), A = 2+s1.

    Both sides are formed on the operator's own grid and compared in
    L^2(r^(N-1) dr) over an interior window (default
    [20 r_min, r_max / (4 max(lam, 1/lam))]) so that boundary closures and
    resampling fill values stay out of the measure.  Returns
    ||lhs - rhs||_2 / ||rhs||_2 on the window.

    When the grid is log-uniform with step dividing log(lam) (see
    RadialGrid.log_commensurate), the dilation is realized exactly as an
    index shift.  On such a grid the discrete operator itself scales as
    lam^(-A) under the shift, so the interior identity holds exactly for
    the scheme and the measured discrepancy isolates the effect of the
    domain truncation.  That error is controlled by the truncation radii,
    not the node count: the convergent refinement family deepens r_min
    (e.g. halves it) together with doubling m and substeps.  On grids not
    commensurate with lam the dilation falls back to log-linear resampling,
    whose interpolation error then dominates the measurement.
    """
    if lam <= 0.0:
        raise ValueError("dilation factor must be positive")
    r = op.grid.nodes
    shift = None
    if op.grid.spacing == SPACING_LOG and r.size > 1:
        h = math.log(r[-1] / r[0]) / (r.size - 1)
        ratio = abs(math.log(lam)) / h
        k = round(ratio)
        if 1 <= k <= r.size - 8 and abs(ratio - k) <= 1e-8 * max(1.0, ratio):
            shift = k if lam > 1.0 else -k

    if shift is not None and shift > 0:
        vals = source.values
        dil = np.zeros_like(vals)
        dil[:-shift] = vals[shift:]
        evolved = op.apply(source.with_values(dil), t, substeps=substeps)
        lhs = np.empty_like(vals)
        lhs[shift:] = evolved.values[:-shift]
        lhs[:shift] = evolved.values[0]
    elif shift is not None and shift < 0:
        k = -shift
        vals = source.values
        dil = np.empty_like(vals)
        dil[k:] = vals[:-k]
        dil[:k] = vals[0]
        evolved = op.apply(source.with_values(dil), t, substeps=substeps)
        lhs = np.zeros_like(vals)
        lhs[:-k] = evolved.values[k:]
    else:
        dilated = source.with_values(sample_log(source, lam * r))
        evolved = op.apply(dilated, t, substeps=substeps)
        lhs = sample_log(evolved, r / lam)
    t_scaled = lam ** op.params.diffusion_depth * t
    rhs = op.apply(source, t_scaled, substeps=substeps).values

    if window is None:
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
