"""Change of variables collapsing the time-derivative weight.

A radial solution of  |x|^s1 u_t = Lap(u) + |x|^s2 |u|^p + t^rho w(|x|)
becomes, after the substitution

    z = r^theta,   theta = 1 + s1/2,
    s = theta^(-2/(2+sbar)) z,       tau = Lambda t,

a radial solution of the unweighted equation

    v_tau = v_ss + (Nbar-1)/s v_s + s^sbar |v|^p + tau^rho W(s)

with effective Henon weight sbar = 2(s2-s1)/(2+s1), effective dimension
Nbar = 2(N+s1)/(2+s1) (generally non-integer) and time factor
Lambda = theta^(2 sbar/(2+sbar)).  The transported forcing is

    W(s) = Lambda^(-rho-1) r(s)^(-s1) w(r(s)),   r(s) = (theta^(2/(2+sbar)) s)^(1/theta).

For s1 = 0 the transform is the identity.  The module also provides a
discrete residual check: transported trajectory snapshots are tested
against the transformed equation with centered differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from .errors import DegenerateTransform, InsufficientResolution, Overflow
from .exponents import ProblemParams
from .radial import RadialField

__all__ = [
    "TransformParams",
    "transform_params",
    "forcing_W",
    "residual_check",
]


@dataclass(frozen=True)
class TransformParams:
    """Derived constants (theta, sbar, Nbar, Lambda) of the change of variables."""

    theta: float
    sbar: float
    nbar: float
    lam: float


def transform_params(params: ProblemParams) -> TransformParams:
    """Compute the transform constants for a parameter tuple.

    Raises DegenerateTransform when 2 + sbar = 0, where the s-substitution
    collapses.  In exact arithmetic s2 > -2 keeps 2 + sbar = 2(2+s2)/(2+s1)
    strictly positive, but rounding can still reach 0 from a valid tuple:
    N = 3, s1 = 1e17, s2 = -2 + 2^-51 gives sbar = -2 exactly.
    """
    theta = 1.0 + params.sigma1 / 2.0
    sbar = 2.0 * (params.sigma2 - params.sigma1) / (2.0 + params.sigma1)
    if 2.0 + sbar == 0.0:
        raise DegenerateTransform(
            "2 + sbar vanishes (sigma2 -> -2 limit); no valid substitution")
    nbar = 2.0 * (params.N + params.sigma1) / (2.0 + params.sigma1)
    lam = theta ** (2.0 * sbar / (2.0 + sbar))
    return TransformParams(theta=theta, sbar=sbar, nbar=nbar, lam=lam)


def _s_of_r(r: np.ndarray, tp: TransformParams) -> np.ndarray:
    return tp.theta ** (-2.0 / (2.0 + tp.sbar)) * r ** tp.theta


def _r_of_s(s: np.ndarray, tp: TransformParams) -> np.ndarray:
    return (tp.theta ** (2.0 / (2.0 + tp.sbar)) * s) ** (1.0 / tp.theta)


def forcing_W(w: Callable, params: ProblemParams) -> Callable:
    """Transport a radial forcing profile to the transformed variables.

    Given w(r), returns the callable

        W(s) = Lambda^(-rho-1) * r(s)^(-s1) * w(r(s)),

    where r(s) is the inverse node map; the r^(-s1) factor is the
    time-derivative weight moved to the right-hand side before the
    substitution.  For s1 = 0 this is w itself.
    """
    tp = transform_params(params)
    try:
        pre = tp.lam ** (-params.rho - 1.0)
    except OverflowError:
        raise Overflow("the factor Lambda^(-rho-1) overflows") from None

    def W(s):
        s = np.asarray(s, dtype=float)
        r = _r_of_s(s, tp)
        return pre * r ** (-params.sigma1) * np.asarray(w(r), dtype=float)
    return W


# ---------------------------------------------------------------------------
# discrete residual of the transformed equation
# ---------------------------------------------------------------------------

def _second_derivative(values: np.ndarray, x: np.ndarray):
    """Centered first and second differences on a nonuniform grid (interior)."""
    h0 = x[1:-1] - x[:-2]
    h1 = x[2:] - x[1:-1]
    f0, f1, f2 = values[:-2], values[1:-1], values[2:]
    d1 = (f2 - f0) / (h0 + h1)
    d2 = 2.0 * ((f2 - f1) / h1 - (f1 - f0) / h0) / (h0 + h1)
    return d1, d2


_EDGE_TRIM = 8      # nodes dropped at each boundary of the residual


def residual_check(times: Sequence[float], fields: Sequence[RadialField],
                   w: Callable, params: ProblemParams) -> List[float]:
    """Discrete residual of the transformed equation along a trajectory.

    ``times``/``fields`` are snapshots of a solution of the original
    equation on a common radial grid.  Each snapshot that has both
    neighbours is transported to (tau, s) variables, and

        v_tau - [ v_ss + (Nbar-1)/s v_s + s^sbar |v|^p + tau^rho W(s) ]

    is formed with a centered difference in tau and centered differences
    in s.  Returns one number per tested snapshot: the root-mean-square
    residual over interior nodes, with 8 nodes dropped at each
    boundary so absorbing/reflecting closures do not pollute the measure.
    Raises InsufficientResolution when fewer than 5 interior nodes remain.

    For sigma1 = 0 the transform is the identity and this is simply the
    discretization residual of the original equation.
    """
    tp = transform_params(params)
    if len(times) != len(fields):
        raise ValueError("times and fields must have equal length")
    if len(times) < 3:
        raise InsufficientResolution("need at least 3 snapshots for v_tau")
    grid = fields[0].grid
    s = _s_of_r(grid.nodes, tp)
    taus = tp.lam * np.asarray(times, dtype=float)
    w_vals = forcing_W(w, params)(s)

    lo = 1 + _EDGE_TRIM
    hi = s.size - 1 - _EDGE_TRIM
    if hi - lo < 5:
        raise InsufficientResolution(
            "only %d interior nodes after trimming" % max(hi - lo, 0))

    out = []
    for k in range(1, len(times) - 1):
        v_prev, v_k, v_next = (fields[k - 1].values, fields[k].values,
                               fields[k + 1].values)
        v_tau = (v_next - v_prev) / (taus[k + 1] - taus[k - 1])
        d1, d2 = _second_derivative(v_k, s)
        sin = s[1:-1]
        rhs = (d2 + (tp.nbar - 1.0) / sin * d1
               + sin ** tp.sbar * np.abs(v_k[1:-1]) ** params.p
               + taus[k] ** params.rho * w_vals[1:-1])
        res = v_tau[1:-1] - rhs
        window = res[_EDGE_TRIM:res.size - _EDGE_TRIM]
        out.append(float(np.sqrt(np.mean(window ** 2))))
    return out
