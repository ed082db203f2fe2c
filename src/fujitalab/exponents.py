"""Critical exponents for weighted reaction-diffusion with time-growing forcing.

The model problem is

    |x|^s1 u_t = Lap(u) + |x|^s2 |u|^p + t^rho w(x)      on R^N, N >= 2,

with weights s1, s2 > -2, forcing growth rho > -1 and power p > 1.  This
module collects the exact algebra of the theory: the Fujita-type exponents
of the unforced problem, the nonexistence-critical power of the forced
problem, the scaling-critical Lebesgue exponents, the admissible window of
integrability exponents for the global small-data construction, and the
decay weights (mu, beta, delta) attached to a choice inside that window.

Everything here is closed-form arithmetic; no grids, no quadrature.  The
diffusion depth A := 2 + s1 appears throughout because the natural parabolic
scaling of the operator |x|^(-s1) Lap is x -> c x, t -> c^A t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from .errors import (EmptyWindow, HypothesisViolation, Inadmissible, Overflow,
                     WindowViolation)

__all__ = [
    "ProblemParams",
    "fujita_first",
    "fujita_second",
    "scaling_index",
    "critical_forced",
    "forcing_index",
    "quadratic_f",
    "quadratic_f_at_critical",
    "r_window",
    "Weights",
    "derived_weights",
    "local_alpha",
    "Regime",
    "classify_regime",
    "ExponentReport",
    "build_report",
    "report_text",
    "REPORT_CSV_COLUMNS",
    "report_csv_row",
]


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemParams:
    """Parameter tuple (N, sigma1, sigma2, rho, p) of the model problem.

    N is the space dimension (integer, >= 2).  sigma1 weights the time
    derivative, sigma2 the nonlinearity; both must exceed -2 so that the
    weights are locally integrable against the parabolic scaling.  rho > -1
    keeps the forcing time-integrable near t = 0, and p > 1 makes the
    nonlinearity superlinear.

    Every tuple is checked at construction, ``dataclasses.replace``
    included: HypothesisViolation lists every failed hypothesis at once.
    Non-finite entries are reported alone, because the other checks cannot
    be evaluated on them.
    """

    N: int
    sigma1: float = 0.0
    sigma2: float = 0.0
    rho: float = 0.0
    p: float = 2.0

    def __post_init__(self):
        bad = ["%s must be finite, got %r" % kv for kv in vars(self).items()
               if not math.isfinite(kv[1])]
        if not bad:
            checks = [("N", int(self.N) == self.N and self.N >= 2,
                       "be an integer >= 2"),
                      ("sigma1", self.sigma1 > -2.0, "exceed -2"),
                      ("sigma2", self.sigma2 > -2.0, "exceed -2"),
                      ("rho", self.rho > -1.0, "exceed -1"),
                      ("p", self.p > 1.0, "exceed 1")]
            bad = ["%s must %s, got %r" % (name, rule, getattr(self, name))
                   for name, ok, rule in checks if not ok]
        if bad:
            raise HypothesisViolation("; ".join(bad))

    @property
    def diffusion_depth(self) -> float:
        """A = 2 + sigma1, the parabolic scaling exponent of |x|^(-s1) Lap."""
        return 2.0 + self.sigma1


# ---------------------------------------------------------------------------
# the exponents themselves
# ---------------------------------------------------------------------------

def fujita_first(params: ProblemParams) -> float:
    """Fujita threshold of the unforced problem: 1 + (2+s2)/(N+s1).

    Below this power every nontrivial nonnegative solution of the unforced
    equation blows up; above it small data yield global solutions.
    """
    return 1.0 + (2.0 + params.sigma2) / (params.N + params.sigma1)


def fujita_second(params: ProblemParams) -> float:
    """Secondary (decay-rate) threshold 2(2+s2) / ((2+s1)(p-1)).

    This is the self-similar decay index of the unforced problem; it
    measures how fast the nonlinear mass must spread for global existence.
    """
    return 2.0 * (2.0 + params.sigma2) / (params.diffusion_depth * (params.p - 1.0))


def scaling_index(params: ProblemParams) -> float:
    """Scaling-critical Lebesgue exponent p_c = N(p-1)/(2+s2).

    L^{p_c} is the space whose norm is invariant under the parabolic
    rescaling that fixes the nonlinearity; it anchors the admissible
    window computed by :func:`r_window`.
    """
    return params.N * (params.p - 1.0) / (2.0 + params.sigma2)


def critical_forced(params: ProblemParams) -> float:
    """Nonexistence-critical power for the forced problem (+inf if absent).

    Returns (N + s2 - rho*A) / (N - 2 - rho*A) with A = 2 + s1, the power
    separating "no global solution for any positive-mass forcing" (below)
    from "global solutions for small data and forcing" (above, when
    -1 < rho < 0).  When the denominator N - 2 - rho*A is <= 0 every
    power p > 1 is subcritical and the threshold is +inf; the IEEE
    infinity is returned so that comparisons like ``p > critical_forced``
    stay meaningful.
    """
    rho_a = params.rho * params.diffusion_depth
    den = params.N - 2.0 - rho_a
    if den <= 0.0:
        return math.inf
    return (params.N + params.sigma2 - rho_a) / den


def forcing_index(params: ProblemParams) -> float:
    """Forcing-critical Lebesgue exponent r_c.

    r_c = N(p-1) / (2 + s2 + (1+rho)(2+s1)(p-1)); equivalently
    1/r_c = 1/p_c + (1+rho) A / N.  The Duhamel response of the forcing
    decays exactly when measured from L^{r_c}.
    """
    den = (2.0 + params.sigma2
           + (1.0 + params.rho) * params.diffusion_depth * (params.p - 1.0))
    return params.N * (params.p - 1.0) / den


def quadratic_f(params: ProblemParams, p: Optional[float] = None) -> float:
    """Evaluate f(p) = rho*A*p^2 - (N-2+rho*A)*p + (N+s2).

    The sign of this quadratic encodes the ordering between the forcing
    exponent r_c and the admissible window: f(p) < 0 for every p at or
    above the forced critical power when rho < 0.  Defaults to the
    parameter tuple's own p.
    """
    if p is None:
        p = params.p
    rho_a = params.rho * params.diffusion_depth
    return rho_a * p * p - (params.N - 2.0 + rho_a) * p + (params.N + params.sigma2)


def quadratic_f_at_critical(params: ProblemParams) -> float:
    """Closed form of f at the forced critical power.

    Equals rho*A*(s2+2)^2 / (N-2-rho*A)^2, which is strictly negative for
    rho < 0.  Raises HypothesisViolation when the critical power is +inf
    (denominator <= 0), where the evaluation point does not exist.
    """
    rho_a = params.rho * params.diffusion_depth
    den = params.N - 2.0 - rho_a
    if den <= 0.0:
        raise HypothesisViolation(
            "critical power is +inf for these parameters; f has no finite "
            "evaluation point")
    return rho_a * (params.sigma2 + 2.0) ** 2 / den ** 2


# ---------------------------------------------------------------------------
# admissible window and derived weights
# ---------------------------------------------------------------------------

def r_window(params: ProblemParams) -> Tuple[float, float]:
    """Admissible window for the integrability exponent r, in 1/r coordinates.

    Returns (lo, hi) with

        lo = max(1/p_c - A/(N p),  1/p_c + rho*A/N)
        hi = min(1/p_c,            (N+s2)/(N p))

    Any r with lo < 1/r < hi (and r > 1) makes all three decay weights of
    :func:`derived_weights` sit strictly inside (0, 1) bounds.  The window
    is guaranteed nonempty when -2 < s2 < s1 <= 0, -1 < rho < 0 and p
    exceeds the forced critical power.  Raises EmptyWindow when lo >= hi,
    which signals a subcritical p or weights outside that guarantee.
    """
    n, p = params.N, params.p
    a_over_n = params.diffusion_depth / n
    inv_pc = 1.0 / scaling_index(params)
    lo = max(inv_pc - a_over_n / p, inv_pc + params.rho * a_over_n)
    hi = min(inv_pc, (n + params.sigma2) / (n * p))
    if not lo < hi:
        raise EmptyWindow(
            "admissible window empty: max(%g) >= min(%g); p=%g is at or "
            "below the subcritical range" % (lo, hi, p))
    return (lo, hi)


@dataclass(frozen=True)
class Weights:
    """Decay weights attached to an admissible integrability exponent r.

    mu   -- polynomial decay rate of the L^r norm, u(t) ~ t^-mu;
    beta -- decay rate of the forcing response measured from L^{r_c};
    delta -- singularity order of the nonlinear Duhamel kernel.

    They satisfy 1 - p*mu - delta = -mu = rho + 1 - beta and
    delta = 1 - (p-1)*mu, with 0 < mu < 1/p, 0 < beta < 1, 0 < delta < 1
    whenever r lies inside the admissible window.
    """

    r: float
    mu: float
    beta: float
    delta: float


def derived_weights(params: ProblemParams, r: Optional[float] = None) -> Weights:
    """Compute (mu, beta, delta) for an exponent r inside the window.

    mu = (N/A)(1/p_c - 1/r), beta = (N/A)(1/r_c - 1/r), and delta is the
    kernel order :func:`local_alpha` at q = r.  When r is omitted it is the
    midpoint of the window in 1/r coordinates, taken over the window
    clipped to (0, 1): the formulas place no floor at 1/r = 0 for large p,
    but a usable exponent needs r in (1, inf).  Raises WindowViolation if
    1/r falls outside the open window (or r <= 1).
    """
    lo, hi = r_window(params)
    if r is None:
        r = 2.0 / (max(lo, 0.0) + min(hi, 1.0))
    if not r > 1.0:
        raise WindowViolation("need r > 1, got r=%g" % r)
    inv_r = 1.0 / r
    if not (lo < inv_r < hi):
        raise WindowViolation(
            "1/r=%g outside admissible window (%g, %g)" % (inv_r, lo, hi))
    n_over_a = params.N / params.diffusion_depth
    mu = n_over_a * (1.0 / scaling_index(params) - inv_r)
    beta = n_over_a * (1.0 / forcing_index(params) - inv_r)
    delta = local_alpha(params, r)

    # Window membership makes these bounds theorems; in floating point they
    # can fail only by rounding, at extreme parameter values (sigma1 = 1e300
    # rounds delta up to 1).
    if not (0.0 < mu < 1.0 / params.p and 0.0 < beta < 1.0
            and 0.0 < delta < 1.0):
        raise WindowViolation(
            "1/r=%g is inside the window only before rounding: mu=%g "
            "beta=%g delta=%g" % (inv_r, mu, beta, delta))
    return Weights(r=r, mu=mu, beta=beta, delta=delta)


# ---------------------------------------------------------------------------
# local well-posedness exponents
# ---------------------------------------------------------------------------

def local_alpha(params: ProblemParams, q: float) -> float:
    """Kernel singularity order of the local-in-time L^q theory.

    alpha = N(p-1)/(q(2+s1)) + (s1-s2)/(2+s1).  The local contraction
    closes exactly when alpha < 1, which is the first admissibility
    inequality of :func:`require_admissible_q`.
    """
    a = params.diffusion_depth
    return (params.N * (params.p - 1.0) / (q * a)
            + (params.sigma1 - params.sigma2) / a)


def _power_integral(a: float, b: float, e: float) -> float:
    """int_a^b s^(e-1) ds for 0 <= a <= b and e > 0; e = rho + 1 gives the
    forcing's time factor over a step.

    b^e (1 - (a/b)^e) / e with expm1 and log1p does not cancel as e -> 0
    or (b-a)/b -> 0.  Raises Overflow, with no OverflowError or warning,
    where the integral or (for e > 1 only) b^e leaves the float range.  Out
    of __all__, which the benchmark tracer wraps: it runs once per step.
    """
    part = (-math.expm1(e * math.log1p((a - b) / b)) if a > 0.0 else 1.0) / e
    try:
        value = math.pow(b, e) * part
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise Overflow("int s^%g ds over [%g, %g] leaves the float range"
                       % (e - 1.0, a, b))
    return value


def _q_violations(params: ProblemParams, q: float) -> list:
    """The local-theory inequalities that q fails, as messages."""
    n, p = params.N, params.p
    lebesgue = n * p / (n + params.sigma2)
    kernel = n * (p - 1.0) / (2.0 + params.sigma2)
    checks = [(q > lebesgue, "q=%g <= Np/(N+s2)=%g" % (q, lebesgue)),
              (q > kernel, "q=%g <= N(p-1)/(2+s2)=%g (kernel order >= 1)"
               % (q, kernel)),
              (q >= p, "q=%g < p=%g" % (q, p))]
    return [message for ok, message in checks if not ok]


def require_admissible_q(params: ProblemParams, q: float) -> None:
    """Check that q carries the local existence theory for these parameters.

    Requires all three of

        q > N p / (N + s2),
        q > N (p-1) / (2 + s2)    (equivalently local_alpha < 1),
        q >= p,

    and raises Inadmissible naming each failed inequality.
    """
    bad = _q_violations(params, q)
    if bad:
        raise Inadmissible("; ".join(bad))


# ---------------------------------------------------------------------------
# regime classification
# ---------------------------------------------------------------------------

class Regime(Enum):
    """Existence/nonexistence regime of a parameter tuple.

    The NoGlobal_* values assert that no global-in-time solution exists
    for any forcing with positive mass; GlobalCandidate_Supercritical
    marks the range where the small-data global construction applies;
    Unclassified covers boundary cases (p equal to the critical power,
    nonpositive forcing mass, and parameter corners outside the theory).
    """

    NO_GLOBAL_RHO_POSITIVE = "NoGlobal_RhoPositive"
    NO_GLOBAL_SUBCRITICAL = "NoGlobal_Subcritical"
    NO_GLOBAL_CRITICAL_RHO_ZERO = "NoGlobal_CriticalRhoZero"
    GLOBAL_CANDIDATE_SUPERCRITICAL = "GlobalCandidate_Supercritical"
    UNCLASSIFIED = "Unclassified"


def classify_regime(params: ProblemParams, w_mass_sign: int = 1) -> Regime:
    """Place a parameter tuple in its existence/nonexistence regime.

    w_mass_sign is the sign of the forcing mass integral; the nonexistence
    statements all require it to be positive.  Classification:

      rho > 0, positive mass            -> NoGlobal_RhoPositive
      rho = 0, positive mass,
        p <= (N+s2)/(N-2)_+             -> NoGlobal_CriticalRhoZero
      -1 < rho < 0, positive mass,
        p <  critical power             -> NoGlobal_Subcritical
      -1 < rho < 0, p > critical power  -> GlobalCandidate_Supercritical
      anything else                     -> Unclassified

    At N = 2 the rho = 0 threshold (N+s2)/(N-2)_+ is +inf, so every p > 1
    is in the nonexistence range there.
    """
    positive = w_mass_sign > 0
    if params.rho > 0.0:
        return Regime.NO_GLOBAL_RHO_POSITIVE if positive else Regime.UNCLASSIFIED
    p_star = critical_forced(params)
    if params.rho == 0.0:
        if positive and params.p <= p_star:
            return Regime.NO_GLOBAL_CRITICAL_RHO_ZERO
        return Regime.UNCLASSIFIED
    # -1 < rho < 0 from here on
    if params.p < p_star and positive:
        return Regime.NO_GLOBAL_SUBCRITICAL
    if params.p > p_star:
        return Regime.GLOBAL_CANDIDATE_SUPERCRITICAL
    return Regime.UNCLASSIFIED


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentReport:
    """Every exponent of a parameter tuple, plus optional window weights.

    ``window`` is the admissible interval in 1/r coordinates, or None when
    it is empty.  ``weights`` (with the r they belong to) is populated only
    when a usable r was available (given or defaulted) inside the window.
    """

    params: ProblemParams
    p_fujita: float
    mu_star: float
    p_c: float
    p_star: float
    r_c: float
    window: Optional[Tuple[float, float]]
    weights: Optional[Weights]
    regime: Regime


def build_report(params: ProblemParams,
                 r: Optional[float] = None) -> ExponentReport:
    """Assemble the full exponent report for a parameter tuple.

    The window and weights are best-effort: an empty window or an r outside
    it leaves those fields None instead of raising, so the report stays
    total for any tuple.  The regime assumes positive-mass forcing.
    """
    window, weights = None, None
    try:
        window = r_window(params)
        weights = derived_weights(params, r)
    except (EmptyWindow, WindowViolation):
        pass
    return ExponentReport(
        params=params,
        p_fujita=fujita_first(params),
        mu_star=fujita_second(params),
        p_c=scaling_index(params),
        p_star=critical_forced(params),
        r_c=forcing_index(params),
        window=window,
        weights=weights,
        regime=classify_regime(params),
    )


def _fmt(x) -> str:
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return "%.12g" % x


def _report_cells(report: ExponentReport) -> List[Tuple[str, str]]:
    """(key, cell) pairs of a report; missing window/weights are empty.

    r_lo/r_hi are the window endpoints expressed in r (not 1/r), so they
    read as 'r may be chosen in (r_lo, r_hi)'.
    """
    p, w = report.params, report.weights
    r_lo = r_hi = ""
    if report.window is not None:
        lo, hi = report.window
        r_lo, r_hi = _fmt(1.0 / hi), "inf" if lo <= 0.0 else _fmt(1.0 / lo)
    # every other key names the attribute that fills its cell
    return ([("N", "%g" % p.N)]
            + [(k, _fmt(getattr(p, k)))
               for k in ("sigma1", "sigma2", "rho", "p")]
            + [(k, _fmt(getattr(report, k)))
               for k in ("p_fujita", "mu_star", "p_c", "p_star", "r_c")]
            + [("r_lo", r_lo), ("r_hi", r_hi)]
            + [(k, _fmt(getattr(w, k)) if w else "")
               for k in ("r", "mu", "beta", "delta")]
            + [("regime", report.regime.value)])


def report_text(report: ExponentReport) -> str:
    """Serialize a report as a flat key = value block."""
    return "".join("%s = %s\n" % kv for kv in _report_cells(report))


REPORT_CSV_COLUMNS = [
    "N", "sigma1", "sigma2", "rho", "p",
    "p_fujita", "mu_star", "p_c", "p_star", "r_c",
    "r_lo", "r_hi", "mu", "beta", "delta", "regime",
]


def report_csv_row(report: ExponentReport) -> list:
    """One CSV row per report: every report_text cell but r."""
    return [cell for key, cell in _report_cells(report) if key != "r"]
