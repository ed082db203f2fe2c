"""Direct nonlinear integration with blow-up detection and threshold scans.

The equation weights u_t by |x|^s1, feeds it |x|^s2 |u|^p plus the forcing
t^rho w(x), and the interesting question is whether solutions live forever
or leave every bound in finite time.  Each step is the TR-BDF2 step that
every march takes (SemigroupOp._step), fed the reaction extrapolated to
mid-step and the forcing, whose time factor is integrated exactly and
without cancellation over the step, so rho close to -1 costs nothing in
accuracy.  The extrapolation doubles as the error estimate that sets the
step on a geometric ladder, whose repeated rungs reuse factorisations;
a calibration and a scan each share one operator across their runs, so a
rung factored in one run is reused by the next.

Blow-up cannot be observed, only diagnosed: we declare it when the sup
norm passes a cap, or when the step size collapses below dt_min while
the norm keeps climbing.  Past the cap, t* is the singular time of the
type-I law sup|u| = C (T - t)^(-b) through the run's last accepted
steps, so a run can stop long before the norm leaves every bound: the
scan's runs stop at 1e3 by default, as the amplitude calibration's
probes do, skipping the type-I tail.  The calibration reads only
outcomes, so its probes also start at 4 dt_init.  Reaching the horizon
with bounded norm is reported as Global.  Everything in between stays
Inconclusive; these labels are numerical evidence at a finite horizon,
not theorems.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import HypothesisViolation, NoBracket, NumericalFailure
from .exponents import ProblemParams, _power_integral, critical_forced
from .radial import (RadialField, RadialGrid, bump_profile,
                     field_from_callable, sphere_area)
from .semigroup import _STAGE, SemigroupOp

__all__ = [
    "GLOBAL", "BLOWN_UP", "INCONCLUSIVE",
    "BlowupConfig", "SolveOutcome", "integrate_nonlinear",
    "ScanRow", "ScanReport", "scan_threshold", "calibrate_amplitude",
    "SCAN_CSV_COLUMNS",
]

GLOBAL = "Global"
BLOWN_UP = "BlownUp"
INCONCLUSIVE = "Inconclusive"

_STEP_BUDGET = 10 ** 6      # most steps a run may attempt, rejected ones included
_RUNGS = 4                  # rungs of the step ladder dt_init 2^(k/4) per doubling
_TOP_RUNG = 32              # the largest step is dt_init 2^(32/4) = 256 dt_init
_T_TARGET = 10.0            # horizon of the calibration's ignition probes
_IGNITION = 1e3             # norm cap of every calibration probe
_PROBE_STEP = 4.0           # first step of every calibration probe, in dt_init
_AMP_START = 0.125          # first amplitude the calibration tries
_MAX_DOUBLINGS = 16         # most doublings, then halvings, of that amplitude


@dataclass(frozen=True)
class BlowupConfig:
    """Step-size knobs for the direct integrator.

    The default blow-up cap of 1e8 serves direct callers and
    ``transform-check``; ``blowup-scan`` passes its ``norm_cap``, 1e3 by
    default.
    """

    dt_init: float = 1e-3
    dt_min: float = 1e-10
    blowup_norm_cap: float = 1e8
    t_max: float = 50.0

    def __post_init__(self):
        if not (self.dt_min > 0.0 and self.dt_init >= self.dt_min):
            raise ValueError("need dt_init >= dt_min > 0")
        if self.blowup_norm_cap <= 0.0 or self.t_max <= 0.0:
            raise ValueError("blowup_norm_cap and t_max must be positive")

    def start_norm(self, u0: RadialField) -> float:
        """sup |u0|, which must lie below the blow-up cap (ValueError)."""
        sup0 = float(np.max(np.abs(u0.values)))
        if self.blowup_norm_cap <= sup0:
            raise ValueError("blow-up cap %g does not exceed the initial norm %g"
                             % (self.blowup_norm_cap, sup0))
        return sup0

    def snapshot_times(self, times: Sequence[float]) -> List[float]:
        """The requested times in (0, t_max], sorted.  ValueError when one
        lies within the step floor max(dt_min, 1e-12) of 0 or of the time
        before it, where two snapshots would hold the same field."""
        wanted = sorted(float(s) for s in times if 0.0 < float(s) <= self.t_max)
        floor = max(self.dt_min, 1e-12)
        for a, b in zip([0.0] + wanted, wanted):
            if b - a < floor:
                raise ValueError("snapshot time %g lies within %g of %g, "
                                 "closer than the step floor" % (b, floor, a))
        return wanted


@dataclass
class SolveOutcome:
    """What the integrator could honestly conclude about one run."""

    status: str
    t_end: float
    t_star: Optional[float]
    max_norm: float
    final_norm: float
    steps: int
    min_dt: float
    snapshots: List[Tuple[float, RadialField]] = field(default_factory=list)


@np.errstate(over="ignore", invalid="ignore")
def integrate_nonlinear(u0: RadialField, w: Optional[RadialField],
                        params: ProblemParams, cfg: BlowupConfig,
                        sample_times: Optional[Sequence[float]] = None,
                        op: Optional[SemigroupOp] = None) -> SolveOutcome:
    """March the full nonlinear problem and classify the outcome.

    A step of size dt from t_n is one TR-BDF2 step (SemigroupOp._step)
    whose source integrates to dt f_n + (dt^2 / 2) f'_n + c_n r^(-s1) w:
    f = r^(s2-s1) |u|^p is the reaction, f'_n its slope over the last
    accepted step (zero on the first step), c_n the exact integral of
    t^rho over the step.  A^-1 is nonnegative with sup norm at most 1, so
    the slope term's sup norm bounds what it adds to u; over 2 dt_init
    times the larger of the old and new sup norms it is the error
    estimate, which grows as dt^2.  A trial is rejected when the estimate
    exceeds 1, and at half size when it doubles the sup norm or goes
    non-finite.  A run whose sup norm passes ``cfg.blowup_norm_cap`` is
    BlownUp at the singular time of the type-I law through its last
    accepted steps (_singular_time); one whose step collapses below dt_min
    while the norm climbs is BlownUp at the time it stopped.  A predictive PI controller (Gustafsson 1994)
    sets dt on the ladder dt_init 2^(k/4), k <= 32, climbing two or more
    rungs at a time, so most steps reuse the last factors; the first step
    is dt_init.
    The step is clamped at each requested snapshot time; ValueError is
    raised before any step when two of them, or the first and 0, lie
    closer than the step floor (BlowupConfig.snapshot_times).  An overflowing
    trial is a rejected step, so numpy's overflow warnings are off; an
    overflowing weight or forcing raises Overflow.  NumericalFailure is
    raised up front when t_max needs more than 10^6 steps at the top
    rung, and when a run would attempt more than 10^6 steps, with the
    partial SolveOutcome as its ``outcome``.

    ``op`` is the operator to step with, built from (u0.grid, params) when
    not given.  It reads only N and sigma1 from its params, so runs that
    differ in p, sigma2 or rho may share one and reuse its factors;
    ValueError when its grid, N or sigma1 differ from the run's.
    """
    dt_top = cfg.dt_init * 2.0 ** (_TOP_RUNG / _RUNGS)
    if cfg.t_max / dt_top > _STEP_BUDGET:
        raise NumericalFailure("t_max=%g needs more steps of at most %g "
                               "than the budget of %d"
                               % (cfg.t_max, dt_top, _STEP_BUDGET))
    if op is None:
        op = SemigroupOp(u0.grid, params)
    elif (op.grid is not u0.grid or op.params.N != params.N
          or op.params.sigma1 != params.sigma1):
        raise ValueError("the operator's grid, N or sigma1 differ from "
                         "the run's")
    sup0 = cfg.start_norm(u0)
    u = u0.values.astype(float).copy()

    # rows f, f' and r^(-s1) w: one dot product forms a step's source in
    # src; coef holds its three weights, mag each trial's |u| and |f'|
    rows = np.zeros((3, u.size))
    if w is not None:
        rows[2] = op.time_weight * w.values
    w_sup = float(np.max(np.abs(rows[2])))
    power_weight = op.weight(params.sigma2 - params.sigma1)
    rows[0] = power_weight * np.abs(u) ** params.p
    coef, src, mag = np.zeros(3), np.empty(u.size), np.empty(u.size)

    wanted = cfg.snapshot_times([] if sample_times is None else sample_times)
    snapshots: List[Tuple[float, RadialField]] = []
    if sample_times is not None and any(float(s) == 0.0 for s in sample_times):
        snapshots.append((0.0, u0.with_values(u.copy())))

    def outcome(status: str, t_star: Optional[float]) -> SolveOutcome:
        return SolveOutcome(status, t, t_star, max_norm, recent[-1][1],
                            steps, min_dt_seen, snapshots)

    t, k, steps, attempts = 0.0, 0, 0, 0
    min_dt_seen = cfg.dt_init
    max_norm = sup0
    recent = deque([(0.0, sup0)], maxlen=11)    # accepted (t, sup|u|)
    slope_sup, c_prev = 0.0, None       # c = estimate / dt^2

    while t < cfg.t_max:
        if attempts == _STEP_BUDGET:
            exc = NumericalFailure("the run reached the budget of %d steps "
                                   "at t=%g" % (_STEP_BUDGET, t))
            exc.outcome = outcome(INCONCLUSIVE, None)
            raise exc
        attempts += 1
        dt = cfg.dt_init * 2.0 ** (k / _RUNGS)
        min_dt_seen = min(min_dt_seen, dt)
        if wanted and t + dt > wanted[0] - 1e-14:
            dt = max(wanted[0] - t, cfg.dt_min)
        dt = min(dt, cfg.t_max - t)

        cn = 0.0 if w is None else _power_integral(t, t + dt, params.rho + 1.0)
        coef[:] = _STAGE * dt, _STAGE * 0.5 * dt * dt, _STAGE * cn
        trial = op._step(u, dt, np.dot(coef, rows, out=src))
        np.abs(trial, out=mag)
        sup = float(np.maximum.reduce(mag))     # nan or inf: a rejected step

        # the forcing injection is legitimate growth even from zero data,
        # so it widens the doubling allowance
        last = recent[-1][1]
        if not math.isfinite(sup) or sup > 2.0 * (last + cn * w_sup) + 1e-300:
            if dt / 2.0 < cfg.dt_min:
                grew = sup if math.isfinite(sup) else last
                if len(recent) == recent.maxlen and grew > 10.0 * recent[0][1]:
                    max_norm = max(max_norm, grew)
                    return outcome(BLOWN_UP, t)
                return outcome(INCONCLUSIVE, None)
            k -= _RUNGS
            continue
        err = 0.5 * dt * dt * slope_sup / (2.0 * cfg.dt_init
                                           * max(sup, last, 1e-300))
        # aim the next estimate at 0.8: err = c dt^2, with c extrapolated
        # from its last two values at half weight; a rung is 2^(1/2) in err
        e = max(err, 1e-3)
        c_now = e / max(dt * dt, 1e-300)    # finite for dt below 1e-150 too
        rungs = math.floor(2.0 * math.log2(
            0.8 / e * ((c_prev or c_now) / c_now) ** 0.5))
        if err > 1.0:
            k += min(rungs, -1)
            continue

        np.power(mag, params.p, out=mag)
        mag *= power_weight
        np.subtract(mag, rows[0], out=rows[1])
        rows[1] /= dt
        rows[0] = mag
        np.abs(rows[1], out=mag)
        slope_sup = float(np.maximum.reduce(mag))
        u = trial
        t += dt
        steps += 1
        recent.append((t, sup))
        max_norm = max(max_norm, sup)
        c_prev = c_now if err > 0.0 else c_prev

        while wanted and t >= wanted[0] - 1e-12:
            snapshots.append((wanted.pop(0), u0.with_values(u.copy())))

        if sup > cfg.blowup_norm_cap:
            return outcome(BLOWN_UP, _singular_time(recent))
        if rungs < 0 or rungs >= 2:
            k = min(k + min(rungs, _RUNGS), _TOP_RUNG)

    return outcome(GLOBAL, None)


def _singular_time(history: Sequence[Tuple[float, float]]) -> float:
    """The time T at which sup = C (T - t)^(-b), b free, goes through the
    last accepted (t, sup) point and the points 3 and 6 before it.

    Near a type-I singularity sup|u| follows that law (Giga & Kohn 1985),
    so T extrapolates the blow-up time past a cap the run crosses long
    before it.  Falls back to the last point's time with fewer than 7
    points, with sups or times that do not increase from a positive sup,
    and with growth that does not accelerate, where no finite T fits.
    With q = (T - t3) / (T - t1) in (0, 1), the law's ratio
    log(s3/s2) / log(s2/s1) falls monotonically from infinity at q = 0
    (T = t3) to (t3 - t2) / (t2 - t1) at q = 1 (T infinite); q is
    bisected to adjacent floats.
    """
    t3, s3 = history[-1]
    if len(history) < 7:
        return t3
    (t1, s1), (t2, s2) = history[-7], history[-4]
    if not (0.0 < s1 < s2 < s3 and t1 < t2 < t3):
        return t3
    rise, lift = math.log(s2 / s1), math.log(s3 / s2)
    d1, span = t2 - t1, t3 - t1
    if lift / rise <= (t3 - t2) / d1:
        return t3
    lo, hi, q = 0.0, 1.0, 0.5
    while lo < q < hi:
        # near = (1 - q)(T - t2): near / (q span) = (T - t2) / (T - t3)
        # and span / near = (T - t1) / (T - t2)
        near = span - d1 * (1.0 - q)
        if math.log(near / (q * span)) * rise > lift * math.log(span / near):
            lo = q          # the law rises faster than the data: T is later
        else:
            hi = q
        q = 0.5 * (lo + hi)
    return t3 + q * span / (1.0 - q)


# --------------------------------------------------------------------------
# threshold scan across the nonlinearity power
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanRow:
    p: float
    outcome: str
    t_star_or_tmax: float
    max_norm: float


@dataclass
class ScanReport:
    rows: List[ScanRow]
    bracket: Tuple[float, float]
    p_star_theory: float
    note: str = ("Finite-horizon evidence only: the theory's threshold is "
                 "asymptotic, so slow blow-up above the bracket and slow "
                 "decay below it are indistinguishable at this horizon.")


SCAN_CSV_COLUMNS = ["p", "outcome", "t_star_or_Tmax", "max_norm"]


def _default_scan_grid() -> RadialGrid:
    return RadialGrid.log_spaced(30.0, 384, r_min=1e-3 * 30.0)


def _scan_forcing(grid: RadialGrid, params: ProblemParams,
                  amplitude: float) -> RadialField:
    # positive bump, normalized to unit mass in the plain volume measure,
    # then scaled; keeps the positive-mass hypothesis explicit
    raw = field_from_callable(grid, bump_profile(support=1.0, amplitude=1.0),
                              float(params.N))
    meas = grid.nodes ** (float(params.N) - 1.0) * grid.cell_widths()
    mass = float(np.sum(raw.values * meas)) * sphere_area(params.N)
    if not (mass > 0.0 and math.isfinite(amplitude / mass)):
        raise HypothesisViolation("a grid from r=%g misses the scan forcing "
                                  "on r < 1: int w > 0 fails" % grid.nodes[0])
    return raw.with_values(raw.values * (amplitude / mass))


def _run_at_p(op: SemigroupOp, p: float, w: RadialField,
              cfg: BlowupConfig) -> SolveOutcome:
    pp = replace(op.params, p=p)
    u0 = RadialField(op.grid, np.zeros(op.grid.m), float(pp.N))
    return integrate_nonlinear(u0, w, pp, cfg, op=op)


def scan_threshold(params_base: ProblemParams, p_range: Tuple[float, float],
                   forcing_amp: float, cfg: BlowupConfig,
                   grid: Optional[RadialGrid] = None,
                   bracket_width: float = 0.25) -> ScanReport:
    """Bisect the nonlinearity power between blown-up and global outcomes.

    Starts from zero data driven by a positive unit-mass bump scaled by
    ``forcing_amp`` and bisects p between an endpoint that blew up and one
    that stayed global, until the bracket is narrower than
    ``bracket_width`` or its midpoint is one of its ends, as narrow as
    floats allow.  Raises NoBracket when both endpoints behave the same
    (the amplitude is then unsuitable for this horizon).  Inconclusive
    runs count as not-global for bisection purposes but keep their honest
    label in the rows.
    """
    p_lo, p_hi = (float(p_range[0]), float(p_range[1]))
    if not (1.0 < p_lo < p_hi and bracket_width > 0.0):
        raise ValueError("need 1 < p_lo < p_hi and bracket_width > 0")
    g = grid if grid is not None else _default_scan_grid()
    w = _scan_forcing(g, params_base, forcing_amp)
    op = SemigroupOp(g, params_base)

    rows: List[ScanRow] = []

    def classify(p: float) -> bool:
        out = _run_at_p(op, p, w, cfg)
        t_rep = out.t_star if out.status == BLOWN_UP else out.t_end
        rows.append(ScanRow(p=p, outcome=out.status,
                            t_star_or_tmax=float(t_rep), max_norm=out.max_norm))
        return out.status != GLOBAL

    lo_blown = classify(p_lo)
    hi_blown = classify(p_hi)
    if lo_blown == hi_blown:
        raise NoBracket(
            "no sign change over p in [%g, %g] at amplitude %g: both %s"
            % (p_lo, p_hi, forcing_amp,
               "blow up" if lo_blown else "stay global"))
    # blow-up lives at small p, global at large p, in all observed regimes
    lo, hi = (p_lo, p_hi) if lo_blown else (p_hi, p_lo)
    mid = 0.5 * (lo + hi)
    while abs(hi - lo) > bracket_width and min(lo, hi) < mid < max(lo, hi):
        if classify(mid):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)

    return ScanReport(rows=rows, bracket=(min(lo, hi), max(lo, hi)),
                      p_star_theory=critical_forced(params_base))


def calibrate_amplitude(params_base: ProblemParams, cfg: BlowupConfig,
                        grid: Optional[RadialGrid] = None) -> float:
    """Deterministic two-sided amplitude calibration for threshold scans.

    A scan can only see the dichotomy when the forcing is strong enough to
    ignite blow-up below the critical power within the horizon, yet weak
    enough that above it the response stays under the large-data ignition
    level, where raising p strengthens rather than weakens the reaction.

    The probes sit at p* -/+ 1/2 around the critical power p*.  Doubling
    from 1/8 finds the first amplitude that blows up at p* - 1/2 by
    t = min(10, t_max).  That amplitude is then halved until the probe at
    p* + 1/2 survives the full horizon, re-checking after each halving
    that p* - 1/2 still blows up by the horizon.  Only a probe's outcome
    is read, never its t* or peak, so a probe counts as blown up once its
    sup norm passes 1e3 (or the config's cap, if lower), about 800 times
    the largest peak of a Global run in the demo and benchmark scans
    (1.29), and it steps from 4 dt_init on the same ladder of rungs; the
    scan's own runs keep dt_init and, by default, stop at the same 1e3.  A supercritical probe
    near the large-data ignition can blow up at 4 dt_init yet stay Global
    at dt_init; the calibration then halves once more, to an amplitude
    that met both requirements at dt_init too in every measured case.
    All probes share one operator.  NoBracket
    is raised when the two requirements cannot be met together, and
    HypothesisViolation, before any probe, unless 1 < p* - 1/2 < p* + 1/2
    (p* infinite, at most 3/2, or so large that the probes round
    together).
    """
    p_star = critical_forced(params_base)
    if not math.isfinite(p_star):
        raise HypothesisViolation("calibration needs a finite critical power")
    p_sub, p_sup = p_star - 0.5, p_star + 0.5
    if not (1.0 < p_sub < p_sup):
        raise HypothesisViolation("calibration needs 1 < p* - 1/2 < p* + 1/2, "
                                  "got %g and %g" % (p_sub, p_sup))
    g = grid if grid is not None else _default_scan_grid()
    probe_cfg = replace(cfg, dt_init=_PROBE_STEP * cfg.dt_init,
                        blowup_norm_cap=min(cfg.blowup_norm_cap, _IGNITION))
    fast_cfg = replace(probe_cfg, t_max=min(_T_TARGET, cfg.t_max))
    op = SemigroupOp(g, params_base)

    def status(p: float, amp: float, horizon_cfg: BlowupConfig) -> str:
        w = _scan_forcing(g, params_base, amp)
        return _run_at_p(op, p, w, horizon_cfg).status

    amp = _AMP_START
    for _ in range(_MAX_DOUBLINGS):
        if status(p_sub, amp, fast_cfg) == BLOWN_UP:
            break
        amp *= 2.0
    else:
        raise NoBracket("no amplitude up to %g ignited blow-up by t=%g at p=%g"
                        % (amp / 2.0, fast_cfg.t_max, p_sub))

    # the igniting amplitude already blew up at p_sub within the horizon
    for halvings in range(_MAX_DOUBLINGS):
        if status(p_sup, amp, probe_cfg) == GLOBAL:
            if halvings == 0 or status(p_sub, amp, probe_cfg) == BLOWN_UP:
                return amp
            break
        amp /= 2.0
    raise NoBracket(
        "no amplitude blows up at p=%g yet stays global at p=%g over t<=%g"
        % (p_sub, p_sup, cfg.t_max))
