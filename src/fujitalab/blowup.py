"""Direct nonlinear integration with blow-up detection and threshold scans.

The equation weights u_t by |x|^s1, feeds it |x|^s2 |u|^p plus the forcing
t^rho w(x), and the interesting question is whether solutions live forever
or leave every bound in finite time.  The integrator treats the stiff
linear part implicitly (same tridiagonal operator the semigroup uses) and
the nonlinearity and forcing explicitly; the forcing time factor is
integrated in closed form over each step so rho close to -1 costs nothing
in accuracy.

Blow-up cannot be observed, only diagnosed: we declare it when the sup
norm passes a large cap, or when the step size collapses below
dt_min while the norm keeps climbing.  Reaching the horizon with bounded
norm is reported as Global.  Everything in between stays Inconclusive;
these labels are numerical evidence at a finite horizon, not theorems.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import NoBracket, StepFailure
from .exponents import ProblemParams, critical_forced, require_valid
from .radial import (RadialField, RadialGrid, bump_profile,
                     field_from_callable, sphere_area)
from .semigroup import SemigroupOp

__all__ = [
    "GLOBAL", "BLOWN_UP", "INCONCLUSIVE",
    "BlowupConfig", "SolveOutcome", "integrate_nonlinear",
    "ScanRow", "ScanReport", "scan_threshold", "calibrate_amplitude",
    "SCAN_CSV_COLUMNS",
]

GLOBAL = "Global"
BLOWN_UP = "BlownUp"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class BlowupConfig:
    """Step-size knobs for the direct integrator."""

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

    @property
    def blew_up(self) -> bool:
        return self.status == BLOWN_UP


def integrate_nonlinear(u0: RadialField, w: Optional[RadialField],
                        params: ProblemParams, cfg: BlowupConfig,
                        sample_times: Optional[Sequence[float]] = None) -> SolveOutcome:
    """March the full nonlinear problem and classify the outcome.

    One step from t_n with size dt solves

        (I - dt L) u_{n+1} = u_n + dt r^(s2-s1) |u_n|^p + c_n r^(-s1) w

    where L is the weighted diffusion operator and c_n integrates the
    forcing factor t^rho exactly over the step.  Steps that double the sup
    norm or go non-finite are retried at half size; accepted steps let dt
    recover by a factor 1.2 up to ten times the initial size.  Snapshots
    are taken exactly at the requested times by clamping the step there.
    """
    require_valid(params)
    grid = u0.grid
    op = SemigroupOp(grid, params)
    r = grid.nodes
    sup0 = cfg.start_norm(u0)
    u = u0.values.astype(float).copy()

    w_weighted = None
    if w is not None:
        w_weighted = r ** (-params.sigma1) * w.values
    power_weight = r ** (params.sigma2 - params.sigma1)
    rho1 = params.rho + 1.0

    requested = [] if sample_times is None else list(sample_times)
    wanted = sorted(float(s) for s in requested if 0.0 < float(s) <= cfg.t_max)
    snapshots: List[Tuple[float, RadialField]] = []
    if sample_times is not None and any(float(s) == 0.0 for s in sample_times):
        snapshots.append((0.0, u0.with_values(u.copy())))

    t = 0.0
    dt = cfg.dt_init
    dt_cap = 10.0 * cfg.dt_init
    steps = 0
    min_dt_seen = dt
    max_norm = sup0
    recent = deque([sup0], maxlen=11)

    w_sup = float(np.max(np.abs(w_weighted))) if w_weighted is not None else 0.0

    def step_once(tn: float, h: float,
                  un: np.ndarray) -> Tuple[Optional[np.ndarray], float]:
        rhs = un + h * power_weight * np.abs(un) ** params.p
        injected = 0.0
        if w_weighted is not None:
            cn = ((tn + h) ** rho1 - tn ** rho1) / rho1
            rhs = rhs + cn * w_weighted
            injected = cn * w_sup
        try:
            return op.implicit_solve(rhs, h), injected
        except StepFailure:
            return None, injected

    while t < cfg.t_max:
        if wanted and t + dt > wanted[0] - 1e-14:
            dt = max(wanted[0] - t, cfg.dt_min)
        dt = min(dt, cfg.t_max - t)

        trial, injected = step_once(t, dt, u)
        sup = math.inf if trial is None else float(np.max(np.abs(trial)))

        # the forcing injection is legitimate growth even from zero data,
        # so it widens the doubling allowance
        if not math.isfinite(sup) or sup > 2.0 * (recent[-1] + injected) + 1e-300:
            if dt / 2.0 < cfg.dt_min:
                grew = sup if math.isfinite(sup) else recent[-1]
                if len(recent) == recent.maxlen and grew > 10.0 * recent[0]:
                    return SolveOutcome(BLOWN_UP, t, t, max(max_norm, grew),
                                        recent[-1], steps, min_dt_seen, snapshots)
                return SolveOutcome(INCONCLUSIVE, t, None, max_norm,
                                    recent[-1], steps, min_dt_seen, snapshots)
            dt /= 2.0
            min_dt_seen = min(min_dt_seen, dt)
            continue

        u = trial
        t += dt
        steps += 1
        recent.append(sup)
        max_norm = max(max_norm, sup)

        while wanted and t >= wanted[0] - 1e-12:
            snapshots.append((wanted.pop(0), u0.with_values(u.copy())))

        if sup > cfg.blowup_norm_cap:
            return SolveOutcome(BLOWN_UP, t, t, max_norm, sup, steps,
                                min_dt_seen, snapshots)
        dt = min(dt * 1.2, dt_cap)

    return SolveOutcome(GLOBAL, t, None, max_norm, recent[-1], steps,
                        min_dt_seen, snapshots)


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
    amplitude: float
    note: str = ("Finite-horizon evidence only: the theory's threshold is "
                 "asymptotic, so slow blow-up above the bracket and slow "
                 "decay below it are indistinguishable at this horizon.")


SCAN_CSV_COLUMNS = ["p", "outcome", "t_star_or_Tmax", "max_norm"]


def _default_scan_grid(params: ProblemParams, m: int = 384) -> RadialGrid:
    return RadialGrid.log_spaced(30.0, m, r_min=1e-3 * 30.0,
                                 sigma1=params.sigma1)


def _scan_forcing(grid: RadialGrid, params: ProblemParams,
                  amplitude: float) -> RadialField:
    # positive bump, normalized to unit mass in the plain volume measure,
    # then scaled; keeps the positive-mass hypothesis explicit
    raw = field_from_callable(grid, bump_profile(support=1.0, amplitude=1.0),
                              float(params.N))
    meas = grid.nodes ** (float(params.N) - 1.0) * grid.cell_widths()
    mass = float(np.sum(raw.values * meas)) * sphere_area(params.N)
    return raw.with_values(raw.values * (amplitude / mass))


def _run_at_p(params: ProblemParams, p: float, grid: RadialGrid,
              w: RadialField, cfg: BlowupConfig) -> SolveOutcome:
    pp = replace(params, p=p)
    u0 = RadialField(grid, np.zeros(grid.m), float(pp.N))
    return integrate_nonlinear(u0, w, pp, cfg)


def scan_threshold(params_base: ProblemParams, p_range: Tuple[float, float],
                   forcing_amp: float, cfg: BlowupConfig,
                   grid: Optional[RadialGrid] = None,
                   bracket_width: float = 0.25) -> ScanReport:
    """Bisect the nonlinearity power between blown-up and global outcomes.

    Starts from zero data driven by a positive unit-mass bump scaled by
    ``forcing_amp`` and bisects p between an endpoint that blew up and one
    that stayed global, until the bracket is narrower than
    ``bracket_width``.  Raises NoBracket when both endpoints behave the
    same (the amplitude is then unsuitable for this horizon).  Inconclusive
    runs count as not-global for bisection purposes but keep their honest
    label in the rows.
    """
    require_valid(params_base)
    p_lo, p_hi = (float(p_range[0]), float(p_range[1]))
    if not (1.0 < p_lo < p_hi):
        raise ValueError("need 1 < p_lo < p_hi in the scan range")
    g = grid if grid is not None else _default_scan_grid(params_base)
    w = _scan_forcing(g, params_base, forcing_amp)

    rows: List[ScanRow] = []

    def classify(p: float) -> bool:
        out = _run_at_p(params_base, p, g, w, cfg)
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
    while abs(hi - lo) > bracket_width:
        mid = 0.5 * (lo + hi)
        if classify(mid):
            lo = mid
        else:
            hi = mid

    return ScanReport(rows=rows, bracket=(min(lo, hi), max(lo, hi)),
                      p_star_theory=critical_forced(params_base),
                      amplitude=forcing_amp)


def calibrate_amplitude(params_base: ProblemParams, cfg: BlowupConfig,
                        p_below: Optional[float] = None,
                        p_above: Optional[float] = None,
                        t_target: float = 10.0,
                        grid: Optional[RadialGrid] = None,
                        amp_start: float = 0.125,
                        max_doublings: int = 16) -> float:
    """Deterministic two-sided amplitude calibration for threshold scans.

    A scan can only see the dichotomy when the forcing is strong enough to
    ignite blow-up below the critical power within the horizon, yet weak
    enough that above it the response stays under the large-data ignition
    level, where raising p strengthens rather than weakens the reaction.

    Doubling from ``amp_start`` finds the first amplitude that blows up by
    ``t_target`` at ``p_below`` (default: critical power minus one half).
    That amplitude is then halved until the probe at ``p_above`` (default:
    critical power plus one half) survives the full horizon, re-checking
    each time that ``p_below`` still blows up by the horizon.  NoBracket is
    raised when the two requirements cannot be met together.
    """
    require_valid(params_base)
    p_star = critical_forced(params_base)
    if p_below is None or p_above is None:
        if not math.isfinite(p_star):
            raise ValueError("calibration needs a finite critical power "
                             "or explicit probe powers")
        p_below = p_star - 0.5 if p_below is None else p_below
        p_above = p_star + 0.5 if p_above is None else p_above
    if not (1.0 < p_below < p_above):
        raise ValueError("need 1 < p_below < p_above, got %g and %g"
                         % (p_below, p_above))
    g = grid if grid is not None else _default_scan_grid(params_base)
    fast_cfg = replace(cfg, t_max=min(t_target, cfg.t_max))

    def probe(p: float, amp: float, horizon_cfg: BlowupConfig) -> SolveOutcome:
        w = _scan_forcing(g, params_base, amp)
        return _run_at_p(params_base, p, g, w, horizon_cfg)

    amp = amp_start
    hot = None
    for _ in range(max_doublings):
        out = probe(p_below, amp, fast_cfg)
        if out.status == BLOWN_UP and out.t_star is not None \
                and out.t_star <= t_target:
            hot = amp
            break
        amp *= 2.0
    if hot is None:
        raise NoBracket("no amplitude up to %g ignited blow-up by t=%g at p=%g"
                        % (amp / 2.0, t_target, p_below))

    amp = hot
    for _ in range(max_doublings):
        if probe(p_above, amp, cfg).status == GLOBAL:
            if probe(p_below, amp, cfg).status == BLOWN_UP:
                return amp
            break
        amp /= 2.0
    raise NoBracket(
        "no amplitude blows up at p=%g yet stays global at p=%g over t<=%g"
        % (p_below, p_above, cfg.t_max))
