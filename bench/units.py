"""Layer units timed alone, plus the accuracy of one exp(tL) application.

Each unit is timed on fixed inputs (not seeded: the same numbers on every
run) at m in UNIT_SIZES, and reported as the median over a few calls.

* implicit_solve: one (I - dt L) x = rhs solve, dt = 1e-3
* apply: one exp(tL) application at t = 1 with the operator's stepper
* duhamel_forcing: the forcing integral H on 32 log-spaced times in (0, 2]
* picard_step: one fixed-point application on those times, linear part given
* integrate_nonlinear: one direct IMEX run to t = 2 from zero data
* capacity_integrals: one call at R = 100, T = R^2 (no grid)

semigroup.expm_rel_err compares ``SemigroupOp.apply(u, 1)`` with
``scipy.linalg.expm(L) u`` at m = 512, L assembled column by column through
the public ``apply_operator``.
"""

import statistics
import time

import numpy as np
import scipy.linalg

from fujitalab.blowup import BlowupConfig, integrate_nonlinear
from fujitalab.capacity import capacity_integrals
from fujitalab.exponents import ProblemParams
from fujitalab.mild import MildConfig, duhamel_forcing, picard_step
from fujitalab.radial import (RadialField, RadialGrid, bump_profile,
                              field_from_callable, gaussian_profile)
from fujitalab.semigroup import SemigroupOp

UNIT_SIZES = (384, 512, 1024, 4096)
# the mild-solve demo tuple, and the blow-up scan demo tuple
MILD = ProblemParams(N=3, sigma1=0.0, sigma2=-0.1, rho=-0.5, p=3.0)
SCAN = ProblemParams(N=3, sigma1=0.0, sigma2=0.0, rho=-0.5, p=2.0)
SUBCRITICAL = ProblemParams(N=3, sigma1=0.0, sigma2=0.0, rho=-0.5, p=1.5)


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _grid(m: int) -> RadialGrid:
    return RadialGrid.log_spaced(30.0, m, r_min=0.03)


def _units_at(m: int) -> dict:
    grid = _grid(m)
    op = SemigroupOp(grid, MILD)
    u0 = field_from_callable(grid, gaussian_profile(0.0, 1.0, 1e-3), 3.0)
    w = field_from_callable(grid, bump_profile(1.0, 1e-3), 3.0)
    cfg = MildConfig(t_max=2.0, n_times=32)
    times = np.geomspace(2e-3, 2.0, 32)
    linear = duhamel_forcing(w, MILD, times, cfg)
    metric = (0.0, 4.0)
    zero = RadialField(grid, np.zeros(m), 3.0)
    w_scan = field_from_callable(grid, bump_profile(1.0, 4.0), 3.0)
    run_cfg = BlowupConfig(dt_init=5e-3, t_max=2.0)
    return {
        "implicit_solve": _median_time(
            lambda: op.implicit_solve(u0.values, 1e-3), 101),
        "apply": _median_time(lambda: op.apply(u0, 1.0), 11),
        "duhamel_forcing": _median_time(
            lambda: duhamel_forcing(w, MILD, times, cfg), 3),
        "picard_step": _median_time(
            lambda: picard_step(linear, u0, w, MILD, cfg, linear=linear,
                                head_theta=0.0, metric=metric), 3),
        "integrate_nonlinear": _median_time(
            lambda: integrate_nonlinear(zero, w_scan, SCAN, run_cfg), 3),
    }


def expm_rel_err(m: int = 512) -> float:
    grid = _grid(m)
    op = SemigroupOp(grid, MILD)
    gen = np.column_stack([op.apply_operator(e) for e in np.eye(m)])
    u = field_from_callable(grid, gaussian_profile(0.0, 1.0, 1.0), 3.0)
    exact = scipy.linalg.expm(gen) @ u.values
    got = op.apply(u, 1.0).values
    return float(np.linalg.norm(got - exact) / np.linalg.norm(exact))


def unit_metrics() -> dict:
    """Per-layer metric name -> value for every unit and the expm check."""
    out = {}
    for m in UNIT_SIZES:
        for name, value in _units_at(m).items():
            out["unit.%s.m%d_s" % (name, m)] = value
    out["unit.capacity_integrals_s"] = _median_time(
        lambda: capacity_integrals(SUBCRITICAL, 100.0, 1e4), 21)
    out["semigroup.expm_rel_err"] = expm_rel_err()
    return out
