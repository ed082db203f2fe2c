"""Build a global-in-time solution as the fixed point of the Duhamel map
and watch the contraction certificate.

For data small in the time-weighted norm sup_t t^mu ||u(t)||_{L^r} the
map

    G(u)(t) = S(t) u0 + int_0^t S(t-s) |x|^(-s1) [ |x|^s2 |u|^p
                                                   + s^rho w ] ds

is a contraction; the demo prints the Picard difference ladder, checks
the fixed point against an independent direct time integrator, and
finishes with a weak-form residual against a space-time test function.
"""

import numpy as np

from fujitalab import (BlowupConfig, MildConfig, ProblemParams, RadialGrid,
                       bump_profile, bump_test_function, field_from_callable,
                       gaussian_profile, integrate_nonlinear, lq_norm,
                       picard_step, solve_global_small, weak_residual,
                       x_distance)

params = ProblemParams(N=3, sigma1=0.0, sigma2=-0.1, rho=-0.5, p=3.0)
grid = RadialGrid.log_spaced(30.0, 512, r_min=0.03)
u0 = field_from_callable(grid, gaussian_profile(0.0, 1.0, 1e-3), 3.0)
w = field_from_callable(grid, bump_profile(1.0, 1e-3), 3.0)
cfg = MildConfig(t_max=2.0, n_times=32)

sol = solve_global_small(u0, w, params, cfg)
print("converged: %s   metric exponents mu=%.6f, r=%.4f"
      % (sol.converged, sol.mu, sol.r))
print("%6s %14s %10s" % ("iter", "X-difference", "ratio"))
for k, d in enumerate(sol.diffs):
    ratio = "" if k == 0 else "%.2e" % sol.ratios[k - 1]
    print("%6d %14.6e %10s" % (k + 1, d, ratio))

again = picard_step(sol.trajectory, u0, w, params, cfg)
print("one more application moves the iterate by %.2e (tol %.0e)"
      % (x_distance(again, sol.trajectory, sol.mu, sol.r), cfg.picard_tol))

# ---------------------------------------------------------------------------
# cross-check against the direct IMEX integrator
# ---------------------------------------------------------------------------

stops = [float(t) for t in sol.trajectory.times[[7, 15, 31]]]
direct = integrate_nonlinear(u0, w, params,
                             BlowupConfig(dt_init=5e-4, t_max=2.0),
                             sample_times=stops)
snaps = dict(direct.snapshots)
fields = sol.trajectory.fields    # built on each access: take them once
print()
print("fixed point vs direct march, L^r norms:")
for i, t in zip((7, 15, 31), stops):
    ours = lq_norm(fields[i], sol.r)
    ref = lq_norm(snaps[t], sol.r)
    print("  t=%.4f  %.6e vs %.6e  (rel %.2e)"
          % (t, ours, ref, abs(ours - ref) / ref))

# ---------------------------------------------------------------------------
# weak-form residual: the fixed point solves the equation in the
# distributional sense, not only along the quadrature grid
# ---------------------------------------------------------------------------

phi = bump_test_function(1.5, 0.0, 10.0)
res = weak_residual(sol.trajectory, u0, w, params, phi)
fine = solve_global_small(u0, w, params,
                          MildConfig(t_max=2.0, n_times=64,
                                     duhamel_substeps=6))
res_fine = weak_residual(fine.trajectory, u0, w, params, phi)
print()
print("weak residual against a compactly supported test function:")
print("  32 quadrature times: %.2e    64 times: %.2e" % (res, res_fine))
print("the residual is quadrature error; it shrinks under refinement")
