"""Local-in-time existence for data that are merely in L^q: measure the
existence window the contraction argument certifies.

The local theory trades the smallness of the global construction for a
finite horizon: given u0 in L^q with q above the scaling-admissible
floor, the Duhamel map contracts on a ball of C([0,T]; L^q) once T
satisfies C1 T^(1-alpha) M^p + C2 |w|_q T^(rho+1) <= M/2.  The solver
measures the probe constants C1, C2 from the linear trace and reports
the resulting window together with a trace-continuity certificate.
"""

import numpy as np

from fujitalab import (BlowupConfig, ProblemParams, RadialGrid,
                       bump_profile, field_from_callable, gaussian_profile,
                       integrate_nonlinear, lq_norm, solve_local_Lq)
from fujitalab.exponents import local_alpha

params = ProblemParams(N=3, sigma1=0.0, sigma2=0.0, rho=0.0, p=2.0)
grid = RadialGrid.log_spaced(30.0, 512, r_min=0.03)
u0 = field_from_callable(grid, gaussian_profile(0.0, 1.0, 0.5), 3.0)
w = field_from_callable(grid, bump_profile(1.0, 0.5), 3.0)

q = 4.0
print("time-decay exponent alpha(q=%g) = %.4f (must be < 1)"
      % (q, local_alpha(params, q)))

sol = solve_local_Lq(u0, w, params, q=q, horizon_guess=2.0)
print("certified existence window: T = %.4f of guess 2.0" % sol.t_end)
print("ball radius M = %.4f, probe constants C1 = %.4f, C2 = %.4f"
      % (sol.radius, sol.c1, sol.c2))
print("trace continuity: max jump %.4f vs scheme modulus %.4f"
      % (sol.continuity_jump, sol.scheme_tol))
print("converged: %s after %d Picard differences"
      % (sol.converged, len(sol.diffs)))

# ---------------------------------------------------------------------------
# the trace against the direct integrator
# ---------------------------------------------------------------------------

idx = np.linspace(2, len(sol.trajectory.times) - 1, 4).astype(int)
stops = [float(sol.trajectory.times[i]) for i in idx]
direct = integrate_nonlinear(u0, w, params,
                             BlowupConfig(dt_init=5e-4, t_max=sol.t_end),
                             sample_times=stops)
snaps = dict(direct.snapshots)
norms = sol.trajectory.norms(q)
print()
print("%10s %14s %14s %10s" % ("t", "fixed point", "direct march", "rel"))
for i, t in zip(idx, stops):
    ours = norms[i]
    ref = lq_norm(snaps[t], q)
    print("%10.4f %14.6e %14.6e %10.2e"
          % (t, ours, ref, abs(ours - ref) / ref))
