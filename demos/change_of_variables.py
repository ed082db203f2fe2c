"""Remove the |x|^s1 weight from the time derivative by the radial
substitution z = r^theta, followed by a stretch and a time rescale.

The transported trajectory must satisfy the unweighted equation

    dv/ds = Lap_{Nbar} v + s_fac(y) |v|^p + tau^rho W(y)

in a generally non-integer dimension Nbar.  The demo evolves the
original weighted problem, pushes snapshots through the substitution,
and measures the discretized residual of the target equation; shrinking
residuals under time refinement are the whole point.
"""

import numpy as np

from fujitalab import (BlowupConfig, ProblemParams, RadialGrid,
                       bump_profile, field_from_callable, gaussian_profile,
                       integrate_nonlinear, residual_check, transform_params)

params = ProblemParams(N=3, sigma1=-1.0, sigma2=-0.5, rho=-0.5, p=3.0)
tp = transform_params(params)

print("substitution constants for (N=%d, s1=%g, s2=%g):" %
      (params.N, params.sigma1, params.sigma2))
print("  theta (radial power)        = %.12g" % tp.theta)
print("  sbar  (transported weight)  = %.12g" % tp.sbar)
print("  Nbar  (effective dimension) = %.12g" % tp.nbar)
print("  Lambda (time rescale)       = %.12g" % tp.lam)
print()

# ---------------------------------------------------------------------------
# evolve the weighted problem directly, then check the transported form
# ---------------------------------------------------------------------------

grid = RadialGrid.log_spaced(30.0, 512, r_min=0.003)
u0 = field_from_callable(grid, gaussian_profile(0.0, 1.0, 0.5), 3.0)
w = field_from_callable(grid, bump_profile(1.0, 0.5), 3.0)

def w_of_r(r):
    return np.interp(r, grid.nodes, w.values, left=w.values[0], right=0.0)


for dt_init, tag in ((2e-3, "coarse"), (5e-4, "refined")):
    sample = np.linspace(0.0, 0.5, 9)
    out = integrate_nonlinear(u0, w, params,
                              BlowupConfig(dt_init=dt_init, t_max=1.0),
                              sample_times=sample)
    times = [t for t, f in out.snapshots if t > 0.0]
    fields = [f for t, f in out.snapshots if t > 0.0]
    res = residual_check(times, fields, w_of_r, params)
    print("%-8s dt_init=%g  worst interior residual %.5f" %
          (tag, dt_init, float(np.max(res))))

print()
print("the residual is a discretization artifact of the check itself; it")
print("tends to zero with the time step, certifying the substitution")
