"""Measure the decay rates of the degenerate linear semigroup and compare
them to the predicted powers of t.

Three experiments on S(t) = exp(t |x|^(-s1) Lap):

  1. the borderline datum r^(-N/a) decays in L^b exactly at the operator
     norm rate t^(-(N/A)(1/a - 1/b)), A = 2 + s1;
  2. an extra singular factor |x|^(-gamma) on the datum shifts the rate
     by -gamma/A;
  3. the dilation identity D(1/lam) S(t) D(lam) = S(lam^A t) holds to
     rounding on a grid whose log step divides log(lam).
"""

import numpy as np

from fujitalab import (ProblemParams, RadialGrid, SemigroupOp,
                       field_from_callable, gaussian_profile,
                       powerlaw_profile, scaling_identity_check,
                       smoothing_slope, weighted_smoothing_check)

times = np.geomspace(1.0, 10.0, 9)

# ---------------------------------------------------------------------------
# 1. plain L^a -> L^b rates across the degeneracy strength
# ---------------------------------------------------------------------------

print("plain smoothing, N=3, borderline datum, t in [1, 10]")
print("%6s %10s %12s %12s %8s" % ("s1", "(a, b)", "fitted", "theory", "err"))
for s1 in (0.0, -0.5, -1.0):
    params = ProblemParams(N=3, sigma1=s1, sigma2=0.0, rho=0.0, p=2.0)
    grid = RadialGrid.log_spaced(80.0, 1024)
    op = SemigroupOp(grid, params)
    for a, b in ((2.0, 4.0), (3.0, 6.0)):
        src = field_from_callable(grid, powerlaw_profile(3.0 / a), 3.0)
        fit = smoothing_slope(op, a, b, src, times)
        print("%6g %10s %12.5f %12.5f %7.2f%%"
              % (s1, "(%g, %g)" % (a, b), fit.fitted, fit.theory,
                 100.0 * fit.relative_error))

# ---------------------------------------------------------------------------
# 2. the singular-weight shift
# ---------------------------------------------------------------------------

print()
print("weighted smoothing |x|^(-gamma), s1=0, L^2 -> L^4")
params = ProblemParams(N=3, sigma1=0.0, sigma2=0.0, rho=0.0, p=2.0)
grid = RadialGrid.log_spaced(80.0, 1024)
op = SemigroupOp(grid, params)
src = field_from_callable(grid, powerlaw_profile(1.5), 3.0)
for gamma in (0.5, 1.0):
    fit = weighted_smoothing_check(op, 2.0, 4.0, gamma, src, times)
    print("  gamma=%g: fitted %.5f vs theory %.5f (err %.2f%%)"
          % (gamma, fit.fitted, fit.theory, 100.0 * fit.relative_error))

# ---------------------------------------------------------------------------
# 3. dilation covariance on a commensurate grid
# ---------------------------------------------------------------------------

print()
print("dilation identity, lam=2, t=0.1")
for s1 in (0.0, -1.0):
    params = ProblemParams(N=3, sigma1=s1, sigma2=0.0, rho=0.0, p=2.0)
    grid = RadialGrid.log_commensurate(30.0, 2048, lam=2.0, r_min=2e-3)
    op = SemigroupOp(grid, params)
    src = field_from_callable(grid, gaussian_profile(0.0, 1.0, 1.0), 3.0)
    disc = scaling_identity_check(op, 2.0, 0.1, src)
    print("  s1=%4g: relative discrepancy %.3e" % (s1, disc))
