"""Numerical laboratory for critical-exponent theory of the weighted
reaction-diffusion problem

    |x|^s1 du/dt = Lap u + |x|^s2 |u|^p + t^rho w(|x|)

on radial data.  The package computes every critical exponent of the
problem family, evolves the degenerate linear semigroup, runs mild
(Duhamel fixed point) and direct (IMEX) solvers, scans the blow-up /
global-existence dichotomy across p, and certifies the capacity
integrals behind the nonexistence results.
"""

from .errors import (ConfigError, FujitaLabError, HypothesisViolation,
                     NoBracket, NotContracting, NoValidT, NumericalFailure,
                     Overflow, PoorFit, QuadratureFailure)
from .exponents import (ProblemParams, Regime, Weights, build_report,
                        critical_forced, derived_weights, fujita_first,
                        fujita_second, local_alpha, quadratic_f, r_window,
                        report_text, scaling_index)
from .radial import (RadialField, RadialGrid, Trajectory, bump_profile,
                     field_from_callable, gaussian_profile, lq_norm,
                     powerlaw_profile, sphere_area, weighted_integral,
                     zero_profile)
from .transform import (TransformParams, forcing_W, residual_check,
                        transform_params)
from .semigroup import (SemigroupOp, SlopeFit, fit_loglog, smoothing_slope,
                        scaling_identity_check, weighted_smoothing_check)
from .mild import (GlobalSolution, LocalSolution, MildConfig,
                   bump_test_function, duhamel_forcing, picard_step,
                   solve_global_small, solve_local_Lq, weak_residual,
                   x_distance)
from .blowup import (BlowupConfig, ScanReport, SolveOutcome,
                     calibrate_amplitude, integrate_nonlinear,
                     scan_threshold)
from .capacity import (CapacityParts, capacity_exponent_fit,
                       capacity_integrals, log_capacity_fit, log_space_capacity)
from .config import ExperimentConfig, load_config, parse_profile

__version__ = "0.1.0"
