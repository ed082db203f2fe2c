"""Batch front end: read a config file, run one experiment, write CSV.

Usage:

    fujitalab <command> --config experiment.conf [--out results/]

The command may also live inside the config (``command = ...``); a
command given on the command line wins.  Exit codes: 0 on success, 2
for configuration problems (an unreadable config or an output directory
that cannot be made among them), 3 when the parameter tuple violates a
hypothesis of the theory (both reported before any computation starts),
4 when a computation ran but failed its own quality gates.

One writer stamps every CSV artifact: a ``# params: ...`` line with the
full resolved configuration, the command's own ``#`` notes, then a
header row.  Files are UTF-8 with LF line endings, comma separated,
``.`` decimal point.  Identical configs produce byte-identical outputs.
"""

import argparse
import csv
import math
import os
import sys
from contextlib import contextmanager
from typing import Optional, Sequence, Tuple

import numpy as np

from .blowup import (SCAN_CSV_COLUMNS, BlowupConfig, calibrate_amplitude,
                     integrate_nonlinear, scan_threshold)
from .capacity import (FIT_CSV_COLUMNS, capacity_exponent_fit,
                       log_capacity_fit)
from .config import COMMANDS, ExperimentConfig, load_config, schema_help
from .errors import (ConfigError, HypothesisViolation, NumericalFailure,
                     PoorFit)
from .exponents import (REPORT_CSV_COLUMNS, build_report, derived_weights,
                        report_csv_row, report_text, require_admissible_q)
from .mild import (CONVERGENCE_CSV_COLUMNS, TRAJECTORY_CSV_COLUMNS,
                   MildConfig, convergence_csv_rows, solve_global_small,
                   solve_local_Lq, trajectory_csv_rows)
from .radial import (RadialField, RadialGrid, field_from_callable,
                     powerlaw_profile)
from .semigroup import SemigroupOp, weighted_smoothing_check
from .transform import residual_check, transform_params

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_NUMERICAL = 4

_LOG10_MAX = math.log10(sys.float_info.max)


def _write_csv(cfg: ExperimentConfig, out_dir: str, name: str,
               columns: Sequence[str], rows: Sequence[Sequence],
               notes: Sequence[str] = ()) -> str:
    """Write ``out_dir/name``: the ``# params:`` record, one comment line
    per note, the header and the rows.  Returns the path."""
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in ("params: " + cfg.describe(), *notes):
            fh.write("# %s\n" % line)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    return path


def _fit_line(label: str, fit) -> str:
    return ("%s: fitted=%.10g theory=%.10g r_squared=%.8f"
            % (label, fit.fitted, fit.theory, fit.r_squared))


@contextmanager
def _building():
    """Report a ValueError or ZeroDivisionError raised while building the
    grid, fields, solver settings or time lists as a config error."""
    try:
        yield
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError("%s: %s" % (type(exc).__name__, exc)) from exc


def _grid_for(cfg: ExperimentConfig) -> RadialGrid:
    r_min, r_max = cfg.options["grid_r_min"], cfg.options["grid_r_max"]
    # cell measures r^(N-1) dr and the weight r^(-s1), s1 > -2, stay finite
    if (cfg.params.N + 2) * math.log10(max(r_max, 1.0)) > _LOG10_MAX:
        raise ValueError("grid_r_max %g overflows r^(N+2)" % r_max)
    return RadialGrid.log_spaced(r_max, m=cfg.options["grid_m"],
                                 r_min=(None if r_min == 0.0 else r_min))


def _inputs(cfg: ExperimentConfig) -> Tuple[RadialField, RadialField]:
    """The u0 and w fields of a config on its grid."""
    grid = _grid_for(cfg)
    return tuple(field_from_callable(grid, cfg.options[key].build(),
                                     float(cfg.params.N))
                 for key in ("u0", "w"))


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _run_exponents(cfg: ExperimentConfig, out_dir: str) -> None:
    r = cfg.options["r"]
    report = build_report(cfg.params, None if r == 0.0 else r)
    path = _write_csv(cfg, out_dir, "exponents.csv", REPORT_CSV_COLUMNS,
                      [report_csv_row(report)])
    sys.stdout.write(report_text(report))
    print("wrote %s" % path)


def _run_transform_check(cfg: ExperimentConfig, out_dir: str) -> None:
    tp = transform_params(cfg.params)
    n_snap = cfg.options["n_snapshots"]
    if n_snap < 3:
        raise ConfigError("the residual's v_tau needs n_snapshots >= 3, "
                          "got %d" % n_snap)
    with _building():
        u0, w = _inputs(cfg)
        w_profile = cfg.options["w"].build()
        t_end = cfg.options["t_end"]
        samples = list(np.linspace(t_end / n_snap, t_end, n_snap))
        run_cfg = BlowupConfig(dt_init=cfg.options["dt_init"],
                               t_max=1.05 * t_end)
        run_cfg.start_norm(u0)     # a datum at or above the cap: config error
    out = integrate_nonlinear(u0, w, cfg.params, run_cfg,
                              sample_times=samples)
    times = [t for t, _ in out.snapshots]
    fields = [f for _, f in out.snapshots]
    residuals = residual_check(times, fields, w_profile, cfg.params)
    rows = [[times[k + 1], res] for k, res in enumerate(residuals)]
    path = _write_csv(
        cfg, out_dir, "transform_check.csv", ["t", "residual_sup"], rows,
        ["transform: theta=%.12g sbar=%.12g nbar=%.12g lambda=%.12g"
         % (tp.theta, tp.sbar, tp.nbar, tp.lam),
         "run status: %s" % out.status])
    print("wrote %s (max residual %.3e)" % (path, max(residuals)))


def _run_semigroup_check(cfg: ExperimentConfig, out_dir: str) -> None:
    opts = cfg.options
    a, b, gamma = opts["lq_a"], opts["lq_b"], opts["gamma"]
    if not (0.0 < opts["t_lo"] < opts["t_hi"] and opts["n_times"] >= 3):
        raise ConfigError("a slope fit needs 0 < t_lo < t_hi, n_times >= 3")
    with _building():
        grid = _grid_for(cfg)
        times = np.geomspace(opts["t_lo"], opts["t_hi"], opts["n_times"])
        source = field_from_callable(
            grid, powerlaw_profile(cfg.params.N / a), float(cfg.params.N))
    op = SemigroupOp(grid, cfg.params)
    fit = weighted_smoothing_check(op, a, b, gamma, source, times)
    label = ("L^%g -> L^%g smoothing" % (a, b) if gamma == 0.0 else
             "weighted (gamma=%g) L^%g -> L^%g smoothing" % (gamma, a, b))
    rows = [[float(t), float(n)] for t, n in zip(fit.x, fit.y)]
    path = _write_csv(
        cfg, out_dir, "semigroup_check.csv", ["t", "norm"], rows,
        ["check: %s" % label,
         _fit_line("fit", fit) + " rel_err=%.4g" % fit.relative_error])
    print("wrote %s (slope %.6g vs theory %.6g)"
          % (path, fit.fitted, fit.theory))


def _run_mild_solve(cfg: ExperimentConfig, out_dir: str) -> None:
    r = cfg.options["r"]
    # hypothesis gate before any compute
    weights = derived_weights(cfg.params, None if r == 0.0 else r)
    with _building():
        u0, w = _inputs(cfg)
        mcfg = MildConfig(r=weights.r, t_max=cfg.options["t_max"],
                          n_times=cfg.options["n_times"],
                          picard_tol=cfg.options["picard_tol"],
                          max_picard=cfg.options["max_picard"],
                          duhamel_substeps=cfg.options["duhamel_substeps"])
    sol = solve_global_small(u0, w, cfg.params, mcfg)
    rows = trajectory_csv_rows(sol.trajectory, sol.trajectory.norms(sol.r),
                               sol.mu)
    # the X-norm is the max of the weighted_norm column, as Trajectory.x_norm
    x_norm = max(0.0, *(row[2] for row in rows))
    notes = ["metric: r=%.10g mu=%.10g" % (sol.r, sol.mu),
             "converged: %s after %d iterations, x_norm=%.10g"
             % (sol.converged, len(sol.diffs), x_norm)]
    traj_path = _write_csv(cfg, out_dir, "mild_trajectory.csv",
                           TRAJECTORY_CSV_COLUMNS, rows, notes)
    conv_path = _write_csv(cfg, out_dir, "mild_convergence.csv",
                           CONVERGENCE_CSV_COLUMNS,
                           convergence_csv_rows(sol.diffs, sol.ratios), notes)
    print("wrote %s and %s (converged=%s)" % (traj_path, conv_path,
                                              sol.converged))


def _run_blowup_scan(cfg: ExperimentConfig, out_dir: str) -> None:
    p_lo, p_hi = cfg.options["p_lo"], cfg.options["p_hi"]
    if not (1.0 < p_lo < p_hi and cfg.options["bracket_width"] > 0.0):
        raise ConfigError("need 1 < p_lo < p_hi and bracket_width > 0, got "
                          "%g, %g and %g"
                          % (p_lo, p_hi, cfg.options["bracket_width"]))
    amp = cfg.options["amplitude"]
    if amp < 0.0:
        raise ConfigError("amplitude must be nonnegative (0 = calibrate); "
                          "the scan needs positive forcing mass")
    with _building():
        grid = _grid_for(cfg)
        bcfg = BlowupConfig(dt_init=cfg.options["dt_init"],
                            dt_min=cfg.options["dt_min"],
                            blowup_norm_cap=cfg.options["norm_cap"],
                            t_max=cfg.options["t_max"])
    calibrated = amp == 0.0
    if calibrated:
        amp = calibrate_amplitude(cfg.params, bcfg, grid=grid)
    report = scan_threshold(cfg.params, (p_lo, p_hi), amp, bcfg, grid=grid,
                            bracket_width=cfg.options["bracket_width"])
    rows = [[row.p, row.outcome, row.t_star_or_tmax, row.max_norm]
            for row in report.rows]
    path = _write_csv(
        cfg, out_dir, "blowup_scan.csv", SCAN_CSV_COLUMNS, rows,
        ["amplitude: %.10g%s" % (amp, " (calibrated)" if calibrated else ""),
         "bracket: [%.10g, %.10g], theory p*=%.10g"
         % (report.bracket[0], report.bracket[1], report.p_star_theory),
         "note: %s" % report.note])
    print("wrote %s (bracket [%.5g, %.5g], theory p*=%.5g)"
          % (path, report.bracket[0], report.bracket[1],
             report.p_star_theory))


def _run_capacity_fit(cfg: ExperimentConfig, out_dir: str) -> None:
    radii = list(cfg.options["radii"])
    log_case = cfg.options["log_case"]
    m = cfg.options["t_exponent"]
    try:
        if log_case:
            report = log_capacity_fit(cfg.params, radii)
        else:
            report = capacity_exponent_fit(
                cfg.params, radii, t_exponent=(None if m == 0.0 else m))
    except PoorFit as exc:
        _write_capacity(cfg, out_dir, exc.report,
                        "QUALITY GATE FAILED: %s" % exc)
        raise
    path = _write_capacity(cfg, out_dir, report)
    what, fit = (("log slope", report.fit) if log_case
                 else ("time slope", report.time_fit))
    print("wrote %s (%s %.6g vs theory %.6g)"
          % (path, what, fit.fitted, fit.theory))


def _write_capacity(cfg: ExperimentConfig, out_dir: str, report,
                    *gate: str) -> str:
    if cfg.options["log_case"]:
        columns = ["R", "I_space", "fitted_slope", "theory_slope"]
        rows = [[float(r), float(v), report.fit.fitted, report.fit.theory]
                for r, v in zip(report.radii, report.values)]
        notes = ["log-cutoff critical-case fit in log(log R)",
                 _fit_line("fit", report.fit)]
    else:
        columns = FIT_CSV_COLUMNS
        rows = [[float(big_r), float(big_r) ** report.t_exponent,
                 float(report.time_raw[k]), float(report.space_raw[k]),
                 report.time_fit.fitted, report.time_fit.theory]
                for k, big_r in enumerate(report.radii)]
        notes = ["T rule: T = R^%.10g" % report.t_exponent,
                 _fit_line("time fit", report.time_fit),
                 _fit_line("space fit", report.space_fit),
                 _fit_line("combined fit", report.combined_fit),
                 "nonexistence predicted: %s; fitted slopes negative: %s"
                 % (report.nonexistence_predicted, report.slopes_negative)]
    return _write_csv(cfg, out_dir, "capacity_fit.csv", columns, rows,
                      notes + list(gate))


def _run_local_solve(cfg: ExperimentConfig, out_dir: str) -> None:
    q = cfg.options["q"]
    require_admissible_q(cfg.params, q)   # hypothesis gate before compute
    with _building():
        u0, w = _inputs(cfg)
        mcfg = MildConfig(picard_tol=cfg.options["picard_tol"],
                          max_picard=cfg.options["max_picard"],
                          n_times=cfg.options["n_times"])
        if not cfg.options["horizon"] > 0.0:
            raise ValueError("horizon must be positive")
    sol = solve_local_Lq(u0, w, cfg.params, q, cfg.options["horizon"], mcfg)
    path = _write_csv(
        cfg, out_dir, "local_trajectory.csv", TRAJECTORY_CSV_COLUMNS,
        trajectory_csv_rows(sol.trajectory, sol.trace, 0.0),
        ["existence horizon: T=%.10g of guess %.10g"
         % (sol.t_end, cfg.options["horizon"]),
         "ball radius: %.10g, probe constants C1=%.10g C2=%.10g"
         % (sol.radius, sol.c1, sol.c2),
         "trace continuity: max jump %.6g vs scheme modulus %.6g"
         % (sol.continuity_jump, sol.scheme_tol),
         "converged: %s" % sol.converged])
    print("wrote %s (T=%.6g)" % (path, sol.t_end))


_DISPATCH = {
    "exponents": _run_exponents,
    "transform-check": _run_transform_check,
    "semigroup-check": _run_semigroup_check,
    "mild-solve": _run_mild_solve,
    "blowup-scan": _run_blowup_scan,
    "capacity-fit": _run_capacity_fit,
    "local-solve": _run_local_solve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fujitalab",
        description="Numerical experiments around critical-exponent theory "
                    "of weighted reaction-diffusion equations.")
    parser.add_argument("command", nargs="?", choices=COMMANDS,
                        help="experiment to run; overrides the config's "
                             "command key")
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--out", help="output directory (overrides the "
                                      "config's out_dir)")
    parser.add_argument("--schema", action="store_true",
                        help="print the config schema and exit")
    args = parser.parse_args(argv)

    if args.schema:
        print(schema_help())
        return EXIT_OK

    try:
        if not args.config:
            raise ConfigError("--config is required")
        cfg = load_config(args.config, args.command)
        out_dir = args.out if args.out else cfg.out_dir
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError("cannot make output directory %s: %s"
                              % (out_dir, exc))
        _DISPATCH[cfg.command](cfg, out_dir)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except HypothesisViolation as exc:
        print("hypothesis violation: %s" % exc, file=sys.stderr)
        return EXIT_HYPOTHESIS
    except NumericalFailure as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
