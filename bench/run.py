#!/usr/bin/env python3
"""Benchmark of the fujitalab experiments, one seeded workload per process.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout: it imports fujitalab from ``src/`` of
that checkout and writes only under ``.bench_run/`` there, which it removes
again.  An op is one in-process ``fujitalab.cli.main([command, "--config",
file, "--out", dir])`` call on a config drawn from the seed (see
workloads.py).  Every op's artifacts are checked after the timed phase
(checks.py) and a sample of ops is rerun and must reproduce its CSVs byte
for byte.

--trace 0 runs ops back to back for --seconds and reports the end-to-end
metrics: setup_s (median over fresh interpreters of importing fujitalab.cli
and generating the op pool), op_p50_s, op_tail_s (the 11th-largest op time,
the highest percentile with ten ops above it), ops_per_s and peak_rss_mb.
The op timings are scaled for host speed by a reference kernel timed
between ops (speed.py); the raw values go to the ``detail`` line.

--trace 1 repeats pairs of passes over the workload's first ``trace_ops``
ops, untraced then traced (tracer.py), for --seconds, and reports the
per-layer metrics as medians over the traced passes, the tracing overhead,
the layer units timed alone (units.py) and fail_ratio.

Every metric is printed as ``name value unit``; the last line of standard
output is the JSON result.  Before it, a ``provenance`` line records the
machine, the library versions and the seed, and a ``detail`` line the op
counts and the percentile behind op_tail_s.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import List

from workloads import DOMAINS, WORKLOADS, make_ops

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_ROOT = ROOT / ".bench_run"

SETUP_PROBES = 5
TAIL_ABOVE = 10          # op_tail_s keeps this many ops above it
REFERENCE_EVERY_S = 0.5  # host-speed samples between ops (speed.py)

LAYER_METRICS = [
    "semigroup.implicit_solve.calls", "semigroup.implicit_solve.self_s",
    "semigroup.evolve_values.calls",
    "semigroup.step_matrix_banded.calls", "semigroup.step_matrix_banded.self_s",
    "semigroup.SemigroupOp.builds",
    "mild.picard_step.calls", "mild.picard_step.self_s",
    "mild.solve_local_Lq.self_s", "mild.solve_global_small.self_s",
    "radial.lq_norm.calls", "radial.lq_norm.self_s",
    "blowup.integrate_nonlinear.calls", "blowup.integrate_nonlinear.self_s",
    "blowup.calibrate_amplitude.self_s", "blowup.scan_threshold.self_s",
    "capacity.capacity_integrals.calls", "capacity.capacity_integrals.self_s",
    "capacity.capacity_exponent_fit.self_s",
    "transform.residual_check.self_s",
    "config.load_config.self_s", "cli.main.self_s",
]


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name == "ops_per_s":
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".builds")):
        return "count"
    return "ratio"


# -- inputs -------------------------------------------------------------------

def prepare_inputs(workload, seed: int, seconds: int):
    """The seeded op pool, sized to outlast the run at the workload's rate."""
    cycle = len(workload.cycle)
    count = cycle * max(1, math.ceil(seconds * workload.max_rate / cycle))
    return make_ops(workload, seed, count)


def setup_probe(workload, args) -> int:
    """Child side of setup_s: import, generate inputs, say ready."""
    import fujitalab.cli  # noqa: F401
    prepare_inputs(workload, args.seed, args.seconds)
    print("ready", flush=True)
    return 0


def measure_setup(args) -> List[float]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError("setup probe exited %d before ready" % code)
        samples.append(t1 - t0)
    return samples


# -- ops ------------------------------------------------------------------------

@dataclass
class Record:
    command: str
    cfg: Path
    out: Path
    code: int
    wall: float
    log: str


def call_op(command: str, cfg: Path, out: Path):
    import fujitalab.cli as cli
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main([command, "--config", str(cfg), "--out", str(out)])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is exit 1 for a CLI user
            code = 1
            sink.write(traceback.format_exc())
    return code, sink.getvalue()


def run_op(op, run_dir: Path, tag: str) -> Record:
    """Write the op's config (untimed), then time the CLI call."""
    cfg = run_dir / ("%s-op%05d.cfg" % (tag, op.index))
    cfg.write_text(op.config, encoding="utf-8")
    out = run_dir / ("%s-op%05d" % (tag, op.index))
    t0 = time.perf_counter()
    code, log = call_op(op.command, cfg, out)
    wall = time.perf_counter() - t0
    return Record(op.command, cfg, out, code, wall, log)


def problems_of(rec: Record) -> List[str]:
    from checks import check_op
    if rec.code != 0:
        return ["exit %d: %s" % (rec.code, rec.log.strip()[-300:])]
    return check_op(rec.command, str(rec.out))


def rerun_sample(records: List[Record], seed: int) -> dict:
    """Rerun one successful op per command; index -> problem if not equal."""
    from checks import same_bytes
    rng = random.Random("rerun/%d" % seed)
    by_command = {}
    for k, rec in enumerate(records):
        if rec.code == 0:
            by_command.setdefault(rec.command, []).append(k)
    bad = {}
    for command in sorted(by_command):
        k = rng.choice(by_command[command])
        rec = records[k]
        again = rec.out.with_name(rec.out.name + "-rerun")
        code, _ = call_op(rec.command, rec.cfg, again)
        if code != 0 or not same_bytes(str(rec.out), str(again)):
            bad[k] = "rerun did not reproduce the CSVs byte for byte"
    return bad


def tail(walls: List[float]):
    """(value, percentile): the highest percentile with TAIL_ABOVE ops above."""
    n = len(walls)
    if n <= TAIL_ABOVE:
        return max(walls), 100.0
    return sorted(walls)[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n


# -- the two kinds of run ----------------------------------------------------------

def timed_run(workload, args, run_dir: Path):
    from speed import local_factors, reference_time, speed_factor
    import fujitalab.cli  # noqa: F401  (compiles bytecode before the probes)
    reference_time()         # first call pays scipy's lazy set-up
    setup = measure_setup(args)
    ops = prepare_inputs(workload, args.seed, args.seconds)
    run_dir.mkdir(parents=True)
    records, starts, ref_at, refs = [], [], [], []
    start = time.perf_counter()
    deadline = start + args.seconds
    next_ref = start
    while time.perf_counter() < deadline:
        if time.perf_counter() >= next_ref:
            ref_at.append(time.perf_counter())
            refs.append(reference_time())
            next_ref = time.perf_counter() + REFERENCE_EVERY_S
        k = len(records)
        starts.append(time.perf_counter())
        records.append(run_op(ops[k % len(ops)], run_dir,
                              "r%d" % (k // len(ops))))
    elapsed = time.perf_counter() - start - sum(refs)
    ref_at.append(time.perf_counter())
    refs.append(reference_time())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = {k: problems_of(rec) for k, rec in enumerate(records)}
    for k, msg in rerun_sample(records, args.seed).items():
        problems[k].append(msg)
    walls = [rec.wall for rec in records]
    scaled = [w / f for w, f in zip(walls, local_factors(ref_at, refs,
                                                          starts))]
    factor = speed_factor(refs)
    tail_s, tail_pct = tail(scaled)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(scaled),
        "op_tail_s": tail_s,
        "ops_per_s": len(records) / elapsed * factor,
        "peak_rss_mb": rss_mb,
    }
    raw = {"op_p50_s": statistics.median(walls), "op_tail_s": tail(walls)[0],
           "ops_per_s": len(records) / elapsed}
    detail = {"raw": raw, "speed_factor": factor,
              "reference_samples": len(refs),
              "setup_samples_s": setup, "ops": len(records),
              "op_tail_percentile": tail_pct,
              "op_tail_ops_above": min(TAIL_ABOVE, len(records) - 1),
              "ops_by_command": _count_by_command(records)}
    return records, problems, metrics, detail


def trace_run(workload, args, run_dir: Path):
    from checks import same_bytes
    from tracer import Tracer
    from units import unit_metrics
    ops = prepare_inputs(workload, args.seed, args.seconds)[:workload.trace_ops]
    run_dir.mkdir(parents=True)
    records, problems, per_pass = [], {}, []
    deadline = time.perf_counter() + args.seconds
    while not per_pass or time.perf_counter() < deadline:
        j = len(per_pass)
        plain = [run_op(op, run_dir, "u%d" % j) for op in ops]
        tracer = Tracer()
        tracer.install()
        try:
            traced = [run_op(op, run_dir, "t%d" % j) for op in ops]
        finally:
            tracer.uninstall()
        layer, unaccounted = pass_metrics(tracer, traced)
        layer["trace.overhead_ratio"] = (sum(r.wall for r in traced)
                                         / sum(r.wall for r in plain))
        per_pass.append(layer)
        first_traced = len(records) + len(plain)
        for rec in plain + traced:
            problems[len(records)] = problems_of(rec)
            records.append(rec)
        for k, (a, b) in enumerate(zip(plain, traced)):
            if a.code == 0 and not same_bytes(str(a.out), str(b.out)):
                unaccounted[k] += " traced op wrote different CSVs"
            if unaccounted[k]:
                problems[first_traced + k].append(unaccounted[k].strip())
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in per_pass[0]}
    failed = sum(1 for p in problems.values() if p)
    metrics["fail_ratio"] = failed / len(records)
    metrics.update(unit_metrics())
    detail = {"passes": len(per_pass), "ops_per_pass": len(ops),
              "ops": len(records), "ops_by_command": _count_by_command(records)}
    return records, problems, metrics, detail


def pass_metrics(tracer, traced: List[Record]):
    """Per-layer metrics of one traced pass, and self-time accounting errors.

    The self times under an op's root span (cli.main) add up to that span's
    duration; the op wall time measured outside the wrapper may exceed it
    only by the wrapper's own cost.
    """
    spans = tracer.by_label()
    out = {}
    for name in LAYER_METRICS:
        if name == "semigroup.SemigroupOp.builds":
            label, field = "semigroup.SemigroupOp", "calls"
        else:
            label, field = name.rsplit(".", 1)
        out[name] = spans[label][field] if label in spans else 0
    out["exponents.self_s"] = sum(v["self_s"] for k, v in spans.items()
                                  if k.startswith("exponents."))
    out["semigroup.dt_repeat_share"] = (tracer.dt_repeats / tracer.solves
                                        if tracer.solves else 0.0)
    out["blowup.step_accept_ratio"] = (
        tracer.accepted_steps / tracer.attempted_steps
        if tracer.attempted_steps else 0.0)
    roots = tracer.self_sum_per_root()
    walls = [rec.wall for rec in traced]
    out["trace.unaccounted_share"] = 1.0 - sum(roots) / sum(walls)
    if len(roots) != len(walls):
        return out, ["%d root spans for %d ops" % (len(roots), len(walls))] \
            * len(walls)
    errors = []
    for own, wall in zip(roots, walls):
        ok = 0.0 <= wall - own <= 0.02 * wall + 2e-4
        errors.append("" if ok else "self times sum to %.6f s of a %.6f s op"
                      % (own, wall))
    return out, errors


def _count_by_command(records: List[Record]) -> dict:
    out = {}
    for rec in records:
        out[rec.command] = out.get(rec.command, 0) + 1
    return out


# -- provenance -------------------------------------------------------------------

def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _git_commit():
    head = _read(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if commit:
        return commit
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def provenance(args) -> dict:
    import numpy
    import scipy
    model = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        caches.append("L%s %s %s" % (_read(index / "level"),
                                     _read(index / "type"),
                                     _read(index / "size")))
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = "%s %s / %s %s" % (deps["blas"]["name"], deps["blas"]["version"],
                                  deps["lapack"]["name"],
                                  deps["lapack"]["version"])
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
        "cpu_caches": caches, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_lapack": blas, "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "domain": DOMAINS[args.workload],
        "note": "no CPU was pinned and no machine setting was changed",
    }


# -- entry point ------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fujitalab" / "cli.py").is_file():
        print("bench: no fujitalab sources at %s; run from the root of a "
              "checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        return setup_probe(workload, args)

    run_dir = RUN_ROOT / ("run-%d" % os.getpid())
    try:
        run = trace_run if args.trace else timed_run
        records, problems, metrics, detail = run(workload, args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUN_ROOT.rmdir()

    failures = {k: p for k, p in problems.items() if p}
    detail["failures"] = [
        {"op": k, "command": records[k].command,
         "config": records[k].cfg.name, "problems": p}
        for k, p in sorted(failures.items())[:10]]
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    for name, value in metrics.items():
        print("%-44s %.6g %s" % (name, value, unit_of(name)))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
