"""Seeded experiment configs for the four benchmark workloads.

Every op is one ``fujitalab <command> --config <file>`` call.  A workload
is a fixed cycle of commands; op k runs ``cycle[k % len(cycle)]`` on the
k-th config drawn from ``random.Random("<workload>/<seed>")``, so the same
seed always yields the same configs in the same order.

The cycles are deliberately uneven.  The dominant command has two thirds
(mild_fixed_point) or four fifths and more (the others) of the ops, so the
op-time median falls near the middle of one command's distribution instead
of on the gap between two, where it would jump from run to run.

Domains are documented in DOMAINS and kept inside the region where every
command exits 0: failures found there are counted by the benchmark, never
filtered out after the fact.
"""

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple


def _lines(pairs) -> str:
    return "".join("%s = %s\n" % kv for kv in pairs)


def _f(x: float) -> str:
    return "%.6g" % x


def critical_power(n: int, s1: float, s2: float, rho: float) -> float:
    """Forced critical power (N + s2 - rho A) / (N - 2 - rho A), A = 2 + s1.

    Written out here so the generator does not ask the program under test
    where to put its own scan window.
    """
    rho_a = rho * (2.0 + s1)
    den = n - 2.0 - rho_a
    return math.inf if den <= 0.0 else (n + s2 - rho_a) / den


# -- one generator per command ----------------------------------------------

def local_solve(rng: random.Random) -> str:
    return _lines([
        ("N", "3"), ("sigma1", _f(rng.uniform(-0.3, 0.3))),
        ("sigma2", _f(rng.uniform(-0.3, 0.3))),
        ("rho", _f(rng.uniform(-0.2, 0.2))), ("p", "2"), ("q", "4"),
        ("u0", "gaussian(0, 1, %s)" % _f(rng.uniform(0.35, 0.7))),
        ("w", "bump(1, %s)" % _f(rng.uniform(0.35, 0.7))),
        ("grid_m", "512"), ("grid_r_min", "0.03"), ("horizon", "2"),
        ("n_times", "32")])


def mild_solve(rng: random.Random) -> str:
    return _lines([
        ("N", "3"), ("sigma1", _f(rng.uniform(-0.3, 0.3))),
        ("sigma2", _f(rng.uniform(-0.3, 0.1))),
        ("rho", _f(rng.uniform(-0.6, -0.4))), ("p", "3"),
        ("u0", "gaussian(0, 1, %s)" % _f(1e-3 * rng.uniform(0.5, 2.0))),
        ("w", "bump(1, %s)" % _f(1e-3 * rng.uniform(0.5, 2.0))),
        ("grid_m", "512"), ("grid_r_min", "0.03"), ("t_max", "2"),
        ("n_times", "32")])


def blowup_scan(rng: random.Random) -> str:
    s1, s2 = rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)
    rho = rng.uniform(-0.6, -0.4)
    p_star = critical_power(3, s1, s2, rho)
    # the calibration probes p* -/+ 0.5, so this window is bracketed
    return _lines([
        ("N", "3"), ("sigma1", _f(s1)), ("sigma2", _f(s2)), ("rho", _f(rho)),
        ("p_lo", _f(p_star - 0.5)), ("p_hi", _f(p_star + 0.5)),
        ("amplitude", "0"), ("grid_m", "384"), ("grid_r_max", "30"),
        ("grid_r_min", "0.03"), ("dt_init", "5e-3"), ("t_max", "50")])


def transform_check(rng: random.Random) -> str:
    return _lines([
        ("N", "3"), ("sigma1", _f(rng.uniform(-1.0, -0.5))),
        ("sigma2", _f(rng.uniform(-0.6, -0.4))),
        ("rho", _f(rng.uniform(-0.6, -0.4))), ("p", "3"),
        ("u0", "gaussian(0, 1, %s)" % _f(rng.uniform(0.3, 0.6))),
        ("w", "bump(1, %s)" % _f(rng.uniform(0.3, 0.6))),
        ("grid_m", "512"), ("grid_r_min", "0.003"), ("n_snapshots", "9"),
        ("t_end", "0.5"), ("dt_init", "1e-3")])


def _subcritical_tuple(rng: random.Random) -> List[Tuple[str, str]]:
    n = rng.choice((2, 3, 4))
    s1, s2 = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    rho = rng.uniform(-0.6, 0.5)
    p_star = min(critical_power(n, s1, s2, rho), 4.0)
    p = 1.0 + rng.uniform(0.3, 0.8) * (p_star - 1.0)
    return [("N", str(n)), ("sigma1", _f(s1)), ("sigma2", _f(s2)),
            ("rho", _f(rho)), ("p", _f(p))]


def capacity_fit(rng: random.Random) -> str:
    pairs = _subcritical_tuple(rng)
    # op time grows with the radii count, so it is fixed: a varying count
    # splits the time distribution into clusters and the median jumps
    r0, decades = rng.uniform(5.0, 20.0), rng.uniform(2.0, 3.0)
    radii = [r0 * 10.0 ** (decades * k / 4.0) for k in range(5)]
    pairs.append(("radii", ", ".join(_f(r) for r in radii)))
    return _lines(pairs)


def exponents(rng: random.Random) -> str:
    return _lines(_subcritical_tuple(rng))


def _semigroup_check(rng: random.Random, m: int, weighted: bool) -> str:
    if weighted:
        s1, (a, b) = rng.uniform(-0.3, 0.0), (2, 4)
        gamma, r_max = rng.uniform(0.3, 0.8), rng.uniform(30.0, 60.0)
    else:
        s1, (a, b) = rng.uniform(-1.0, 0.0), rng.choice(((2, 4), (2, 6), (3, 6)))
        gamma, r_max = 0.0, rng.uniform(60.0, 100.0)
    return _lines([
        ("N", "3"), ("sigma1", _f(s1)), ("lq_a", str(a)), ("lq_b", str(b)),
        ("gamma", _f(gamma)), ("grid_m", str(m)), ("grid_r_max", _f(r_max)),
        ("t_lo", "1"), ("t_hi", "10"), ("n_times", "9")])


def _semigroup(m: int, weighted: bool):
    return ("semigroup-check",
            functools.partial(_semigroup_check, m=m, weighted=weighted))


# -- workloads ----------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    cycle: Tuple[Tuple[str, Callable[[random.Random], str]], ...]
    max_rate: float      # ops/s upper estimate, sizes the config pool
    trace_ops: int       # ops per traced pass (a whole number of cycles)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("mild_fixed_point",
             (("local-solve", local_solve), ("local-solve", local_solve),
              ("mild-solve", mild_solve)), max_rate=6.0, trace_ops=3),
    Workload("blowup_scan",
             (("blowup-scan", blowup_scan),) * 4
             + (("transform-check", transform_check),),
             max_rate=8.0, trace_ops=5),
    Workload("capacity_sweep",
             (("capacity-fit", capacity_fit),) * 5 + (("exponents", exponents),),
             max_rate=60.0, trace_ops=30),
    Workload("fine_grid",
             (_semigroup(4096, False), _semigroup(4096, True),
              _semigroup(4096, False), _semigroup(4096, True),
              _semigroup(1024, False),
              _semigroup(4096, False), _semigroup(4096, True),
              _semigroup(4096, False), _semigroup(4096, True),
              _semigroup(1024, True)),
             max_rate=60.0, trace_ops=20),
)}

DOMAINS = {
    "mild_fixed_point": (
        "local-solve: N=3, p=2, q=4, sigma1,sigma2 ~ U[-0.3,0.3], "
        "rho ~ U[-0.2,0.2], u0=gaussian(0,1,U[0.35,0.7]), "
        "w=bump(1,U[0.35,0.7]), m=512, horizon 2, n_times 32; "
        "mild-solve: N=3, p=3, sigma1 ~ U[-0.3,0.3], sigma2 ~ U[-0.3,0.1], "
        "rho ~ U[-0.6,-0.4], u0, w amplitudes 1e-3*U[0.5,2], m=512, "
        "t_max 2, n_times 32; cycle local, local, mild"),
    "blowup_scan": (
        "blowup-scan: N=3, sigma1,sigma2 ~ U[-0.3,0.3], rho ~ U[-0.6,-0.4], "
        "p range p* -/+ 0.5, amplitude 0 (calibrated), m=384, t_max 50; "
        "transform-check: N=3, sigma1 ~ U[-1,-0.5], sigma2, rho ~ "
        "U[-0.6,-0.4], p=3, amplitudes U[0.3,0.6], m=512; "
        "cycle 4 scans, 1 transform"),
    "capacity_sweep": (
        "capacity-fit: N in {2,3,4}, sigma1,sigma2 ~ U[-0.5,0.5], "
        "rho ~ U[-0.6,0.5], p = 1 + U[0.3,0.8]*(min(p*,4)-1) (subcritical), "
        "5 radii geometric from U[5,20] over U[2,3] decades; "
        "exponents on a tuple from the same domain; cycle 5 fits, 1 exponents"),
    "fine_grid": (
        "semigroup-check, N=3, t in [1,10] at 9 times: plain sigma1 ~ "
        "U[-1,0], (a,b) in {(2,4),(2,6),(3,6)}, r_max ~ U[60,100]; weighted "
        "sigma1 ~ U[-0.3,0], (a,b)=(2,4), gamma ~ U[0.3,0.8], r_max ~ "
        "U[30,60]; cycle 4096 plain, weighted x2, 1024 plain, 4096 plain, "
        "weighted x2, 1024 weighted"),
}


@dataclass(frozen=True)
class Op:
    index: int
    command: str
    config: str


def make_ops(workload: Workload, seed: int, count: int) -> List[Op]:
    """The first ``count`` ops of the workload for this seed."""
    rng = random.Random("%s/%d" % (workload.name, seed))
    cycle = workload.cycle
    ops = []
    for k in range(count):
        command, gen = cycle[k % len(cycle)]
        ops.append(Op(k, command, gen(rng)))
    return ops
