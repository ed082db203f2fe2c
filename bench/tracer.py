"""Span tracer that instruments fujitalab from outside the package.

``Tracer.install()`` replaces each target function with a wrapper that
records a span (label, start, end, parent) in memory.  A function that
other modules import by name (``from .radial import lq_norm``) lives in
several module namespaces, so every fujitalab module attribute that is the
original object is replaced, not only the defining one.  Methods are
patched on their class.  ``uninstall()`` puts every original back.

Spans nest because the program is single threaded: a span's parent is the
span open when it started.  Self time is a span's duration minus the
durations of its direct children.
"""

import inspect
import sys
import time
from collections import defaultdict
from typing import Dict, List

# (module, attribute path, label); the label names the per-layer metric
TARGETS = [
    ("cli", "main", "cli.main"),
    ("config", "load_config", "config.load_config"),
    ("radial", "lq_norm", "radial.lq_norm"),
    ("radial", "field_from_callable", "radial.field_from_callable"),
    ("semigroup", "SemigroupOp.__post_init__", "semigroup.SemigroupOp"),
    ("semigroup", "SemigroupOp.implicit_solve", "semigroup.implicit_solve"),
    ("semigroup", "SemigroupOp.step_matrix_banded",
     "semigroup.step_matrix_banded"),
    ("semigroup", "SemigroupOp.evolve_values", "semigroup.evolve_values"),
    ("semigroup", "SemigroupOp.apply", "semigroup.apply"),
    ("semigroup", "SemigroupOp.evolve_through", "semigroup.evolve_through"),
    ("semigroup", "smoothing_slope", "semigroup.smoothing_slope"),
    ("semigroup", "weighted_smoothing_check",
     "semigroup.weighted_smoothing_check"),
    ("mild", "solve_global_small", "mild.solve_global_small"),
    ("mild", "solve_local_Lq", "mild.solve_local_Lq"),
    ("mild", "picard_step", "mild.picard_step"),
    ("mild", "duhamel_forcing", "mild.duhamel_forcing"),
    ("mild", "x_distance", "mild.x_distance"),
    ("blowup", "integrate_nonlinear", "blowup.integrate_nonlinear"),
    ("blowup", "scan_threshold", "blowup.scan_threshold"),
    ("blowup", "calibrate_amplitude", "blowup.calibrate_amplitude"),
    ("capacity", "capacity_integrals", "capacity.capacity_integrals"),
    ("capacity", "capacity_exponent_fit", "capacity.capacity_exponent_fit"),
    ("capacity", "log_capacity_fit", "capacity.log_capacity_fit"),
    ("transform", "residual_check", "transform.residual_check"),
    ("transform", "transform_params", "transform.transform_params"),
]

STEP_MATRIX = "semigroup.step_matrix_banded"
INTEGRATE = "blowup.integrate_nonlinear"


def _targets():
    """TARGETS plus every public function of fujitalab.exponents."""
    import fujitalab.exponents as exponents
    out = list(TARGETS)
    for name in exponents.__all__:
        if inspect.isfunction(getattr(exponents, name)):
            out.append(("exponents", name, "exponents." + name))
    return out


class Tracer:
    def __init__(self):
        self.labels: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []
        self._patches = []
        # counters read where the work happens
        self.solves = 0           # banded matrices built, one per solve
        self.dt_repeats = 0       # ... whose dt was already seen in the op
        self.attempted_steps = 0  # banded solves inside integrate_nonlinear
        self.accepted_steps = 0   # SolveOutcome.steps summed
        self._op_dts = set()
        self._integrating = 0

    # -- recording ------------------------------------------------------------

    def _wrap(self, label, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                tracer._op_dts = set()
            if label == STEP_MATRIX:
                tracer._count_solve(args[1] if len(args) > 1 else kwargs["dt"])
            elif label == INTEGRATE:
                tracer._integrating += 1
            idx = len(tracer.labels)
            tracer.labels.append(label)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            stack.append(idx)
            tracer.starts[idx] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = time.perf_counter()
                stack.pop()
                if label == INTEGRATE:
                    tracer._integrating -= 1
            if label == INTEGRATE:
                tracer.accepted_steps += result.steps
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_solve(self, dt):
        self.solves += 1
        if self._integrating:
            self.attempted_steps += 1
        key = float(dt)
        if key in self._op_dts:
            self.dt_repeats += 1
        else:
            self._op_dts.add(key)

    # -- patching -------------------------------------------------------------

    def install(self):
        import fujitalab.cli  # noqa: F401  (loads every module we patch)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "fujitalab" or name.startswith("fujitalab.")]
        for modname, path, label in _targets():
            owner = sys.modules["fujitalab." + modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, attr, self._wrap(label, vars(cls)[attr]))
                continue
            orig = getattr(owner, path)
            wrapper = self._wrap(label, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results --------------------------------------------------------------

    def self_times(self) -> List[float]:
        child = [0.0] * len(self.labels)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i]
                for i in range(len(self.labels))]

    def by_label(self) -> Dict[str, Dict[str, float]]:
        """calls and self_s per label."""
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for label, own in zip(self.labels, self.self_times()):
            out[label]["calls"] += 1
            out[label]["self_s"] += own
        return out

    def self_sum_per_root(self) -> List[float]:
        """Sum of self times under each root span, in root order."""
        own = self.self_times()
        root_of = []
        sums: Dict[int, float] = {}
        for i, parent in enumerate(self.parents):
            root = i if parent < 0 else root_of[parent]
            root_of.append(root)
            sums[root] = sums.get(root, 0.0) + own[i]
        return [sums[r] for r in sorted(sums)]
