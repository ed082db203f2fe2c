"""The benchmark's tracer and layer units still fit the package.

``bench/tracer.py`` patches functions and methods of fujitalab by name from
outside the package.  A rename or removal in the package would make the
traced benchmark pass crash; this test installs the tracer, checks that
every target was replaced by a wrapper of the original, and checks that
uninstalling restores every patched attribute.  ``bench/units.py`` calls
the mild solver's operations with keywords of their own; one pass of its
smallest size must still run.
"""

import importlib.util
import math
import os
import sys

import fujitalab.cli  # loads every module the tracer patches

BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "bench_" + name, os.path.join(BENCH_DIR, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owners(targets):
    """Every namespace the tracer may patch: modules and target classes."""
    mods = [m for name, m in sorted(sys.modules.items())
            if name == "fujitalab" or name.startswith("fujitalab.")]
    classes = []
    for modname, path, _ in targets:
        if "." in path:
            owner = sys.modules["fujitalab." + modname]
            classes.append(getattr(owner, path.split(".")[0]))
    return mods + classes


def _resolve(modname, path):
    obj = sys.modules["fujitalab." + modname]
    for part in path.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def test_tracer_installs_on_every_target_and_uninstalls_cleanly():
    tracer_mod = _load("tracer")
    targets = tracer_mod._targets()
    owners = _owners(targets)
    before = [(o, dict(vars(o))) for o in owners]
    originals = [_resolve(m, p) for m, p, _ in targets]

    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for (modname, path, label), orig in zip(targets, originals):
            patched = _resolve(modname, path)
            assert getattr(patched, "__wrapped__", None) is orig, label
    finally:
        tracer.uninstall()

    for owner, attrs in before:
        now = vars(owner)
        assert set(now) == set(attrs), owner
        changed = [k for k, v in attrs.items() if now[k] is not v]
        assert not changed, (owner, changed)


def test_tracer_sees_the_norms_of_the_mild_path(tmp_path):
    # mild imports lq_norm by name, so the tracer's by-name patch reaches
    # every norm the local solver takes
    tracer = _load("tracer").Tracer()
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                       "configs", "local_solve.cfg")
    tracer.install()
    try:
        code = fujitalab.cli.main(["local-solve", "--config", cfg,
                                   "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.by_label()["radial.lq_norm"]["calls"] > 0


def test_tracer_counts_one_norm_pass_per_smoothing_check(tmp_path):
    # the smoothing check takes the norms of its whole trajectory in one
    # radial.lq_norm call, not one per stored time
    tracer = _load("tracer").Tracer()
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                       "configs", "semigroup_check.cfg")
    tracer.install()
    try:
        code = fujitalab.cli.main(["semigroup-check", "--config", cfg,
                                   "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.by_label()["radial.lq_norm"]["calls"] == 1


def test_layer_units_run_on_the_package():
    # picard_step(..., linear=, head_theta=, metric=) and
    # duhamel_forcing(w, params, times, cfg) as the benchmark calls them
    timings = _load("units")._units_at(384)
    assert len(timings) == 5
    assert all(math.isfinite(t) and t > 0.0 for t in timings.values())
