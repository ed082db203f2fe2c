"""The benchmark's tracer still fits the package it instruments.

``bench/tracer.py`` patches functions and methods of fujitalab by name from
outside the package.  A rename or removal in the package would make the
traced benchmark pass crash; this test installs the tracer, checks that
every target was replaced by a wrapper of the original, and checks that
uninstalling restores every patched attribute.
"""

import importlib.util
import os
import sys

import fujitalab.cli  # loads every module the tracer patches

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                           "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
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
    tracer_mod = _load_tracer()
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
    tracer = _load_tracer().Tracer()
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
