"""The exit-code contract as a property of every config, not only the demos.

Configs for all seven commands are drawn key by key from the schema types.
Each key has a strategy for values in range and one for odd values: zero,
negative, huge, non-finite or malformed.  A drawn config either keeps every
value in range or spoils exactly one key (an odd value, or the key left
out), so each odd value meets otherwise runnable inputs.  Whatever the
draw, ``cli.main`` must return 0, 2, 3 or 4 and let no exception escape,
and no numpy RuntimeWarning either.
Grids and time lists stay small (16 to 48 nodes, 8 to 12 stored times) and
horizons short so the whole property costs a few seconds.  Every odd
horizon is drawn, 1e300 included: the time-stepping runs (transform-check
t_end, blowup-scan t_max) stop at once when their horizon needs more steps
than the integrator's budget, and local-solve works on a fixed time grid.
"""

import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from fujitalab import cli

CONTRACT = {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_HYPOTHESIS,
            cli.EXIT_NUMERICAL}

ODD = st.sampled_from([0.0, -1.0, 1e300, math.inf, -math.inf, math.nan])


def _float(lo, hi):
    return st.floats(lo, hi).map(repr), ODD.map(repr)


def _int(lo, hi, odd=(-1, 0)):
    return st.integers(lo, hi).map(str), st.sampled_from(odd).map(str)


def _listed(good, shortest):
    """Comma lists of the floats good draws, and the same with one odd."""
    odd = st.tuples(good, ODD, st.integers(0, shortest - 1)).map(
        lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2] + 1:])
    joined = lambda xs: ", ".join(repr(x) for x in xs)
    return good.map(joined), odd.map(joined)


def _radii():
    # 3 to 5 geometric radii over 1.5 to 4 decades
    return _listed(st.builds(
        lambda lo, decades, k: [lo * 10.0 ** (decades * i / (k - 1))
                                for i in range(k)],
        st.floats(1.5, 100.0), st.floats(1.5, 4.0), st.integers(3, 5)), 3)


def _profile():
    shapes = [("gaussian", (-2.0, 2.0), 3), ("bump", (0.1, 3.0), 2),
              ("powerlaw", (0.1, 3.0), 2)]
    good = [st.just("zero")]
    odd = [st.just("vortex(1)")]
    for name, (lo, hi), arity in shapes:
        args = st.lists(st.floats(lo, hi), min_size=arity, max_size=arity)
        g, o = _listed(args, arity)
        good.append(g.map((name + "(%s)").__mod__))
        odd.append(o.map((name + "(%s)").__mod__))
    return st.one_of(good), st.one_of(odd)


COMMON = {
    "N": _int(2, 5),
    "sigma1": _float(-1.5, 1.0),
    "sigma2": _float(-1.5, 1.0),
    "rho": _float(-0.9, 1.0),
    "p": _float(1.1, 5.0),
}

GRID = {
    "grid_m": _int(16, 48, odd=(8,)),
    "grid_r_max": _float(1.0, 40.0),
    "grid_r_min": _float(1e-3, 0.5),
}

SCHEMAS = {
    "exponents": {"r": _float(0.5, 20.0)},
    "capacity-fit": {
        "radii": _radii(),
        "t_exponent": _float(-1.0, 3.0),
        "log_case": (st.just("false"), st.sampled_from(["true", "maybe"])),
    },
    "semigroup-check": {
        **GRID,
        "lq_a": _float(1.1, 3.0),
        "lq_b": _float(3.0, 8.0),
        "gamma": _float(0.0, 1.0),
        "t_lo": _float(1e-3, 1.0),
        "t_hi": _float(1.0, 10.0),
        "n_times": _int(8, 12, odd=(0, 1, 4)),
    },
    "transform-check": {
        **GRID,
        "u0": _profile(),
        "w": _profile(),
        "t_end": _float(0.01, 0.2),
        "n_snapshots": _int(2, 5),
        "dt_init": _float(1e-3, 1e-2),
    },
    "mild-solve": {
        "rho": _float(-0.9, -0.1),      # where the small-data window is
        "p": _float(2.0, 5.0),          # mostly nonempty
        **GRID,
        "u0": _profile(),
        "w": _profile(),
        "t_max": _float(0.1, 20.0),
        "n_times": _int(8, 12, odd=(4,)),
        "r": (st.just("0"), ODD.map(repr)),     # 0: the window midpoint
        "picard_tol": _float(1e-12, 1e-2),
        "max_picard": _int(2, 6),
        "duhamel_substeps": _int(1, 3),
    },
    "local-solve": {
        **GRID,
        "u0": _profile(),
        "w": _profile(),
        "q": _float(1.5, 8.0),
        "horizon": _float(0.01, 1.0),
        "n_times": _int(8, 12, odd=(4,)),
        "picard_tol": _float(1e-12, 1e-2),
        "max_picard": _int(2, 6),
    },
    "blowup-scan": {
        **GRID,
        "p_lo": _float(1.05, 2.5),
        "p_hi": _float(2.5, 6.0),
        # 0 asks for the calibration, which needs a finite critical power
        "amplitude": (st.one_of(st.just("0"), st.floats(0.01, 10.0).map(repr)),
                      ODD.map(repr)),
        "bracket_width": _float(0.1, 1.0),
        "dt_init": _float(1e-2, 0.1),
        "dt_min": _float(1e-10, 1e-4),
        "t_max": _float(0.1, 5.0),
        "norm_cap": _float(1e3, 1e10),
    },
}


@st.composite
def configs(draw, command):
    schema = {**COMMON, **SCHEMAS[command]}
    values = {key: draw(good) for key, (good, _) in schema.items()}
    spoiled = draw(st.sampled_from([None] + sorted(schema)))
    if spoiled is not None:
        values[spoiled] = draw(st.one_of(schema[spoiled][1], st.none()))
    return "".join("%s = %s\n" % kv for kv in values.items()
                   if kv[1] is not None)


@pytest.mark.parametrize("command", sorted(SCHEMAS))
@settings(derandomize=True, deadline=None, max_examples=30)
@given(data=st.data())
def test_every_config_exits_with_a_contract_code(tmp_path_factory, command,
                                                 data):
    text = data.draw(configs(command), label="config")
    out = tmp_path_factory.mktemp("run")
    path = out / "drawn.cfg"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main([command, "--config", str(path), "--out", str(out)])
    assert rc in CONTRACT, text
