"""Flat key = value experiment configuration with a typed schema.

A config file is plain UTF-8 text, one ``key = value`` assignment per
line.  Blank lines and lines starting with ``#`` are ignored; inline
comments are not supported (a ``#`` inside a value would be ambiguous).
Keys are typed by the schema below and unknown keys are rejected, so a
typo fails loudly instead of silently running defaults.

Radial data profiles are written as call expressions:

    u0 = gaussian(0, 1, 0.001)      # center, width, amplitude
    w  = bump(1, 4)                 # support radius, amplitude
    w  = powerlaw(1.5, 1)           # decay exponent, amplitude
    u0 = zero

The command may be stored under ``command = ...`` and is overridden by
the command given on the command line.  All value parsing is locale
independent (``.`` decimal point) and deterministic.
"""

import math
import re
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .errors import ConfigError
from .exponents import ProblemParams
from .radial import (bump_profile, gaussian_profile, powerlaw_profile,
                     zero_profile)

_REQUIRED = object()


@dataclass(frozen=True)
class KeySpec:
    kind: str                  # int / float / bool / str / floats / profile
    default: object = _REQUIRED
    help: str = ""


# keys every command understands
_COMMON: Dict[str, KeySpec] = {
    "command": KeySpec("str", default=None, help="command to run"),
    "out_dir": KeySpec("str", default=".", help="output directory"),
    "N": KeySpec("int", help="space dimension, N >= 2"),
    "sigma1": KeySpec("float", 0.0, "radial weight on the time derivative"),
    "sigma2": KeySpec("float", 0.0, "radial weight on the nonlinearity"),
    "rho": KeySpec("float", 0.0, "time exponent of the forcing"),
    "p": KeySpec("float", 2.0, "nonlinearity power"),
}

# the problem tuple, in the order of ProblemParams and of describe()
_PARAMS = ("N", "sigma1", "sigma2", "rho", "p")

_GRID: Dict[str, KeySpec] = {
    "grid_m": KeySpec("int", 512, "radial nodes"),
    "grid_r_max": KeySpec("float", 30.0, "outer radius"),
    "grid_r_min": KeySpec("float", 0.0, "inner radius; 0 picks 1e-4 r_max"),
}

_SCHEMAS: Dict[str, Dict[str, KeySpec]] = {
    "exponents": {
        "r": KeySpec("float", 0.0, "integrability exponent; 0 = window "
                                   "midpoint"),
    },
    "transform-check": {
        **_GRID,
        "u0": KeySpec("profile", "zero", "initial datum"),
        "w": KeySpec("profile", "zero", "forcing profile"),
        "t_end": KeySpec("float", 0.5, "trajectory end time"),
        "n_snapshots": KeySpec("int", 9, "snapshots along the trajectory"),
        "dt_init": KeySpec("float", 1e-3, "initial step of the direct run"),
    },
    "semigroup-check": {
        **_GRID,
        "lq_a": KeySpec("float", 2.0, "source Lebesgue index a"),
        "lq_b": KeySpec("float", 4.0, "target Lebesgue index b"),
        "gamma": KeySpec("float", 0.0, "singular weight power; 0 = plain "
                                       "smoothing"),
        "t_lo": KeySpec("float", 0.5, "first fit time"),
        "t_hi": KeySpec("float", 5.0, "last fit time"),
        "n_times": KeySpec("int", 9, "fit times, log spaced"),
    },
    "mild-solve": {
        **_GRID,
        "u0": KeySpec("profile", "zero", "initial datum"),
        "w": KeySpec("profile", "zero", "forcing profile"),
        "t_max": KeySpec("float", 10.0, "horizon surrogate"),
        "n_times": KeySpec("int", 64, "stored times"),
        "r": KeySpec("float", 0.0, "contraction index; 0 = window midpoint"),
        "picard_tol": KeySpec("float", 1e-10, "fixed point tolerance"),
        "max_picard": KeySpec("int", 20, "iteration cap"),
        "duhamel_substeps": KeySpec("int", 4, "slices per stored interval "
                                    "of the linear part; F[u] takes half, "
                                    "at least one"),
    },
    "blowup-scan": {
        **_GRID,
        "p_lo": KeySpec("float", 1.25, "lower end of the p range"),
        "p_hi": KeySpec("float", 3.0, "upper end of the p range"),
        "amplitude": KeySpec("float", 0.0, "forcing amplitude; 0 runs the "
                                           "two-sided calibration"),
        "bracket_width": KeySpec("float", 0.25, "bisection stop width"),
        "dt_init": KeySpec("float", 5e-3, "initial time step"),
        "dt_min": KeySpec("float", 1e-10, "smallest allowed step"),
        "t_max": KeySpec("float", 50.0, "horizon declared Global"),
        "norm_cap": KeySpec("float", 1e3, "sup-norm blow-up threshold, "
                                          "past which t* is fitted"),
    },
    "capacity-fit": {
        "radii": KeySpec("floats", help="comma separated R values"),
        "t_exponent": KeySpec("float", 0.0, "m in T = R^m; 0 = sigma1 + 2"),
        "log_case": KeySpec("bool", False, "use the log-cutoff critical "
                                           "fit"),
    },
    "local-solve": {
        **_GRID,
        "u0": KeySpec("profile", "zero", "initial datum"),
        "w": KeySpec("profile", "zero", "forcing profile"),
        "q": KeySpec("float", 4.0, "Lebesgue index of the local theory"),
        "horizon": KeySpec("float", 1.0, "largest horizon to consider"),
        "n_times": KeySpec("int", 64, "stored times"),
        "picard_tol": KeySpec("float", 1e-10, "fixed point tolerance"),
        "max_picard": KeySpec("int", 20, "iteration cap"),
    },
}

COMMANDS = tuple(_SCHEMAS)


def _schema(command: str) -> Dict[str, KeySpec]:
    return {**_COMMON, **_SCHEMAS[command]}


@dataclass(frozen=True)
class ProfileSpec:
    """A named radial profile with its numeric arguments."""

    name: str
    args: Tuple[float, ...]

    def build(self) -> Callable:
        return _PROFILES[self.name][1](*self.args)

    def __str__(self):
        if not self.args:
            return self.name
        return "%s(%s)" % (self.name, ", ".join("%g" % a for a in self.args))


# profile name -> (argument count, builder)
_PROFILES = {"zero": (0, zero_profile), "gaussian": (3, gaussian_profile),
             "bump": (2, bump_profile), "powerlaw": (2, powerlaw_profile)}

_PROFILE_RE = re.compile(r"^([a-z_]+)\s*(?:\((.*)\))?$")


def parse_profile(text: str) -> ProfileSpec:
    m = _PROFILE_RE.match(text.strip())
    if m is None:
        raise ConfigError("malformed profile %r" % text)
    name, argtext = m.group(1), m.group(2)
    if name not in _PROFILES:
        raise ConfigError("unknown profile %r; expected one of %s"
                          % (name, sorted(_PROFILES)))
    args: Tuple[float, ...] = ()
    if argtext is not None and argtext.strip():
        try:
            args = tuple(float(a) for a in argtext.split(","))
        except ValueError:
            raise ConfigError("non-numeric argument in profile %r" % text)
    if len(args) != _PROFILES[name][0]:
        raise ConfigError("profile %s takes %d arguments, got %d"
                          % (name, _PROFILES[name][0], len(args)))
    return ProfileSpec(name=name, args=args)


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(value)
    return value


def _coerce(key: str, raw: str, spec: KeySpec):
    try:
        if spec.kind == "int":
            return int(raw)
        if spec.kind == "float":
            return _finite(float(raw))
        if spec.kind == "str":
            return raw
        if spec.kind == "bool":
            low = raw.lower()
            if low in ("true", "yes", "on", "1"):
                return True
            if low in ("false", "no", "off", "0"):
                return False
            raise ValueError(raw)
        if spec.kind == "floats":
            return tuple(_finite(float(x)) for x in raw.split(","))
        if spec.kind == "profile":
            return parse_profile(raw)
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError("key %s expects a %s value, got %r"
                          % (key, spec.kind, raw))
    raise ConfigError("unknown kind %r for key %s" % (spec.kind, key))


def parse_text(text: str) -> Dict[str, str]:
    """Raw key -> value strings from config text; duplicates rejected."""
    out: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError("line %d is not a key = value assignment: %r"
                              % (lineno, line))
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError("line %d has an empty key or value" % lineno)
        if key in out:
            raise ConfigError("duplicate key %r at line %d" % (key, lineno))
        out[key] = value
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully typed experiment: command, problem tuple, and knobs."""

    command: str
    params: ProblemParams
    options: Dict[str, object]
    out_dir: str

    def describe(self) -> str:
        """Deterministic one-line record of every resolved setting."""
        return " ".join(
            ["command=%s" % self.command]
            + ["%s=%g" % (key, getattr(self.params, key)) for key in _PARAMS]
            + ["%s=%s" % (key, self.options[key])
               for key in sorted(self.options)])


def build_config(raw: Dict[str, str],
                 command_override: Optional[str] = None) -> ExperimentConfig:
    """Validate raw assignments against the schema of the chosen command."""
    command = command_override or raw.get("command")
    if command is None:
        raise ConfigError("no command given on the command line or in the "
                          "config (command = ...)")
    if command not in COMMANDS:
        raise ConfigError("unknown command %r; expected one of %s"
                          % (command, list(COMMANDS)))
    schema = _schema(command)

    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError("unknown key(s) for %s: %s" % (command, unknown))

    typed: Dict[str, object] = {}
    for key, spec in schema.items():
        if key in raw:
            typed[key] = _coerce(key, raw[key], spec)
        elif spec.default is _REQUIRED:
            raise ConfigError("missing required key %r for %s"
                              % (key, command))
        elif spec.kind == "profile":
            typed[key] = parse_profile(spec.default)
        else:
            typed[key] = spec.default

    # every key is coerced, so a config error outranks a hypothesis failure
    try:
        params = ProblemParams(**{key: typed.pop(key) for key in _PARAMS})
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError("bad problem parameters: %s" % exc)
    typed.pop("command", None)
    out_dir = typed.pop("out_dir")
    return ExperimentConfig(command=command, params=params, options=typed,
                            out_dir=out_dir)


def load_config(path: str,
                command_override: Optional[str] = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    return build_config(parse_text(text), command_override)


def schema_help() -> str:
    """Human-readable schema dump, one line per key."""
    lines = []
    for command in COMMANDS:
        lines.append("[%s]" % command)
        schema = _schema(command)
        for key in sorted(schema):
            spec = schema[key]
            default = ("required" if spec.default is _REQUIRED
                       else "default %s" % (spec.default,))
            lines.append("  %-18s %-8s %s (%s)"
                         % (key, spec.kind, spec.help, default))
        lines.append("")
    return "\n".join(lines)
