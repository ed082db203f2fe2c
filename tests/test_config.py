import numpy as np
import pytest

from fujitalab import config
from fujitalab.errors import ConfigError, HypothesisViolation


# ---------------------------------------------------------------------------
# raw text parsing
# ---------------------------------------------------------------------------

def test_parse_text_basics():
    raw = config.parse_text(
        "# a comment\n"
        "\n"
        "N = 3\n"
        "sigma1 = -0.5\n"
        "u0 = gaussian(0, 1, 0.5)\n")
    assert raw == {"N": "3", "sigma1": "-0.5", "u0": "gaussian(0, 1, 0.5)"}


def test_parse_text_rejects_duplicates_with_line_numbers():
    with pytest.raises(ConfigError) as info:
        config.parse_text("N = 3\nN = 4\n")
    assert "line 2" in str(info.value)


def test_parse_text_rejects_bare_words():
    with pytest.raises(ConfigError):
        config.parse_text("just some words\n")
    with pytest.raises(ConfigError):
        config.parse_text("key =\n")


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_profile_parsing_and_building():
    spec = config.parse_profile("gaussian(0, 1, 0.5)")
    assert spec.name == "gaussian" and spec.args == (0.0, 1.0, 0.5)
    prof = spec.build()
    assert prof(np.array([0.0]))[0] == pytest.approx(0.5)
    assert config.parse_profile("zero").build()(np.array([1.0]))[0] == 0.0


def test_profile_arity_and_name_errors():
    with pytest.raises(ConfigError):
        config.parse_profile("gaussian(1, 2)")        # needs 3 arguments
    with pytest.raises(ConfigError):
        config.parse_profile("mexican_hat(1)")
    with pytest.raises(ConfigError):
        config.parse_profile("bump(a, b)")


# ---------------------------------------------------------------------------
# schema resolution
# ---------------------------------------------------------------------------

def _raw(**over):
    base = {"command": "exponents", "N": "3", "sigma1": "0", "sigma2": "0",
            "rho": "-0.5", "p": "3"}
    base.update({k: str(v) for k, v in over.items()})
    return base


def test_build_config_happy_path():
    cfg = config.build_config(_raw())
    assert cfg.command == "exponents"
    assert cfg.params.N == 3 and cfg.params.p == 3.0
    assert cfg.out_dir == "."


def test_tuple_is_checked_after_every_key_is_coerced():
    with pytest.raises(ConfigError):
        config.build_config(_raw(N="1", p="oops"))
    with pytest.raises(HypothesisViolation, match="N must be an integer >= 2"):
        config.build_config(_raw(N="1"))
    with pytest.raises(ConfigError, match="bad problem parameters"):
        config.build_config(_raw(N="1" + "0" * 400))    # beyond any float


def test_unknown_keys_are_listed():
    with pytest.raises(ConfigError) as info:
        config.build_config(_raw(tyops="1", wrong="2"))
    msg = str(info.value)
    assert "tyops" in msg and "wrong" in msg


def test_missing_required_key():
    raw = _raw()
    del raw["N"]
    with pytest.raises(ConfigError) as info:
        config.build_config(raw)
    assert "N" in str(info.value)


def test_unknown_command():
    with pytest.raises(ConfigError):
        config.build_config(_raw(command="florp"))


def test_command_override_wins():
    cfg = config.build_config(_raw(radii="10, 100, 1000"),
                              command_override="capacity-fit")
    assert cfg.command == "capacity-fit"


def test_bool_and_floats_coercion():
    raw = _raw(command="capacity-fit", radii="10, 100, 1000", log_case="yes")
    cfg = config.build_config(raw)
    assert cfg.options["radii"] == (10.0, 100.0, 1000.0)
    assert cfg.options["log_case"] is True
    with pytest.raises(ConfigError):
        config.build_config(_raw(command="capacity-fit", radii="10, 100",
                                 log_case="maybe"))


def test_describe_is_deterministic_and_complete():
    cfg = config.build_config(_raw(command="blowup-scan", p_lo="1.5",
                                   p_hi="2.5"))
    line = cfg.describe()
    assert line == config.build_config(
        _raw(command="blowup-scan", p_lo="1.5", p_hi="2.5")).describe()
    assert "p_lo=1.5" in line and "command=blowup-scan" in line


@pytest.mark.parametrize("command",
                         ["mild-solve", "local-solve", "transform-check"])
def test_absent_profiles_default_to_parsed_zero(command):
    cfg = config.build_config(_raw(command=command))
    for key in ("u0", "w"):
        spec = cfg.options[key]
        assert isinstance(spec, config.ProfileSpec)
        assert spec.name == "zero" and spec.args == ()
    assert "u0=zero w=zero" in cfg.describe()


def test_schema_help_mentions_every_command():
    text = config.schema_help()
    for command in config.COMMANDS:
        assert "[%s]" % command in text
