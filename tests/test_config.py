import math

import pytest

from grwsim import (
    GrwParams,
    LoadedConfig,
    ParseError,
    Potential,
    ScenarioConfig,
    ValidationError,
    config_digest,
    load_config,
    render_resolved,
)
from grwsim.config import chain_defaults
from grwsim.qstate import Region


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_minimal_file_gets_all_defaults(tmp_path):
    loaded = load_config(_write(tmp_path, "[scenario]\nkind = cat\n"))
    assert loaded.kind == "cat"
    assert loaded.scenario == ScenarioConfig()
    assert loaded.checks == ()


def test_chain_kind_switches_default_block(tmp_path):
    loaded = load_config(_write(tmp_path, "[scenario]\nkind = measurement_chain\n"))
    assert loaded.scenario == chain_defaults()


def test_explicit_values_override_defaults(tmp_path):
    text = """
[scenario]
kind = cat
name = tilted
mode = wpr

[state]
weight_1 = 0.25
packet_width = 0.3

[collapse]
tau = 0.5
n_eff = 3

[regions]
region_1 = -8.0, -0.5
region_2 = -0.5, 8.0
"""
    cfg = load_config(_write(tmp_path, text)).scenario
    assert cfg.name == "tilted"
    assert cfg.mode == "wpr"
    assert cfg.weight_1 == 0.25
    assert cfg.packet_width == 0.3
    assert cfg.collapse == GrwParams(tau=0.5, width=0.3, n_eff=3.0)
    assert cfg.region_1 == Region(-8.0, -0.5)
    assert cfg.region_2 == Region(-0.5, 8.0)


def test_lg_defaults_use_equal_spacing(tmp_path):
    loaded = load_config(_write(tmp_path, "[scenario]\nkind = leggett_garg\n"))
    lg = loaded.lg
    assert lg.collapse is None  # no [collapse] section -> unitary
    assert lg.t2 - lg.t1 == pytest.approx(lg.t1)
    assert lg.omega * lg.t1 == pytest.approx(math.pi / 3.0)


def test_lg_with_collapse_section(tmp_path):
    text = "[scenario]\nkind = leggett_garg\n\n[collapse]\ntau = 0.25\n"
    lg = load_config(_write(tmp_path, text)).lg
    assert lg.collapse is not None
    assert lg.collapse.rate == pytest.approx(24.0)  # n_eff 6 / tau 0.25


def test_check_section_round_trips(tmp_path):
    text = "[scenario]\nkind = cat\n\n[check]\nmin_p_value = 0.01\n"
    loaded = load_config(_write(tmp_path, text))
    assert loaded.check_gates() == {"min_p_value": 0.01}


def test_unknown_section_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match=r"unknown section \[postprocess\]"):
        load_config(_write(tmp_path, "[postprocess]\nx = 1\n"))


def test_unknown_key_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="unknown key 'tua'"):
        load_config(_write(tmp_path, "[collapse]\ntua = 1.0\n"))


def test_bad_literal_names_section_and_key(tmp_path):
    with pytest.raises(ParseError, match=r"\[grid\] n_points"):
        load_config(_write(tmp_path, "[grid]\nn_points = many\n"))


def test_bad_kind_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="kind"):
        load_config(_write(tmp_path, "[scenario]\nkind = soup\n"))


LG_KIND = "[scenario]\nkind = leggett_garg\n\n"

#: (config text, field the error must name); a non-finite value is as
#: much a config error as an out-of-range one
INVARIANT_VIOLATIONS = [
    ("[state]\nweight_1 = 1.5\n", "weight_1"),
    ("[propagator]\ndt = inf\n", "dt"),
    ("[propagator]\nmethod = crank_nicolson\n", "method"),
    ("[run]\nhorizon = inf\n", "horizon"),
    ("[scenario]\nmode = wpr\n\n[run]\nmeasurement_time = inf\n",
     "measurement_time"),
    ("[collapse]\nn_eff = inf\n", "n_eff"),
    (LG_KIND + "[collapse]\nn_eff = inf\n", "n_eff"),
    (LG_KIND + "[lg]\nomega = inf\n", "omega"),
    (LG_KIND + "[lg]\nt1 = inf\n", "t1"),
    (LG_KIND + "[lg]\nt2 = inf\n", "t2"),
    (LG_KIND + "[lg]\nt3 = inf\n", "t3"),
]


def test_invariant_violations_are_validation_errors(tmp_path):
    for text, field in INVARIANT_VIOLATIONS:
        with pytest.raises(ValidationError, match=field):
            load_config(_write(tmp_path, text))


def test_infinite_tau_stays_legal(tmp_path):
    """tau = inf (no hits) is how unitary mode runs, so it stays legal."""
    cfg = load_config(_write(tmp_path, "[collapse]\ntau = inf\n")).scenario
    assert cfg.collapse.rate == 0.0


def test_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_config(tmp_path / "absent.ini")


def test_malformed_ini_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="malformed"):
        load_config(_write(tmp_path, "weight = 1 with no section\n"))


def test_potential_section(tmp_path):
    text = "[potential]\nkind = harmonic\nomega = 2.0\n"
    cfg = load_config(_write(tmp_path, text)).scenario
    assert cfg.potential == Potential(kind="harmonic", omega=2.0)


@pytest.mark.parametrize(
    "text",
    [
        "[scenario]\nkind = cat\n",
        "[scenario]\nkind = measurement_chain\n\n[state]\nweight_1 = 0.4\n",
        "[scenario]\nkind = leggett_garg\n\n[lg]\nomega = 2.0\n",
        "[scenario]\nkind = leggett_garg\n\n[collapse]\ntau = 2.0\n",
        "[scenario]\nkind = cat\n\n[check]\nmin_p_value = 0.01\n",
        "[scenario]\nkind = cat\n\n[regions]\nregion_1 = -8, 0\nregion_2 = 0, 8\n",
        "[propagator]\nmethod = spectral\n",
    ],
)
def test_resolved_echo_reparses_to_the_same_config(tmp_path, text):
    first = load_config(_write(tmp_path, text))
    echoed = render_resolved(first)
    second = load_config(_write(tmp_path, echoed, name="echo.ini"))
    assert first == second
    assert config_digest(first) == config_digest(second)


def test_digest_distinguishes_configs(tmp_path):
    a = load_config(_write(tmp_path, "[scenario]\nkind = cat\n"))
    b = load_config(
        _write(tmp_path, "[scenario]\nkind = cat\n\n[state]\nweight_1 = 0.6\n",
               name="b.ini")
    )
    assert len(config_digest(a)) == 64
    assert config_digest(a) != config_digest(b)
