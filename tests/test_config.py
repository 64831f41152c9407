import dataclasses
import hashlib
import math
from pathlib import Path

import pytest

from grwsim import (
    GridSpec,
    GrwParams,
    LgConfig,
    LoadedConfig,
    ParseError,
    Potential,
    PropagatorConfig,
    ScenarioConfig,
    ValidationError,
    config_digest,
    load_config,
    render_resolved,
)
from grwsim.cli import main
from grwsim.config import _SCHEMA, chain_defaults
from grwsim.qstate import Region

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

#: a cat config that sets every key its kind reads; the [check] keys are
#: out of table order, which the echo keeps
FULL_CAT = """
[scenario]
kind = cat
name = full-cat
mode = wpr

[grid]
x_min = -2
x_max = 2.0
n_points = 8

[state]
weight_1 = 0.3
packet_width = 0.2
separation = 2.0

[collapse]
tau = 0.5
width = 2.0
n_eff = 3

[potential]
kind = custom
omega = 1.5
barrier_height = 0.25
well_separation = 1.0
values = 0, 0.5 1e-1, 2, 3.25, 4, 5, 6

[propagator]
dt = 0.003125
steps_per_event_check = 4

[run]
horizon = 1.5
measurement_time = 0.25

[regions]
region_1 = -2.0, 0
region_2 = 0.0, 2

[check]
max_undecided_fraction = 0.02
min_p_value = 0.001
"""

#: a Leggett-Garg config with [collapse], every [lg] key and both checks
FULL_LG = """
[scenario]
kind = leggett_garg

[collapse]
tau = 0.5
width = 0.3
n_eff = 2

[lg]
omega = 2.0
t1 = 0.1
t2 = 0.25
t3 = 0.5

[check]
k_max = 1.6
k_min = 1.2
"""


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


#: (config text, the undeclared key it sets); ``method`` and
#: ``coupling_time`` are keys of older files, which must fail at load
#: rather than be read and ignored
UNKNOWN_KEYS = [
    ("[collapse]\ntua = 1.0\n", "tua"),
    ("[propagator]\nmethod = spectral\n", "method"),
    ("[run]\ncoupling_time = 1.0\n", "coupling_time"),
]


def test_unknown_key_is_a_parse_error(tmp_path):
    for text, key in UNKNOWN_KEYS:
        with pytest.raises(ParseError, match=f"unknown key '{key}'.*expected one of"):
            load_config(_write(tmp_path, text))


#: one setting in each section that some run kind does not read
SECTION_SAMPLES = {
    "grid": "n_points = 8", "state": "weight_1 = 0.5",
    "potential": "kind = free", "propagator": "dt = 0.01", "run": "horizon = 5",
    "regions": "region_1 = -8, 0\nregion_2 = 0, 8", "lg": "omega = 2",
}

#: (kind, a section it does not read, what the error says the kind reads);
#: a measurement chain's branch weights are its level weights, so it reads
#: no [regions]
_CHAIN_READS = ["check", "collapse", "grid", "potential", "propagator", "run",
                "scenario", "state"]
FOREIGN_SECTIONS = [
    ("cat", "lg", sorted([*_CHAIN_READS, "regions"])),
    ("measurement_chain", "lg", _CHAIN_READS),
    ("measurement_chain", "regions", _CHAIN_READS),
] + [
    ("leggett_garg", section, ["check", "collapse", "lg", "scenario"])
    for section in ("grid", "state", "potential", "propagator", "run", "regions")
]


@pytest.mark.parametrize(
    "kind, section, reads", FOREIGN_SECTIONS,
    ids=[f"{kind}-{section}" for kind, section, _ in FOREIGN_SECTIONS],
)
def test_foreign_section_is_a_parse_error(tmp_path, capsys, kind, section, reads):
    """A section the file's kind never reads fails at load, naming the
    sections it does read; the CLI exits 1 before ``--out`` exists."""
    path = _write(tmp_path, f"[scenario]\nkind = {kind}\n\n[{section}]\n"
                            f"{SECTION_SAMPLES[section]}\n")
    with pytest.raises(ParseError) as info:
        load_config(path)
    assert str(info.value) == (
        f"[{section}] does not apply to kind {kind!r}; expected one of {reads}"
    )
    command = "lg" if kind == "leggett_garg" else "ensemble"
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--trajectories", "4",
                 "--out", str(out)])
    assert code == 1
    assert "does not apply to kind" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["name", "mode"])
def test_lg_scenario_reads_only_its_kind(tmp_path, key):
    text = f"[scenario]\nkind = leggett_garg\n{key} = unitary\n"
    with pytest.raises(ParseError) as info:
        load_config(_write(tmp_path, text))
    assert str(info.value) == (
        f"[scenario] {key} does not apply to kind 'leggett_garg'; "
        "expected one of ['kind']"
    )


#: section -> the dataclass that load_config builds its keys into and
#: render_resolved echoes them from; [check] keys are gates, not fields
SECTION_TYPES = {
    "scenario": ScenarioConfig, "grid": GridSpec, "state": ScenarioConfig,
    "collapse": GrwParams, "potential": Potential,
    "propagator": PropagatorConfig, "run": ScenarioConfig,
    "regions": ScenarioConfig, "lg": LgConfig,
}


def test_every_schema_key_is_a_field_of_its_section_type():
    """A key left in the table after its field is gone would crash
    ``replace`` at load and drop silently out of the echo."""
    assert set(SECTION_TYPES) == set(_SCHEMA) - {"check"}
    for section, cls in SECTION_TYPES.items():
        fields = {f.name for f in dataclasses.fields(cls)}
        stray = set(_SCHEMA[section]) - fields
        assert not stray, f"[{section}] keys {sorted(stray)} are not {cls.__name__} fields"


def test_bad_literal_names_section_and_key(tmp_path):
    with pytest.raises(ParseError, match=r"\[grid\] n_points"):
        load_config(_write(tmp_path, "[grid]\nn_points = many\n"))


def test_bad_kind_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="kind"):
        load_config(_write(tmp_path, "[scenario]\nkind = soup\n"))


LG_KIND = "[scenario]\nkind = leggett_garg\n\n"

#: (config text, field the error must name); a non-finite value is as
#: much a config error as an out-of-range one, and a NaN check gate
#: would never trip
INVARIANT_VIOLATIONS = [
    ("[state]\nweight_1 = 1.5\n", "weight_1"),
    ("[propagator]\ndt = inf\n", "dt"),
    ("[run]\nhorizon = inf\n", "horizon"),
    ("[scenario]\nmode = wpr\n\n[run]\nmeasurement_time = inf\n",
     "measurement_time"),
    ("[collapse]\nn_eff = inf\n", "n_eff"),
    ("[regions]\nregion_1 = -8, 0\n", "region_2"),
    (LG_KIND + "[collapse]\nn_eff = inf\n", "n_eff"),
    (LG_KIND + "[lg]\nomega = inf\n", "omega"),
    (LG_KIND + "[lg]\nomega = 0\n", "omega"),
    (LG_KIND + "[lg]\nt1 = inf\n", "t1"),
    (LG_KIND + "[lg]\nt2 = inf\n", "t2"),
    (LG_KIND + "[lg]\nt3 = inf\n", "t3"),
    ("[check]\nmin_p_value = nan\n", "min_p_value"),
    ("[check]\nmax_undecided_fraction = nan\n", "max_undecided_fraction"),
    (LG_KIND + "[check]\nk_min = nan\n", "k_min"),
    (LG_KIND + "[check]\nk_max = nan\n", "k_max"),
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
        "[propagator]\ndt = 0.005\n",
        pytest.param(FULL_CAT, id="full_cat"),
    ],
)
def test_resolved_echo_reparses_to_the_same_config(tmp_path, text):
    first = load_config(_write(tmp_path, text))
    echoed = render_resolved(first)
    second = load_config(_write(tmp_path, echoed, name="echo.ini"))
    assert first == second
    assert config_digest(first) == config_digest(second)


@pytest.mark.parametrize(
    "source, digest",
    [
        ("cat.ini",
         "1284e3297cbbc7b668de9d0ffcf55665ab08c25218f53b38b62d539c764f7638"),
        ("chain.ini",
         "53aa86cadbe686a685585c723262e5028e928b294aaf62e574d03fdffc0b697e"),
        ("lg.ini",
         "e2c18532e99cbf43a33991b9ded86425d187acecea638d93e2161c5caf2378cf"),
        (FULL_CAT,
         "04ef5791f2eabe82d4f1b641697b002b350ba94ceaa2e3cd777c5a3543e1dd31"),
        (FULL_LG,
         "8b33a180fdc8bf22df3f04974b8181e4fac81c852c6f6afbeb9453d53f2487b2"),
    ],
    ids=["cat.ini", "chain.ini", "lg.ini", "full_cat", "full_lg"],
)
def test_resolved_echo_is_pinned(tmp_path, source, digest):
    """sha256 of the config.ini echo: any change to its bytes (section or
    key order, number format) changes every run's config_digest."""
    path = CONFIGS / source if source.endswith(".ini") else _write(tmp_path, source)
    loaded = load_config(path)
    assert hashlib.sha256(render_resolved(loaded).encode("utf-8")).hexdigest() == digest
    assert config_digest(loaded) == digest


def test_digest_distinguishes_configs(tmp_path):
    a = load_config(_write(tmp_path, "[scenario]\nkind = cat\n"))
    b = load_config(
        _write(tmp_path, "[scenario]\nkind = cat\n\n[state]\nweight_1 = 0.6\n",
               name="b.ini")
    )
    assert len(config_digest(a)) == 64
    assert config_digest(a) != config_digest(b)
