import dataclasses
import hashlib
import math
import re
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
    run_leggett_garg,
)
from grwsim.cli import main
from grwsim.config import KIND_SECTIONS, _SCHEMA, chain_defaults, reads
from grwsim.propagator import POTENTIAL_KEYS
from grwsim.scenarios import run_batch

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

#: a grw cat config that sets every key its row reads, with a double
#: well; the [check] keys are out of table order, which the echo keeps
FULL_CAT = """
[scenario]
kind = cat
name = full-cat
mode = grw

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
kind = double_well
barrier_height = 3.25
well_separation = 2.0

[propagator]
dt = 0.003125
steps_per_event_check = 4

[run]
horizon = 1.5

[check]
max_undecided_fraction = 0.02
min_p_value = 0.001
"""

#: a unitary cat config that sets every key its row reads: [collapse]
#: width only, a double well and no [check] gate
FULL_CAT_UNITARY = """
[scenario]
kind = cat
name = full-unitary
mode = unitary

[grid]
x_min = -2
x_max = 2.0
n_points = 8

[state]
weight_1 = 0.3
packet_width = 0.2
separation = 2.0

[collapse]
width = 2.0

[potential]
kind = double_well
barrier_height = 0.25
well_separation = 1.0

[propagator]
dt = 0.003125
steps_per_event_check = 4

[run]
horizon = 1.5
"""

#: a wpr cat config that sets every key its row reads: the p-value gate
#: only
FULL_CAT_WPR = """
[scenario]
kind = cat
name = full-wpr
mode = wpr

[state]
weight_1 = 0.3

[run]
horizon = 0.25

[check]
min_p_value = 0.001
"""

#: a Leggett-Garg config with every key its row reads and both checks
FULL_LG = """
[scenario]
kind = leggett_garg

[collapse]
tau = 0.5
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
mode = grw

[state]
weight_1 = 0.25
packet_width = 0.3

[collapse]
tau = 0.5
n_eff = 3
"""
    cfg = load_config(_write(tmp_path, text)).scenario
    assert cfg.name == "tilted"
    assert cfg.mode == "grw"
    assert cfg.weight_1 == 0.25
    assert cfg.packet_width == 0.3
    assert cfg.collapse == GrwParams(tau=0.5, width=0.3, n_eff=3.0)


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
    """``[regions]`` is a section of older cat files: a cat's outcomes are
    the two sides of x = 0, so it must fail at load rather than be read
    and ignored."""
    for text, section in [
        ("[postprocess]\nx = 1\n", "postprocess"),
        ("[scenario]\nkind = cat\n\n[regions]\nregion_1 = -8, 0\n", "regions"),
    ]:
        with pytest.raises(ParseError, match=rf"unknown section \[{section}\]"):
            load_config(_write(tmp_path, text))


#: (config text, the undeclared key it sets); ``method`` and
#: ``coupling_time`` are keys of older files, which must fail at load
#: rather than be read and ignored
UNKNOWN_KEYS = [
    ("[collapse]\ntua = 1.0\n", "tua"),
    ("[propagator]\nmethod = spectral\n", "method"),
    ("[run]\ncoupling_time = 1.0\n", "coupling_time"),
    ("[potential]\nkind = double_well\nvalues = 1, 2\n", "values"),
]


def test_unknown_key_is_a_parse_error(tmp_path):
    for text, key in UNKNOWN_KEYS:
        with pytest.raises(ParseError, match=f"unknown key '{key}'.*expected one of"):
            load_config(_write(tmp_path, text))


#: one setting in each section that some run kind does not read
SECTION_SAMPLES = {
    "grid": "n_points = 8", "state": "weight_1 = 0.5",
    "potential": "kind = free", "propagator": "dt = 0.01", "run": "horizon = 5",
    "lg": "omega = 2",
}

#: (kind, a section it does not read, what the error says the kind reads)
_GRID_READS = ["check", "collapse", "grid", "potential", "propagator", "run",
               "scenario", "state"]
FOREIGN_SECTIONS = [
    ("cat", "lg", _GRID_READS),
    ("measurement_chain", "lg", _GRID_READS),
] + [
    ("leggett_garg", section, ["check", "collapse", "lg", "scenario"])
    for section in ("grid", "state", "potential", "propagator", "run")
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
    run = f"kind {kind!r}" if kind == "leggett_garg" else f"kind {kind!r} in mode 'grw'"
    assert str(info.value) == (
        f"[{section}] does not apply to {run}; expected one of {reads}"
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


def _text(sections: dict) -> str:
    """Config text of ``{section: {key: value}}``."""
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for section, keys in sections.items()
    )


def _merge(*parts: dict) -> dict:
    """``{section: {key: value}}`` of every part, later values winning."""
    merged: dict = {}
    for part in parts:
        for section, keys in part.items():
            merged.setdefault(section, {}).update(keys)
    return merged


def _header(kind, mode) -> dict:
    return {"scenario": {"kind": kind, **({} if mode is None else {"mode": mode})}}


#: every (kind, mode, [potential] kind) row of the read table; rows that
#: read no [potential] have potential kind None
ROWS = [
    (kind, mode, potential)
    for kind, modes in KIND_SECTIONS.items()
    for mode, row in modes.items()
    for potential in (POTENTIAL_KEYS if "potential" in row else (None,))
]


@pytest.mark.parametrize("kind, mode, potential", ROWS,
                         ids=["-".join(map(str, row)) for row in ROWS])
def test_every_unread_key_is_a_parse_error(tmp_path, kind, mode, potential):
    """Each schema key that a row does not read fails at load: a key of a
    read section is named with its section, a key of an unread section
    by the section alone."""
    row = reads(kind, mode, potential)
    base = _header(kind, mode)
    if potential is not None:
        base = _merge(base, {"potential": {"kind": potential}})
    unread = [(section, key) for section, keys in _SCHEMA.items()
              for key in keys if key not in row.get(section, ())]
    assert unread
    # a gate that cannot decide in a mode is not read there: unitary
    # decides nothing and leaves no p-value, wpr leaves nothing undecided
    gates = {"unitary": ("min_p_value", "max_undecided_fraction"),
             "wpr": ("max_undecided_fraction",)}.get(mode, ())
    assert all(("check", gate) in unread for gate in gates)
    for section, key in unread:
        path = _write(tmp_path, _text(_merge(base, {section: {key: "1"}})))
        named = f"[{section}] {key}" if section in row else f"[{section}]"
        with pytest.raises(ParseError, match=re.escape(f"{named} does not apply to ")):
            load_config(path)


def test_unknown_mode_and_potential_kind_are_parse_errors(tmp_path):
    for text, message in [
        ("[scenario]\nmode = classical\n", "[scenario] mode = 'classical'"),
        ("[potential]\nkind = box\n", "[potential] kind = 'box'"),
        ("[potential]\nkind = custom\n", "[potential] kind = 'custom'"),
    ]:
        with pytest.raises(ParseError, match=re.escape(message)):
            load_config(_write(tmp_path, text))


def test_potential_keys_name_every_potential_field_and_schema_key():
    """``POTENTIAL_KEYS`` plus ``kind`` are exactly the fields of
    ``Potential`` and the keys of ``[potential]``: the echo reads the
    section through both tables."""
    named = {"kind", *(key for keys in POTENTIAL_KEYS.values() for key in keys)}
    assert named == {f.name for f in dataclasses.fields(Potential)}
    assert named == set(_SCHEMA["potential"])


#: grid kind -> (section, key) -> a valid value other than the kind's
#: default; a grid row's change of ``key`` sets it to this value
CHANGED = {
    "cat": {
        ("scenario", "kind"): "measurement_chain", ("scenario", "name"): "renamed",
        ("grid", "x_min"): -9.0, ("grid", "x_max"): 9.0, ("grid", "n_points"): 320,
        ("state", "weight_1"): 0.7, ("state", "packet_width"): 0.3,
        ("state", "separation"): 3.0,
        ("collapse", "tau"): 1.0, ("collapse", "width"): 0.35, ("collapse", "n_eff"): 4.0,
        ("propagator", "dt"): 0.005, ("propagator", "steps_per_event_check"): 5,
        ("run", "horizon"): 0.5,
    },
    "measurement_chain": {
        ("scenario", "kind"): "cat", ("scenario", "name"): "renamed",
        ("grid", "x_min"): -11.0, ("grid", "x_max"): 11.0, ("grid", "n_points"): 640,
        ("state", "weight_1"): 0.7, ("state", "packet_width"): 0.22,
        ("state", "separation"): 11.0,
        ("collapse", "tau"): 2.0, ("collapse", "width"): 0.18, ("collapse", "n_eff"): 1.5,
        ("propagator", "dt"): 1 / 64, ("propagator", "steps_per_event_check"): 4,
        ("run", "horizon"): 4.0,
    },
}

#: the mode a grid row's ``[scenario] mode`` is changed to
OTHER_MODE = {"grw": "wpr", "unitary": "grw", "wpr": "grw"}

#: (section, key) -> (context, changed): the change of a leggett_garg key
#: from the file that sets only its kind and ``context``.  Without hits
#: the default readout times scale with 1 / omega and K does not move,
#: so the omega change runs with hits.
LG_CHANGED = {
    ("scenario", "kind"): ({}, "cat"),
    ("collapse", "tau"): ({}, 0.5),
    ("collapse", "n_eff"): ({}, 3.0),
    ("lg", "omega"): ({"collapse": {"tau": 0.25}}, 2.0),
    ("lg", "t1"): ({}, 0.5),
    ("lg", "t2"): ({}, 1.5),
    ("lg", "t3"): ({}, 3.5),
}


_HARMONIC = {"kind": "harmonic", "omega": 8.0}
_DOUBLE_WELL = {"kind": "double_well", "barrier_height": 10.0, "well_separation": 3.5}

#: potential kind -> key -> ([potential] before, [potential] after); a new
#: ``kind`` brings the keys that kind needs
POTENTIAL_CHANGES = {
    "free": {"kind": ({"kind": "free"}, _HARMONIC)},
    "harmonic": {"kind": (_HARMONIC, {"kind": "free"}),
                 "omega": (_HARMONIC, {**_HARMONIC, "omega": 6.0})},
    "double_well": {
        "kind": (_DOUBLE_WELL, _HARMONIC),
        "barrier_height": (_DOUBLE_WELL, {**_DOUBLE_WELL, "barrier_height": 12.0}),
        "well_separation": (_DOUBLE_WELL, {**_DOUBLE_WELL, "well_separation": 3.0}),
    },
}


#: the (mode, section, key) whose only role in its row is a guard, with a
#: value per grid kind that passes it and one that fails it
GUARD_ONLY = {
    ("unitary", "collapse", "width"): {"cat": (0.3, 0.01),
                                       "measurement_chain": (0.2, 0.01)},
}


def _decides_cases():
    """(text before, text after, the key if its only role is a guard) for
    every (row, key) of the read table but [check], whose gates decide
    only the exit code."""
    keys = [
        (kind, mode, potential, section, key)
        for kind, modes in KIND_SECTIONS.items()
        for mode in modes
        for section in reads(kind, mode, None)
        if section != "check"
        for potential in (POTENTIAL_KEYS if section == "potential" else (None,))
        for key in reads(kind, mode, potential)[section]
    ]
    cases = []
    for kind, mode, potential, section, key in keys:
        guard = key if (mode, section, key) in GUARD_ONLY else None
        if kind == "leggett_garg":
            context, value = LG_CHANGED[section, key]
            before, after = context, _merge(context, {section: {key: value}})
        elif section == "potential":
            old, new = POTENTIAL_CHANGES[potential][key]
            before, after = {section: old}, {section: new}
        elif guard:
            good, bad = GUARD_ONLY[mode, section, key][kind]
            before, after = {section: {key: good}}, {section: {key: bad}}
        elif key == "mode":
            before, after = {}, {section: {key: OTHER_MODE[mode]}}
        else:
            before, after = {}, {section: {key: CHANGED[kind][section, key]}}
        header = _header(kind, mode)
        where = section if potential is None else f"potential[{potential}]"
        cases.append(pytest.param(_text(_merge(header, before)),
                                  _text(_merge(header, after)), guard,
                                  id=f"{kind}-{mode}-{where}.{key}"))
    return cases


def _outcome(path):
    """What a run of the config at ``path`` produces, or the rule it broke.

    A grid run gives its two event-log records (the lines of
    ``events.jsonl``; in wpr mode also what summary.json derives from
    them), a leggett_garg run its LgResult; neither carries the echo or
    the config digest."""
    try:
        loaded = load_config(path)
        if loaded.kind == "leggett_garg":
            return True, run_leggett_garg(loaded.lg, 300, 3).as_dict()
        return True, list(run_batch(loaded.scenario, 7, range(2)))
    except ValidationError as exc:
        return False, str(exc)


@pytest.mark.parametrize("before, after, guard", _decides_cases())
def test_every_read_key_decides_something(tmp_path, before, after, guard):
    """A changed valid value of any key a row reads changes what the run
    produces; a key whose only role is a guard changes whether the run
    passes it instead."""
    ran_before, first = _outcome(_write(tmp_path, before, "before.ini"))
    ran_after, second = _outcome(_write(tmp_path, after, "after.ini"))
    if guard:
        assert (ran_before, ran_after) == (True, False), second
        assert guard in second
    else:
        assert ran_before and ran_after, (first, second)
        assert first != second


#: section -> the dataclass that load_config builds its keys into and
#: render_resolved echoes them from; [check] keys are gates, not fields
SECTION_TYPES = {
    "scenario": ScenarioConfig, "grid": GridSpec, "state": ScenarioConfig,
    "collapse": GrwParams, "potential": Potential,
    "propagator": PropagatorConfig, "run": ScenarioConfig,
    "lg": LgConfig,
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
    ("[grid]\nx_max = inf\n", "x_max - x_min"),
    ("[grid]\nx_min = -inf\n", "x_max - x_min"),
    ("[run]\nhorizon = inf\n", "horizon"),
    ("[scenario]\nmode = wpr\n\n[state]\nweight_1 = 1.0000000005\n", "weight_1"),
    ("[scenario]\nmode = wpr\n\n[state]\nweight_1 = -5e-10\n", "weight_1"),
    ("[scenario]\nmode = wpr\n\n[run]\nhorizon = inf\n", "horizon"),
    ("[collapse]\nn_eff = inf\n", "n_eff"),
    ("[collapse]\nwidth = inf\n", "width"),
    ("[state]\npacket_width = inf\n", "packet_width"),
    ("[state]\nseparation = inf\n", "separation"),
    (LG_KIND + "[collapse]\nn_eff = inf\n", "n_eff"),
    (LG_KIND + "[lg]\nomega = inf\n", "omega"),
    (LG_KIND + "[lg]\nomega = 0\n", "omega"),
    (LG_KIND + "[lg]\nt1 = inf\n", "t1"),
    (LG_KIND + "[lg]\nt2 = inf\n", "t2"),
    (LG_KIND + "[lg]\nt3 = inf\n", "t3"),
    ("[check]\nmin_p_value = nan\n", "min_p_value"),
    ("[check]\nmax_undecided_fraction = nan\n", "max_undecided_fraction"),
    ("[check]\nmax_undecided_fraction = -0.5\n", "max_undecided_fraction"),
    ("[check]\nmin_p_value = 7\n", "min_p_value"),
    ("[scenario]\nmode = wpr\n\n[check]\nmin_p_value = -1e-9\n", "min_p_value"),
    (LG_KIND + "[check]\nk_min = nan\n", "k_min"),
    (LG_KIND + "[check]\nk_max = nan\n", "k_max"),
]


def test_invariant_violations_are_validation_errors(tmp_path):
    for text, field in INVARIANT_VIOLATIONS:
        with pytest.raises(ValidationError, match=field):
            load_config(_write(tmp_path, text))


@pytest.mark.parametrize("text", [
    "[state]\nweight_1 = 1.0\n",
    "[state]\nweight_1 = 0.0\n",
    "[scenario]\nmode = wpr\n\n[state]\nweight_1 = 0.0\n",
    "[scenario]\nkind = measurement_chain\n\n[state]\nweight_1 = 1.0\n",
], ids=["grw_weight_1", "grw_weight_0", "wpr_weight_0", "chain_weight_1"])
def test_min_p_value_on_definite_state_is_refused(tmp_path, text):
    """A state of weight 0 or 1 has one possible outcome and so no p-value;
    the undecided gate still applies to it."""
    with pytest.raises(ValidationError, match="min_p_value does not apply to a definite"):
        load_config(_write(tmp_path, text + "\n[check]\nmin_p_value = 0.01\n"))
    if "wpr" not in text:
        gated = text + "\n[check]\nmax_undecided_fraction = 0.01\n"
        assert load_config(_write(tmp_path, gated)).check_gates() == {
            "max_undecided_fraction": 0.01}


def test_infinite_tau_stays_legal(tmp_path):
    """tau = inf (no hits) is how unitary mode runs, so it stays legal."""
    cfg = load_config(_write(tmp_path, "[collapse]\ntau = inf\n")).scenario
    assert cfg.collapse.rate == 0.0


@pytest.mark.parametrize("kind", ["cat", "measurement_chain", "leggett_garg"])
def test_overflowing_rate_is_refused_at_load(tmp_path, kind):
    """A finite ``tau`` and ``n_eff`` whose rate ``n_eff / tau`` overflows
    is refused when the file is loaded, for every kind that reads them."""
    for collapse in ("tau = 1e-320\n", "tau = 1e-300\nn_eff = 1e10\n"):
        text = f"[scenario]\nkind = {kind}\n\n[collapse]\n{collapse}"
        with pytest.raises(ValidationError, match="hit rate n_eff / tau must be finite, got inf"):
            load_config(_write(tmp_path, text))


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
        "[propagator]\ndt = 0.005\n",
        pytest.param(FULL_CAT, id="full_cat"),
        pytest.param(FULL_CAT_UNITARY, id="full_cat_unitary"),
        pytest.param(FULL_CAT_WPR, id="full_cat_wpr"),
        pytest.param("[scenario]\nkind = measurement_chain\nmode = wpr\n\n[run]\n"
                     "horizon = 2\n", id="chain_wpr"),
        pytest.param("[potential]\nkind = free\n", id="free"),
        pytest.param("[potential]\nkind = harmonic\nomega = 8\n", id="harmonic"),
        pytest.param("[scenario]\nmode = unitary\n\n[potential]\nkind = double_well\n"
                     "barrier_height = 2\nwell_separation = 3.5\n", id="double_well"),
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
         "46ebe6ce58c4408c88a32d8e33fd16ecf0fd624a0446db71cb19f973697cafdc"),
        ("chain.ini",
         "3088703d3ce0b47dd35b6d3187a99d2313bfacd4dbd3605c729d50e54f03b7f2"),
        ("lg.ini",
         "b7aee62353ba83770c59d10ca8c4d5f2eefc378b411d7eb6f9ee33784d3f9351"),
        (FULL_CAT,
         "bfefef3d3d71673cb25aac23e1c2e3c0138fcffd560f87afa8c8ba6f7dc94920"),
        (FULL_CAT_UNITARY,
         "f8fef4a7401c4b19b4c91c1a0b9e4ac9ca8d521e3bf178c892ce31d42283bdb6"),
        (FULL_CAT_WPR,
         "efe89509d11c2d97694e589d4fd29c8234aca92af496a97c0aa996ab172f2d34"),
        (FULL_LG,
         "f4e7c7a01452005af1e6634fa1eaa52f769ca6b92075417eca808fa05fb3d070"),
    ],
    ids=["cat.ini", "chain.ini", "lg.ini", "full_cat", "full_cat_unitary",
         "full_cat_wpr", "full_lg"],
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


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_ini_blocks_are_runnable_files(tmp_path):
    """Each ```ini block of the README loads as written, and its subcommand
    runs it: a cat block through ``run``, a leggett_garg block through ``lg``."""
    blocks = re.findall(r"^```ini\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.S | re.M)
    kinds = []
    for i, text in enumerate(blocks):
        path = tmp_path / f"readme_{i}.ini"
        path.write_text(text, encoding="utf-8")
        kinds.append(load_config(path).kind)
        if kinds[-1] == "leggett_garg":
            argv = ["lg", "--config", str(path), "--trajectories", "20"]
        else:
            argv = ["run", "--config", str(path)]
        assert main([*argv, "--out", str(tmp_path / f"out_{i}")]) == 0
    assert sorted(kinds) == ["cat", "leggett_garg"]
