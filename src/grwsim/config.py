"""Config-file loading: flat sectioned ``key = value`` text.

Every run is described by an INI-style file.  :data:`_SCHEMA` is the one
declaration of the format: each section maps its keys, in echo order, to
the parser that reads them, and a key is declared nowhere else.  The
echo writes ``str`` values raw and numbers by ``repr``, so it reads back
to the same config.
Unknown sections or keys raise :class:`ParseError` (catching typos beats
silently ignoring them), and so do sections or keys that the file's
kind, mode and ``[potential] kind`` do not read (:func:`reads`);
invariant violations raise :class:`ValidationError` from the dataclass
constructors, naming the violated rule.  Defaults are filled in and the
fully resolved config is echoed into each run's output directory.
"""
from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, replace

from .collapse import GrwParams
from .errors import ParseError, ValidationError
from .propagator import POTENTIAL_KEYS, Potential, PropagatorConfig
from .qstate import GridSpec
from .scenarios import LgConfig, ScenarioConfig

_SCENARIO_CHECKS = ("min_p_value", "max_undecided_fraction")
_LG_CHECKS = ("k_min", "k_max")


#: section -> {key: parser}, in echo order
_SCHEMA = {
    "scenario": {"kind": str, "name": str, "mode": str},
    "grid": {"x_min": float, "x_max": float, "n_points": int},
    "state": {"weight_1": float, "packet_width": float, "separation": float},
    "collapse": {"tau": float, "width": float, "n_eff": float},
    "potential": {
        "kind": str, "omega": float, "barrier_height": float, "well_separation": float,
    },
    "propagator": {"dt": float, "steps_per_event_check": int},
    "run": {"horizon": float},
    "lg": {"omega": float, "t1": float, "t2": float, "t3": float},
    "check": dict.fromkeys(_SCENARIO_CHECKS + _LG_CHECKS, float),
}


def _reads(*sections: str) -> dict:
    return {section: tuple(_SCHEMA[section]) for section in sections}


def _grid_modes() -> dict:
    """The rows of a grid kind, by mode."""
    grw = {
        **_reads("scenario", "grid", "state", "collapse"),
        "potential": ("kind",),
        **_reads("propagator", "run"),
        "check": _SCENARIO_CHECKS,
    }
    return {
        "grw": grw,
        # no hits: the width still sizes the seam and resolution guards.
        # Nothing decides, so there is no p-value and every trajectory
        # ends undecided: no [check] gate could pass on merit
        "unitary": {**{s: keys for s, keys in grw.items() if s != "check"},
                    "collapse": ("width",)},
        # one projection at the horizon, drawn from weight_1 alone; every
        # trajectory decides, so only the p-value gate can trip
        "wpr": {**_reads("scenario"), "state": ("weight_1",),
                "run": ("horizon",), "check": ("min_p_value",)},
    }


#: run kind -> mode -> the sections a file reads, in echo order, each with
#: the keys it reads there.  A leggett_garg file has no mode (its one row
#: is under None): its ``[scenario]`` reads the kind, and its
#: ``[collapse]`` only the hit rate ``n_eff / tau``.  ``[potential]``
#: reads ``kind`` here and that kind's own keys from :data:`POTENTIAL_KEYS`.
KIND_SECTIONS = {
    "cat": _grid_modes(),
    "measurement_chain": _grid_modes(),
    "leggett_garg": {None: {"scenario": ("kind",), **_reads("lg"),
                            "collapse": ("tau", "n_eff"), "check": _LG_CHECKS}},
}
RUN_KINDS = tuple(KIND_SECTIONS)


def reads(kind: str, mode: str | None, potential: str | None) -> dict:
    """Section -> keys that a file of ``kind`` in ``mode`` reads, in echo
    order, with ``[potential]`` narrowed to its ``potential`` kind."""
    row = KIND_SECTIONS[kind][mode]
    if potential is None or "potential" not in row:
        return row
    return {**row, "potential": row["potential"] + POTENTIAL_KEYS[potential]}


@dataclass(frozen=True)
class LoadedConfig:
    """Typed result of :func:`load_config` plus optional check gates."""

    kind: str
    scenario: ScenarioConfig | None = None
    lg: LgConfig | None = None
    checks: tuple[tuple[str, float], ...] = ()

    def check_gates(self) -> dict:
        return dict(self.checks)


def _parse(parser: configparser.ConfigParser, section: str, key: str):
    raw = parser.get(section, key)
    try:
        return _SCHEMA[section][key](raw)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _fields(parser: configparser.ConfigParser, *sections: str) -> dict:
    """The keys of ``sections`` that the file sets, parsed, by key."""
    return {
        key: _parse(parser, section, key)
        for section in sections
        for key in _SCHEMA[section]
        if parser.has_option(section, key)
    }


def load_config(path) -> LoadedConfig:
    """Parse and validate a run description file.

    Each object starts from its kind's defaults, and the keys the file
    sets are read over them.  A ``[check]`` value must be finite: every
    comparison with NaN is false, so a NaN gate would never trip.  The
    fraction and p-value gates must lie in [0, 1], the range of the
    values they bound.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ParseError(f"malformed config {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ParseError(
                f"unknown section [{section}]; expected one of "
                f"{sorted(_SCHEMA)}"
            )
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ParseError(
                    f"unknown key {key!r} in [{section}]; expected one of "
                    f"{sorted(_SCHEMA[section])}"
                )

    kind = parser.get("scenario", "kind", fallback="cat")
    if kind not in RUN_KINDS:
        raise ParseError(f"[scenario] kind = {kind!r}; expected one of {RUN_KINDS}")

    rows = KIND_SECTIONS[kind]
    mode = None
    if None not in rows:
        mode = parser.get("scenario", "mode", fallback=ScenarioConfig().mode)
        if mode not in rows:
            raise ParseError(f"[scenario] mode = {mode!r}; expected one of {tuple(rows)}")
    potential = None
    if parser.has_section("potential") and "potential" in rows[mode]:
        potential = parser.get("potential", "kind", fallback=Potential().kind)
        if potential not in POTENTIAL_KEYS:
            raise ParseError(f"[potential] kind = {potential!r}; expected one of "
                             f"{tuple(POTENTIAL_KEYS)}")

    row = reads(kind, mode, potential)
    run = f"kind {kind!r}" if mode is None else f"kind {kind!r} in mode {mode!r}"
    for section in parser.sections():
        if section not in row:
            raise ParseError(
                f"[{section}] does not apply to {run}; expected one of {sorted(row)}"
            )
        for key in parser.options(section):
            if key not in row[section]:
                whose = f"potential kind {potential!r}" if section == "potential" else run
                raise ParseError(
                    f"[{section}] {key} does not apply to {whose}; "
                    f"expected one of {sorted(row[section])}"
                )

    checks = []
    for key in parser.options("check") if parser.has_section("check") else ():
        value = _parse(parser, "check", key)
        if not math.isfinite(value):
            raise ValidationError(f"[check] {key} must be finite, got {value}")
        if key in _SCENARIO_CHECKS and not 0.0 <= value <= 1.0:
            raise ValidationError(f"[check] {key} must be in [0, 1], got {value}")
        checks.append((key, value))
    checks = tuple(checks)

    if kind == "leggett_garg":
        collapse = None
        if parser.has_section("collapse"):
            collapse = replace(ScenarioConfig().collapse, **_fields(parser, "collapse"))
        fields = _fields(parser, "lg")
        omega = fields.setdefault("omega", 1.0)
        # readouts pi / (3 omega) apart; omega = 0 is left for LgConfig to reject
        spacing = math.pi / (3.0 * omega) if omega else 0.0
        readouts = dict(t1=spacing, t2=2.0 * spacing, t3=3.0 * spacing)
        lg = LgConfig(**{**readouts, **fields}, collapse=collapse)
        return LoadedConfig(kind=kind, lg=lg, checks=checks)

    defaults = ScenarioConfig() if kind == "cat" else chain_defaults()
    collapse = replace(defaults.collapse, **_fields(parser, "collapse"))
    grid = replace(defaults.grid, **_fields(parser, "grid"))
    prop = replace(defaults.prop, **_fields(parser, "propagator"))
    potential = None
    if parser.has_section("potential"):
        potential = replace(Potential(), **_fields(parser, "potential"))
    scenario = replace(
        defaults,
        grid=grid,
        collapse=collapse,
        prop=prop,
        potential=potential,
        **_fields(parser, "scenario", "state", "run"),
    )
    # the ensemble computes a chi-square only against two possible outcomes
    if "min_p_value" in dict(checks) and not 0.0 < scenario.weight_1 < 1.0:
        raise ValidationError(
            f"[check] min_p_value does not apply to a definite state "
            f"(weight_1 = {scenario.weight_1!r}): it has one possible outcome, "
            "so there is no p-value"
        )
    return LoadedConfig(kind=kind, scenario=scenario, checks=checks)


def chain_defaults() -> ScenarioConfig:
    """Baseline measurement-chain setup: far-displaced pointer in the
    matched double well (the potential is omitted)."""
    return ScenarioConfig(
        name="measurement_chain",
        kind="measurement_chain",
        mode="grw",
        weight_1=0.5,
        packet_width=0.25,
        separation=10.0,
        grid=GridSpec(-10.0, 10.0, 512),
        collapse=GrwParams(tau=1.0, width=0.2, n_eff=1.0),
        prop=PropagatorConfig(1.0 / 32.0, 8),
        horizon=6.0,
    )


def render_resolved(loaded: LoadedConfig) -> str:
    """Deterministic text of the fully resolved configuration.

    Sections and keys come in :func:`reads` order for the kind, mode and
    potential kind, a ``str`` value raw and any other by ``repr``; a key
    whose value is None is left out, and so is a section with no key
    left.  ``[check]`` keeps the file's order.
    """
    # the objects whose attributes hold a section's keys; every other
    # section's keys are attributes of ``own``
    if loaded.kind == "leggett_garg":
        row = reads(loaded.kind, None, None)
        own, parts = loaded, {"lg": loaded.lg, "collapse": loaded.lg.collapse}
    else:
        own = cfg = loaded.scenario
        row = reads(loaded.kind, cfg.mode, cfg.potential and cfg.potential.kind)
        parts = {"grid": cfg.grid, "collapse": cfg.collapse,
                 "potential": cfg.potential, "propagator": cfg.prop}
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in row.items():
        if section == "check":  # the gates keep the file's order
            values = loaded.checks
        else:
            source = parts.get(section, own)
            values = [(key, getattr(source, key, None)) for key in keys]
        echo = {key: value if isinstance(value, str) else repr(value)
                for key, value in values if value is not None}
        if echo:
            parser[section] = echo
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def config_digest(loaded: LoadedConfig) -> str:
    """sha256 of the resolved config text (run provenance)."""
    return hashlib.sha256(render_resolved(loaded).encode("utf-8")).hexdigest()
