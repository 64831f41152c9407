"""Config-file loading: flat sectioned ``key = value`` text.

Every run is described by an INI-style file.  Unknown sections or keys
raise :class:`ParseError` (catching typos beats silently ignoring them);
invariant violations raise :class:`ValidationError` from the dataclass
constructors, naming the violated rule.  Defaults are filled in and the
fully resolved config is echoed into each run's output directory.
"""
from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass

from .collapse import GrwParams
from .errors import ParseError, ValidationError
from .propagator import Potential, PropagatorConfig
from .qstate import GridSpec, Region
from .scenarios import LgConfig, ScenarioConfig

_SCENARIO_CHECKS = ("min_p_value", "max_undecided_fraction")
_LG_CHECKS = ("k_min", "k_max")

#: ``[check]`` keys that apply to each run kind; the keys are the run kinds
CHECK_KEYS = {
    "cat": _SCENARIO_CHECKS,
    "measurement_chain": _SCENARIO_CHECKS,
    "leggett_garg": _LG_CHECKS,
}
RUN_KINDS = tuple(CHECK_KEYS)

_SCHEMA = {
    "scenario": ("kind", "name", "mode"),
    "grid": ("x_min", "x_max", "n_points"),
    "state": ("weight_1", "packet_width", "separation"),
    "collapse": ("tau", "width", "n_eff"),
    "potential": ("kind", "omega", "barrier_height", "well_separation", "values"),
    "propagator": ("method", "dt", "steps_per_event_check"),
    "run": ("horizon", "coupling_time", "measurement_time"),
    "regions": ("region_1", "region_2"),
    "lg": ("omega", "t1", "t2", "t3"),
    "check": _SCENARIO_CHECKS + _LG_CHECKS,
}


@dataclass(frozen=True)
class LoadedConfig:
    """Typed result of :func:`load_config` plus optional check gates."""

    kind: str
    scenario: ScenarioConfig | None = None
    lg: LgConfig | None = None
    checks: tuple[tuple[str, float], ...] = ()

    def check_gates(self) -> dict:
        return dict(self.checks)


def _read(parser: configparser.ConfigParser, section: str, key: str, cast, default):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _parse_region(raw: str) -> Region:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise ValueError("expected 'lo, hi'")
    return Region(float(parts[0]), float(parts[1]))


def _parse_values(raw: str) -> tuple[float, ...]:
    return tuple(float(p) for p in raw.replace(",", " ").split())


def load_config(path) -> LoadedConfig:
    """Parse and validate a run description file."""
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

    kind = _read(parser, "scenario", "kind", str, "cat")
    if kind not in RUN_KINDS:
        raise ParseError(f"[scenario] kind = {kind!r}; expected one of {RUN_KINDS}")

    checks = []
    if parser.has_section("check"):
        for key in parser.options("check"):
            if key not in CHECK_KEYS[kind]:
                raise ParseError(
                    f"[check] {key} does not apply to kind {kind!r}; "
                    f"expected one of {sorted(CHECK_KEYS[kind])}"
                )
            checks.append((key, _read(parser, "check", key, float, None)))
    checks = tuple(checks)

    def _collapse_block(default: GrwParams) -> GrwParams:
        return GrwParams(
            tau=_read(parser, "collapse", "tau", float, default.tau),
            width=_read(parser, "collapse", "width", float, default.width),
            n_eff=_read(parser, "collapse", "n_eff", float, default.n_eff),
        )

    if kind == "leggett_garg":
        collapse = None
        if parser.has_section("collapse"):
            collapse = _collapse_block(GrwParams(tau=0.75, width=0.3, n_eff=6.0))
        omega = _read(parser, "lg", "omega", float, 1.0)
        spacing = math.pi / (3.0 * omega)
        lg = LgConfig(
            omega=omega,
            t1=_read(parser, "lg", "t1", float, spacing),
            t2=_read(parser, "lg", "t2", float, 2.0 * spacing),
            t3=_read(parser, "lg", "t3", float, 3.0 * spacing),
            collapse=collapse,
        )
        return LoadedConfig(kind=kind, lg=lg, checks=checks)

    defaults = ScenarioConfig() if kind == "cat" else chain_defaults()
    collapse = _collapse_block(defaults.collapse)
    grid = GridSpec(
        x_min=_read(parser, "grid", "x_min", float, defaults.grid.x_min),
        x_max=_read(parser, "grid", "x_max", float, defaults.grid.x_max),
        n_points=_read(parser, "grid", "n_points", int, defaults.grid.n_points),
    )
    prop = PropagatorConfig(
        method=_read(parser, "propagator", "method", str, defaults.prop.method),
        dt=_read(parser, "propagator", "dt", float, defaults.prop.dt),
        steps_per_event_check=_read(
            parser, "propagator", "steps_per_event_check", int,
            defaults.prop.steps_per_event_check,
        ),
    )
    potential = None
    if parser.has_section("potential"):
        potential = Potential(
            kind=_read(parser, "potential", "kind", str, "free"),
            omega=_read(parser, "potential", "omega", float, 0.0),
            barrier_height=_read(parser, "potential", "barrier_height", float, 0.0),
            well_separation=_read(
                parser, "potential", "well_separation", float, 0.0
            ),
            values=_read(parser, "potential", "values", _parse_values, None),
        )
    region_1 = _read(parser, "regions", "region_1", _parse_region, None)
    region_2 = _read(parser, "regions", "region_2", _parse_region, None)
    scenario = ScenarioConfig(
        name=_read(parser, "scenario", "name", str, kind),
        kind=kind,
        mode=_read(parser, "scenario", "mode", str, "grw"),
        weight_1=_read(parser, "state", "weight_1", float, defaults.weight_1),
        packet_width=_read(
            parser, "state", "packet_width", float, defaults.packet_width
        ),
        separation=_read(parser, "state", "separation", float, defaults.separation),
        grid=grid,
        collapse=collapse,
        prop=prop,
        potential=potential,
        horizon=_read(parser, "run", "horizon", float, defaults.horizon),
        coupling_time=_read(
            parser, "run", "coupling_time", float, defaults.coupling_time
        ),
        measurement_time=_read(
            parser, "run", "measurement_time", float, defaults.measurement_time
        ),
        region_1=region_1,
        region_2=region_2,
    )
    return LoadedConfig(kind=kind, scenario=scenario, checks=checks)


def chain_defaults() -> ScenarioConfig:
    """Baseline measurement-chain setup: far-displaced pointer, free well."""
    return ScenarioConfig(
        name="measurement_chain",
        kind="measurement_chain",
        mode="grw",
        weight_1=0.5,
        packet_width=0.25,
        separation=10.0,
        grid=GridSpec(-10.0, 10.0, 512),
        collapse=GrwParams(tau=1.0, width=0.2, n_eff=1.0),
        prop=PropagatorConfig("spectral", 1.0 / 32.0, 8),
        horizon=6.0,
    )


def render_resolved(loaded: LoadedConfig) -> str:
    """Deterministic text of the fully resolved configuration."""
    parser = configparser.ConfigParser(interpolation=None)
    parser["scenario"] = {"kind": loaded.kind}
    if loaded.kind == "leggett_garg":
        lg = loaded.lg
        parser["lg"] = {
            "omega": repr(lg.omega),
            "t1": repr(lg.t1),
            "t2": repr(lg.t2),
            "t3": repr(lg.t3),
        }
        if lg.collapse is not None:
            parser["collapse"] = {
                "tau": repr(lg.collapse.tau),
                "width": repr(lg.collapse.width),
                "n_eff": repr(lg.collapse.n_eff),
            }
    else:
        cfg = loaded.scenario
        parser["scenario"]["name"] = cfg.name
        parser["scenario"]["mode"] = cfg.mode
        parser["grid"] = {
            "x_min": repr(cfg.grid.x_min),
            "x_max": repr(cfg.grid.x_max),
            "n_points": repr(cfg.grid.n_points),
        }
        parser["state"] = {
            "weight_1": repr(cfg.weight_1),
            "packet_width": repr(cfg.packet_width),
            "separation": repr(cfg.separation),
        }
        parser["collapse"] = {
            "tau": repr(cfg.collapse.tau),
            "width": repr(cfg.collapse.width),
            "n_eff": repr(cfg.collapse.n_eff),
        }
        if cfg.potential is not None:
            pot = {
                "kind": cfg.potential.kind,
                "omega": repr(cfg.potential.omega),
                "barrier_height": repr(cfg.potential.barrier_height),
                "well_separation": repr(cfg.potential.well_separation),
            }
            if cfg.potential.values is not None:
                pot["values"] = ", ".join(repr(v) for v in cfg.potential.values)
            parser["potential"] = pot
        parser["propagator"] = {
            "method": cfg.prop.method,
            "dt": repr(cfg.prop.dt),
            "steps_per_event_check": repr(cfg.prop.steps_per_event_check),
        }
        parser["run"] = {
            "horizon": repr(cfg.horizon),
            "coupling_time": repr(cfg.coupling_time),
            "measurement_time": repr(cfg.measurement_time),
        }
        regions = {}
        if cfg.region_1 is not None:
            regions["region_1"] = f"{cfg.region_1.lo!r}, {cfg.region_1.hi!r}"
        if cfg.region_2 is not None:
            regions["region_2"] = f"{cfg.region_2.lo!r}, {cfg.region_2.hi!r}"
        if regions:
            parser["regions"] = regions
    if loaded.checks:
        parser["check"] = {k: repr(v) for k, v in loaded.checks}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def config_digest(loaded: LoadedConfig) -> str:
    """sha256 of the resolved config text (run provenance)."""
    return hashlib.sha256(render_resolved(loaded).encode("utf-8")).hexdigest()
