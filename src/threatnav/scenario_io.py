"""Versioned JSON scenario files.

Schema v1, strict: unknown keys are rejected with a location-bearing
error so typos never silently change a run. Parsing and serialization
round-trip exactly.

One table entry describes each section (agent, planner, output and each
threat kind): its class and its (json key, field name, parser) triples in
file order; a key is optional when its field has a default. ``_section``
reads any section by its entry and ``_section_dict`` writes it.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Any, Optional, Union

from .geometry import Point2
from .planner import AgentConfig, PlannerOptions, Scenario, _reach_threat
from .pursuit import PursuerThreat
from .turret import TurretThreat

SCHEMA_VERSION = 1

_FORMATS = ("csv", "json")
_TOP_KEYS = {"schema_version", "agent", "threats", "planner", "output"}


class ScenarioError(ValueError):
    """Scenario file problem, carrying the offending location."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


@dataclass(frozen=True)
class OutputConfig:
    directory: Optional[str] = None
    formats: tuple[str, ...] = _FORMATS


@dataclass(frozen=True)
class ScenarioDocument:
    scenario: Scenario
    output: OutputConfig = OutputConfig()


def load_scenario(path: Union[str, Path]) -> ScenarioDocument:
    """Parse a scenario file; JSON syntax errors propagate with line/column."""
    text = Path(path).read_text()
    data = json.loads(text)
    return scenario_from_dict(data)


def save_scenario(doc: ScenarioDocument, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(doc), indent=2) + "\n")


def scenario_from_dict(data: Any) -> ScenarioDocument:
    if not isinstance(data, dict):
        raise ScenarioError("$", "top level must be an object")
    _reject_unknown(data, _TOP_KEYS, "$")
    version = _require(data, "schema_version", "$")
    if version != SCHEMA_VERSION:
        raise ScenarioError("$.schema_version", f"unsupported schema version {version!r}")

    agent = _section(_AGENT, _require(data, "agent", "$"), "$.agent")
    threats_raw = data.get("threats", [])
    if not isinstance(threats_raw, list):
        raise ScenarioError("$.threats", "must be an array")
    threats = tuple(_threat(raw, f"$.threats[{i}]") for i, raw in enumerate(threats_raw))
    options = _section(_PLANNER, data.get("planner", {}), "$.planner")
    if options.initialization == "circumnav_reach":
        try:
            _reach_threat(threats)  # the rule and message of initialize
        except ValueError as exc:
            raise ScenarioError("$.planner.initialization", str(exc)) from exc
    output = _section(_OUTPUT, data.get("output", {}), "$.output")
    return ScenarioDocument(scenario=Scenario(agent=agent, threats=threats, options=options), output=output)


def scenario_to_dict(doc: ScenarioDocument) -> dict:
    scen = doc.scenario
    return {
        "schema_version": SCHEMA_VERSION,
        "agent": _section_dict(_AGENT, scen.agent),
        "threats": [_threat_to_dict(t) for t in scen.threats],
        "planner": _section_dict(_PLANNER, scen.options),
        "output": _section_dict(_OUTPUT, doc.output),
    }


def _threat(raw: Any, location: str):
    if not isinstance(raw, dict):
        raise ScenarioError(location, "threat must be an object")
    kind = _require(raw, "kind", location)
    if not (isinstance(kind, str) and kind in _THREAT_KINDS):
        raise ScenarioError(f"{location}.kind", f"unknown threat kind {kind!r}")
    return _section(_THREAT_KINDS[kind], {k: v for k, v in raw.items() if k != "kind"}, location)


def _threat_to_dict(threat) -> dict:
    kind = _KIND_OF[type(threat)]
    return {"kind": kind, **_section_dict(_THREAT_KINDS[kind], threat)}


def _section(spec, raw: Any, location: str):
    """Parse one section by its table entry, calling ``parse(value, location)`` per key."""
    cls, keys = spec
    _reject_unknown(raw, {key for key, _, _ in keys}, location)
    optional = {f.name for f in fields(cls) if f.default is not MISSING}
    values = {}
    for key, name, parse in keys:
        if key in raw or name not in optional:
            values[name] = parse(_require(raw, key, location), f"{location}.{key}")
    return _build(cls, location, **values)


def _section_dict(spec, obj) -> dict:
    """The file form of ``obj``, every key of its table entry in order."""
    return {key: _unparse(getattr(obj, name)) for key, name, _ in spec[1]}


def _unparse(value: Any) -> Any:
    """The JSON form of a parsed field value: a point as [x, y], a tuple as an array."""
    if isinstance(value, Point2):
        return [value.x, value.y]
    return list(value) if isinstance(value, tuple) else value


def _build(cls, location: str, **values):
    """Construct ``cls``, reporting a rejected value as a ScenarioError at ``location``."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioError(location, str(exc)) from exc


def _reject_unknown(raw: Any, allowed: set, location: str) -> None:
    if not isinstance(raw, dict):
        raise ScenarioError(location, "must be an object")
    for key in raw:
        if key not in allowed:
            raise ScenarioError(f"{location}.{key}", "unknown key")


def _require(raw: dict, key: str, location: str) -> Any:
    if key not in raw:
        raise ScenarioError(f"{location}.{key}", "missing required key")
    return raw[key]


def _number(value: Any, location: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(location, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ScenarioError(location, str(exc)) from exc


def _integer(value: Any, location: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(location, f"expected an integer, got {value!r}")
    return value


def _point(value: Any, location: str) -> Point2:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ScenarioError(location, f"expected [x, y], got {value!r}")
    return _build(Point2, location, x=_number(value[0], location), y=_number(value[1], location))


def _directory(value: Any, location: str) -> Optional[str]:
    if value is not None and not isinstance(value, str):
        raise ScenarioError(location, f"expected a string or null, got {value!r}")
    return value


def _formats(value: Any, location: str) -> tuple[str, ...]:
    if not (isinstance(value, list) and all(fmt in _FORMATS for fmt in value)):
        raise ScenarioError(location, f'expected an array of "csv"/"json", got {value!r}')
    return tuple(value)


def _initialization(value: Any, location: str) -> str:
    if value == "custom":
        raise ScenarioError(location, "custom initialization needs a trajectory; use the library")
    if value not in ("straight_line", "circumnav_reach"):
        raise ScenarioError(location, f"unknown initialization {value!r}")
    return value


_AGENT = (AgentConfig, (("start", "start", _point), ("goal", "goal", _point), ("speed", "speed", _number)))
_PLANNER = (
    PlannerOptions,
    (
        ("n_nodes", "n_nodes", _integer),
        ("constraint_tolerance", "constraint_tolerance", _number),
        ("opt_tolerance", "opt_tolerance", _number),
        ("max_iterations", "max_iterations", _integer),
        ("initialization", "initialization", _initialization),
    ),
)
_OUTPUT = (OutputConfig, (("dir", "directory", _directory), ("formats", "formats", _formats)))
_ZONE = (("position", "position", _point), ("mu", "mu", _number), ("range", "engagement_range", _number))
_THREAT_KINDS = {
    "pursuer": (PursuerThreat, _ZONE + (("capture_radius", "capture_radius", _number),)),
    "turret": (TurretThreat, _ZONE + (("look_angle", "look_angle", _number),)),
}
_KIND_OF = {cls: kind for kind, (cls, _) in _THREAT_KINDS.items()}
