"""Versioned JSON scenario files.

Schema v1, strict: unknown keys are rejected with a location-bearing
error so typos never silently change a run. Parsing and serialization
round-trip exactly.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Any, Optional, Union

from .geometry import Point2
from .planner import AgentConfig, PlannerOptions, Scenario
from .pursuit import PursuerThreat
from .turret import TurretThreat

SCHEMA_VERSION = 1

_AGENT_KEYS = {"start", "goal", "speed"}
# Each threat kind: its class and its (json key, field name) pairs in file
# order. A key is optional when its field has a default.
_THREAT_KINDS = {
    "pursuer": (PursuerThreat, (("position", "position"), ("mu", "mu"), ("range", "engagement_range"),
                                ("capture_radius", "capture_radius"))),
    "turret": (TurretThreat, (("position", "position"), ("mu", "mu"), ("range", "engagement_range"),
                              ("look_angle", "look_angle"))),
}
_KIND_OF = {cls: kind for kind, (cls, _) in _THREAT_KINDS.items()}
_PLANNER_KEYS = {
    "n_nodes",
    "constraint_tolerance",
    "opt_tolerance",
    "max_iterations",
    "initialization",
}
_OUTPUT_KEYS = {"dir", "formats"}
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

    agent_raw = _require(data, "agent", "$")
    _reject_unknown(agent_raw, _AGENT_KEYS, "$.agent")
    agent = _build(
        AgentConfig,
        "$.agent",
        start=_point(_require(agent_raw, "start", "$.agent"), "$.agent.start"),
        goal=_point(_require(agent_raw, "goal", "$.agent"), "$.agent.goal"),
        speed=_number(_require(agent_raw, "speed", "$.agent"), "$.agent.speed"),
    )

    threats_raw = data.get("threats", [])
    if not isinstance(threats_raw, list):
        raise ScenarioError("$.threats", "must be an array")
    threats = [_threat(raw, f"$.threats[{i}]") for i, raw in enumerate(threats_raw)]
    options = _planner_options(data.get("planner", {}), threats)

    output_raw = data.get("output", {})
    _reject_unknown(output_raw, _OUTPUT_KEYS, "$.output")
    directory = output_raw.get("dir")
    if directory is not None and not isinstance(directory, str):
        raise ScenarioError("$.output.dir", f"expected a string or null, got {directory!r}")
    formats = output_raw.get("formats", list(_FORMATS))
    if not (isinstance(formats, list) and all(fmt in _FORMATS for fmt in formats)):
        raise ScenarioError("$.output.formats", f'expected an array of "csv"/"json", got {formats!r}')

    return ScenarioDocument(
        scenario=Scenario(agent=agent, threats=tuple(threats), options=options),
        output=OutputConfig(directory=directory, formats=tuple(formats)),
    )


def scenario_to_dict(doc: ScenarioDocument) -> dict:
    scen = doc.scenario
    return {
        "schema_version": SCHEMA_VERSION,
        "agent": {
            "start": [scen.agent.start.x, scen.agent.start.y],
            "goal": [scen.agent.goal.x, scen.agent.goal.y],
            "speed": scen.agent.speed,
        },
        "threats": [_threat_to_dict(t) for t in scen.threats],
        "planner": {
            "n_nodes": scen.options.n_nodes,
            "constraint_tolerance": scen.options.constraint_tolerance,
            "opt_tolerance": scen.options.opt_tolerance,
            "max_iterations": scen.options.max_iterations,
            "initialization": scen.options.initialization,
        },
        "output": {
            "dir": doc.output.directory,
            "formats": list(doc.output.formats),
        },
    }


def _threat(raw: Any, location: str):
    if not isinstance(raw, dict):
        raise ScenarioError(location, "threat must be an object")
    kind = _require(raw, "kind", location)
    if not (isinstance(kind, str) and kind in _THREAT_KINDS):
        raise ScenarioError(f"{location}.kind", f"unknown threat kind {kind!r}")
    cls, keys = _THREAT_KINDS[kind]
    _reject_unknown(raw, {"kind"} | {key for key, _ in keys}, location)
    optional = {f.name for f in fields(cls) if f.default is not MISSING}
    values = {}
    for key, name in keys:
        if key in raw or name not in optional:
            parse = _point if key == "position" else _number
            values[name] = parse(_require(raw, key, location), f"{location}.{key}")
    return _build(cls, location, **values)


def _threat_to_dict(threat) -> dict:
    kind = _KIND_OF[type(threat)]
    out = {"kind": kind}
    for key, name in _THREAT_KINDS[kind][1]:
        value = getattr(threat, name)
        out[key] = [value.x, value.y] if key == "position" else value
    return out


def _planner_options(raw: Any, threats: list) -> PlannerOptions:
    _reject_unknown(raw, _PLANNER_KEYS, "$.planner")
    values = {}
    for key, value in raw.items():
        loc = f"$.planner.{key}"
        if key in ("n_nodes", "max_iterations"):
            values[key] = _integer(value, loc)
        elif key == "initialization":
            if value == "custom":
                raise ScenarioError(loc, "custom initialization needs a trajectory; use the library")
            if value == "circumnav_reach" and not any(isinstance(t, PursuerThreat) for t in threats):
                raise ScenarioError(loc, "circumnav_reach initialization needs a pursuer threat")
            if value not in ("straight_line", "circumnav_reach"):
                raise ScenarioError(loc, f"unknown initialization {value!r}")
            values[key] = value
        else:
            values[key] = _number(value, loc)
    return _build(PlannerOptions, "$.planner", **values)


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
