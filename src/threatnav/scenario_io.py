"""Versioned JSON scenario files.

Schema v1, strict: unknown keys are rejected with a location-bearing
error so typos never silently change a run. Parsing and serialization
round-trip exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

from .geometry import Point2
from .planner import AgentConfig, PlannerOptions, Scenario
from .pursuit import PursuerThreat
from .turret import TurretThreat

SCHEMA_VERSION = 1

_AGENT_KEYS = {"start", "goal", "speed"}
_PURSUER_KEYS = {"kind", "position", "mu", "range", "capture_radius"}
_TURRET_KEYS = {"kind", "position", "mu", "range", "look_angle"}
_PLANNER_KEYS = {
    "n_nodes",
    "constraint_tolerance",
    "opt_tolerance",
    "max_iterations",
    "initialization",
}
_OUTPUT_KEYS = {"dir", "formats"}
_TOP_KEYS = {"schema_version", "agent", "threats", "planner", "output"}


class ScenarioError(ValueError):
    """Scenario file problem, carrying the offending location."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


@dataclass(frozen=True)
class OutputConfig:
    directory: Optional[str] = None
    formats: tuple[str, ...] = ("csv", "json")


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
    agent = AgentConfig(
        start=_point(_require(agent_raw, "start", "$.agent"), "$.agent.start"),
        goal=_point(_require(agent_raw, "goal", "$.agent"), "$.agent.goal"),
        speed=_number(_require(agent_raw, "speed", "$.agent"), "$.agent.speed"),
    )

    threats_raw = data.get("threats", [])
    if not isinstance(threats_raw, list):
        raise ScenarioError("$.threats", "must be an array")
    threats = []
    for i, raw in enumerate(threats_raw):
        loc = f"$.threats[{i}]"
        if not isinstance(raw, dict):
            raise ScenarioError(loc, "threat must be an object")
        kind = _require(raw, "kind", loc)
        if kind == "pursuer":
            _reject_unknown(raw, _PURSUER_KEYS, loc)
            threats.append(
                PursuerThreat(
                    position=_point(_require(raw, "position", loc), f"{loc}.position"),
                    mu=_number(_require(raw, "mu", loc), f"{loc}.mu"),
                    engagement_range=_number(_require(raw, "range", loc), f"{loc}.range"),
                    capture_radius=_number(raw.get("capture_radius", 0.0), f"{loc}.capture_radius"),
                )
            )
        elif kind == "turret":
            _reject_unknown(raw, _TURRET_KEYS, loc)
            threats.append(
                TurretThreat(
                    position=_point(_require(raw, "position", loc), f"{loc}.position"),
                    look_angle=_number(_require(raw, "look_angle", loc), f"{loc}.look_angle"),
                    mu=_number(_require(raw, "mu", loc), f"{loc}.mu"),
                    engagement_range=_number(_require(raw, "range", loc), f"{loc}.range"),
                )
            )
        else:
            raise ScenarioError(f"{loc}.kind", f"unknown threat kind {kind!r}")

    options = _planner_options(data.get("planner", {}), threats)

    output_raw = data.get("output", {})
    _reject_unknown(output_raw, _OUTPUT_KEYS, "$.output")
    formats = tuple(output_raw.get("formats", ("csv", "json")))
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise ScenarioError("$.output.formats", f"unknown format {fmt!r}")
    output = OutputConfig(directory=output_raw.get("dir"), formats=formats)

    return ScenarioDocument(
        scenario=Scenario(agent=agent, threats=tuple(threats), options=options),
        output=output,
    )


def scenario_to_dict(doc: ScenarioDocument) -> dict:
    scen = doc.scenario
    threats = []
    for t in scen.threats:
        if isinstance(t, PursuerThreat):
            threats.append(
                {
                    "kind": "pursuer",
                    "position": [t.position.x, t.position.y],
                    "mu": t.mu,
                    "range": t.engagement_range,
                    "capture_radius": t.capture_radius,
                }
            )
        else:
            threats.append(
                {
                    "kind": "turret",
                    "position": [t.position.x, t.position.y],
                    "mu": t.mu,
                    "range": t.engagement_range,
                    "look_angle": t.look_angle,
                }
            )
    return {
        "schema_version": SCHEMA_VERSION,
        "agent": {
            "start": [scen.agent.start.x, scen.agent.start.y],
            "goal": [scen.agent.goal.x, scen.agent.goal.y],
            "speed": scen.agent.speed,
        },
        "threats": threats,
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


def _planner_options(raw: Any, threats: list) -> PlannerOptions:
    _reject_unknown(raw, _PLANNER_KEYS, "$.planner")
    fields = {}
    for key, value in raw.items():
        loc = f"$.planner.{key}"
        if key in ("n_nodes", "max_iterations"):
            fields[key] = _integer(value, loc)
        elif key == "initialization":
            if value == "custom":
                raise ScenarioError(loc, "custom initialization needs a trajectory; use the library")
            if value == "circumnav_reach" and not any(isinstance(t, PursuerThreat) for t in threats):
                raise ScenarioError(loc, "circumnav_reach initialization needs a pursuer threat")
            if value not in ("straight_line", "circumnav_reach"):
                raise ScenarioError(loc, f"unknown initialization {value!r}")
            fields[key] = value
        else:
            fields[key] = _number(value, loc)
    try:
        return PlannerOptions(**fields)
    except ValueError as exc:
        raise ScenarioError("$.planner", str(exc)) from exc


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
    return float(value)


def _integer(value: Any, location: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(location, f"expected an integer, got {value!r}")
    return value


def _point(value: Any, location: str) -> Point2:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ScenarioError(location, f"expected [x, y], got {value!r}")
    return Point2(_number(value[0], location), _number(value[1], location))
