import copy
import json
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from threatnav import scenario_io
from threatnav.geometry import Point2
from threatnav.planner import AgentConfig, PlannerOptions, Scenario
from threatnav.pursuit import PursuerThreat
from threatnav.scenario_io import (
    OutputConfig,
    ScenarioDocument,
    ScenarioError,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from threatnav.turret import TurretThreat

GOLDEN = Path(__file__).resolve().parent.parent / "scenarios" / "golden.json"


def sample_doc():
    scen = Scenario(
        agent=AgentConfig(Point2(-3, 0), Point2(3, 0), speed=0.9),
        threats=(
            PursuerThreat(Point2(0, 0), mu=0.9, engagement_range=0.95, capture_radius=0.2),
            TurretThreat(Point2(1, 1), look_angle=0.5, mu=0.4, engagement_range=0.8),
        ),
        options=PlannerOptions(n_nodes=40),
    )
    return ScenarioDocument(scenario=scen, output=OutputConfig(directory="out"))


def test_round_trip_exact():
    doc = sample_doc()
    data = scenario_to_dict(doc)
    again = scenario_from_dict(data)
    assert scenario_to_dict(again) == data
    assert again.scenario == doc.scenario
    assert again.output == doc.output


def test_file_round_trip(tmp_path):
    doc = sample_doc()
    path = tmp_path / "scen.json"
    save_scenario(doc, path)
    loaded = load_scenario(path)
    assert loaded.scenario == doc.scenario


def test_unknown_top_level_key_rejected():
    data = scenario_to_dict(sample_doc())
    data["surprise"] = 1
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert "$.surprise" in str(err.value)


def test_unknown_threat_key_location():
    data = scenario_to_dict(sample_doc())
    data["threats"][1]["oops"] = 2
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert "$.threats[1].oops" in str(err.value)


def test_missing_required_key():
    data = scenario_to_dict(sample_doc())
    del data["agent"]["speed"]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert "$.agent.speed" in str(err.value)


def test_bad_schema_version():
    data = scenario_to_dict(sample_doc())
    data["schema_version"] = 2
    with pytest.raises(ScenarioError):
        scenario_from_dict(data)


def test_bad_threat_kind():
    data = scenario_to_dict(sample_doc())
    data["threats"][0]["kind"] = "kraken"
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert "kind" in str(err.value)


def test_bad_number_type():
    data = scenario_to_dict(sample_doc())
    data["agent"]["speed"] = "fast"
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert "$.agent.speed" in str(err.value)


def test_json_error_carries_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "schema_version": 1,\n  "agent": {,}\n}\n')
    with pytest.raises(json.JSONDecodeError) as err:
        load_scenario(path)
    assert err.value.lineno == 3


def test_golden_scenario_file_parses():
    doc = load_scenario("scenarios/golden.json")
    threat = doc.scenario.threats[0]
    assert isinstance(threat, PursuerThreat)
    assert threat.mu == 0.9
    assert doc.scenario.agent.speed == 0.9


@pytest.mark.parametrize("name", ["golden", "turret", "mixed"])
def test_golden_file_round_trips(name):
    path = GOLDEN.with_name(f"{name}.json")
    assert scenario_to_dict(load_scenario(path)) == json.loads(path.read_text())


def test_threats_must_be_an_array():
    data = scenario_to_dict(sample_doc())
    data["threats"] = {"a": 1}
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert str(err.value) == "$.threats: must be an array"


@pytest.mark.parametrize(
    "key, value",
    [
        ("constraint_tolerance", True),
        ("opt_tolerance", "tight"),
        ("n_nodes", 50.5),
        ("n_nodes", True),
        ("max_iterations", 100.0),
        ("initialization", 3),
        ("initialization", "zigzag"),
    ],
)
def test_planner_field_types_located(key, value):
    data = scenario_to_dict(sample_doc())
    data["planner"][key] = value
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert err.value.location == f"$.planner.{key}"


def test_custom_initialization_rejected_in_files():
    data = scenario_to_dict(sample_doc())
    data["planner"]["initialization"] = "custom"
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert err.value.location == "$.planner.initialization"


def test_circumnav_reach_needs_a_pursuer():
    data = scenario_to_dict(sample_doc())
    data["planner"]["initialization"] = "circumnav_reach"
    assert scenario_from_dict(data).scenario.options.initialization == "circumnav_reach"
    data["threats"] = [t for t in data["threats"] if t["kind"] != "pursuer"]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert err.value.location == "$.planner.initialization"


def test_planner_domain_error_located():
    data = scenario_to_dict(sample_doc())
    data["planner"]["n_nodes"] = 2
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert err.value.location == "$.planner"


def test_threat_kind_must_be_a_known_string():
    data = scenario_to_dict(sample_doc())
    data["threats"][0]["kind"] = ["pursuer"]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert err.value.location == "$.threats[0].kind"


@pytest.mark.parametrize(
    "key, value",
    [("dir", 5), ("formats", None), ("formats", "csv"), ("formats", {"csv": 1}), ("formats", ["xml"])],
)
def test_output_field_types_located(key, value):
    data = scenario_to_dict(sample_doc())
    data["output"][key] = value
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert err.value.location == f"$.output.{key}"


_TABLE = {
    "agent": scenario_io._AGENT,
    "planner": scenario_io._PLANNER,
    "output": scenario_io._OUTPUT,
    **scenario_io._THREAT_KINDS,
}


@pytest.mark.parametrize("section", sorted(_TABLE))
def test_table_names_every_field_a_file_carries(section):
    """Adding a field to a section's class without a key in its table entry fails here."""
    cls, keys = _TABLE[section]
    names = [name for _, name, _ in keys]
    assert len({key for key, _, _ in keys}) == len(names) == len(set(names))
    assert set(names) == {f.name for f in fields(cls)} - {"custom_trajectory"}


def test_round_trip_every_key_off_default():
    data = {
        "schema_version": 1,
        "agent": {"start": [-2.5, 0.25], "goal": [3.0, -0.5], "speed": 0.75},
        "threats": [
            {"kind": "pursuer", "position": [0.0, 0.5], "mu": 0.8, "range": 1.1, "capture_radius": 0.15},
            {"kind": "turret", "position": [1.5, 1.0], "mu": 0.4, "range": 0.9, "look_angle": -0.3},
            {"kind": "pursuer", "position": [-1.0, -2.0], "mu": 1.2, "range": 0.5},
        ],
        "planner": {
            "n_nodes": 37,
            "constraint_tolerance": 2e-5,
            "opt_tolerance": 3e-9,
            "max_iterations": 123,
            "initialization": "circumnav_reach",
        },
        "output": {"dir": "runs/one", "formats": ["json"]},
    }
    doc = scenario_from_dict(data)
    defaults = PlannerOptions()
    assert all(
        getattr(doc.scenario.options, f.name) != getattr(defaults, f.name)
        for f in fields(PlannerOptions)
        if f.name != "custom_trajectory"
    )
    assert doc.output == OutputConfig(directory="runs/one", formats=("json",))
    assert doc.scenario.threats[2].capture_radius == 0.0
    expected = copy.deepcopy(data)
    expected["threats"][2]["capture_radius"] = 0.0  # written back at its default
    assert scenario_to_dict(doc) == expected
    assert scenario_from_dict(expected) == doc


def test_planner_keys_checked_in_table_order():
    """Two bad planner keys in reverse schema order: the first in the table is named."""
    data = scenario_to_dict(sample_doc())
    data["planner"] = {"max_iterations": 1.5, "n_nodes": "many"}
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert str(err.value) == "$.planner.n_nodes: expected an integer, got 'many'"


def _node_paths(value, path=()):
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from _node_paths(child, path + (key,))


def _replaced(data, path, value):
    if not path:
        return value
    data = copy.deepcopy(data)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return data


_FUZZ_BASE = json.loads(GOLDEN.read_text())
_FUZZ_BASE["threats"].append(
    {"kind": "turret", "position": [1.0, 1.0], "mu": 0.5, "range": 1.0, "look_angle": 0.5}
)

_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["csv", "json", "pursuer", "turret", "circumnav_reach"]),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


@settings(max_examples=600, deadline=None)
@given(path=st.sampled_from(list(_node_paths(_FUZZ_BASE))), value=_json_values)
def test_any_replaced_node_parses_or_is_located(path, value):
    """Any JSON value at any node yields a document or a located ScenarioError, nothing else."""
    try:
        scenario_from_dict(_replaced(_FUZZ_BASE, path, value))
    except ScenarioError as exc:
        assert exc.location.startswith("$")
