import json

import pytest

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
