import csv
import json
import math
from pathlib import Path

import pytest

from threatnav.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "scenarios" / "golden.json"
TURRET = GOLDEN.with_name("turret.json")


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestEzBoundary:
    def test_pursuer_reference_extrema(self, tmp_path):
        rc = main(
            [
                "ez-boundary", "--kind", "pursuer", "--mu", "0.7", "--R", "1",
                "--r", "0.25", "--n", "360", "--output-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        rows = read_csv(tmp_path / "ez_boundary.csv")
        assert len(rows) == 360
        dists = [math.hypot(float(r["world_x"]), float(r["world_y"])) for r in rows]
        assert max(dists) == pytest.approx(1.95, abs=1e-3)
        summary = json.loads((tmp_path / "ez_boundary.json").read_text())
        assert summary["extrema"]["max_world_distance"] == pytest.approx(1.95, abs=1e-3)
        assert summary["extrema"]["min_world_distance"] == pytest.approx(0.55, abs=1e-3)

    def test_turret_boundary(self, tmp_path):
        rc = main(
            [
                "ez-boundary", "--kind", "turret", "--mu", "0.5", "--R", "1",
                "--theta0", "0.5235987755982988", "--n", "360",
                "--output-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        rows = read_csv(tmp_path / "ez_boundary.csv")
        assert len(rows) == 360

    def test_small_n_is_usage_error(self, tmp_path):
        rc = main(
            ["ez-boundary", "--kind", "pursuer", "--mu", "0.7", "--R", "1",
             "--n", "2", "--output-dir", str(tmp_path)]
        )
        assert rc == 2

    def test_bad_flag_is_usage_error(self):
        assert main(["ez-boundary", "--era", "jazz"]) == 2

    def test_deterministic_output(self, tmp_path):
        args = [
            "ez-boundary", "--kind", "pursuer", "--mu", "0.7", "--R", "1",
            "--r", "0.25", "--n", "90",
        ]
        main(args + ["--output-dir", str(tmp_path / "a")])
        main(args + ["--output-dir", str(tmp_path / "b")])
        assert (tmp_path / "a/ez_boundary.csv").read_bytes() == (
            tmp_path / "b/ez_boundary.csv"
        ).read_bytes()


class TestPlan:
    def test_golden_scenario(self, tmp_path):
        rc = main(["plan", str(GOLDEN), "--output-dir", str(tmp_path)])
        assert rc == 0
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["converged"] is True
        assert 6.69 < result["t_f"] < 7.17
        rows = read_csv(tmp_path / "trajectory.csv")
        assert len(rows) == 100
        assert "clearance_0" in rows[0]
        assert min(float(r["clearance_0"]) for r in rows) >= -1e-4

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["plan", str(bad), "--output-dir", str(tmp_path)]) == 2

    def test_unknown_key_exit_code(self, tmp_path):
        data = json.loads(GOLDEN.read_text())
        data["agent"]["warp"] = 9
        bad = tmp_path / "unknown.json"
        bad.write_text(json.dumps(data))
        assert main(["plan", str(bad), "--output-dir", str(tmp_path)]) == 2

    def test_infeasible_goal_exit_code(self, tmp_path):
        data = json.loads(GOLDEN.read_text())
        data["agent"]["goal"] = [0.3, 0.0]  # inside the capturability disk
        bad = tmp_path / "infeasible.json"
        bad.write_text(json.dumps(data))
        assert main(["plan", str(bad), "--output-dir", str(tmp_path)]) == 3

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["plan", str(tmp_path / "none.json")]) == 2

    @pytest.mark.parametrize(
        "make",
        [
            lambda p: p.mkdir(),
            lambda p: p.write_bytes(b'{"schema_version": 1, "note": "\xff\xfe"}'),
            lambda p: p.write_text('{"schema_version": 1' + "0" * 5000 + "}"),
        ],
        ids=["directory", "not_utf8", "huge_int_literal"],
    )
    @pytest.mark.parametrize("command", ["plan", "compare"])
    def test_unreadable_scenario_exit_code(self, tmp_path, capsys, make, command):
        path = tmp_path / "scen.json"
        make(path)
        assert main([command, str(path), "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        assert not (tmp_path / "out").exists()

    def test_repeat_runs_bit_identical(self, tmp_path):
        data = json.loads(GOLDEN.read_text())
        data["planner"]["n_nodes"] = 40
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(data))
        main(["plan", str(scen), "--output-dir", str(tmp_path / "a")])
        main(["plan", str(scen), "--output-dir", str(tmp_path / "b")])
        assert (tmp_path / "a/trajectory.csv").read_bytes() == (
            tmp_path / "b/trajectory.csv"
        ).read_bytes()

    @pytest.mark.parametrize(
        "edit, location",
        [
            (lambda d: d["planner"].update(initialization="custom"), "$.planner.initialization"),
            (
                lambda d: d.update(threats=[], planner={"initialization": "circumnav_reach"}),
                "$.planner.initialization",
            ),
            (lambda d: d["planner"].update(constraint_tolerance=True), "$.planner.constraint_tolerance"),
            (lambda d: d["planner"].update(n_nodes=50.5), "$.planner.n_nodes"),
            (lambda d: d.update(threats={"a": 1}), "$.threats"),
            (lambda d: d["agent"].update(goal=d["agent"]["start"]), "$.agent"),
            (lambda d: d["threats"][0].update(mu=-1), "$.threats[0]"),
            (lambda d: d["agent"].update(speed=-1), "$.agent"),
            (lambda d: d["threats"][0].update(range=0), "$.threats[0]"),
            (lambda d: d["agent"].update(start=[math.inf, 0.0]), "$.agent.start"),
            (lambda d: d["output"].update(formats=None), "$.output.formats"),
            (lambda d: d["planner"].update(max_iterations=-5), "$.planner"),
            (lambda d: d["threats"][0].update(mu=1e308), "$.threats[0]"),
        ],
        ids=[
            "custom", "circumnav_reach_no_pursuer", "bool_tolerance", "float_n_nodes", "threats_object",
            "goal_is_start", "negative_mu", "negative_speed", "zero_range", "infinite_start",
            "null_formats", "negative_max_iterations", "huge_mu",
        ],
    )
    def test_bad_scenario_values_exit_code(self, tmp_path, capsys, edit, location):
        data = json.loads(GOLDEN.read_text())
        data.setdefault("planner", {})
        edit(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["plan", str(bad), "--output-dir", str(tmp_path)]) == 2
        assert f"{location}: " in capsys.readouterr().err
        assert not (tmp_path / "result.json").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda d: d["threats"].append(
                    {"kind": "turret", "position": [-3.0, 0.0], "mu": 0.5, "range": 1.0, "look_angle": 0.0}
                ),
                "agent exactly at the turret position",
            ),
        ],
        ids=["turret_at_start"],
    )
    def test_plan_domain_error_exit_code(self, tmp_path, capsys, edit, message):
        data = json.loads(GOLDEN.read_text())
        edit(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["plan", str(bad), "--output-dir", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "result.json").exists()

    def test_output_block_used_without_flags(self, tmp_path, monkeypatch):
        data = json.loads(GOLDEN.read_text())
        data["planner"]["n_nodes"] = 40
        data["output"] = {"dir": "out", "formats": ["json"]}
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(data))
        monkeypatch.chdir(tmp_path)
        assert main(["plan", str(scen)]) == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["result.json"]
        assert main(["plan", str(scen), "--format", "csv", "--output-dir", "flag"]) == 0
        assert sorted(p.name for p in (tmp_path / "flag").iterdir()) == ["trajectory.csv"]

    def test_turret_scenario_planning(self, tmp_path):
        rc = main(["plan", str(TURRET), "--output-dir", str(tmp_path)])
        assert rc == 0
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["converged"] is True
        assert result["min_clearance"] >= -1e-4


class TestCompare:
    def test_golden_sign_pattern(self, tmp_path):
        rc = main(["compare", str(GOLDEN), "--output-dir", str(tmp_path)])
        assert rc == 0
        rows = {r["label"]: r for r in read_csv(tmp_path / "compare.csv")}
        assert float(rows["Reach"]["percent_difference"]) < 0
        assert float(rows["Worst"]["percent_difference"]) < 0
        assert float(rows["Apol"]["percent_difference"]) > 0
        assert abs(float(rows["Worst"]["percent_difference"])) > abs(
            float(rows["Reach"]["percent_difference"])
        )

    def test_requires_single_pursuer(self, tmp_path):
        data = json.loads(GOLDEN.read_text())
        data["threats"] = []
        empty = tmp_path / "none.json"
        empty.write_text(json.dumps(data))
        assert main(["compare", str(empty), "--output-dir", str(tmp_path)]) == 2


class TestVerify:
    def test_small_clean_sweep(self, capsys):
        rc = main(["verify", "--samples", "40", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "total disagreements: 0" in out

    def test_corruption_detected(self, capsys):
        rc = main(["verify", "--kind", "pursuer", "--samples", "40",
                   "--seed", "1", "--corrupt-rho", "0.01"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "total disagreements: 0" not in out

    def test_bad_samples_usage_error(self):
        assert main(["verify", "--samples", "0"]) == 2
