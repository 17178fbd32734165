import csv
import json
import math
import warnings
from pathlib import Path

import pytest

from threatnav import planner
from threatnav.cli import _g, main
from threatnav.scenario_io import load_scenario

GOLDEN = Path(__file__).resolve().parent.parent / "scenarios" / "golden.json"
TURRET = GOLDEN.with_name("turret.json")
MIXED = GOLDEN.with_name("mixed.json")
_TURRET = {"kind": "turret", "position": [0.0, 3.0], "mu": 0.5, "range": 1.0, "look_angle": 0.0}  # off the golden route


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

    @pytest.mark.parametrize("theta0", ["1.5707963267948966", "-1.5707963267948966"])
    def test_turret_boundary_with_one_traversal_interval(self, tmp_path, theta0):
        rc = main(
            ["ez-boundary", "--kind", "turret", "--mu", "0.5", "--R", "1", "--theta0", theta0, "--n", "360",
             "--output-dir", str(tmp_path)]
        )
        assert rc == 0
        assert len(read_csv(tmp_path / "ez_boundary.csv")) == 360
        assert json.loads((tmp_path / "ez_boundary.json").read_text())["n"] == 360

    def test_small_n_is_usage_error(self, tmp_path):
        rc = main(
            ["ez-boundary", "--kind", "pursuer", "--mu", "0.7", "--R", "1",
             "--n", "2", "--output-dir", str(tmp_path)]
        )
        assert rc == 2

    def test_bad_flag_is_usage_error(self):
        assert main(["ez-boundary", "--era", "jazz"]) == 2

    def test_negative_mu_is_domain_error(self, tmp_path, capsys):
        rc = main(
            ["ez-boundary", "--kind", "turret", "--mu", "-1", "--R", "1",
             "--output-dir", str(tmp_path / "out")]
        )
        assert rc == 2
        assert capsys.readouterr().err == "error: mu must be positive and finite, got -1.0\n"
        assert not (tmp_path / "out").exists()

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

    def test_psi_is_each_nodes_outgoing_heading(self, tmp_path):
        assert main(["plan", str(GOLDEN), "--output-dir", str(tmp_path)]) == 0
        headings = planner.plan(load_scenario(GOLDEN).scenario).trajectory.headings
        psi = [row["psi"] for row in read_csv(tmp_path / "trajectory.csv")]
        assert psi[:-1] == [_g(float(h)) for h in headings]
        assert psi[-1] == psi[-2] == _g(float(headings[-1]))  # the goal row repeats the last segment's heading

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
            (lambda d: d["threats"].append({**_TURRET, "mu": 1e-170}), "$.threats[1]"),
            (lambda d: d["threats"].append({**_TURRET, "mu": 1e155}), "$.threats[1]"),
            (lambda d: d["threats"].append({**_TURRET, "range": 1e170}), "$.threats[1]"),
        ],
        ids=[
            "custom", "circumnav_reach_no_pursuer", "bool_tolerance", "float_n_nodes", "threats_object",
            "goal_is_start", "negative_mu", "negative_speed", "zero_range", "infinite_start",
            "null_formats", "negative_max_iterations", "huge_mu", "turret_mu_squared_underflows",
            "turret_huge_mu", "turret_huge_range",
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
                "error: start (-3.0, 0.0) lies exactly on threats[1], where its zone is undefined\n",
            ),
            (
                lambda d: d["threats"].append(
                    {"kind": "turret", "position": [3.0, 0.0], "mu": 0.5, "range": 1.0, "look_angle": 0.0}
                ),
                "error: goal (3.0, 0.0) lies exactly on threats[1], where its zone is undefined\n",
            ),
        ],
        ids=["turret_at_start", "turret_at_goal"],
    )
    def test_plan_domain_error_exit_code(self, tmp_path, capsys, edit, message):
        data = json.loads(GOLDEN.read_text())
        edit(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["plan", str(bad), "--output-dir", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "result.json").exists()

    def test_infinite_tolerance_is_located(self, tmp_path, capsys):
        data = json.loads(GOLDEN.read_text())
        data["planner"]["opt_tolerance"] = math.inf  # written as the JSON extension Infinity
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["plan", str(bad), "--output-dir", str(tmp_path / "out")]) == 2
        expected = f"error: {bad}: $.planner: opt_tolerance must be positive and finite, got inf\n"
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "agent, values",
        [
            ({"speed": 1e-308}, "start (-3.0, 0.0), goal (3.0, 0.0) and speed 1e-308"),
            ({"start": [1e308, 0], "goal": [-1e308, 0]}, "start (1e+308, 0.0), goal (-1e+308, 0.0) and speed 0.9"),
        ],
        ids=["tiny_speed", "huge_chord"],
    )
    def test_infinite_chord_time_is_located(self, tmp_path, capsys, agent, values):
        data = json.loads(GOLDEN.read_text())
        data["agent"].update(agent)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["plan", str(bad), "--output-dir", str(tmp_path / "out")]) == 2
        message = f"chord time distance(start, goal) / speed must be finite, got inf for {values}"
        assert capsys.readouterr().err == f"error: {bad}: $.agent: {message}\n"
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize(
        "command, files",
        [("plan", ["result.json", "trajectory.csv"]), ("compare", ["compare.csv", "compare.json"])],
    )
    def test_not_converged_exit_code(self, tmp_path, capsys, command, files):
        data = json.loads(GOLDEN.read_text())
        data["planner"]["max_iterations"] = 1
        scen = tmp_path / "short.json"
        scen.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main([command, str(scen), "--output-dir", str(out)]) == 4
        assert capsys.readouterr().err == "planner did not converge; partial output written\n"
        assert sorted(p.name for p in out.iterdir()) == files
        if command == "plan":
            assert json.loads((out / "result.json").read_text())["converged"] is False

    @pytest.mark.parametrize(
        "argv",
        [
            ["ez-boundary", "--kind", "pursuer", "--mu", "0.7", "--R", "1"],
            ["plan", str(GOLDEN)],
            ["compare", str(GOLDEN)],
        ],
        ids=["ez-boundary", "plan", "compare"],
    )
    def test_output_dir_is_a_file_exit_code(self, tmp_path, capsys, argv):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        assert main(argv + ["--output-dir", str(blocker)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{blocker}'\n"

    def test_turret_scenario_planning(self, tmp_path):
        rc = main(["plan", str(TURRET), "--output-dir", str(tmp_path)])
        assert rc == 0
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["converged"] is True
        assert result["min_clearance"] >= -1e-4

    @pytest.mark.parametrize("n", [5, 11])
    @pytest.mark.parametrize("base", [GOLDEN, TURRET], ids=["golden", "turret"])
    def test_chord_node_on_the_threat(self, tmp_path, base, n):
        data = json.loads(base.read_text())
        data["agent"]["start"], data["agent"]["goal"] = [-3.0, 0.0], [3.0, 0.0]  # the chord's middle node on the threat
        data["planner"]["n_nodes"] = n
        path = tmp_path / "on_chord.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["plan", str(path), "--output-dir", str(tmp_path / "out")]) == 0
        assert json.loads((tmp_path / "out" / "result.json").read_text())["converged"] is True

    def test_threat_free_scenario(self, tmp_path):
        data = json.loads(GOLDEN.read_text())
        data["threats"] = []
        path = tmp_path / "free.json"
        path.write_text(json.dumps(data))
        assert main(["plan", str(path), "--output-dir", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,x,y,psi"
        assert len(lines) == 101

    def test_mixed_scenario(self, tmp_path):
        assert main(["plan", str(MIXED), "--output-dir", str(tmp_path)]) == 0
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["converged"] is True
        assert result["t_f"] == pytest.approx(7.673404687628239, rel=1e-3)
        rows = read_csv(tmp_path / "trajectory.csv")
        assert len(rows) == 50
        assert "clearance_0" in rows[0] and "clearance_1" in rows[0]


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

    def test_omitted_apol_is_one_note_line(self, tmp_path, capsys):
        data = json.loads(GOLDEN.read_text())
        data["threats"][0]["mu"] = 1.5
        scen = tmp_path / "slow.json"
        scen.write_text(json.dumps(data))
        assert main(["compare", str(scen), "--output-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().err == "note: Apol radius -0.273684 is not positive for mu=1.5; spec omitted\n"
        assert [r["label"] for r in read_csv(tmp_path / "compare.csv")] == ["Reach", "Worst"]

    def test_requires_single_pursuer(self, tmp_path):
        data = json.loads(GOLDEN.read_text())
        data["threats"] = []
        empty = tmp_path / "none.json"
        empty.write_text(json.dumps(data))
        assert main(["compare", str(empty), "--output-dir", str(tmp_path)]) == 2

    def test_endpoint_inside_baseline_circle_exit_code(self, tmp_path, capsys, monkeypatch):
        data = json.loads(GOLDEN.read_text())
        data["agent"]["start"] = [-1.5, 0.0]  # outside the capturability disk, inside Worst
        scen = tmp_path / "near.json"
        scen.write_text(json.dumps(data))
        out = tmp_path / "out"
        solves, solve = [], planner.minimize
        monkeypatch.setattr(planner, "minimize", lambda *a, **k: solves.append(1) or solve(*a, **k))
        assert main(["compare", str(scen), "--output-dir", str(out)]) == 3
        assert capsys.readouterr().err == (
            "infeasible: endpoint inside the Worst circle (d0=1.5, df=3, radius=2)\n"
        )
        assert not out.exists()
        assert solves == []  # the baselines reject the endpoint before any solve

    def test_endpoint_inside_capturability_disk_names_reach(self, tmp_path, capsys):
        data = json.loads(GOLDEN.read_text())
        data["agent"]["start"] = [-0.5, 0.0]
        scen = tmp_path / "inside.json"
        scen.write_text(json.dumps(data))
        assert main(["compare", str(scen), "--output-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("infeasible: endpoint inside the Reach circle (d0=0.5, ")
        assert main(["plan", str(scen), "--output-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("infeasible: start lies inside a capturability disk (")


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

    @pytest.mark.parametrize(
        "flag, value", [("--seed", "-1"), ("--corrupt-rho", "nan")], ids=["negative_seed", "nan_corruption"]
    )
    def test_bad_numeric_flag_usage_error(self, capsys, flag, value):
        assert main(["verify", "--samples", "5", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {flag}: " in captured.err
