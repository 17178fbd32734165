import logging
import math
import statistics
from dataclasses import dataclass

import numpy as np
import pytest

from threatnav import planner
from threatnav.circumnav import CircumnavSpec, circumnavigate, standard_specs
from threatnav.errors import InfeasibleError
from threatnav.geometry import Point2, distance
from threatnav.planner import (
    AgentConfig,
    PlannerOptions,
    PlanResult,
    Scenario,
    TranscribedProblem,
    clearances_along,
    initialize,
    plan,
    resample_and_verify,
    transcribe,
)
from threatnav.pursuit import PursuerThreat, signed_clearance
from threatnav.turret import TurretThreat

from test_batched_kernels import bit_equal

MU, CAPTURE = 0.9, 0.2
RANGE = (2 - CAPTURE) / (MU + 1)
GOLDEN_THREAT = PursuerThreat(Point2(0, 0), mu=MU, engagement_range=RANGE, capture_radius=CAPTURE)
GOLDEN_AGENT = AgentConfig(Point2(-3, 0), Point2(3, 0), speed=MU)


def golden_scenario(**opts):
    defaults = dict(constraint_tolerance=1e-4)
    defaults.update(opts)
    return Scenario(GOLDEN_AGENT, (GOLDEN_THREAT,), PlannerOptions(**defaults))


@pytest.fixture(scope="module")
def golden_plan():
    return plan(golden_scenario())


class TestUnobstructed:
    def test_straight_line_minimum_time(self):
        scen = Scenario(AgentConfig(Point2(0, 0), Point2(0, 4), speed=0.9), ())
        res = plan(scen)
        assert res.converged
        assert res.t_f == pytest.approx(4 / 0.9, rel=1e-9)

    def test_inactive_threat_keeps_chord(self):
        far = PursuerThreat(Point2(0, 50), mu=0.5, engagement_range=1.0, capture_radius=0.1)
        scen = Scenario(AgentConfig(Point2(-2, 0), Point2(2, 0), speed=1.0), (far,))
        res = plan(scen)
        assert res.converged
        assert res.t_f == pytest.approx(4.0, rel=1e-8)


@pytest.fixture
def solves(monkeypatch):
    """The warm start of every SLSQP solve ``plan`` makes."""
    starts = []
    real = planner.minimize

    def counted(fun, x0, *args, **kwargs):
        starts.append(np.array(x0))
        return real(fun, x0, *args, **kwargs)

    monkeypatch.setattr(planner, "minimize", counted)
    return starts


def far_scenario():
    far = PursuerThreat(Point2(0, 50), mu=0.5, engagement_range=1.0, capture_radius=0.1)
    return Scenario(AgentConfig(Point2(-2, 0.3), Point2(2.5, 1.1), speed=0.7), (far,))


class TestSeedRule:
    def test_blocked_chord_solves_only_the_detours(self, solves):
        res = plan(golden_scenario(n_nodes=50))
        assert len(solves) == 2
        assert res.converged

    def test_clear_chord_returned_unsolved(self, solves):
        scen = far_scenario()
        res = plan(scen)
        assert solves == []
        assert res.iterations == 0
        assert res.converged
        assert res.t_f == distance(scen.agent.start, scen.agent.goal) / scen.agent.speed
        assert res.min_clearance > 0.0

    def test_circumnav_reach_warm_start_is_solved(self, solves):
        scen = golden_scenario(n_nodes=50, initialization="circumnav_reach")
        reach = transcribe(scen).pack(initialize(scen, "circumnav_reach"))
        res = plan(scen)
        assert len(solves) == 1  # the Reach path clears the zone, so no detours
        assert np.array_equal(solves[0], reach)
        assert res.converged

    def test_fine_grid_solves_once_from_the_packed_coarse_plan(self, solves):
        coarse_scen = golden_scenario(n_nodes=50, initialization="circumnav_reach")
        coarse = plan(coarse_scen)
        solves.clear()
        scen = golden_scenario(initialization="circumnav_reach")
        res = plan(scen)
        assert len(solves) == 2  # the coarse Reach solve, then one fine round
        assert np.array_equal(solves[0], transcribe(coarse_scen).pack(initialize(coarse_scen, "circumnav_reach")))
        assert np.array_equal(solves[1], transcribe(scen).pack(coarse.trajectory))
        assert res.converged
        assert res.iterations > coarse.iterations

    def test_nan_clearance_blocks_the_chord(self, solves, monkeypatch):
        real = PursuerThreat.clearance
        calls = []

        def nan_first(self, points, headings):
            out = real(self, points, headings)
            if not calls:
                out[0] = math.nan
            calls.append(1)
            return out

        monkeypatch.setattr(PursuerThreat, "clearance", nan_first)
        res = plan(far_scenario())
        assert len(solves) == 2
        assert res.iterations > 0

    def test_one_log_line_per_solve(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="threatnav.planner"):
            plan(golden_scenario(n_nodes=50))
            plan(far_scenario())
            plan(golden_scenario(n_nodes=100))
        lines = [r.getMessage() for r in caplog.records if r.name == "threatnav.planner"]
        assert [line.split(":")[0] for line in lines] == [
            "seed detour+", "seed detour-", "chord clear", "seed detour+", "seed detour-", "seed coarse",
        ]
        solved = lines[:2] + lines[3:]
        assert all("nit" in line and "status" in line and "violation" in line for line in solved)
        assert all(", rows 98/98, " in line for line in lines[:2] + lines[3:5])
        assert [line.split(", ")[0].split(": ")[1] for line in solved] == ["n 50"] * 4 + ["n 100"]
        kept, total = map(int, lines[5].split(", rows ")[1].split(",")[0].split("/"))
        assert 0 < kept < total == 198

    @pytest.mark.parametrize("n_nodes", [50, 100, 400])
    def test_iterations_steady_under_last_bit_noise(self, monkeypatch, n_nodes):
        scen = golden_scenario(n_nodes=n_nodes)
        base = plan(scen)
        iterations, times = [base.iterations], [base.t_f]
        real = TranscribedProblem.pack
        for seed in range(6):
            rng = np.random.default_rng(seed)

            def noisy(self, trajectory, rng=rng):
                z = real(self, trajectory)
                return z * (1.0 + 4e-16 * rng.standard_normal(len(z)))

            monkeypatch.setattr(TranscribedProblem, "pack", noisy)
            res = plan(scen)
            iterations.append(res.iterations)
            times.append(res.t_f)
        assert max(iterations) - min(iterations) <= 0.1 * statistics.median(iterations)
        assert max(times) - min(times) <= 1e-12


class TestCoarseToFine:
    """Grids above 50 nodes: coarse plan, screened rows, re-check of every row."""

    @pytest.mark.parametrize("n_nodes, full_solve_tf", [(100, 7.0339238593979445), (200, 7.0299017707836216)])
    def test_reaches_the_full_solve(self, n_nodes, full_solve_tf):
        res = plan(golden_scenario(n_nodes=n_nodes))
        assert res.converged
        assert res.t_f == pytest.approx(full_solve_tf, rel=1e-8)

    def test_recheck_adds_the_rows_the_screen_missed(self, solves, monkeypatch, caplog):
        monkeypatch.setattr(planner, "_SCREEN_FRACTION", 0.0)
        scen = golden_scenario(n_nodes=100)
        with caplog.at_level(logging.DEBUG, logger="threatnav.planner"):
            res = plan(scen)
        fine = [r.getMessage() for r in caplog.records if r.getMessage().startswith("seed coarse")]
        kept = [int(line.split(", rows ")[1].split("/")[0]) for line in fine]
        assert len(solves) == 2 + len(fine) and len(fine) >= 2
        assert kept == sorted(set(kept))  # each round keeps more rows
        assert res.converged
        assert res.min_clearance >= -scen.options.constraint_tolerance

    def test_coarse_clear_chord_falls_back_to_every_row(self, solves, caplog):
        # the disk sits on a node of the 101-node chord and between two of the 50-node one
        scen = Scenario(
            AgentConfig(Point2(-3, 0), Point2(3, 0), speed=1.0),
            (DiskThreat(Point2(0.0, 0.0), 0.05),),
            PlannerOptions(n_nodes=101, constraint_tolerance=1e-4),
        )
        with caplog.at_level(logging.DEBUG, logger="threatnav.planner"):
            res = plan(scen)
        lines = [r.getMessage() for r in caplog.records if r.name == "threatnav.planner"]
        assert [line.split(":")[0] for line in lines] == ["chord clear", "seed detour+", "seed detour-"]
        assert all("n 101, rows 200/200," in line for line in lines[1:])
        assert len(solves) == 2
        assert res.converged


class TestGolden:
    def test_time_between_apollonius_and_reach(self, golden_plan):
        base = {
            s.label: circumnavigate(
                GOLDEN_AGENT.start, GOLDEN_AGENT.goal, GOLDEN_THREAT.position, s, MU
            ).t_f
            for s in standard_specs(GOLDEN_THREAT)
        }
        assert base["Apol"] < golden_plan.t_f < base["Reach"] < base["Worst"]

    def test_contiguous_boundary_activation(self, golden_plan):
        clear = clearances_along(golden_plan.trajectory, [GOLDEN_THREAT])[:, 0]
        active = np.abs(clear) <= 1e-4
        runs, best = 0, 0
        for a in active:
            runs = runs + 1 if a else 0
            best = max(best, runs)
        assert best >= 3

    def test_feasible_and_converged(self, golden_plan):
        assert golden_plan.converged
        assert golden_plan.min_clearance >= -1e-4

    def test_chord_lower_bound(self, golden_plan):
        assert golden_plan.t_f + 1e-9 >= 6.0 / MU

    def test_constant_speed_segments(self, golden_plan):
        assert golden_plan.trajectory.max_speed_violation() <= 1e-9

    def test_multi_start_agreement(self, golden_plan):
        other = plan(golden_scenario(initialization="circumnav_reach"))
        assert other.converged
        assert abs(other.t_f - golden_plan.t_f) / golden_plan.t_f <= 0.005

    def test_beats_reach_baseline(self, golden_plan):
        reach = circumnavigate(
            GOLDEN_AGENT.start,
            GOLDEN_AGENT.goal,
            GOLDEN_THREAT.position,
            standard_specs(GOLDEN_THREAT)[0],
            MU,
        )
        assert golden_plan.t_f <= reach.t_f + 1e-8


class TestResampleAndVerify:
    def test_unobstructed_plan_clean(self):
        scen = Scenario(AgentConfig(Point2(0, 0), Point2(3, 0), speed=1.0), ())
        rep = resample_and_verify(plan(scen), scen, 5)
        assert rep.oracle_disagreements == 0

    def test_golden_internode_violation_bounded(self, golden_plan):
        scen = golden_scenario()
        rep = resample_and_verify(golden_plan, scen, 10)
        assert rep.worst_clearance >= -10 * scen.options.constraint_tolerance
        assert rep.oracle_disagreements == 0

    def test_violation_shrinks_with_node_count(self):
        coarse = golden_scenario(n_nodes=10)
        fine = golden_scenario(n_nodes=100)
        rep_c = resample_and_verify(plan(coarse), coarse, 10)
        rep_f = resample_and_verify(plan(fine), fine, 10)
        assert rep_f.worst_clearance > rep_c.worst_clearance

    def test_rejects_small_factor(self, golden_plan):
        with pytest.raises(ValueError):
            resample_and_verify(golden_plan, golden_scenario(), 1)

    def test_oracle_overrules_a_clearance_that_calls_the_zone_safe(self, monkeypatch):
        # off the chord, so no dense point lands on the pursuer itself
        threat = PursuerThreat(Point2(0.1, 0.2), mu=MU, engagement_range=RANGE, capture_radius=CAPTURE)
        scen = Scenario(GOLDEN_AGENT, (threat,), PlannerOptions(constraint_tolerance=1e-4))
        chord = initialize(scen, "straight_line")
        blocked = PlanResult(chord, float(chord.times[-1]), False, -math.inf, 0)
        assert resample_and_verify(blocked, scen, 10).oracle_disagreements == 0

        dense = np.column_stack([np.linspace(-3.0, 3.0, 991), np.zeros(991)])
        inside = int(np.count_nonzero(threat.clearance(dense, np.zeros(991)) <= 1e-4))
        true_clearance = PursuerThreat.clearance
        monkeypatch.setattr(PursuerThreat, "clearance", lambda self, q, psi: true_clearance(self, q, psi) + 10.0)
        rep = resample_and_verify(blocked, scen, 10)
        assert rep.points_checked == 991
        assert inside > 0
        assert rep.oracle_disagreements == inside


class TestInitialize:
    def test_straight_line_nodes_on_chord(self):
        scen = Scenario(AgentConfig(Point2(0, 0), Point2(4, 0), speed=1.0), ())
        traj = initialize(scen, "straight_line")
        assert len(traj.points) == 100
        assert np.allclose(traj.points[:, 1], 0.0)
        assert traj.t_f == pytest.approx(4.0)

    def test_circumnav_reach_feasible_warm_start(self):
        scen = golden_scenario()
        traj = initialize(scen, "circumnav_reach")
        clear = [
            signed_clearance(Point2(*p), float(h), GOLDEN_THREAT)
            for p, h in zip(traj.points, traj.node_headings)
        ]
        assert min(clear) >= 0.0

    def test_custom_requires_trajectory(self):
        with pytest.raises(ValueError):
            initialize(golden_scenario(), "custom")

    def test_custom_passthrough(self):
        base = initialize(golden_scenario(), "straight_line")
        scen = golden_scenario(initialization="custom", custom_trajectory=base)
        assert initialize(scen, "custom") is base

    def test_custom_without_trajectory_rejected_at_construction(self):
        with pytest.raises(ValueError, match="custom initialization requires a trajectory"):
            PlannerOptions(initialization="custom")

    @pytest.mark.parametrize("mode", ["straight_line", "circumnav_reach"])
    def test_trajectory_no_mode_reads_rejected_at_construction(self, mode):
        base = initialize(golden_scenario(), "straight_line")
        with pytest.raises(ValueError, match=f"{mode} initialization reads no custom_trajectory"):
            PlannerOptions(initialization=mode, custom_trajectory=base)

    def test_straight_line_is_the_chord_plan_returns(self):
        scen = Scenario(AgentConfig(Point2(-1.3, 0.7), Point2(2.9, -4.1), speed=0.7), (), PlannerOptions(n_nodes=97))
        chord, res = initialize(scen, "straight_line"), plan(scen)
        assert res.iterations == 0
        for name in ("points", "times", "headings"):
            assert bit_equal(getattr(chord, name), getattr(res.trajectory, name)), name


class TestFeasibilityScreen:
    def test_goal_inside_capturability_disk(self):
        scen = Scenario(
            AgentConfig(Point2(-3, 0), Point2(0.5, 0), speed=MU),
            (GOLDEN_THREAT,),
        )
        with pytest.raises(InfeasibleError):
            plan(scen)

    def test_start_inside_capturability_disk(self):
        scen = Scenario(
            AgentConfig(Point2(0.2, 0), Point2(3, 0), speed=MU),
            (GOLDEN_THREAT,),
        )
        with pytest.raises(InfeasibleError):
            plan(scen)


class TestTurretPlanning:
    def test_plans_around_turret_zone(self):
        turret = TurretThreat(Point2(0, 0), look_angle=math.pi / 6, mu=0.5, engagement_range=1.0)
        scen = Scenario(
            AgentConfig(Point2(-3, -0.4), Point2(3, -0.4), speed=0.5),
            (turret,),
            PlannerOptions(n_nodes=60, constraint_tolerance=1e-4),
        )
        res = plan(scen)
        assert res.min_clearance >= -1e-4
        assert res.t_f >= 6.0 / 0.5 - 1e-9

    def test_mixed_threats(self):
        pursuer = PursuerThreat(Point2(-1.0, 0), mu=0.8, engagement_range=0.5, capture_radius=0.1)
        turret = TurretThreat(Point2(1.2, 0.2), look_angle=2.0, mu=0.4, engagement_range=0.6)
        scen = Scenario(
            AgentConfig(Point2(-3, -1), Point2(3, -1), speed=0.8),
            (pursuer, turret),
            PlannerOptions(n_nodes=50, constraint_tolerance=1e-4),
        )
        res = plan(scen)
        assert res.min_clearance >= -1e-4


@dataclass(frozen=True)
class DiskThreat:
    """A zone kind the library does not know: a plain disk, whatever the heading."""

    position: Point2
    radius: float

    def clearance(self, points, headings):
        return np.hypot(points[:, 0] - self.position.x, points[:, 1] - self.position.y) - self.radius

    def clearance_gradient(self, points, headings):
        dx, dy = points[:, 0] - self.position.x, points[:, 1] - self.position.y
        d = np.hypot(dx, dy)
        return dx / d, dy / d, np.zeros(len(d))

    def engageable(self, points, headings):
        return (points[:, 0] - self.position.x) ** 2 + (points[:, 1] - self.position.y) ** 2 <= self.radius**2

    @property
    def keep_out_radius(self):
        return self.radius

    @property
    def extent(self):
        return self.radius


class TestThreatProtocol:
    """The planner reaches a threat only through the ``Threat`` protocol."""

    DISK = DiskThreat(Point2(0.0, 0.1), 1.0)

    def disk_scenario(self, **opts):
        return Scenario(
            AgentConfig(Point2(-3, 0), Point2(3, 0), speed=1.0),
            (self.DISK,),
            PlannerOptions(n_nodes=40, constraint_tolerance=1e-4, **opts),
        )

    @pytest.mark.parametrize("init", ["straight_line", "circumnav_reach"])
    def test_plans_around_a_new_zone_kind(self, init):
        res = plan(self.disk_scenario(initialization=init))
        assert res.converged
        assert np.all(clearances_along(res.trajectory, (self.DISK,)) >= -1e-4)
        ring = CircumnavSpec("disk", self.DISK.radius)
        around = circumnavigate(Point2(-3, 0), Point2(3, 0), self.DISK.position, ring, 1.0)
        assert 6.0 < res.t_f <= around.t_f  # nodes on the circle cut its arc

    def test_endpoint_inside_the_keep_out_disk(self):
        scen = Scenario(AgentConfig(Point2(-3, 0), Point2(0.5, 0), speed=1.0), (self.DISK,))
        with pytest.raises(InfeasibleError):
            plan(scen)

    def test_audits_a_new_zone_kind(self, monkeypatch):
        scen = self.disk_scenario()
        rep = resample_and_verify(plan(scen), scen, 10)
        assert rep.points_checked == 391
        assert rep.oracle_disagreements == 0

        # the audit asks the kind's own referee: with every clearance called safe, it flags the points inside
        chord = initialize(scen, "straight_line")
        blocked = PlanResult(chord, float(chord.times[-1]), False, -math.inf, 0)
        dense = np.column_stack([np.linspace(-3.0, 3.0, 391), np.zeros(391)])
        inside = int(np.count_nonzero(self.DISK.engageable(dense, np.zeros(391))))
        monkeypatch.setattr(DiskThreat, "clearance", lambda self, q, psi: np.full(len(q), 10.0))
        assert inside > 0
        assert resample_and_verify(blocked, scen, 10).oracle_disagreements == inside


def central_differences(f, z):
    """Jacobian of f at z by central differences, one column per component of z."""
    columns = []
    for j in range(len(z)):
        h = 1e-6 * max(1.0, abs(z[j]))
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        columns.append((f(zp) - f(zm)) / (2 * h))
    return np.stack(columns, axis=1)


class TestTranscription:
    def test_jacobian_matches_finite_differences(self):
        scen = golden_scenario()
        prob = transcribe(scen)
        rng = np.random.default_rng(31)
        z = prob.pack(initialize(scen, "circumnav_reach"))
        z = z + rng.normal(0, 0.03, len(z))
        z[-1] = abs(z[-1])
        jac = prob.clearance_jacobian(z)
        fd = central_differences(prob.clearances, z)
        scale = np.maximum(1.0, np.maximum(np.abs(jac), np.abs(fd)))
        assert float(np.max(np.abs(jac - fd) / scale)) <= 1e-5

    def test_mixed_jacobian_blocks_match_finite_differences(self):
        pursuer = PursuerThreat(Point2(-1.0, 0), mu=0.8, engagement_range=0.5, capture_radius=0.1)
        turret = TurretThreat(Point2(1.2, 0.2), look_angle=2.0, mu=0.4, engagement_range=0.6)
        scen = Scenario(
            AgentConfig(Point2(-3, -1), Point2(3, -1), speed=0.8),
            (pursuer, turret),
            PlannerOptions(n_nodes=50, constraint_tolerance=1e-4),
        )
        prob = transcribe(scen)
        rng = np.random.default_rng(31)
        z = prob.pack(initialize(scen, "straight_line"))
        z = z + rng.normal(0, 0.03, len(z))
        jac = prob.clearance_jacobian(z)
        fd = central_differences(prob.clearances, z)
        m = 2 * 50 - 2
        assert jac.shape == (2 * m, 50)
        scale = np.maximum(1.0, np.maximum(np.abs(jac), np.abs(fd)))
        err = np.abs(jac - fd) / scale
        assert float(np.max(err[:m])) <= 1e-5  # pursuer rows, analytic
        assert float(np.max(err[m:])) <= 1e-5  # turret rows, analytic

    @staticmethod
    def reference_endpoint_jacobian(prob, z):
        """The endpoint Jacobian written out by hand: each heading moves the goal node by speed * dt."""
        psi, t_f = z[:-1], z[-1]
        dt = t_f / (prob.n - 1)
        jac = np.zeros((2, prob.n))
        jac[0, : prob.n - 1] = -prob.speed * dt * np.sin(psi)
        jac[1, : prob.n - 1] = prob.speed * dt * np.cos(psi)
        jac[:, -1] = (prob.positions(z)[-1] - prob.a0) / t_f
        return jac

    @pytest.mark.parametrize("n", [3, 20, 100, 400])
    def test_endpoint_jacobian_is_the_hand_formula(self, n):
        scen = Scenario(GOLDEN_AGENT, (GOLDEN_THREAT,), PlannerOptions(n_nodes=n))
        prob = transcribe(scen)
        rng = np.random.default_rng(n)
        for draw in range(50):
            z = np.append(rng.uniform(-math.pi, math.pi, n - 1), rng.uniform(0.5, 20.0))
            if draw % 2:  # headings of exactly 0 and +/-pi
                k = max(1, n // 3)
                z[rng.integers(0, n - 1, size=k)] = rng.choice([0.0, -0.0, math.pi, -math.pi], size=k)
            assert bit_equal(prob.endpoint_jacobian(z), self.reference_endpoint_jacobian(prob, z)), draw
        chord = np.append(np.zeros(n - 1), 6.0 / MU)  # the golden chord: every heading 0
        assert bit_equal(prob.endpoint_jacobian(chord), self.reference_endpoint_jacobian(prob, chord))

    def test_endpoint_jacobian_matches_finite_differences(self):
        scen = golden_scenario()
        prob = transcribe(scen)
        rng = np.random.default_rng(31)
        z = prob.pack(initialize(scen, "circumnav_reach"))
        z = z + rng.normal(0, 0.03, len(z))
        jac = prob.endpoint_jacobian(z)
        fd = central_differences(prob.endpoint, z)
        scale = np.maximum(1.0, np.maximum(np.abs(jac), np.abs(fd)))
        assert float(np.max(np.abs(jac - fd) / scale)) <= 1e-6

    def test_decision_vector_size_is_node_count(self):
        prob = transcribe(golden_scenario(n_nodes=37))
        z = prob.pack(initialize(golden_scenario(n_nodes=37), "straight_line"))
        assert len(z) == 37

    def test_options_validation(self):
        with pytest.raises(ValueError):
            PlannerOptions(n_nodes=2)
        with pytest.raises(ValueError):
            PlannerOptions(initialization="zigzag")
        with pytest.raises(ValueError):
            PlannerOptions(constraint_tolerance=0.0)
