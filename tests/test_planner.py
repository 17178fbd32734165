import math

import numpy as np
import pytest

from threatnav.circumnav import circumnavigate, standard_specs
from threatnav.errors import InfeasibleError
from threatnav.geometry import Point2
from threatnav.planner import (
    AgentConfig,
    PlannerOptions,
    Scenario,
    clearances_along,
    initialize,
    plan,
    resample_and_verify,
    transcribe,
)
from threatnav.pursuit import PursuerThreat, signed_clearance
from threatnav.turret import TurretThreat

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
        psi = np.append(traj.headings, traj.headings[-1])
        clear = [
            signed_clearance(Point2(*p), float(h), GOLDEN_THREAT)
            for p, h in zip(traj.points, psi)
        ]
        assert min(clear) >= 0.0

    def test_custom_requires_trajectory(self):
        with pytest.raises(ValueError):
            initialize(golden_scenario(), "custom")

    def test_custom_passthrough(self):
        base = initialize(golden_scenario(), "straight_line")
        assert initialize(golden_scenario(), "custom", custom=base) is base


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


class TestTranscription:
    def test_jacobian_matches_finite_differences(self):
        scen = golden_scenario()
        prob = transcribe(scen)
        rng = np.random.default_rng(31)
        z = prob.pack(initialize(scen, "circumnav_reach"))
        z = z + rng.normal(0, 0.03, len(z))
        z[-1] = abs(z[-1])
        jac = prob.clearance_jacobian(z)
        fd = np.zeros_like(jac)
        for j in range(len(z)):
            h = 1e-6 * max(1.0, abs(z[j]))
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            fd[:, j] = (prob.clearances(zp) - prob.clearances(zm)) / (2 * h)
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
        fd = np.zeros_like(jac)
        for j in range(len(z)):
            h = 1e-6 * max(1.0, abs(z[j]))
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            fd[:, j] = (prob.clearances(zp) - prob.clearances(zm)) / (2 * h)
        m = 2 * 50 - 2
        assert jac.shape == (2 * m, 50)
        scale = np.maximum(1.0, np.maximum(np.abs(jac), np.abs(fd)))
        err = np.abs(jac - fd) / scale
        assert float(np.max(err[:m])) <= 1e-5  # pursuer rows, analytic
        assert float(np.max(err[m:])) <= 1e-5  # turret rows, finite differences

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
