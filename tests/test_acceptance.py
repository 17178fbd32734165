"""Acceptance suite: one test per criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion; a pytest failure is the corresponding FAIL.
"""

import math
import time

import numpy as np
import pytest

from threatnav.circumnav import CircumnavSpec, circumnavigate, percent_difference, standard_specs
from threatnav.geometry import Point2, wrap_angle
from threatnav.oracle import pursuit_capture_certificate, pursuit_capture_possible, turret_neutralization_possible
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
from threatnav.pursuit import (
    PursuerThreat,
    _collision_course_rho_batch,
    _touch_and_go_rho_batch,
    ez_contains,
    rho,
    rho_legacy,
    sample_boundary,
    xi_crossover,
)
from threatnav.turret import TurretThreat, boundary_threshold, sample_turret_boundary

from test_circumnav import shortest_path_around_disk

MU, CAPTURE = 0.9, 0.2
RANGE = (2 - CAPTURE) / (MU + 1)
GOLDEN_THREAT = PursuerThreat(Point2(0, 0), mu=MU, engagement_range=RANGE, capture_radius=CAPTURE)
GOLDEN_AGENT = AgentConfig(Point2(-3, 0), Point2(3, 0), speed=MU)
GOLDEN_OPTIONS = PlannerOptions(constraint_tolerance=1e-4)
GOLDEN_SCENARIO = Scenario(GOLDEN_AGENT, (GOLDEN_THREAT,), GOLDEN_OPTIONS)


def _report(num, name, started, budget):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {num} ({name}): PASS  [{elapsed:.2f}s]")


@pytest.fixture(scope="module")
def golden_plan():
    return plan(GOLDEN_SCENARIO)


def test_criterion_1_endpoint_identities():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(100):
        mu = rng.uniform(0.02, 1.0)
        R = rng.uniform(0.1, 5.0)
        # keep the tail radius bounded away from zero so a 1e-12 relative
        # comparison is meaningful in double precision
        r = rng.uniform(0.05, 2.0) * R
        threat = PursuerThreat(Point2(0, 0), mu=mu, engagement_range=R, capture_radius=r)
        head = (1 + mu) * R + r
        tail = (1 - mu) * R + r
        assert abs(rho(0.0, threat) - head) <= 1e-12 * head
        assert abs(rho(math.pi, threat) - tail) <= 1e-12 * max(tail, 1e-300)
    _report(1, "fast-pursuer endpoint identities", started, 1.0)


def test_criterion_2_slow_pursuer_branch_agreement():
    started = time.monotonic()
    rng = np.random.default_rng(102)
    for _ in range(100):
        mu = rng.uniform(1.0, 3.0) + 1e-6
        R = rng.uniform(0.2, 3.0)
        r = rng.uniform(0.01, 1.0) * R
        threat = PursuerThreat(Point2(0, 0), mu=mu, engagement_range=R, capture_radius=r)
        xc = np.array([xi_crossover(threat)])
        b1 = _collision_course_rho_batch(xc, mu, R, r)[0][0]
        b2 = _touch_and_go_rho_batch(xc, mu, r, 1.0)[0][0]
        assert abs(b1 - b2) <= 1e-9 * R
        xi_max = np.array([math.pi - math.acos(1.0 / mu)])
        assert abs(_touch_and_go_rho_batch(xi_max, mu, r, 1.0)[0][0] - r) <= 1e-9 * R
    _report(2, "slow-pursuer branch agreement", started, 1.0)


def test_criterion_3_pursuit_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(103)
    disagreements = 0
    for _ in range(10_000):
        mu = rng.uniform(0.3, 2.5)
        R = rng.uniform(0.3, 2.0)
        r = rng.uniform(0.0, 0.6) * R
        threat = PursuerThreat(Point2(0, 0), mu=mu, engagement_range=R, capture_radius=r)
        xi = rng.uniform(-math.pi, math.pi)
        boundary = rho(xi, threat)
        side = 1.0 if rng.uniform() < 0.5 else -1.0
        offset = max(1.0001e-3 * R, boundary * 10.0 ** rng.uniform(-2.5, -0.3))
        dist = boundary + side * offset
        if dist <= 1e-9:
            dist = boundary + offset
        heading = rng.uniform(-math.pi, math.pi)
        ang = heading - xi + math.pi
        pos = Point2(dist * math.cos(ang), dist * math.sin(ang))
        if ez_contains(pos, heading, threat) != pursuit_capture_possible(pos, heading, threat):
            disagreements += 1
    assert disagreements == 0

    # Boundary samples: the critical intercept spends the whole range
    # budget (collision-course regime, so fast pursuers here).
    for mu in (0.4, 0.7, 0.95):
        threat = PursuerThreat(Point2(0, 0), mu=mu, engagement_range=1.0, capture_radius=0.25)
        for sample in sample_boundary(threat, 0.2, 9):
            pos = Point2(
                threat.position.x + (sample.point.x - threat.position.x) * (1 - 1e-7),
                threat.position.y + (sample.point.y - threat.position.y) * (1 - 1e-7),
            )
            cert = pursuit_capture_certificate(pos, 0.2, threat)
            assert cert is not None
            assert abs(cert[1] - threat.engagement_range) <= 1e-5 * threat.engagement_range
    _report(3, "pursuit oracle equivalence", started, 30.0)


def test_criterion_4_turret_boundary_criticality():
    started = time.monotonic()
    R = 1.0
    for look in (math.pi / 6, 5 * math.pi / 6, -5 * math.pi / 6):
        threat = TurretThreat(Point2(0, 0), look_angle=look, mu=0.5, engagement_range=R)
        samples = sample_turret_boundary(threat, 1000)
        disagreements = 0
        for s in samples:
            theta_f = wrap_angle(threat.look_angle + s.gamma)
            assert -math.pi / 2 - 1e-9 <= theta_f <= math.pi / 2 + 1e-9
            y = s.a0.y
            h = 1e-6
            lo = max(-R + 1e-12, y - h)
            hi = min(R - 1e-12, y + h)
            slope = (boundary_threshold(hi, threat) - boundary_threshold(lo, threat)) / (hi - lo)
            nx, ny = 1.0, -slope  # outward normal of the curve x = M(y)
            scale = math.hypot(nx, ny)
            nx, ny = nx / scale, ny / scale
            inside = Point2(s.a0.x - 1e-3 * R * nx, s.a0.y - 1e-3 * R * ny)
            outside = Point2(s.a0.x + 1e-3 * R * nx, s.a0.y + 1e-3 * R * ny)
            if not turret_neutralization_possible(inside, 0.0, threat):
                disagreements += 1
            if turret_neutralization_possible(outside, 0.0, threat):
                disagreements += 1
        assert disagreements == 0, f"look_angle={look}: {disagreements} offset misclassifications"
    _report(4, "turret boundary criticality", started, 30.0)


def test_criterion_5_circumnavigation_formula():
    started = time.monotonic()
    rng = np.random.default_rng(105)
    done = 0
    while done < 100:
        radius = rng.uniform(0.2, 2.0)
        a0 = Point2(*rng.uniform(-5, 5, 2))
        af = Point2(*rng.uniform(-5, 5, 2))
        if math.hypot(a0.x, a0.y) < radius * 1.05 or math.hypot(af.x, af.y) < radius * 1.05:
            continue
        mu = rng.uniform(0.3, 2.0)
        res = circumnavigate(a0, af, Point2(0, 0), CircumnavSpec("x", radius), mu)
        oracle = shortest_path_around_disk(a0, af, Point2(0, 0), radius, n_arc=1200) / mu
        assert abs(res.t_f - oracle) <= 1e-4 * oracle
        done += 1
    _report(5, "circumnavigation time formula", started, 10.0)


def test_criterion_6_baseline_comparison_structure(golden_plan):
    started = time.monotonic()
    t_ez = golden_plan.t_f
    base = {
        s.label: circumnavigate(GOLDEN_AGENT.start, GOLDEN_AGENT.goal, GOLDEN_THREAT.position, s, MU).t_f
        for s in standard_specs(GOLDEN_THREAT)
    }
    assert base["Apol"] < t_ez < base["Reach"] < base["Worst"]
    pct = {label: percent_difference(t_ez, t) for label, t in base.items()}
    assert pct["Reach"] < 0
    assert pct["Worst"] < 0
    assert pct["Apol"] > 0
    assert abs(pct["Worst"]) > abs(pct["Reach"])
    # constraint rides the zone boundary along a contiguous stretch
    clear = clearances_along(golden_plan.trajectory, [GOLDEN_THREAT])[:, 0]
    active = np.abs(clear) <= GOLDEN_OPTIONS.constraint_tolerance
    best = run = 0
    for flag in active:
        run = run + 1 if flag else 0
        best = max(best, run)
    assert best >= 3
    _report(6, "baseline comparison structure", started, 120.0)


def test_criterion_7_planner_soundness(golden_plan):
    started = time.monotonic()
    assert golden_plan.converged
    report = resample_and_verify(golden_plan, GOLDEN_SCENARIO, 10)
    assert report.worst_clearance >= -10 * GOLDEN_OPTIONS.constraint_tolerance
    assert report.oracle_disagreements == 0
    chord_time = 6.0 / MU
    assert golden_plan.t_f + 1e-9 >= chord_time
    reach = circumnavigate(
        GOLDEN_AGENT.start, GOLDEN_AGENT.goal, GOLDEN_THREAT.position,
        standard_specs(GOLDEN_THREAT)[0], MU,
    )
    assert golden_plan.t_f <= reach.t_f + 1e-8
    warm = plan(Scenario(GOLDEN_AGENT, (GOLDEN_THREAT,),
                         PlannerOptions(constraint_tolerance=1e-4, initialization="circumnav_reach")))
    assert warm.converged
    assert abs(warm.t_f - golden_plan.t_f) / golden_plan.t_f <= 0.005
    _report(7, "planner soundness", started, 120.0)


def test_criterion_8_legacy_model_deviation():
    started = time.monotonic()

    def max_deviation(mu):
        threat = PursuerThreat(Point2(0, 0), mu=mu, engagement_range=1.0, capture_radius=0.25)
        hi = (1 + mu) * 1.0 + 0.25
        lo = (1 - mu) * 1.0 + 0.25
        xs = np.linspace(-math.pi, math.pi, 4001)
        return max(abs(rho(float(x), threat) - rho_legacy(float(x), hi, lo)) for x in xs)

    assert max_deviation(0.9) > max_deviation(0.3)
    _report(8, "legacy-model deviation ordering", started, 1.0)


def test_criterion_9_constraint_jacobian():
    started = time.monotonic()
    problem = transcribe(GOLDEN_SCENARIO)
    rng = np.random.default_rng(109)
    for trial in range(20):
        mode = "circumnav_reach" if trial % 2 else "straight_line"
        z = problem.pack(initialize(GOLDEN_SCENARIO, mode))
        z = z + rng.normal(0.0, 0.05, len(z))
        z[-1] = max(abs(z[-1]), 1.0)
        jac = problem.clearance_jacobian(z)
        fd = np.zeros_like(jac)
        for j in range(len(z)):
            h = 1e-6 * max(1.0, abs(z[j]))
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            fd[:, j] = (problem.clearances(zp) - problem.clearances(zm)) / (2.0 * h)
        scale = np.maximum(1.0, np.maximum(np.abs(jac), np.abs(fd)))
        assert float(np.max(np.abs(jac - fd) / scale)) <= 1e-5
    _report(9, "planner constraint Jacobian", started, 10.0)
