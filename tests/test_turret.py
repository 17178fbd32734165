import math

import numpy as np
import pytest

from threatnav.errors import DomainError
from threatnav.geometry import Point2, wrap_angle
from threatnav.turret import (
    TurretThreat,
    boundary_point,
    boundary_threshold,
    ez_contains_turret,
    gamma_range,
    sample_turret_boundary,
    turret_clearance,
)

AWAY = TurretThreat(Point2(0, 0), look_angle=math.pi / 6, mu=0.5, engagement_range=1.0)
TOWARD = TurretThreat(Point2(0, 0), look_angle=5 * math.pi / 6, mu=0.5, engagement_range=1.0)


def intervals_close(got, expect, tol=1e-12):
    assert len(got) == len(expect)
    for (a, b), (c, d) in zip(got, expect):
        assert a == pytest.approx(c, abs=tol)
        assert b == pytest.approx(d, abs=tol)


class TestGammaRange:
    def test_forward_look(self):
        intervals_close(
            gamma_range(math.pi / 6),
            [(-2 * math.pi / 3, 0.0), (0.0, math.pi / 3)],
        )

    def test_rear_upper_look(self):
        intervals_close(
            gamma_range(5 * math.pi / 6),
            [(-math.pi, -math.pi / 3), (2 * math.pi / 3, math.pi)],
        )

    def test_straight_ahead(self):
        intervals_close(gamma_range(0.0), [(-math.pi / 2, 0.0), (0.0, math.pi / 2)])

    def test_final_look_angle_forward_for_random_starts(self):
        rng = np.random.default_rng(2)
        for theta0 in rng.uniform(-math.pi, math.pi, 1000):
            for lo, hi in gamma_range(theta0):
                for g in np.linspace(lo, hi, 7):
                    tf = wrap_angle(theta0 + g)
                    assert -math.pi / 2 - 1e-9 <= tf <= math.pi / 2 + 1e-9

    def test_square_look_is_case_limit(self):
        # The case split is continuous at cos(theta0) = 0.
        eps = 1e-9
        left = gamma_range(math.pi / 2 - eps)
        right = gamma_range(math.pi / 2)
        for (a, b), (c, d) in zip(left, right):
            assert a == pytest.approx(c, abs=1e-8)
            assert b == pytest.approx(d, abs=1e-8)


class TestBoundaryPoint:
    def test_zero_turn_on_range_circle(self):
        bp = boundary_point(0.0, AWAY)
        assert bp.a0 == bp.af
        assert bp.af.x == pytest.approx(math.cos(math.pi / 6))
        assert bp.af.y == pytest.approx(0.5)

    def test_positive_turn_backtracks(self):
        bp = boundary_point(math.pi / 3, AWAY)
        assert bp.af.x == pytest.approx(0.0, abs=1e-12)
        assert bp.af.y == pytest.approx(1.0)
        # backtrack by mu * |gamma| along the heading axis
        assert bp.a0.x == pytest.approx(-0.5 * math.pi / 3)
        assert bp.a0.y == pytest.approx(1.0)

    def test_negative_turn(self):
        bp = boundary_point(-2 * math.pi / 3, AWAY)
        assert bp.af.x == pytest.approx(0.0, abs=1e-12)
        assert bp.af.y == pytest.approx(-1.0)
        assert bp.a0.x == pytest.approx(-0.5 * 2 * math.pi / 3)

    def test_rejects_out_of_range_gamma(self):
        with pytest.raises(ValueError):
            boundary_point(math.pi / 2, AWAY)  # max allowed is pi/3


class TestThreshold:
    def test_matches_brute_scan(self):
        rng = np.random.default_rng(4)
        for _ in range(120):
            threat = TurretThreat(
                Point2(0, 0),
                look_angle=rng.uniform(-math.pi, math.pi),
                mu=rng.uniform(0.1, 3.0),
                engagement_range=1.0,
            )
            y = rng.uniform(-0.995, 0.995)
            m = boundary_threshold(y, threat)
            for delta in (2e-3, 0.05, 0.4):
                assert _raw_scan_member(m - delta, y, threat)
                assert not _raw_scan_member(m + delta, y, threat)

    def test_rejects_outside_range_band(self):
        with pytest.raises(DomainError):
            boundary_threshold(1.2, AWAY)


class TestMembership:
    def test_boundary_points_on_range_circle(self):
        pos = Point2(math.cos(math.pi / 6), math.sin(math.pi / 6))
        assert ez_contains_turret(pos, math.pi / 6, AWAY)  # radially outbound

    def test_far_field_aimed_at_turret(self):
        for look in (0.0, 1.0, -2.5, math.pi):
            threat = TurretThreat(Point2(0, 0), look_angle=look, mu=0.5, engagement_range=1.0)
            assert ez_contains_turret(Point2(-10, 0), 0.0, threat)

    def test_offset_outside_boundary_sample(self):
        bp = boundary_point(math.pi / 3, AWAY)
        outside = Point2(bp.a0.x, bp.a0.y + 1e-3)
        assert not ez_contains_turret(outside, 0.0, AWAY)
        inside = Point2(bp.a0.x, bp.a0.y - 1e-3)
        assert ez_contains_turret(inside, 0.0, AWAY)

    def test_beyond_range_band_is_safe(self):
        assert not ez_contains_turret(Point2(-5.0, 1.2), 0.0, AWAY)

    def test_agent_at_turret_rejected(self):
        with pytest.raises(DomainError):
            ez_contains_turret(Point2(0, 0), 0.0, AWAY)

    def test_rigid_rotation_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            look = rng.uniform(-math.pi, math.pi)
            threat = TurretThreat(Point2(0, 0), look_angle=look, mu=0.7, engagement_range=1.0)
            x, y = rng.uniform(-2, 1.5), rng.uniform(-1.5, 1.5)
            if x == 0 and y == 0:
                continue
            heading = rng.uniform(-math.pi, math.pi)
            base = ez_contains_turret(Point2(x, y), heading, threat)
            rot = rng.uniform(-math.pi, math.pi)
            cr, sr = math.cos(rot), math.sin(rot)
            rotated = TurretThreat(
                Point2(0, 0), look_angle=look + rot, mu=0.7, engagement_range=1.0
            )
            turned = ez_contains_turret(
                Point2(cr * x - sr * y, sr * x + cr * y), heading + rot, rotated
            )
            assert base == turned


class TestParameters:
    @pytest.mark.parametrize(
        "mu, R", [(1e-170, 1.0), (1e155, 1.0), (0.5, 1e170)], ids=["mu_squared_underflows", "huge_mu", "huge_range"]
    )
    def test_rejects_parameters_that_overflow_the_oracle(self, mu, R):
        with pytest.raises(DomainError) as err:
            TurretThreat(Point2(0, 0), look_angle=0.3, mu=mu, engagement_range=R)
        assert str(err.value) == f"mu {mu} and engagement_range {R} overflow the oracle's in-range quadratic"

    def test_accepts_extreme_parameters_the_oracle_can_scan(self):
        threat = TurretThreat(Point2(0, 0), look_angle=0.0, mu=1e-100, engagement_range=1e100)
        points = np.array([[-0.5e100, 0.1e100], [-3e100, 0.0]])  # in range; out of range and leaving
        assert threat.engageable(points, np.array([0.0, math.pi])).tolist() == [True, False]


class TestSampleBoundary:
    def test_three_sample_endpoints_and_join(self):
        samples = sample_turret_boundary(AWAY, 3)
        gammas = sorted(s.gamma for s in samples)
        assert gammas == pytest.approx([-2 * math.pi / 3, 0.0, math.pi / 3])

    def test_af_on_range_circle_and_forward(self):
        for threat in (AWAY, TOWARD):
            for s in sample_turret_boundary(threat, 101):
                assert math.hypot(s.af.x, s.af.y) == pytest.approx(1.0, abs=1e-12)
                tf = wrap_angle(threat.look_angle + s.gamma)
                assert -math.pi / 2 - 1e-9 <= tf <= math.pi / 2 + 1e-9

    def test_forward_look_matches_backtrack_construction(self):
        # With the beam starting forward, the exit construction is the
        # whole boundary and samples equal the backtracked points.
        for s in sample_turret_boundary(AWAY, 101):
            bp = boundary_point(s.gamma, AWAY)
            assert s.a0.x == pytest.approx(bp.a0.x, abs=1e-9)
            assert s.a0.y == pytest.approx(bp.a0.y, abs=1e-9)

    def test_rear_look_pulls_boundary_to_held_beam(self):
        # With the beam starting behind, chords near the axis are cut by
        # the held-beam ray before the exit construction applies.
        samples = sample_turret_boundary(TOWARD, 2001)
        pulled = [
            s
            for s in samples
            if 0 < wrap_angle(TOWARD.look_angle + s.gamma) < 0.14
        ]
        assert pulled
        for s in pulled:
            bp = boundary_point(s.gamma, TOWARD)
            assert s.a0.x > bp.a0.x + 1e-6

    def test_requested_count(self):
        for threat in (AWAY, TOWARD):
            for n in (3, 10, 137):
                assert len(sample_turret_boundary(threat, n)) == n

    @pytest.mark.parametrize("look_angle", [math.pi / 2, -math.pi / 2], ids=["left", "right"])
    def test_lone_traversal_interval_takes_every_sample(self, look_angle):
        # At a look angle of +/-pi/2 one traversal interval is empty.
        threat = TurretThreat(Point2(0, 0), look_angle=look_angle, mu=0.5, engagement_range=1.0)
        (lo, hi), = [(lo, hi) for lo, hi in gamma_range(look_angle) if hi > lo]
        for n in (3, 10, 360):
            gammas = sorted(s.gamma for s in sample_turret_boundary(threat, n))
            assert gammas == list(np.linspace(lo, hi, n))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            sample_turret_boundary(AWAY, 2)


class TestClearance:
    def test_sign_matches_membership(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            look = rng.uniform(-math.pi, math.pi)
            threat = TurretThreat(Point2(0, 0), look_angle=look, mu=0.6, engagement_range=1.0)
            p = Point2(rng.uniform(-2, 1.2), rng.uniform(-1.4, 1.4))
            if p.x == 0 and p.y == 0:
                continue
            c = turret_clearance(p, 0.0, threat)
            if abs(c) < 1e-9:
                continue
            assert (c < 0) == ez_contains_turret(p, 0.0, threat)

    def test_positive_beyond_range_band(self):
        assert turret_clearance(Point2(-3.0, 1.5), 0.0, AWAY) > 0


def _raw_scan_member(x0, y0, threat, n=200_001):
    """Direct dense check of the neutralization condition along the chord."""
    R, mu = threat.engagement_range, threat.mu
    if abs(y0) > R:
        return False
    c = math.sqrt(R * R - y0 * y0)
    if x0 > c:
        return False
    t0 = max(0.0, (-c - x0) / mu)
    t1 = (c - x0) / mu
    ts = np.linspace(t0, t1, n)
    xs = x0 + mu * ts
    sep = np.abs(
        np.remainder(threat.look_angle - np.arctan2(y0, xs) + math.pi, 2 * math.pi) - math.pi
    )
    return bool(np.any(sep <= ts))
