import math

import numpy as np
import pytest

from threatnav import oracle, pursuit, turret, verification
from threatnav.errors import DomainError
from threatnav.geometry import Point2
from threatnav.oracle import (
    OracleConfig,
    pursuit_capture_certificate,
    pursuit_capture_possible,
    turret_neutralization_possible,
)
from threatnav.pursuit import PursuerThreat, rho, xi_crossover
from threatnav.turret import TurretThreat
from threatnav.verification import pursuit_equivalence_sweep

import reference_kernels as ref

FAST = PursuerThreat(Point2(0, 0), mu=0.7, engagement_range=1.0, capture_radius=0.25)
SLOW = PursuerThreat(Point2(0, 0), mu=1.5, engagement_range=1.0, capture_radius=0.25)


def pose_at(dist, xi, heading, threat):
    ang = heading - xi + math.pi
    return Point2(
        threat.position.x + dist * math.cos(ang),
        threat.position.y + dist * math.sin(ang),
    )


class TestPursuitCapture:
    def test_head_on_bracket(self):
        edge = rho(0.0, FAST)
        assert pursuit_capture_possible(pose_at(edge * 0.999, 0.0, 0.0, FAST), 0.0, FAST)
        assert not pursuit_capture_possible(pose_at(edge * 1.001, 0.0, 0.0, FAST), 0.0, FAST)

    def test_already_captured(self):
        assert pursuit_capture_possible(Point2(0.2, 0.1), 2.0, FAST)

    def test_slow_pursuer_tail_escape(self):
        # Heading directly away at 2r with a slow pursuer: never caught.
        assert not pursuit_capture_possible(Point2(0.5, 0.0), 0.0, SLOW)

    def test_coincident_rejected(self):
        with pytest.raises(DomainError):
            pursuit_capture_possible(Point2(0, 0), 0.0, FAST)

    def test_monotone_in_range_and_capture_radius(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            mu = rng.uniform(0.3, 2.0)
            R = rng.uniform(0.3, 1.5)
            r = rng.uniform(0.0, 0.4)
            base = PursuerThreat(Point2(0, 0), mu=mu, engagement_range=R, capture_radius=r)
            p = Point2(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
            if p.x == 0 and p.y == 0:
                continue
            heading = rng.uniform(-math.pi, math.pi)
            if pursuit_capture_possible(p, heading, base):
                bigger_R = PursuerThreat(
                    Point2(0, 0), mu=mu, engagement_range=R * 1.5, capture_radius=r
                )
                bigger_r = PursuerThreat(
                    Point2(0, 0), mu=mu, engagement_range=R, capture_radius=r + 0.2
                )
                assert pursuit_capture_possible(p, heading, bigger_R)
                assert pursuit_capture_possible(p, heading, bigger_r)

    def test_scan_resolution_convergence(self):
        # Halving the step changes no classification away from the boundary.
        rng = np.random.default_rng(5)
        coarse = OracleConfig(pursuit_step_fraction=2e-3)
        fine = OracleConfig(pursuit_step_fraction=1e-3)
        for _ in range(200):
            mu = rng.uniform(0.3, 2.0)
            threat = PursuerThreat(
                Point2(0, 0), mu=mu, engagement_range=1.0, capture_radius=0.25
            )
            xi = rng.uniform(-math.pi, math.pi)
            side = 1.0 if rng.uniform() < 0.5 else -1.0
            d = rho(xi, threat) + side * max(1.1e-3, rng.uniform(0, 0.5))
            if d <= 1e-6:
                continue
            heading = rng.uniform(-math.pi, math.pi)
            p = pose_at(d, xi, heading, threat)
            assert pursuit_capture_possible(p, heading, threat, coarse) == (
                pursuit_capture_possible(p, heading, threat, fine)
            )


class TestPursuitCertificate:
    def test_boundary_path_length_equals_range(self):
        for xi in np.linspace(-math.pi, math.pi, 17):
            d = rho(float(xi), FAST) * (1 - 1e-7)
            cert = pursuit_capture_certificate(pose_at(d, float(xi), 0.3, FAST), 0.3, FAST)
            assert cert is not None
            _, path = cert
            assert path == pytest.approx(FAST.engagement_range, abs=1e-5)

    def test_inside_capture_disk_is_time_zero(self):
        cert = pursuit_capture_certificate(Point2(0.1, 0.0), 0.0, FAST)
        assert cert == (0.0, 0.0)

    def test_empty_when_impossible(self):
        assert pursuit_capture_certificate(Point2(-3.0, 0), 0.0, FAST) is None

    def test_touch_and_go_has_zero_range_rate(self):
        # On the grazing arc the separation rate vanishes at capture.
        xc = xi_crossover(SLOW)
        xi_max = math.pi - math.acos(1 / SLOW.mu)
        for xi in np.linspace(xc + 0.05, xi_max - 0.05, 5):
            d = rho(float(xi), SLOW) * (1 - 1e-9)
            p = pose_at(d, float(xi), 0.0, SLOW)
            cert = pursuit_capture_certificate(p, 0.0, SLOW)
            assert cert is not None
            t_cap, _ = cert
            h = 1e-4

            def sep(t):
                ax = p.x + SLOW.mu * t * math.cos(0.0)
                ay = p.y
                return math.hypot(ax, ay) - t  # distance minus pursuer reach

            rate = (sep(t_cap + h) - sep(t_cap - h)) / (2 * h)
            assert abs(rate) <= 1e-3


class TestTurretNeutralization:
    def test_crossing_the_held_beam(self):
        threat = TurretThreat(Point2(0, 0), look_angle=math.pi / 2, mu=1.5, engagement_range=1.0)
        assert turret_neutralization_possible(Point2(-0.3, 0.5), 0.0, threat)

    def test_path_outside_range_disk(self):
        threat = TurretThreat(Point2(0, 0), look_angle=0.0, mu=0.5, engagement_range=1.0)
        assert not turret_neutralization_possible(Point2(-3.0, 1.5), 0.0, threat)

    def test_boundary_offsets_classified(self):
        from threatnav.turret import sample_turret_boundary

        threat = TurretThreat(Point2(0, 0), look_angle=math.pi / 6, mu=0.5, engagement_range=1.0)
        samples = sample_turret_boundary(threat, 41)
        for prev, cur, nxt in zip(samples, samples[1:], samples[2:]):
            tx = nxt.a0.x - prev.a0.x
            ty = nxt.a0.y - prev.a0.y
            norm = math.hypot(tx, ty)
            if norm < 1e-12:
                continue
            nx, ny = ty / norm, -tx / norm  # outward: positive x-ish side
            if nx < 0:
                nx, ny = -nx, -ny
            inside = Point2(cur.a0.x - 1e-3 * nx, cur.a0.y - 1e-3 * ny)
            outside = Point2(cur.a0.x + 1e-3 * nx, cur.a0.y + 1e-3 * ny)
            assert turret_neutralization_possible(inside, 0.0, threat)
            assert not turret_neutralization_possible(outside, 0.0, threat)

    def test_coincident_rejected(self):
        threat = TurretThreat(Point2(0, 0), look_angle=0.0, mu=0.5, engagement_range=1.0)
        with pytest.raises(DomainError):
            turret_neutralization_possible(Point2(0, 0), 0.0, threat)


class TestWindowBetweenGridPoints:
    """Engagement windows narrower than one grid step: only the golden-section polish finds them."""

    COARSE = OracleConfig(pursuit_step_fraction=0.125, turret_step_fraction=1.0)  # 8 and 64 grid steps

    @pytest.mark.parametrize("t_peak", [0.31, 0.5625, 0.81])
    def test_pursuit_window(self, t_peak):
        # The agent runs along +x past a slow pursuer at the origin. The
        # capture slack t + r - |A(t)| peaks where the bearing's cosine is
        # 1/mu; place that at t_peak with a peak slack of 1e-4.
        mu, y0 = 1.5, 1.0
        u = y0 / math.sqrt(mu * mu - 1.0)
        x0, r = u - mu * t_peak, 1e-4 + mu * u - t_peak
        threat = PursuerThreat(Point2(0, 0), mu=mu, engagement_range=1.0, capture_radius=r)
        a0 = Point2(x0, y0)
        # The window's ends solve (t + r)^2 = (x0 + mu t)^2 + y0^2.
        qa, qb, qc = mu * mu - 1.0, 2.0 * (x0 * mu - r), x0 * x0 + y0 * y0 - r * r
        root = math.sqrt(qb * qb - 4.0 * qa * qc)
        lo, hi = (-qb - root) / (2.0 * qa), (-qb + root) / (2.0 * qa)
        assert math.floor(8 * lo) == math.floor(8 * hi)  # no grid point k/8 inside
        assert pursuit_capture_possible(a0, 0.0, threat, self.COARSE)
        t_cap, path = pursuit_capture_certificate(a0, 0.0, threat, self.COARSE)
        assert lo - 1e-9 <= t_cap <= hi and path == t_cap
        assert t_cap == pytest.approx(pursuit_capture_certificate(a0, 0.0, threat)[0], abs=1e-9)

    @pytest.mark.parametrize("y0", [0.1, -0.1])
    def test_turret_window(self, y0):
        # A fast agent crosses just in front of a turret looking back at
        # it. Its bearing turns faster than the beam near the closest
        # approach, so the margin t - separation peaks at 1e-6 where the
        # bearing rate is 1, falls, and the agent leaves range before the
        # beam could catch up.
        v, R = 10.0, 2.5
        x_peak = -math.sqrt(v * abs(y0) - y0 * y0)
        x0 = x_peak - v * (math.atan2(abs(y0), -x_peak) + 1e-6)
        threat = TurretThreat(Point2(0, 0), look_angle=math.pi, mu=v, engagement_range=R)
        a0 = Point2(x0, y0)
        # The coarse grid spans the time in range; the margin is below 0 on all of it.
        ts = np.linspace(0.0, (math.sqrt(R * R - y0 * y0) - x0) / v, 65)
        sep = np.abs(np.remainder(-np.arctan2(y0, x0 + v * ts), 2.0 * math.pi) - math.pi)
        assert np.all(ts - sep < 0.0)
        assert turret_neutralization_possible(a0, 0.0, threat, self.COARSE)
        assert turret_neutralization_possible(a0, 0.0, threat)


TURRET = TurretThreat(Point2(0, 0), look_angle=0.0, mu=0.5, engagement_range=1.0)
ROWS_PER_BLOCK = oracle._BLOCK // 1001  # pursuer poses per scan block on the default grid


class TestEngageable:
    """``engageable`` is the oracle over a block of poses: the frozen one-pose scan's verdicts, pose by pose."""

    @pytest.mark.parametrize("mu", verification._MUS)
    def test_pursuer_blocks_match_one_pose_calls(self, mu):
        threat = PursuerThreat(Point2(0.3, -0.2), mu=mu, engagement_range=1.0, capture_radius=0.25)
        rng = np.random.default_rng(11)
        n = 3 * ROWS_PER_BLOCK + 7  # four blocks, the last one short
        xi, headings, scale = rng.uniform(-math.pi, math.pi, (3, n))
        points = []
        for x, h, u in zip(xi.tolist(), headings.tolist(), scale.tolist()):
            p = pose_at(rho(x, threat) * (1.0 + 0.3 * (u / math.pi)), x, h, threat)
            points.append((p.x, p.y))
        points = np.array(points)
        got = threat.engageable(points, headings)
        poses = [(Point2(*p), h) for p, h in zip(points.tolist(), headings.tolist())]
        want = [ref.pursuit_capture_possible(p, h, threat) for p, h in poses]
        assert got.dtype == bool and got.tolist() == want
        assert [pursuit_capture_possible(p, h, threat) for p, h in poses] == want
        assert 0 < sum(want) < n

    @pytest.mark.parametrize("look", verification._LOOKS)
    def test_turret_blocks_match_one_pose_calls(self, look):
        threat = TurretThreat(Point2(0.1, 0.2), look_angle=look, mu=0.5, engagement_range=1.0)
        rng = np.random.default_rng(12)
        points = threat.position.as_tuple() + rng.uniform(-1.2, 1.2, (60, 2))
        headings = rng.uniform(-math.pi, math.pi, 60)
        got = threat.engageable(points, headings)
        poses = [(Point2(*p), h) for p, h in zip(points.tolist(), headings.tolist())]
        want = [ref.turret_neutralization_possible(p, h, threat) for p, h in poses]
        assert got.dtype == bool and got.tolist() == want
        assert [turret_neutralization_possible(p, h, threat) for p, h in poses] == want
        assert 0 < sum(want) < 60

    @pytest.mark.parametrize("threat", [FAST, TURRET])
    def test_no_poses(self, threat):
        got = threat.engageable(np.zeros((0, 2)), np.zeros(0))
        assert got.shape == (0,) and got.dtype == bool

    @pytest.mark.parametrize(
        "threat, text", [(FAST, "agent exactly at the pursuer position"), (TURRET, "agent exactly at the turret position")]
    )
    def test_pose_on_the_threat(self, threat, text):
        with pytest.raises(DomainError) as err:
            threat.engageable(np.array([[1.0, 1.0], [0.0, 0.0]]), np.zeros(2))
        assert str(err.value) == text

    def test_reads_no_closed_form(self, monkeypatch):
        def closed_form(*args, **kwargs):
            raise AssertionError("the oracle called a closed form")

        monkeypatch.setattr(pursuit, "_rho", closed_form)
        monkeypatch.setattr(turret, "_threshold", closed_form)
        for kind in (PursuerThreat, TurretThreat):
            monkeypatch.setattr(kind, "clearance", closed_form)
            monkeypatch.setattr(kind, "clearance_gradient", closed_form)
        held_beam = TurretThreat(Point2(0, 0), look_angle=math.pi / 2, mu=1.5, engagement_range=1.0)
        points, headings = np.array([[0.2, 0.1], [-3.0, 0.0]]), np.array([2.0, 0.0])
        assert FAST.engageable(points, headings).tolist() == [True, False]
        points = np.array([[-0.3, 0.5], [-3.0, 1.5]])
        assert held_beam.engageable(points, np.zeros(2)).tolist() == [True, False]


def test_no_pursuit_polish_starts_below_the_rise_bound(monkeypatch):
    # Between grid points h apart the slack t + r - |A(t) - P| climbs at most
    # (1 + mu) h, so a local maximum below -(1 + mu) h is never polished.
    ts = np.linspace(0.0, 1.0, 1001)  # the sweep's grid: R = 1, default config
    h = float(np.max(np.diff(ts)))
    threats, starts = [], []
    slack, golden_max = oracle._pursuit_slack, oracle._golden_max

    def recording_slack(threat):
        threats.append(threat)
        return slack(threat)

    def recording_golden_max(f, lo, hi, iters):
        peak = ts[int(np.searchsorted(ts, lo)) + 1]
        starts.append((f(peak), threats[-1].mu))
        return golden_max(f, lo, hi, iters)

    monkeypatch.setattr(oracle, "_pursuit_slack", recording_slack)
    monkeypatch.setattr(oracle, "_golden_max", recording_golden_max)
    results = pursuit_equivalence_sweep(200, seed=3)
    assert [r.disagreements for r in results] == [0] * len(verification._MUS)
    assert starts  # some maxima were polished
    assert all(peak >= -(1.0 + mu) * h for peak, mu in starts)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_one_pose_oracles_name_a_non_finite_heading(bad):
    for call in (
        lambda: pursuit_capture_possible(Point2(1.0, 1.0), bad, FAST),
        lambda: pursuit_capture_certificate(Point2(1.0, 1.0), bad, FAST),
        lambda: turret_neutralization_possible(Point2(1.0, 1.0), bad, TURRET),
    ):
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == f"angle must be finite, got {bad}"
