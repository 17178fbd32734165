import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from threatnav.errors import PreconditionError
from threatnav.geometry import Point2, aspect_angle
from threatnav.pursuit import (
    PursuerThreat,
    _collision_course_rho_batch,
    _touch_and_go_rho_batch,
    ez_contains,
    rho,
    rho_derivative,
    rho_fast,
    rho_legacy,
    rho_slow,
    sample_boundary,
    signed_clearance,
    xi_crossover,
)

FAST = PursuerThreat(Point2(0, 0), mu=0.7, engagement_range=1.0, capture_radius=0.25)
SLOW = PursuerThreat(Point2(0, 0), mu=1.5, engagement_range=1.0, capture_radius=0.25)


def random_threat(rng, mu_lo, mu_hi, r_min_frac=0.0):
    mu = rng.uniform(mu_lo, mu_hi)
    R = rng.uniform(0.2, 3.0)
    r = rng.uniform(r_min_frac, 1.0) * R
    return PursuerThreat(Point2(0, 0), mu=mu, engagement_range=R, capture_radius=r)


class TestRhoFast:
    def test_head_on(self):
        assert rho_fast(0.0, FAST) == pytest.approx(1.95, abs=1e-12)

    def test_tail_aspect(self):
        assert rho_fast(math.pi, FAST) == pytest.approx(0.55, abs=1e-12)

    def test_beam_aspect(self):
        # sqrt((R+r)^2 - mu^2 R^2) at xi = pi/2
        expect = math.sqrt(1.25**2 - 0.49)
        assert rho_fast(math.pi / 2, FAST) == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(1.0356, abs=1e-4)

    def test_rejects_slow(self):
        with pytest.raises(PreconditionError):
            rho_fast(0.0, SLOW)

    def test_endpoint_identities_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            t = random_threat(rng, 0.05, 0.95)
            hi = (1 + t.mu) * t.engagement_range + t.capture_radius
            lo = (1 - t.mu) * t.engagement_range + t.capture_radius
            assert rho_fast(0.0, t) == pytest.approx(hi, rel=1e-12)
            assert rho_fast(math.pi, t) == pytest.approx(lo, rel=1e-12)


class TestRhoSlow:
    def test_head_on(self):
        assert rho_slow(0.0, SLOW) == pytest.approx(2.75, abs=1e-12)

    def test_tail_is_capture_radius(self):
        assert rho_slow(math.pi, SLOW) == 0.25

    def test_grazing_limit_angle(self):
        xi_max = math.pi - math.acos(1 / 1.5)
        assert xi_max == pytest.approx(2.3005, abs=1e-4)
        assert rho_slow(xi_max, SLOW) == pytest.approx(0.25, abs=1e-9)

    def test_rejects_fast(self):
        with pytest.raises(PreconditionError):
            rho_slow(0.0, FAST)

    def test_branch_agreement_random(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            t = random_threat(rng, 1.0001, 3.0, r_min_frac=0.01)
            xc = xi_crossover(t)
            at = np.array([xc])
            b1 = _collision_course_rho_batch(at, t.mu, t.engagement_range, t.capture_radius)[0]
            b2 = _touch_and_go_rho_batch(at, t.mu, t.capture_radius)[0]
            assert abs(b1 - b2) <= 1e-9 * t.engagement_range

    def test_zero_capture_radius_collapses_outer_branches(self):
        t = PursuerThreat(Point2(0, 0), mu=2.0, engagement_range=1.0, capture_radius=0.0)
        xc = xi_crossover(t)
        assert xc == pytest.approx(math.asin(0.5))
        assert rho_slow(xc + 1e-6, t) == pytest.approx(0.0, abs=1e-5)
        assert rho_slow(math.pi, t) == 0.0


class TestXiCrossover:
    def test_reference_value(self):
        assert xi_crossover(SLOW) == pytest.approx(0.9497, abs=1e-4)

    def test_requires_slow(self):
        with pytest.raises(PreconditionError):
            xi_crossover(FAST)

    def test_window_nonempty_near_unity(self):
        t = PursuerThreat(Point2(0, 0), mu=1.01, engagement_range=1.0, capture_radius=0.25)
        assert 0 < xi_crossover(t) < math.pi - math.acos(1 / t.mu)

    def test_within_grazing_window_random(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            t = random_threat(rng, 1.0001, 3.0, r_min_frac=0.005)
            assert 0 < xi_crossover(t) < math.pi - math.acos(1 / t.mu) + 1e-12


class TestRhoDispatch:
    def test_fast_dispatch(self):
        assert rho(0.3, FAST) == rho_fast(0.3, FAST)

    def test_slow_dispatch(self):
        assert rho(0.3, SLOW) == rho_slow(0.3, SLOW)

    def test_unity_uses_fast_branch(self):
        t = PursuerThreat(Point2(0, 0), mu=1.0, engagement_range=1.0, capture_radius=0.25)
        assert rho(0.0, t) == pytest.approx(2.25, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
        st.floats(min_value=0.05, max_value=2.5, allow_nan=False),
        st.floats(min_value=0.1, max_value=2.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_even_and_dominates_capture_radius(self, xi, mu, R, r_frac):
        t = PursuerThreat(Point2(0, 0), mu=mu, engagement_range=R, capture_radius=r_frac * R)
        assert rho(xi, t) == pytest.approx(rho(-xi, t), rel=1e-12, abs=1e-12)
        assert rho(xi, t) >= t.capture_radius - 1e-12

    def test_monotone_nonincreasing_for_fast(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            t = random_threat(rng, 0.05, 1.0)
            xs = np.linspace(0.0, math.pi, 400)
            vals = [rho(x, t) for x in xs]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            t = random_threat(rng, 0.05, 0.95, r_min_frac=0.05)
            xi = rng.uniform(-3.0, 3.0)
            h = 1e-6
            fd = (rho(xi + h, t) - rho(xi - h, t)) / (2 * h)
            assert rho_derivative(xi, t) == pytest.approx(fd, rel=1e-4, abs=1e-7)


class TestMembership:
    def test_outside_head_on(self):
        assert not ez_contains(Point2(-1.96, 0), 0.0, FAST)

    def test_boundary_counts_inside(self):
        # Place the agent exactly at the computed boundary radius: the
        # comparison is <=, so the boundary itself is inside the zone.
        edge = rho(0.0, FAST)
        assert edge == pytest.approx(1.95, abs=1e-12)
        assert ez_contains(Point2(-edge, 0), 0.0, FAST)
        assert ez_contains(Point2(-1.9499999, 0), 0.0, FAST)

    def test_inside_tail(self):
        assert ez_contains(Point2(0.5, 0), 0.0, FAST)  # threat dead astern

    def test_clearance_signs(self):
        boundary = sample_boundary(FAST, 0.0, 33)[7]
        assert signed_clearance(boundary.point, 0.0, FAST) == pytest.approx(0.0, abs=1e-12)
        assert signed_clearance(Point2(-2.05, 0), 0.0, FAST) == pytest.approx(0.1, abs=1e-12)
        assert signed_clearance(Point2(0.45, 0), 0.0, FAST) == pytest.approx(-0.10, abs=1e-12)


class TestSampleBoundary:
    def test_four_sample_aspects(self):
        samples = sample_boundary(FAST, 0.0, 4)
        got = [s.xi for s in samples]
        expect = [-math.pi, -math.pi / 3, math.pi / 3, math.pi]
        assert got == pytest.approx(expect)
        for s in samples:
            assert s.rho == pytest.approx(rho(s.xi, FAST))

    def test_closed_curve(self):
        samples = sample_boundary(FAST, 0.4, 21)
        first, last = samples[0], samples[-1]
        assert first.point.x == pytest.approx(last.point.x, abs=1e-12)
        assert first.point.y == pytest.approx(last.point.y, abs=1e-12)

    def test_samples_reproduce_aspect_angle(self):
        heading = 0.7
        for s in sample_boundary(FAST, heading, 17):
            if abs(abs(s.xi) - math.pi) < 1e-12:
                continue  # sign of pi is convention
            assert aspect_angle(s.point, heading, FAST.position) == pytest.approx(
                s.xi, abs=1e-9
            )

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            sample_boundary(FAST, 0.0, 2)


class TestRhoLegacy:
    def test_endpoints(self):
        assert rho_legacy(0.0, 1.95, 0.55) == 1.95
        assert rho_legacy(math.pi, 1.95, 0.55) == pytest.approx(0.55)

    def test_midpoint(self):
        assert rho_legacy(math.pi / 2, 1.95, 0.55) == pytest.approx(1.25)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            rho_legacy(0.0, 0.5, 0.6)

    def test_deviation_grows_with_mu(self):
        # The blend model strays further from the engagement-based
        # boundary at high speed ratios.
        def max_dev(mu):
            t = PursuerThreat(Point2(0, 0), mu=mu, engagement_range=1.0, capture_radius=0.25)
            hi = (1 + mu) * 1.0 + 0.25
            lo = (1 - mu) * 1.0 + 0.25
            xs = np.linspace(-math.pi, math.pi, 2001)
            return max(abs(rho(x, t) - rho_legacy(x, hi, lo)) for x in xs)

        assert max_dev(0.9) > max_dev(0.3)
