import math
import warnings

import numpy as np
import pytest

from threatnav.circumnav import CircumnavSpec, circumnavigate, percent_difference, standard_specs
from threatnav.errors import InfeasibleError
from threatnav.geometry import Point2
from threatnav.pursuit import PursuerThreat
from threatnav.trajectory import Trajectory

ORIGIN = Point2(0, 0)


def shortest_path_around_disk(a0, af, center, radius, n_arc=1500):
    """Independent numeric oracle: shortest a0->af path avoiding the open disk.

    Routes through a dense ring of circle nodes; no tangent-line formulas.
    """
    a = np.array([a0.x - center.x, a0.y - center.y])
    b = np.array([af.x - center.x, af.y - center.y])

    def seg_clears(p, q):
        d = q - p
        dd = float(d @ d)
        t = float(-(p @ d) / dd) if dd else 0.0
        t = min(max(t, 0.0), 1.0)
        closest = p + t * d
        return float(np.hypot(*closest)) >= radius * (1 - 1e-12)

    if seg_clears(a, b):
        return float(np.hypot(*(b - a)))

    ang = np.linspace(-math.pi, math.pi, n_arc, endpoint=False)
    ring = radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)

    def visible_from(p):
        # Segment p -> ring node stays outside the open disk iff the node
        # is on the near side: the closest approach of the segment is at
        # least the radius (node itself is exactly on the circle).
        d = ring - p
        dd = np.einsum("ij,ij->i", d, d)
        t = np.clip(-np.einsum("j,ij->i", p, d) / np.maximum(dd, 1e-300), 0.0, 1.0)
        closest = p + t[:, None] * d
        return np.hypot(closest[:, 0], closest[:, 1]) >= radius * (1 - 1e-9)

    vis_a = visible_from(a)
    vis_b = visible_from(b)
    da = np.hypot(ring[:, 0] - a[0], ring[:, 1] - a[1])
    db = np.hypot(ring[:, 0] - b[0], ring[:, 1] - b[1])
    da[~vis_a] = np.inf
    db[~vis_b] = np.inf
    diff = np.abs(ang[:, None] - ang[None, :])
    arc = radius * np.minimum(diff, 2 * math.pi - diff)
    total = da[:, None] + arc + db[None, :]
    return float(total.min())


class TestCircumnavigate:
    def test_canonical_symmetric_route(self):
        spec = CircumnavSpec("Reach", 1.0)
        res = circumnavigate(Point2(-2, 0), Point2(2, 0), ORIGIN, spec, mu=1.0)
        assert res.t_f == pytest.approx(2 * math.sqrt(3) + math.pi / 3, rel=1e-12)
        assert abs(res.theta1) == pytest.approx(2 * math.pi / 3)
        assert abs(res.theta2) == pytest.approx(math.pi / 3)
        assert res.tangent_in == pytest.approx(res.tangent_out)

    def test_matches_numeric_shortest_path(self):
        rng = np.random.default_rng(21)
        done = 0
        while done < 40:
            radius = rng.uniform(0.2, 2.0)
            a0 = Point2(*rng.uniform(-5, 5, 2))
            af = Point2(*rng.uniform(-5, 5, 2))
            if math.hypot(a0.x, a0.y) < radius * 1.05 or math.hypot(af.x, af.y) < radius * 1.05:
                continue
            mu = rng.uniform(0.3, 2.0)
            res = circumnavigate(a0, af, ORIGIN, CircumnavSpec("x", radius), mu)
            oracle = shortest_path_around_disk(a0, af, ORIGIN, radius) / mu
            assert res.t_f == pytest.approx(oracle, rel=1e-4)
            done += 1

    def test_vanishing_radius_tends_to_chord(self):
        res = circumnavigate(Point2(-2, 0), Point2(2, 0.5), ORIGIN, CircumnavSpec("x", 1e-6), 1.0)
        assert res.t_f == pytest.approx(math.hypot(4, 0.5), rel=1e-6)

    def test_endpoint_inside_circle_rejected(self):
        with pytest.raises(InfeasibleError):
            circumnavigate(Point2(-0.5, 0), Point2(2, 0), ORIGIN, CircumnavSpec("x", 1.0), 1.0)

    def test_unblocked_chord_degenerates_to_straight(self):
        res = circumnavigate(Point2(-2, 2), Point2(2, 2), ORIGIN, CircumnavSpec("x", 1.0), 0.5)
        assert res.degenerate
        assert res.t_f == pytest.approx(4 / 0.5)

    def test_path_length_matches_time(self):
        res = circumnavigate(Point2(-3, 0.3), Point2(3, -0.1), ORIGIN, CircumnavSpec("x", 1.2), 0.9)
        seg = np.hypot(*np.diff(res.path.points, axis=0).T)
        assert float(seg.sum()) == pytest.approx(0.9 * res.t_f, rel=1e-6)
        assert res.path.max_speed_violation() < 1e-9

    def test_path_stays_outside_circle(self):
        res = circumnavigate(Point2(-3, 0.2), Point2(3, 0.4), ORIGIN, CircumnavSpec("x", 1.5), 1.0)
        d = np.hypot(res.path.points[:, 0], res.path.points[:, 1])
        assert np.all(d >= 1.5 * (1 - 1e-9))

    def test_time_monotone_in_radius(self):
        a0, af = Point2(-3, 0.1), Point2(3, -0.2)
        times = [
            circumnavigate(a0, af, ORIGIN, CircumnavSpec("x", rad), 1.0).t_f
            for rad in np.linspace(0.3, 2.4, 15)
        ]
        assert all(t2 >= t1 - 1e-12 for t1, t2 in zip(times, times[1:]))

    def test_junction_tangency(self):
        res = circumnavigate(Point2(-2.5, 0.0), Point2(2.5, 0.7), ORIGIN, CircumnavSpec("x", 1.0), 1.0)
        p1 = np.array([math.cos(res.theta1), math.sin(res.theta1)])
        leg_in = p1 - np.array([-2.5, 0.0])
        assert abs(float(leg_in @ p1)) / np.hypot(*leg_in) <= 1e-9


class TestStandardSpecs:
    def test_golden_parameter_radii(self):
        mu, r = 0.9, 0.2
        R = (2 - r) / (mu + 1)
        threat = PursuerThreat(ORIGIN, mu=mu, engagement_range=R, capture_radius=r)
        specs = {s.label: s.radius for s in standard_specs(threat)}
        assert specs["Worst"] == pytest.approx(2.0, abs=1e-12)
        assert specs["Apol"] == pytest.approx(0.2947368421, abs=1e-9)
        assert specs["Reach"] == pytest.approx(R + r, abs=1e-12)

    def test_apol_omitted_with_warning(self):
        threat = PursuerThreat(ORIGIN, mu=1.5, engagement_range=1.0, capture_radius=0.25)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            specs = standard_specs(threat)
        assert {s.label for s in specs} == {"Reach", "Worst"}
        assert any("Apol" in str(w.message) for w in caught)


class TestPercentDifference:
    def test_zero_when_equal(self):
        assert percent_difference(5.0, 5.0) == 0.0

    def test_reference_magnitudes(self):
        assert percent_difference(7.46 * (1 - 0.0161), 7.46) == pytest.approx(-1.61)
        assert percent_difference(8.44 * (1 - 0.130), 8.44) == pytest.approx(-13.0)

    def test_rejects_nonpositive_baseline(self):
        with pytest.raises(ValueError):
            percent_difference(1.0, 0.0)


def test_from_polyline_drops_zero_length_segments():
    traj = Trajectory.from_polyline([(0.0, 0.0), (0.0, 0.0), (3.0, 4.0), (3.0, 4.0), (3.0, 6.0)], 2.0)
    assert traj.points.tolist() == [[0.0, 0.0], [3.0, 4.0], [3.0, 6.0]]
    assert traj.times.tolist() == [0.0, 2.5, 3.5]
    assert traj.headings[1] == math.pi / 2
