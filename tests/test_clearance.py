"""Batched ``clearance`` of each threat kind against its frozen scalar closed form."""

import math

import numpy as np
import pytest

from threatnav.geometry import Point2
from threatnav.pursuit import PursuerThreat
from threatnav.turret import TurretThreat

from reference_kernels import signed_clearance, turret_clearance

PURSUERS = (
    PursuerThreat(Point2(0.3, -0.2), mu=0.7, engagement_range=1.0, capture_radius=0.25),
    PursuerThreat(Point2(0.3, -0.2), mu=1.5, engagement_range=1.0, capture_radius=0.25),
    PursuerThreat(Point2(-1.0, 2.0), mu=1.2, engagement_range=0.6, capture_radius=0.0),
)
TURRETS = (
    TurretThreat(Point2(0.3, -0.2), look_angle=math.pi / 6, mu=0.5, engagement_range=1.0),
    TurretThreat(Point2(-1.0, 2.0), look_angle=-2.5, mu=1.3, engagement_range=0.8),
)


def random_poses(rng, centre, n=400, spread=3.0):
    points = np.array(centre.as_tuple()) + rng.uniform(-spread, spread, size=(n, 2))
    headings = rng.uniform(-math.pi, math.pi, size=n)
    return points, headings


def tail_poses(centre):
    """Poses heading straight away from ``centre``: aspect angle exactly +pi or -pi."""
    x, y = centre.x, centre.y
    points = np.array([[x - 1.5, y], [x - 1.5, y], [x + 1.5, y], [x, y - 1.5], [x, y + 1.5]])
    headings = np.array([math.pi, -math.pi, 0.0, -math.pi / 2, math.pi / 2])
    return points, headings


def scalar(fn, threat, points, headings):
    return np.array([fn(Point2(float(x), float(y)), float(h), threat) for (x, y), h in zip(points, headings)])


@pytest.mark.parametrize(
    "threat, closed_form",
    [(t, signed_clearance) for t in PURSUERS] + [(t, turret_clearance) for t in TURRETS],
    ids=["fast", "slow", "slow_r0", "turret_away", "turret_back"],
)
def test_batched_clearance_matches_scalar(threat, closed_form):
    rng = np.random.default_rng(7)
    for points, headings in (random_poses(rng, threat.position), tail_poses(threat.position)):
        batched = threat.clearance(points, headings)
        assert batched.shape == (len(points),)
        assert np.max(np.abs(batched - scalar(closed_form, threat, points, headings))) <= 1e-12


@pytest.mark.parametrize("threat", PURSUERS + TURRETS)
def test_empty_batch(threat):
    assert threat.clearance(np.zeros((0, 2)), np.zeros(0)).shape == (0,)
