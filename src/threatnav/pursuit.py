"""Engagement zone for a range-limited, constant-speed pursuer.

The pursuer is normalized to unit speed, so the agent moves at ``mu``
(the agent/pursuer speed ratio). The zone boundary is the locus of agent
start positions from which a straight intercept run exactly exhausts the
pursuer's range budget; its radius depends only on the aspect angle
between the agent's heading and the line of sight to the pursuer.

Two regimes exist. A fast pursuer (mu <= 1) can always close, and the
boundary radius follows a single closed form. A slow pursuer (mu > 1)
can only finish an intercept while the separation is still shrinking,
which caps the usable intercept headings and splits the boundary into a
collision-course arc, a grazing "touch and go" arc, and the bare capture
disk beyond that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .geometry import Point2, aspect_angle, distance, wrap_angle

_RADICAND_SLACK = 1e-14


@dataclass(frozen=True)
class PursuerThreat:
    """Range-limited pursuer parameters.

    mu is the agent/pursuer speed ratio (> 0), engagement_range the total
    path length the pursuer can travel, capture_radius the distance at
    which the agent is considered caught.
    """

    position: Point2
    mu: float
    engagement_range: float
    capture_radius: float = 0.0

    def __post_init__(self) -> None:
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise DomainError(f"mu must be positive and finite, got {self.mu}")
        if not (self.engagement_range > 0.0 and math.isfinite(self.engagement_range)):
            raise DomainError(f"engagement_range must be positive, got {self.engagement_range}")
        if not (self.capture_radius >= 0.0 and math.isfinite(self.capture_radius)):
            raise DomainError(f"capture_radius must be nonnegative, got {self.capture_radius}")

    def clearance(self, points: np.ndarray, headings: np.ndarray) -> np.ndarray:
        """``signed_clearance`` of every pose: rows of ``points`` with ``headings``."""
        d, _, _, xi = self._polar(points, headings)
        return d - np.array([rho(x, self) for x in xi])

    def clearance_gradient(
        self, points: np.ndarray, headings: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-pose partial derivatives of ``clearance`` in x, y and heading."""
        d, dxv, dyv, xi = self._polar(points, headings)
        drho = np.array([rho_derivative(x, self) for x in xi])
        d2 = d * d
        return -dxv / d + drho * dyv / d2, -dyv / d - drho * dxv / d2, -drho

    def _polar(self, points: np.ndarray, headings: np.ndarray):
        """Distance, offsets to the pursuer, and aspect angles in [-pi, pi)."""
        dxv = self.position.x - points[:, 0]
        dyv = self.position.y - points[:, 1]
        xi = np.remainder(headings - np.arctan2(dyv, dxv) + math.pi, 2.0 * math.pi) - math.pi
        return np.hypot(dxv, dyv), dxv, dyv, xi


@dataclass(frozen=True)
class EzBoundarySample:
    """One point of the zone boundary for a fixed agent heading."""

    xi: float
    rho: float
    point: Point2


def _collision_course_rho(xi: float, mu: float, R: float, r: float) -> float:
    """Boundary radius for an intercept that spends the full range budget R.

    Valid wherever the radicand is nonnegative; tiny negative values from
    rounding at the domain edge are clamped to zero.
    """
    c = math.cos(xi)
    rad = c * c - 1.0 + (R + r) ** 2 / (mu * mu * R * R)
    if rad < 0.0:
        if rad < -_RADICAND_SLACK:
            raise DomainError(f"aspect angle {xi} outside the collision-course branch")
        rad = 0.0
    return mu * R * (c + math.sqrt(rad))


def _touch_and_go_rho(xi: float, mu: float, r: float) -> float:
    """Boundary radius for a grazing intercept at the limiting pursuer heading.

    Only meaningful for mu > 1 on aspect angles between the crossover and
    pi - acos(1/mu); there the separation rate is zero at capture.
    """
    ax = abs(xi)
    den = mu * math.sin(ax) - math.sin(ax + math.acos(1.0 / mu))
    return r * math.sqrt(mu * mu - 1.0) / den


def rho_fast(xi: float, threat: PursuerThreat) -> float:
    """Zone boundary radius at aspect angle ``xi`` for a fast pursuer (mu <= 1)."""
    if threat.mu > 1.0:
        raise PreconditionError(f"rho_fast requires mu <= 1, got {threat.mu}")
    return _collision_course_rho(
        wrap_angle(xi), threat.mu, threat.engagement_range, threat.capture_radius
    )


def xi_crossover(threat: PursuerThreat) -> float:
    """Positive aspect angle where the collision-course and grazing arcs meet.

    The closed form is arcsin of a parameter ratio; the supplementary
    angle applies when mu^2 - 1 < r/R (both reduce to pi/2 at equality).
    """
    if threat.mu <= 1.0:
        raise PreconditionError(f"xi_crossover requires mu > 1, got {threat.mu}")
    mu, R, r = threat.mu, threat.engagement_range, threat.capture_radius
    s = math.sqrt(mu * mu - 1.0)
    arg = (R + r) * s / (mu * R * math.sqrt(mu * mu - 1.0 + (r / R) ** 2))
    base = math.asin(min(1.0, max(-1.0, arg)))
    if mu * mu - 1.0 >= r / R:
        return base
    return math.pi - base


def rho_slow(xi: float, threat: PursuerThreat) -> float:
    """Zone boundary radius at aspect angle ``xi`` for a slow pursuer (mu > 1).

    Piecewise: collision-course arc up to the crossover angle, grazing arc
    up to pi - acos(1/mu), and the capture radius beyond. With a zero
    capture radius the last two pieces collapse to zero.
    """
    if threat.mu <= 1.0:
        raise PreconditionError(f"rho_slow requires mu > 1, got {threat.mu}")
    mu, R, r = threat.mu, threat.engagement_range, threat.capture_radius
    ax = abs(wrap_angle(xi))
    if ax <= xi_crossover(threat):
        return _collision_course_rho(ax, mu, R, r)
    if ax <= math.pi - math.acos(1.0 / mu):
        return _touch_and_go_rho(ax, mu, r)
    return r


def rho(xi: float, threat: PursuerThreat) -> float:
    """Zone boundary radius at aspect angle ``xi``; even in ``xi``."""
    if threat.mu <= 1.0:
        return rho_fast(xi, threat)
    return rho_slow(xi, threat)


def rho_derivative(xi: float, threat: PursuerThreat) -> float:
    """d(rho)/d(xi) of the active branch; one-sided at branch joins."""
    mu, R, r = threat.mu, threat.engagement_range, threat.capture_radius
    w = wrap_angle(xi)
    ax = abs(w)
    sign = 1.0 if w >= 0.0 else -1.0
    if threat.mu <= 1.0 or ax <= xi_crossover(threat):
        c, s = math.cos(ax), math.sin(ax)
        rad = max(c * c - 1.0 + (R + r) ** 2 / (mu * mu * R * R), 0.0)
        root = math.sqrt(rad)
        if root == 0.0:
            root = _RADICAND_SLACK
        return sign * (mu * R * (-s - c * s / root))
    if ax <= math.pi - math.acos(1.0 / mu):
        a = math.acos(1.0 / mu)
        den = mu * math.sin(ax) - math.sin(ax + a)
        dden = mu * math.cos(ax) - math.cos(ax + a)
        return sign * (-r * math.sqrt(mu * mu - 1.0) * dden / (den * den))
    return 0.0


def ez_contains(agent_pos: Point2, agent_heading: float, threat: PursuerThreat) -> bool:
    """True when the agent's pose is inside or on the zone boundary."""
    xi = aspect_angle(agent_pos, agent_heading, threat.position)
    return distance(agent_pos, threat.position) <= rho(xi, threat)


def signed_clearance(agent_pos: Point2, agent_heading: float, threat: PursuerThreat) -> float:
    """Distance to the pursuer minus the boundary radius at the current aspect.

    Positive outside the zone, zero on the boundary, negative inside.
    """
    xi = aspect_angle(agent_pos, agent_heading, threat.position)
    return distance(agent_pos, threat.position) - rho(xi, threat)


def sample_boundary(
    threat: PursuerThreat, agent_heading: float, n: int
) -> list[EzBoundarySample]:
    """Sample the zone boundary for a fixed agent heading.

    Aspect angles span [-pi, pi] uniformly; the first and last samples
    coincide in position because the radius is even and periodic. Each
    sample's world position is placed so that its aspect angle relative
    to the given heading reproduces the sample's ``xi``.
    """
    if n < 3:
        raise ValueError(f"need at least 3 samples, got {n}")
    out = []
    for xi in np.linspace(-math.pi, math.pi, n):
        xi = float(xi)
        rad = rho(xi, threat)
        ang = agent_heading - xi + math.pi
        point = Point2(
            threat.position.x + rad * math.cos(ang),
            threat.position.y + rad * math.sin(ang),
        )
        out.append(EzBoundarySample(xi=xi, rho=rad, point=point))
    return out


def rho_legacy(xi: float, rho_max: float, rho_min: float) -> float:
    """Heading-blind comparison model: a cosine blend between two radii.

    Kept only for comparison plots against the engagement-based boundary;
    it is not used as a planning constraint.
    """
    if not rho_max >= rho_min >= 0.0:
        raise ValueError(f"need rho_max >= rho_min >= 0, got {rho_max}, {rho_min}")
    return 0.5 * (math.cos(xi) + 1.0) * (rho_max - rho_min) + rho_min
