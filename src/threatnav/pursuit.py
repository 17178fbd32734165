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
from .geometry import Point2, require_finite_poses, require_number, wrap_angles
from .oracle import pursuit_capture_possible_batch

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
        require_number("mu", self.mu, "positive")
        require_number("engagement_range", self.engagement_range, "positive")
        require_number("capture_radius", self.capture_radius, "nonnegative")
        # The kernels take (R + r)^2 / (mu^2 R^2), the crossover (r / R)^2, and
        # the planner's detours reach the extent: each must stay finite.
        mu, R, r = self.mu, self.engagement_range, self.capture_radius
        scale = mu * mu * R * R
        ratio = (R + r) * (R + r) / scale if scale > 0.0 else math.inf
        if not (scale < math.inf and ratio < math.inf and (r / R) * (r / R) < math.inf
                and self.extent < math.inf):
            raise DomainError(
                f"mu {mu}, engagement_range {R} and capture_radius {r} overflow the zone's closed forms"
            )

    @property
    def keep_out_radius(self) -> float:
        """Radius of the capturability disk, closed to both endpoints: R + r."""
        return self.engagement_range + self.capture_radius

    @property
    def extent(self) -> float:
        """Reach of the zone from the pursuer at any aspect: (1 + mu) R + r."""
        return (1.0 + self.mu) * self.engagement_range + self.capture_radius

    def clearance(self, points: np.ndarray, headings: np.ndarray) -> np.ndarray:
        """Signed clearance of every pose: rows of ``points`` with ``headings``.

        Distance to the pursuer minus the boundary radius at the pose's
        aspect angle: positive outside the zone, zero on the boundary,
        negative inside.
        """
        d, _, _, xi = self._polar(points, headings)
        return d - rho_batch(xi, self)

    def clearance_gradient(
        self, points: np.ndarray, headings: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-pose partial derivatives of ``clearance`` in x, y and heading."""
        d, dxv, dyv, xi = self._polar(points, headings)
        drho = rho_derivative_batch(xi, self)
        d2 = d * d
        return -dxv / d + drho * dyv / d2, -dyv / d - drho * dxv / d2, -drho

    def engageable(self, points: np.ndarray, headings: np.ndarray) -> np.ndarray:
        """Per pose: can this pursuer capture the agent holding its heading? The oracle's verdict."""
        return pursuit_capture_possible_batch(points, headings, self)

    def _polar(self, points: np.ndarray, headings: np.ndarray):
        """Distance, offsets to the pursuer, and aspect angles in [-pi, pi)."""
        require_finite_poses(points, headings)
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


def rho_fast(xi: float, threat: PursuerThreat) -> float:
    """Zone boundary radius at aspect angle ``xi`` for a fast pursuer (mu <= 1)."""
    if threat.mu > 1.0:
        raise PreconditionError(f"rho_fast requires mu <= 1, got {threat.mu}")
    return rho(xi, threat)


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
    """Zone boundary radius at aspect angle ``xi`` for a slow pursuer (mu > 1)."""
    if threat.mu <= 1.0:
        raise PreconditionError(f"rho_slow requires mu > 1, got {threat.mu}")
    return rho(xi, threat)


def rho(xi: float, threat: PursuerThreat) -> float:
    """Zone boundary radius at aspect angle ``xi``; even in ``xi``. One-element ``rho_batch``."""
    return float(rho_batch(np.array([xi], dtype=float), threat)[0])


def rho_derivative(xi: float, threat: PursuerThreat) -> float:
    """d(rho)/d(xi) of the active branch; one-sided at branch joins. One-element ``rho_derivative_batch``."""
    return float(rho_derivative_batch(np.array([xi], dtype=float), threat)[0])


def _collision_course_rho_batch(x: np.ndarray, mu: float, R: float, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Boundary radius for an intercept that spends the full range budget R, and its slope in ``x``.

    Valid wherever the radicand is nonnegative; tiny negative values from
    rounding at the domain edge are clamped to zero, and the slope's root
    is floored at ``_RADICAND_SLACK`` where it would divide by zero.
    """
    c, s = np.cos(x), np.sin(x)
    rad = c * c - 1.0 + (R + r) ** 2 / (mu * mu * R * R)
    low = rad < -_RADICAND_SLACK
    if low.any():
        raise DomainError(f"aspect angle {float(x[low][0])} outside the collision-course branch")
    root = np.sqrt(np.where(rad < 0.0, 0.0, rad))
    return mu * R * (c + root), mu * R * (-s - c * s / np.where(root == 0.0, _RADICAND_SLACK, root))


def _touch_and_go_rho_batch(ax: np.ndarray, mu: float, r: float, sign) -> tuple[np.ndarray, np.ndarray]:
    """Boundary radius for a grazing intercept at the limiting pursuer heading, and its slope times ``sign``.

    Only meaningful for mu > 1 on aspect angles ``ax`` >= 0 between the
    crossover and pi - acos(1/mu); there the separation rate is zero at
    capture.
    """
    a = math.acos(1.0 / mu)
    k = r * math.sqrt(mu * mu - 1.0)
    den = mu * np.sin(ax) - np.sin(ax + a)
    dden = mu * np.cos(ax) - np.cos(ax + a)
    # the sign goes in before the division, so the zero cases stay +0.0
    return _quotient(k, den, r), _quotient(sign * (-k * dden), den * den, 0.0)


def rho_batch(xi: np.ndarray, threat: PursuerThreat) -> np.ndarray:
    """Zone boundary radius at every aspect angle in ``xi``; even in ``xi``.

    A fast pursuer (mu <= 1) has the collision-course arc everywhere. A
    slow one (mu > 1) has it up to the crossover angle, then the grazing
    arc up to pi - acos(1/mu), and the capture radius beyond; with a zero
    capture radius the last two pieces collapse to zero.
    """
    return _rho(xi, threat)[0]


def rho_derivative_batch(xi: np.ndarray, threat: PursuerThreat) -> np.ndarray:
    """d(rho)/d(xi) of the active branch at every aspect angle in ``xi``; one-sided at branch joins."""
    return _rho(xi, threat)[1]


def _rho(xi: np.ndarray, threat: PursuerThreat) -> tuple[np.ndarray, np.ndarray]:
    """``rho_batch`` and ``rho_derivative_batch``: each arc at |xi|, the slope signed like the wrapped xi."""
    mu, R, r = threat.mu, threat.engagement_range, threat.capture_radius
    w = wrap_angles(xi)
    ax = np.abs(w)
    sign = np.where(w >= 0.0, 1.0, -1.0)
    if mu <= 1.0:
        radius, slope = _collision_course_rho_batch(ax, mu, R, r)
        return radius, sign * slope
    course = ax <= xi_crossover(threat)
    graze = ~course & (ax <= math.pi - math.acos(1.0 / mu))
    radius, slope = np.full(len(ax), r), np.zeros(len(ax))
    radius[course], course_slope = _collision_course_rho_batch(ax[course], mu, R, r)
    slope[course] = sign[course] * course_slope
    radius[graze], slope[graze] = _touch_and_go_rho_batch(ax[graze], mu, r, sign[graze])
    return radius, slope


def _quotient(num, den: np.ndarray, at_zero: float) -> np.ndarray:
    """``num / den``, and ``at_zero`` where ``den`` is 0.

    The grazing arc's denominator is 0 at the crossover when r = 0 (or r
    is lost to rounding): r * 0 / 0 there, and the arc's radius is r.
    """
    if den.all():
        return num / den
    zero = den == 0.0
    return np.where(zero, at_zero, num / np.where(zero, 1.0, den))


def ez_contains(agent_pos: Point2, agent_heading: float, threat: PursuerThreat) -> bool:
    """True when the agent's pose is inside or on the zone boundary."""
    return signed_clearance(agent_pos, agent_heading, threat) <= 0.0


def signed_clearance(agent_pos: Point2, agent_heading: float, threat: PursuerThreat) -> float:
    """One-pose ``PursuerThreat.clearance``: positive outside the zone, negative inside."""
    if agent_pos == threat.position:
        raise DomainError("aspect angle undefined when agent and threat coincide")
    return float(threat.clearance(np.array([agent_pos.as_tuple()]), np.array([agent_heading], dtype=float))[0])


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
    xis = np.linspace(-math.pi, math.pi, n)
    out = []
    for xi, rad in zip(xis.tolist(), rho_batch(xis, threat).tolist()):
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
