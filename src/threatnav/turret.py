"""Engagement zone for a stationary turret with a slew-rate limit and finite range.

The turret's slew rate is normalized to 1, so the agent speed equals
``mu`` (length per radian of turret motion). The turret neutralizes the
agent the instant its beam points exactly at an in-range agent; it may
slew at any rate up to the limit, including holding still, and it never
runs out of endurance.

Work happens in the agent-heading frame: origin at the turret, x axis
along the agent's heading. The agent then travels along a horizontal
chord of the range disk, and membership reduces to a per-chord threshold
x <= M(y): the furthest-forward start on the chord from which some
in-range point can be reached no sooner than the beam can. The threshold
is the maximum of a handful of closed-form candidates:

* alignment exactly at the chord's range-circle exit (the backtracked
  construction, which dominates for most geometries),
* crossing the initial beam direction inside the disk (a still turret),
* alignment exactly at the chord's range-circle entry,
* an interior stationary point of the chase, where the bearing rate of
  the receding agent matches the slew limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import Point2, angular_separation, atan2_each, wrap_angle, wrap_angles

_GAMMA_SLACK = 1e-9


@dataclass(frozen=True)
class TurretThreat:
    """Slew-limited turret parameters.

    look_angle is the beam direction at t = 0 in the world frame; mu is
    agent speed over maximum slew rate; engagement_range is the beam reach.
    """

    position: Point2
    look_angle: float
    mu: float
    engagement_range: float

    def __post_init__(self) -> None:
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise DomainError(f"mu must be positive and finite, got {self.mu}")
        if not (self.engagement_range > 0.0 and math.isfinite(self.engagement_range)):
            raise DomainError(f"engagement_range must be positive, got {self.engagement_range}")
        if not math.isfinite(self.look_angle):
            raise DomainError(f"look_angle must be finite, got {self.look_angle}")

    def clearance(self, points: np.ndarray, headings: np.ndarray) -> np.ndarray:
        """``turret_clearance`` of every pose, bit for bit: rows of ``points`` with ``headings``."""
        finite = np.isfinite(points).all(axis=1)
        if not finite.all():
            x, y = points[~finite][0]
            raise DomainError(f"point components must be finite, got ({float(x)}, {float(y)})")
        dx = points[:, 0] - self.position.x
        dy = points[:, 1] - self.position.y
        if np.any((dx == 0.0) & (dy == 0.0)):
            raise DomainError("agent exactly at the turret position")
        with np.errstate(invalid="ignore"):  # a non-finite heading raises in the threshold
            ch, sh = np.cos(headings), np.sin(headings)
        x0 = dx * ch + dy * sh
        y0 = -dx * sh + dy * ch
        R = self.engagement_range
        y_c = np.minimum(np.maximum(y0, -R), R)
        return _max(np.abs(y0) - R, x0 - boundary_threshold_batch(y_c, self, headings))


@dataclass(frozen=True)
class TurretBoundaryPoint:
    """Boundary sample in the agent-heading frame (turret at origin).

    gamma is the beam angle traversed in the critical engagement, af the
    neutralization point on the range circle, a0 the agent start position
    backtracked along the heading axis.
    """

    gamma: float
    a0: Point2
    af: Point2


def gamma_range(theta0: float) -> list[tuple[float, float]]:
    """Admissible beam traversal intervals for exit-side neutralization.

    Only engagements that end with the beam in the forward half plane
    (final look angle within [-pi/2, pi/2] mod 2*pi) can coincide with
    the agent exiting the range disk, which restricts the traversal to
    two intervals that depend on where the beam starts. The look angles
    theta0 = +/-pi/2 are classified with the forward-facing case; the
    intervals are continuous across those seams.
    """
    th = wrap_angle(theta0)
    c, s = math.cos(th), math.sin(th)
    if c > 0.0 or c == 0.0:
        return [(-math.pi / 2.0 - th, 0.0), (0.0, math.pi / 2.0 - th)]
    if s > 0.0:
        return [(-math.pi, math.pi / 2.0 - th), (3.0 * math.pi / 2.0 - th, math.pi)]
    return [(-math.pi, -3.0 * math.pi / 2.0 - th), (-math.pi / 2.0 - th, math.pi)]


def boundary_point(gamma: float, threat: TurretThreat) -> TurretBoundaryPoint:
    """Boundary sample for a maximum-rate slew through ``gamma``.

    The beam turns at full rate for |gamma| / 1 time units and meets the
    agent exactly at the range circle; the agent start is that exit point
    backtracked by mu * |gamma| along the heading axis.
    """
    th = wrap_angle(threat.look_angle)
    ok = any(lo - _GAMMA_SLACK <= gamma <= hi + _GAMMA_SLACK for lo, hi in gamma_range(th))
    if not ok:
        raise ValueError(f"gamma={gamma} outside the admissible traversal range for theta0={th}")
    R, mu = threat.engagement_range, threat.mu
    theta_f = th + gamma
    af = Point2(R * math.cos(theta_f), R * math.sin(theta_f))
    a0 = Point2(af.x - mu * abs(gamma), af.y)
    return TurretBoundaryPoint(gamma=gamma, a0=a0, af=af)


def boundary_threshold(y: float, threat: TurretThreat, agent_heading: float = 0.0) -> float:
    """Per-chord zone threshold M(y) in the agent-heading frame.

    A start (x0, y) on the chord is neutralizable iff x0 <= M(y). Raises
    for |y| beyond the range (the chord never enters the disk).
    """
    R, mu = threat.engagement_range, threat.mu
    if abs(y) > R:
        raise DomainError(f"|y|={abs(y)} exceeds the engagement range {R}")
    th = wrap_angle(threat.look_angle - agent_heading)
    if y < 0.0:  # mirror symmetry: reflect chord and beam together
        y, th = -y, wrap_angle(-th)
    if y == 0.0:
        # Chord through the turret: capture just before reaching it
        # (inbound bearing pi) or at the far exit (outbound bearing 0).
        return max(-mu * angular_separation(th, math.pi), R - mu * angular_separation(th, 0.0))
    c = math.sqrt(max(R * R - y * y, 0.0))

    def reach(x: float) -> float:
        return x - mu * angular_separation(th, math.atan2(y, x))

    cands = [reach(c), reach(-c)]
    if math.sin(th) > 0.0:
        x_cross = y * math.cos(th) / math.sin(th)
        if -c <= x_cross <= c:
            cands.append(x_cross)
    if mu > y:
        xs = -math.sqrt(y * (mu - y))
        if -c <= xs <= c and wrap_angle(math.atan2(y, xs) - th) < 0.0:
            cands.append(reach(xs))
    return max(cands)


def _max(a: np.ndarray, b) -> np.ndarray:
    """Python's ``max(a, b)`` per element: ``a`` unless ``b`` is larger."""
    return np.where(b > a, b, a)


def boundary_threshold_batch(y: np.ndarray, threat: TurretThreat, agent_headings: np.ndarray) -> np.ndarray:
    """``boundary_threshold`` of every chord ``y`` with its heading, bit for bit.

    Each candidate of the scalar max is computed for every chord, masked
    where its condition fails, and folded in the scalar's order; the
    chord through the turret (y == 0) takes its own two-candidate max.
    """
    R, mu = threat.engagement_range, threat.mu
    if np.any(np.abs(y) > R):
        raise DomainError(f"|y|={float(np.max(np.abs(y)))} exceeds the engagement range {R}")
    th = wrap_angles(threat.look_angle - agent_headings)
    mirror = y < 0.0
    y = np.where(mirror, -y, y)
    th = np.where(mirror, wrap_angles(-th), th)

    def reach(x, th, bearing):
        return x - mu * np.abs(wrap_angles(th - bearing))

    c = np.sqrt(_max(R * R - y * y, 0.0))
    best = _max(reach(c, th, atan2_each(y, c)), reach(-c, th, atan2_each(y, -c)))
    # crossing the initial beam
    sin_th = np.sin(th)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = y * np.cos(th) / sin_th
    ok = (sin_th > 0.0) & (-c <= x_cross) & (x_cross <= c)
    best = np.where(ok & (x_cross > best), x_cross, best)
    # interior stationary point of the chase
    inner = mu > y
    xs = -np.sqrt(np.where(inner, y * (mu - y), 0.0))
    idx = np.flatnonzero(inner & (-c <= xs) & (xs <= c))
    bearing = atan2_each(y[idx], xs[idx])
    keep = wrap_angles(bearing - th[idx]) < 0.0
    idx, bearing = idx[keep], bearing[keep]
    best[idx] = _max(best[idx], reach(xs[idx], th[idx], bearing))
    # the chord through the turret: inbound bearing pi or outbound bearing 0
    on = np.flatnonzero(y == 0.0)
    best[on] = _max(-mu * np.abs(wrap_angles(th[on] - math.pi)), R - mu * np.abs(wrap_angles(th[on] - 0.0)))
    return best


def ez_contains_turret(agent_pos: Point2, agent_heading: float, threat: TurretThreat) -> bool:
    """True when holding the current heading admits a neutralization time."""
    return turret_clearance(agent_pos, agent_heading, threat) <= 0.0


def turret_clearance(agent_pos: Point2, agent_heading: float, threat: TurretThreat) -> float:
    """Signed margin for planner constraints: positive outside the zone.

    Inside the range band this is the along-heading gap to the chord
    threshold; beyond it, the lateral gap to the range disk. Continuous
    across the band edge, piecewise smooth elsewhere.
    """
    R = threat.engagement_range
    x0, y0 = _frame_coords(agent_pos, agent_heading, threat)
    y_c = min(max(y0, -R), R)
    return max(abs(y0) - R, x0 - boundary_threshold(y_c, threat, agent_heading))


def sample_turret_boundary(threat: TurretThreat, n: int) -> list[TurretBoundaryPoint]:
    """Sample the zone's forward boundary, sweeping the traversal range.

    Each traversal angle fixes a chord through its final look angle; the
    emitted start point sits at that chord's threshold M(y), which equals
    the backtracked exit construction except where a slower slew (down to
    a held beam) reaches the agent earlier. Samples are ordered by final
    look angle so consecutive points trace the boundary polyline.
    """
    if n < 3:
        raise ValueError(f"need at least 3 samples, got {n}")
    th = wrap_angle(threat.look_angle)
    R, mu = threat.engagement_range, threat.mu
    intervals = [(lo, hi) for lo, hi in gamma_range(th) if hi > lo]
    shared_join = len(intervals) == 2 and intervals[0][1] == intervals[1][0]
    total = n + 1 if shared_join else n
    lengths = [hi - lo for lo, hi in intervals]
    n0 = min(max(2, round(total * lengths[0] / sum(lengths))), total - 2)
    counts = [n0, total - n0]

    gammas: list[float] = []
    for (lo, hi), cnt in zip(intervals, counts):
        grid = np.linspace(lo, hi, cnt)
        if shared_join and gammas:
            grid = grid[1:]
        gammas.extend(float(g) for g in grid)

    samples = []
    for g in gammas:
        theta_f = wrap_angle(th + g)
        y = R * math.sin(theta_f)
        x_exit = R * abs(math.cos(theta_f))  # exit side: cos(theta_f) >= 0 up to rounding
        af = Point2(x_exit, y)
        a0 = Point2(boundary_threshold(y, threat), y)
        samples.append(TurretBoundaryPoint(gamma=g, a0=a0, af=af))
    samples.sort(key=lambda s: wrap_angle(th + s.gamma))
    return samples


def _frame_coords(agent_pos: Point2, agent_heading: float, threat: TurretThreat) -> tuple[float, float]:
    dx = agent_pos.x - threat.position.x
    dy = agent_pos.y - threat.position.y
    if dx == 0.0 and dy == 0.0:
        raise DomainError("agent exactly at the turret position")
    ch, sh = math.cos(agent_heading), math.sin(agent_heading)
    return (dx * ch + dy * sh, -dx * sh + dy * ch)
