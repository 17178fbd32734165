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
from .geometry import (
    TWO_PI,
    Point2,
    require_finite_angles,
    require_finite_poses,
    require_number,
    wrap_angle,
    wrap_angles,
)
from .oracle import turret_neutralization_possible_batch

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
        require_number("mu", self.mu, "positive")
        require_number("engagement_range", self.engagement_range, "positive")
        require_number("look_angle", self.look_angle)
        # The oracle's in-range quadratic divides by mu^2 and takes R^2 and (mu R)^2.
        mu, R = self.mu, self.engagement_range
        if not all(0.0 < q < math.inf for q in (mu * mu, R * R, (mu * R) * (mu * R))):
            raise DomainError(f"mu {mu} and engagement_range {R} overflow the oracle's in-range quadratic")

    @property
    def keep_out_radius(self) -> float:
        return 0.0  # no disk around a turret is closed to an endpoint

    @property
    def extent(self) -> float:
        return self.engagement_range

    def clearance(self, points: np.ndarray, headings: np.ndarray) -> np.ndarray:
        """Signed margin of every pose: rows of ``points`` with ``headings``.

        Positive outside the zone. Inside the range band this is the
        along-heading gap to the chord threshold; beyond it, the lateral
        gap to the range disk. Continuous across the band edge, piecewise
        smooth elsewhere.
        """
        return self.clearance_and_gradient(points, headings)[0]

    def engageable(self, points: np.ndarray, headings: np.ndarray) -> np.ndarray:
        """Per pose: can this turret neutralize the agent holding its heading? The oracle's verdict."""
        return turret_neutralization_possible_batch(points, headings, self)

    def clearance_and_gradient(
        self, points: np.ndarray, headings: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``clearance`` of every pose and its partials in x, y and heading, from one choice of piece.

        Each pose takes the larger of ``|y0| - R`` and ``x0 - M(y0, look_angle - heading)`` (on a tie,
        the first) and differentiates that piece; dM/dy is 0 at |y0| = R, where y0 is clamped.
        """
        x0, y0, ch, sh = self._frame(points, headings)
        R = self.engagement_range
        m, m_y, m_th = _threshold(np.minimum(np.maximum(y0, -R), R), self, headings)
        along = x0 - m
        pieces = along, ch + m_y * sh, sh - m_y * ch, y0 + m_y * x0 + m_th
        lateral = np.abs(y0) - R
        beyond = ~(along > lateral)
        if np.count_nonzero(beyond):  # each piece is a fresh array, so the lateral one is written into it
            side = np.sign(y0)
            for piece, other in zip(pieces, (lateral, -side * sh, side * ch, -side * x0)):
                np.copyto(piece, other, where=beyond)
        return pieces

    def _frame(self, points: np.ndarray, headings: np.ndarray):
        """Agent-heading frame of every pose: x0 along the heading, y0 to its left, cos and sin of the heading."""
        require_finite_poses(points, headings)
        dx = points[:, 0] - self.position.x
        dy = points[:, 1] - self.position.y
        if not np.hypot(dx, dy).all():  # a finite hypot is 0 only where both offsets are
            raise DomainError("agent exactly at the turret position")
        ch, sh = np.cos(headings), np.sin(headings)
        return dx * ch + dy * sh, -dx * sh + dy * ch, ch, sh


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
    """Per-chord zone threshold M(y) in the agent-heading frame; one-element ``boundary_threshold_batch``."""
    return float(boundary_threshold_batch(np.array([y], dtype=float), threat, np.array([agent_heading], dtype=float))[0])


def boundary_threshold_batch(y: np.ndarray, threat: TurretThreat, agent_headings: np.ndarray) -> np.ndarray:
    """Per-chord zone threshold M(y) of every chord ``y`` with its agent heading.

    A start (x0, y) on the chord is neutralizable iff x0 <= M(y). Raises
    for |y| beyond the range (the chord never enters the disk), and names
    a non-finite heading or chord offset as given.
    """
    require_finite_angles(agent_headings)
    R = threat.engagement_range
    if not (np.abs(y) <= R).all():
        bad = y[~np.isfinite(y)]
        if bad.size:
            raise DomainError(f"chord offset must be finite, got {float(bad[0])}")
        raise DomainError(f"|y|={float(np.abs(y).max())} exceeds the engagement range {R}")
    return _threshold(y, threat, agent_headings)[0]


def _threshold(y: np.ndarray, threat: TurretThreat, agent_headings: np.ndarray):
    """M(y) of ``boundary_threshold_batch`` and its partials in y and in th = look_angle - heading.

    M(y) folds the exit and entry alignments, the held-beam crossing and the interior stationary point
    in that order (the chord through the turret has its own pair). The partials follow the winner: with
    c = sqrt(R^2 - y^2), dM/dy is -(y + dM/dth) / c at the exit, (y + dM/dth) / c at the entry, cot th at
    the crossing (dM/dth = -y / sin^2 th), xs / y at the stationary point (envelope theorem), 0 on y == 0.
    The exit, entry and stationary-point candidates share one bearing pass; each later fold writes only
    the chords it wins and is skipped when it wins none. Every |y| is at most R: the callers clamp or check it.
    """
    R, mu = threat.engagement_range, threat.mu
    th = wrap_angles(threat.look_angle - agent_headings)
    mirror = y < 0.0  # mirror symmetry: reflect chord and beam together (and the partials)
    flip = np.count_nonzero(mirror) > 0
    if flip:
        y = np.abs(y)  # -0.0 becomes 0.0 too, but every y == 0 row is settled below from th alone
        np.negative(th, out=th, where=mirror & (th != math.pi))  # wrap(-pi) is pi

    def reach(x, th, bearing):
        gap = _wrap_gap(th - bearing)
        return x - mu * np.abs(gap), -mu * np.sign(gap), gap

    n = len(y)
    c = np.sqrt(R * R - y * y)  # |y| <= R, so y * y <= R * R after rounding too
    inv_c = np.zeros(n)
    np.divide(1.0, c, out=inv_c, where=c > 0.0)
    # the interior stationary point of the chase, where it lies on the chord (y == 0 is settled below)
    idx, xs = ((y > 0.0) & (y < mu)).nonzero()[0], np.empty(0)
    if idx.size:
        root = np.sqrt(y[idx] * (mu - y[idx]))
        on_chord = root <= c[idx]
        idx, xs = idx[on_chord], -root[on_chord]
    # exit, entry and stationary point in one pass
    x = np.concatenate([c, -c, xs])
    value, slope, gap = reach(x, np.concatenate([th, th, th[idx]]), np.arctan2(np.concatenate([y, y, y[idx]]), x))
    best, m_th, entry, entry_th = value[:n], slope[:n], value[n : 2 * n], slope[n : 2 * n]
    m_y = -(y + m_th) * inv_c
    take = entry > best
    np.copyto(best, entry, where=take)
    np.copyto(m_y, (y + entry_th) * inv_c, where=take)
    np.copyto(m_th, entry_th, where=take)
    # crossing the initial beam, where sin th > 0; elsewhere x_cross is -inf, before the entry -c
    sin_th, cos_th = np.sin(th), np.cos(th)
    x_cross = np.full(n, -math.inf)
    np.divide(y * cos_th, sin_th, out=x_cross, where=sin_th > 0.0)
    cross = (x[n : 2 * n] <= x_cross) & (x_cross <= c) & (x_cross > best)
    if np.count_nonzero(cross):
        s = sin_th[cross]
        with np.errstate(divide="ignore", invalid="ignore"):  # s * s may underflow to 0
            best[cross], m_y[cross], m_th[cross] = x_cross[cross], cos_th[cross] / s, -y[cross] / (s * s)
    if idx.size:  # a stationary point counts where wrap(bearing - th) < 0, that is where 0 < gap < pi
        value, slope, gap = value[2 * n :], slope[2 * n :], gap[2 * n :]
        win = (gap > 0.0) & (gap < math.pi) & (value > best[idx])
        idx = idx[win]
        best[idx], m_y[idx], m_th[idx] = value[win], xs[win] / y[idx], slope[win]
    # the chord through the turret: inbound bearing pi (-0.0 - mu|gap| is -mu|gap|) or outbound bearing 0
    on = y == 0.0
    if np.count_nonzero(on):
        (inbound, in_th, _), (outbound, out_th, _) = reach(-0.0, th[on], math.pi), reach(R, th[on], 0.0)
        out = outbound > inbound
        best[on], m_y[on], m_th[on] = np.where(out, outbound, inbound), 0.0, np.where(out, out_th, in_th)
    if flip:
        np.negative(m_y, out=m_y, where=mirror)
        np.negative(m_th, out=m_th, where=mirror)
    return best, m_y, m_th


def _wrap_gap(w: np.ndarray) -> np.ndarray:
    """``wrap_angles`` of w in [-2 pi, 2 pi], with no ``np.fmod``: one shift by 2 pi is exact there.

    The one difference is the sign of a zero: -2 pi wraps to 0.0 here and to
    -0.0 through ``np.fmod``. Neither ``np.abs`` nor ``np.sign`` reads it.
    """
    w = np.where(w > math.pi, w - TWO_PI, w)
    return np.where(w <= -math.pi, w + TWO_PI, w)


def ez_contains_turret(agent_pos: Point2, agent_heading: float, threat: TurretThreat) -> bool:
    """True when holding the current heading admits a neutralization time."""
    return turret_clearance(agent_pos, agent_heading, threat) <= 0.0


def turret_clearance(agent_pos: Point2, agent_heading: float, threat: TurretThreat) -> float:
    """One-pose ``TurretThreat.clearance``: positive outside the zone."""
    return float(threat.clearance(np.array([agent_pos.as_tuple()]), np.array([agent_heading], dtype=float))[0])


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
    counts = [n0, total - n0] if len(intervals) == 2 else [total]  # a lone interval takes every sample

    gammas: list[float] = []
    for (lo, hi), cnt in zip(intervals, counts):
        grid = np.linspace(lo, hi, cnt)
        if shared_join and gammas:
            grid = grid[1:]
        gammas.extend(float(g) for g in grid)

    finals = [wrap_angle(th + g) for g in gammas]
    ys = [R * math.sin(theta_f) for theta_f in finals]
    xs = boundary_threshold_batch(np.array(ys), threat, np.zeros(len(ys))).tolist()
    samples = []
    for g, theta_f, y, x in zip(gammas, finals, ys, xs):
        x_exit = R * abs(math.cos(theta_f))  # exit side: cos(theta_f) >= 0 up to rounding
        samples.append(TurretBoundaryPoint(gamma=g, a0=Point2(x, y), af=Point2(x_exit, y)))
    samples.sort(key=lambda s: wrap_angle(th + s.gamma))
    return samples

