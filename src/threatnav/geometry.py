"""Planar geometry and angle arithmetic shared by every threat model.

All angles are radians. Wrapped angles live in (-pi, pi]; the upper
endpoint is representable so that a target directly behind the agent
(aspect angle pi) is a valid input everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Point2:
    """Point in the plane, in normalized length units."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DomainError(f"point components must be finite, got ({self.x}, {self.y})")

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


def require_number(name: str, value: float, sign: str = "") -> None:
    """Raise DomainError naming ``name`` unless ``value`` is finite and, per ``sign``, positive or nonnegative."""
    in_sign = {"": True, "positive": value > 0.0, "nonnegative": value >= 0.0}[sign]
    if not (math.isfinite(value) and in_sign):
        raise DomainError(f"{name} must be {sign + ' and ' if sign else ''}finite, got {value}")


def require_finite_poses(points: np.ndarray, headings: np.ndarray) -> None:
    """Raise DomainError naming the first non-finite row of ``points`` (n x 2), else the first non-finite heading."""
    if not np.isfinite(points).all():
        x, y = points[~np.isfinite(points).all(axis=1)][0]
        raise DomainError(f"point components must be finite, got ({float(x)}, {float(y)})")
    require_finite_angles(headings)


def require_finite_angles(angles: np.ndarray) -> None:
    """Raise DomainError naming the first non-finite element of ``angles``, as given."""
    if not np.isfinite(angles).all():
        raise DomainError(f"angle must be finite, got {float(angles[~np.isfinite(angles)][0])}")


def wrap_angle(a: float) -> float:
    """Wrap an angle into (-pi, pi].

    The result differs from ``a`` by an integer multiple of 2*pi and the
    operation is exactly idempotent: wrap(wrap(a)) == wrap(a).
    """
    if not math.isfinite(a):
        raise DomainError(f"angle must be finite, got {a}")
    w = math.remainder(a, TWO_PI)
    if w <= -math.pi:
        w += TWO_PI
    return w


def wrap_angles(a: np.ndarray) -> np.ndarray:
    """``wrap_angle`` of every element, bit for bit.

    ``np.fmod`` is exact (and the identity below 2*pi in magnitude, so
    it is skipped there), and moving its result out of (-2*pi, -pi) or
    (pi, 2*pi) by 2*pi is exact too (Sterbenz's lemma), so this lands on
    the same float as ``math.remainder``; a tie at -pi maps to +pi in
    both.
    """
    w = np.asarray(a, dtype=float)
    largest = float(np.max(np.abs(w))) if w.size else 0.0
    if not largest < TWO_PI:
        if not math.isfinite(largest):
            raise DomainError(f"angle must be finite, got {float(w[~np.isfinite(w)][0])}")
        w = np.fmod(w, TWO_PI)
    w = np.where(w > math.pi, w - TWO_PI, w)
    return np.where(w <= -math.pi, w + TWO_PI, w)


def atan2_each(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``math.atan2`` of every pair: ``np.arctan2`` differs in the last bit on some inputs."""
    return np.fromiter(map(math.atan2, y.tolist(), x.tolist()), float, count=len(y))


def angular_separation(a: float, b: float) -> float:
    """Shortest angular distance between two directions, in [0, pi]."""
    return abs(wrap_angle(a - b))


def distance(a: Point2, b: Point2) -> float:
    """Euclidean distance between two points."""
    return math.hypot(a.x - b.x, a.y - b.y)


def bearing(frm: Point2, to: Point2) -> float:
    """World-frame direction of the ray from ``frm`` to ``to``."""
    if frm.x == to.x and frm.y == to.y:
        raise DomainError("bearing undefined for coincident points")
    return math.atan2(to.y - frm.y, to.x - frm.x)


def aspect_angle(agent_pos: Point2, agent_heading: float, threat_pos: Point2) -> float:
    """Angle between the agent's heading and its line of sight to the threat.

    Zero means the agent is heading straight at the threat. The sign
    convention is heading-minus-bearing: the result is negative when the
    threat lies to the agent's left. Engagement-zone radii are even in
    this angle, so membership tests are insensitive to the sign choice.
    """
    if agent_pos.x == threat_pos.x and agent_pos.y == threat_pos.y:
        raise DomainError("aspect angle undefined when agent and threat coincide")
    return wrap_angle(agent_heading - bearing(agent_pos, threat_pos))
