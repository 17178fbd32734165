"""Tangent-arc-tangent circumnavigation baselines around a threat-centered circle.

The minimum-time route around a single circular keep-out of radius Rhat
is a straight tangent leg, an arc on the circle, and a straight tangent
leg out. Both winding directions are evaluated and the shorter kept.
Travel time is path length divided by the agent speed ``mu`` (threat
speed normalized to 1).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import InfeasibleError
from .geometry import Point2, distance, wrap_angle
from .trajectory import Trajectory
from .pursuit import PursuerThreat

_ARC_POINTS = 2048


@dataclass(frozen=True)
class CircumnavSpec:
    """A labeled circumnavigation circle radius."""

    label: str
    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0.0:
            raise ValueError(f"circumnavigation radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class CircumnavResult:
    """Analytic route summary plus a constant-speed polyline of the path.

    t_f is the exact tangent+arc time; the trajectory's own final time is
    the polyline (chord) time and approaches t_f as the arc is refined.
    degenerate marks routes where the chord never crossed the circle and
    the straight segment was returned instead.
    """

    t_f: float
    theta1: float
    theta2: float
    tangent_in: float
    tangent_out: float
    path: Trajectory
    degenerate: bool = False


def standard_specs(threat: PursuerThreat) -> list[CircumnavSpec]:
    """The three canonical radii for a range-limited pursuer.

    Reach rings the capturability disk (range plus capture radius); Worst
    adds the distance an inbound agent needs to outrun an intercept; Apol
    is the bare-escape radius and only exists for mu < 1.
    """
    mu, R, r = threat.mu, threat.engagement_range, threat.capture_radius
    specs = [
        CircumnavSpec("Reach", threat.keep_out_radius),
        CircumnavSpec("Worst", threat.extent),
    ]
    apol = (1.0 - mu) * R + r
    if apol > 0.0:
        specs.append(CircumnavSpec("Apol", apol))
    else:
        warnings.warn(
            f"Apol radius {apol:.6g} is not positive for mu={mu}; spec omitted",
            stacklevel=2,
        )
    return specs


def percent_difference(t_ez: float, t_circ: float) -> float:
    """Relative time difference of the zone-based plan, in percent.

    Negative means the zone-based plan is faster than the baseline.
    """
    if not t_circ > 0.0:
        raise ValueError(f"baseline time must be positive, got {t_circ}")
    return 100.0 * (t_ez - t_circ) / t_circ


def circumnavigate(
    a0: Point2,
    af: Point2,
    threat_pos: Point2,
    spec: CircumnavSpec,
    mu: float,
) -> CircumnavResult:
    """Minimum-time tangent-arc-tangent route around the spec's circle.

    Both endpoints must lie outside the circle. If the straight chord
    does not cross the circle the straight segment is returned with a
    degenerate flag instead of raising, so batch comparisons never abort.
    """
    Rh = spec.radius
    d0 = distance(a0, threat_pos)
    df = distance(af, threat_pos)
    if d0 < Rh or df < Rh:
        raise InfeasibleError(
            f"endpoint inside the {spec.label} circle (d0={d0:.6g}, df={df:.6g}, radius={Rh:.6g})"
        )
    if not _chord_blocked(a0, af, threat_pos, Rh):
        path = Trajectory.from_polyline([_pt(a0), _pt(af)], mu)
        ang = math.atan2(
            0.5 * (a0.y + af.y) - threat_pos.y, 0.5 * (a0.x + af.x) - threat_pos.x
        )
        return CircumnavResult(
            t_f=distance(a0, af) / mu,
            theta1=ang,
            theta2=ang,
            tangent_in=0.5 * distance(a0, af),
            tangent_out=0.5 * distance(a0, af),
            path=path,
            degenerate=True,
        )

    phi0 = math.atan2(a0.y - threat_pos.y, a0.x - threat_pos.x)
    phif = math.atan2(af.y - threat_pos.y, af.x - threat_pos.x)
    alpha0 = math.acos(min(Rh / d0, 1.0))
    alphaf = math.acos(min(Rh / df, 1.0))
    tan_in = math.sqrt(max(d0 * d0 - Rh * Rh, 0.0))
    tan_out = math.sqrt(max(df * df - Rh * Rh, 0.0))

    # Clockwise hug and its mirror; keep whichever arc is shorter.
    cw = (phi0 - alpha0, phif + alphaf, (phi0 - alpha0 - (phif + alphaf)) % (2.0 * math.pi), -1.0)
    ccw = (phi0 + alpha0, phif - alphaf, ((phif - alphaf) - (phi0 + alpha0)) % (2.0 * math.pi), 1.0)
    theta1, theta2, arc, sweep_sign = min(cw, ccw, key=lambda t: t[2])

    t_f = (tan_in + tan_out + Rh * arc) / mu
    pts = [_pt(a0)]
    n_arc = max(int(math.ceil(arc / (2.0 * math.pi) * _ARC_POINTS)), 2)
    for k in range(n_arc + 1):
        ang = theta1 + sweep_sign * arc * k / n_arc
        pts.append(
            (threat_pos.x + Rh * math.cos(ang), threat_pos.y + Rh * math.sin(ang))
        )
    pts.append(_pt(af))
    return CircumnavResult(
        t_f=t_f,
        theta1=wrap_angle(theta1),
        theta2=wrap_angle(theta2),
        tangent_in=tan_in,
        tangent_out=tan_out,
        path=Trajectory.from_polyline(pts, mu),
        degenerate=False,
    )


def _pt(p: Point2) -> tuple[float, float]:
    return (p.x, p.y)


def _chord_blocked(a0: Point2, af: Point2, c: Point2, Rh: float) -> bool:
    ax, ay = a0.x - c.x, a0.y - c.y
    bx, by = af.x - a0.x, af.y - a0.y
    seg2 = bx * bx + by * by
    if seg2 == 0.0:
        return False
    t = -(ax * bx + ay * by) / seg2
    t = min(max(t, 0.0), 1.0)
    qx, qy = ax + t * bx, ay + t * by
    return math.hypot(qx, qy) < Rh
