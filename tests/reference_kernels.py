"""Frozen scalar closed forms and oracle scans: the reference the batched code must equal bit for bit.

These are the one-pose pursuer and turret kernels as they stood before
the library kept only its batched forms, copied unchanged. Nothing in
``threatnav`` calls them; the tests compare ``rho_batch``,
``rho_derivative_batch``, ``boundary_threshold_batch`` and both
``clearance`` methods against them, because SLSQP reacts to last-bit
changes in its constraints. The one-pose oracle scans at the end are
the referee as it stood before it scanned blocks of poses, and the
tests compare both ``engageable`` members against them.
"""

from __future__ import annotations

import math

import numpy as np

from threatnav.errors import DomainError, PreconditionError
from threatnav.geometry import Point2, angular_separation, aspect_angle, distance, wrap_angle
from threatnav.pursuit import PursuerThreat, xi_crossover
from threatnav.turret import TurretThreat

_RADICAND_SLACK = 1e-14


# -- pursuer --------------------------------------------------------------------


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
    if den == 0.0:
        # ax = asin(1/mu), the crossover when r = 0 (or r is lost to
        # rounding): r * 0 / 0 there, and the arc's radius is r
        return r
    return r * math.sqrt(mu * mu - 1.0) / den


def rho_fast(xi: float, threat: PursuerThreat) -> float:
    """Zone boundary radius at aspect angle ``xi`` for a fast pursuer (mu <= 1)."""
    if threat.mu > 1.0:
        raise PreconditionError(f"rho_fast requires mu <= 1, got {threat.mu}")
    return _collision_course_rho(
        wrap_angle(xi), threat.mu, threat.engagement_range, threat.capture_radius
    )


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
        if den == 0.0:
            return 0.0  # see _touch_and_go_rho
        return sign * (-r * math.sqrt(mu * mu - 1.0) * dden / (den * den))
    return 0.0


def signed_clearance(agent_pos: Point2, agent_heading: float, threat: PursuerThreat) -> float:
    """Distance to the pursuer minus the boundary radius at the current aspect.

    Positive outside the zone, zero on the boundary, negative inside.
    """
    xi = aspect_angle(agent_pos, agent_heading, threat.position)
    return distance(agent_pos, threat.position) - rho(xi, threat)


# -- turret ---------------------------------------------------------------------


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


def _frame_coords(agent_pos: Point2, agent_heading: float, threat: TurretThreat) -> tuple[float, float]:
    dx = agent_pos.x - threat.position.x
    dy = agent_pos.y - threat.position.y
    if dx == 0.0 and dy == 0.0:
        raise DomainError("agent exactly at the turret position")
    ch, sh = math.cos(agent_heading), math.sin(agent_heading)
    return (dx * ch + dy * sh, -dx * sh + dy * ch)


# -- oracle ---------------------------------------------------------------------


def _golden_max(f, lo: float, hi: float, iters: int) -> tuple[float, float]:
    """Best point ``(t, f(t))`` of f on [lo, hi] by golden-section, assuming a local bracket."""
    inv_gold = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_gold * (b - a)
    d = a + inv_gold * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_gold * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_gold * (b - a)
            fd = f(d)
    f_best, t_best = max((f(lo), lo), (f(hi), hi), (fc, c), (fd, d))
    return t_best, f_best


def _first_window(margin, ts, iters: int = 60):
    """Bracket of the first engagement on the grid ``ts``, or None; every local maximum is polished."""
    m = margin(ts)
    hit = np.flatnonzero(m >= 0.0)
    if hit.size:
        i = int(hit[0])
        return float(ts[max(i - 1, 0)]), float(ts[i])

    def f(t):
        return float(margin(np.asarray([t]))[0])

    for i in np.flatnonzero((m[1:-1] >= m[:-2]) & (m[1:-1] >= m[2:])) + 1:
        t, f_t = _golden_max(f, ts[i - 1], ts[i + 1], iters)
        if f_t >= 0.0:
            return float(ts[i - 1]), float(t)
    return None


def pursuit_capture_possible(a0: Point2, heading: float, threat: PursuerThreat) -> bool:
    """Capture slack t + r - |A(t) - P0| scanned over t in [0, R] on 1000 steps."""
    if math.hypot(a0.x - threat.position.x, a0.y - threat.position.y) == 0.0:
        raise DomainError("agent exactly at the pursuer position")
    v = threat.mu

    def slack(t):
        ax = a0.x + v * t * math.cos(heading) - threat.position.x
        ay = a0.y + v * t * math.sin(heading) - threat.position.y
        return t + threat.capture_radius - np.hypot(ax, ay)

    return _first_window(slack, np.linspace(0.0, threat.engagement_range, 1001)) is not None


def turret_neutralization_possible(a0: Point2, heading: float, threat: TurretThreat) -> bool:
    """Time minus the beam's angular gap to the agent, scanned over the time the agent is in range."""
    dx0 = a0.x - threat.position.x
    dy0 = a0.y - threat.position.y
    if dx0 == 0.0 and dy0 == 0.0:
        raise DomainError("agent exactly at the turret position")
    v = threat.mu
    R = threat.engagement_range
    ux, uy = math.cos(heading), math.sin(heading)
    b = 2.0 * v * (dx0 * ux + dy0 * uy)
    c = dx0 * dx0 + dy0 * dy0 - R * R
    disc = b * b - 4.0 * v * v * c
    if disc < 0.0:
        return False
    sq = math.sqrt(disc)
    t_lo = (-b - sq) / (2.0 * v * v)
    t_hi = (-b + sq) / (2.0 * v * v)
    if t_hi < 0.0:
        return False
    t_lo = max(t_lo, 0.0)
    look = wrap_angle(threat.look_angle)

    def margin(ts):
        px = a0.x + v * ts * ux - threat.position.x
        py = a0.y + v * ts * uy - threat.position.y
        sep = np.abs(np.remainder(look - np.arctan2(py, px) + math.pi, 2.0 * math.pi) - math.pi)
        return ts - sep

    step = 1e-4 * R / v
    n = int(min(max(math.ceil((t_hi - t_lo) / step), 64), 400_000))
    return _first_window(margin, np.linspace(t_lo, t_hi, n + 1)) is not None
