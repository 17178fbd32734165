"""Frozen scalar closed forms and oracle scans: the reference the batched code must equal bit for bit.

These are the one-pose pursuer and turret kernels as they stood before
the library kept only its batched forms, copied unchanged but for the
turret's bearings, which come from ``np.arctan2`` as the library's do
(``math.atan2`` differs from it in the last bit on some inputs). Nothing in
``threatnav`` calls them; the tests compare ``rho_batch``,
``rho_derivative_batch``, ``boundary_threshold_batch`` and both
``clearance`` methods against them, because SLSQP reacts to last-bit
changes in its constraints. ``turret_clearance_and_gradient`` is the
batched turret fold with its partials as it stood before its candidates
shared one bearing pass; the tests pin all four of its outputs. The
one-pose oracle scans at the end are the referee as it stood before it
scanned blocks of poses, and the tests compare both ``engageable``
members against them.
"""

from __future__ import annotations

import math

import numpy as np

from threatnav.errors import DomainError, PreconditionError
from threatnav.geometry import (
    Point2,
    angular_separation,
    aspect_angle,
    distance,
    require_finite_poses,
    wrap_angle,
    wrap_angles,
)
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
        return x - mu * angular_separation(th, float(np.arctan2(y, x)))

    cands = [reach(c), reach(-c)]
    if math.sin(th) > 0.0:
        x_cross = y * math.cos(th) / math.sin(th)
        if -c <= x_cross <= c:
            cands.append(x_cross)
    if mu > y:
        xs = -math.sqrt(y * (mu - y))
        if -c <= xs <= c and wrap_angle(float(np.arctan2(y, xs)) - th) < 0.0:
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


def turret_clearance_and_gradient(threat: TurretThreat, points: np.ndarray, headings: np.ndarray):
    """Batched ``clearance`` of every pose and its partials in x, y and heading, from one choice of piece.

    Each pose takes the larger of ``|y0| - R`` and ``x0 - M(y0, look_angle - heading)`` (on a tie,
    the first) and differentiates that piece; dM/dy is 0 at |y0| = R, where y0 is clamped.
    """
    require_finite_poses(points, headings)
    dx = points[:, 0] - threat.position.x
    dy = points[:, 1] - threat.position.y
    if np.any((dx == 0.0) & (dy == 0.0)):
        raise DomainError("agent exactly at the turret position")
    ch, sh = np.cos(headings), np.sin(headings)
    x0, y0 = dx * ch + dy * sh, -dx * sh + dy * ch
    R = threat.engagement_range
    m, m_y, m_th = threshold_and_partials(np.minimum(np.maximum(y0, -R), R), threat, headings)
    lateral, along, side = np.abs(y0) - R, x0 - m, np.sign(y0)
    chord = along > lateral
    return (np.where(chord, along, lateral), np.where(chord, ch + m_y * sh, -side * sh),
            np.where(chord, sh - m_y * ch, side * ch), np.where(chord, y0 + m_y * x0 + m_th, -side * x0))


def threshold_and_partials(y: np.ndarray, threat: TurretThreat, agent_headings: np.ndarray):
    """Batched M(y) and its partials in y and in th = look_angle - heading.

    M(y) folds the exit and entry alignments, the held-beam crossing and the interior stationary point
    in that order (the chord through the turret has its own pair). The partials follow the winner: with
    c = sqrt(R^2 - y^2), dM/dy is -(y + dM/dth) / c at the exit, (y + dM/dth) / c at the entry, cot th at
    the crossing (dM/dth = -y / sin^2 th), xs / y at the stationary point (envelope theorem), 0 on y == 0.
    """
    R, mu = threat.engagement_range, threat.mu
    if np.any(np.abs(y) > R):
        raise DomainError(f"|y|={float(np.max(np.abs(y)))} exceeds the engagement range {R}")
    th = wrap_angles(threat.look_angle - agent_headings)
    mirror = y < 0.0  # mirror symmetry: reflect chord and beam together (and the partials)
    y = np.where(mirror, -y, y)
    th = np.where(mirror, wrap_angles(-th), th)

    def reach(x, th, bearing):
        gap = wrap_angles(th - bearing)
        return x - mu * np.abs(gap), -mu * np.sign(gap)

    def fold(take, value, dy, dth):
        return np.where(take, value, best), np.where(take, dy, m_y), np.where(take, dth, m_th)

    c = np.sqrt(R * R - y * y)  # |y| <= R, so y * y <= R * R after rounding too
    inv_c = np.divide(1.0, c, out=np.zeros_like(c), where=c > 0.0)
    (best, m_th), (entry, entry_th) = reach(c, th, np.arctan2(y, c)), reach(-c, th, np.arctan2(y, -c))
    m_y = -(y + m_th) * inv_c
    best, m_y, m_th = fold(entry > best, entry, (y + entry_th) * inv_c, entry_th)
    # crossing the initial beam
    sin_th = np.sin(th)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = y * np.cos(th) / sin_th
        ok = (sin_th > 0.0) & (-c <= x_cross) & (x_cross <= c)
        best, m_y, m_th = fold(ok & (x_cross > best), x_cross, np.cos(th) / sin_th, -y / (sin_th * sin_th))
    # interior stationary point of the chase (y == 0 is settled below)
    inner = (mu > y) & (y > 0.0)
    xs = -np.sqrt(np.where(inner, y * (mu - y), 0.0))
    idx = np.flatnonzero(inner & (-c <= xs) & (xs <= c))
    bearing = np.arctan2(y[idx], xs[idx])
    value, slope = reach(xs[idx], th[idx], bearing)
    win = (wrap_angles(bearing - th[idx]) < 0.0) & (value > best[idx])
    idx = idx[win]
    best[idx], m_y[idx], m_th[idx] = value[win], xs[idx] / y[idx], slope[win]
    # the chord through the turret: inbound bearing pi (-0.0 - mu|gap| is -mu|gap|) or outbound bearing 0
    on = np.flatnonzero(y == 0.0)
    (inbound, in_th), (outbound, out_th) = reach(-0.0, th[on], math.pi), reach(R, th[on], 0.0)
    out = outbound > inbound
    best[on], m_y[on], m_th[on] = np.where(out, outbound, inbound), 0.0, np.where(out, out_th, in_th)
    return best, np.where(mirror, -m_y, m_y), np.where(mirror, -m_th, m_th)


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


def pursuit_capture_possible(a0: Point2, heading: float, threat: PursuerThreat, steps: int = 1000) -> bool:
    """Capture slack t + r - |A(t) - P0| scanned over t in [0, R] on ``steps`` steps."""
    return pursuit_window(a0, heading, threat, steps) is not None


def pursuit_window(a0: Point2, heading: float, threat: PursuerThreat, steps: int = 1000):
    """``pursuit_capture_possible``'s first window ``(lo, hi)``, or None."""
    if math.hypot(a0.x - threat.position.x, a0.y - threat.position.y) == 0.0:
        raise DomainError("agent exactly at the pursuer position")
    v = threat.mu

    def slack(t):
        ax = a0.x + v * t * math.cos(heading) - threat.position.x
        ay = a0.y + v * t * math.sin(heading) - threat.position.y
        return t + threat.capture_radius - np.hypot(ax, ay)

    return _first_window(slack, np.linspace(0.0, threat.engagement_range, steps + 1))


def turret_neutralization_possible(
    a0: Point2, heading: float, threat: TurretThreat, step_fraction: float = 1e-4
) -> bool:
    """Time minus the beam's angular gap to the agent, scanned over the time the agent is in range."""
    return turret_window(a0, heading, threat, step_fraction) is not None


def turret_window(a0: Point2, heading: float, threat: TurretThreat, step_fraction: float = 1e-4):
    """``turret_neutralization_possible``'s first window ``(lo, hi)``, or None.

    The grid step is ``step_fraction`` R / mu, and the grid has at least 64 steps.
    """
    dx0 = a0.x - threat.position.x
    dy0 = a0.y - threat.position.y
    if dx0 == 0.0 and dy0 == 0.0:
        raise DomainError("agent exactly at the turret position")
    v = threat.mu
    R = threat.engagement_range
    ux, uy = math.cos(heading), math.sin(heading)
    b = 2.0 * v * (dx0 * ux + dy0 * uy)
    miss = dx0 * uy - dy0 * ux
    disc = 4.0 * v * v * (R * R - miss * miss)  # b^2 - 4 v^2 (|d|^2 - R^2), without its cancellation far out
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    t_lo = (-b - sq) / (2.0 * v * v)
    t_hi = (-b + sq) / (2.0 * v * v)
    if t_hi < 0.0:
        return None
    t_lo = max(t_lo, 0.0)
    look = wrap_angle(threat.look_angle)

    def margin(ts):
        px = a0.x + v * ts * ux - threat.position.x
        py = a0.y + v * ts * uy - threat.position.y
        sep = np.abs(np.remainder(look - np.arctan2(py, px) + math.pi, 2.0 * math.pi) - math.pi)
        return ts - sep

    step = step_fraction * R / v
    n = int(min(max(math.ceil((t_hi - t_lo) / step), 64), 400_000))
    return _first_window(margin, np.linspace(t_lo, t_hi, n + 1))
