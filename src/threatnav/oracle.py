"""Brute-force engagement feasibility checks.

These are the ground truth the closed-form zone boundaries are tested
against. Both oracles evaluate their raw capture/neutralization margin
on a dense time grid and share one scan (``_first_window``): the first grid
point where the margin is >= 0 ends it, and without one each local
maximum is polished by golden-section search. Feasibility stops at the
first witnessed engagement; only the pursuit certificate bisects the
window it returns. They never call the analytic boundary formulas.

Normalization matches the zone modules: unit pursuer speed / unit slew
rate, agent speed ``mu``. Feasibility is invariant to a common time
scaling, so the normalization does not restrict generality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .geometry import Point2, wrap_angle
from .pursuit import PursuerThreat
from .turret import TurretThreat

_INV_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OracleConfig:
    """Scan resolution knobs.

    pursuit_step_fraction: grid step as a fraction of the scan horizon.
    turret_step_fraction: grid step as a fraction of range / agent speed.
    refine_iterations: bisection / golden-section iterations per bracket.
    """

    pursuit_step_fraction: float = 1e-3
    turret_step_fraction: float = 1e-4
    refine_iterations: int = 60


_DEFAULT = OracleConfig()


def _golden_max(f, lo: float, hi: float, iters: int) -> tuple[float, float]:
    """Best point ``(t, f(t))`` of f on [lo, hi] by golden-section, assuming a local bracket."""
    a, b = lo, hi
    c = b - _INV_GOLD * (b - a)
    d = a + _INV_GOLD * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLD * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLD * (b - a)
            fd = f(d)
    f_best, t_best = max((f(lo), lo), (f(hi), hi), (fc, c), (fd, d))
    return t_best, f_best


def _scalar(margin):
    """``margin`` of one time, evaluated as a one-element array."""
    return lambda t: float(margin(np.asarray([t]))[0])


def _first_window(margin, ts: np.ndarray, iters: int) -> Optional[tuple[float, float]]:
    """Bracket ``(lo, hi)`` of the first engagement on the grid ``ts``, or None.

    ``margin`` maps an array of times to the engagement margin, feasible
    where >= 0. At the first grid point with margin >= 0 the bracket runs
    from the grid point before it. With no grid hit, every interior local
    maximum of the margin is polished by golden-section search, in case a
    short window fell between grid points; the first one that reaches 0
    gives ``(ts[i - 1], t)`` with ``t`` its best point. Either way
    ``margin(hi) >= 0``.
    """
    m = margin(ts)
    hit = np.flatnonzero(m >= 0.0)
    if hit.size:
        i = int(hit[0])
        return float(ts[max(i - 1, 0)]), float(ts[i])
    f = _scalar(margin)
    for i in np.flatnonzero((m[1:-1] >= m[:-2]) & (m[1:-1] >= m[2:])) + 1:
        t, f_t = _golden_max(f, ts[i - 1], ts[i + 1], iters)
        if f_t >= 0.0:
            return float(ts[i - 1]), float(t)
    return None


def _bisect_first(f, lo: float, hi: float, iters: int) -> float:
    """First root of f crossing from negative to nonnegative on [lo, hi]."""
    if f(lo) >= 0.0:
        return lo
    a, b = lo, hi
    for _ in range(iters):
        m = 0.5 * (a + b)
        if f(m) >= 0.0:
            b = m
        else:
            a = m
    return b


def _pursuit_slack(a0: Point2, heading: float, threat: PursuerThreat):
    """Capture slack t + r - |A(t) - P0| as a function of times t; capture feasible where >= 0.

    Valid on t in [0, R]: the pursuer's reach balloon grows at unit speed
    until the range budget R is spent, and stopping burns the budget at
    the same rate, so the pursuer is out of the fight after t = R.
    """
    if math.hypot(a0.x - threat.position.x, a0.y - threat.position.y) == 0.0:
        raise DomainError("agent exactly at the pursuer position")
    v = threat.mu

    def slack(t: np.ndarray) -> np.ndarray:
        ax = a0.x + v * t * math.cos(heading) - threat.position.x
        ay = a0.y + v * t * math.sin(heading) - threat.position.y
        return t + threat.capture_radius - np.hypot(ax, ay)

    return slack


def _pursuit_window(slack, threat: PursuerThreat, config: OracleConfig):
    n = max(int(round(1.0 / config.pursuit_step_fraction)), 8)
    ts = np.linspace(0.0, threat.engagement_range, n + 1)  # unit pursuer speed: life ends at t = R
    return _first_window(slack, ts, config.refine_iterations)


def pursuit_capture_possible(
    a0: Point2, heading: float, threat: PursuerThreat, config: OracleConfig = _DEFAULT
) -> bool:
    """Can a straight-running pursuer close to capture distance in time?

    Scans capture slack over the pursuer's whole life t in [0, R] and
    stops at the first time the slack is witnessed >= 0.
    """
    return _pursuit_window(_pursuit_slack(a0, heading, threat), threat, config) is not None


def pursuit_capture_certificate(
    a0: Point2, heading: float, threat: PursuerThreat, config: OracleConfig = _DEFAULT
) -> Optional[tuple[float, float]]:
    """Minimal capture time and pursuer distance traveled, or None.

    Bisects the first capture window for its start. At unit pursuer speed
    the straight-line intercept distance equals the capture time; on the
    zone boundary it equals the full range budget.
    """
    slack = _pursuit_slack(a0, heading, threat)
    window = _pursuit_window(slack, threat, config)
    if window is None:
        return None
    t_cap = _bisect_first(_scalar(slack), *window, config.refine_iterations)
    return t_cap, t_cap


def turret_neutralization_possible(
    a0: Point2, heading: float, threat: TurretThreat, config: OracleConfig = _DEFAULT
) -> bool:
    """Can the turret's beam meet the straight-running agent within range?

    The beam covers an angle of at most t by time t (unit slew rate), so
    neutralization at time t requires the angular separation between the
    initial look direction and the agent's bearing to be at most t while
    the agent is inside the range circle. Scans that margin over the
    in-range window, the same way as the pursuit oracle.
    """
    dx0 = a0.x - threat.position.x
    dy0 = a0.y - threat.position.y
    if dx0 == 0.0 and dy0 == 0.0:
        raise DomainError("agent exactly at the turret position")
    v = threat.mu
    R = threat.engagement_range
    ux, uy = math.cos(heading), math.sin(heading)
    # |a0 + v t u - T|^2 = R^2, with the leading coefficient v^2
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

    def margin(ts: np.ndarray) -> np.ndarray:
        px = a0.x + v * ts * ux - threat.position.x
        py = a0.y + v * ts * uy - threat.position.y
        sep = np.abs(np.remainder(look - np.arctan2(py, px) + math.pi, 2.0 * math.pi) - math.pi)
        return ts - sep

    step = config.turret_step_fraction * R / v
    n = int(min(max(math.ceil((t_hi - t_lo) / step), 64), 400_000))
    return _first_window(margin, np.linspace(t_lo, t_hi, n + 1), config.refine_iterations) is not None
