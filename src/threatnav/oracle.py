"""Brute-force engagement feasibility checks.

These are the ground truth the closed-form zone boundaries are tested
against, and each zone kind's ``engageable`` member answers with them.
Both oracles evaluate their raw capture/neutralization margin on a dense
time grid and share one scan (``_first_windows``) over a (poses x time
grid) block: a pose's first grid point where the margin is >= 0 ends its
scan, and without one each local maximum that can still reach 0 is
polished by golden-section search. Pursuer poses share one grid and are
scanned in blocks of at most ``_BLOCK`` values; each turret pose has its
own in-range grid, a block of one row. Feasibility stops at the first
witnessed engagement; only the pursuit certificate bisects the window it
returns. The oracles read only threat parameters and never call the
analytic boundary formulas. The one-pose functions are one-element views
of the batched ones.

Normalization matches the zone modules: unit pursuer speed / unit slew
rate, agent speed ``mu``. Feasibility is invariant to a common time
scaling, so the normalization does not restrict generality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import DomainError
from .geometry import Point2, require_finite_poses, wrap_angle

if TYPE_CHECKING:  # the zone modules import this one for their engageable member
    from .pursuit import PursuerThreat
    from .turret import TurretThreat

_INV_GOLD = (math.sqrt(5.0) - 1.0) / 2.0
_BLOCK = 1 << 16  # most margin values in one scan block: about 0.5 MB per temporary


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


def _scalar(margin, poses: tuple, k: int):
    """Pose ``k``'s margin at one time: the pose as floats, the time as a one-element array."""
    pose = tuple(float(column[k, 0]) for column in poses)
    return lambda t: float(margin(pose, np.asarray([t]))[0])


def _rows(poses: tuple, start: int, stop: int) -> tuple:
    """Poses ``start`` to ``stop`` of the columns ``poses``."""
    return tuple(column[start:stop] for column in poses)


def _first_windows(margin, poses: tuple, ts: np.ndarray, iters: int, rise: float = math.inf) -> list:
    """Bracket ``(lo, hi)`` of the first engagement of each pose on the grid ``ts``, or None.

    ``poses`` are columns with one row per pose. ``margin(poses, t)`` maps
    rows of them and an array of times to the (poses x times) engagement
    margin, feasible where >= 0; given one pose as floats, it maps the
    times to that pose's margin. The poses are scanned in blocks of at
    most ``_BLOCK`` values. At a pose's first grid point with
    margin >= 0 the bracket runs from the grid point before it. With no
    grid hit, every interior local maximum of the pose's margin is
    polished by golden-section search, in case a short window fell
    between grid points; the first one that reaches 0 gives
    ``(ts[i - 1], t)`` with ``t`` its best point. A maximum below
    ``-rise``, where ``rise`` bounds how far the margin can climb within
    one grid step, cannot reach 0 and is not polished. Either way
    ``margin(hi) >= 0``.
    """
    windows: list[Optional[tuple[float, float]]] = [None] * len(poses[0])
    per_block = max(_BLOCK // len(ts), 1)
    for start in range(0, len(windows), per_block):
        m = margin(_rows(poses, start, start + per_block), ts)
        hit = m >= 0.0
        found = hit.any(axis=1)
        for j, i in zip(np.flatnonzero(found).tolist(), hit.argmax(axis=1)[found].tolist()):
            windows[start + j] = float(ts[max(i - 1, 0)]), float(ts[i])
        if found.all():
            continue
        inner = m[:, 1:-1]
        peaks = (inner >= m[:, :-2]) & (inner >= m[:, 2:])
        for j, i in (divmod(flat, len(ts) - 2) for flat in np.flatnonzero(peaks).tolist()):
            k = start + j
            if windows[k] is None and inner[j, i] >= -rise:
                t, f_t = _golden_max(_scalar(margin, poses, k), ts[i], ts[i + 2], iters)
                if f_t >= 0.0:
                    windows[k] = float(ts[i]), float(t)
    return windows


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


def _poses(points, headings, position: Point2, kind: str) -> tuple[np.ndarray, ...]:
    """Columns (n x 1) of x, y and the heading's cosine and sine for n poses.

    The cosine and sine come from ``math.cos`` and ``math.sin``, one
    heading at a time, as the oracle's verdicts were first recorded, so
    they do not hang on numpy's vector math. Raises for a non-finite pose
    and for a pose on the threat.
    """
    points, headings = np.asarray(points, dtype=float), np.asarray(headings, dtype=float)
    require_finite_poses(points, headings)
    x, y = points[:, :1], points[:, 1:2]
    if np.any((x == position.x) & (y == position.y)):
        raise DomainError(f"agent exactly at the {kind} position")
    c = np.fromiter(map(math.cos, headings.tolist()), float, count=len(headings))
    s = np.fromiter(map(math.sin, headings.tolist()), float, count=len(headings))
    return x, y, c[:, None], s[:, None]


def _track(threat, poses: tuple, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Offsets from the threat of the straight-running agents ``poses`` at times t."""
    x, y, c, s = poses
    v = threat.mu
    return x + v * t * c - threat.position.x, y + v * t * s - threat.position.y


def _pursuit_slack(threat: PursuerThreat):
    """Capture slack t + r - |A(t) - P0| of poses at times t; capture feasible where >= 0.

    Valid on t in [0, R]: the pursuer's reach balloon grows at unit speed
    until the range budget R is spent, and stopping burns the budget at
    the same rate, so the pursuer is out of the fight after t = R.
    """
    r = threat.capture_radius

    def slack(poses: tuple, t: np.ndarray) -> np.ndarray:
        return t + r - np.hypot(*_track(threat, poses, t))

    return slack


def _pursuit_windows(poses: tuple, threat: PursuerThreat, config: OracleConfig) -> list:
    """Each pose's first capture window, or None.

    The slack rises at most 1 + mu per unit time (the agent closes at mu,
    the balloon grows at 1), so a local maximum below -(1 + mu) h on a
    grid of step h cannot reach 0 between grid points.
    """
    n = max(int(round(1.0 / config.pursuit_step_fraction)), 8)
    ts = np.linspace(0.0, threat.engagement_range, n + 1)  # unit pursuer speed: life ends at t = R
    rise = (1.0 + threat.mu) * float(np.max(np.diff(ts)))
    return _first_windows(_pursuit_slack(threat), poses, ts, config.refine_iterations, rise)


def _one(a0: Point2, heading: float) -> tuple[np.ndarray, np.ndarray]:
    """One pose as a one-row block."""
    return np.array([a0.as_tuple()]), np.array([heading], dtype=float)


def pursuit_capture_possible_batch(
    points: np.ndarray, headings: np.ndarray, threat: PursuerThreat, config: OracleConfig = _DEFAULT
) -> np.ndarray:
    """``pursuit_capture_possible`` of every pose: rows of ``points`` (n x 2) with ``headings``."""
    windows = _pursuit_windows(_poses(points, headings, threat.position, "pursuer"), threat, config)
    return np.array([w is not None for w in windows], dtype=bool)


def pursuit_capture_possible(
    a0: Point2, heading: float, threat: PursuerThreat, config: OracleConfig = _DEFAULT
) -> bool:
    """Can a straight-running pursuer close to capture distance in time?

    Scans capture slack over the pursuer's whole life t in [0, R] and
    stops at the first time the slack is witnessed >= 0. One-element
    ``pursuit_capture_possible_batch``.
    """
    return bool(pursuit_capture_possible_batch(*_one(a0, heading), threat, config)[0])


def pursuit_capture_certificate(
    a0: Point2, heading: float, threat: PursuerThreat, config: OracleConfig = _DEFAULT
) -> Optional[tuple[float, float]]:
    """Minimal capture time and pursuer distance traveled, or None.

    Bisects the first capture window for its start. At unit pursuer speed
    the straight-line intercept distance equals the capture time; on the
    zone boundary it equals the full range budget.
    """
    pose = _poses(*_one(a0, heading), threat.position, "pursuer")
    (window,) = _pursuit_windows(pose, threat, config)
    if window is None:
        return None
    t_cap = _bisect_first(_scalar(_pursuit_slack(threat), pose, 0), *window, config.refine_iterations)
    return t_cap, t_cap


def _turret_grid(dx0: float, dy0: float, ux: float, uy: float, threat: TurretThreat, config: OracleConfig):
    """Scan grid over the times t >= 0 that one agent spends in range, or None if it never is.

    The agent starts at offset (dx0, dy0) from the turret and runs along (ux, uy).
    """
    v, R = threat.mu, threat.engagement_range
    # |a0 + v t u - T|^2 = R^2, with the leading coefficient v^2
    b = 2.0 * v * (dx0 * ux + dy0 * uy)
    c = dx0 * dx0 + dy0 * dy0 - R * R
    disc = b * b - 4.0 * v * v * c
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    t_lo = (-b - sq) / (2.0 * v * v)
    t_hi = (-b + sq) / (2.0 * v * v)
    if t_hi < 0.0:
        return None
    t_lo = max(t_lo, 0.0)
    step = config.turret_step_fraction * R / v
    n = int(min(max(math.ceil((t_hi - t_lo) / step), 64), 400_000))
    return np.linspace(t_lo, t_hi, n + 1)


def turret_neutralization_possible_batch(
    points: np.ndarray, headings: np.ndarray, threat: TurretThreat, config: OracleConfig = _DEFAULT
) -> np.ndarray:
    """``turret_neutralization_possible`` of every pose: rows of ``points`` (n x 2) with ``headings``.

    Each pose is scanned over its own in-range grid, a block of one row.
    """
    poses = _poses(points, headings, threat.position, "turret")
    look = wrap_angle(threat.look_angle)

    def margin(poses: tuple, t: np.ndarray) -> np.ndarray:
        px, py = _track(threat, poses, t)
        sep = np.abs(np.remainder(look - np.arctan2(py, px) + math.pi, 2.0 * math.pi) - math.pi)
        return t - sep

    x, y, c, s = (column[:, 0].tolist() for column in poses)
    out = np.zeros(len(x), dtype=bool)
    for j in range(len(x)):
        ts = _turret_grid(x[j] - threat.position.x, y[j] - threat.position.y, c[j], s[j], threat, config)
        if ts is not None:
            out[j] = _first_windows(margin, _rows(poses, j, j + 1), ts, config.refine_iterations)[0] is not None
    return out


def turret_neutralization_possible(
    a0: Point2, heading: float, threat: TurretThreat, config: OracleConfig = _DEFAULT
) -> bool:
    """Can the turret's beam meet the straight-running agent within range?

    The beam covers an angle of at most t by time t (unit slew rate), so
    neutralization at time t requires the angular separation between the
    initial look direction and the agent's bearing to be at most t while
    the agent is inside the range circle. Scans that margin over the
    in-range window, the same way as the pursuit oracle. One-element
    ``turret_neutralization_possible_batch``.
    """
    return bool(turret_neutralization_possible_batch(*_one(a0, heading), threat, config)[0])
