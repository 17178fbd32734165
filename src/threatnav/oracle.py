"""Brute-force engagement feasibility checks.

These are the ground truth the closed-form zone boundaries are tested
against, and each zone kind's ``engageable`` member answers with them.
Both oracles evaluate their raw capture/neutralization margin on a dense
time grid and share one scan (``_first_windows``) over blocks of poses:
a pose's first grid point where the margin is >= 0 ends its scan, and
without one each local maximum that can still reach 0 is rescanned on a
finer grid across its bracket, a batch's maxima together. The resolution
is fixed: the module constants ``_PURSUIT_STEPS``, ``_TURRET_STEP``,
``_LEVELS`` and ``_BISECTIONS``, not options. Pursuer poses
share one grid and are scanned in blocks of at most ``_BLOCK`` values;
each turret pose has its own in-range grid, built and scanned in
one-row blocks of at most ``_CHUNK`` times, so its scan ends with the
block that holds its first grid hit. Feasibility stops at the first
witnessed engagement; only the pursuit certificate bisects the window
it returns. The oracles read only threat parameters and never call the
analytic boundary formulas. The one-pose functions are one-element
views of the batched ones.

Normalization matches the zone modules: unit pursuer speed / unit slew
rate, agent speed ``mu``. Feasibility is invariant to a common time
scaling, so the normalization does not restrict generality.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import DomainError
from .geometry import TWO_PI, Point2, require_finite_poses, wrap_angle

if TYPE_CHECKING:  # the zone modules import this one for their engageable member
    from .pursuit import PursuerThreat
    from .turret import TurretThreat

_BLOCK = 1 << 16  # most margin values in one scan or refinement array: about 0.5 MB per temporary
_CHUNK = 8192  # most times of one turret scan block: 64 KiB per temporary; a block costs as much as ~2,500 times
_SPREAD = np.linspace(0.0, 1.0, 64)  # where a refinement level samples a bracket
_PURSUIT_STEPS = 1000  # pursuit grid steps over the pursuer's life
_TURRET_STEP = 1e-4  # turret grid step at most, in range / agent speed: 2 / _TURRET_STEP steps span any exact chord
_LEVELS = 9  # refinement levels: the least L with (2/63)^L <= phi^-60, what 60 golden-section steps leave
_BISECTIONS = 60  # halvings of the pursuit certificate's window


def _first_windows(margin, poses: tuple, blocks, rise: float = math.inf) -> list:
    """Bracket ``(lo, hi)`` of the first engagement of each pose, or None.

    ``poses`` are columns with one row per pose; ``blocks`` yields
    ``(start, stop, ts)``, poses ``start`` to ``stop`` on the times
    ``ts``, in time order per pose. A pose may come in several blocks,
    each a slice of its grid that shares its first two times with the end
    of the slice before it, so each grid point but the ends is interior
    to exactly one block. A block whose poses all have a window is
    skipped unevaluated. ``margin(rows, t)`` maps pose columns and times
    that broadcast against them to the engagement margin, feasible where
    >= 0. At a pose's first grid point with margin >= 0 the bracket runs
    from the grid point before it. Without one, each interior local
    maximum of the pose's grid margin is refined (``_refine``), in case a
    short window fell between grid points: the first that reaches 0 gives
    ``(ts[i - 1], t)``, ``t`` its best point. A maximum below ``-rise``,
    where ``rise`` bounds the margin's climb within one grid step, cannot
    reach 0 and is not refined, nor is one of a pose that has a grid hit.
    Either way ``margin(hi) >= 0``.
    """
    windows: list[Optional[tuple[float, float]]] = [None] * len(poses[0])
    peaks = []  # per block: each candidate maximum's pose and bracket
    for start, stop, ts in blocks:
        if None not in windows[start:stop]:
            continue
        m = margin(tuple(column[start:stop] for column in poses), ts)
        found, inner = m.max(axis=1) >= 0.0, m[:, 1:-1]
        hits = found.nonzero()[0].tolist()
        for j in hits:  # a later slice's hit is past its first two times: ts[i - 1] is in it
            i = int((m[j] >= 0.0).argmax())
            windows[start + j] = float(ts[max(i - 1, 0)]), float(ts[i])
        if len(hits) < len(found):  # this guard and the next spare a one-row turret block a dozen small array calls
            flat = np.flatnonzero((inner >= m[:, :-2]) & (inner >= m[:, 2:]))
            if len(flat):
                j, i = np.divmod(flat, len(ts) - 2)
                keep = (inner[j, i] >= -rise) & ~found[j]
                peaks.append((j[keep] + start, ts[i[keep]], ts[i[keep] + 2]))
        del m, inner  # free this block before the next is computed: with both held, large blocks land on fresh pages
    if peaks:
        k, lo, hi = (np.concatenate(parts) for parts in zip(*peaks))
        keep = np.array([windows[pose] is None for pose in k.tolist()], dtype=bool)  # a hit in a later slice wins
        k, lo, hi = k[keep], lo[keep], hi[keep]
        t, f_t = _refine(margin, poses, k, lo, hi)
        for pose, a, b in zip(*(column[f_t >= 0.0].tolist() for column in (k, lo, t))):
            if windows[pose] is None:  # a pose's maxima come in time order: keep its first
                windows[pose] = a, b
    return windows


def _refine(margin, poses: tuple, k: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Best point ``t`` and margin ``f(t)`` of pose ``k[c]``'s margin on its bracket ``[lo[c], hi[c]]``.

    Each level samples the brackets at the 64 points of ``_SPREAD``, one
    margin call per chunk of at most ``_BLOCK`` values, and narrows each
    to the neighbours of its best point, for ``_LEVELS`` levels.
    """
    best_t, best_f = lo.copy(), np.full(len(k), -math.inf)
    per_chunk = _BLOCK // len(_SPREAD)
    for c in range(0, len(k), per_chunk):
        part = slice(c, c + per_chunk)
        rows, a, b = tuple(column[k[part]] for column in poses), lo[part], hi[part]
        top_t, top_f, every = best_t[part], best_f[part], np.arange(len(a))  # views: writes land in best_t, best_f
        for _ in range(_LEVELS):
            t = a[:, None] + (b - a)[:, None] * _SPREAD
            f = margin(rows, t)
            i = f.argmax(axis=1)
            better = f[every, i] > top_f
            top_t[better], top_f[better] = t[every, i][better], f[every, i][better]
            a, b = t[every, np.maximum(i - 1, 0)], t[every, np.minimum(i + 1, len(_SPREAD) - 1)]
    return best_t, best_f


def _bisect_first(f, lo: float, hi: float) -> float:
    """First root of f crossing from negative to nonnegative on [lo, hi]."""
    if f(lo) >= 0.0:
        return lo
    a, b = lo, hi
    for _ in range(_BISECTIONS):
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
    vt = threat.mu * t
    return x + vt * c - threat.position.x, y + vt * s - threat.position.y


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


def _pursuit_windows(poses: tuple, threat: PursuerThreat) -> list:
    """Each pose's first capture window, or None.

    The poses share one grid, scanned in blocks of at most ``_BLOCK``
    values. The slack rises at most 1 + mu per unit time (the agent
    closes at mu, the balloon grows at 1), so a local maximum below
    -(1 + mu) h on a grid of step h cannot reach 0 between grid points.
    """
    ts = np.linspace(0.0, threat.engagement_range, _PURSUIT_STEPS + 1)  # unit pursuer speed: life ends at t = R
    rise = (1.0 + threat.mu) * float(np.max(np.diff(ts)))
    per_block = max(_BLOCK // len(ts), 1)
    blocks = ((start, start + per_block, ts) for start in range(0, len(poses[0]), per_block))
    return _first_windows(_pursuit_slack(threat), poses, blocks, rise)


def _one(a0: Point2, heading: float) -> tuple[np.ndarray, np.ndarray]:
    """One pose as a one-row block."""
    return np.array([a0.as_tuple()]), np.array([heading], dtype=float)


def pursuit_capture_possible_batch(points: np.ndarray, headings: np.ndarray, threat: PursuerThreat) -> np.ndarray:
    """``pursuit_capture_possible`` of every pose: rows of ``points`` (n x 2) with ``headings``."""
    windows = _pursuit_windows(_poses(points, headings, threat.position, "pursuer"), threat)
    return np.array([w is not None for w in windows], dtype=bool)


def pursuit_capture_possible(a0: Point2, heading: float, threat: PursuerThreat) -> bool:
    """Can a straight-running pursuer close to capture distance in time?

    Scans capture slack over the pursuer's whole life t in [0, R] and
    stops at the first time the slack is witnessed >= 0. One-element
    ``pursuit_capture_possible_batch``.
    """
    return bool(pursuit_capture_possible_batch(*_one(a0, heading), threat)[0])


def pursuit_capture_certificate(a0: Point2, heading: float, threat: PursuerThreat) -> Optional[tuple[float, float]]:
    """Minimal capture time and pursuer distance traveled, or None.

    Bisects the first capture window for its start. At unit pursuer speed
    the straight-line intercept distance equals the capture time; on the
    zone boundary it equals the full range budget.
    """
    pose = _poses(*_one(a0, heading), threat.position, "pursuer")
    (window,) = _pursuit_windows(pose, threat)
    if window is None:
        return None
    slack = _pursuit_slack(threat)
    t_cap = _bisect_first(lambda t: float(slack(pose, np.array([t]))[0, 0]), *window)
    return t_cap, t_cap


def _turret_blocks(poses: tuple, threat: TurretThreat):
    """Yield ``(j, j + 1, ts)`` for each pose j ever in range, ts spanning its times t >= 0 there.

    The bounds come from one array evaluation, which raises for a pose so
    far out that its in-range quadratic overflows. Each pose's grid has
    steps of at most ``_TURRET_STEP`` R / mu, at least 64 of them, and at
    most one more than any exact chord needs. That cap binds only in
    floats: for a pose far away and aimed at the turret, cancellation in
    the discriminant can stretch the chord to 1e146 steps. The grid is
    yielded in slices of at most ``_CHUNK`` times, each sharing its first
    two times with the end of the slice before it (see
    ``_first_windows``), and a slice is built only when the scan reaches
    it (``_grid_slice``).
    """
    dx0, dy0 = poses[0][:, 0] - threat.position.x, poses[1][:, 0] - threat.position.y
    ux, uy, v, R = poses[2][:, 0], poses[3][:, 0], threat.mu, threat.engagement_range
    # |a0 + v t u - T|^2 = R^2, with the leading coefficient v^2
    with np.errstate(over="ignore", invalid="ignore"):
        b = 2.0 * v * (dx0 * ux + dy0 * uy)
        disc = b * b - 4.0 * v * v * (dx0 * dx0 + dy0 * dy0 - R * R)
        sq = np.sqrt(np.maximum(disc, 0.0))
        t_lo, t_hi = (-b - sq) / (2.0 * v * v), (-b + sq) / (2.0 * v * v)
    bad = ~(np.isfinite(disc) & np.isfinite(t_lo) & np.isfinite(t_hi))
    if bad.any():
        j = int(bad.argmax())
        raise DomainError(f"agent at ({poses[0][j, 0]}, {poses[1][j, 0]}) overflows the oracle's in-range quadratic")
    t_lo = np.maximum(t_lo, 0.0)
    ever = np.flatnonzero((disc >= 0.0) & (t_hi >= 0.0))
    steps = np.ceil((t_hi[ever] - t_lo[ever]) / (_TURRET_STEP * R / v))
    steps = np.maximum(np.minimum(steps, math.ceil(2.0 / _TURRET_STEP) + 1), 64)
    for j, n in zip(ever.tolist(), steps.astype(int).tolist()):
        for c in range(0, n - 1, _CHUNK - 2):  # slices of at least 3 times, the last ending at time n
            yield j, j + 1, _grid_slice(t_lo[j], t_hi[j], n, c, min(c + _CHUNK, n + 1))


def _grid_slice(start: float, stop: float, n: int, c: int, e: int) -> np.ndarray:
    """``np.linspace(start, stop, n + 1)[c:e]`` bit for bit, without building the rest of the grid.

    Times are ``start + k * step`` with the grid's last time set to
    ``stop``, computed as numpy's ``linspace`` computes them, its path for
    a step that underflows to 0 included.
    """
    delta = stop - start
    step = delta / n
    ts = np.arange(c, e, dtype=float)
    if step == 0.0:
        ts /= n
        ts *= delta
    else:
        ts *= step
    ts += start
    if e == n + 1:
        ts[-1] = stop
    return ts


def _separation(x: np.ndarray) -> np.ndarray:
    """``abs(np.remainder(x, 2 pi) - pi)`` for x in [-2 pi, 4 pi), bit for bit, without the remainder.

    From 2 pi up ``np.remainder`` returns ``fmod``, which is exact, and so
    is x - 2 pi there (Sterbenz's lemma); below 0 both add 2 pi once and
    round the same way. At x = -0 both give pi.
    """
    y = x - TWO_PI * (x >= TWO_PI)
    y += TWO_PI * (x < 0.0)
    y -= math.pi
    return np.abs(y, out=y)


def _turret_margin(threat: TurretThreat):
    """Neutralization margin t - |look - bearing| of poses at times t; feasible where >= 0.

    The look angle is wrapped into (-pi, pi] and the bearing is in
    [-pi, pi], so ``look - bearing + pi`` is in [-pi, 3 pi], inside
    ``_separation``'s domain.
    """
    look = wrap_angle(threat.look_angle)

    def margin(poses: tuple, t: np.ndarray) -> np.ndarray:
        px, py = _track(threat, poses, t)
        return t - _separation(look - np.arctan2(py, px) + math.pi)

    return margin


def turret_neutralization_possible_batch(points: np.ndarray, headings: np.ndarray, threat: TurretThreat) -> np.ndarray:
    """``turret_neutralization_possible`` of every pose: rows of ``points`` (n x 2) with ``headings``.

    Each pose is scanned over its own in-range grid, in one-row blocks of
    at most ``_CHUNK`` times, up to the block that holds its first hit.
    """
    poses = _poses(points, headings, threat.position, "turret")
    blocks = _turret_blocks(poses, threat)
    windows = _first_windows(_turret_margin(threat), poses, blocks)
    return np.array([w is not None for w in windows], dtype=bool)


def turret_neutralization_possible(a0: Point2, heading: float, threat: TurretThreat) -> bool:
    """Can the turret's beam meet the straight-running agent within range?

    The beam covers an angle of at most t by time t (unit slew rate), so
    neutralization at time t requires the angular separation between the
    initial look direction and the agent's bearing to be at most t while
    the agent is inside the range circle. Scans that margin over the
    in-range window, the same way as the pursuit oracle. One-element
    ``turret_neutralization_possible_batch``.
    """
    return bool(turret_neutralization_possible_batch(*_one(a0, heading), threat)[0])
