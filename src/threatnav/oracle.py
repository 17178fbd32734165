"""Brute-force engagement feasibility checks.

These are the ground truth the closed-form zone boundaries are tested
against, and each zone kind's ``engageable`` member answers with them.
Both oracles evaluate their raw capture/neutralization margin on a dense
time grid per pose, in one two-pass scan (``_cell_windows``). A coarse
pass reads every ``_CELL``-th time, and a tent bound proves most cells
between those times clear (``_clear_cells``): the margin rises from a
cell's left end and falls toward its right end no faster than two rates.
For a turret both are a bound L on the margin's rate,
``1 + mu |miss| / d^2``. The pursuit slack is concave in t, so a
neighbouring cell's secant caps each of its rates, and L = 1 + mu stands
in past the grid's ends. A fine pass reads the other cells up to the
first coarse hit. A pose's first grid point where the margin is >= 0
gives its window. Without one, each local maximum that L lets reach 0
is rescanned on a finer grid across its bracket, a batch's maxima
together (``_settle``). Skipping a clear cell changes no verdict
and no window. The resolution is fixed by module constants, not options.
Feasibility stops at the first witnessed engagement; only the pursuit
certificate bisects the window it returns. The oracles read only threat
parameters and never call the analytic boundary formulas. The one-pose
functions are one-element views of the batched ones.

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
_SPREAD = np.linspace(0.0, 1.0, 64)  # where a refinement level samples a bracket
_PURSUIT_STEPS = 1000  # pursuit grid steps over the pursuer's life
_TURRET_STEP = 1e-4  # turret grid step at most, in range / agent speed: 2 / _TURRET_STEP steps span any exact chord
_CELL = 128  # grid steps per coarse cell, either kind: 64 measured the same on turret grids; more widen the bound
_SLACK = 1e-9  # a clear cell's bound sits this far below 0 per unit of 1 + t: room for the margin's rounding, ~1e-15
_LEVELS = 9  # refinement levels: the least L with (2/63)^L <= phi^-60, what 60 golden-section steps leave
_BISECTIONS = 60  # halvings of the pursuit certificate's window


def _cell_windows(margin, poses: tuple, grids: tuple, rates) -> list:
    """Bracket ``(lo, hi)`` of each pose's first engagement on its own grid, or None, in two passes.

    ``poses`` are columns with one row per pose. ``margin(rows, t)`` maps
    pose columns and times that broadcast against them to the engagement
    margin, feasible where >= 0. ``grids`` is ``(rows, t_lo, t_hi, n)``:
    pose ``rows[g]`` has the grid ``np.linspace(t_lo[g], t_hi[g], n[g] + 1)``
    and a pose not in ``rows`` has none. ``rates(part, ts, f, h)`` gives
    ``(climb, rise, fall)`` per grid and cell between the coarse times
    ``ts`` of grids ``part`` (a slice), where the margin is ``f``: climb
    bounds the margin's rate on the cell widened by its grid's step
    ``h`` (a column), and rise and fall are the tent's rates
    (``_clear_cells``).

    The coarse pass evaluates every ``_CELL``-th time of each grid and its
    last, in padded (grids x coarse times) blocks of at most ``_BLOCK``
    values, and ``_clear_cells``' tent proves most cells between them clear. The
    fine pass evaluates the other cells before each pose's first coarse
    hit, each with one grid time on either side, in (cells x ``_CELL + 3``)
    blocks. At a pose's first grid hit its bracket runs from the grid time
    before it. Without one, each interior grid maximum of its open cells
    that is at least ``-L h``, L its cell's climb, is refined (``_settle``),
    in case a short window fell between grid times: a lower one cannot
    reach 0 within a step.
    """
    windows: list[Optional[tuple[float, float]]] = [None] * len(poses[0])
    rows, t_lo, t_hi, n = grids
    if not len(rows):
        return windows
    h = (t_hi - t_lo) / n
    width = (int(n.max()) - 1) // _CELL + 2  # coarse times of the longest grid
    cell = np.arange(width - 1)
    scan = []  # per coarse block: grid, cell and climb of each cell to fine-scan
    per_block = max(_BLOCK // width, 1)
    for start in range(0, len(rows), per_block):
        part = slice(start, start + per_block)
        k = np.minimum(np.arange(width) * _CELL, n[part, None])  # padded with the last time
        ts = _grid_times(t_lo[part], t_hi[part], n[part], k)
        f = margin(tuple(column[rows[part]] for column in poses), ts)
        hit = f >= 0.0
        first = np.where(hit.any(axis=1), hit.argmax(axis=1), width)[:, None]
        for j in np.flatnonzero(hit[:, 0]).tolist():
            windows[rows[start + j]] = float(ts[j, 0]), float(ts[j, 0])
        step = h[part, None]
        rate, rise, fall = rates(part, ts, f, step)
        clear = _clear_cells(f, ts, step, rate, rise, fall)
        j, c = np.nonzero((cell < first) & (cell * _CELL < n[part, None]) & ~clear)
        scan.append((j + start, c, rate[j, c]))
    j, c, rate = (np.concatenate(parts) for parts in zip(*scan))
    offsets = np.arange(-1, _CELL + 2)
    peaks = []  # per fine block: each candidate maximum's pose and bracket
    per_block = _BLOCK // len(offsets)
    for start in range(0, len(j), per_block):
        part = slice(start, start + per_block)
        jj, k = j[part], c[part, None] * _CELL + offsets
        last = n[jj, None]
        ts = _grid_times(t_lo[jj], t_hi[jj], n[jj], np.minimum(np.maximum(k, 0), last))  # its ends stand in past them
        m = margin(tuple(column[rows[jj]] for column in poses), ts)
        hit = m[:, 1:-1] >= 0.0
        r = np.flatnonzero(hit.any(axis=1))
        i = hit[r].argmax(axis=1) + 1
        for pose, a, b in zip(rows[jj[r]].tolist(), ts[r, i - 1].tolist(), ts[r, i].tolist()):
            if windows[pose] is None:  # a pose's cells come in time order: keep its first hit
                windows[pose] = a, b
        inner = m[:, 1:-2]  # the cell's own times: up to the one before the next cell's first
        with np.errstate(over="ignore", invalid="ignore"):  # infinite climb, step 0: NaN, and nothing to refine
            reach = -(rate[part] * h[jj])
        r, i = np.nonzero((inner >= m[:, :-3]) & (inner >= m[:, 2:-1]) & (inner >= reach[:, None]))
        at = k[r, i + 1]
        keep = (at >= 1) & (at < last[r, 0])  # interior grid times
        if keep.any():  # an empty block would cost _settle a dozen array calls
            r, i = r[keep], i[keep]
            peaks.append((rows[jj[r]], ts[r, i], ts[r, i + 2]))
    return _settle(margin, poses, windows, peaks)


def _settle(margin, poses: tuple, windows: list, peaks: list) -> list:
    """Give each pose of ``windows`` still without one the first of its ``peaks`` whose refinement reaches 0.

    ``peaks`` holds arrays ``(k, lo, hi)``: pose ``k`` has a grid maximum
    bracketed by ``[lo, hi]``, each pose's in time order. A pose with a
    grid hit keeps it, unrefined. A refined maximum ``t`` that reaches 0
    gives ``(lo, t)``, so ``margin(hi) >= 0`` for every window.
    """
    if peaks:
        k, lo, hi = (np.concatenate(parts) for parts in zip(*peaks))
        keep = np.array([windows[pose] is None for pose in k.tolist()], dtype=bool)
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


def _pursuit_rates(threat: PursuerThreat):
    """``_cell_windows``' cell rates ``(climb, rise, fall)`` of the capture slack on the pursuit grid.

    The slack climbs at most L = 1 + mu per unit time: the agent closes
    at mu, the balloon grows at 1. It is concave in t, the norm
    |A + mu t u - P| of an affine map being convex, so its secants fall
    from cell to cell: from a cell's left end it rises no faster than the
    cell before it rose, and toward its right end it falls no faster than
    the cell after it falls. Those secants, floored at 0, are the cell's
    tent rates; no secant exceeds L, which stands in past the grid's ends.
    """
    climb = 1.0 + threat.mu

    def rates(part: slice, ts: np.ndarray, f: np.ndarray, h: np.ndarray):
        secant = np.subtract(f[:, 1:], f[:, :-1])
        secant /= ts[0, 1:] - ts[0, :-1]  # every pose has the same grid
        rise, fall = np.empty_like(secant), np.empty_like(secant)
        # each pose's secants shifted one cell along the flat rows: the shifts
        # that cross from one pose to the next land where L stands in
        np.maximum(secant.ravel()[:-1], 0.0, out=rise.ravel()[1:])
        np.negative(secant.ravel()[1:], out=fall.ravel()[:-1])
        rise[:, 0] = fall[:, -1] = climb
        np.maximum(fall, 0.0, out=fall)
        return np.full_like(secant, climb), rise, fall

    return rates


def _pursuit_windows(poses: tuple, threat: PursuerThreat) -> list:
    """Each pose's first capture window, or None.

    Every pose has the grid of ``_PURSUIT_STEPS`` steps over the pursuer's
    life, t in [0, R] at unit pursuer speed, bounded per cell by
    ``_pursuit_rates``.
    """
    count, R = len(poses[0]), threat.engagement_range
    grids = np.arange(count), np.zeros(count), np.full(count, R), np.full(count, _PURSUIT_STEPS)
    return _cell_windows(_pursuit_slack(threat), poses, grids, _pursuit_rates(threat))


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


def _turret_grids(poses: tuple, threat: TurretThreat):
    """Grid of each pose ever in range at t >= 0, ``(rows, t_lo, t_hi, n)``, and the cell rates on them.

    ``rows`` indexes those poses, and the other arrays hold one value per
    row: its grid is ``np.linspace(t_lo, t_hi, n + 1)``. The bounds come
    from one array evaluation, which raises for a pose so far out that its
    in-range quadratic overflows. A grid has steps of at most
    ``_TURRET_STEP`` R / mu, at least 64 of them, and at most one more
    than any exact chord needs. That cap binds only where t_lo and t_hi
    round apart by more than the chord, far out along the track.

    The rates are ``_cell_windows``': with d the offset from the turret
    to the agent and u its heading, the margin t - |look - bearing| climbs
    at most L = 1 + mu |d x u| / |d|^2 per unit time, ``d x u`` being the
    signed miss distance. L takes the least |d| over the widened cell, from
    ``d . u`` at its ends, and is infinite where that |d| is 0. The margin
    is not concave, so L is also both of the cell's tent rates.
    """
    dx0, dy0 = poses[0][:, 0] - threat.position.x, poses[1][:, 0] - threat.position.y
    ux, uy, v, R = poses[2][:, 0], poses[3][:, 0], threat.mu, threat.engagement_range
    # |d + v t u|^2 = R^2, with the leading coefficient v^2. Its discriminant
    # b^2 - 4 v^2 (|d|^2 - R^2) is 4 v^2 (R^2 - (d x u)^2), which does not cancel far out.
    with np.errstate(over="ignore", invalid="ignore"):
        along, miss = dx0 * ux + dy0 * uy, dx0 * uy - dy0 * ux
        b = 2.0 * v * along
        disc = 4.0 * v * v * (R * R - miss * miss)
        sq = np.sqrt(np.maximum(disc, 0.0))
        t_lo, t_hi = (-b - sq) / (2.0 * v * v), (-b + sq) / (2.0 * v * v)
    bad = ~(np.isfinite(disc) & np.isfinite(t_lo) & np.isfinite(t_hi))
    if bad.any():
        j = int(bad.argmax())
        raise DomainError(f"agent at ({poses[0][j, 0]}, {poses[1][j, 0]}) overflows the oracle's in-range quadratic")
    rows = np.flatnonzero((disc >= 0.0) & (t_hi >= 0.0))
    t_lo, t_hi, miss, along = np.maximum(t_lo[rows], 0.0), t_hi[rows], miss[rows, None], along[rows, None]
    steps = np.ceil((t_hi - t_lo) / (_TURRET_STEP * R / v))
    n = np.maximum(np.minimum(steps, math.ceil(2.0 / _TURRET_STEP) + 1), 64).astype(int)

    def rates(part: slice, ts: np.ndarray, f: np.ndarray, h: np.ndarray):
        # in place: on long turret grids these are the scan's largest arrays
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            near = ts[:, :-1] - h  # d . u at the widened cell's ends
            far = ts[:, 1:] + h
            for end, closest in ((near, np.maximum), (far, np.minimum)):
                end *= v
                end += along[part]
                closest(end, 0.0, out=end)
            d = np.hypot(miss[part], np.subtract(near, far, out=near), out=near)
            climb = np.abs(miss[part]) / d
            climb *= v
            climb /= d
            climb += 1.0
            np.copyto(climb, np.inf, where=d == 0.0)
        return climb, climb, climb

    return (rows, t_lo, t_hi, n), rates


def _grid_times(start: np.ndarray, stop: np.ndarray, n: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Times ``k`` of row i's ``np.linspace(start[i], stop[i], n[i] + 1)``, bit for bit, without the rest of it.

    ``k`` holds indices in ``[0, n[i]]``, one row per grid. Times are
    ``start + k * step`` with the grid's last time set to ``stop``,
    computed as numpy's ``linspace`` computes them, its path for a step
    that underflows to 0 included.
    """
    delta = stop - start
    step = delta / n
    ts = k * step[:, None]
    zero = step == 0.0
    if zero.any():
        ts[zero] = k[zero] / n[zero, None] * delta[zero, None]
    ts += start[:, None]
    np.copyto(ts, stop[:, None], where=k == n[:, None])
    return ts


def _clear_cells(
    f: np.ndarray, ts: np.ndarray, h: np.ndarray, climb: np.ndarray, rise: np.ndarray, fall: np.ndarray
) -> np.ndarray:
    """Per pose and cell ``[ts[:, c], ts[:, c + 1]]``: is the margin there provably below 0?

    ``f`` is the margin at ``ts`` and ``h`` each pose's grid step, a
    column. On a cell [a, b] the margin rises from f(a) no faster than
    ``rise`` and falls toward f(b) no faster than ``fall``, both >= 0, so
    it stays under the tent ``min(f(a) + rise (t - a), f(b) + fall (b - t))``,
    whose peak is ``f(b) + (f(a) - f(b) + rise (b - a)) / (1 + rise / fall)``.
    ``climb`` is the margin's greatest rate L on the cell widened by h on
    either side: the peak plus 2 L h covers every grid time of the cell and
    every time its refinement samples, which lie within one step of the
    cell, with a step to spare for the grid's rounding. A cell is clear
    when that bound is below ``-_SLACK (1 + t_hi)``. With rise = fall = L
    the peak is the Lipschitz bound, the mean of f(a) and f(b) plus
    L (b - a) / 2; rates both 0 or both infinite leave the cell open.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # 0 / 0, inf / inf, inf * 0: NaN, not clear
        top = np.subtract(f[:, :-1], f[:, 1:])
        gain = np.subtract(ts[:, 1:], ts[:, :-1])
        gain *= rise  # the most the margin gains over the cell from its left end
        top += gain
        ratio = np.divide(rise, fall, out=gain)
        ratio += 1.0
        top /= ratio
        top += f[:, 1:]  # the peak
        top += np.multiply(climb, 2.0 * h, out=ratio)  # two steps' padding at the rate L
    return top < -_SLACK * (1.0 + ts[:, -1:])  # the last coarse time is t_hi


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

    Each pose is scanned over its own in-range grid (``_turret_grids``).
    """
    poses = _poses(points, headings, threat.position, "turret")
    windows = _cell_windows(_turret_margin(threat), poses, *_turret_grids(poses, threat))
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
