"""Brute-force engagement feasibility checks.

These are the ground truth the closed-form zone boundaries are tested
against, and each zone kind's ``engageable`` member answers with them.
Both oracles evaluate their raw capture/neutralization margin on a dense
time grid per pose, in one two-pass scan (``_cell_windows``). Every
pursuit pose has the same grid, built once per call as one shared row
(``_pursuit_grids``); each turret pose has its own in-range grid
(``_turret_grids``). A coarse pass reads every ``_CELL``-th time, as
(coarse times x poses) arrays, and a tent bound proves most cells
between those times clear (``_clear_cells``): the margin rises from a
cell's left end and falls toward its right end no faster than two rates.
For a turret both are a bound L on the margin's rate,
``1 + mu |miss| / d^2``. The pursuit slack is concave in t, so a
neighbouring cell's secant caps each of its rates, and L = 1 + mu stands
in past the grid's ends. A fine pass reads the other cells up to the
first coarse hit. A pose's first grid point where the margin is >= 0
gives its window. Without one, each local maximum that could reach 0
is rescanned on a finer grid across its bracket, a batch's maxima
together (``_settle``): for the concave pursuit slack, one whose
neighbours' secants let it (``_concave_top``); for a turret, one that L
lets. Skipping a clear cell or a maximum changes no verdict and no
window. The resolution is fixed by module constants, not options.
Feasibility stops at the first witnessed engagement; only the pursuit
certificate bisects the window it returns. The oracles read only threat
parameters and never call the analytic boundary formulas.
``pursuit_windows`` and ``turret_windows`` give each pose's window; the
batched feasibility functions wrap them, and the one-pose functions are
one-element views of those.

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


def _cell_windows(margin, poses: np.ndarray, grids: tuple, rates, concave: bool) -> list:
    """Bracket ``(lo, hi)`` of each pose's first engagement on its own grid, or None, in two passes.

    ``poses`` holds one column per pose (``_poses``). ``margin(poses, t)``
    maps pose columns and times that broadcast against them to the
    engagement margin, feasible where >= 0. ``grids`` is
    ``(rows, t_lo, t_hi, n, times)``: pose ``rows[g]`` has the grid
    ``np.linspace(t_lo[g], t_hi[g], n[g] + 1)`` and a pose not in ``rows``
    has none. ``t_lo``, ``t_hi`` and ``n`` hold one value per grid, or are
    scalars when every grid is the same one. ``times(g, k)`` gives the
    times at indices ``k`` of the grids ``g``, a slice or an index into
    ``rows`` that broadcasts against ``k``. ``rates(part, ts, f, h)``
    gives ``(climb, rise, fall)`` per cell and grid between the coarse
    times ``ts`` of grids ``part`` (a slice), where the margin is ``f``:
    climb bounds the margin's rate on the cell widened by its grid's step
    ``h``, and rise and fall are the tent's rates (``_clear_cells``); a
    scalar climb holds for every cell.

    The coarse pass evaluates every ``_CELL``-th time of each grid and its
    last, in (coarse times x grids) blocks of at most ``_BLOCK`` values, a
    grid per column, padded with its last time; grids of one length share
    one column of indices, and one grid one column of times.
    ``_clear_cells``' tent proves most cells between them clear. The fine
    pass evaluates the other cells before each pose's first coarse hit,
    each with one grid time on either side, in (cells x ``_CELL + 3``)
    blocks; without such a cell there is no fine pass. At a pose's first
    grid hit its bracket runs from the grid time before it. Without one,
    an interior grid maximum ``f`` of its open cells is refined
    (``_settle``) in case a short window fell between grid times, unless a
    bound proves its bracket below 0. A ``concave`` margin stays below
    ``2 f - min(f_left, f_right)`` there, the neighbouring secants
    extended past the maximum; that bound must be at least
    ``-_SLACK (1 + t_hi)``, which also covers the grid's rounded step
    ratio. Any other margin keeps the rate rule ``f >= -L h``, L its
    cell's climb.
    """
    count = poses.shape[1]
    windows: list[Optional[tuple[float, float]]] = [None] * count
    rows, t_lo, t_hi, n, times = grids
    if not len(rows):
        return windows
    every = len(rows) == count  # rows is sorted, so rows[g] == g: pose columns are slices
    shared = not isinstance(n, np.ndarray)

    def per_grid(a, g):  # the values of grids g
        return a if shared else a[g]

    h = (t_hi - t_lo) / n
    longest = int(n if shared else n.max())
    width = (longest - 1) // _CELL + 2  # coarse times of the longest grid
    uniform = shared or int(n.min()) == longest  # then every cell of every grid lies within it
    cells = np.arange(width - 1)[:, None]
    coarse = np.arange(width)[:, None] * _CELL  # each coarse time's index, before padding
    scan, climbs = [], []  # per coarse block: cell and grid of each cell to fine-scan, and its climb
    per_block = max(_BLOCK // width, 1)
    for start in range(0, len(rows), per_block):
        part = slice(start, start + per_block)
        ends = longest if uniform else n[part]
        ts = times(part, np.minimum(coarse, ends))
        f = margin(poses[:, part] if every else poses[:, rows[part]], ts)
        hit = f >= 0.0
        for j in hit[0].nonzero()[0].tolist():
            t = float(ts[0, min(j, ts.shape[1] - 1)])  # one column of times may serve every grid
            windows[rows[start + j]] = t, t
        step = per_grid(h, part)
        climb, rise, fall = rates(part, ts, f, step)
        scanned = cells < np.where(hit.any(axis=0), hit.argmax(axis=0), width)  # before the first coarse hit
        scanned &= ~_clear_cells(f, ts, step, climb, rise, fall)
        if not uniform:
            scanned &= coarse[:-1] < ends  # within the grid
        c, j = np.divmod(scanned.ravel().nonzero()[0], scanned.shape[1])
        scan.append((c, j + start))
        if not concave:
            climbs.append(climb[c, j])
    c, j = scan[0] if len(scan) == 1 else (np.concatenate(parts) for parts in zip(*scan))
    if not len(c):
        return windows
    if not concave:
        climb = np.concatenate(climbs)
    offsets = np.arange(-1, _CELL + 2)
    peaks = []  # per fine block: each candidate maximum's pose and bracket
    per_block = _BLOCK // len(offsets)
    for start in range(0, len(c), per_block):
        part = slice(start, start + per_block)
        jj = j[part]
        pose = jj if every else rows[jj]
        k, last = c[part, None] * _CELL + offsets, per_grid(n, jj[:, None])
        ts = times(jj[:, None], np.minimum(np.maximum(k, 0), last))  # its ends stand in past them
        m = margin(poses[:, pose, None], ts)
        hit = m[:, 1:-1] >= 0.0
        r = hit.any(axis=1).nonzero()[0]
        i = hit[r].argmax(axis=1)
        for p, a, b in zip(pose[r].tolist(), ts[r, i].tolist(), ts[r, i + 1].tolist()):
            if windows[p] is None:  # a pose's cells come in time order: keep its first hit
                windows[p] = a, b
        inner, left, right = m[:, 1:-2], m[:, :-3], m[:, 2:-1]  # the cell's own times and their neighbours
        r, i = np.divmod(((inner >= left) & (inner >= right)).ravel().nonzero()[0], _CELL)
        if concave:
            worth = _concave_top(inner[r, i], left[r, i], right[r, i]) >= -_SLACK * (1.0 + per_grid(t_hi, jj[r]))
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # infinite climb, step 0: NaN, and nothing to refine
                worth = inner[r, i] >= -(climb[part][r] * per_grid(h, jj[r]))
        at = k[r, i + 1]
        worth &= (at >= 1) & (at < (last if shared else last[r, 0]))  # interior grid times
        if worth.any():  # an empty block would cost _settle a dozen array calls
            r, i = r[worth], i[worth]
            peaks.append((pose[r], ts[r, i], ts[r, i + 2]))
    return _settle(margin, poses, windows, peaks)


def _concave_top(f: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Bound ``2 f - min(left, right)`` on a concave margin across the bracket of a grid maximum ``f``.

    ``left`` and ``right`` are the margin one step either side. The secant
    through the maximum and either neighbour, extended past the maximum to
    the other neighbour's time, lies above a concave margin there, so the
    margin stays below the higher of the two extensions on the bracket.
    """
    top = f + f
    top -= np.minimum(left, right)
    return top


def _settle(margin, poses: np.ndarray, windows: list, peaks: list) -> list:
    """Give each pose of ``windows`` still without one the first of its ``peaks`` whose refinement reaches 0.

    ``peaks`` holds arrays ``(k, lo, hi)``: pose ``k`` has a grid maximum
    bracketed by ``[lo, hi]``, each pose's in time order. A pose with a
    grid hit keeps it, unrefined, and when every pose of ``peaks`` has one
    nothing is refined. A refined maximum ``t`` that reaches 0 gives
    ``(lo, t)``, so ``margin(hi) >= 0`` for every window.
    """
    if not peaks:
        return windows
    k, lo, hi = peaks[0] if len(peaks) == 1 else (np.concatenate(parts) for parts in zip(*peaks))
    keep = np.array([windows[pose] is None for pose in k.tolist()], dtype=bool)
    if not keep.any():
        return windows
    k, lo = k[keep], lo[keep]
    t, f_t = _refine(margin, poses, k, lo, hi[keep])
    for pose, a, b in zip(*(column[f_t >= 0.0].tolist() for column in (k, lo, t))):
        if windows[pose] is None:  # a pose's maxima come in time order: keep its first
            windows[pose] = a, b
    return windows


def _refine(margin, poses: np.ndarray, k: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Best point ``t`` and margin ``f(t)`` of pose ``k[c]``'s margin on its bracket ``[lo[c], hi[c]]``.

    Each level samples the brackets at the 64 points of ``_SPREAD``, one
    margin call per chunk of at most ``_BLOCK`` values, and narrows each
    to the neighbours of its best point, for ``_LEVELS`` levels.
    """
    best_t, best_f = lo.copy(), np.full(len(k), -math.inf)
    per_chunk = _BLOCK // len(_SPREAD)
    for c in range(0, len(k), per_chunk):
        part = slice(c, c + per_chunk)
        rows, a, b = poses[:, k[part], None], lo[part], hi[part]
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


def _poses(points, headings, position: Point2, kind: str) -> np.ndarray:
    """Rows x, y and the heading's cosine and sine of n poses: one column (4 x n) per pose.

    The cosine and sine come from ``math.cos`` and ``math.sin``, one
    heading at a time, as the oracle's verdicts were first recorded, so
    they do not hang on numpy's vector math. Raises for a non-finite pose
    and for a pose on the threat.
    """
    points, headings = np.asarray(points, dtype=float), np.asarray(headings, dtype=float)
    require_finite_poses(points, headings)
    poses = np.empty((4, len(headings)))
    poses[:2] = points.T
    if ((poses[0] == position.x) & (poses[1] == position.y)).any():
        raise DomainError(f"agent exactly at the {kind} position")
    poses[2] = np.fromiter(map(math.cos, headings.tolist()), float, count=len(headings))
    poses[3] = np.fromiter(map(math.sin, headings.tolist()), float, count=len(headings))
    return poses


def _track(threat, poses: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Offsets from the threat of the straight-running agents ``poses`` at times t."""
    x, y, c, s = poses[0], poses[1], poses[2], poses[3]
    vt = threat.mu * t
    return x + vt * c - threat.position.x, y + vt * s - threat.position.y


def _pursuit_slack(threat: PursuerThreat):
    """Capture slack t + r - |A(t) - P0| of poses at times t; capture feasible where >= 0.

    Valid on t in [0, R]: the pursuer's reach balloon grows at unit speed
    until the range budget R is spent, and stopping burns the budget at
    the same rate, so the pursuer is out of the fight after t = R.
    """
    r = threat.capture_radius

    def slack(poses: np.ndarray, t: np.ndarray) -> np.ndarray:
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
    tent rates; no secant exceeds L, which stands in past the grid's ends
    and is the climb of every cell.
    """
    climb = 1.0 + threat.mu

    def rates(part: slice, ts: np.ndarray, f: np.ndarray, h: float):
        secant = np.subtract(f[1:], f[:-1])
        secant /= ts[1:] - ts[:-1]
        rise, fall = np.empty_like(secant), np.empty_like(secant)
        rise[0] = fall[-1] = climb
        np.maximum(secant[:-1], 0.0, out=rise[1:])
        np.negative(secant[1:], out=fall[:-1])
        np.maximum(fall[:-1], 0.0, out=fall[:-1])
        return climb, rise, fall

    return rates


def _pursuit_grids(count: int, R: float) -> tuple:
    """``_cell_windows``' grids of ``count`` pursuit poses, all one row ``np.linspace(0, R, _PURSUIT_STEPS + 1)``.

    Every pose has the grid of ``_PURSUIT_STEPS`` steps over the
    pursuer's life, t in [0, R] at unit pursuer speed, and ``linspace``
    gives it bit for bit as ``_grid_times`` gives each grid's times. So it
    is built once, and the times of any grids at indices k are ``row[k]``.
    """
    row = np.linspace(0.0, R, _PURSUIT_STEPS + 1)
    return np.arange(count), 0.0, R, _PURSUIT_STEPS, lambda g, k: row[k]


def pursuit_windows(points: np.ndarray, headings: np.ndarray, threat: PursuerThreat) -> list:
    """Each pose's first capture window ``(lo, hi)``, or None: rows of ``points`` (n x 2) with ``headings``.

    Every pose is scanned over the shared pursuit grid
    (``_pursuit_grids``), bounded per cell by ``_pursuit_rates``, and the
    slack's concavity bounds each grid maximum's bracket.
    """
    poses = _poses(points, headings, threat.position, "pursuer")
    grids = _pursuit_grids(len(poses[0]), threat.engagement_range)
    return _cell_windows(_pursuit_slack(threat), poses, grids, _pursuit_rates(threat), concave=True)


def _one(a0: Point2, heading: float) -> tuple[np.ndarray, np.ndarray]:
    """One pose as a one-row block."""
    return np.array([a0.as_tuple()]), np.array([heading], dtype=float)


def pursuit_capture_possible_batch(points: np.ndarray, headings: np.ndarray, threat: PursuerThreat) -> np.ndarray:
    """``pursuit_capture_possible`` of every pose: rows of ``points`` (n x 2) with ``headings``."""
    return np.array([w is not None for w in pursuit_windows(points, headings, threat)], dtype=bool)


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
    point, headings = _one(a0, heading)
    (window,) = pursuit_windows(point, headings, threat)
    if window is None:
        return None
    pose, slack = _poses(point, headings, threat.position, "pursuer"), _pursuit_slack(threat)
    t_cap = _bisect_first(lambda t: float(slack(pose, t)[0]), *window)
    return t_cap, t_cap


def _turret_grids(poses: np.ndarray, threat: TurretThreat):
    """Grid of each pose ever in range at t >= 0, ``(rows, t_lo, t_hi, n, times)``, and the cell rates on them.

    ``rows`` indexes those poses, and the other arrays hold one value per
    row: its grid is ``np.linspace(t_lo, t_hi, n + 1)``, whose times
    ``times`` reads with ``_grid_times``. The bounds come
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
    dx0, dy0 = poses[0] - threat.position.x, poses[1] - threat.position.y
    ux, uy, v, R = poses[2], poses[3], threat.mu, threat.engagement_range
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
        raise DomainError(f"agent at ({poses[0][j]}, {poses[1][j]}) overflows the oracle's in-range quadratic")
    rows = ((disc >= 0.0) & (t_hi >= 0.0)).nonzero()[0]
    t_lo, t_hi, along = np.maximum(t_lo[rows], 0.0), t_hi[rows], along[rows]
    steps = np.ceil((t_hi - t_lo) / (_TURRET_STEP * R / v))
    n = np.maximum(np.minimum(steps, math.ceil(2.0 / _TURRET_STEP) + 1), 64).astype(int)
    with np.errstate(over="ignore"):
        miss2, turn = miss[rows] ** 2, v * np.abs(miss[rows])  # |d|^2 - (d . u)^2, and the rate's numerator

    def rates(part: slice, ts: np.ndarray, f: np.ndarray, h: np.ndarray):
        # in place: on long turret grids these are the scan's largest arrays
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            near = ts[:-1] - h  # d . u at the widened cell's ends
            far = ts[1:] + h
            for end, closest in ((near, np.maximum), (far, np.minimum)):
                end *= v
                end += along[part]
                closest(end, 0.0, out=end)
            d2 = np.subtract(near, far, out=near)  # the least |d . u| over the cell, then the least |d|^2
            d2 *= d2
            d2 += miss2[part]
            climb = np.divide(turn[part], d2, out=far)
            climb += 1.0
            np.copyto(climb, np.inf, where=d2 == 0.0)
        return climb, climb, climb

    return (rows, t_lo, t_hi, n, lambda g, k: _grid_times(t_lo[g], t_hi[g], n[g], k)), rates


def _grid_times(start: np.ndarray, stop: np.ndarray, n: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Times ``k`` of the grids ``np.linspace(start, stop, n + 1)``, bit for bit, without the rest of them.

    ``start``, ``stop`` and ``n`` hold one value per grid and broadcast
    against ``k``, which holds indices in ``[0, n]``. Times are
    ``start + k * step`` with the grid's last time set to ``stop``,
    computed as numpy's ``linspace`` computes them, its path for a step
    that underflows to 0 included.
    """
    delta = stop - start
    step = delta / n
    ts = k * step
    zero = step == 0.0
    if zero.any():
        ts = np.where(zero, k / n * delta, ts)
    ts += start
    return np.where(k == n, stop, ts)


def _clear_cells(
    f: np.ndarray, ts: np.ndarray, h: np.ndarray, climb: np.ndarray, rise: np.ndarray, fall: np.ndarray
) -> np.ndarray:
    """Per cell ``[ts[c], ts[c + 1]]`` and pose: is the margin there provably below 0?

    Arrays hold one row per coarse time or cell and one column per pose,
    or broadcast to that. ``f`` is the margin at ``ts`` and ``h`` each
    pose's grid step. On a cell [a, b] the margin rises from f(a) no faster
    than ``rise`` and falls toward f(b) no faster than ``fall``, both >= 0, so
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
        top = np.subtract(f[:-1], f[1:])
        gain = np.multiply(np.subtract(ts[1:], ts[:-1]), rise)  # the most the margin gains from the cell's left end
        top += gain
        ratio = np.divide(rise, fall, out=gain)
        ratio += 1.0
        top /= ratio
        top += f[1:]  # the peak
        top += np.multiply(climb, 2.0 * h, out=ratio)  # two steps' padding at the rate L
    return top < -_SLACK * (1.0 + ts[-1:])  # the last coarse time is t_hi


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

    def margin(poses: np.ndarray, t: np.ndarray) -> np.ndarray:
        px, py = _track(threat, poses, t)
        return t - _separation(look - np.arctan2(py, px) + math.pi)

    return margin


def turret_windows(points: np.ndarray, headings: np.ndarray, threat: TurretThreat) -> list:
    """Each pose's first neutralization window ``(lo, hi)``, or None: rows of ``points`` (n x 2) with ``headings``.

    Each pose is scanned over its own in-range grid (``_turret_grids``).
    """
    poses = _poses(points, headings, threat.position, "turret")
    grids, rates = _turret_grids(poses, threat)
    return _cell_windows(_turret_margin(threat), poses, grids, rates, concave=False)


def turret_neutralization_possible_batch(points: np.ndarray, headings: np.ndarray, threat: TurretThreat) -> np.ndarray:
    """``turret_neutralization_possible`` of every pose: rows of ``points`` (n x 2) with ``headings``."""
    return np.array([w is not None for w in turret_windows(points, headings, threat)], dtype=bool)


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
