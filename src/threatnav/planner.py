"""Minimum-time path planning that stays outside every engagement zone.

Transcription: a uniform time grid with the terminal time as a decision
variable and one piecewise-constant heading per segment. Node positions
are chained forward from the start, so the decision vector is exactly
n_nodes long (n_nodes - 1 headings plus the terminal time). The zone
constraint has one row per node pose and threat: pursuer zones via the
aspect-angle clearance with the node's segment heading, turret zones via
the chord-threshold ray test. Every pose the module evaluates, a
constraint row's, the per-node report's or the dense audit's, is a
(segment k, fraction f) pose of a path, which has at least one segment.
``trajectory.place`` puts it at node k + f (node k+1 - node k) with
segment k's heading, f = 1 reading node k+1 as stored, and
``trajectory.node_poses`` names each node as such a pose. One helper
(``_zone_rows``) asks each threat for the clearance and pose gradient of
a batch of such poses in one call, and SLSQP solves the program with
analytic Jacobians: every zone row is chained through ``_chain`` from
its pose partials, and the endpoint's rows are the kept steps.
``TranscribedProblem`` keeps the node positions, the steps between
them and every row's clearance and pose partials for the last decision
vector, so each decision vector runs each threat's kernel once: SLSQP's
constraint and Jacobian callbacks at one iterate and the planner's own
checks share it, and a subset of rows is a slice of it. The planner
knows a threat only through the ``Threat`` protocol, so a new zone kind
needs no code.

Only warm starts that can win are solved. A straight chord whose node
poses all clear every zone is optimal: its t_f is the lower bound
chord_time, so it is returned at once with no solve. That chord is also
the straight_line warm start. A blocked chord is a degenerate saddle and
is never solved; the solver starts from deterministic bowed detours on
both sides instead (and from the circumnav_reach or custom warm start
when one is chosen, adding the detours only when that one is blocked
too), and keeps the best feasible result.

Grids finer than _COARSE_NODES are solved coarse to fine. The scenario
is first planned on the coarse grid, and that plan, packed onto the fine
grid, is the only warm start. SLSQP sees only the rows whose clearance
there is below _SCREEN_FRACTION of their threat's extent; after each
solve every row is checked again, and any screened-out row below
-constraint_tolerance joins the next solve from that result. When the
coarse plan did not converge, or is an unsolved clear chord, the fine
grid is solved from the warm starts above with every row. ``converged``
and ``min_clearance`` always come from every row. Each solve logs one
debug line to the ``threatnav.planner`` logger.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Protocol, Sequence

import numpy as np
from scipy.optimize import minimize

from . import circumnav as _circ
from .errors import DomainError, InfeasibleError
from .geometry import Point2, distance, require_number
from .oracle import pursuit_capture_possible, turret_neutralization_possible  # noqa: F401
from .pursuit import rho, rho_derivative  # noqa: F401
from .trajectory import Trajectory, node_poses, place
from .turret import turret_clearance  # noqa: F401

# The planner knows a threat only through the Threat protocol, so none of
# the names imported with noqa above is called here: the audit asks each
# threat's engageable member. They stay bound because benchmarks/tracing.py
# wraps them by name and its self-test expects every binding it names to
# exist.

_log = logging.getLogger(__name__)

_COARSE_NODES = 50  # finer grids start from a plan on this one
# Rows whose warm-start clearance is below this share of their threat's
# extent enter the first fine solve. The share guards more than speed: at
# 0, golden n=100 and n=200 converge to local optima 12% and 23% slower,
# and adding the violated rows afterwards does not undo that.
_SCREEN_FRACTION = 0.1


class Threat(Protocol):
    """An engagement zone centred on ``position``, as the planner sees it.

    ``clearance_and_gradient`` maps n poses (an n x 2 array of points and
    n headings), in one kernel call, to n signed clearances, positive
    outside the zone, and three arrays of n partials of them, in x, y and
    heading; the planner's rows, the per-node report and the dense audit
    all ask it, through one helper. ``keep_out_radius`` is the radius
    of the disk around ``position`` that no endpoint may enter and that
    circumnav_reach rides (0 when there is none). ``extent`` bounds how
    far from ``position`` the zone reaches; the detour warm starts bow
    out past the largest one. ``engageable`` is the independent referee
    that ``resample_and_verify`` consults: it maps n poses to n booleans,
    True where a brute-force search finds an engagement of the agent
    holding its heading, and it must not call the closed forms behind
    ``clearance_and_gradient``.
    """

    position: Point2

    def clearance_and_gradient(
        self, points: np.ndarray, headings: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]: ...

    def engageable(self, points: np.ndarray, headings: np.ndarray) -> np.ndarray: ...

    @property
    def keep_out_radius(self) -> float: ...

    @property
    def extent(self) -> float: ...


@dataclass(frozen=True)
class AgentConfig:
    start: Point2
    goal: Point2
    speed: float

    def __post_init__(self) -> None:
        require_number("agent speed", self.speed, "positive")
        if self.start == self.goal:
            raise DomainError("start and goal must differ")
        chord_time = distance(self.start, self.goal) / self.speed
        if not math.isfinite(chord_time):
            raise DomainError(
                f"chord time distance(start, goal) / speed must be finite, got {chord_time} for start "
                f"{self.start.as_tuple()}, goal {self.goal.as_tuple()} and speed {self.speed}"
            )


@dataclass(frozen=True)
class PlannerOptions:
    n_nodes: int = 100
    constraint_tolerance: float = 1e-6
    opt_tolerance: float = 1e-8
    max_iterations: int = 500
    initialization: str = "straight_line"
    custom_trajectory: Optional[Trajectory] = None

    def __post_init__(self) -> None:
        if self.n_nodes < 3:
            raise ValueError(f"n_nodes must be at least 3, got {self.n_nodes}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")
        require_number("constraint_tolerance", self.constraint_tolerance, "positive")
        require_number("opt_tolerance", self.opt_tolerance, "positive")
        if self.initialization not in ("straight_line", "circumnav_reach", "custom"):
            raise ValueError(f"unknown initialization {self.initialization!r}")
        if self.initialization == "custom" and self.custom_trajectory is None:
            raise ValueError("custom initialization requires a trajectory")
        if self.initialization != "custom" and self.custom_trajectory is not None:
            raise ValueError(f"{self.initialization} initialization reads no custom_trajectory")


@dataclass(frozen=True)
class Scenario:
    agent: AgentConfig
    threats: tuple[Threat, ...] = ()
    options: PlannerOptions = field(default_factory=PlannerOptions)

    def __post_init__(self) -> None:
        object.__setattr__(self, "threats", tuple(self.threats))


@dataclass(frozen=True)
class PlanResult:
    trajectory: Trajectory
    t_f: float
    converged: bool
    min_clearance: float
    iterations: int


@dataclass(frozen=True)
class VerificationReport:
    """Densified constraint audit of a planned trajectory."""

    worst_clearance: float
    worst_time: float
    oracle_disagreements: int
    points_checked: int


class TranscribedProblem:
    """NLP view of a scenario: objective, constraints, and Jacobians.

    The decision vector z holds the n_nodes - 1 segment headings followed
    by the terminal time. SLSQP asks for the constraints and their
    Jacobians at one iterate in separate callbacks, so the problem keeps
    one entry: the last z it was asked about, compared by value (SLSQP
    rewrites its array in place), with its node positions, the steps
    between them and, for every row, each threat's clearances and pose
    partials. ``rows`` only picks which of those rows a call returns. The
    chain rule reads each heading's effect on the later nodes from the
    kept steps, and each row's mask of the headings that cannot move it
    is built once per problem.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.n = scenario.options.n_nodes
        self.speed = scenario.agent.speed
        self.a0 = np.array(scenario.agent.start.as_tuple())
        self.af = np.array(scenario.agent.goal.as_tuple())
        self.threats = scenario.threats
        # A node belongs to two segments and the continuous path visits it
        # with both headings (the corner is instantaneous), so interior
        # nodes are constrained twice: once with the outgoing heading and
        # once with the incoming one. The 2n-2 poses are every node with
        # its outgoing heading, (k, 0) and the goal (n-2, 1), then interior
        # nodes 1..n-2 with the incoming heading, (k, 1) for k = 0..n-3.
        n = self.n
        seg, frac = node_poses(n)
        self._seg = np.concatenate([seg, np.arange(n - 2)])
        self._frac = np.concatenate([frac, np.ones(n - 2)])
        # every fraction is 0 or 1, so the pose rule placed once on the node numbers gives each pose's node
        self._node = place(np.arange(n), self._seg, self._frac).astype(np.intp)
        # the node and heading index of each row of the stacked constraint vector, one block per threat
        self._row_node = np.tile(self._node, len(self.threats))
        self._row_head = np.tile(self._seg, len(self.threats))
        # heading j is at or after node k: no effect on it
        self._row_after = (np.arange(n - 1) >= np.arange(n)[:, None])[self._row_node]
        self._z: Optional[bytes] = None  # the memo: the last z, its node positions and steps, and every row there
        self._points = np.empty((0, 2))
        self._steps = np.empty((0, 2))
        self._evaluated: Optional[np.ndarray] = None

    # -- kinematics -------------------------------------------------------

    def chord(self) -> np.ndarray:
        """z of the straight chord: its heading on every segment and t_f = chord length / speed, the least t_f."""
        start, goal = self.scenario.agent.start, self.scenario.agent.goal
        heading = math.atan2(goal.y - start.y, goal.x - start.x)
        return np.append(np.full(self.n - 1, heading), distance(start, goal) / self.speed)

    def positions(self, z: np.ndarray) -> np.ndarray:
        """Node positions (n x 2) of z, read-only.

        They are kept with the steps between them, (speed dt) (cos psi, sin psi) per segment, for the
        next call at the same z; a new z drops the memo's rows.
        """
        key = z.tobytes()
        if key != self._z:
            psi, t_f = z[:-1], z[-1]
            dt = t_f / (self.n - 1)
            self._steps = self.speed * dt * np.stack([np.cos(psi), np.sin(psi)], axis=1)
            self._points = np.empty((self.n, 2))
            self._points[0] = self.a0
            np.cumsum(self._steps, axis=0, out=self._points[1:])
            self._points[1:] += self.a0
            self._points.flags.writeable = False
            self._z, self._evaluated = key, None
        return self._points

    # -- endpoint equality -------------------------------------------------

    def endpoint(self, z: np.ndarray) -> np.ndarray:
        return self.positions(z)[-1] - self.af

    def endpoint_jacobian(self, z: np.ndarray) -> np.ndarray:
        """Every heading turns its step a quarter left, (-step_y, step_x); t_f scales the goal's offset from the start."""
        goal = self.positions(z)[-1] - self.a0
        jac = np.empty((2, self.n))
        np.negative(self._steps[:, 1], out=jac[0, :-1])
        jac[1, :-1] = self._steps[:, 0]
        jac[:, -1] = goal / z[-1]
        return jac

    # -- zone clearances ----------------------------------------------------

    def clearances(self, z: np.ndarray, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Stacked per-pose clearance, one block of 2n-2 values per threat (only ``rows`` if given)."""
        clear = self._evaluate(z)[0]
        return clear if rows is None else clear[rows]

    def clearance_jacobian(self, z: np.ndarray, rows: Optional[np.ndarray] = None) -> np.ndarray:
        keep = slice(None) if rows is None else rows
        rows_of = self._row_node[keep], self._row_head[keep], self._row_after[keep]
        return self._chain(z, *rows_of, *self._evaluate(z)[1:, keep])

    def _evaluate(self, z: np.ndarray) -> np.ndarray:
        """``_zone_rows`` of every constrained pose at z, one ``clearance_and_gradient`` call per threat.

        It is kept for the next call at the same z.
        """
        points = self.positions(z)
        if self._evaluated is None:
            self._evaluated = _zone_rows(self.threats, points[self._node], z[:-1][self._seg])
            self._evaluated.flags.writeable = False  # clearances(z) hands out a view of it
        return self._evaluated

    def _chain(self, z, nodes, heads, after, gx, gy, gpsi) -> np.ndarray:
        """Jacobian rows of the clearances of the poses (node, heading index) from their pose gradients.

        ``after`` marks, per row, the headings at or after its node. A heading moves every later node by
        its step turned a quarter left, (-step_y, step_x), read from the memo with no trigonometry.
        """
        n = self.n
        points, steps = self.positions(z), self._steps
        m = len(nodes)
        jac = np.empty((m, n))
        # position chain: node k depends on headings 0..k-1, so each row is zeroed from its node on
        chain = jac[:, : n - 1]
        np.multiply(gx[:, None], -steps[:, 1], out=chain)
        chain += gy[:, None] * steps[:, 0]
        np.copyto(chain, 0.0, where=after)
        # direct dependence on the pose's own heading
        jac[np.arange(m), heads] += gpsi
        # terminal-time column through the node positions
        rel = points[nodes] - self.a0
        jac[:, -1] = (gx * rel[:, 0] + gy * rel[:, 1]) / z[-1]
        return jac

    # -- warm-start packing --------------------------------------------------

    def pack(self, trajectory: Trajectory) -> np.ndarray:
        pts = _resample_equal_arc(trajectory.points, self.n)
        deltas = np.diff(pts, axis=0)
        psi = np.arctan2(deltas[:, 1], deltas[:, 0])
        length = float(np.sum(np.hypot(deltas[:, 0], deltas[:, 1])))
        return np.concatenate([psi, [max(length / self.speed, 1e-12)]])

    def unpack(self, z: np.ndarray) -> Trajectory:
        t_f = float(z[-1])
        times = np.linspace(0.0, t_f, self.n)
        return Trajectory(
            times=times, points=self.positions(z).copy(), headings=z[:-1].copy(), speed=self.speed
        )


def transcribe(scenario: Scenario) -> TranscribedProblem:
    """Build the NLP view used by ``plan`` (also handy for gradient checks)."""
    return TranscribedProblem(scenario)


def initialize(scenario: Scenario, mode: str) -> Trajectory:
    """Warm-start trajectory for the solver.

    straight_line is the chord ``plan`` returns unsolved when it is clear
    (``TranscribedProblem.chord``); circumnav_reach rides the
    keep-out circle of the first threat that has one (a pursuer's
    capturability disk); custom passes the options' custom_trajectory
    through.
    """
    agent = scenario.agent
    if mode == "straight_line":
        problem = transcribe(scenario)
        return problem.unpack(problem.chord())
    if mode == "circumnav_reach":
        threat = _reach_threat(scenario.threats)
        spec = _circ.CircumnavSpec("Reach", threat.keep_out_radius)
        result = _circ.circumnavigate(agent.start, agent.goal, threat.position, spec, agent.speed)
        return Trajectory.from_polyline(_resample_equal_arc(result.path.points, scenario.options.n_nodes), agent.speed)
    if mode == "custom":
        if scenario.options.custom_trajectory is None:
            raise ValueError("custom initialization requires a trajectory")
        return scenario.options.custom_trajectory
    raise ValueError(f"unknown initialization mode {mode!r}")


def plan(scenario: Scenario) -> PlanResult:
    """Solve the minimum-time problem for the scenario.

    A chord that clears every zone at every node pose is returned as is
    (0 iterations): no path is faster. A grid finer than _COARSE_NODES is
    solved from the coarse grid's plan over the rows that can bind, as
    the module docstring says. Otherwise the warm starts that can win are
    solved (the two detours for straight_line; the chosen warm start,
    plus the detours when it is blocked, for circumnav_reach and custom)
    and the best feasible result is kept. ``iterations`` counts every
    solve, the coarse grid's included.

    Raises InfeasibleError when an endpoint sits strictly inside a
    threat's keep-out disk (a pursuer's capturability disk), and
    DomainError when it sits exactly on a threat with no keep-out disk (a
    turret), both before any solve. Returns the best feasible iterate
    with converged=False when the solver stalls before full convergence.
    """
    opts = scenario.options
    _screen_endpoints(scenario)
    problem = transcribe(scenario)
    chord = problem.chord()
    chord_time = float(chord[-1])

    seeds = []  # (name, packed warm start)
    if opts.initialization != "straight_line":
        seeds.append((opts.initialization, problem.pack(initialize(scenario, opts.initialization))))

    # a chord node exactly on a threat, where a zone's partials or frame are undefined, blocks the chord unevaluated
    if not _on_a_threat(problem.positions(chord), scenario.threats):
        clear = problem.clearances(chord)
        if np.all(clear >= 0.0):  # a NaN clearance counts as blocked
            min_clear = float(np.min(clear)) if clear.size else math.inf
            _log.debug("chord clear: returned unsolved, t_f %.12g, min clearance %.6g", chord_time, min_clear)
            return PlanResult(problem.unpack(chord), chord_time, True, min_clear, 0)

    rows = np.ones(len(problem._row_node), dtype=bool)
    coarse = None
    if opts.n_nodes > _COARSE_NODES:
        coarse = plan(replace(scenario, options=replace(opts, n_nodes=_COARSE_NODES)))
    total_nit = coarse.iterations if coarse is not None else 0
    # a coarse plan of 0 iterations is its clear chord, which says nothing of the blocked fine one
    if coarse is not None and coarse.converged and coarse.iterations > 0:
        z0 = problem.pack(coarse.trajectory)
        extents = np.repeat([t.extent for t in scenario.threats], len(problem._seg))
        seeds, rows = [("coarse", z0)], problem.clearances(z0) < _SCREEN_FRACTION * extents
    elif not seeds or not np.all(problem.clearances(seeds[0][1]) >= 0.0):
        seeds.extend(zip(("detour+", "detour-"), (problem.pack(t) for t in _detour_seeds(scenario))))

    n_vars = opts.n_nodes
    grad = np.zeros(n_vars)
    grad[-1] = 1.0
    bounds = [(None, None)] * (n_vars - 1) + [(chord_time * (1.0 - 1e-12), None)]

    best = None  # (key, z, success, feasible, every clearance row of z)
    for name, z0 in seeds:
        keep = rows.copy()
        while True:
            res = minimize(
                lambda z: z[-1],
                z0,
                jac=lambda z: grad,
                method="SLSQP",
                bounds=bounds,
                constraints=[
                    {"type": "eq", "fun": problem.endpoint, "jac": problem.endpoint_jacobian},
                    {
                        "type": "ineq",
                        "fun": lambda z: problem.clearances(z, keep),
                        "jac": lambda z: problem.clearance_jacobian(z, keep),
                    },
                ],
                options={"maxiter": opts.max_iterations, "ftol": opts.opt_tolerance},
            )
            total_nit += int(res.nit)
            z = res.x
            clear = problem.clearances(z)
            viol = _max_violation(problem, z, clear)
            _log.debug(
                "seed %s: n %d, rows %d/%d, nit %d, status %d (%s), t_f %.12g, violation %.3g",
                name, opts.n_nodes, np.count_nonzero(keep), keep.size, res.nit, res.status, res.message,
                z[-1], viol,
            )
            missed = ~keep & (clear < -opts.constraint_tolerance)
            if not missed.any():
                break
            keep |= missed
            z0 = z
        feasible = viol <= opts.constraint_tolerance
        key = (0, float(z[-1])) if feasible else (1, viol)
        if best is None or key < best[0]:
            best = (key, z, bool(res.success), feasible, clear)

    _, z, success, feasible, clear = best
    return PlanResult(
        trajectory=problem.unpack(z),
        t_f=float(z[-1]),
        converged=bool(success and feasible),
        min_clearance=float(np.min(clear)),
        iterations=total_nit,
    )


def clearances_along(trajectory: Trajectory, threats: Sequence[Threat]) -> np.ndarray:
    """Per-node clearance matrix (n_nodes x n_threats) for reporting: each node with its outgoing heading.

    These are the poses of the planner's first n rows, the goal's included, placed by the same rule.
    """
    n = len(trajectory.points)
    seg, frac = node_poses(n)
    node = place(np.arange(n), seg, frac).astype(np.intp)
    return _zone_clearances(threats, trajectory.points[node], trajectory.headings[seg]).T


def resample_and_verify(result: PlanResult, scenario: Scenario, factor: int) -> VerificationReport:
    """Densify each segment and re-audit clearance and oracle safety.

    Node-only constraints can dip between nodes; this reports the worst
    densified clearance and counts points the closed forms call safe
    (clearance above the constraint tolerance) but the threat's
    ``engageable`` referee calls engageable.
    """
    if factor < 2:
        raise ValueError(f"factor must be at least 2, got {factor}")
    traj = result.trajectory
    tol = scenario.options.constraint_tolerance
    # factor poses per segment at fractions j / factor, then the goal node
    n_seg = len(traj.headings)
    seg = np.append(np.repeat(np.arange(n_seg), factor), n_seg - 1)
    frac = np.append(np.tile(np.arange(factor) / factor, n_seg), 1.0)
    q, psi = place(traj.points, seg, frac), traj.headings[seg]

    worst, worst_time, disagreements = math.inf, 0.0, 0
    if scenario.threats:
        clear = _zone_clearances(scenario.threats, q, psi)
        nearest = clear.min(axis=0)
        row = int(np.argmin(nearest))  # the first pose with the least clearance of any threat
        worst = float(nearest[row])
        worst_time = float(place(traj.times, seg[row : row + 1], frac[row : row + 1])[0])
        for threat, c in zip(scenario.threats, clear):
            safe = c > tol
            disagreements += int(np.count_nonzero(threat.engageable(q[safe], psi[safe])))
    return VerificationReport(
        worst_clearance=worst,
        worst_time=worst_time,
        oracle_disagreements=disagreements,
        points_checked=len(q),
    )


# -- internals ---------------------------------------------------------------


def _zone_rows(threats: Sequence[Threat], points: np.ndarray, headings: np.ndarray) -> np.ndarray:
    """Every threat's ``clearance_and_gradient`` at the poses as 4 x (threats x poses), one block per threat.

    The rows are the clearance and its partials in x, y and heading.
    """
    blocks = [np.array(t.clearance_and_gradient(points, headings)) for t in threats]
    return np.concatenate([np.empty((4, 0)), *blocks], axis=1)  # 4 x 0 with no threats


def _zone_clearances(threats: Sequence[Threat], points: np.ndarray, headings: np.ndarray) -> np.ndarray:
    """The clearance row of ``_zone_rows`` as threats x poses, for the callers that need no partials.

    A pose exactly on a pursuer has a clearance but no partials, so their division warnings are silenced.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return _zone_rows(threats, points, headings)[0].reshape(len(threats), len(headings))


def _on_a_threat(points: np.ndarray, threats: Sequence[Threat]) -> bool:
    """True when some row of ``points`` is exactly some threat's position."""
    return any(((points[:, 0] == t.position.x) & (points[:, 1] == t.position.y)).any() for t in threats)


def _screen_endpoints(scenario: Scenario) -> None:
    """Reject an endpoint inside a threat's keep-out disk, or exactly on a threat that has none.

    A zone without a keep-out disk (a turret's) is undefined at the
    threat's own position, so such an endpoint is a domain error.
    """
    for i, threat in enumerate(scenario.threats):
        disk = threat.keep_out_radius
        for name, point in (("start", scenario.agent.start), ("goal", scenario.agent.goal)):
            if disk == 0.0 and point == threat.position:
                raise DomainError(f"{name} {point.as_tuple()} lies exactly on threats[{i}], where its zone is undefined")
            if distance(point, threat.position) < disk:
                raise InfeasibleError(
                    f"{name} lies inside a capturability disk "
                    f"(distance {distance(point, threat.position):.6g} < {disk:.6g})"
                )


def _reach_threat(threats: Sequence[Threat]) -> Threat:
    """The threat whose keep-out circle circumnav_reach rides: the first that has one."""
    for threat in threats:
        if threat.keep_out_radius > 0.0:
            return threat
    raise ValueError("circumnav_reach initialization needs a threat with a keep-out disk (a pursuer)")


def _max_violation(problem: TranscribedProblem, z: np.ndarray, clear: np.ndarray) -> float:
    """Largest endpoint miss or zone violation of z, whose every clearance row is ``clear``."""
    viol = float(np.max(np.abs(problem.endpoint(z))))
    if clear.size:
        viol = max(viol, float(-np.min(np.minimum(clear, 0.0))))
    return viol


def _detour_seeds(scenario: Scenario) -> list[Trajectory]:
    """Bowed chords on both sides, sized to clear the largest zone."""
    agent = scenario.agent
    a0 = np.array(agent.start.as_tuple())
    af = np.array(agent.goal.as_tuple())
    chord = af - a0
    length = float(np.hypot(*chord))
    normal = np.array([-chord[1], chord[0]]) / length
    extent = max((threat.extent for threat in scenario.threats), default=0.0)
    amp = 1.2 * extent if extent > 0.0 else 0.25 * length
    seeds = []
    s = np.linspace(0.0, 1.0, 256)[:, None]
    for sign in (1.0, -1.0):
        pts = a0 + s * chord + sign * amp * np.sin(math.pi * s) * normal
        seeds.append(Trajectory.from_polyline(pts, agent.speed))
    return seeds


def _resample_equal_arc(points: np.ndarray, n: int) -> np.ndarray:
    deltas = np.diff(points, axis=0)
    seg = np.hypot(deltas[:, 0], deltas[:, 1])
    s = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.linspace(0.0, s[-1], n)
    return np.stack(
        [np.interp(targets, s, points[:, 0]), np.interp(targets, s, points[:, 1])], axis=1
    )
