"""Minimum-time path planning that stays outside every engagement zone.

Transcription: a uniform time grid with the terminal time as a decision
variable and one piecewise-constant heading per segment. Node positions
are chained forward from the start, so the decision vector is exactly
n_nodes long (n_nodes - 1 headings plus the terminal time). The zone
constraint has one row per node pose and threat: pursuer zones via the
aspect-angle clearance with the node's segment heading, turret zones via
the chord-threshold ray test. Each threat computes its own clearance and
its pose gradient for a batch of poses, and SLSQP solves the program
with analytic Jacobians: every row, the endpoint's included, is chained
through ``_chain`` from its pose partials. The planner knows a threat
only through the ``Threat`` protocol, so a new zone kind needs no code.

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
from .trajectory import Trajectory
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

    ``clearance`` maps n poses (an n x 2 array of points and n headings)
    to n signed clearances, positive outside the zone, and
    ``clearance_gradient`` maps them to three arrays of n partials of
    the clearance, in x, y and heading. ``keep_out_radius`` is the radius
    of the disk around ``position`` that no endpoint may enter and that
    circumnav_reach rides (0 when there is none). ``extent`` bounds how
    far from ``position`` the zone reaches; the detour warm starts bow
    out past the largest one. ``engageable`` is the independent referee
    that ``resample_and_verify`` consults: it maps n poses to n booleans,
    True where a brute-force search finds an engagement of the agent
    holding its heading, and it must not call the closed forms behind
    ``clearance``.
    """

    position: Point2

    def clearance(self, points: np.ndarray, headings: np.ndarray) -> np.ndarray: ...

    def clearance_gradient(
        self, points: np.ndarray, headings: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]: ...

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
    by the terminal time.
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
        # its outgoing heading (the goal node reuses the last segment),
        # then interior nodes 1..n-2 with the incoming heading.
        n = self.n
        self._node_idx = np.concatenate([np.arange(n), np.arange(1, n - 1)])
        self._head_idx = np.concatenate([np.minimum(np.arange(n), n - 2), np.arange(0, n - 2)])

    # -- kinematics -------------------------------------------------------

    def chord(self) -> np.ndarray:
        """z of the straight chord: its heading on every segment and t_f = chord length / speed, the least t_f."""
        start, goal = self.scenario.agent.start, self.scenario.agent.goal
        heading = math.atan2(goal.y - start.y, goal.x - start.x)
        return np.append(np.full(self.n - 1, heading), distance(start, goal) / self.speed)

    def positions(self, z: np.ndarray) -> np.ndarray:
        """Node positions (n x 2) of z."""
        psi, t_f = z[:-1], z[-1]
        dt = t_f / (self.n - 1)
        steps = self.speed * dt * np.stack([np.cos(psi), np.sin(psi)], axis=1)
        out = np.empty((self.n, 2))
        out[0] = self.a0
        np.cumsum(steps, axis=0, out=out[1:])
        out[1:] += self.a0
        return out

    # -- endpoint equality -------------------------------------------------

    def endpoint(self, z: np.ndarray) -> np.ndarray:
        return self.positions(z)[-1] - self.af

    def endpoint_jacobian(self, z: np.ndarray) -> np.ndarray:
        """``_chain`` at the goal node, whose x and y have pose partials (1, 0, 0) and (0, 1, 0)."""
        goal = np.full(2, self.n - 1)
        # a zero partial is -0.0, which leaves each term it is added to as it was, a signed zero included
        gx, gy, gpsi = np.array([1.0, -0.0]), np.array([-0.0, 1.0]), np.array([-0.0, -0.0])
        return self._chain(z, goal, goal - 1, self.positions(z)[goal], gx, gy, gpsi)

    # -- zone clearances ----------------------------------------------------

    def _rows(self, rows: Optional[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per threat, the node and heading index of each constrained pose it keeps.

        ``rows`` marks the kept rows of the stacked constraint vector; None,
        like a mask that marks them all, keeps all 2n-2 per threat.
        """
        if rows is None or rows.all():
            return [(self._node_idx, self._head_idx)] * len(self.threats)
        keep = np.reshape(rows, (len(self.threats), len(self._node_idx)))
        return [(self._node_idx[k], self._head_idx[k]) for k in keep]

    def clearances(self, z: np.ndarray, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Stacked per-pose clearance, one block of 2n-2 values per threat (only ``rows`` if given)."""
        points, psi = self.positions(z), z[:-1]
        blocks = [t.clearance(points[nodes], psi[heads]) for t, (nodes, heads) in zip(self.threats, self._rows(rows))]
        return np.concatenate(blocks) if blocks else np.zeros(0)

    def clearance_jacobian(self, z: np.ndarray, rows: Optional[np.ndarray] = None) -> np.ndarray:
        points, psi = self.positions(z), z[:-1]
        blocks = []
        for t, (nodes, heads) in zip(self.threats, self._rows(rows)):
            pose_points = points[nodes]
            gradient = t.clearance_gradient(pose_points, psi[heads])
            blocks.append(self._chain(z, nodes, heads, pose_points, *gradient))
        return np.vstack(blocks) if blocks else np.zeros((0, len(z)))

    def _chain(self, z, nodes, heads, points, gx, gy, gpsi) -> np.ndarray:
        """Jacobian rows of the pose clearances from their pose gradients."""
        n = self.n
        psi, t_f = z[:-1], z[-1]
        dt = t_f / (n - 1)
        m = len(nodes)
        jac = np.zeros((m, n))
        # position chain: node k depends on headings 0..k-1
        sens = self.speed * dt * np.stack([-np.sin(psi), np.cos(psi)], axis=1)
        full = gx[:, None] * sens[None, :, 0] + gy[:, None] * sens[None, :, 1]
        mask = np.arange(n - 1)[None, :] < nodes[:, None]
        jac[:, : n - 1] = np.where(mask, full, 0.0)
        # direct dependence on the pose's own heading
        jac[np.arange(m), heads] += gpsi
        # terminal-time column through the node positions
        rel = points - self.a0
        jac[:, -1] = (gx * rel[:, 0] + gy * rel[:, 1]) / t_f
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
            times=times, points=self.positions(z), headings=z[:-1].copy(), speed=self.speed
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
    threat's keep-out disk (a pursuer's capturability disk). Returns the
    best feasible iterate with converged=False when the solver stalls
    before full convergence.
    """
    opts = scenario.options
    _screen_endpoints(scenario)
    problem = transcribe(scenario)
    chord = problem.chord()
    chord_time = float(chord[-1])

    seeds = []  # (name, packed warm start)
    if opts.initialization != "straight_line":
        seeds.append((opts.initialization, problem.pack(initialize(scenario, opts.initialization))))

    clear = problem.clearances(chord)
    if np.all(clear >= 0.0):  # a NaN clearance counts as blocked
        min_clear = float(np.min(clear)) if clear.size else math.inf
        _log.debug("chord clear: returned unsolved, t_f %.12g, min clearance %.6g", chord_time, min_clear)
        return PlanResult(problem.unpack(chord), chord_time, True, min_clear, 0)

    rows = np.ones(clear.size, dtype=bool)
    coarse = None
    if opts.n_nodes > _COARSE_NODES:
        coarse = plan(replace(scenario, options=replace(opts, n_nodes=_COARSE_NODES)))
    total_nit = coarse.iterations if coarse is not None else 0
    # a coarse plan of 0 iterations is its clear chord, which says nothing of the blocked fine one
    if coarse is not None and coarse.converged and coarse.iterations > 0:
        z0 = problem.pack(coarse.trajectory)
        extents = np.repeat([t.extent for t in scenario.threats], clear.size // len(scenario.threats))
        seeds, rows = [("coarse", z0)], problem.clearances(z0) < _SCREEN_FRACTION * extents
    elif not seeds or not np.all(problem.clearances(seeds[0][1]) >= 0.0):
        seeds.extend(zip(("detour+", "detour-"), (problem.pack(t) for t in _detour_seeds(scenario))))

    n_vars = opts.n_nodes
    grad = np.zeros(n_vars)
    grad[-1] = 1.0
    bounds = [(None, None)] * (n_vars - 1) + [(chord_time * (1.0 - 1e-12), None)]

    best = None  # (key, z, success, feasible)
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
            best = (key, z, bool(res.success), feasible)

    _, z, success, feasible = best
    return PlanResult(
        trajectory=problem.unpack(z),
        t_f=float(z[-1]),
        converged=bool(success and feasible),
        min_clearance=float(np.min(problem.clearances(z))),
        iterations=total_nit,
    )


def clearances_along(trajectory: Trajectory, threats: Sequence[Threat]) -> np.ndarray:
    """Per-node clearance matrix (n_nodes x n_threats) for reporting."""
    psi_node = trajectory.node_headings
    out = np.zeros((len(trajectory.points), len(threats)))
    for j, threat in enumerate(threats):
        out[:, j] = threat.clearance(trajectory.points, psi_node)
    return out


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
    # factor points per segment at s = j / factor, then the goal node
    n_seg = len(traj.points) - 1
    seg = np.repeat(np.arange(n_seg), factor)
    s = np.tile(np.arange(factor) / factor, n_seg)
    if n_seg:
        seg, s = np.append(seg, n_seg - 1), np.append(s, 1.0)
    pts, times = traj.points, traj.times
    q = pts[seg] + s[:, None] * (pts[seg + 1] - pts[seg])
    t = times[seg] + s * (times[seg + 1] - times[seg])
    psi = traj.headings[seg]

    worst, worst_time, disagreements = math.inf, 0.0, 0
    if scenario.threats:
        clear = np.stack([threat.clearance(q, psi) for threat in scenario.threats], axis=1)
        row, _ = np.unravel_index(np.argmin(clear), clear.shape)
        worst, worst_time = float(clear[row].min()), float(t[row])
        for threat, c in zip(scenario.threats, clear.T):
            safe = c > tol
            disagreements += int(np.count_nonzero(threat.engageable(q[safe], psi[safe])))
    return VerificationReport(
        worst_clearance=worst,
        worst_time=worst_time,
        oracle_disagreements=disagreements,
        points_checked=len(q),
    )


# -- internals ---------------------------------------------------------------


def _screen_endpoints(scenario: Scenario) -> None:
    for threat in scenario.threats:
        disk = threat.keep_out_radius
        for name, point in (("start", scenario.agent.start), ("goal", scenario.agent.goal)):
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
