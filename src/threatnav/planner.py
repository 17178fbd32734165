"""Minimum-time path planning that stays outside every engagement zone.

Transcription: a uniform time grid with the terminal time as a decision
variable and one piecewise-constant heading per segment. Node positions
are chained forward from the start, so the decision vector is exactly
n_nodes long (n_nodes - 1 headings plus the terminal time). The zone
constraint is imposed at every node for every threat: pursuer zones via
the aspect-angle clearance with the node's segment heading, turret zones
via the chord-threshold ray test. Each threat computes its own clearance
for a batch of poses; SLSQP solves the program with an analytic
constraint Jacobian for threats that supply a clearance gradient
(pursuers) and central differences for the rest (turrets), taken over
one batched clearance call that holds every perturbed pose.

Only warm starts that can win are solved. A straight chord whose node
poses all clear every zone is optimal: its t_f is the lower bound
chord_time, so it is returned at once with no solve. A blocked chord is
a degenerate saddle and is never solved; the solver starts from
deterministic bowed detours on both sides instead (and from the
circumnav_reach or custom warm start when one is chosen, adding the
detours only when that one is blocked too), and keeps the best feasible
result. Each solve logs one debug line to the ``threatnav.planner``
logger.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional, Protocol, Sequence

import numpy as np
from scipy.optimize import minimize

from . import circumnav as _circ
from .errors import DomainError, InfeasibleError
from .geometry import Point2, distance
from .oracle import pursuit_capture_possible, turret_neutralization_possible
from .pursuit import PursuerThreat, rho, rho_derivative  # noqa: F401
from .trajectory import Trajectory
from .turret import TurretThreat, turret_clearance  # noqa: F401

# rho, rho_derivative and turret_clearance are not called here any more;
# they stay bound because benchmarks/tracing.py wraps them by name.

_log = logging.getLogger(__name__)


class Threat(Protocol):
    """An engagement zone as the planner sees it.

    ``clearance`` maps n poses (an n x 2 array of points and n headings)
    to n signed clearances, positive outside the zone. A threat may also
    offer ``clearance_gradient(points, headings)``, returning the
    per-pose partials in x, y and heading; the planner then assembles
    its Jacobian rows analytically instead of by finite differences.
    """

    def clearance(self, points: np.ndarray, headings: np.ndarray) -> np.ndarray: ...


_FD_STEP = 1e-7


@dataclass(frozen=True)
class AgentConfig:
    start: Point2
    goal: Point2
    speed: float

    def __post_init__(self) -> None:
        if not (self.speed > 0.0 and math.isfinite(self.speed)):
            raise DomainError(f"agent speed must be positive, got {self.speed}")
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
        if not (self.constraint_tolerance > 0.0 and self.opt_tolerance > 0.0):
            raise ValueError("tolerances must be positive")
        if self.initialization not in ("straight_line", "circumnav_reach", "custom"):
            raise ValueError(f"unknown initialization {self.initialization!r}")


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

    def positions(self, z: np.ndarray) -> np.ndarray:
        """Node positions (n x 2) of z, or (k x n x 2) of a k x n stack of decision vectors."""
        psi, t_f = z[..., :-1], z[..., -1:]
        dt = t_f / (self.n - 1)
        steps = (self.speed * dt)[..., None] * np.stack([np.cos(psi), np.sin(psi)], axis=-1)
        out = np.empty(z.shape[:-1] + (self.n, 2))
        out[..., 0, :] = self.a0
        np.cumsum(steps, axis=-2, out=out[..., 1:, :])
        out[..., 1:, :] += self.a0
        return out

    # -- endpoint equality -------------------------------------------------

    def endpoint(self, z: np.ndarray) -> np.ndarray:
        return self.positions(z)[-1] - self.af

    def endpoint_jacobian(self, z: np.ndarray) -> np.ndarray:
        psi, t_f = z[:-1], z[-1]
        dt = t_f / (self.n - 1)
        jac = np.zeros((2, self.n))
        jac[0, : self.n - 1] = -self.speed * dt * np.sin(psi)
        jac[1, : self.n - 1] = self.speed * dt * np.cos(psi)
        p_end = self.positions(z)[-1]
        jac[:, -1] = (p_end - self.a0) / t_f
        return jac

    # -- zone clearances ----------------------------------------------------

    def _poses(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The 2n-2 constrained poses: points (2n-2 x 2) and their headings.

        A k x n stack of decision vectors gives k x (2n-2) x 2 and k x (2n-2).
        """
        return self.positions(z)[..., self._node_idx, :], z[..., :-1][..., self._head_idx]

    def clearances(self, z: np.ndarray) -> np.ndarray:
        """Stacked per-pose clearance, one block of 2n-2 values per threat."""
        points, headings = self._poses(z)
        blocks = [t.clearance(points, headings) for t in self.threats]
        return np.concatenate(blocks) if blocks else np.zeros(0)

    def clearance_jacobian(self, z: np.ndarray) -> np.ndarray:
        points, headings = self._poses(z)
        blocks = []
        for threat in self.threats:
            gradient = getattr(threat, "clearance_gradient", None)
            if gradient is None:
                blocks.append(self._fd_jacobian(threat, z))
            else:
                blocks.append(self._chain(z, points, *gradient(points, headings)))
        return np.vstack(blocks) if blocks else np.zeros((0, len(z)))

    def _chain(self, z, points, gx, gy, gpsi) -> np.ndarray:
        """Jacobian rows of the pose clearances from their pose gradients."""
        n = self.n
        psi, t_f = z[:-1], z[-1]
        dt = t_f / (n - 1)
        m = len(self._node_idx)
        jac = np.zeros((m, n))
        # position chain: node k depends on headings 0..k-1
        sens = self.speed * dt * np.stack([-np.sin(psi), np.cos(psi)], axis=1)
        full = gx[:, None] * sens[None, :, 0] + gy[:, None] * sens[None, :, 1]
        mask = np.arange(n - 1)[None, :] < self._node_idx[:, None]
        jac[:, : n - 1] = np.where(mask, full, 0.0)
        # direct dependence on the pose's own heading
        jac[np.arange(m), self._head_idx] += gpsi
        # terminal-time column through the node positions
        rel = points - self.a0
        jac[:, -1] = (gx * rel[:, 0] + gy * rel[:, 1]) / t_f
        return jac

    def _fd_jacobian(self, threat, z) -> np.ndarray:
        """Central differences in every variable.

        The 2n perturbed decision vectors are stacked, their node positions
        come from one batched cumsum, and all their poses go through one
        ``threat.clearance`` call.
        """
        n = len(z)
        h = _FD_STEP * np.maximum(1.0, np.abs(z))
        cols = np.arange(n)
        stack = np.tile(z, (2 * n, 1))  # rows 0..n-1 step up, rows n..2n-1 step down
        stack[cols, cols] += h
        stack[n + cols, cols] -= h
        points, headings = self._poses(stack)
        c = threat.clearance(points.reshape(-1, 2), headings.ravel()).reshape(2 * n, -1)
        return ((c[:n] - c[n:]) / (2.0 * h[:, None])).T

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


def initialize(scenario: Scenario, mode: str, custom: Optional[Trajectory] = None) -> Trajectory:
    """Warm-start trajectory for the solver.

    straight_line is the constant-heading chord; circumnav_reach rides the
    first pursuer's capturability circle; custom passes a caller-supplied
    trajectory through.
    """
    agent = scenario.agent
    n = scenario.options.n_nodes
    if mode == "straight_line":
        a0 = np.array(agent.start.as_tuple())
        af = np.array(agent.goal.as_tuple())
        chord = distance(agent.start, agent.goal)
        s = np.linspace(0.0, 1.0, n)[:, None]
        pts = a0 + s * (af - a0)
        heading = math.atan2(af[1] - a0[1], af[0] - a0[0])
        return Trajectory(
            times=np.linspace(0.0, chord / agent.speed, n),
            points=pts,
            headings=np.full(n - 1, heading),
            speed=agent.speed,
        )
    if mode == "circumnav_reach":
        pursuers = [t for t in scenario.threats if isinstance(t, PursuerThreat)]
        if not pursuers:
            raise ValueError("circumnav_reach initialization needs a pursuer threat")
        threat = pursuers[0]
        spec = _circ.CircumnavSpec("Reach", threat.engagement_range + threat.capture_radius)
        result = _circ.circumnavigate(agent.start, agent.goal, threat.position, spec, agent.speed)
        return Trajectory.from_polyline(_resample_equal_arc(result.path.points, n), agent.speed)
    if mode == "custom":
        chosen = custom if custom is not None else scenario.options.custom_trajectory
        if chosen is None:
            raise ValueError("custom initialization requires a trajectory")
        return chosen
    raise ValueError(f"unknown initialization mode {mode!r}")


def plan(scenario: Scenario) -> PlanResult:
    """Solve the minimum-time problem for the scenario.

    A chord that clears every zone at every node pose is returned as is
    (0 iterations): no path is faster. Otherwise the warm starts that can
    win are solved (the two detours for straight_line; the chosen warm
    start, plus the detours when it is blocked, for circumnav_reach and
    custom) and the best feasible result is kept.

    Raises InfeasibleError when an endpoint sits strictly inside a
    pursuer's capturability disk. Returns the best feasible iterate with
    converged=False when the solver stalls before full convergence.
    """
    opts = scenario.options
    _screen_endpoints(scenario)
    problem = transcribe(scenario)
    agent = scenario.agent
    chord_time = distance(agent.start, agent.goal) / agent.speed

    seeds = []  # (name, packed warm start)
    if opts.initialization != "straight_line":
        seeds.append((opts.initialization, problem.pack(initialize(scenario, opts.initialization))))

    heading = math.atan2(agent.goal.y - agent.start.y, agent.goal.x - agent.start.x)
    chord = np.append(np.full(opts.n_nodes - 1, heading), chord_time)
    clear = problem.clearances(chord)
    if np.all(clear >= 0.0):  # a NaN clearance counts as blocked
        min_clear = float(np.min(clear)) if clear.size else math.inf
        _log.debug("chord clear: returned unsolved, t_f %.12g, min clearance %.6g", chord_time, min_clear)
        return PlanResult(problem.unpack(chord), chord_time, True, min_clear, 0)

    if not seeds or not np.all(problem.clearances(seeds[0][1]) >= 0.0):
        seeds.extend(zip(("detour+", "detour-"), (problem.pack(t) for t in _detour_seeds(scenario))))

    constraints = [
        {"type": "eq", "fun": problem.endpoint, "jac": problem.endpoint_jacobian},
        {"type": "ineq", "fun": problem.clearances, "jac": problem.clearance_jacobian},
    ]
    n_vars = opts.n_nodes
    grad = np.zeros(n_vars)
    grad[-1] = 1.0
    bounds = [(None, None)] * (n_vars - 1) + [(chord_time * (1.0 - 1e-12), None)]

    best = None  # (key, z, success, feasible)
    total_nit = 0
    for name, z0 in seeds:
        res = minimize(
            lambda z: z[-1],
            z0,
            jac=lambda z: grad,
            method="SLSQP",
            bounds=bounds,
            constraints=constraints,
            options={"maxiter": opts.max_iterations, "ftol": opts.opt_tolerance},
        )
        total_nit += int(res.nit)
        z = res.x
        viol = _max_violation(problem, z)
        _log.debug(
            "seed %s: nit %d, status %d (%s), t_f %.12g, violation %.3g",
            name, res.nit, res.status, res.message, z[-1], viol,
        )
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
    n = len(trajectory.points)
    psi_node = (
        np.append(trajectory.headings, trajectory.headings[-1])
        if len(trajectory.headings)
        else np.zeros(n)
    )
    out = np.zeros((n, len(threats)))
    for j, threat in enumerate(threats):
        out[:, j] = threat.clearance(trajectory.points, psi_node)
    return out


def resample_and_verify(result: PlanResult, scenario: Scenario, factor: int) -> VerificationReport:
    """Densify each segment and re-audit clearance and oracle safety.

    Node-only constraints can dip between nodes; this reports the worst
    densified clearance and counts points the closed forms call safe
    (clearance above the constraint tolerance) but the oracle calls
    capturable.
    """
    if factor < 2:
        raise ValueError(f"factor must be at least 2, got {factor}")
    traj = result.trajectory
    tol = scenario.options.constraint_tolerance
    oracles = {PursuerThreat: pursuit_capture_possible, TurretThreat: turret_neutralization_possible}
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
            oracle = oracles[type(threat)]
            for i in np.flatnonzero(c > tol):
                if oracle(Point2(float(q[i, 0]), float(q[i, 1])), float(psi[i]), threat):
                    disagreements += 1
    return VerificationReport(
        worst_clearance=worst,
        worst_time=worst_time,
        oracle_disagreements=disagreements,
        points_checked=len(q),
    )


# -- internals ---------------------------------------------------------------


def _screen_endpoints(scenario: Scenario) -> None:
    for threat in scenario.threats:
        if not isinstance(threat, PursuerThreat):
            continue
        disk = threat.engagement_range + threat.capture_radius
        for name, point in (("start", scenario.agent.start), ("goal", scenario.agent.goal)):
            if distance(point, threat.position) < disk:
                raise InfeasibleError(
                    f"{name} lies inside a capturability disk "
                    f"(distance {distance(point, threat.position):.6g} < {disk:.6g})"
                )


def _max_violation(problem: TranscribedProblem, z: np.ndarray) -> float:
    viol = float(np.max(np.abs(problem.endpoint(z))))
    clear = problem.clearances(z)
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
    extent = 0.0
    for threat in scenario.threats:
        if isinstance(threat, PursuerThreat):
            big = (1.0 + threat.mu) * threat.engagement_range + threat.capture_radius
        else:
            big = threat.engagement_range
        extent = max(extent, big)
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
