"""Command-line interface: boundary export, planning, comparison, verification.

Exit codes: 0 success, 1 verification failure, 2 usage, parse or domain
error (including a numeric flag that is not finite or is below its
bound, a scenario path that cannot be read as UTF-8 JSON: a missing
file, a directory, bad bytes, an integer literal past Python's digit
limit, and an output directory that cannot be made), 3 infeasible
scenario (``compare`` builds its baselines before it plans, so an
endpoint inside a baseline circle, the capturability disk that Reach
rings included, exits 3 naming that circle before any solve), 4 planner
did not converge (partial output is still written). Handlers return 0,
1 or 4 and raise the rest; ``main`` alone maps an exception to its code.
``compare`` on a pursuer with no Apol circle (mu >= 1 + r/R) reports
the omitted circle as one ``note:`` line on stderr and exits 0.
All numeric output uses 9 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

from .circumnav import circumnavigate, percent_difference, standard_specs
from .errors import DomainError, InfeasibleError
from .geometry import Point2, wrap_angle
from .planner import Scenario, clearances_along, plan
from .pursuit import PursuerThreat, sample_boundary
from .scenario_io import OutputConfig, load_scenario
from .trajectory import node_poses
from .turret import TurretThreat, sample_turret_boundary
from .verification import pursuit_equivalence_sweep, turret_equivalence_sweep


def _g(value: float) -> str:
    return f"{value:.9g}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threatnav",
        description="Threat-aware navigation: engagement zones, planning, baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    real = _number(float)

    ez = sub.add_parser("ez-boundary", help="sample an engagement-zone boundary")
    ez.add_argument("--kind", choices=["pursuer", "turret"], required=True)
    ez.add_argument("--mu", type=real, required=True)
    ez.add_argument("--R", type=real, required=True, dest="engagement_range")
    ez.add_argument("--r", type=real, default=0.0, dest="capture_radius")
    ez.add_argument("--theta0", type=real, default=0.0, help="turret initial look angle")
    ez.add_argument("--heading", type=real, default=0.0, help="agent heading")
    ez.add_argument("--px", type=real, default=0.0, help="threat x position")
    ez.add_argument("--py", type=real, default=0.0, help="threat y position")
    ez.add_argument("--n", type=_number(int, minimum=3), default=360)
    _output_args(ez)

    pl = sub.add_parser("plan", help="plan a minimum-time path from a scenario file")
    pl.add_argument("scenario", type=Path)
    _output_args(pl)

    cmp_ = sub.add_parser("compare", help="compare the zone-based plan with circumnavigation")
    cmp_.add_argument("scenario", type=Path)
    _output_args(cmp_)

    ver = sub.add_parser("verify", help="run analytic-vs-oracle equivalence sweeps")
    ver.add_argument("--kind", choices=["pursuer", "turret", "both"], default="both")
    ver.add_argument("--samples", type=_number(int, minimum=1), default=1000)
    ver.add_argument("--seed", type=_number(int, minimum=0), default=0)
    ver.add_argument(
        "--corrupt-rho",
        type=real,
        default=0.0,
        help="test hook: fractional corruption of the analytic boundary",
    )
    return parser


def _number(kind, minimum=None):
    """An argparse ``type``: a ``kind`` value that is finite and at least ``minimum``."""

    def parse(text: str):
        value = kind(text)
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        if minimum is not None and value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value: 'x'"
    return parse


def _output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output-dir", type=Path, default=None)
    p.add_argument("--format", choices=["csv", "json"], default=None, help="restrict outputs")
    p.set_defaults(output=OutputConfig())


def main(argv=None) -> int:
    handlers = {
        "ez-boundary": _cmd_ez_boundary,
        "plan": _cmd_plan,
        "compare": _cmd_compare,
        "verify": _cmd_verify,
    }
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except SystemExit as exc:  # argparse: --help, or a usage error it has printed
        return int(exc.code or 0)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


def _write(args, name: str, lines) -> None:
    """Write one output file; ``--output-dir``/``--format`` win over the scenario's output block."""
    formats = (args.format,) if args.format else args.output.formats
    if Path(name).suffix[1:] not in formats:
        return
    directory = args.output_dir or Path(args.output.directory or ".")
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    path.write_text("".join(f"{line}\n" for line in lines))
    print(f"wrote {path}")


def _cmd_ez_boundary(args) -> int:
    rows, summary = _boundary_rows(args)
    header = "xi_or_gamma,rho_or_x,y,world_x,world_y"
    _write(args, "ez_boundary.csv", [header] + [",".join(_g(v) for v in row) for row in rows])
    _write(args, "ez_boundary.json", [json.dumps(summary, indent=2)])
    return 0


def _boundary_rows(args):
    pos = Point2(args.px, args.py)
    ch, sh = math.cos(args.heading), math.sin(args.heading)
    rows = []
    if args.kind == "pursuer":
        threat = PursuerThreat(
            position=pos,
            mu=args.mu,
            engagement_range=args.engagement_range,
            capture_radius=args.capture_radius,
        )
        for s in sample_boundary(threat, args.heading, args.n):
            frame_y = s.rho * math.sin(math.pi - s.xi)
            rows.append((s.xi, s.rho, frame_y, s.point.x, s.point.y))
        dists = [r[1] for r in rows]
        params = {
            "mu": args.mu,
            "range": args.engagement_range,
            "capture_radius": args.capture_radius,
            "heading": args.heading,
            "position": [pos.x, pos.y],
        }
    else:
        threat = TurretThreat(
            position=pos,
            look_angle=wrap_angle(args.theta0 - args.heading),
            mu=args.mu,
            engagement_range=args.engagement_range,
        )
        for s in sample_turret_boundary(threat, args.n):
            wx = pos.x + ch * s.a0.x - sh * s.a0.y
            wy = pos.y + sh * s.a0.x + ch * s.a0.y
            rows.append((s.gamma, s.a0.x, s.a0.y, wx, wy))
        dists = [math.hypot(r[1], r[2]) for r in rows]
        params = {
            "mu": args.mu,
            "range": args.engagement_range,
            "look_angle": args.theta0,
            "heading": args.heading,
            "position": [pos.x, pos.y],
        }
    summary = {
        "kind": args.kind,
        "parameters": params,
        "n": args.n,
        "extrema": {
            "max_world_distance": float(max(dists)),
            "min_world_distance": float(min(dists)),
        },
    }
    return rows, summary


def _load(args) -> Scenario:
    """The scenario at ``args.scenario``, whose output block ``_write`` then follows.

    A missing file propagates (its message names the path); every other
    loader failure becomes a ``DomainError`` that starts with the path.
    """
    try:
        doc = load_scenario(args.scenario)
    except FileNotFoundError:
        raise
    except json.JSONDecodeError as exc:
        raise DomainError(f"{args.scenario}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (OSError, ValueError) as exc:  # ScenarioError, a directory, not UTF-8, an over-long integer literal
        raise DomainError(f"{args.scenario}: {exc}") from exc
    args.output = doc.output
    return doc.scenario


def _convergence_code(result) -> int:
    """0 for a converged plan; else 4, after saying the output written is partial."""
    if result.converged:
        return 0
    print("planner did not converge; partial output written", file=sys.stderr)
    return 4


def _cmd_plan(args) -> int:
    scenario = _load(args)
    result = plan(scenario)
    _write(args, "trajectory.csv", _trajectory_lines(result.trajectory, scenario.threats))
    payload = {
        "t_f": result.t_f,
        "converged": result.converged,
        "min_clearance": None if math.isinf(result.min_clearance) else result.min_clearance,
        "iterations": result.iterations,
    }
    _write(args, "result.json", [json.dumps(payload, indent=2)])
    return _convergence_code(result)


def _trajectory_lines(traj, threats):
    """trajectory.csv lines; a generator, so a skipped CSV computes no clearances."""
    clear = clearances_along(traj, threats)
    psi_node = traj.headings[node_poses(len(traj.points))[0]]  # each node's outgoing heading, as in clear
    yield ",".join(["t", "x", "y", "psi"] + [f"clearance_{j}" for j in range(len(threats))])
    for i in range(len(traj.points)):
        vals = [traj.times[i], traj.points[i, 0], traj.points[i, 1], psi_node[i]]
        vals.extend(clear[i])
        yield ",".join(_g(float(v)) for v in vals)


def _cmd_compare(args) -> int:
    scen = _load(args)
    if len(scen.threats) != 1 or not isinstance(scen.threats[0], PursuerThreat):
        raise DomainError("compare requires a scenario with exactly one pursuer")
    threat = scen.threats[0]
    with warnings.catch_warnings(record=True) as omitted:
        warnings.simplefilter("always")
        specs = standard_specs(threat)
    for warning in omitted:
        print(f"note: {warning.message}", file=sys.stderr)
    # The baselines go first: an endpoint inside one of their circles exits 3 before any solve.
    circs = [
        (spec, circumnavigate(scen.agent.start, scen.agent.goal, threat.position, spec, scen.agent.speed))
        for spec in specs
    ]
    result = plan(scen)
    rows = [
        (spec.label, spec.radius, circ.t_f, result.t_f, percent_difference(result.t_f, circ.t_f))
        for spec, circ in circs
    ]

    header = f"{'label':<8}{'radius':>14}{'t_circumnav':>16}{'t_ez':>14}{'pct_diff':>12}"
    print(header)
    for label, radius, t_c, t_ez, pct in rows:
        print(f"{label:<8}{_g(radius):>14}{_g(t_c):>16}{_g(t_ez):>14}{_g(pct):>12}")

    keys = ("label", "radius", "t_circumnav", "t_ez", "percent_difference")
    lines = [f"{label}," + ",".join(_g(v) for v in row) for label, *row in rows]
    _write(args, "compare.csv", [",".join(keys)] + lines)
    _write(args, "compare.json", [json.dumps([dict(zip(keys, row)) for row in rows], indent=2)])
    return _convergence_code(result)


def _cmd_verify(args) -> int:
    total = 0
    results = []
    if args.kind in ("pursuer", "both"):
        results.extend(
            pursuit_equivalence_sweep(
                samples_per_mu=args.samples,
                seed=args.seed,
                rho_scale=1.0 + args.corrupt_rho,
            )
        )
    if args.kind in ("turret", "both"):
        results.extend(
            turret_equivalence_sweep(
                samples_per_angle=args.samples,
                seed=args.seed,
                threshold_shift=args.corrupt_rho,
            )
        )
    for res in results:
        total += res.disagreements
        print(f"{res.label}: {res.disagreements} disagreements in {res.samples} samples")
    print(f"total disagreements: {total}")
    return 0 if total == 0 else 1


if __name__ == "__main__":
    entrypoint()
