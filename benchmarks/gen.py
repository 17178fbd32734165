"""Seeded scenario files for the plan workloads.

Every scenario is written as a schema-v1 file with ``save_scenario``; the
timed ops read them back with ``load_scenario``, so the program sees only
the generated files.

The seed places fixed one-pursuer shapes: it draws each shape's chord
direction and centre. A rigid move leaves the problem the same, so a
shape's t_f and SLSQP iteration count hold across seeds, while the
numbers the program reads change. Shapes drawn at random per seed made
the ladder's median plan time swing by a fifth from seed to seed: one
draw needed 40 SLSQP iterations, the next 230.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from threatnav import (
    AgentConfig,
    PlannerOptions,
    Point2,
    PursuerThreat,
    Scenario,
    ScenarioDocument,
    TurretThreat,
    load_scenario,
    save_scenario,
    standard_specs,
)

# t_f per case as computed by the seed release; a plan more than
# TF_RTOL above its value counts as failed.
GOLDEN_TF = {50: 7.042084701, 100: 7.033923859, 200: 7.029901771, 300: 7.028565052}
TURRET_MIXED_TF = {"turret_n20": 12.180555756, "mixed_n20": 7.687125801, "turret_n60": 12.170153448, "mixed_n50": 7.673404686}
TF_RTOL = 1e-3

LADDER_NODES = 100
_CHORD = 8.0
_TOL = 1e-4

# One-pursuer shapes, two per mu, from both regimes (mu <= 1 and mu > 1):
# (mu, pursuer position along the chord as a share of its length,
#  lateral offset in units of R, R, r, t_f). A lateral offset of 0 is
# avoided: with the pursuer on the chord both sides are optimal, and the
# side SLSQP picks changes with the rotation.
PURSUER_SHAPES = (
    (0.6, 0.55, -0.26, 0.71, 0.11, 13.483851257),
    (0.6, 0.56, 0.36, 0.76, 0.17, 13.494099986),
    (0.8, 0.53, 0.28, 0.71, 0.23, 10.145336639),
    (0.8, 0.43, -0.31, 0.95, 0.13, 10.153316447),
    (0.9, 0.55, -0.19, 0.73, 0.22, 9.039014445),
    (0.9, 0.43, 0.36, 0.75, 0.24, 9.006272423),
    (1.3, 0.48, -0.28, 0.70, 0.21, 6.221739011),
    (1.3, 0.53, 0.31, 0.79, 0.13, 6.210070475),
    (1.6, 0.54, 0.35, 0.66, 0.21, 5.039485240),
    (1.6, 0.47, -0.23, 0.60, 0.16, 5.038588142),
)


@dataclass(frozen=True)
class Case:
    """One generated scenario file and what the checks need to know about it."""

    name: str
    path: Path
    expected_tf: float | None = None
    compare: bool = False


def _write(scen: Scenario, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    save_scenario(ScenarioDocument(scen), path)
    return path


def golden_ladder(golden_file: Path, out_dir: Path, nodes=(50, 100, 200, 300)) -> list[Case]:
    """The golden scenario at each node count in ``nodes``."""
    scen = load_scenario(golden_file).scenario
    return [
        Case(
            f"golden_n{n}",
            _write(replace(scen, options=replace(scen.options, n_nodes=n)), out_dir / f"golden_n{n}.json"),
            expected_tf=GOLDEN_TF[n],
            compare=True,
        )
        for n in nodes
    ]


def _blocked(point: Point2, threat: PursuerThreat) -> bool:
    """True when ``point`` lies inside one of the pursuer's baseline circles.

    The largest circle contains the capture disk (the Reach circle), so
    ``plan`` and ``compare`` both accept a point outside it.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no Apol circle for mu >= 1
        radius = max(spec.radius for spec in standard_specs(threat))
    return math.hypot(point.x - threat.position.x, point.y - threat.position.y) < radius


def seeded_pursuers(seed: int, out_dir: Path) -> list[Case]:
    """PURSUER_SHAPES at n=100, each on a chord whose direction and centre the seed draws."""
    rng = np.random.default_rng(seed)
    cases = []
    for i, (mu, along, lateral, R, r, tf) in enumerate(PURSUER_SHAPES):
        angle = float(rng.uniform(-math.pi, math.pi))
        centre = rng.uniform(-5.0, 5.0, size=2)
        direction = np.array([math.cos(angle), math.sin(angle)])
        normal = np.array([-direction[1], direction[0]])
        a0 = centre - 0.5 * _CHORD * direction
        p = a0 + along * _CHORD * direction + lateral * R * normal
        threat = PursuerThreat(Point2(float(p[0]), float(p[1])), mu=mu, engagement_range=R, capture_radius=r)
        start = Point2(float(a0[0]), float(a0[1]))
        goal = Point2(float(a0[0] + _CHORD * direction[0]), float(a0[1] + _CHORD * direction[1]))
        if _blocked(start, threat) or _blocked(goal, threat):
            raise ValueError(f"shape {i} puts an endpoint inside a baseline circle")
        scen = Scenario(AgentConfig(start, goal, speed=mu), (threat,), PlannerOptions(n_nodes=LADDER_NODES, constraint_tolerance=_TOL))
        name = f"seeded_{i:02d}_mu{mu}"
        cases.append(Case(name, _write(scen, out_dir / f"{name}.json"), expected_tf=tf, compare=True))
    return cases


def turret_scenario(n_nodes: int) -> Scenario:
    """The suite's turret scenario (``test_plans_around_turret_zone``)."""
    turret = TurretThreat(Point2(0.0, 0.0), look_angle=math.pi / 6, mu=0.5, engagement_range=1.0)
    agent = AgentConfig(Point2(-3.0, -0.4), Point2(3.0, -0.4), speed=0.5)
    return Scenario(agent, (turret,), PlannerOptions(n_nodes=n_nodes, constraint_tolerance=_TOL))


def mixed_scenario(n_nodes: int) -> Scenario:
    """A chord through a pursuer zone and a turret zone."""
    return Scenario(
        AgentConfig(Point2(-3.0, 0.0), Point2(3.0, 0.0), speed=0.8),
        (
            PursuerThreat(Point2(-1.2, 0.0), mu=0.8, engagement_range=0.5, capture_radius=0.1),
            TurretThreat(Point2(1.2, 0.1), look_angle=2.0, mu=0.4, engagement_range=0.6),
        ),
        PlannerOptions(n_nodes=n_nodes, constraint_tolerance=_TOL),
    )


def turret_mixed(out_dir: Path) -> tuple[list[Case], list[Case]]:
    """The timed turret and mixed cases at n=20, and the full-size ones (n=60 and n=50).

    The seed does not move these scenarios. Under a rotation or a shift
    of the mixed scene its SLSQP iteration count moves between about 25
    and 500. The turret plan keeps its iterations, but its dense audit
    costs up to 6 times more after some rotations (one in four tried)
    and some shifts (one in ten): 0.05 s against 0.007 s at n=20.
    """

    def case(name, scen):
        return Case(name, _write(scen, out_dir / f"{name}.json"), expected_tf=TURRET_MIXED_TF[name])

    timed = [case("turret_n20", turret_scenario(20)), case("mixed_n20", mixed_scenario(20))]
    long = [case("turret_n60", turret_scenario(60)), case("mixed_n50", mixed_scenario(50))]
    return timed, long
