"""Output checks for every timed op.

Each check returns the list of problems it found; an op with any problem
counts as failed. A dense-audit dip below the tolerance is not a
failure: it is the known sag between nodes and is reported as
``unsafe_share``.
"""

from __future__ import annotations

import math

from threatnav import distance

from gen import TF_RTOL


def check_plan(case, scenario, result, table, audit, factor, baselines) -> list[str]:
    """Problems with one plan op: the plan, its node table, its audit and baselines."""
    tol = scenario.options.constraint_tolerance
    agent = scenario.agent
    problems = []
    if not result.converged:
        problems.append("did not converge")
    if result.min_clearance < -tol:
        problems.append(f"node clearance {result.min_clearance:.3g} below -{tol:g}")
    if table.size and float(table.min()) < -tol:
        problems.append(f"reported node clearance {float(table.min()):.3g} below -{tol:g}")
    end = result.trajectory.points[-1]
    miss = math.hypot(end[0] - agent.goal.x, end[1] - agent.goal.y)
    if miss > tol:
        problems.append(f"path ends {miss:.3g} from the goal")
    chord_time = distance(agent.start, agent.goal) / agent.speed
    if not result.t_f >= chord_time * (1.0 - 1e-9):
        problems.append(f"t_f {result.t_f!r} beats the straight chord {chord_time!r}")
    if case.expected_tf is not None and result.t_f > case.expected_tf * (1.0 + TF_RTOL):
        problems.append(f"t_f {result.t_f:.9f} above the expected {case.expected_tf:.9f}")
    if audit.oracle_disagreements:
        problems.append(f"{audit.oracle_disagreements} oracle disagreements in the dense audit")
    expected = (len(result.trajectory.points) - 1) * factor + 1
    if audit.points_checked != expected:
        problems.append(f"dense audit checked {audit.points_checked} of {expected} points")
    for base in baselines:
        if not (math.isfinite(base.t_f) and base.t_f >= chord_time * (1.0 - 1e-9)):
            problems.append(f"baseline t_f {base.t_f!r} is not a valid detour time")
    return problems


def check_sweep(results) -> list[str]:
    """Problems with one verify batch: any analytic/oracle disagreement."""
    return [
        f"{res.label}: {res.disagreements} disagreements in {res.samples} samples"
        for res in results
        if res.disagreements
    ]
