"""Identity digest: what a checkout computes on a fixed set of plans and verify runs.

    python tools/identity.py digest.json                # write this checkout's digest
    python tools/identity.py --diff before.json after.json

Run from the root of a source checkout; the library is imported from its
``src/`` and the generated cases from its ``benchmarks/gen.py``, with one
BLAS thread. For every case the digest records the ``repr`` of t_f,
``min_clearance`` and the iteration count, ``converged``, a sha256 of the
trajectory's times, points and headings, a sha256 of the per-node
``clearances_along`` table, and the x10 ``resample_and_verify`` report.
Golden is also planned with every length times 1e-3 and 1e3 (``scaled``):
the same scene in other units, which should plan to the same t_f / k in
about the same iterations, so a change that makes plans depend on the
scene's units moves those two cases.
It also records the exit code and standard output of every ``threatnav
verify`` line the CI workflow pins, and, per oracle kind, a sha256 of the
first engagement window the oracle finds for each pose of a fixed seeded
set of poses near the zone boundary, with a sha256 of the poses
themselves: a change to the oracle's scan that keeps its windows keeps
that record. The windows are hashed twice: from one oracle call per
threat, as each threat's ``engageable`` scans them, and from one call
per kind over every threat's poses, as the verify sweep scans them.

The digest fixes no expected value. Two digests of one checkout are
identical, and ``--diff`` of a digest against itself prints nothing. A
deliberate change to the plans shows up in ``--diff`` as one table row
per case that moved: the relative t_f change, the iteration change, the
x10 audit's worst clearance before and after, and which of the recorded
fields differ. A verify line or a window record that differs is one line
each; a field that only one of two window records holds, as when a later
checkout records more, is not compared. ``--diff`` exits 0 when nothing
moved and 1 when something did, as ``diff`` does.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import numpy as np  # noqa: E402

import gen  # noqa: E402
from threatnav import (  # noqa: E402
    AgentConfig,
    PlannerOptions,
    Point2,
    PursuerThreat,
    Scenario,
    TurretThreat,
    clearances_along,
    load_scenario,
    plan,
    resample_and_verify,
)
from threatnav import oracle  # noqa: E402
from threatnav.cli import main as cli_main  # noqa: E402
from threatnav.pursuit import rho_batch  # noqa: E402
from threatnav.turret import boundary_threshold_batch  # noqa: E402

AUDIT_FACTOR = 10
SEEDS = (1, 2)
UNIT_SCALES = (1e-3, 1e3)  # golden.json with every length times k, as plan cases
# every `threatnav verify` line of the CI workflow's console-script step
VERIFY_LINES = (
    "--samples 20",
    "--samples 20 --corrupt-rho 0.01",
    "--samples 1000",
    "--samples 10 --seed 1000",
    "--samples 1000 --corrupt-rho 0.01",
    "--kind turret --samples 1000",
    "--kind turret --samples 1000 --corrupt-rho 0.01",
    "--kind turret --samples 1000 --seed 1",
    "--kind turret --samples 1000 --seed 1 --corrupt-rho 0.01",
    "--kind turret --samples 1000 --seed 2",
    "--kind turret --samples 1000 --seed 2 --corrupt-rho 0.01",
    "--kind pursuer --samples 1000 --seed 1",
    "--kind pursuer --samples 1000 --seed 1 --corrupt-rho 0.01",
    "--kind pursuer --samples 1000 --seed 2",
    "--kind pursuer --samples 1000 --seed 2 --corrupt-rho 0.01",
)


WINDOW_SEED = 5
WINDOW_POSES = 2000  # per threat of the window record
WINDOW_MUS = (0.5, 0.7, 1.0, 1.5, 2.0)  # pursuer speed ratios, both regimes
WINDOW_LOOKS = (math.pi / 6.0, 5.0 * math.pi / 6.0, -5.0 * math.pi / 6.0)  # turret look angles


def offset_pair(n_nodes: int) -> Scenario:
    """Two pursuers on either side of the chord, whose default plan passes both below (ROADMAP item 4)."""
    threats = tuple(
        PursuerThreat(Point2(x, y), mu=0.9, engagement_range=0.9, capture_radius=0.2) for x, y in ((-1.5, 0.5), (1.5, -0.5))
    )
    agent = AgentConfig(Point2(-4.0, 0.0), Point2(4.0, 0.0), speed=0.9)
    return Scenario(agent, threats, PlannerOptions(n_nodes=n_nodes, constraint_tolerance=1e-4))


def scaled(scen: Scenario, k: float) -> Scenario:
    """``scen`` with every length times k, so t_f is k times as long: the same scene in other units.

    The lengths are the positions, each pursuer's range and capture radius, each turret's range and mu
    (a length per radian) and ``constraint_tolerance``. The speed, the angles and ``opt_tolerance`` stay.
    """

    def at(p: Point2) -> Point2:
        return Point2(k * p.x, k * p.y)

    lengths = {PursuerThreat: ("engagement_range", "capture_radius"), TurretThreat: ("mu", "engagement_range")}
    threats = [
        replace(t, position=at(t.position), **{name: k * getattr(t, name) for name in lengths[type(t)]})
        for t in scen.threats
    ]
    agent = replace(scen.agent, start=at(scen.agent.start), goal=at(scen.agent.goal))
    options = replace(scen.options, constraint_tolerance=k * scen.options.constraint_tolerance)
    return Scenario(agent, threats, options)


def cases(work_dir: Path) -> dict:
    """Every case by name, in digest order: a zero-argument function that builds its scenario.

    The ``gen.py`` cases are written to ``work_dir`` and read back, as the benchmark reads them.
    """
    files = [(c.name, c.path) for c in gen.golden_ladder(ROOT / "scenarios" / "golden.json", work_dir / "golden")]
    for seed in SEEDS:
        files += [(f"{c.name}_seed{seed}", c.path) for c in gen.seeded_pursuers(seed, work_dir / f"seed{seed}")]
    files += [(c.name, c.path) for group in gen.turret_mixed(work_dir / "turret_mixed") for c in group]
    files += [(f"{kind}.json", ROOT / "scenarios" / f"{kind}.json") for kind in ("golden", "turret", "mixed")]
    named = {name: (lambda path=path: load_scenario(path).scenario) for name, path in files}
    golden = load_scenario(ROOT / "scenarios" / "golden.json").scenario
    for n in (400, 800):
        named[f"golden_n{n}"] = lambda n=n: replace(golden, options=replace(golden.options, n_nodes=n))
    named["turret_n200"] = lambda: gen.turret_scenario(200)
    named["mixed_n200"] = lambda: gen.mixed_scenario(200)
    for n in (100, 400):
        named[f"offset_pair_n{n}"] = lambda n=n: offset_pair(n)
    for k in UNIT_SCALES:
        named[f"golden_k{k:g}"] = lambda k=k: scaled(golden, k)
    return named


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def plan_record(scen: Scenario) -> dict:
    """What one plan computes: its outcome, the hashes of its path and node table, and its x10 audit."""
    res = plan(scen)
    traj = res.trajectory
    audit = resample_and_verify(res, scen, AUDIT_FACTOR)
    return {
        "t_f": repr(res.t_f),
        "iterations": res.iterations,
        "min_clearance": repr(res.min_clearance),
        "converged": res.converged,
        "trajectory_sha256": _sha(traj.times, traj.points, traj.headings),
        "clearances_sha256": _sha(clearances_along(traj, scen.threats)),
        "audit": {
            "worst_clearance": repr(audit.worst_clearance),
            "worst_time": repr(audit.worst_time),
            "oracle_disagreements": audit.oracle_disagreements,
            "points_checked": audit.points_checked,
        },
    }


def _near_boundary(rng, boundary: np.ndarray) -> np.ndarray:
    """``boundary`` moved off by 1e-9 to 1e-1 ranges, to either side; the threats have range 1."""
    return boundary + rng.choice([-1.0, 1.0], len(boundary)) * 10.0 ** rng.uniform(-9.0, -1.0, len(boundary))


def window_cases() -> dict:
    """Per oracle kind, ``(threat, points, headings)`` of each threat of the fixed seeded window record.

    Pursuit poses sit off the closed-form boundary ``rho`` at random
    aspect angles and headings, as the verify sweep places them. Turret
    poses run along x, off the closed-form chord threshold at random
    offsets y.
    """
    rng = np.random.default_rng(WINDOW_SEED)
    pursuit = []
    for mu in WINDOW_MUS:
        threat = PursuerThreat(Point2(0.0, 0.0), mu=mu, engagement_range=1.0, capture_radius=0.25)
        xi, headings = rng.uniform(-math.pi, math.pi, (2, WINDOW_POSES))
        dist = np.maximum(_near_boundary(rng, rho_batch(xi, threat)), 1e-6)
        angle = headings - xi + math.pi
        pursuit.append((threat, np.c_[dist * np.cos(angle), dist * np.sin(angle)], headings))
    turret = []
    for look in WINDOW_LOOKS:
        threat = TurretThreat(Point2(0.0, 0.0), look_angle=look, mu=0.5, engagement_range=1.0)
        y = rng.uniform(0.001, 0.999, WINDOW_POSES) * rng.choice([-1.0, 1.0], WINDOW_POSES)
        headings = np.zeros(WINDOW_POSES)
        x = _near_boundary(rng, boundary_threshold_batch(y, threat, headings))
        turret.append((threat, np.c_[x, y], headings))
    return {"pursuit": pursuit, "turret": turret}


# per oracle kind: the first engagement window of each pose, or None, one list per block
# (points, headings, threat); the scan behind ``threat.engageable`` and the verify sweep
WINDOWS = {"pursuit": oracle.pursuit_windows, "turret": oracle.turret_windows}


def _windows_sha(blocks: list) -> str:
    return _sha([(math.nan, math.nan) if w is None else w for block in blocks for w in block])


def window_record() -> dict:
    """Per oracle kind: sha256s of the window record's poses and of their windows, and how many poses engage.

    ``windows_sha256`` hashes one oracle call per threat and ``one_call_windows_sha256`` one call over every threat.
    """
    record = {}
    for kind, threats in window_cases().items():
        blocks = [(points, headings, threat) for threat, points, headings in threats]
        alone = [WINDOWS[kind]([block])[0] for block in blocks]
        record[kind] = {
            "poses_sha256": _sha(*(a for points, headings, _ in blocks for a in (points, headings))),
            "windows_sha256": _windows_sha(alone),
            "one_call_windows_sha256": _windows_sha(WINDOWS[kind](blocks)),
            "engaged": sum(w is not None for block in alone for w in block),
        }
    return record


def verify_record(line: str) -> dict:
    """Exit code and standard output of ``threatnav verify`` with the arguments in ``line``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["verify", *line.split()])
    return {"exit": code, "stdout": out.getvalue()}


def digest(only=None, verify_lines=VERIFY_LINES) -> dict:
    """The digest of this checkout; ``only`` limits the plan cases to those names."""
    with tempfile.TemporaryDirectory() as tmp:
        named = cases(Path(tmp))
        unknown = set(only or ()) - set(named)
        if unknown:
            raise ValueError(f"unknown cases: {sorted(unknown)}")
        plans = {name: plan_record(build()) for name, build in named.items() if only is None or name in only}
    return {
        "plans": plans,
        "verify": {line: verify_record(line) for line in verify_lines},
        "windows": window_record(),
    }


def diff(before: dict, after: dict) -> list[str]:
    """Table lines for every plan case and verify line that differ between two digests; none when equal."""
    lines = []
    a_plans, b_plans = before["plans"], after["plans"]
    rows = []
    for name in [*a_plans, *(n for n in b_plans if n not in a_plans)]:
        a, b = a_plans.get(name), b_plans.get(name)
        if a == b:
            continue
        if a is None or b is None:
            rows.append(f"| {name} | {'only after' if a is None else 'only before'} | | | | | |")
            continue
        fields = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        t_f = float(a["t_f"]), float(b["t_f"])
        worst = a["audit"]["worst_clearance"], b["audit"]["worst_clearance"]
        rows.append(
            f"| {name} | {t_f[0]:.9f} → {t_f[1]:.9f} | {(t_f[1] - t_f[0]) / t_f[0]:+.2g} "
            f"| {a['iterations']} → {b['iterations']} ({b['iterations'] - a['iterations']:+d}) "
            f"| {float(worst[0]):.2g} → {float(worst[1]):.2g} | {a['converged']} → {b['converged']} | {', '.join(fields)} |"
        )
    if rows:
        lines += [
            "| case | t_f | relative | iterations | x10 audit worst | converged | fields that moved |",
            "| --- | --- | --- | --- | --- | --- | --- |",
            *rows,
        ]
    a_ver, b_ver = before["verify"], after["verify"]
    for line in [*a_ver, *(v for v in b_ver if v not in a_ver)]:
        if a_ver.get(line) != b_ver.get(line):
            lines.append(f"verify {line}: {a_ver.get(line)!r} → {b_ver.get(line)!r}")
    a_win, b_win = before.get("windows", {}), after.get("windows", {})
    for kind in [*a_win, *(k for k in b_win if k not in a_win)]:
        a, b = a_win.get(kind), b_win.get(kind)
        if a is None or b is None or any(a[field] != b[field] for field in a.keys() & b.keys()):
            lines.append(f"windows {kind}: {a!r} → {b!r}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", nargs="?", type=Path, help="where to write this checkout's digest")
    parser.add_argument("--diff", nargs=2, type=Path, metavar=("BEFORE", "AFTER"), help="compare two digests")
    args = parser.parse_args(argv)
    if args.diff:
        before, after = (json.loads(p.read_text()) for p in args.diff)
        lines = diff(before, after)
        for line in lines:
            print(line)
        return 1 if lines else 0
    if args.output is None:
        parser.error("give a digest file to write, or --diff BEFORE AFTER")
    args.output.write_text(json.dumps(digest(), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
