"""Analytic-versus-oracle equivalence sweeps.

Random poses are drawn with a guaranteed margin off the analytic zone
boundary (poses closer than the margin are ambiguous at finite scan
resolution), then classified by both the closed form and the brute-force
oracle. The closed forms are the batched kernels the planner runs
(``rho_batch``, ``boundary_threshold_batch``) and the oracle is the
threat's ``engageable`` member, the referee the dense audit asks; each
is one call per block of poses, so the sweep checks the code that plans
and audits use. Any disagreement is a defect in one of the two routes. A
corruption hook scales the analytic boundary so the harness can prove
the sweep actually detects broken formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Point2, wrap_angle
from .oracle import pursuit_capture_possible, turret_neutralization_possible  # noqa: F401
from .pursuit import PursuerThreat, rho, rho_batch  # noqa: F401
from .turret import TurretThreat, boundary_threshold, boundary_threshold_batch  # noqa: F401

# rho, boundary_threshold and the two one-pose oracles are not called
# here: the sweeps classify whole blocks with rho_batch,
# boundary_threshold_batch and engageable. They stay bound because
# benchmarks/tracing.py wraps them by name and its self-test expects every
# binding it names to exist.

_MUS = (0.5, 0.7, 1.0, 1.5, 2.0)  # pursuer speed ratios, both regimes
_LOOKS = (math.pi / 6.0, 5.0 * math.pi / 6.0, -5.0 * math.pi / 6.0)  # turret look angles
_TURRET_MU = 0.5
_RANGE = 1.0  # engagement range of every swept threat
_CAPTURE_RADIUS = 0.25
_MARGIN = 1e-3  # least distance off the analytic boundary, in engagement ranges


@dataclass(frozen=True)
class SweepResult:
    label: str
    samples: int
    disagreements: int


def pursuit_equivalence_sweep(
    samples_per_mu: int = 1000, seed: int = 0, rho_scale: float = 1.0
) -> list[SweepResult]:
    """Classify random pursuit poses by zone formula and by oracle.

    rho_scale != 1 deliberately corrupts the analytic boundary; a correct
    oracle then reports disagreements.
    """
    rng = np.random.default_rng(seed)
    results = []
    R, r = _RANGE, _CAPTURE_RADIUS
    for mu in _MUS:
        threat = PursuerThreat(Point2(0.0, 0.0), mu=mu, engagement_range=R, capture_radius=r)
        # per pose: aspect angle, side draw, offset exponent, heading
        draws = rng.uniform([-math.pi, 0.0, -2.5, -math.pi], [math.pi, 1.0, -0.3, math.pi], size=(samples_per_mu, 4))
        boundaries = rho_batch(draws[:, 0], threat)
        points, analytic = [], []
        for (xi, u, exponent, heading), boundary in zip(draws.tolist(), boundaries.tolist()):
            side = 1.0 if u < 0.5 else -1.0
            offset = max(_MARGIN * R * 1.0001, boundary * 10.0**exponent)
            dist = boundary + side * offset
            ang = heading - xi + math.pi
            points.append((dist * math.cos(ang), dist * math.sin(ang)))
            analytic.append(dist <= rho_scale * boundary)
        oracle = threat.engageable(np.array(points).reshape(-1, 2), draws[:, 3])
        bad = int(np.count_nonzero(oracle != np.array(analytic, dtype=bool)))
        results.append(SweepResult(label=f"pursuer mu={mu}", samples=samples_per_mu, disagreements=bad))
    return results


def turret_equivalence_sweep(
    samples_per_angle: int = 1000, seed: int = 0, threshold_shift: float = 0.0
) -> list[SweepResult]:
    """Classify random turret poses by the chord-threshold test and by oracle.

    threshold_shift != 0 corrupts the analytic threshold (in units of the
    engagement range) for harness self-tests.
    """
    rng = np.random.default_rng(seed)
    results = []
    R = _RANGE
    for look in _LOOKS:
        threat = TurretThreat(Point2(0.0, 0.0), look_angle=look, mu=_TURRET_MU, engagement_range=R)
        bad = 0
        done = 0
        while done < samples_per_angle:
            # one attempt per pose still needed: a chord offset and the
            # uniform that places the start on the chord; a through-turret
            # chord is degenerate and is dropped with its uniform
            draws = rng.uniform([-0.999 * R, 0.0], [0.999 * R, 1.0], size=(samples_per_angle - done, 2))
            draws = draws[~(np.abs(draws[:, 0]) < 1e-6 * R)]
            thresholds = boundary_threshold_batch(draws[:, 0], threat, np.zeros(len(draws)))
            points, analytic = [], []
            for (y, u), threshold in zip(draws.tolist(), thresholds.tolist()):
                lo = threshold - 3.0 * R
                hi = min(threshold + 3.0 * R, math.sqrt(R * R - y * y))
                x = lo + (hi - lo) * u  # rng.uniform(lo, hi), bit for bit
                if abs(x - threshold) < _MARGIN * R:
                    continue
                points.append((x, y))
                analytic.append(x <= threshold + threshold_shift * R)
            oracle = threat.engageable(np.array(points).reshape(-1, 2), np.zeros(len(points)))
            bad += int(np.count_nonzero(oracle != np.array(analytic, dtype=bool)))
            done += len(points)
        results.append(
            SweepResult(
                label=f"turret look_angle={wrap_angle(look):.4f}",
                samples=samples_per_angle,
                disagreements=bad,
            )
        )
    return results
