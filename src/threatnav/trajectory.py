"""Time-stamped constant-speed polyline of agent states, and the one rule for where its poses sit.

A pose is (segment k, fraction f): ``place`` puts it on the path, and ``node_poses`` names each node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import require_number


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-straight agent path with per-segment headings.

    times are nondecreasing and start at zero; points has one row per
    time stamp, at least two; headings has one entry per segment.
    Consecutive points are consistent with motion at the stored speed.
    """

    times: np.ndarray
    points: np.ndarray
    headings: np.ndarray
    speed: float = field(default=1.0)

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        points = np.asarray(self.points, dtype=float)
        headings = np.asarray(self.headings, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "headings", headings)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError(f"points must be (n, 2), got {points.shape}")
        if len(points) < 2:
            raise ValueError(f"a trajectory needs at least one segment, got {len(points)} point(s)")
        if len(times) != len(points):
            raise ValueError("one time stamp per point required")
        if len(headings) != len(points) - 1:
            raise ValueError("one heading per segment required")
        if times[0] != 0.0 or np.any(np.diff(times) < 0.0):
            raise ValueError("times must start at 0 and be nondecreasing")
        require_number("speed", self.speed, "positive")

    @classmethod
    def from_polyline(cls, points, speed: float) -> "Trajectory":
        """Constant-speed trajectory through ``points``; zero-length segments are dropped.

        Points that all coincide leave no segment, which the constructor rejects.
        """
        require_number("speed", speed, "positive")  # before the division by it
        pts = np.asarray(points, dtype=float)
        deltas = np.diff(pts, axis=0)
        seg = np.hypot(deltas[:, 0], deltas[:, 1])
        keep = seg > 0.0
        pts, deltas, seg = np.vstack([pts[:1], pts[1:][keep]]), deltas[keep], seg[keep]
        times = np.concatenate([[0.0], np.cumsum(seg) / speed])
        headings = np.arctan2(deltas[:, 1], deltas[:, 0])
        return cls(times=times, points=pts, headings=headings, speed=speed)

    @property
    def t_f(self) -> float:
        return float(self.times[-1])

    def max_speed_violation(self) -> float:
        """Largest relative mismatch between segment length and speed * dt."""
        seg = np.hypot(*np.diff(self.points, axis=0).T)
        expect = self.speed * np.diff(self.times)
        scale = np.maximum(np.abs(expect), 1e-300)
        return float(np.max(np.abs(seg - expect) / scale))


def node_poses(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(segment, fraction) of each of n nodes with its outgoing heading: (k, 0) for k = 0..n-2, then the goal (n-2, 1)."""
    seg, frac = np.arange(n), np.zeros(n)
    seg[-1], frac[-1] = n - 2, 1.0
    return seg, frac


def place(nodes: np.ndarray, seg: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """Where the (segment, fraction) poses of a path sit: node k + f (node k+1 - node k) for pose (k, f).

    ``nodes`` holds the path's points, one row per node, or any other per-node value (its times, or
    its node numbers). A pose of fraction 1 reads node k+1 as stored, so a grid's poses sit exactly on
    its nodes. The pose's heading is segment k's, ``headings[seg]``.
    """
    lo, hi = nodes[seg], nodes[seg + 1]
    f = frac.reshape((-1,) + (1,) * (nodes.ndim - 1))
    out = lo + f * (hi - lo)
    np.copyto(out, hi, where=f == 1.0)
    return out
