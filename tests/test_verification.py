"""The equivalence sweeps' seeded draw stream.

Each sweep draws its poses in blocks and classifies them with one
batched kernel call per block. The per-label disagreement counts below
pin the order and the number of draws of a seeded sweep: a draw that is
moved, added or wasted changes them.
"""

import pytest

from threatnav import verification
from threatnav.verification import pursuit_equivalence_sweep, turret_equivalence_sweep


def counts(results):
    return {r.label: r.disagreements for r in results}


def test_pursuit_sweep_draw_stream():
    assert counts(pursuit_equivalence_sweep(40, seed=1, rho_scale=1.01)) == {
        "pursuer mu=0.5": 4,
        "pursuer mu=0.7": 8,
        "pursuer mu=1.0": 4,
        "pursuer mu=1.5": 7,
        "pursuer mu=2.0": 4,
    }


LOOKS = ("turret look_angle=0.5236", "turret look_angle=2.6180", "turret look_angle=-2.6180")


@pytest.mark.parametrize(
    "margin, shift, expected",
    [
        (1e-3, 0.01, (0, 0, 0)),
        (1e-3, 0.3, (2, 4, 3)),
        # a margin this wide rejects about one draw in fifteen, so the
        # sweep redraws for the poses it still needs
        (0.2, 0.3, (1, 2, 1)),
        (0.2, -0.3, (2, 1, 1)),
    ],
)
def test_turret_sweep_draw_stream(monkeypatch, margin, shift, expected):
    monkeypatch.setattr(verification, "_MARGIN", margin)
    calls = []
    batch = verification.boundary_threshold_batch

    def counted(y, threat, headings):
        calls.append(len(y))
        return batch(y, threat, headings)

    monkeypatch.setattr(verification, "boundary_threshold_batch", counted)
    results = turret_equivalence_sweep(40, seed=1, threshold_shift=shift)
    assert counts(results) == dict(zip(LOOKS, expected))
    assert [r.samples for r in results] == [40, 40, 40]
    assert calls[:1] == [40]
    if margin > 1e-3:
        assert len(calls) > len(LOOKS)  # the redraw rounds ran
