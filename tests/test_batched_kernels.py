"""Batched threat kernels bit for bit, and the analytic turret gradient and Jacobian.

SLSQP reacts to last-bit changes in its constraints, so the batched
kernels must return exactly the floats of the frozen scalar closed forms
in ``reference_kernels``, not values within a tolerance; every kernel
comparison here is ``np.array_equal``. The turret's clearance gradient
has no frozen scalar form: it is pinned bit for bit against the frozen
batched fold, and checked against central differences of the reference
clearance. The constraint Jacobian is checked against central
differences too.
"""

import math
import re
import warnings

import numpy as np
import pytest

from threatnav.errors import DomainError
from threatnav.geometry import Point2, angular_separation, wrap_angle, wrap_angles
from threatnav.planner import AgentConfig, PlannerOptions, Scenario, plan, transcribe
from threatnav.pursuit import (
    PursuerThreat,
    _collision_course_rho_batch,
    rho_batch,
    rho_derivative_batch,
    sample_boundary,
    xi_crossover,
)
from threatnav.turret import (
    TurretThreat,
    _threshold,
    boundary_threshold,
    boundary_threshold_batch,
    sample_turret_boundary,
)

import reference_kernels as ref

SEAM_LOOKS = (math.pi / 2, -math.pi / 2, math.pi, -math.pi, 0.0, math.pi / 6, -2.5)


def bit_equal(a, b) -> bool:
    """Same floats, including the sign of zero; NaN matches NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


def test_wrap_angles_matches_wrap_angle():
    rng = np.random.default_rng(11)
    k = np.arange(-40, 41)
    a = np.concatenate(
        [
            rng.uniform(-20.0, 20.0, 5000),
            rng.uniform(-1e9, 1e9, 2000),
            k * math.pi,
            k * 2.0 * math.pi,
            [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300],
            np.nextafter(k * math.pi, 1e9),
            np.nextafter(k * math.pi, -1e9),
        ]
    )
    assert bit_equal(wrap_angles(a), [wrap_angle(v) for v in a.tolist()])
    assert wrap_angles(np.array([-math.pi]))[0] == math.pi


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_wrap_angles_rejects_non_finite(bad):
    with pytest.raises(DomainError, match="angle must be finite"):
        wrap_angles(np.array([0.5, bad]))


# -- turret ---------------------------------------------------------------------


def chords(threat, rng, n=600):
    """Chord offsets and headings covering every branch of ``boundary_threshold``."""
    R, mu = threat.engagement_range, threat.mu
    y = np.concatenate(
        [
            rng.uniform(-R, R, n),
            [0.0, -0.0, R, -R, 0.0, 0.0],
            np.minimum(rng.uniform(0.0, mu, 50), R),  # interior candidate: mu > y
            -np.minimum(rng.uniform(0.0, mu, 50), R),
            [0.0, 1e-300, -1e-300],
        ]
    )
    headings = rng.uniform(-4.0, 4.0, len(y))
    headings[:8] = [math.pi, -math.pi] * 4
    headings[n : n + 6] = [math.pi, -math.pi, 0.0, math.pi, math.pi / 2, -math.pi / 2]
    # look angle minus heading on the +/- pi/2 seams of the beam
    seam = threat.look_angle - np.array([math.pi / 2, -math.pi / 2, 3 * math.pi / 2])
    headings[n + 6 : n + 9] = seam
    # th one ulp above -pi (after the mirror too): th - pi rounds to -2 pi, a gap that wraps to a zero
    headings[-3:] = threat.look_angle - np.array([np.nextafter(-math.pi, 0.0)] * 2 + [np.nextafter(math.pi, 0.0)])
    return y, headings


TURRETS = [
    TurretThreat(Point2(0.3, -0.2), look_angle=look, mu=mu, engagement_range=R)
    for look in SEAM_LOOKS
    for mu, R in ((0.5, 1.0), (1.3, 0.8), (3.0, 2.0))
]


@pytest.mark.parametrize("threat", TURRETS, ids=lambda t: f"look{t.look_angle:.3f}_mu{t.mu}")
def test_boundary_threshold_batch_is_bit_exact(threat):
    y, headings = chords(threat, np.random.default_rng(5))
    batched = boundary_threshold_batch(y, threat, headings)
    scalar = [ref.boundary_threshold(float(v), threat, float(h)) for v, h in zip(y, headings)]
    assert bit_equal(batched, scalar)


@pytest.mark.parametrize("threat", TURRETS, ids=lambda t: f"look{t.look_angle:.3f}_mu{t.mu}")
def test_turret_clearance_batch_is_bit_exact(threat):
    rng = np.random.default_rng(6)
    R = threat.engagement_range
    centre = np.array(threat.position.as_tuple())
    points = centre + rng.uniform(-3.0 * R, 3.0 * R, size=(800, 2))  # many with |y0| > R
    headings = rng.uniform(-4.0, 4.0, 800)
    headings[:4] = [math.pi, -math.pi, 0.0, math.pi / 2]
    points[4:12, 1] = threat.position.y  # heading 0 along the turret's row: y0 == 0
    headings[4:12] = 0.0
    points[12:16] = centre + [[0.0, 0.5 * R], [0.0, -0.5 * R], [0.0, 2.0 * R], [0.0, -2.0 * R]]
    batched = threat.clearance(points, headings)
    scalar = [ref.turret_clearance(Point2(float(x), float(y)), float(h), threat) for (x, y), h in zip(points, headings)]
    assert bit_equal(batched, scalar)


@pytest.mark.parametrize("threat", TURRETS, ids=lambda t: f"look{t.look_angle:.3f}_mu{t.mu}")
def test_turret_gradient_matches_central_differences(threat):
    rng = np.random.default_rng(7)
    R, h = threat.engagement_range, 1e-6
    points = np.array(threat.position.as_tuple()) + rng.uniform(-3.0 * R, 3.0 * R, size=(2000, 2))
    headings = rng.uniform(-4.0, 4.0, 2000)
    value, *partials = threat.clearance_and_gradient(points, headings)
    assert bit_equal(value, threat.clearance(points, headings))
    gradient = np.stack(partials, axis=1)

    def clear(pose):
        return ref.turret_clearance(Point2(pose[0], pose[1]), pose[2], threat)

    poses = np.column_stack([points, headings])
    checked = 0
    for pose, grad in zip(poses, gradient):
        here = clear(pose)
        for axis, step in enumerate(h * np.eye(3)):
            up, down = clear(pose + step), clear(pose - step)
            if abs((up - here) - (here - down)) > 1e-3 * h:
                continue  # the stencil straddles a kink of the max or of the fold
            central = (up - down) / (2.0 * h)
            assert abs(grad[axis] - central) <= 1e-6 * max(1.0, abs(central)), (pose, axis)
            checked += 1
    assert checked > 0.99 * poses.size


def turret_poses(threat, rng):
    """Poses covering every fold and both pieces of ``clearance_and_gradient``.

    The chords of ``chords`` at random offsets along their headings, chords
    beyond the range (y0 clamped at +/-R), and poses on the turret's own
    row with headings 0 and -0.0 (y0 == 0).
    """
    R = threat.engagement_range
    y, headings = chords(threat, rng)
    y = np.concatenate([y, rng.uniform(R, 2.0 * R, 40) * rng.choice([-1.0, 1.0], 40)])
    headings = np.concatenate([headings, rng.choice([0.0, -0.0, math.pi, -math.pi], 40)])
    x = rng.uniform(-2.0 * R, 2.0 * R, len(y))
    ch, sh = np.cos(headings), np.sin(headings)
    points = np.column_stack([x * ch - y * sh, x * sh + y * ch]) + threat.position.as_tuple()
    along = np.array([-1.5, -0.5, 0.5, 1.5]) * R
    row = np.column_stack([threat.position.x + np.tile(along, 2), np.full(8, threat.position.y)])
    return np.vstack([points, row]), np.concatenate([headings, [0.0] * 4 + [-0.0] * 4])


def fold_winner(y, heading, threat):
    """The candidate of ``ref.boundary_threshold`` that gives M(y), the first on a tie, and whether y is mirrored."""
    R, mu = threat.engagement_range, threat.mu
    th = wrap_angle(threat.look_angle - heading)
    mirrored = y < 0.0
    if mirrored:
        y, th = -y, wrap_angle(-th)
    if y == 0.0:
        return "axis", mirrored
    c = math.sqrt(max(R * R - y * y, 0.0))

    def reach(x):
        return x - mu * angular_separation(th, math.atan2(y, x))

    cands = {"exit": reach(c), "entry": reach(-c)}
    if math.sin(th) > 0.0 and -c <= y * math.cos(th) / math.sin(th) <= c:
        cands["crossing"] = y * math.cos(th) / math.sin(th)
    if mu > y:
        xs = -math.sqrt(y * (mu - y))
        if -c <= xs <= c and wrap_angle(math.atan2(y, xs) - th) < 0.0:
            cands["stationary"] = reach(xs)
    top = max(cands.values())
    return next(name for name, value in cands.items() if value == top), mirrored


@pytest.mark.parametrize("threat", TURRETS, ids=lambda t: f"look{t.look_angle:.3f}_mu{t.mu}")
def test_turret_partials_are_frozen(threat):
    """M(y) with its partials, and all four outputs of ``clearance_and_gradient``, bit for bit the frozen fold."""
    rng = np.random.default_rng(8)
    y, headings = chords(threat, rng)
    for name, got, want in zip(("M", "dM/dy", "dM/dth"), _threshold(y, threat, headings),
                               ref.threshold_and_partials(y, threat, headings)):
        assert bit_equal(got, want), name
    points, headings = turret_poses(threat, rng)
    got = threat.clearance_and_gradient(points, headings)
    want = ref.turret_clearance_and_gradient(threat, points, headings)
    for name, a, b in zip(("clearance", "d/dx", "d/dy", "d/dheading"), got, want):
        assert bit_equal(a, b), name


def test_frozen_corpus_covers_every_fold():
    """``test_turret_partials_are_frozen`` sees every candidate win, mirrored and not, and each turret both pieces."""
    winners = set()
    for threat in TURRETS:
        R = threat.engagement_range
        rng = np.random.default_rng(8)
        y, headings = chords(threat, rng)
        winners |= {fold_winner(v, h, threat) for v, h in zip(y.tolist(), headings.tolist())}
        points, headings = turret_poses(threat, rng)
        _, y0, _, _ = threat._frame(points, headings)
        clamped, lateral = np.abs(y0) > R, threat.clearance(points, headings) == np.abs(y0) - R
        assert (y0 == 0.0).any() and lateral.any() and (clamped & ~lateral).any(), threat
    expected = {(name, m) for name in ("exit", "entry", "crossing", "stationary") for m in (False, True)}
    assert winners == expected | {("axis", False)}  # y == -0.0 is not mirrored


def test_turret_batch_domain_errors():
    threat = TURRETS[0]
    at_turret = np.array([[1.0, 1.0], threat.position.as_tuple()])
    with pytest.raises(DomainError, match="agent exactly at the turret position"):
        threat.clearance(at_turret, np.zeros(2))
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="angle must be finite"):
            threat.clearance(np.array([[1.0, 1.0], [2.0, 0.5]]), np.array([0.0, bad]))
    with pytest.raises(DomainError, match="point components must be finite"):
        threat.clearance(np.array([[1.0, math.nan]]), np.zeros(1))
    with pytest.raises(DomainError, match="exceeds the engagement range"):
        boundary_threshold_batch(np.array([0.0, 2.0 * threat.engagement_range]), threat, np.zeros(2))
    # a non-finite chord offset is named as one, not as an angle
    with pytest.raises(DomainError, match="^chord offset must be finite, got nan$"):
        boundary_threshold(float("nan"), TurretThreat(Point2(0, 0), 0.5, 0.5, 1.0))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=f"^chord offset must be finite, got {bad}$"):
            boundary_threshold_batch(np.array([0.0, bad]), threat, np.zeros(2))


# -- pursuer --------------------------------------------------------------------

PURSUERS = [
    PursuerThreat(Point2(0.3, -0.2), mu=0.7, engagement_range=1.0, capture_radius=0.25),
    PursuerThreat(Point2(0.3, -0.2), mu=1.0, engagement_range=1.0, capture_radius=0.3),
    PursuerThreat(Point2(0.3, -0.2), mu=0.8, engagement_range=0.5, capture_radius=0.0),
    PursuerThreat(Point2(0.3, -0.2), mu=1.5, engagement_range=1.0, capture_radius=0.25),
    PursuerThreat(Point2(-1.0, 2.0), mu=1.2, engagement_range=0.6, capture_radius=0.0),
    PursuerThreat(Point2(0.0, 0.0), mu=1.1, engagement_range=1.0, capture_radius=0.5),  # mu^2 - 1 < r/R
]


def aspect_angles(threat, rng):
    xi = [rng.uniform(-4.0, 4.0, 3000), [math.pi, -math.pi, 0.0, -0.0, 3 * math.pi, -3 * math.pi]]
    if threat.mu > 1.0:
        joins = np.array([xi_crossover(threat), math.pi - math.acos(1.0 / threat.mu)])
        near = np.concatenate([joins, np.nextafter(joins, -1.0), np.nextafter(joins, 9.0)])
        if threat.capture_radius == 0.0:
            near = near[near != np.nextafter(joins[0], 9.0)]  # a zero denominator there: see the next test
        xi += [near, -near]
    return np.concatenate(xi)


@pytest.mark.parametrize("threat", PURSUERS, ids=lambda t: f"mu{t.mu}_r{t.capture_radius}")
def test_rho_batches_are_bit_exact(threat):
    xi = aspect_angles(threat, np.random.default_rng(8))
    assert bit_equal(rho_batch(xi, threat), [ref.rho(v, threat) for v in xi.tolist()])
    assert bit_equal(rho_derivative_batch(xi, threat), [ref.rho_derivative(v, threat) for v in xi.tolist()])


def test_zero_capture_radius_crossover_divides_like_scalar():
    # Just past the crossover the grazing arc's denominator is 0; with r = 0
    # the radius there is 0, and so is its derivative, without a 0/0.
    threat = PURSUERS[4]
    just_past = float(np.nextafter(xi_crossover(threat), 9.0))
    for batched, scalar in ((rho_batch, ref.rho), (rho_derivative_batch, ref.rho_derivative)):
        assert bit_equal(batched(np.array([0.1, just_past]), threat), [scalar(0.1, threat), 0.0])
        assert bit_equal(np.array([scalar(just_past, threat)]), [0.0])


@pytest.mark.parametrize("threat", PURSUERS, ids=lambda t: f"mu{t.mu}_r{t.capture_radius}")
def test_pursuer_clearance_batch_is_bit_exact(threat):
    rng = np.random.default_rng(9)
    centre = np.array(threat.position.as_tuple())
    points = centre + rng.uniform(-3.0, 3.0, size=(500, 2))
    headings = rng.uniform(-math.pi, math.pi, 500)
    points[:2] = centre + [[-1.5, 0.0], [-1.5, 0.0]]  # heading straight away: xi = +/- pi
    headings[:2] = [math.pi, -math.pi]
    points[2] = centre  # distance 0: on the pursuer
    with np.errstate(divide="ignore", invalid="ignore"):
        assert bit_equal(threat.clearance(points, headings), scalar_pursuer_clearance(threat, points, headings))
        batched = threat.clearance_and_gradient(points, headings)
        for got, want in zip(batched, scalar_pursuer_clearance_and_gradient(threat, points, headings)):
            assert bit_equal(got, want)


# Every member that takes poses. The partials' member keeps the test id "clearance_gradient" it was
# first listed under, so these tests keep their ids.
MEMBERS = ["clearance", pytest.param("clearance_and_gradient", id="clearance_gradient"), "engageable"]


@pytest.mark.parametrize("threat", [TURRETS[0], PURSUERS[3]], ids=["turret", "pursuer"])
@pytest.mark.parametrize("member", MEMBERS)
@pytest.mark.parametrize("bad", [(math.nan, 0.5), (2.0, math.inf), (-math.inf, math.nan)], ids=["nan", "inf", "both"])
def test_non_finite_point_is_a_domain_error(threat, member, bad):
    points = np.array([[1.0, 1.0], bad, [2.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(f"point components must be finite, got {bad}")):
            getattr(threat, member)(points, np.zeros(3))


@pytest.mark.parametrize("threat", [TURRETS[0], PURSUERS[3]], ids=["turret", "pursuer"])
@pytest.mark.parametrize("member", MEMBERS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_heading_is_named_as_given(threat, member, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as err:
            getattr(threat, member)(np.array([[1.0, 1.0], [2.0, 0.5]]), np.array([0.0, bad]))
    assert str(err.value) == f"angle must be finite, got {bad}"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_boundary_threshold_names_a_non_finite_heading_as_given(bad):
    threat = TurretThreat(Point2(0.0, 0.0), look_angle=0.5, mu=0.5, engagement_range=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: boundary_threshold(0.2, threat, bad),
            lambda: boundary_threshold_batch(np.array([0.2, 0.1]), threat, np.array([0.0, bad])),
        ):
            with pytest.raises(DomainError) as err:
                call()
            assert str(err.value) == f"angle must be finite, got {bad}"


def test_pursuer_batch_domain_errors():
    threat = PURSUERS[3]
    with pytest.raises(DomainError, match="angle must be finite"):
        threat.clearance(np.array([[1.0, 1.0], [2.0, 2.0]]), np.array([0.0, math.nan]))
    mu, R, r = 2.0, 1.0, 0.0  # radicand -0.75 at xi = pi/2
    with pytest.raises(DomainError, match="outside the collision-course branch") as scalar:
        ref._collision_course_rho(math.pi / 2, mu, R, r)
    with pytest.raises(DomainError, match="outside the collision-course branch") as batched:
        _collision_course_rho_batch(np.array([0.0, math.pi / 2]), mu, R, r)
    assert str(batched.value) == str(scalar.value)


# -- boundary samplers -----------------------------------------------------------


@pytest.mark.parametrize("threat", PURSUERS, ids=lambda t: f"mu{t.mu}_r{t.capture_radius}")
@pytest.mark.parametrize("heading", [0.0, 0.7, -2.5])
def test_sample_boundary_is_bit_exact(threat, heading):
    samples = sample_boundary(threat, heading, 401)
    radii, points = [], []
    for s in samples:
        rad = ref.rho(s.xi, threat)
        ang = heading - s.xi + math.pi
        radii.append(rad)
        points.append((threat.position.x + rad * math.cos(ang), threat.position.y + rad * math.sin(ang)))
    assert bit_equal([s.rho for s in samples], radii)
    assert bit_equal([s.point.as_tuple() for s in samples], points)


@pytest.mark.parametrize("threat", TURRETS, ids=lambda t: f"look{t.look_angle:.3f}_mu{t.mu}")
def test_sample_turret_boundary_is_bit_exact(threat):
    samples = sample_turret_boundary(threat, 301)
    assert bit_equal([s.a0.x for s in samples], [ref.boundary_threshold(s.a0.y, threat) for s in samples])


# -- the constraint Jacobian and whole plans --------------------------------------


def turret_scenario(n):
    turret = TurretThreat(Point2(0.0, 0.0), look_angle=math.pi / 6, mu=0.5, engagement_range=1.0)
    agent = AgentConfig(Point2(-3.0, -0.4), Point2(3.0, -0.4), speed=0.5)
    return Scenario(agent, (turret,), PlannerOptions(n_nodes=n, constraint_tolerance=1e-4))


def mixed_scenario(n):
    return Scenario(
        AgentConfig(Point2(-3.0, 0.0), Point2(3.0, 0.0), speed=0.8),
        (
            PursuerThreat(Point2(-1.2, 0.0), mu=0.8, engagement_range=0.5, capture_radius=0.1),
            TurretThreat(Point2(1.2, 0.1), look_angle=2.0, mu=0.4, engagement_range=0.6),
        ),
        PlannerOptions(n_nodes=n, constraint_tolerance=1e-4),
    )


def reference_fd_jacobian(self, threat, z):
    """One threat's constraint Jacobian by column-by-column central differences."""

    # the row table's (segment, fraction) poses: fraction 1 sits on the segment's far node
    nodes, heads = self._seg + (self._frac == 1.0), self._seg

    def block(zz):
        return threat.clearance(self.positions(zz)[nodes], zz[:-1][heads])

    jac = np.zeros((len(self._seg), len(z)))
    for j in range(len(z)):
        h = 1e-7 * max(1.0, abs(z[j]))
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        jac[:, j] = (block(zp) - block(zm)) / (2.0 * h)
    return jac


def scalar_turret_clearance(self, points, headings):
    return np.array([ref.turret_clearance(Point2(float(x), float(y)), float(h), self) for (x, y), h in zip(points, headings)])


def scalar_pursuer_clearance(self, points, headings):
    d, _, _, xi = self._polar(points, headings)
    return d - np.array([ref.rho(x, self) for x in xi])


def scalar_pursuer_clearance_and_gradient(self, points, headings):
    d, dxv, dyv, xi = self._polar(points, headings)
    drho = np.array([ref.rho_derivative(x, self) for x in xi])
    d2 = d * d
    clearance = scalar_pursuer_clearance(self, points, headings)
    return clearance, -dxv / d + drho * dyv / d2, -dyv / d - drho * dxv / d2, -drho


BATCHED_TURRET = TurretThreat.clearance_and_gradient


def scalar_turret_clearance_and_gradient(self, points, headings):
    """The reference clearance with the batched partials, which have no frozen scalar form."""
    return scalar_turret_clearance(self, points, headings), *BATCHED_TURRET(self, points, headings)[1:]


def install_reference(monkeypatch):
    """Make every clearance value, the planner's included, come from the scalar reference kernels."""
    monkeypatch.setattr(TurretThreat, "clearance", scalar_turret_clearance)
    monkeypatch.setattr(TurretThreat, "clearance_and_gradient", scalar_turret_clearance_and_gradient)
    monkeypatch.setattr(PursuerThreat, "clearance", scalar_pursuer_clearance)
    monkeypatch.setattr(PursuerThreat, "clearance_and_gradient", scalar_pursuer_clearance_and_gradient)


@pytest.mark.parametrize("make", [turret_scenario, mixed_scenario], ids=["turret", "mixed"])
def test_jacobian_matches_column_by_column_reference(make, monkeypatch):
    rng = np.random.default_rng(4)
    for n in (20, 60):
        problem = transcribe(make(n))
        z = np.concatenate([rng.uniform(-0.4, 0.4, n - 1), [9.0]])
        analytic = problem.clearance_jacobian(z)
        reference = np.vstack([reference_fd_jacobian(problem, t, z) for t in problem.threats])
        assert np.max(np.abs(analytic - reference)) <= 1e-6, n
        batched = problem.clearances(z)
        with monkeypatch.context() as m:
            install_reference(m)
            assert bit_equal(batched, transcribe(make(n)).clearances(z))  # a fresh problem: no memo of z


@pytest.mark.parametrize("make", [turret_scenario, mixed_scenario], ids=["turret", "mixed"])
def test_plan_matches_reference(make, monkeypatch):
    scenario = make(20)
    batched = plan(scenario)
    install_reference(monkeypatch)
    planned = set()
    for kind in (TurretThreat, PursuerThreat):
        def spy(self, points, headings, reference=kind.clearance_and_gradient):
            planned.add(type(self))
            return reference(self, points, headings)

        monkeypatch.setattr(kind, "clearance_and_gradient", spy)
    reference = plan(scenario)
    assert planned == {type(t) for t in scenario.threats}  # every threat's SLSQP rows came from the reference
    assert batched.iterations == reference.iterations
    assert batched.t_f == reference.t_f
    assert bit_equal(batched.trajectory.points, reference.trajectory.points)
