import math
import warnings

import numpy as np
import pytest

from threatnav import oracle, pursuit, turret, verification
from threatnav.errors import DomainError
from threatnav.geometry import Point2
from threatnav.oracle import pursuit_capture_certificate, pursuit_capture_possible, turret_neutralization_possible
from threatnav.pursuit import PursuerThreat, rho, rho_batch, xi_crossover
from threatnav.turret import TurretThreat, boundary_threshold_batch

import reference_kernels as ref

FAST = PursuerThreat(Point2(0, 0), mu=0.7, engagement_range=1.0, capture_radius=0.25)
SLOW = PursuerThreat(Point2(0, 0), mu=1.5, engagement_range=1.0, capture_radius=0.25)


@pytest.fixture
def grid(monkeypatch):
    """``grid(pursuit_steps, turret_step)`` scans on that resolution for the rest of the test; ``grid()`` restores it."""

    def use(pursuit_steps=oracle._PURSUIT_STEPS, turret_step=oracle._TURRET_STEP):
        monkeypatch.setattr(oracle, "_PURSUIT_STEPS", pursuit_steps)
        monkeypatch.setattr(oracle, "_TURRET_STEP", turret_step)

    return use


def pose_at(dist, xi, heading, threat):
    ang = heading - xi + math.pi
    return Point2(
        threat.position.x + dist * math.cos(ang),
        threat.position.y + dist * math.sin(ang),
    )


class TestPursuitCapture:
    def test_head_on_bracket(self):
        edge = rho(0.0, FAST)
        assert pursuit_capture_possible(pose_at(edge * 0.999, 0.0, 0.0, FAST), 0.0, FAST)
        assert not pursuit_capture_possible(pose_at(edge * 1.001, 0.0, 0.0, FAST), 0.0, FAST)

    def test_already_captured(self):
        assert pursuit_capture_possible(Point2(0.2, 0.1), 2.0, FAST)

    def test_slow_pursuer_tail_escape(self):
        # Heading directly away at 2r with a slow pursuer: never caught.
        assert not pursuit_capture_possible(Point2(0.5, 0.0), 0.0, SLOW)

    def test_coincident_rejected(self):
        with pytest.raises(DomainError):
            pursuit_capture_possible(Point2(0, 0), 0.0, FAST)

    def test_monotone_in_range_and_capture_radius(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            mu = rng.uniform(0.3, 2.0)
            R = rng.uniform(0.3, 1.5)
            r = rng.uniform(0.0, 0.4)
            base = PursuerThreat(Point2(0, 0), mu=mu, engagement_range=R, capture_radius=r)
            p = Point2(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
            if p.x == 0 and p.y == 0:
                continue
            heading = rng.uniform(-math.pi, math.pi)
            if pursuit_capture_possible(p, heading, base):
                bigger_R = PursuerThreat(
                    Point2(0, 0), mu=mu, engagement_range=R * 1.5, capture_radius=r
                )
                bigger_r = PursuerThreat(
                    Point2(0, 0), mu=mu, engagement_range=R, capture_radius=r + 0.2
                )
                assert pursuit_capture_possible(p, heading, bigger_R)
                assert pursuit_capture_possible(p, heading, bigger_r)

    def test_scan_resolution_convergence(self, grid):
        # Halving the step changes no classification away from the boundary.
        rng = np.random.default_rng(5)
        for _ in range(200):
            mu = rng.uniform(0.3, 2.0)
            threat = PursuerThreat(
                Point2(0, 0), mu=mu, engagement_range=1.0, capture_radius=0.25
            )
            xi = rng.uniform(-math.pi, math.pi)
            side = 1.0 if rng.uniform() < 0.5 else -1.0
            d = rho(xi, threat) + side * max(1.1e-3, rng.uniform(0, 0.5))
            if d <= 1e-6:
                continue
            heading = rng.uniform(-math.pi, math.pi)
            p = pose_at(d, xi, heading, threat)
            grid(pursuit_steps=500)
            coarse = pursuit_capture_possible(p, heading, threat)
            grid(pursuit_steps=1000)
            assert coarse == pursuit_capture_possible(p, heading, threat)


class TestPursuitCertificate:
    def test_boundary_path_length_equals_range(self):
        for xi in np.linspace(-math.pi, math.pi, 17):
            d = rho(float(xi), FAST) * (1 - 1e-7)
            cert = pursuit_capture_certificate(pose_at(d, float(xi), 0.3, FAST), 0.3, FAST)
            assert cert is not None
            _, path = cert
            assert path == pytest.approx(FAST.engagement_range, abs=1e-5)

    def test_inside_capture_disk_is_time_zero(self):
        cert = pursuit_capture_certificate(Point2(0.1, 0.0), 0.0, FAST)
        assert cert == (0.0, 0.0)

    def test_empty_when_impossible(self):
        assert pursuit_capture_certificate(Point2(-3.0, 0), 0.0, FAST) is None

    def test_touch_and_go_has_zero_range_rate(self):
        # On the grazing arc the separation rate vanishes at capture.
        xc = xi_crossover(SLOW)
        xi_max = math.pi - math.acos(1 / SLOW.mu)
        for xi in np.linspace(xc + 0.05, xi_max - 0.05, 5):
            d = rho(float(xi), SLOW) * (1 - 1e-9)
            p = pose_at(d, float(xi), 0.0, SLOW)
            cert = pursuit_capture_certificate(p, 0.0, SLOW)
            assert cert is not None
            t_cap, _ = cert
            h = 1e-4

            def sep(t):
                ax = p.x + SLOW.mu * t * math.cos(0.0)
                ay = p.y
                return math.hypot(ax, ay) - t  # distance minus pursuer reach

            rate = (sep(t_cap + h) - sep(t_cap - h)) / (2 * h)
            assert abs(rate) <= 1e-3


class TestTurretNeutralization:
    def test_crossing_the_held_beam(self):
        threat = TurretThreat(Point2(0, 0), look_angle=math.pi / 2, mu=1.5, engagement_range=1.0)
        assert turret_neutralization_possible(Point2(-0.3, 0.5), 0.0, threat)

    def test_path_outside_range_disk(self):
        threat = TurretThreat(Point2(0, 0), look_angle=0.0, mu=0.5, engagement_range=1.0)
        assert not turret_neutralization_possible(Point2(-3.0, 1.5), 0.0, threat)

    def test_boundary_offsets_classified(self):
        from threatnav.turret import sample_turret_boundary

        threat = TurretThreat(Point2(0, 0), look_angle=math.pi / 6, mu=0.5, engagement_range=1.0)
        samples = sample_turret_boundary(threat, 41)
        for prev, cur, nxt in zip(samples, samples[1:], samples[2:]):
            tx = nxt.a0.x - prev.a0.x
            ty = nxt.a0.y - prev.a0.y
            norm = math.hypot(tx, ty)
            if norm < 1e-12:
                continue
            nx, ny = ty / norm, -tx / norm  # outward: positive x-ish side
            if nx < 0:
                nx, ny = -nx, -ny
            inside = Point2(cur.a0.x - 1e-3 * nx, cur.a0.y - 1e-3 * ny)
            outside = Point2(cur.a0.x + 1e-3 * nx, cur.a0.y + 1e-3 * ny)
            assert turret_neutralization_possible(inside, 0.0, threat)
            assert not turret_neutralization_possible(outside, 0.0, threat)

    def test_coincident_rejected(self):
        threat = TurretThreat(Point2(0, 0), look_angle=0.0, mu=0.5, engagement_range=1.0)
        with pytest.raises(DomainError):
            turret_neutralization_possible(Point2(0, 0), 0.0, threat)


class TestWindowBetweenGridPoints:
    """Engagement windows narrower than one grid step: only the refinement of a grid maximum finds them."""

    COARSE = {"pursuit_steps": 8, "turret_step": 1.0}  # 8 and 64 grid steps

    @pytest.mark.parametrize("t_peak", [0.31, 0.5625, 0.81])
    def test_pursuit_window(self, grid, t_peak):
        # The agent runs along +x past a slow pursuer at the origin. The
        # capture slack t + r - |A(t)| peaks where the bearing's cosine is
        # 1/mu; place that at t_peak with a peak slack of 1e-4.
        mu, y0 = 1.5, 1.0
        u = y0 / math.sqrt(mu * mu - 1.0)
        x0, r = u - mu * t_peak, 1e-4 + mu * u - t_peak
        threat = PursuerThreat(Point2(0, 0), mu=mu, engagement_range=1.0, capture_radius=r)
        a0 = Point2(x0, y0)
        # The window's ends solve (t + r)^2 = (x0 + mu t)^2 + y0^2.
        qa, qb, qc = mu * mu - 1.0, 2.0 * (x0 * mu - r), x0 * x0 + y0 * y0 - r * r
        root = math.sqrt(qb * qb - 4.0 * qa * qc)
        lo, hi = (-qb - root) / (2.0 * qa), (-qb + root) / (2.0 * qa)
        assert math.floor(8 * lo) == math.floor(8 * hi)  # no grid point k/8 inside
        grid(**self.COARSE)
        assert pursuit_capture_possible(a0, 0.0, threat)
        t_cap, path = pursuit_capture_certificate(a0, 0.0, threat)
        assert lo - 1e-9 <= t_cap <= hi and path == t_cap
        grid()
        assert t_cap == pytest.approx(pursuit_capture_certificate(a0, 0.0, threat)[0], abs=1e-9)

    @pytest.mark.parametrize("y0", [0.1, -0.1])
    def test_turret_window(self, grid, y0):
        # A fast agent crosses just in front of a turret looking back at
        # it. Its bearing turns faster than the beam near the closest
        # approach, so the margin t - separation peaks at 1e-6 where the
        # bearing rate is 1, falls, and the agent leaves range before the
        # beam could catch up.
        v, R = 10.0, 2.5
        x_peak = -math.sqrt(v * abs(y0) - y0 * y0)
        x0 = x_peak - v * (math.atan2(abs(y0), -x_peak) + 1e-6)
        threat = TurretThreat(Point2(0, 0), look_angle=math.pi, mu=v, engagement_range=R)
        a0 = Point2(x0, y0)
        # The coarse grid spans the time in range; the margin is below 0 on all of it.
        ts = np.linspace(0.0, (math.sqrt(R * R - y0 * y0) - x0) / v, 65)
        sep = np.abs(np.remainder(-np.arctan2(y0, x0 + v * ts), 2.0 * math.pi) - math.pi)
        assert np.all(ts - sep < 0.0)
        grid(**self.COARSE)
        assert turret_neutralization_possible(a0, 0.0, threat)
        grid()
        assert turret_neutralization_possible(a0, 0.0, threat)


TURRET = TurretThreat(Point2(0, 0), look_angle=0.0, mu=0.5, engagement_range=1.0)
CELLS_PER_BLOCK = oracle._BLOCK // (oracle._CELL + 3)  # cells per fine-pass block


class TestEngageable:
    """``engageable`` is the oracle over a block of poses: the frozen one-pose scan's verdicts, pose by pose."""

    @pytest.mark.parametrize("mu", verification._MUS)
    def test_pursuer_blocks_match_one_pose_calls(self, mu):
        threat = PursuerThreat(Point2(0.3, -0.2), mu=mu, engagement_range=1.0, capture_radius=0.25)
        rng = np.random.default_rng(11)
        n = 3 * CELLS_PER_BLOCK + 7  # on every mu, more open cells than two fine-pass blocks hold
        xi, headings, scale = rng.uniform(-math.pi, math.pi, (3, n))
        points = []
        for x, h, u in zip(xi.tolist(), headings.tolist(), scale.tolist()):
            p = pose_at(rho(x, threat) * (1.0 + 0.3 * (u / math.pi)), x, h, threat)
            points.append((p.x, p.y))
        points = np.array(points)
        got = threat.engageable(points, headings)
        poses = [(Point2(*p), h) for p, h in zip(points.tolist(), headings.tolist())]
        want = [ref.pursuit_capture_possible(p, h, threat) for p, h in poses]
        assert got.dtype == bool and got.tolist() == want
        assert [pursuit_capture_possible(p, h, threat) for p, h in poses] == want
        assert 0 < sum(want) < n

    @pytest.mark.parametrize("look", verification._LOOKS)
    def test_turret_blocks_match_one_pose_calls(self, look):
        threat = TurretThreat(Point2(0.1, 0.2), look_angle=look, mu=0.5, engagement_range=1.0)
        rng = np.random.default_rng(12)
        points = threat.position.as_tuple() + rng.uniform(-1.2, 1.2, (60, 2))
        headings = rng.uniform(-math.pi, math.pi, 60)
        got = threat.engageable(points, headings)
        poses = [(Point2(*p), h) for p, h in zip(points.tolist(), headings.tolist())]
        want = [ref.turret_neutralization_possible(p, h, threat) for p, h in poses]
        assert got.dtype == bool and got.tolist() == want
        assert [turret_neutralization_possible(p, h, threat) for p, h in poses] == want
        assert 0 < sum(want) < 60

    @pytest.mark.parametrize("threat", [FAST, TURRET])
    def test_no_poses(self, threat):
        got = threat.engageable(np.zeros((0, 2)), np.zeros(0))
        assert got.shape == (0,) and got.dtype == bool

    @pytest.mark.parametrize(
        "threat, text", [(FAST, "agent exactly at the pursuer position"), (TURRET, "agent exactly at the turret position")]
    )
    def test_pose_on_the_threat(self, threat, text):
        with pytest.raises(DomainError) as err:
            threat.engageable(np.array([[1.0, 1.0], [0.0, 0.0]]), np.zeros(2))
        assert str(err.value) == text

    def test_pose_that_overflows_the_in_range_quadratic(self):
        threat = TurretThreat(Point2(0, 0), look_angle=0.3, mu=0.5, engagement_range=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as err:
                threat.engageable(np.array([[0.5, 0.0], [1e200, 0.0]]), np.array([0.0, 3.0]))
            assert str(err.value) == "agent at (1e+200, 0.0) overflows the oracle's in-range quadratic"
            # 1e150 squares to 1e300: still a verdict, out of range here and in range of a huge turret
            assert threat.engageable(np.array([[1e150, 0.0]]), np.array([3.0])).tolist() == [False]
            huge = TurretThreat(Point2(0, 0), look_angle=0.3, mu=1.0, engagement_range=2e150)
            assert huge.engageable(np.array([[1e150, 0.0]]), np.array([3.0])).tolist() == [True]

    def test_reads_no_closed_form(self, monkeypatch):
        def closed_form(*args, **kwargs):
            raise AssertionError("the oracle called a closed form")

        monkeypatch.setattr(pursuit, "_rho", closed_form)
        monkeypatch.setattr(turret, "_threshold", closed_form)
        for kind in (PursuerThreat, TurretThreat):
            monkeypatch.setattr(kind, "clearance", closed_form)
            monkeypatch.setattr(kind, "clearance_and_gradient", closed_form)
        held_beam = TurretThreat(Point2(0, 0), look_angle=math.pi / 2, mu=1.5, engagement_range=1.0)
        points, headings = np.array([[0.2, 0.1], [-3.0, 0.0]]), np.array([2.0, 0.0])
        assert FAST.engageable(points, headings).tolist() == [True, False]
        points = np.array([[-0.3, 0.5], [-3.0, 1.5]])
        assert held_beam.engageable(points, np.zeros(2)).tolist() == [True, False]


CELL = oracle._CELL
EDGE = 64 * CELL  # a coarse time far into the grid
FINE_STEP = 2.5e-5  # turret grids of up to 80,001 times


def turret_grid(point, heading, threat):
    """A pose's whole turret grid."""
    poses = oracle._poses(np.array([point]), np.array([heading]), threat.position, "turret")
    (_, t_lo, t_hi, n, _), _ = oracle._turret_grids(poses, threat)
    return oracle._grid_times(t_lo[0], t_hi[0], n[0], np.arange(n[0] + 1))


def recorded_times(monkeypatch, factory):
    """The times of each call of the margins ``oracle.<factory>`` makes from here on, in call order."""
    calls = []
    make = getattr(oracle, factory)

    def recording_factory(threat):
        inner = make(threat)

        def recorded(poses, t):
            calls.append(np.array(t, copy=True))
            return inner(poses, t)

        return recorded

    monkeypatch.setattr(oracle, factory, recording_factory)
    return calls


@pytest.fixture
def evaluated(monkeypatch):
    """The times of each turret margin call from here on, in call order."""
    return recorded_times(monkeypatch, "_turret_margin")


class TestChunkedTurretScan:
    """Each turret grid is read at every ``_CELL``-th time, then fine-scanned in the cells the bound leaves open.

    Here on a 4x finer grid.
    """

    @pytest.fixture(autouse=True)
    def fine(self, grid):
        grid(turret_step=FINE_STEP)

    def test_windows_match_the_frozen_scan_across_chunks(self, monkeypatch):
        rng = np.random.default_rng(31)
        threat = TurretThreat(Point2(0.1, -0.2), look_angle=2.0, mu=0.5, engagement_range=1.0)
        radius = np.sqrt(rng.uniform(size=200))  # inside range
        bearing, headings = rng.uniform(-math.pi, math.pi, (2, 200))
        points = threat.position.as_tuple() + radius[:, None] * np.c_[np.cos(bearing), np.sin(bearing)]
        refined, refine = [], oracle._refine

        def recording_refine(margin, poses, k, lo, hi):
            refined.extend(k.tolist())
            return refine(margin, poses, k, lo, hi)

        monkeypatch.setattr(oracle, "_refine", recording_refine)
        got = oracle.turret_windows(points, headings, threat)
        late_hits = misses = 0
        for pose, ((x, y), h, window) in enumerate(zip(points.tolist(), headings.tolist(), got)):
            want = ref.turret_window(Point2(x, y), h, threat, FINE_STEP)
            ts = turret_grid((x, y), h, threat)
            grid_hit = window is not None and window[1] in ts
            if window is None or grid_hit:
                assert window == want
            else:  # refined: the frozen scan's golden-section point differs within the same bracket
                assert want is not None and window[0] == want[0]
            assert not (grid_hit and pose in refined)  # a grid hit in any cell spares the pose's maxima
            if len(ts) > 3 * CELL:
                late_hits += window is not None and window[1] > ts[CELL]  # past the first coarse cell
                misses += window is None
        assert late_hits >= 20 and misses >= 20, (late_hits, misses)

    @pytest.mark.parametrize("i", [EDGE - 2, EDGE - 1, EDGE, EDGE + 1, EDGE + 2, EDGE + 3, 2 * EDGE - 4])
    def test_first_hit_near_a_chunk_boundary(self, evaluated, i):
        # Running straight away from the turret the bearing stays 0, so the
        # margin t - |look| climbs at 1, the bound's rate with no miss
        # distance, and first reaches 0 at the first grid time >= look: put
        # look between grid times i - 1 and i.
        point, heading = (0.01, 0.0), 0.0
        ts = turret_grid(point, heading, TURRET)
        threat = TurretThreat(Point2(0, 0), look_angle=0.5 * (ts[i - 1] + ts[i]), mu=0.5, engagement_range=1.0)
        (window,) = oracle.turret_windows(np.array([point]), np.array([heading]), threat)
        assert window == (ts[i - 1], ts[i]) == ref.turret_window(Point2(*point), heading, threat, FINE_STEP)
        # The coarse pass reads every CELL-th time and the last. The fine pass
        # reads the cell holding the hit, with a time on either side, and the
        # cell before it only if that cell ends within two steps of the hit:
        # the bound reaches two steps past a cell's ends.
        coarse, fine = evaluated
        n = len(ts) - 1
        assert coarse.ravel().tolist() == ts[np.r_[0:n:CELL, n]].tolist()
        holding = (i - 1) // CELL
        cells = [holding - 1, holding] if i - holding * CELL <= 2 else [holding]
        assert fine.ravel().tolist() == np.concatenate([ts[c * CELL - 1 : (c + 1) * CELL + 2] for c in cells]).tolist()

    @pytest.mark.parametrize("i", [EDGE - 1, EDGE, EDGE + 1])  # the last time a cell claims, a coarse time, the next
    def test_maximum_beside_a_cell_edge_is_refined(self, i):
        # An agent crossing in front of the turret at speed 10: the margin
        # peaks where the bearing turns at the beam's rate 1. Start it so
        # the peak sits about 0.3 steps past grid time i, and aim the beam so the
        # peak margin is 1e-11: every grid time is below 0 and only the
        # refinement of the maximum at i finds the window. Its bracket runs
        # one step either side of i, across the coarse time EDGE.
        v, R, x0 = 10.0, 2.5, 0.1
        y_peak = math.sqrt(v * x0 - x0 * x0)  # where the bearing rate v x0 / (x0^2 + y^2) is 1
        reach = math.sqrt(R * R - x0 * x0)
        step = FINE_STEP * R  # the grid step as a distance along the track

        def steps_to_peak(y0):  # the grid has ceil(distance in range / step) steps from t = 0
            return (y0 - y_peak) / ((reach + y0) / math.ceil((reach + y0) / step))

        starts = y_peak + (i + 0.3 + np.linspace(-2.0, 2.0, 401)) * step
        y0 = float(min(starts, key=lambda y0: abs(steps_to_peak(y0) - (i + 0.3))))
        t_peak = (y0 - y_peak) / v
        look = math.atan2(-y_peak, x0) - t_peak + 1e-11
        threat = TurretThreat(Point2(0, 0), look_angle=look, mu=v, engagement_range=R)
        point, heading = (x0, -y0), math.pi / 2
        ts = turret_grid(point, heading, threat)
        poses = oracle._poses(np.array([point]), np.array([heading]), threat.position, "turret")
        m = oracle._turret_margin(threat)(poses, ts[:, None])[:, 0]
        assert m.max() < 0.0 and np.flatnonzero((m[1:-1] >= m[:-2]) & (m[1:-1] >= m[2:])).tolist() == [i - 1]
        (window,) = oracle.turret_windows(np.array([point]), np.array([heading]), threat)
        assert window[0] == ts[i - 1] and ts[i] < window[1] < ts[i + 1]
        assert ref.turret_window(Point2(*point), heading, threat, FINE_STEP)[0] == ts[i - 1]


def test_windows_match_the_frozen_scan_on_every_kind_of_chord(monkeypatch):
    # Chords through the turret (heading 0 on its axis: no miss distance,
    # the bearing flips at it and the bound's rate there is infinite), tangent chords, passes
    # within 1e-6 R of the turret and random chords, with mu and R from
    # 0.1 to 10, at the default grid. Each verdict is the frozen scan's,
    # and so is each window, but for a refined one's best point.
    refined, refine = [], oracle._refine

    def recording_refine(margin, poses, k, lo, hi):
        refined.extend(k.tolist())
        return refine(margin, poses, k, lo, hi)

    monkeypatch.setattr(oracle, "_refine", recording_refine)
    rng = np.random.default_rng(71)
    kinds = {"through": slice(0, 10), "tangent": slice(10, 20), "near": slice(20, 30), "random": slice(30, 40)}
    engaged = dict.fromkeys(kinds, 0)
    found_by_refining = 0
    for _ in range(12):
        R, mu = 10.0 ** rng.uniform(-1.0, 1.0, 2)
        threat = TurretThreat(Point2(*rng.uniform(-2, 2, 2)), look_angle=rng.uniform(-4, 4), mu=mu, engagement_range=R)
        headings = rng.uniform(-math.pi, math.pi, 40)
        back = R * rng.uniform(0.0, 2.0, (40, 1))  # how far before its closest approach each pose starts
        offset = R * rng.uniform(-1.0, 1.0, (40, 1))
        headings[kinds["through"]] = 0.0
        u = np.c_[np.cos(headings), np.sin(headings)]
        normal = np.c_[-u[:, 1], u[:, 0]]
        offset[kinds["through"]] = 0.0
        back[kinds["through"]] += R * 1e-3  # never on the turret
        offset[kinds["tangent"]] = R * (1.0 - rng.uniform(0.0, 1e-12, (10, 1))) * rng.choice([-1.0, 1.0], (10, 1))
        offset[kinds["near"]] = R * rng.uniform(-1e-6, 1e-6, (10, 1))
        points = threat.position.as_tuple() - back * u + offset * normal
        refined.clear()
        got = oracle.turret_windows(points, headings, threat)
        assert threat.engageable(points, headings).tolist() == [w is not None for w in got]
        for pose, ((x, y), h, window) in enumerate(zip(points.tolist(), headings.tolist(), got)):
            want = ref.turret_window(Point2(x, y), h, threat)
            if window is not None and window[1] not in turret_grid((x, y), h, threat):
                assert want is not None and window[0] == want[0] and pose in refined
                found_by_refining += 1
            else:
                assert window == want
        for kind, rows in kinds.items():
            engaged[kind] += sum(w is not None for w in got[rows])
    assert all(0 < count < 120 for count in engaged.values()) and found_by_refining, (engaged, found_by_refining)


def test_a_clear_pose_is_fine_scanned_on_few_of_its_times(evaluated):
    # Passing 1e-3 R behind a turret that looks away, the agent is never
    # within pi/2 of the beam and leaves range by t = 1. Its bearing turns
    # at up to mu / 1e-3 R, but only near its closest approach: the cells
    # away from it are clear by the bound's least distance, so the fine
    # pass reads under a quarter of the grid.
    threat = TurretThreat(Point2(0, 0), look_angle=0.0, mu=2.0, engagement_range=1.0)
    point, heading = (-1e-3, -0.999), math.pi / 2
    assert oracle.turret_windows(np.array([point]), np.array([heading]), threat) == [None]
    assert ref.turret_window(Point2(*point), heading, threat) is None
    coarse, *fine = evaluated
    grid_times = len(turret_grid(point, heading, threat))
    assert grid_times > 19_000 and 0 < sum(t.size for t in fine) < grid_times / 4


def test_a_pose_with_two_windows_keeps_the_first(evaluated):
    # The agent crosses the turret's initial look line 0.1 out at t = 0.05,
    # so the margin is >= 0 for about 0.01 there, inside one cell. Its
    # bearing then runs ahead of the beam until about t = 1.5, and from
    # there the beam can meet it until it leaves range. The fine pass reads
    # the cell of each window's first hit in one block, the later cell just
    # before the first coarse hit; the window is the first one.
    threat = TurretThreat(Point2(0, 0), look_angle=math.pi / 2, mu=1.0, engagement_range=3.0)
    point, heading = (-0.05, 0.1), 0.0
    (window,) = oracle.turret_windows(np.array([point]), np.array([heading]), threat)
    assert window == ref.turret_window(Point2(*point), heading, threat) and 0.045 < window[0] < window[1] < 0.046
    coarse, *fine = evaluated
    assert [t.shape for t in fine] == [(2, CELL + 3)] and fine[0][0, 1] < window[0] and 1.4 < fine[0][1, 1] < 1.5


def test_pursuit_windows_match_the_frozen_scan(monkeypatch):
    # Poses from 1e-8 to 0.3 ranges off the boundary on either side, with mu
    # from both regimes, at the default grid. Each window is the frozen
    # scan's, and so is each refined one's bracket start. Just inside a slow
    # pursuer's touch-and-go arc the window is shorter than a grid step,
    # so only the refinement of a grid maximum finds it.
    refined, refine = [], oracle._refine

    def recording_refine(margin, poses, k, lo, hi):
        refined.extend(k.tolist())
        return refine(margin, poses, k, lo, hi)

    monkeypatch.setattr(oracle, "_refine", recording_refine)
    rng = np.random.default_rng(81)
    engaged, found_by_refining = {False: 0, True: 0}, 0  # by regime: is the pursuer slower than the agent?
    for slow in [False, True] * 5:
        mu = rng.uniform(1.1, 2.5) if slow else rng.uniform(0.3, 1.0)
        R = rng.uniform(0.3, 2.0)
        r = rng.uniform(0.05, 0.6) * R
        threat = PursuerThreat(Point2(*rng.uniform(-1, 1, 2)), mu=mu, engagement_range=R, capture_radius=r)
        xi, headings = rng.uniform(-math.pi, math.pi, (2, 40))
        offsets = rng.choice([-1.0, 1.0], 40) * 10.0 ** rng.uniform(-8.0, -0.5, 40) * R
        points = np.array([pose_at(rho(x, threat) + o, x, h, threat).as_tuple()
                           for x, h, o in zip(xi.tolist(), headings.tolist(), offsets.tolist())])
        refined.clear()
        got = oracle.pursuit_windows(points, headings, threat)
        ts = np.linspace(0.0, R, oracle._PURSUIT_STEPS + 1)
        for pose, ((x, y), h, window) in enumerate(zip(points.tolist(), headings.tolist(), got)):
            want = ref.pursuit_window(Point2(x, y), h, threat)
            if window is not None and window[1] not in ts:
                assert want is not None and window[0] == want[0] and pose in refined
                found_by_refining += 1
            else:
                assert window == want
        engaged[slow] += sum(w is not None for w in got)
    assert all(0 < count < 200 for count in engaged.values()) and found_by_refining, (engaged, found_by_refining)


def test_a_pursuer_pose_outside_the_zone_is_fine_scanned_on_few_of_its_times(monkeypatch):
    # Crossing abeam of a fast pursuer, each agent stays out of reach: its
    # slack rises on every cell, to -0.28 at the pursuer's last time 1.8
    # ranges out, and to -0.016 1.35 ranges out. A cell whose successor
    # rises cannot fall toward its right end, so its tent peaks there. The
    # near pose's last cell rises no faster than the cell before it, at
    # 0.95 against 1 + mu = 1.7, so with two steps' padding its bound is
    # -0.0095 (the rate 1 + mu alone would give +0.029): every cell is
    # clear, and the scan reads only the 9 coarse times, one column that
    # serves both poses, against 1,001 grid times per pose.
    calls = recorded_times(monkeypatch, "_pursuit_slack")
    points, headings = np.array([[-1.0, 1.5], [-0.5, 1.25]]), np.zeros(2)
    assert FAST.engageable(points, headings).tolist() == [False, False]
    assert [ref.pursuit_window(Point2(*p), 0.0, FAST) for p in points.tolist()] == [None, None]
    ts = np.linspace(0.0, FAST.engagement_range, oracle._PURSUIT_STEPS + 1)
    (coarse,) = calls
    assert coarse.shape == (9, 1) and coarse[:, 0].tolist() == ts[np.r_[0:1000:CELL, 1000]].tolist()


@pytest.mark.parametrize("mu", [0.7, 1.5])
def test_a_near_boundary_pursuer_pose_is_fine_scanned_on_at_most_two_cells(monkeypatch, mu):
    # Poses 1e-6 R outside the zone at 41 aspect angles. The slack of a
    # fast pursuer's pose rises all its life and peaks just below 0 at
    # its last time; a slow pursuer's may peak inside a cell. Either way
    # the tent leaves at most the two cells around the peak open for the
    # fine pass; the rate 1 + mu alone would leave up to 3 (mu = 0.7) and
    # 7 (mu = 1.5).
    calls = recorded_times(monkeypatch, "_pursuit_slack")
    threat = PursuerThreat(Point2(0, 0), mu=mu, engagement_range=1.0, capture_radius=0.25)
    heading, most = 0.3, 0
    for xi in np.linspace(-3.1, 3.1, 41).tolist():
        point = pose_at(rho(xi, threat) + 1e-6, xi, heading, threat)
        calls.clear()
        assert not pursuit_capture_possible(point, heading, threat)
        coarse, *rest = calls  # the fine pass, then any refinement
        most = max(most, sum(len(t) for t in rest if t.shape[1] == CELL + 3))
    assert most == (1 if mu < 1.0 else 2)


def test_pursuit_windows_are_the_reference_scans_and_near_misses_stay_open(monkeypatch):
    # Seeded poses within 1e-4 R of the boundary on either side, in both
    # regimes, each scanned alone. Every window is the frozen scan's, but
    # for a refined one's best point. For a pose without one, every grid
    # time where the slack is within a step's climb of 0, at least
    # -(1 + mu) h, lies in a fine-scanned cell, so the scan sees every
    # maximum it may refine. Just outside a slow pursuer's touch-and-go
    # arc the slack peaks inside a coarse cell just below 0: the tent,
    # which peaks above it, keeps that cell open.
    slack_of = oracle._pursuit_slack
    calls = recorded_times(monkeypatch, "_pursuit_slack")
    rng = np.random.default_rng(91)
    inside_a_cell = 0
    for slow in [False, True] * 3:
        mu = rng.uniform(1.1, 2.5) if slow else rng.uniform(0.3, 1.0)
        R = rng.uniform(0.3, 2.0)
        r = rng.uniform(0.05, 0.6) * R
        threat = PursuerThreat(Point2(*rng.uniform(-1, 1, 2)), mu=mu, engagement_range=R, capture_radius=r)
        ts = np.linspace(0.0, R, oracle._PURSUIT_STEPS + 1)
        reach = -(1.0 + mu) * (R / oracle._PURSUIT_STEPS)
        for _ in range(30):
            xi, heading = rng.uniform(-math.pi, math.pi, 2).tolist()
            offset = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9.0, -4.0) * R
            point = pose_at(rho(xi, threat) + offset, xi, heading, threat)
            poses = oracle._poses(np.array([point.as_tuple()]), np.array([heading]), threat.position, "pursuer")
            calls.clear()
            (window,) = oracle.pursuit_windows(np.array([point.as_tuple()]), np.array([heading]), threat)
            want = ref.pursuit_window(point, heading, threat)
            if window is not None and window[1] not in ts:
                assert want is not None and window[0] == want[0]
            else:
                assert window == want
            if window is None:
                slack = slack_of(threat)(poses, ts[None, :])[0]
                scanned = np.concatenate([t.ravel() for t in calls[1:] if t.shape[1] == CELL + 3] or [np.empty(0)])
                assert np.isin(ts[slack >= reach], scanned).all()
                peak = int(slack.argmax())
                inside_a_cell += peak % CELL != 0 and peak < oracle._PURSUIT_STEPS and slack[peak] >= reach
    assert inside_a_cell >= 10, inside_a_cell


def test_a_grid_of_step_zero_through_a_tiny_turret_warns_nothing():
    # A turret of range 1e-20 a thousandth of a unit ahead: the in-range
    # times round to one time, so the grid's step is 0, and there the agent
    # is on the turret, so the climb is infinite. The cell bound and the
    # refinement rule read infinity times 0 as "open" and "nothing to
    # refine", without a warning.
    tiny = TurretThreat(Point2(0, 0), look_angle=math.pi, mu=1.0, engagement_range=1e-20)
    points, headings = np.array([[-1e-3, 0.0]]), np.zeros(1)
    (_, t_lo, t_hi, _, _), rates = oracle._turret_grids(oracle._poses(points, headings, tiny.position, "turret"), tiny)
    assert t_lo.tolist() == t_hi.tolist() == [1e-3]
    assert np.isinf(rates(slice(0, 1), np.full((2, 1), 1e-3), np.zeros((2, 1)), np.zeros(1))).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tiny.engageable(points, headings).tolist() == [False]
    assert ref.turret_window(Point2(-1e-3, 0.0), 0.0, tiny) is None


def test_far_poses_wide_of_the_turret_are_not_engageable():
    # 1.5 and 5 ranges wide of the turret, from 1e8 and 1e10 ranges away:
    # never in range, as the clearance says.
    threat = TurretThreat(Point2(0, 0), look_angle=0.0, mu=0.3, engagement_range=1.0)
    points, headings = np.array([[-1e8, 1.5], [-1e10, 5.0]]), np.zeros(2)
    assert threat.engageable(points, headings).tolist() == [False, False]
    assert threat.clearance(points, headings).tolist() == [0.5, 4.0]
    assert [ref.turret_window(Point2(*p), 0.0, threat) for p in points.tolist()] == [None, None]


def straight_away_rates(ts, f, h):
    """The turret's cell rates on the cells ``ts`` of a pose running straight away from the turret: no miss distance."""
    poses = oracle._poses(np.array([[0.01, 0.0]]), np.zeros(1), TURRET.position, "turret")
    _, rates = oracle._turret_grids(poses, TURRET)
    return rates(slice(0, 1), ts, f, np.array([h]))


def pursuit_rates(ts, f, h):
    """A slow pursuer's cell rates: on a grid of one cell, 1 + mu for all three."""
    return oracle._pursuit_rates(SLOW)(slice(0, 1), ts, f, np.array([h]))


# the cell tests' rates and the rate L each gives: a turret's, and a lone pursuit cell's 1 + mu
RATES = [(straight_away_rates, 1.0), (pursuit_rates, 1.0 + SLOW.mu)]


def one_cell(f_a, f_b, h, rates, L):
    """``_clear_cells`` on one cell of CELL steps h from t = 1, on which ``rates`` gives the rate L for all three."""
    ts, f = np.array([[1.0], [1.0 + CELL * h]]), np.array([[f_a], [f_b]])
    climb, rise, fall = rates(ts, f, h)
    assert np.all(climb == L) and rise.tolist() == fall.tolist() == [[L]]
    return bool(oracle._clear_cells(f, ts, np.array([h]), climb, rise, fall)[0, 0])


def test_a_clear_cell_has_no_margin_near_zero_a_step_past_its_ends():
    # The refinement of a maximum at a cell's first time samples up to one
    # step before it. A margin of rate L that peaks at 0.5 L h there falls to
    # -0.5 L h at the cell's first time and to -(CELL + 0.5) L h at its last;
    # the cell stays open, and so does its mirror image. Two steps lower,
    # nothing within a step of the cell reaches 0, and it is clear.
    h = 2.0**-10
    for rates, L in RATES:
        near, far, low = -0.5 * L * h, -(CELL + 0.5) * L * h, 2.0 * L * h
        assert not one_cell(near, far, h, rates, L) and not one_cell(far, near, h, rates, L)
        assert one_cell(near - low, far - low, h, rates, L) and one_cell(far - low, near - low, h, rates, L)


def test_a_cell_bound_within_the_slack_of_zero_is_not_clear():
    # With both tent rates L the bound is the cell's mean margin plus
    # (CELL / 2 + 2) L h. A bound within the slack of 0 leaves room for the
    # margin's rounding, so the cell stays open; one further below is clear.
    h = 2.0**-10
    slack = oracle._SLACK * (1.0 + (1.0 + CELL * h))
    for rates, L in RATES:
        reach = (CELL / 2 + 2) * L * h
        assert not one_cell(-reach - 0.5 * slack, -reach - 0.5 * slack, h, rates, L)
        assert one_cell(-reach - 2.0 * slack, -reach - 2.0 * slack, h, rates, L)


def tent_cell(f_a, f_b, rise, fall, h=2.0**-10, L=2.5):
    """``_clear_cells`` on one cell of CELL steps h from t = 1 with the given tent rates, padded at the rate L."""
    ts, f = np.array([[1.0], [1.0 + CELL * h]]), np.array([[f_a], [f_b]])
    full = lambda rate: np.full((1, 1), rate)  # noqa: E731
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return bool(oracle._clear_cells(f, ts, np.array([h]), full(L), full(rise), full(fall))[0, 0])


def test_a_tent_bound_within_the_slack_of_zero_is_not_clear():
    # Rising at most at 2 from its left end and falling at most at 0.5
    # toward its right end, a cell of width w = CELL h with equal ends f
    # peaks at f + 2 w / (1 + 2 / 0.5) = f + 0.4 w, where the two lines
    # meet; with the padding 2 L h the bound is f + (0.4 CELL + 2 L) h.
    # Within the slack of 0 the cell stays open; further below it is clear,
    # though with both rates L, whose tent peaks (CELL / 2) L h above f,
    # it would be open.
    h, L = 2.0**-10, 2.5
    slack = oracle._SLACK * (1.0 + (1.0 + CELL * h))
    reach = (0.4 * CELL + 2.0 * L) * h
    for rise, fall in [(2.0, 0.5), (0.5, 2.0)]:
        assert not tent_cell(-reach - 0.5 * slack, -reach - 0.5 * slack, rise, fall)
        assert tent_cell(-reach - 2.0 * slack, -reach - 2.0 * slack, rise, fall)
    assert not tent_cell(-reach - 2.0 * slack, -reach - 2.0 * slack, L, L)


def test_a_tent_with_a_rate_of_zero_is_bounded_by_that_end():
    # A cell that cannot rise from its left end is bounded by that end, one
    # that cannot fall toward its right end by the right end, each plus the
    # padding 2 L h, however far below the other end sits. With both rates
    # 0 the tent has no peak, and the cell stays open, without a warning.
    h, L = 2.0**-10, 2.5
    slack = oracle._SLACK * (1.0 + (1.0 + CELL * h))
    pad = 2.0 * L * h
    for f_a, f_b, rise, fall in [(-pad, -10.0, 0.0, L), (-10.0, -pad, L, 0.0)]:
        assert not tent_cell(f_a + slack, f_b + slack, rise, fall)
        assert tent_cell(f_a - 2.0 * slack, f_b - 2.0 * slack, rise, fall)
    assert not tent_cell(-10.0, -10.0, 0.0, 0.0)


def test_pursuit_tent_rates_are_the_neighbouring_secants_floored_at_zero():
    # Per pose, a column: a cell rises at most as its predecessor's secant
    # and falls at most as its successor's falls, neither below 0; L = 1 + mu
    # stands in past the grid's ends, and a secant of one pose never reaches
    # into the next pose's cells. One column of times serves both poses.
    ts = np.array([[0.0], [0.5], [1.0], [1.25]])
    f = np.array([[-3.0, -2.0, -1.75, -2.0], [-1.0, -1.25, -1.0, 0.0]]).T  # secants [2, 0.5, -1] and [-0.5, 0.5, 4]
    climb, rise, fall = oracle._pursuit_rates(SLOW)(slice(0, 2), ts, f, 0.25)
    L = 1.0 + SLOW.mu
    assert climb == L
    assert rise.T.tolist() == [[L, 2.0, 0.5], [L, 0.0, 0.5]]
    assert fall.T.tolist() == [[0.0, 1.0, L], [0.0, 0.0, L]]


def test_separation_is_the_remainder_bit_for_bit():
    rng = np.random.default_rng(41)
    two_pi = 2.0 * math.pi
    # the turret's arguments lie in (-pi, 3 pi]; the rewrite holds on [-2 pi, 4 pi)
    edges = [-math.pi, -0.0, 0.0, math.nextafter(two_pi, 0.0), two_pi, 3.0 * math.pi]
    edges += [-two_pi, math.nextafter(2.0 * two_pi, 0.0)]
    x = np.concatenate([edges, rng.uniform(-math.pi, 3.0 * math.pi, 100_000), -math.pi + rng.uniform(0.0, 1e-12, 100)])
    want = np.abs(np.remainder(x, two_pi) - math.pi)
    assert np.array_equal(oracle._separation(x).view(np.int64), want.view(np.int64))


def grid_lengths(points, headings, threat):
    """Times in each turret pose's whole grid, by pose."""
    (rows, _, _, n, _), _ = oracle._turret_grids(oracle._poses(points, headings, threat.position, "turret"), threat)
    return dict(zip(rows.tolist(), (n + 1).tolist()))


def test_turret_grids_hold_65_to_20002_times():
    # A chord of the range disk lasts at most 2 R / mu, so at the fixed step of
    # 1e-4 R / mu a grid has at most 20,001 steps (20,000 but for rounding), and
    # the 64-step floor binds on short chords.
    rng = np.random.default_rng(51)
    lengths = []
    for _ in range(10):
        R, mu = 10.0 ** rng.uniform(-1.0, 1.0, 2)
        threat = TurretThreat(Point2(*rng.uniform(-2, 2, 2)), look_angle=rng.uniform(-4, 4), mu=mu, engagement_range=R)
        headings = rng.uniform(-math.pi, math.pi, 300)
        u = np.c_[np.cos(headings), np.sin(headings)]
        normal = np.c_[-u[:, 1], u[:, 0]]
        back = R * rng.uniform(0.0, 3.0, (300, 1))  # how far before its closest approach each pose starts
        offset = R * rng.uniform(-1.0, 1.0, (300, 1))  # random chords, some missing the disk
        offset[:100] = R * (1.0 - rng.uniform(0.0, 1e-12, (100, 1))) * rng.choice([-1.0, 1.0], (100, 1))  # tangent
        offset[100:200] = 0.0  # through the turret
        back[100:200] += R * 1e-3  # never on it
        points = threat.position.as_tuple() - back * u + offset * normal
        lengths.extend(grid_lengths(points, headings, threat).values())
    assert min(lengths) == 65 and 20_001 <= max(lengths) <= 20_002, (min(lengths), max(lengths))


def test_far_turret_grids_stop_at_the_cap():
    # Aimed at the turret from far away, the in-range times round to the
    # floats near 1e10 / 0.3 and beyond, so the chord of 2 / 0.3 comes out
    # 6.6666718 at 1e10, 6.625 at 3e14 and 6.0 at 3e15: grids of 20,002,
    # 19,876 and 18,001 times. At 1e16 it rounds up to 12.0, and the grid
    # stops at the cap of 20,002 times; at 1e150 it rounds away to 0 and
    # the grid has the 64-step floor. Each agent, in range after a very
    # long time, can be met.
    threat = TurretThreat(Point2(0, 0), look_angle=0.0, mu=0.3, engagement_range=1.0)
    points = np.array([[-1e10, 0.0], [-3e14, 0.0], [-3e15, 0.0], [-1e16, 0.0], [-1e150, 0.0]])
    headings = np.zeros(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert grid_lengths(points, headings, threat) == {0: 20_002, 1: 19_876, 2: 18_001, 3: 20_002, 4: 65}
        assert threat.engageable(points, headings).tolist() == [True] * 5


def test_grid_slices_are_linspace_bit_for_bit():
    # _grid_times reads any times of many grids at once, each row as
    # np.linspace builds it; here every time of each grid, with the rows
    # padded by repeating their last time.
    rng = np.random.default_rng(61)
    tiny = 5e-324  # a span whose step underflows to 0: numpy's other path
    bounds = [(0.0, 1.0), (0.0, 0.0), (2.5, 2.5), (0.0, tiny), (1e-310, 1e-310 + 3 * tiny), (3.0, 3.0 + 1e-15)]
    bounds += [(0.0, 1e150), (1e10, 1e10 + 7.0)] + [tuple(np.sort(10.0 ** rng.uniform(-6, 6, 2))) for _ in range(12)]
    lo, hi = (np.array(column) for column in zip(*bounds))
    counts = [64, 65, CELL - 1, CELL, CELL + 1, 2 * CELL, 20_001] + rng.integers(64, 20_002, 6).tolist()
    for n in counts:
        # bounds mixed across rows: each count sees both of linspace's paths in one call
        steps = np.full(len(bounds), n) - rng.integers(0, 3, len(bounds))
        k = np.minimum(np.arange(n + 1), steps[:, None])
        got = oracle._grid_times(lo[:, None], hi[:, None], steps[:, None], k)
        for row, (a, b, m) in enumerate(zip(lo.tolist(), hi.tolist(), steps.tolist())):
            whole = np.linspace(a, b, m + 1)
            assert np.array_equal(got[row, : m + 1].view(np.int64), whole.view(np.int64)), (a, b, m)
            assert np.all(got[row, m:] == b)  # the padding repeats the grid's last time


def test_refinement_levels_match_sixty_golden_section_steps():
    # Each level keeps 2 of the 63 gaps of its bracket; 60 golden-section steps,
    # the frozen reference scan's, shrink one to phi^-60. _LEVELS is the
    # fewest levels that shrink it at least as far.
    keep, golden = 2.0 / (len(oracle._SPREAD) - 1), ((1.0 + math.sqrt(5.0)) / 2.0) ** -60
    assert keep**oracle._LEVELS <= golden < keep ** (oracle._LEVELS - 1)


def test_no_pursuit_polish_starts_below_the_rise_bound(monkeypatch):
    # The slack t + r - |A(t) - P| is concave in t, so on the bracket of a
    # grid maximum f it stays below 2 f - min(f_left, f_right): a maximum
    # whose bound is below -_SLACK (1 + R) cannot reach 0 and is never
    # refined. Poses 1e-9 to 1e-5 ranges outside a slow pursuer's zone, whose
    # slack peaks between its grid's ends just below 0, still refine some;
    # others have maxima the rate rule f >= -(1 + mu) h would refine.
    refined, refine = [], oracle._refine

    def recording_refine(margin, poses, k, lo, hi):
        refined.append((margin, poses[:, k], lo))
        return refine(margin, poses, k, lo, hi)

    monkeypatch.setattr(oracle, "_refine", recording_refine)
    rng = np.random.default_rng(93)
    bounds, skipped = [], 0
    for mu in (1.2, 1.5, 2.0):
        threat = PursuerThreat(Point2(0, 0), mu=mu, engagement_range=1.0, capture_radius=0.25)
        ts = np.linspace(0.0, threat.engagement_range, oracle._PURSUIT_STEPS + 1)
        h, floor = ts[1], -oracle._SLACK * (1.0 + threat.engagement_range)
        xi, headings = rng.uniform(-math.pi, math.pi, (2, 200))
        offsets = 10.0 ** rng.uniform(-9.0, -5.0, 200)
        points = np.array([pose_at(rho(x, threat) + o, x, hd, threat).as_tuple()
                           for x, hd, o in zip(xi.tolist(), headings.tolist(), offsets.tolist())])
        refined.clear()
        windows = oracle.pursuit_windows(points, headings, threat)
        for margin, poses, lo in refined:
            c = np.searchsorted(ts, lo) + 1  # each bracket is the two grid steps around its maximum
            f = margin(poses[:, :, None], ts[c[:, None] + np.arange(-1, 2)])
            assert np.all((f[:, 1] >= f[:, 0]) & (f[:, 1] >= f[:, 2]))
            bounds.extend((2.0 * f[:, 1] - np.minimum(f[:, 0], f[:, 2]) - floor).tolist())
        poses = oracle._poses(points, headings, threat.position, "pursuer")
        slack = oracle._pursuit_slack(threat)(poses[:, :, None], ts)
        inner, left, right = slack[:, 1:-1], slack[:, :-2], slack[:, 2:]
        rate_rule = (inner >= left) & (inner >= right) & (inner >= -(1.0 + mu) * h)
        concave_rule = rate_rule & (2.0 * inner - np.minimum(left, right) >= floor)
        skipped += sum(rate_rule[j].any() and not concave_rule[j].any() for j, w in enumerate(windows) if w is None)
    assert bounds and min(bounds) >= 0.0  # some maxima were refined, each with the bound at least the floor
    assert skipped >= 10, skipped


def test_concave_bound_covers_the_bracket_of_a_grid_maximum():
    # On a concave f the secant through (t, f(t)) and (t + h, f(t + h)),
    # extended left, lies above f on [t - h, t], and the one through t - h
    # and t lies above it on [t, t + h]: on [t - h, t + h] f stays below
    # 2 f(t) - min(f(t - h), f(t + h)). By hand: f = 1 - (t - 3/8)^2 at
    # t = 0, 1/2, 1 is (55/64, 63/64, 39/64), a bound of 87/64 over the
    # peak 1 at 3/8; the right secant, extended to 0, reaches it.
    top = oracle._concave_top(np.array([63 / 64]), np.array([55 / 64]), np.array([39 / 64]))
    assert top.tolist() == [87 / 64]
    rng = np.random.default_rng(95)
    for _ in range(200):
        a, t_peak, h = rng.uniform(0.1, 10.0), rng.uniform(-1.0, 1.0), rng.uniform(1e-3, 0.5)
        f = lambda t: -a * (t - t_peak) ** 2  # noqa: E731
        t = t_peak + rng.uniform(-0.5, 0.5) * h  # a grid maximum: the peak lies within half a step
        top = oracle._concave_top(np.array([f(t)]), np.array([f(t - h)]), np.array([f(t + h)]))[0]
        assert f(np.linspace(t - h, t + h, 1001)).max() <= top + 1e-12


@pytest.mark.parametrize("R", [1e-3, 0.71, 1.0, 3.7, 1e3])
def test_shared_pursuit_row_is_every_pose_grid_bit_for_bit(R):
    # Every pursuit pose has the grid linspace(0, R, steps + 1): the one row
    # the scan builds per call gives the times _grid_times gives each grid.
    rows, t_lo, t_hi, n, times = oracle._pursuit_grids(3, R)
    assert rows.tolist() == [0, 1, 2] and (t_lo, t_hi, n) == (0.0, R, oracle._PURSUIT_STEPS)
    k = np.arange(n + 1)
    want = oracle._grid_times(np.zeros((3, 1)), np.full((3, 1), R), np.full((3, 1), n), np.tile(k, (3, 1)))
    got = times(rows[:, None], np.tile(k, (3, 1)))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    coarse = np.minimum(np.arange(9)[:, None] * CELL, n)  # the coarse pass's one column of indices
    assert np.array_equal(times(slice(0, 3), coarse)[:, 0].view(np.int64), want[0, coarse[:, 0]].view(np.int64))


def test_coarse_grid_verdicts_match_the_golden_section_scan(monkeypatch, grid):
    # On a coarse grid many windows fall between grid points, so the
    # refinement decides many verdicts; each must be the frozen
    # golden-section scan's on the same grid.
    decided = []  # per zone kind: verdicts the reference's polish decided
    golden_max = ref._golden_max

    def recording_golden_max(f, lo, hi, iters):
        t, f_t = golden_max(f, lo, hi, iters)
        if f_t >= 0.0:  # the scan stops here: a window between grid points
            decided[-1] += 1
        return t, f_t

    monkeypatch.setattr(ref, "_golden_max", recording_golden_max)
    grid(**TestWindowBetweenGridPoints.COARSE)
    rng = np.random.default_rng(21)
    decided.append(0)
    for _ in range(10):
        mu, R = rng.uniform(0.3, 2.5), rng.uniform(0.3, 2.0)
        r = rng.uniform(0.0, 0.6) * R
        threat = PursuerThreat(Point2(*rng.uniform(-1, 1, 2)), mu=mu, engagement_range=R, capture_radius=r)
        xi, headings = rng.uniform(-math.pi, math.pi, (2, 200))
        offsets = rng.choice([-1.0, 1.0], 200) * 10.0 ** rng.uniform(-4.0, -0.5, 200) * R
        poses = [(pose_at(max(rho(x, threat) + o, 1e-3), x, h, threat), h)
                 for x, h, o in zip(xi.tolist(), headings.tolist(), offsets.tolist())]
        points = np.array([p.as_tuple() for p, _ in poses])
        got = oracle.pursuit_capture_possible_batch(points, headings, threat)
        assert got.tolist() == [ref.pursuit_capture_possible(p, h, threat, steps=8) for p, h in poses]
    decided.append(0)
    for _ in range(10):
        mu, R = rng.uniform(0.5, 8.0), rng.uniform(0.5, 2.0)
        threat = TurretThreat(Point2(*rng.uniform(-1, 1, 2)), look_angle=rng.uniform(-4, 4), mu=mu, engagement_range=R)
        # near the turret a fast agent's bearing outruns the beam: short windows
        radius = 0.4 * R * np.sqrt(rng.uniform(size=200))
        bearing, headings = rng.uniform(-math.pi, math.pi, (2, 200))
        points = threat.position.as_tuple() + radius[:, None] * np.c_[np.cos(bearing), np.sin(bearing)]
        got = oracle.turret_neutralization_possible_batch(points, headings, threat)
        want = [ref.turret_neutralization_possible(Point2(*p), h, threat, step_fraction=1.0)
                for p, h in zip(points.tolist(), headings.tolist())]
        assert got.tolist() == want
    assert min(decided) >= 20, decided


def test_refinement_memory_is_bounded(monkeypatch):
    # Running straight away from a pursuer as fast as it is, 1e-10 outside
    # the capture radius, the slack is flat 1e-10 below 0, well within the
    # concave bound's floor: hundreds of grid maxima per pose, all refined,
    # none reaching 0.
    threat = PursuerThreat(Point2(0, 0), mu=1.0, engagement_range=1.0, capture_radius=0.25)
    headings = np.linspace(-3.0, 3.0, 8)
    points = (0.25 + 1e-10) * np.c_[np.cos(headings), np.sin(headings)]
    sizes, refined = [], []
    slack, refine = oracle._pursuit_slack, oracle._refine

    def recording_slack(threat):
        margin = slack(threat)

        def recorded(poses, t):
            m = margin(poses, t)
            sizes.append(m.size)
            return m

        return recorded

    def recording_refine(margin, poses, k, lo, hi):
        refined.append(len(k))
        return refine(margin, poses, k, lo, hi)

    monkeypatch.setattr(oracle, "_pursuit_slack", recording_slack)
    monkeypatch.setattr(oracle, "_refine", recording_refine)
    assert threat.engageable(points, headings).tolist() == [False] * 8
    assert sum(refined) > 2 * oracle._BLOCK // len(oracle._SPREAD)  # more than two chunks of maxima
    assert len(sizes) > 1 + 9 * 2  # the grid scan, then nine levels over more than two chunks
    assert max(sizes) <= oracle._BLOCK


def near_boundary(rng, boundary, R):
    """``boundary`` moved 1e-9 to 1e-1 ranges off it, to either side."""
    return boundary + rng.choice([-1.0, 1.0], len(boundary)) * 10.0 ** rng.uniform(-9.0, -1.0, len(boundary)) * R


def batched(windows, points, headings, threat, size):
    """``windows`` of the poses in calls of ``size`` poses each."""
    calls = (windows(points[i : i + size], headings[i : i + size], threat) for i in range(0, len(headings), size))
    return [w for call in calls for w in call]


def test_windows_do_not_hang_on_how_poses_are_batched(monkeypatch):
    # Seeded near-boundary poses of both kinds give the same windows in one
    # call, in calls of 10 poses (the verify sweep's) and one pose per call.
    # The turret poses run along x through chords of many lengths: one call
    # holds more of their grids than one coarse block does. The
    # far pursuit poses have no open cell: one margin call reads their
    # coarse times, and there is no fine pass.
    rng = np.random.default_rng(97)
    for mu in (0.7, 1.0, 1.5):
        threat = PursuerThreat(Point2(0.1, -0.2), mu=mu, engagement_range=1.0, capture_radius=0.25)
        xi, headings = rng.uniform(-math.pi, math.pi, (2, 120))
        dist = np.maximum(near_boundary(rng, rho_batch(xi, threat), 1.0), 1e-6)
        angle = headings - xi + math.pi
        points = threat.position.as_tuple() + np.c_[dist * np.cos(angle), dist * np.sin(angle)]
        whole = oracle.pursuit_windows(points, headings, threat)
        assert 0 < sum(w is not None for w in whole) < 120
        for size in (10, 1):
            assert batched(oracle.pursuit_windows, points, headings, threat, size) == whole
    threat = TurretThreat(Point2(0.0, 0.0), look_angle=2.0, mu=0.5, engagement_range=1.0)
    y = rng.uniform(-0.999, 0.999, 700)
    headings = np.zeros(700)
    x = near_boundary(rng, boundary_threshold_batch(y, threat, headings), 1.0)
    points = np.c_[x, y]
    poses = oracle._poses(points, headings, threat.position, "turret")
    (rows, _, _, n, _), _ = oracle._turret_grids(poses, threat)
    assert len(rows) > oracle._BLOCK // ((int(n.max()) - 1) // CELL + 2) and n.min() < n.max()
    whole = oracle.turret_windows(points, headings, threat)
    assert 0 < sum(w is not None for w in whole) < 700
    for size in (10, 1):
        assert batched(oracle.turret_windows, points, headings, threat, size) == whole
    calls = recorded_times(monkeypatch, "_pursuit_slack")
    bearing, headings = rng.uniform(-math.pi, math.pi, (2, 40))
    far = 0.25 + (1.0 + FAST.mu) * FAST.engagement_range + rng.uniform(0.1, 2.0, 40)  # beyond any reach
    points = far[:, None] * np.c_[np.cos(bearing), np.sin(bearing)]
    for size in (40, 10, 1):
        calls.clear()
        assert batched(oracle.pursuit_windows, points, headings, FAST, size) == [None] * 40
        assert [t.shape for t in calls] == [(9, 1)] * (40 // size)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_one_pose_oracles_name_a_non_finite_heading(bad):
    for call in (
        lambda: pursuit_capture_possible(Point2(1.0, 1.0), bad, FAST),
        lambda: pursuit_capture_certificate(Point2(1.0, 1.0), bad, FAST),
        lambda: turret_neutralization_possible(Point2(1.0, 1.0), bad, TURRET),
    ):
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == f"angle must be finite, got {bad}"
