import math
import warnings

import pytest
from hypothesis import given, strategies as st

from threatnav.circumnav import CircumnavSpec, percent_difference
from threatnav.errors import DomainError
from threatnav.geometry import (
    Point2,
    angular_separation,
    aspect_angle,
    bearing,
    distance,
    wrap_angle,
)
from threatnav.planner import AgentConfig, PlannerOptions
from threatnav.pursuit import PursuerThreat
from threatnav.trajectory import Trajectory
from threatnav.turret import TurretThreat

finite_angles = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_wrap_angle_identity():
    assert wrap_angle(0.0) == 0.0


def test_wrap_angle_periodicity():
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi, abs=1e-15)
    assert wrap_angle(-3 * math.pi / 2) == pytest.approx(math.pi / 2, abs=1e-15)


def test_wrap_angle_upper_endpoint_closed():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi


def test_wrap_angle_rejects_nonfinite():
    with pytest.raises(DomainError):
        wrap_angle(float("nan"))
    with pytest.raises(DomainError):
        wrap_angle(float("inf"))


@given(finite_angles)
def test_wrap_angle_idempotent_and_in_range(a):
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi
    assert wrap_angle(w) == w  # exact idempotence


@given(finite_angles)
def test_wrap_angle_preserves_direction(a):
    w = wrap_angle(a)
    k = (a - w) / (2 * math.pi)
    assert abs(k - round(k)) < 1e-6


def test_distance_cases():
    assert distance(Point2(0, 0), Point2(3, 4)) == 5.0
    assert distance(Point2(1, 1), Point2(1, 1)) == 0.0
    assert distance(Point2(-2, 0), Point2(2, 0)) == 4.0


@given(
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=6, max_size=6)
)
def test_distance_triangle_inequality(vals):
    a, b, c = Point2(vals[0], vals[1]), Point2(vals[2], vals[3]), Point2(vals[4], vals[5])
    assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


def test_aspect_angle_head_on_and_tail():
    threat = Point2(0, 0)
    assert aspect_angle(Point2(-1, 0), 0.0, threat) == 0.0
    assert aspect_angle(Point2(-1, 0), math.pi, threat) == math.pi


def test_aspect_angle_sign_convention():
    # Threat to the agent's left gives a negative aspect angle.
    assert aspect_angle(Point2(0, -1), 0.0, Point2(0, 0)) == pytest.approx(-math.pi / 2)


def test_aspect_angle_coincident_rejected():
    with pytest.raises(DomainError):
        aspect_angle(Point2(1, 1), 0.0, Point2(1, 1))


@given(
    st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
    st.floats(min_value=0.01, max_value=3.0, allow_nan=False),
)
def test_aspect_angle_antisymmetric_about_line_of_sight(delta, d):
    agent = Point2(-d, 0.0)
    threat = Point2(0.0, 0.0)
    los = bearing(agent, threat)
    plus = aspect_angle(agent, los + delta, threat)
    minus = aspect_angle(agent, los - delta, threat)
    assert plus == pytest.approx(-minus, abs=1e-12) or (
        abs(abs(plus) - math.pi) < 1e-9 and abs(abs(minus) - math.pi) < 1e-9
    )


def test_angular_separation_range():
    assert angular_separation(0.1, -0.1) == pytest.approx(0.2)
    assert angular_separation(math.pi, -math.pi) == 0.0
    assert angular_separation(0.0, math.pi) == pytest.approx(math.pi)


def test_point_rejects_nonfinite():
    with pytest.raises(DomainError):
        Point2(float("nan"), 0.0)


# Every float a model accepts, as (id, build from the value, name in the error, sign rule).
_O = Point2(0.0, 0.0)
FLOAT_FIELDS = [
    ("AgentConfig.speed", lambda v: AgentConfig(_O, Point2(1.0, 0.0), speed=v), "agent speed", "positive"),
    ("PursuerThreat.mu", lambda v: PursuerThreat(_O, mu=v, engagement_range=1.0), "mu", "positive"),
    ("PursuerThreat.engagement_range", lambda v: PursuerThreat(_O, mu=0.8, engagement_range=v),
     "engagement_range", "positive"),
    ("PursuerThreat.capture_radius", lambda v: PursuerThreat(_O, mu=0.8, engagement_range=1.0, capture_radius=v),
     "capture_radius", "nonnegative"),
    ("TurretThreat.mu", lambda v: TurretThreat(_O, look_angle=0.0, mu=v, engagement_range=1.0), "mu", "positive"),
    ("TurretThreat.engagement_range", lambda v: TurretThreat(_O, look_angle=0.0, mu=0.5, engagement_range=v),
     "engagement_range", "positive"),
    ("TurretThreat.look_angle", lambda v: TurretThreat(_O, look_angle=v, mu=0.5, engagement_range=1.0),
     "look_angle", ""),
    ("PlannerOptions.constraint_tolerance", lambda v: PlannerOptions(constraint_tolerance=v),
     "constraint_tolerance", "positive"),
    ("PlannerOptions.opt_tolerance", lambda v: PlannerOptions(opt_tolerance=v), "opt_tolerance", "positive"),
    ("CircumnavSpec.radius", lambda v: CircumnavSpec("Reach", v), "circumnavigation radius", "positive"),
    ("Trajectory.speed", lambda v: Trajectory([0.0, 1.0], [[0.0, 0.0], [1.0, 0.0]], [0.0], speed=v), "speed",
     "positive"),
    ("percent_difference", lambda v: percent_difference(7.0, v), "baseline time", "positive"),
]
_OUT_OF_RANGE = {"positive": (0.0, -1.0), "nonnegative": (-0.5,), "": ()}


@pytest.mark.parametrize(
    "build, name, sign, value",
    [
        pytest.param(build, name, sign, value, id=f"{field}-{value}")
        for field, build, name, sign in FLOAT_FIELDS
        for value in (math.nan, math.inf, -math.inf, *_OUT_OF_RANGE[sign])
    ],
)
def test_every_float_field_names_a_rejected_value(build, name, sign, value):
    rule = f"{sign} and finite" if sign else "finite"
    with pytest.raises(DomainError) as err:
        build(value)
    assert isinstance(err.value, ValueError)
    assert str(err.value) == f"{name} must be {rule}, got {value}"


@pytest.mark.parametrize("speed", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_from_polyline_checks_speed_before_dividing(speed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a division by the speed would warn first
        with pytest.raises(DomainError) as err:
            Trajectory.from_polyline([[0.0, 0.0], [1.0, 0.0]], speed)
    assert str(err.value) == f"speed must be positive and finite, got {speed}"
