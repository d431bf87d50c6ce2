import json
import math

import numpy as np
import pytest

from seblab import geometry, io
from seblab.errors import DimensionMismatch, ValidationError
from seblab.geometry import (
    Ball,
    Instance,
    UnitQuadratic,
    ball_to_quadratic,
    eval_quadratic,
)


def test_ball_to_quadratic_examples():
    q = ball_to_quadratic(Ball(center=[0.0, 1.0], radius=2.0))
    assert np.array_equal(q.a, [0.0, 1.0]) and q.rho == 4.0

    q = ball_to_quadratic(Ball(center=[1.0, 1.0], radius=math.sqrt(2.0)))
    assert np.array_equal(q.a, [1.0, 1.0])
    assert q.rho == pytest.approx(2.0, rel=1e-15)

    q = ball_to_quadratic(Ball(center=np.zeros(4), radius=1.0))
    assert np.array_equal(q.a, np.zeros(4)) and q.rho == 1.0


def test_round_trip_is_identity(rng):
    for _ in range(50):
        n = rng.integers(1, 8)
        b = Ball(center=rng.standard_normal(n) * 10, radius=rng.uniform(0.1, 20))
        q = ball_to_quadratic(b)
        # the ball back from its quadratic: center a, radius sqrt(rho)
        assert np.array_equal(q.a, b.center)
        assert math.sqrt(q.rho) == pytest.approx(b.radius, rel=1e-15)


def test_eval_quadratic_examples():
    q = UnitQuadratic(a=[1.0, 1.0], rho=2.0)
    assert eval_quadratic(q, [1.0, 0.0]) == -1.0

    q2 = UnitQuadratic(a=[3.0, -2.0], rho=12.3)
    assert eval_quadratic(q2, [3.0, -2.0]) == -12.3

    q3 = UnitQuadratic(a=[0.0, 1.0], rho=1.0)
    assert eval_quadratic(q3, [0.0, 1.0]) == -1.0


@pytest.mark.parametrize("t", [0.0, 1e4, 1e8])
def test_quadratic_values_moved_far(rng, t):
    # the squares are expanded about a center, not about the origin, so
    # moving points and centers together changes the values by rounding at
    # the scale of their distances, not of t^2
    X = rng.uniform(-2.0, 2.0, (40, 3))
    centers = rng.uniform(-2.0, 2.0, (5, 3))
    rho = rng.uniform(0.5, 2.0, 5)
    got = geometry.quadratic_values(X + t, centers + t, rho)
    D = X[:, None, :] - centers[None, :, :]
    want = np.einsum("ijk,ijk->ij", D, D) - rho
    assert got.shape == (40, 5)
    assert np.abs(got - want).max() <= 1e-12 + 1e3 * np.spacing(t)


def test_eval_quadratic_dimension_mismatch():
    q = UnitQuadratic(a=[1.0, 1.0], rho=2.0)
    with pytest.raises(DimensionMismatch):
        eval_quadratic(q, [1.0, 0.0, 0.0])


def test_sublevel_set_matches_ball(rng):
    b = Ball(center=rng.standard_normal(3) * 5, radius=rng.uniform(0.5, 3))
    q = ball_to_quadratic(b)
    for _ in range(200):
        x = rng.standard_normal(3) * 6
        band = 1e-10 * (1.0 + float(x @ x))
        val = eval_quadratic(q, x)
        if abs(val) <= band:
            continue  # boundary band, either verdict acceptable
        inside = float(np.dot(x - b.center, x - b.center)) <= b.radius**2
        assert (val < 0) == inside


def test_validation_rejects_bad_input():
    with pytest.raises(ValidationError):
        Ball(center=[0.0, 0.0], radius=0.0)
    with pytest.raises(ValidationError):
        Ball(center=[np.nan, 0.0], radius=1.0)
    with pytest.raises(ValidationError):
        Instance.from_data(np.zeros((0, 2)), [])
    with pytest.raises(ValidationError):
        UnitQuadratic(a=[0.0, 0.0], rho=np.inf)


def test_types_are_immutable():
    b = Ball(center=[1.0, 2.0], radius=1.0)
    with pytest.raises(ValueError):
        b.center[0] = 0.0
    inst = Instance.from_data([b.center], [b.radius])
    assert inst.m == 1
    assert inst.scale() >= 1.0


def test_from_data_builds_no_ball(monkeypatch):
    made = []
    post_init = Ball.__post_init__

    def counting(self):
        made.append(1)
        post_init(self)

    monkeypatch.setattr(geometry.Ball, "__post_init__", counting)
    inst = Instance.from_data(np.ones((50, 3)), np.full(50, 2.0))
    inst.centers_matrix(), inst.radii(), inst.scale()
    assert made == []


def test_accessors_are_read_only_and_stored():
    inst = Instance.from_data([[1.0, 2.0], [3.0, -1.0]], [1.0, 2.5])
    for accessor in (inst.centers_matrix, inst.radii):
        arr = accessor()
        assert arr is accessor()
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # max |a_i - o|^2 + r_i^2 about the smallest ball o = (1, 2)
    assert inst.scale() == 13.0 + 6.25
    with pytest.raises(AttributeError):
        inst.dimension = 3


def test_from_data_copies_its_input():
    centers = np.zeros((2, 2))
    inst = Instance.from_data(centers, [1.0, 1.0])
    centers[0, 0] = 5.0
    assert inst.centers_matrix()[0, 0] == 0.0 and centers.flags.writeable


def _doc(centers, radii, dimension=2):
    return {"dimension": dimension,
            "balls": [{"center": c, "radius": r}
                      for c, r in zip(centers, radii)]}


@pytest.mark.parametrize("centers, radii, error", [
    ([[np.nan, 0.0], [1.0, 0.0]], [1.0, 1.0], ValidationError),
    ([[0.0, 0.0], [1.0, np.inf]], [1.0, 1.0], ValidationError),
    ([[0.0, 0.0], [1.0, 0.0]], [1.0, 0.0], ValidationError),
    ([[0.0, 0.0], [1.0, 0.0]], [-1.0, 1.0], ValidationError),
    ([[0.0, 0.0], [1.0, 0.0]], [1.0, np.nan], ValidationError),
    ([[0.0, 0.0], [1.0]], [1.0, 1.0], DimensionMismatch),
    ([], [], ValidationError),
])
def test_bad_input_same_error_everywhere(centers, radii, error):
    with pytest.raises(error):
        io.parse_instance(_doc(centers, radii))
    if error is not DimensionMismatch:  # ragged rows are no (m, n) array
        with pytest.raises(error):
            Instance.from_data(np.reshape(centers, (len(radii), 2)), radii)


def test_from_data_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        Instance.from_data([[0.0, 0.0], [1.0, 0.0]], [1.0])
    with pytest.raises(DimensionMismatch):
        Instance.from_data([[0.0, 0.0], [1.0, 0.0]], [[1.0], [1.0]])
    with pytest.raises(ValidationError):
        Instance.from_data([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValidationError):
        Instance.from_data(np.zeros((2, 0)), [1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        io.parse_instance(_doc([[0.0, 0.0, 1.0]], [1.0]))


def test_io_round_trip_is_bit_identical(rng):
    centers = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-8, 9, (7, 1))
    radii = rng.uniform(0.1, 5.0, 7) * math.pi
    inst = Instance.from_data(centers, radii)
    text = json.dumps(io.instance_to_doc(inst))
    back, _ = io.parse_instance(json.loads(text))
    assert back.centers_matrix().tobytes() == centers.tobytes()
    assert back.radii().tobytes() == radii.tobytes()
    assert json.dumps(io.instance_to_doc(back)) == text
