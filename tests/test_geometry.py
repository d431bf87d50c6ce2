import dataclasses
import json
import math

import numpy as np
import pytest

from seblab import io
from seblab.errors import DimensionMismatch, ValidationError
from seblab.geometry import Instance, UnitQuadratic
from seblab.numrange import QuadraticMap, eval_map


def target_of(center, radius):
    """The quadratic that `io` parses from an instance file's target ball."""
    center = np.asarray(center, dtype=float)
    doc = {"dimension": center.size,
           "balls": [{"center": [0.0] * center.size, "radius": 1.0}],
           "target": {"center": center.tolist(), "radius": radius}}
    return io.parse_instance(doc)[1]


def evaluate(q, x):
    """q(x), as the one-ball map of target q reads its component."""
    qm = QuadraticMap(centers=q.a[None, :], rho=[q.rho], target=q)
    return float(eval_map(qm, x)[1])


def test_ball_to_quadratic_examples():
    q = target_of([0.0, 1.0], 2.0)
    assert isinstance(q, UnitQuadratic)
    assert np.array_equal(q.a, [0.0, 1.0]) and q.rho == 4.0

    q = target_of([1.0, 1.0], math.sqrt(2.0))
    assert np.array_equal(q.a, [1.0, 1.0])
    assert q.rho == pytest.approx(2.0, rel=1e-15)

    q = target_of(np.zeros(4), 1.0)
    assert np.array_equal(q.a, np.zeros(4)) and q.rho == 1.0


def test_round_trip_is_identity(rng):
    for _ in range(50):
        n = rng.integers(1, 8)
        center, radius = rng.standard_normal(n) * 10, rng.uniform(0.1, 20)
        q = target_of(center, radius)
        # the ball back from its quadratic: center a, radius sqrt(rho)
        assert np.array_equal(q.a, center)
        assert math.sqrt(q.rho) == pytest.approx(radius, rel=1e-15)


def test_eval_quadratic_examples():
    q = UnitQuadratic(a=[1.0, 1.0], rho=2.0)
    assert evaluate(q, [1.0, 0.0]) == -1.0

    q2 = UnitQuadratic(a=[3.0, -2.0], rho=12.3)
    assert evaluate(q2, [3.0, -2.0]) == -12.3

    q3 = UnitQuadratic(a=[0.0, 1.0], rho=1.0)
    assert evaluate(q3, [0.0, 1.0]) == -1.0


def test_sublevel_set_matches_ball(rng):
    center, radius = rng.standard_normal(3) * 5, rng.uniform(0.5, 3)
    q = target_of(center, radius)
    for _ in range(200):
        x = rng.standard_normal(3) * 6
        band = 1e-10 * (1.0 + float(x @ x))
        val = evaluate(q, x)
        if abs(val) <= band:
            continue  # boundary band, either verdict acceptable
        inside = float(np.dot(x - center, x - center)) <= radius**2
        assert (val < 0) == inside


def test_validation_rejects_bad_input():
    with pytest.raises(ValidationError):
        target_of([0.0, 0.0], 0.0)
    with pytest.raises(ValidationError):
        target_of([np.nan, 0.0], 1.0)
    with pytest.raises(ValidationError):
        Instance.from_data(np.zeros((0, 2)), [])
    with pytest.raises(ValidationError):
        UnitQuadratic(a=[0.0, 0.0], rho=np.inf)
    # finite balls whose squares overflow: radii, or centers far apart
    for centers, radii in (([[1e200, 0.0], [-1e200, 0.0]], [1.5e200] * 2),
                           ([[1e300, 0.0], [-1e300, 0.0]], [1.0, 1.0]),
                           ([[0.0, 0.0]], [1e160])):
        with pytest.raises(ValidationError, match="overflow"):
            Instance.from_data(centers, radii)


def test_types_are_immutable():
    q = target_of([1.0, 2.0], 1.0)
    with pytest.raises(ValueError):
        q.a[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.rho = 2.0
    inst = Instance.from_data([q.a], [1.0])
    assert inst.m == 1
    assert inst.scale() >= 1.0


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
