from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    example_map,
    lens_3d_instance,
    lens_instance,
    matrix_rank,
    random_rank_deficient_map,
    random_supported_instance,
    traced_peak_mb,
    unsupported_instance,
)
from seblab import numrange
from seblab.errors import DimensionMismatch, UnsupportedRegime, ValidationError
from seblab.geometry import Instance, UnitQuadratic
from seblab.linalg import numerical_rank
from seblab.numrange import (
    ConvexityReport,
    QuadraticMap,
    SeparationReport,
    convexity_probe,
    eval_map,
    in_pair_hull,
    in_range,
    sample_inputs,
    separation_probe,
)
from seblab.sampling import sample_intersection
from seblab.solver import Regime, solve_seb


def graph_transform_inv(y):
    """The value vector of graph coordinates (y_1..y_m, t):
    (-t, y_1 + t, ..., y_m + t)."""
    y = np.asarray(y, dtype=float)
    z0 = -y[-1]
    return np.concatenate([[z0], y[:-1] - z0])


class TestEvalMap:
    def test_reference_example_values(self):
        qm = example_map()
        assert np.array_equal(eval_map(qm, [1.0, 0.0]), [1.0, 1.0, -1.0])
        assert np.array_equal(eval_map(qm, [0.0, 1.0]), [1.0, -1.0, 1.0])
        # an (N, n) array gives one row per point
        assert np.array_equal(eval_map(qm, [[1.0, 0.0], [0.0, 1.0]]),
                              [[1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])
        assert eval_map(qm, np.empty((0, 2))).shape == (0, 3)

    def test_common_zero(self):
        # target and component agree: both vanish on the unit sphere
        q = UnitQuadratic(a=np.zeros(2), rho=1.0)
        qm = QuadraticMap(centers=np.zeros((1, 2)), rho=[1.0], target=q)
        assert np.allclose(eval_map(qm, [1.0, 0.0]), [0.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            eval_map(example_map(), [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("centers", [[1.0, 2.0], np.empty((0, 2))],
                             ids=["1-D", "empty"])
    def test_map_needs_a_matrix_of_centers(self, centers):
        with pytest.raises(ValidationError, match="centers"):
            QuadraticMap(centers=centers, rho=[1.0, 1.0],
                         target=UnitQuadratic(a=np.zeros(2), rho=1.0))

    @pytest.mark.parametrize("rho, target", [
        ([1.0], np.zeros(2)), ([1.0, 1.0, 1.0], np.zeros(2)),
        ([1.0, 1.0], np.zeros(3))], ids=["short rho", "long rho", "target"])
    def test_map_dimensions_must_agree(self, rho, target):
        with pytest.raises(DimensionMismatch):
            QuadraticMap(centers=np.eye(2), rho=rho,
                         target=UnitQuadratic(a=target, rho=1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_refused(self, bad):
        # a NaN point gave NaN values without an error, where `in_range`
        # and `jnr member` refuse non-finite input
        qm = example_map()
        with pytest.raises(ValidationError, match="finite"):
            eval_map(qm, [bad, 0.0])
        X = np.zeros((5, 2))
        X[3, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            eval_map(qm, X)


def exact_values(qm, x):
    """The map's values at the point x in exact rational arithmetic, from
    the vertex forms: (-(|x - a|^2 - rho), |x - c_i|^2 - rho_i, ...)."""
    x = [Fraction(v) for v in x]

    def g(center, rho):
        return sum((v - Fraction(c)) ** 2 for v, c in zip(x, center)) - (
            Fraction(rho))

    return [-g(qm.target.a, qm.target.rho)] + [
        g(c, r) for c, r in zip(qm.centers, qm.rho)]


def test_eval_map_is_accurate_on_moved_and_scaled_maps():
    # against exact rationals, each value is within 8 (n + 4) eps of the
    # sizes it is formed from: |y|^2 and |b_i|^2, y = x - a and
    # b_i = c_i - a (b_0 = 0 for the target), and the constants rho_i and
    # rho, which the offsets carry into every entry. The sizes are taken
    # about the target center, so a map moved by up to 1e8 of its own
    # length keeps that bound; values expanded about the origin miss it
    # by the square of the move.
    rng = np.random.default_rng(20261021)
    eps = np.finfo(float).eps
    for _ in range(60):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        shift = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(0, 8)
        s = 10.0 ** rng.uniform(-8, 8)
        qm = QuadraticMap(
            centers=s * (rng.standard_normal((m, n)) + shift),
            rho=s * s * rng.uniform(0.5, 2.0, m) ** 2,
            target=UnitQuadratic(a=s * (rng.standard_normal(n) + shift),
                                 rho=s * s * rng.uniform(0.5, 2.0) ** 2))
        X = s * (2.0 * rng.standard_normal((10, n)) + shift)
        got = eval_map(qm, X)
        B = np.vstack([np.zeros(n), qm.centers - qm.target.a])
        constants = np.abs(np.append(qm.target.rho, qm.rho)) + qm.target.rho
        for x, z in zip(X, got):
            y = x - qm.target.a
            bound = 8 * (n + 4) * eps * (
                y @ y + np.einsum("ij,ij->i", B, B) + constants)
            error = [abs(Fraction(v) - w) for v, w in
                     zip(z, exact_values(qm, x))]
            assert all(e <= b for e, b in zip(error, bound))
            # the fibre query's slacks are derived from that bound, so
            # every image reads member, and in the pair hull of a critical
            # map too
            assert in_range(qm, z).member
            if qm.regime() is Regime.CRITICAL:
                assert in_pair_hull(qm, z).member


@pytest.mark.parametrize("t", [0.0, 1e4, 1e8])
def test_eval_map_moved_far(rng, t):
    # the values are read about the target center, not about the origin,
    # so moving the points and the map together changes them by rounding
    # at the scale of their distances, not of t^2
    X = rng.uniform(-2.0, 2.0, (40, 3))
    centers = rng.uniform(-2.0, 2.0, (5, 3))
    rho = rng.uniform(0.5, 2.0, 5)
    a = rng.uniform(-2.0, 2.0, 3)
    qm = QuadraticMap(centers=centers + t, rho=rho,
                      target=UnitQuadratic(a=a + t, rho=1.5))
    got = eval_map(qm, X + t)
    D = X[:, None, :] - np.vstack([a, centers])[None, :, :]
    want = np.einsum("ijk,ijk->ij", D, D) - np.append(1.5, rho)
    want[:, 0] *= -1.0
    assert got.shape == (40, 6)
    assert np.abs(got - want).max() <= 1e-12 + 1e3 * np.spacing(t)


class TestGraphForm:
    """The map in graph coordinates: (y, t) = (A (x - a) + offsets, g(x))."""

    def test_example_map_data(self):
        qm = example_map()
        assert np.array_equal(qm.A, 2.0 * np.eye(2))
        # g_i(a) = 0 and g(a) = -2 at the target center a = (1, 1)
        assert np.array_equal(qm.offsets, [2.0, 2.0])
        assert qm.rank == 2 and qm.null.shape == (2, 0)
        assert np.allclose(qm.pinv, 0.5 * np.eye(2))
        # over the point fibres the target is y.y/4 - sum(y); at t = 0 the
        # pair-hull margin reads it
        for y, value in (([1.0, 1.0], -1.5), ([2.0, 0.0], -1.0)):
            margin = in_pair_hull(qm, graph_transform_inv(y + [0.0])).margin
            assert margin == pytest.approx(value, abs=1e-12)

    def test_consistency_with_target(self, rng):
        qm = example_map()
        for _ in range(100):
            x = rng.standard_normal(2) * 3
            z = eval_map(qm, x)
            y = z[1:] + z[0]
            assert np.allclose(qm.A @ (x - qm.target.a) + qm.offsets, y,
                               atol=1e-9 * (1 + np.abs(y).max()))
            # the fibre of G(x) is the point x, where the target is -z_0
            margin, slack, X = qm.fibre(z)
            assert np.allclose(X[0], x, atol=1e-9 * (1 + np.abs(x).max()))
            assert abs(margin[0]) <= slack[0]


def test_range_geometry_rank_is_shifted_rank():
    # the map's one rank, of A = -2(a_i - a), is the shifted rank of the
    # solver's rank rule, and the regime reads it
    rng = np.random.default_rng(20261018)
    for trial in range(60):
        n, m = (int(v) for v in rng.integers(2, 7, size=2))
        if trial % 2:
            qm = random_rank_deficient_map(rng, n=n, m=m)
            assert qm.rank < n and qm.regime() is Regime.CONVEX
        else:
            scale = 10.0 ** rng.uniform(-6, 6)
            centers = rng.standard_normal((m, n)) * scale
            qm = QuadraticMap(
                centers=centers, rho=np.zeros(m),
                target=UnitQuadratic(a=rng.standard_normal(n) * scale,
                                     rho=0.0))
            assert qm.rank == min(n, m)
        assert qm.rank == matrix_rank(
            qm.centers - qm.target.a,
            max(np.abs(qm.centers).max(), np.abs(qm.target.a).max()))
        assert qm.pinv.shape == (n, m) and qm.null.shape == (n, n - qm.rank)


class TestRangeMembership:
    def test_gap_point_not_in_range(self):
        verdict = in_range(example_map(), [1.0, 0.0, 0.0])
        assert not verdict.member

    def test_range_point_with_witness(self):
        verdict = in_range(example_map(), [1.0, 1.0, -1.0])
        assert verdict.member
        assert np.allclose(verdict.witness, [1.0, 0.0], atol=1e-8)

    def test_image_points_are_members(self, rng):
        qm = example_map()
        for _ in range(50):
            x = rng.standard_normal(2) * 4
            z = eval_map(qm, x)
            verdict = in_range(qm, z)
            assert verdict.member
            got = eval_map(qm, verdict.witness)
            assert np.linalg.norm(got - z) <= 1e-7 * (1 + np.linalg.norm(z))

    def test_rank_deficient_map_witnesses(self, rng):
        qm = random_rank_deficient_map(rng)
        for _ in range(50):
            x = rng.standard_normal(qm.dimension) * 3
            z = eval_map(qm, x)
            verdict = in_range(qm, z)
            assert verdict.member
            got = eval_map(qm, verdict.witness)
            assert np.linalg.norm(got - z) <= 1e-7 * (1 + np.linalg.norm(z))

    def test_agrees_with_dense_grid(self, rng):
        # independent brute-force check on the 2-D example map
        qm = example_map()
        axis = np.linspace(-3.0, 3.0, 301)
        gx, gy = np.meshgrid(axis, axis)
        X = np.stack([gx.ravel(), gy.ravel()], axis=1)
        G = eval_map(qm, X)
        # about half the draws land 0.02..0.3 from the grid and decide
        # nothing, so draw until 90 have been checked
        checked = 0
        for _ in range(1000):
            if checked >= 90:
                break
            x, y = rng.uniform(-2, 2, size=(2, 2))
            lam = rng.uniform()
            z = lam * eval_map(qm, x) + (1.0 - lam) * eval_map(qm, y)
            dist = float(np.linalg.norm(G - z, axis=1).min())
            member = in_range(qm, z).member
            if dist < 0.02:
                # grid found (a neighborhood of) a preimage
                if member:
                    checked += 1
                continue  # near-range non-members are below grid resolution
            if dist > 0.3:
                assert not member
                checked += 1
        assert checked >= 90

    def test_uniform_image_draws_and_shifts(self):
        # z = G(x) lies in the range by construction; on the example map,
        # whose fibres are single points, z moved along e_0 does not
        rng = np.random.default_rng(7)
        for qm in (example_map(), random_rank_deficient_map(rng)):
            for _ in range(100):
                z = eval_map(qm, rng.uniform(-2.0, 2.0, qm.dimension))
                verdict = in_range(qm, z)
                assert verdict.member
                error = np.linalg.norm(eval_map(qm, verdict.witness) - z)
                assert error <= 1e-9
        qm = example_map()
        for _ in range(100):
            z = eval_map(qm, rng.uniform(-2.0, 2.0, 2))
            for sign in (1.0, -1.0):
                shifted = z.copy()
                shifted[0] += sign * rng.uniform(0.05, 1.0)
                assert not in_range(qm, shifted).member


@pytest.mark.parametrize("delta", [1e-9, 1e-10, 1e-12])
def test_vectors_moved_off_the_range_are_refused(delta):
    # the slacks follow the rounding of the values, not a set tolerance:
    # a move of delta (scale + |level|) off the range shows, where a slack
    # of 1e-8 of it admitted every such move
    rng = np.random.default_rng(41)
    qm = example_map()
    # every fibre is a point: move the level of G(x) by d and hold the
    # graph coordinates y_i = z_i + z_0
    for x in rng.uniform(-2.0, 2.0, (200, 2)):
        z = eval_map(qm, x)
        d = rng.choice([-1.0, 1.0]) * delta * (qm.scale + abs(z[0]))
        moved = z.copy()
        moved[0] -= d
        moved[1:] += d
        assert not in_range(qm, moved).member
        if d < 0.0:
            # below the level of its point fibre, so outside the epigraph
            assert not in_pair_hull(qm, moved).member
    lens = lens_instance()
    qm = QuadraticMap.from_instance(lens, solve_seb(lens).target_quadratic())
    # A is rank 1 with 2 rows: move y_i along the unit normal of its columns,
    # which empties the fibre (the convex pair hull is the range)
    normal = np.linalg.svd(qm.A)[0][:, -1]
    for x in rng.uniform(-2.0, 2.0, (200, 2)):
        z = eval_map(qm, x)
        z[1:] += delta * (qm.scale + abs(z[0])) * normal
        assert not in_range(qm, z).member
        assert not in_pair_hull(qm, z).member


@pytest.mark.parametrize("member", [in_range, in_pair_hull])
@pytest.mark.parametrize("z", [[np.inf, -np.inf, 1.0], [np.nan, 1.0, 1.0],
                               [1.0, 0.0, -np.inf]])
def test_non_finite_value_vector_refused(member, z):
    # an infinite level once passed the level test, whose slack grew with
    # it to infinity, with a NaN witness
    lens = lens_instance()
    lens_map = QuadraticMap.from_instance(lens,
                                          solve_seb(lens).target_quadratic())
    for qm in (example_map(), lens_map):
        with pytest.raises(ValidationError, match="finite"):
            member(qm, z)


def scaled_example_map(s):
    """The example map with lengths multiplied by s: its values scale by
    s^2 and its range by s^2 too."""
    base = example_map()
    return QuadraticMap(
        centers=base.centers * s, rho=base.rho * s * s,
        target=UnitQuadratic(a=base.target.a * s,
                             rho=base.target.rho * s * s))


@pytest.mark.parametrize("s", [1e-8, 1e-5, 1e-3, 1.0, 1e4, 1e8])
def test_range_lab_scale_invariant(s):
    # the slacks and the sampling width follow a uniform scaling of the
    # map; an absolute floor accepted the gap point at s = 1e-5
    qm = scaled_example_map(s)
    assert qm.scale == pytest.approx(example_map().scale * s * s,
                                     rel=1e-12)
    gap = np.array([1.0, 0.0, 0.0]) * s * s
    assert not in_range(qm, gap).member
    assert in_pair_hull(qm, gap).member
    rng = np.random.default_rng(12)
    for x in rng.uniform(-2.0, 2.0, size=(50, 2)):
        z = eval_map(qm, s * x)
        verdict = in_range(qm, z)
        assert verdict.member
        assert np.linalg.norm(eval_map(qm, verdict.witness) - z) <= (
            1e-9 * s * s)
        shifted = z + np.array([rng.uniform(0.05, 1.0), 0.0, 0.0]) * s * s
        assert not in_range(qm, shifted).member
    report = convexity_probe(qm, 100, seed=1)
    assert len(report.counterexamples) > 0
    for _, _, _, z in report.counterexamples:
        assert not in_range(qm, z).member


@pytest.mark.parametrize("t", [0.0, 1e2, 1e4, 1e6, 1e8])
def test_range_lab_translation_invariant(t):
    # the map is held about its target center, so moving it by t e_0 moves
    # no value and no verdict; an absolute constant |a|^2 - r^2 swamped
    # r^2 from t = 1e4 on
    shift = np.array([t, 0.0])
    base = example_map()
    qm = QuadraticMap(centers=base.centers + shift, rho=base.rho,
                      target=UnitQuadratic(a=base.target.a + shift, rho=2.0))
    gap = [1.0, 0.0, 0.0]
    assert not in_range(qm, gap).member
    assert in_pair_hull(qm, gap).member
    # a witness near t e_0 is rounded to the spacing of t
    tol = 1e-9 + 1e3 * np.spacing(t)
    rng = np.random.default_rng(3)
    for x in rng.uniform(-2.0, 2.0, size=(50, 2)) + shift:
        z = eval_map(qm, x)
        assert np.allclose(z, eval_map(base, x - shift), rtol=0, atol=tol)
        verdict = in_range(qm, z)
        assert verdict.member
        assert np.linalg.norm(eval_map(qm, verdict.witness) - z) <= tol


@pytest.mark.parametrize("t", [0.0, 1e2, 1e4, 1e6, 1e8])
def test_moved_lens_map_accepts_its_images(t):
    lens = lens_instance()
    moved = Instance.from_data(lens.centers_matrix() + t, lens.radii())
    qm = QuadraticMap.from_instance(moved,
                                    solve_seb(moved).target_quadratic())
    tol = 1e-9 + 1e3 * np.spacing(t)
    rng = np.random.default_rng(3)
    for x in rng.uniform(-2.0, 2.0, size=(50, 2)) + t:
        z = eval_map(qm, x)
        verdict = in_range(qm, z)
        assert verdict.member
        assert np.linalg.norm(eval_map(qm, verdict.witness) - z) <= tol


class TestPairHullMembership:
    def test_gap_point_in_hull(self):
        verdict = in_pair_hull(example_map(), [1.0, 0.0, 0.0])
        assert verdict.member
        assert verdict.margin == pytest.approx(-0.5, abs=1e-12)

    def test_boundary_point(self):
        assert in_pair_hull(example_map(), [1.0, 1.0, -1.0]).member

    def test_above_graph_excluded(self):
        verdict = in_pair_hull(example_map(), [3.0, 1.0, -1.0])
        assert not verdict.member
        assert verdict.margin == pytest.approx(2.0, abs=1e-12)

    def test_range_subset_of_hull(self, rng):
        for qm in (example_map(), random_rank_deficient_map(rng)):
            for _ in range(30):
                x = rng.standard_normal(qm.dimension) * 3
                z = eval_map(qm, x)
                assert in_range(qm, z).member
                assert in_pair_hull(qm, z).member

    def test_epigraph_upward_closed(self, rng):
        # the graph value t0 over y: y.y/4 - sum(y) on the example map, and
        # on random critical maps the target at the fibre point solved here
        cases = [(example_map(), lambda y: y @ y / 4.0 - y.sum())]
        maps_rng = np.random.default_rng(219)
        for n in range(2, 6):
            C = maps_rng.standard_normal((n, n))
            a = maps_rng.standard_normal(n)
            rho = maps_rng.standard_normal(n)
            rho_t = float(maps_rng.standard_normal())
            # offsets g_i(a) - g(a), with g_i(a) = |a - C_i|^2 - rho_i
            offsets = np.sum((a - C) ** 2, axis=1) - rho + rho_t

            def graph_value(y, C=C, a=a, offsets=offsets, rho_t=rho_t):
                d = np.linalg.solve(-2.0 * (C - a), y - offsets)
                return d @ d - rho_t

            qm = QuadraticMap(centers=C, rho=rho,
                              target=UnitQuadratic(a=a, rho=rho_t))
            assert qm.regime() is Regime.CRITICAL
            cases.append((qm, graph_value))
        for qm, graph_value in cases:
            for _ in range(20):
                y = rng.standard_normal(qm.m) * 3
                t0 = graph_value(y)
                for dt in (0.0, 0.5, 4.0):
                    z = graph_transform_inv(np.append(y, t0 + dt))
                    assert in_pair_hull(qm, z).member
                for dt in (0.5, 4.0):
                    z = graph_transform_inv(np.append(y, t0 - dt))
                    assert not in_pair_hull(qm, z).member

    def test_unsupported_regime_refused(self):
        inst = unsupported_instance()
        sol = solve_seb(inst)
        qm = QuadraticMap.from_instance(inst, sol.target_quadratic())
        assert qm.regime() is Regime.UNSUPPORTED
        with pytest.raises(UnsupportedRegime):
            in_pair_hull(qm, np.zeros(4))


def convexity_search(qmap, samples, seed=0):
    """The convexity probe as a random search in every regime: segment
    points of `samples` random pairs tested by exact range membership
    (`convexity_probe` before it read the rank theorem)."""
    rng = np.random.default_rng(seed)
    X = sample_inputs(qmap, samples, rng)
    Y = sample_inputs(qmap, samples, rng)
    lams = rng.uniform(0.0, 1.0, size=samples)
    Z = (lams[:, None] * eval_map(qmap, X)
         + (1.0 - lams[:, None]) * eval_map(qmap, Y))
    member, _, _ = numrange._range_members(qmap, Z)
    return ConvexityReport(
        samples=samples,
        counterexamples=tuple((X[i], Y[i], float(lams[i]), Z[i])
                              for i in np.flatnonzero(~member)))


def assert_witness_misses_the_range(qmap, report):
    """The rank-n report is one counterexample (x, y, 1/2, z): x and y are
    a +- v with |v|^2 = scale up to the rounding of a +- v, z is the
    midpoint of G(x) and G(y), and z's fibre is the point a, where the
    target sits |v|^2 below the level, so the fibre query's margin is
    -scale within its slack and z is off the range."""
    assert report.samples == 1 and len(report.counterexamples) == 1
    (x, y, lam, z), = report.counterexamples
    assert lam == 0.5
    a, r = qmap.target.a, np.sqrt(qmap.scale)
    eps = np.finfo(float).eps
    assert abs(np.linalg.norm(x - y) / 2.0 - r) <= 8 * eps * (
        np.linalg.norm(a) + r)
    # eval_map reads x and y through x - a, which adds their rounding
    size = qmap.scale + np.abs(qmap.offsets).max() + abs(qmap.target.rho)
    assert np.allclose(z, lam * eval_map(qmap, x)
                       + (1.0 - lam) * eval_map(qmap, y),
                       rtol=0.0, atol=1e-8 * size)
    margin, slack, _ = qmap.fibre(z[None, :])
    assert abs(margin[0] + qmap.scale) <= slack[0] < qmap.scale
    assert not in_range(qmap, z).member


def separation_on_full_arrays(qmap, samples, seed=0, extra_points=None):
    """The separation probe on whole (N, m + 1) arrays: every hull row
    formed and every orthant test taken over all columns at once
    (`separation_probe` before it tested one column at a time), on the
    inputs drawn and evaluated as the probe does, about the target center."""
    if qmap.regime() is Regime.UNSUPPORTED:
        raise UnsupportedRegime("separation probe needs a supported regime")
    rng = np.random.default_rng(seed)
    # the inputs in y = x - a, as the probe draws and moves them
    Y = rng.standard_normal((samples, qmap.dimension)) * (
        3.0 * np.sqrt(qmap.scale))
    if extra_points is not None and len(extra_points) > 0:
        Y = np.vstack([Y, np.atleast_2d(np.asarray(extra_points, dtype=float))
                       - qmap.target.a])
    if Y.shape[0] == 0:
        return SeparationReport(samples=0, range_hits=(), hull_hits=())
    G = numrange._values(qmap, Y).T
    in_orthant = (G[:, 0] < 0.0) & np.all(G[:, 1:] <= 0.0, axis=1)
    range_hits = tuple(G[i] for i in np.flatnonzero(in_orthant))
    N = G.shape[0]
    idx_u = rng.integers(0, N, size=N)
    idx_v = rng.integers(0, N, size=N)
    lams = rng.uniform(0.0, 1.0, size=N)
    H = G[idx_v] + lams[:, None] * (G[idx_u] - G[idx_v])
    hull_mask = (H[:, 0] < 0.0) & np.all(H[:, 1:] <= 0.0, axis=1)
    hull_hits = tuple(H[i] for i in np.flatnonzero(hull_mask))
    return SeparationReport(samples=int(N), range_hits=range_hits,
                            hull_hits=hull_hits)


def hit_bytes(hits, m):
    return np.array(hits, dtype=float).reshape(-1, m + 1).tobytes()


def probe_corpus():
    """Seeded (map, extra points) pairs: rank-deficient maps and m = n
    full-rank maps with m up to 8, the lens cut by a ball 1e6 to 1e12
    away, and m = n instances targeted at the solver's ball and at 0.9
    and 0.5 of its radius with their sampled intersection as extra
    points; each moved by up to 1e8 and scaled by 1e-8 to 1e8."""
    rng = np.random.default_rng(20261020)
    cases = []
    for m in range(1, 9):
        n = int(rng.integers(2, 5))
        cases.append((random_rank_deficient_map(rng, n=n, m=m), None))
        C = rng.standard_normal((m, m))
        cases.append((QuadraticMap(
            centers=C, rho=rng.uniform(0.5, 2.0, m) ** 2,
            target=UnitQuadratic(a=0.3 * rng.standard_normal(m),
                                 rho=rng.uniform(0.5, 2.0) ** 2)), None))
    for D in (1e6, 1e8, 1e10, 1e12):
        inst = Instance.from_data([[0.0, 0.0], [1.0, 0.0], [0.5, D]],
                                  [1.0, 1.0, D + 0.846])
        sol = solve_seb(inst)
        cases.append((QuadraticMap.from_instance(
            inst, sol.target_quadratic()), None))
    for n in (2, 3, 5, 8):
        inst = random_supported_instance(rng, n)
        sol = solve_seb(inst)
        cloud = sample_intersection(inst, 500, seed=n, start=sol.center)
        for shrink in (1.0, 0.9, 0.5):
            target = UnitQuadratic(sol.center, (shrink * sol.radius) ** 2)
            cases.append((QuadraticMap.from_instance(inst, target),
                          cloud.points))
    moved = []
    for qm, extra in cases:
        n = qm.dimension
        shift = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(0, 8)
        s = 10.0 ** rng.uniform(-8, 8)
        moved.append((QuadraticMap(
            centers=s * (qm.centers + shift), rho=s * s * qm.rho,
            target=UnitQuadratic(a=s * (qm.target.a + shift),
                                 rho=s * s * qm.target.rho)),
            None if extra is None else s * (extra + shift)))
    return cases + moved


def test_probes_match_their_references():
    # the convexity verdict is the random search's on every map: the
    # convex regime draws nothing, and at rank n the one witness misses
    # the range; every separation hit is the reference's, bit for bit
    totals = {"range": 0, "hull": 0, "convex": 0, "witness": 0, "long": 0}
    for k, (qm, extra) in enumerate(probe_corpus()):
        conv = convexity_probe(qm, 400, seed=k)
        ref = convexity_search(qm, 400, seed=k)
        assert conv.convex_evidence == ref.convex_evidence
        if qm.regime() is Regime.CONVEX:
            assert conv.samples == 0 and ref.counterexamples == ()
            totals["convex"] += 1
        else:
            assert_witness_misses_the_range(qm, conv)
            totals["witness"] += 1
        if qm.regime() is Regime.UNSUPPORTED:
            with pytest.raises(UnsupportedRegime):
                separation_probe(qm, 400, seed=k, extra_points=extra)
            continue
        sep = separation_probe(qm, 400, seed=k, extra_points=extra)
        ref = separation_on_full_arrays(qm, 400, seed=k, extra_points=extra)
        assert sep.samples == ref.samples
        assert (hit_bytes(sep.range_hits, qm.m)
                == hit_bytes(ref.range_hits, qm.m))
        assert (hit_bytes(sep.hull_hits, qm.m)
                == hit_bytes(ref.hull_hits, qm.m))
        totals["range"] += len(sep.range_hits)
        totals["hull"] += len(sep.hull_hits)
        totals["long"] += qm.m >= 6 and bool(sep.hull_hits)
    assert totals["convex"] >= 20 and totals["witness"] >= 20
    assert totals["range"] >= 1000 and totals["hull"] >= 1000
    assert totals["long"] >= 2


class TestConvexityProbe:
    def test_rank_deficient_maps_have_no_counterexamples(self, rng):
        for _ in range(3):
            qm = random_rank_deficient_map(rng)
            report = convexity_probe(qm, 2000, seed=int(rng.integers(1 << 30)))
            assert report.convex_evidence

    def test_example_map_counterexample(self):
        qm = example_map()
        report = convexity_probe(qm, 100, seed=1)
        assert len(report.counterexamples) > 0
        for x, y, lam, z in report.counterexamples:
            assert np.allclose(z, lam * eval_map(qm, x)
                               + (1.0 - lam) * eval_map(qm, y))
            assert not in_range(qm, z).member

    def test_rank_n_witnesses_miss_the_range(self):
        # the corpus maps whose rank A is n, and the example map
        maps = [qm for qm, _ in probe_corpus() if qm.rank == qm.dimension]
        assert len(maps) == 24
        for qm in maps + [example_map()]:
            for seed in range(50):
                assert_witness_misses_the_range(
                    qm, convexity_probe(qm, 400, seed=seed))

    def test_zero_samples(self):
        assert convexity_probe(example_map(), 0).counterexamples == ()

    def test_convex_regime_draws_nothing(self, monkeypatch, rng):
        # rank A < n: the verdict is the rank theorem's, with no draw, no
        # map evaluation and no fibre query
        def broken(*args, **kwargs):
            raise AssertionError("the convex regime drew inputs")

        monkeypatch.setattr(numrange, "sample_inputs", broken)
        monkeypatch.setattr(numrange, "eval_map", broken)
        monkeypatch.setattr(QuadraticMap, "fibre", broken)
        qm = random_rank_deficient_map(rng)
        report = convexity_probe(qm, 2000, seed=3)
        assert report.samples == 0 and report.counterexamples == ()
        assert report.convex_evidence

    def test_rank_n_makes_no_search(self, monkeypatch):
        # rank A = n: one witness, with no input drawn through
        # sample_inputs, no eval_map and no fibre query, whatever samples
        rng = np.random.default_rng(5)
        qm = QuadraticMap(centers=rng.standard_normal((3, 3)),
                          rho=np.ones(3),
                          target=UnitQuadratic(a=rng.standard_normal(3),
                                               rho=2.0))
        assert qm.regime() is Regime.CRITICAL

        def broken(*args, **kwargs):
            raise AssertionError("the rank-n probe searched")

        monkeypatch.setattr(numrange, "sample_inputs", broken)
        monkeypatch.setattr(numrange, "eval_map", broken)
        monkeypatch.setattr(QuadraticMap, "fibre", broken)
        report = convexity_probe(qm, 2000)
        assert report.samples == 1 and len(report.counterexamples) == 1
        assert traced_peak_mb(convexity_probe, qm, 2000) < 0.05

    def test_negative_samples_refused(self, rng):
        for qm in (random_rank_deficient_map(rng), example_map()):
            with pytest.raises(ValidationError):
                convexity_probe(qm, -1)


class TestSeparationProbe:
    def test_optimal_solution_has_no_hits(self):
        inst = lens_instance()
        sol = solve_seb(inst)
        qm = QuadraticMap.from_instance(inst, sol.target_quadratic())
        report = separation_probe(qm, 5000, seed=11)
        assert not report.range_hits and not report.hull_hits
        assert report.implication_holds

    def test_shrunk_target_is_hit(self, rng):
        inst = lens_instance()
        sol = solve_seb(inst)
        shrunk = UnitQuadratic(sol.center, (0.9 * sol.radius) ** 2)
        qm = QuadraticMap.from_instance(inst, shrunk)
        cloud = sample_intersection(inst, 2000, seed=5, start=sol.center)
        report = separation_probe(qm, 2000, seed=5,
                                  extra_points=cloud.points)
        assert len(report.range_hits) > 0

    @pytest.mark.parametrize("t", [0.0, 3.0, 10.0, 1e6])
    def test_draws_follow_the_map(self, t):
        # the probe draws about the target center: on the lens with a
        # half-radius target at its center, moving both finds the same hits
        lens = lens_instance()
        moved = Instance.from_data(lens.centers_matrix() + t, lens.radii())
        qm = QuadraticMap.from_instance(
            moved, UnitQuadratic(a=np.array([t, t]), rho=0.25))
        report = separation_probe(qm, 2000, seed=5)
        assert len(report.range_hits) == 12 and len(report.hull_hits) == 5

    def test_unsupported_regime_refused(self):
        inst = unsupported_instance()
        sol = solve_seb(inst)
        qm = QuadraticMap.from_instance(inst, sol.target_quadratic())
        with pytest.raises(UnsupportedRegime):
            separation_probe(qm, 10)

    def test_zero_samples(self):
        inst = lens_instance()
        sol = solve_seb(inst)
        qm = QuadraticMap.from_instance(inst, sol.target_quadratic())
        report = separation_probe(qm, 0)
        assert report.range_hits == () and report.hull_hits == ()

    def test_extra_points_are_checked(self, monkeypatch):
        # rows of the wrong width died in np.vstack with numpy's ValueError,
        # and rows holding NaN, which no orthant test passes, were counted
        # as misses; both are refused before anything is drawn
        def broken(*args, **kwargs):
            raise AssertionError("the probe drew with unchecked points")

        lens = lens_instance()
        qm = QuadraticMap.from_instance(lens, solve_seb(lens).target_quadratic())
        monkeypatch.setattr(numrange.np.random, "default_rng", broken)
        for extra in ([[0.0, 0.0, 0.0]], np.zeros((5, 1)), [0.0],
                      np.zeros((2, 2, 2))):
            with pytest.raises(DimensionMismatch, match="extra points"):
                separation_probe(qm, 10, seed=1, extra_points=extra)
        for bad in (np.nan, np.inf):
            extra = np.zeros((4, 2))
            extra[2, 1] = bad
            with pytest.raises(ValidationError, match="extra points"):
                separation_probe(qm, 10, seed=1, extra_points=extra)

    def test_negative_samples_refused(self):
        lens = lens_instance()
        qm = QuadraticMap.from_instance(lens, solve_seb(lens).target_quadratic())
        with pytest.raises(ValidationError):
            separation_probe(qm, -1)

    def test_working_memory(self):
        # the inputs are drawn into one array about the target center and
        # freed once evaluated, the values are formed row by row from the
        # graph relation, the orthant tests read contiguous columns and a
        # hull column is formed in its gathered rows: with 100,000 samples
        # and 100,000 extra points on the 3-D lens the probe peaks at 2.67
        # times its (2N, m + 1) values; evaluating a stacked, moved copy
        # through 2-D broadcasts and forming the hull through 1 - lam took
        # 3.33 times
        lens = lens_3d_instance()
        sol = solve_seb(lens)
        qm = QuadraticMap.from_instance(lens, sol.target_quadratic())
        cloud = sample_intersection(lens, 100_000, seed=3, solution=sol)
        separation_probe(qm, 10, 5, cloud.points[:10])
        peak = traced_peak_mb(separation_probe, qm, 100_000, 5, cloud.points)
        assert peak <= 2.8 * (2 * 100_000 * (qm.m + 1) * 8) / 1e6

    def test_working_memory_of_a_verify_lab_probe(self):
        # 2,000 samples and a 2,000-point cloud on the 3-D lens, as one
        # verify-lab operation probes them: 0.261 MB, where the stacked,
        # moved copy and the 2-D broadcasts took 0.387 MB
        lens = lens_3d_instance()
        sol = solve_seb(lens)
        qm = QuadraticMap.from_instance(lens, sol.target_quadratic())
        cloud = sample_intersection(lens, 2_000, seed=3, solution=sol)
        separation_probe(qm, 10, 5, cloud.points[:10])
        peak = traced_peak_mb(separation_probe, qm, 2_000, 5, cloud.points)
        assert peak <= 0.28


def test_one_rank_per_map(monkeypatch, rng):
    # the map takes its rank, pinv and null basis once, at construction
    calls = []

    def counting(vectors, *args, **kwargs):
        calls.append(1)
        return numerical_rank(vectors, *args, **kwargs)

    monkeypatch.setattr(numrange, "numerical_rank", counting)
    for make in (example_map, lambda: random_rank_deficient_map(rng)):
        qm = make()
        z = eval_map(qm, np.ones(qm.dimension))
        qm.regime()
        in_range(qm, z)
        in_pair_hull(qm, z)
        convexity_probe(qm, 50, seed=1)
        separation_probe(qm, 50, seed=1)
        assert len(calls) == 1
        calls.clear()


def test_build_memory_is_linear_in_m():
    # the SVD is thin when m >= n, so a tall map forms no m x m U: at
    # (n, m) = (3, 2,000) the build peaks at 0.39 MB, the map's own arrays
    # included, where the full U took 32.4 MB
    rng = np.random.default_rng(8)
    centers, rho = rng.standard_normal((2_000, 3)), rng.uniform(0.5, 2.0, 2_000)
    target = UnitQuadratic(a=np.zeros(3), rho=1.0)
    assert traced_peak_mb(QuadraticMap, centers, rho, target) < 0.5


class TestSampleInputs:
    def test_bit_identical_to_the_written_out_draws(self, rng):
        # scaled and moved in place, the draws are a + d (3 sqrt(scale)) to
        # the bit, at any magnitude and shift
        for _ in range(200):
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 5))
            s = 10.0 ** rng.uniform(-16, 16)
            shift = 10.0 ** rng.uniform(0, 8) * rng.standard_normal(n)
            qm = QuadraticMap(
                centers=shift + s * rng.standard_normal((m, n)),
                rho=s * s * rng.uniform(0.5, 2.0, m),
                target=UnitQuadratic(a=shift + s * rng.standard_normal(n),
                                     rho=s * s))
            count, seed = int(rng.integers(0, 50)), int(rng.integers(2**32))
            expected = qm.target.a + (
                np.random.default_rng(seed).standard_normal((count, n))
                * (3.0 * np.sqrt(qm.scale)))
            got = sample_inputs(qm, count, np.random.default_rng(seed))
            assert got.shape == (count, n)
            assert np.array_equal(got, expected)

    def test_negative_count_refused(self):
        with pytest.raises(ValidationError, match="count"):
            sample_inputs(example_map(), -1, np.random.default_rng(0))

    def test_working_memory(self):
        # the draws are scaled and moved where they lie: 2,000 inputs in
        # R^3 peak at about twice their bytes (three times through two
        # full temporaries)
        qm = QuadraticMap.from_instance(lens_3d_instance(), UnitQuadratic(
            a=np.array([0.1, 0.2, 0.3]), rho=1.0))
        sample_inputs(qm, 10, np.random.default_rng(0))
        peak = traced_peak_mb(sample_inputs, qm, 2_000,
                              np.random.default_rng(1))
        assert peak <= 2.2 * (2_000 * 3 * 8) / 1e6
