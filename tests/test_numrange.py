import numpy as np
import pytest

from conftest import (
    critical_instance,
    example_map,
    lens_instance,
    random_rank_deficient_map,
    unsupported_instance,
)
from seblab.errors import (
    DimensionMismatch,
    SingularTransform,
    UnsupportedRegime,
    ValidationError,
)
from seblab.geometry import Instance, UnitQuadratic
from seblab.numrange import (
    QuadraticMap,
    _RangeGeometry,
    build_graph_form,
    convexity_probe,
    eval_map,
    eval_map_batch,
    graph_transform,
    in_pair_hull,
    in_range,
    pair_hull_combine,
    separation_probe,
)
from seblab.solver import Regime, solve_seb


def graph_transform_inv(y):
    """Inverse of graph_transform: (y_1..y_m, t) -> (-t, y_1 + t, ..., y_m + t)."""
    y = np.asarray(y, dtype=float)
    z0 = -y[-1]
    return np.concatenate([[z0], y[:-1] - z0])


class TestEvalMap:
    def test_reference_example_values(self):
        qm = example_map()
        assert np.array_equal(eval_map(qm, [1.0, 0.0]), [1.0, 1.0, -1.0])
        assert np.array_equal(eval_map(qm, [0.0, 1.0]), [1.0, -1.0, 1.0])

    def test_common_zero(self):
        # target and component agree: both vanish on the unit sphere
        q = UnitQuadratic(a=np.zeros(2), theta=-1.0)
        qm = QuadraticMap(target=q, components=(q,), dimension=2)
        assert np.allclose(eval_map(qm, [1.0, 0.0]), [0.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            eval_map(example_map(), [1.0, 0.0, 0.0])


class TestGraphTransform:
    def test_examples(self):
        assert np.array_equal(graph_transform([1.0, 1.0, -1.0]), [2.0, 0.0, -1.0])
        assert np.array_equal(graph_transform([1.0, 0.0, 0.0]), [1.0, 1.0, -1.0])

    def test_roundtrip(self, rng):
        for _ in range(20):
            z = rng.standard_normal(int(rng.integers(2, 6)))
            back = graph_transform_inv(graph_transform(z))
            assert np.allclose(back, z, rtol=0, atol=1e-15 * np.abs(z).max())


class TestGraphForm:
    def test_example_map_data(self):
        form = build_graph_form(example_map())
        assert np.allclose(form.A, 2.0 * np.eye(2))
        assert np.allclose(form.offsets, 0.0)
        assert np.allclose(form.quad, 0.25 * np.eye(2))
        # quarter-norm-squared minus coordinate sum
        assert form.value([1.0, 1.0]) == pytest.approx(-1.5)
        assert form.value([2.0, 0.0]) == pytest.approx(-1.0)

    def test_consistency_with_target(self, rng):
        qm = example_map()
        form = build_graph_form(qm)
        for _ in range(100):
            x = rng.standard_normal(2) * 3
            y = form.forward(x)
            assert form.value(y) == pytest.approx(qm.target(x), rel=1e-8,
                                                  abs=1e-8)
            h = graph_transform(eval_map(qm, x))
            assert np.allclose(h[:-1], y, atol=1e-9 * (1 + np.abs(y).max()))
            assert h[-1] == pytest.approx(qm.target(x), rel=1e-9, abs=1e-9)

    def test_collinear_directions_rejected(self):
        inst = Instance.from_data([[1.0, 0.0], [2.0, 0.0]], [1.0, 1.0])
        qm = QuadraticMap.from_instance(
            inst, UnitQuadratic(a=np.zeros(2), theta=-1.0))
        with pytest.raises(SingularTransform):
            build_graph_form(qm)


def test_range_geometry_rank_is_shifted_rank():
    # the membership system -2(a_i - a) and the regime gate share one rank rule
    rng = np.random.default_rng(20261018)
    for trial in range(60):
        n, m = (int(v) for v in rng.integers(2, 7, size=2))
        if trial % 2:
            qm = random_rank_deficient_map(rng, n=n, m=m)
            assert qm.shifted_rank() < n
        else:
            scale = 10.0 ** rng.uniform(-6, 6)
            centers = rng.standard_normal((m, n)) * scale
            qm = QuadraticMap(
                target=UnitQuadratic(a=rng.standard_normal(n) * scale, theta=0.0),
                components=tuple(UnitQuadratic(a=c, theta=0.0) for c in centers),
                dimension=n)
            assert qm.shifted_rank() == min(n, m)
        assert _RangeGeometry(qm).rank == qm.shifted_rank()


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
        G = eval_map_batch(qm, X)
        # about half the draws land 0.02..0.3 from the grid and decide
        # nothing, so draw until 90 have been checked
        checked = 0
        for _ in range(1000):
            if checked >= 90:
                break
            x, y = rng.uniform(-2, 2, size=(2, 2))
            lam = rng.uniform()
            z = pair_hull_combine(eval_map(qm, x), eval_map(qm, y), lam)
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
        qm = example_map()
        form = build_graph_form(qm)
        for _ in range(20):
            y = rng.standard_normal(2) * 3
            t0 = form.value(y)
            for dt in (0.0, 0.5, 4.0):
                z = graph_transform_inv(np.concatenate([y, [t0 + dt]]))
                assert in_pair_hull(qm, z).member
            for dt in (0.5, 4.0):
                z = graph_transform_inv(np.concatenate([y, [t0 - dt]]))
                assert not in_pair_hull(qm, z).member

    def test_unsupported_regime_refused(self):
        inst = unsupported_instance()
        sol = solve_seb(inst)
        qm = QuadraticMap.from_instance(inst, sol.target_quadratic())
        assert qm.regime() is Regime.UNSUPPORTED
        with pytest.raises(UnsupportedRegime):
            in_pair_hull(qm, np.zeros(4))


class TestPairHullCombine:
    def test_examples(self):
        mid = pair_hull_combine([1.0, 1.0, -1.0], [1.0, -1.0, 1.0], 0.5)
        assert np.array_equal(mid, [1.0, 0.0, 0.0])
        p, q = np.array([1.0, 2.0]), np.array([-1.0, 5.0])
        assert np.array_equal(pair_hull_combine(p, q, 0.0), q)
        assert np.array_equal(pair_hull_combine(p, q, 1.0), p)

    def test_rejects_out_of_range_lambda(self):
        with pytest.raises(ValidationError):
            pair_hull_combine([1.0], [0.0], 1.5)


class TestConvexityProbe:
    def test_rank_deficient_maps_have_no_counterexamples(self, rng):
        for _ in range(3):
            qm = random_rank_deficient_map(rng)
            report = convexity_probe(qm, 2000, seed=int(rng.integers(1 << 30)))
            assert report.convex_evidence

    def test_example_map_counterexample(self):
        report = convexity_probe(
            example_map(), 0,
            include_pairs=[([1.0, 0.0], [0.0, 1.0], 0.5)])
        assert len(report.counterexamples) == 1
        assert np.allclose(report.counterexamples[0][3], [1.0, 0.0, 0.0])

    def test_zero_samples(self):
        assert convexity_probe(example_map(), 0).counterexamples == ()


class TestSeparationProbe:
    def test_optimal_solution_has_no_hits(self):
        inst = lens_instance()
        sol = solve_seb(inst)
        qm = QuadraticMap.from_instance(inst, sol.target_quadratic())
        report = separation_probe(qm, 5000, seed=11)
        assert not report.range_hits and not report.hull_hits
        assert report.implication_holds

    def test_shrunk_target_is_hit(self, rng):
        from seblab.geometry import Ball, ball_to_quadratic
        from seblab.sampling import sample_intersection

        inst = lens_instance()
        sol = solve_seb(inst)
        shrunk = ball_to_quadratic(Ball(sol.center, 0.9 * sol.radius))
        qm = QuadraticMap.from_instance(inst, shrunk)
        cloud = sample_intersection(inst, 2000, seed=5, start=sol.center)
        report = separation_probe(qm, 2000, seed=5,
                                  extra_points=cloud.points)
        assert len(report.range_hits) > 0

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


class TestAffineInvariance:
    def test_graph_transform_matrix(self, rng):
        # the flattening map as a matrix: linear, invertible
        m = 3
        L = np.zeros((m + 1, m + 1))
        L[:m, 0] = 1.0
        L[:m, 1:] = np.eye(m)
        L[m, 0] = -1.0
        z = rng.standard_normal(m + 1)
        assert np.allclose(L @ z, graph_transform(z))
