import itertools
import math

import numpy as np
import pytest

from conftest import (
    critical_instance,
    lens_instance,
    random_supported_instance,
)
from seblab import kernels, simplex_qp
from seblab.errors import (
    CombinatorialBlowup,
    DimensionMismatch,
    ValidationError,
)
from seblab.geometry import Instance
from seblab.simplex_qp import (
    SimplexQP,
    build_qp,
    solve,
    support_oracle,
)
from seblab.solver import solve_seb


def absolute_value(instance, mu):
    """q(mu) = |A^T mu|^2 - sum mu_i (|a_i|^2 - r_i^2) on the raw centers."""
    A = instance.centers_matrix()
    x = A.T @ mu
    return float(x @ x - mu @ (np.einsum("ij,ij->i", A, A)
                               - instance.radii() ** 2))


class TestBuildQP:
    def test_critical(self):
        # built about the smallest ball (the first of two equal radii)
        qp = build_qp(critical_instance())
        assert np.array_equal(qp.origin, [1.0, 0.0])
        assert np.allclose(qp.centers, [[0.0, 0.0], [-1.0, 1.0]])
        assert np.allclose(qp.linear, [-4.0, -2.0])

    def test_single_ball(self):
        qp = build_qp(Instance.from_data([[0.0, 0.0]], [1.0]))
        gram = qp.centers @ qp.centers.T
        assert gram.shape == (1, 1) and gram[0, 0] == 0.0
        assert qp.linear[0] == -1.0

    def test_lens(self):
        qp = build_qp(lens_instance())
        assert np.array_equal(qp.origin, [-1.0, 0.0])
        assert np.allclose(qp.centers, [[0.0, 0.0], [2.0, 0.0]])
        assert np.allclose(qp.linear, [-2.0, 2.0])

    def test_value_matches_absolute_form(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 8))
            centers = rng.standard_normal((m, n)) * 3.0
            inst = Instance.from_data(centers, rng.uniform(0.5, 4.0, m))
            qp = build_qp(inst)
            mu = rng.dirichlet(np.ones(m))
            assert qp.value(mu) == pytest.approx(absolute_value(inst, mu),
                                                 rel=1e-12, abs=1e-12)
            assert np.allclose(qp.origin + qp.centers.T @ mu,
                               centers.T @ mu, rtol=0, atol=1e-12)

    def test_program_is_the_instances_frame(self):
        # every program of one instance hands out the read-only frame that
        # from_data formed: nothing is subtracted, squared or copied again
        inst = lens_instance()
        first, second = build_qp(inst), build_qp(inst)
        frame = inst.frame
        for arr, qp_arr in zip(frame, (first.origin, first.centers,
                                       first.linear)):
            assert qp_arr is arr
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert np.shares_memory(first.centers, second.centers)
        assert np.shares_memory(first.linear, second.linear)

    def test_writable_or_borrowed_input_is_copied(self):
        # a program built by hand keeps its own copy of anything its
        # caller could still write to
        A, c = np.eye(2), np.array([-3.0, -3.0])
        qp = SimplexQP(centers=A, linear=c)
        A[0, 0], c[0] = 5.0, 0.0
        assert qp.centers[0, 0] == 1.0 and qp.linear[0] == -3.0
        view = build_qp(lens_instance()).centers[:1]
        assert not np.shares_memory(SimplexQP(centers=view,
                                              linear=[0.0]).centers, view)

    @pytest.mark.parametrize("centers, linear", [
        (np.eye(2), [1.0, 2.0, 3.0]),
        (np.eye(2), [1.0]),
        ([1.0, 2.0], [1.0, 2.0]),
    ], ids=["long linear", "short linear", "1-D centers"])
    def test_shape_mismatch_refused(self, centers, linear):
        with pytest.raises(DimensionMismatch):
            SimplexQP(centers=centers, linear=linear)


class TestSolve:
    def test_identity_gram(self):
        qp = SimplexQP(centers=np.eye(2), linear=np.array([-3.0, -3.0]))
        res = solve(qp)
        assert np.allclose(res.minimizer, [0.5, 0.5], atol=1e-10)
        assert res.value == pytest.approx(3.5, abs=1e-10)

    def test_singleton(self):
        qp = SimplexQP(centers=np.array([[math.sqrt(2.0)]]),
                       linear=np.array([0.5]))
        res = solve(qp)
        assert res.minimizer[0] == 1.0
        assert res.value == pytest.approx(1.5)

    def test_lens_objective(self):
        qp = build_qp(lens_instance())
        res = solve(qp)
        assert np.allclose(res.minimizer, [0.5, 0.5], atol=1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_zero_gram_is_linear_program(self):
        # all centers at the origin: objective is -c^T mu, optimum at the
        # vertex with the largest linear coefficient
        qp = SimplexQP(centers=np.zeros((3, 1)),
                       linear=np.array([1.0, 3.0, 2.0]))
        res = solve(qp)
        assert np.allclose(res.minimizer, [0.0, 1.0, 0.0])
        assert res.value == pytest.approx(-3.0)

    def test_simplex_feasibility_exact(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 7))
            A = rng.standard_normal((m, 3))
            qp = SimplexQP(centers=A, linear=rng.standard_normal(m))
            res = solve(qp)
            assert res.minimizer.min() >= 0.0
            assert res.minimizer.sum() == pytest.approx(1.0, abs=1e-12)
            assert res.gap >= 0.0

    def test_gap_bounds_suboptimality(self, rng):
        for _ in range(10):
            m = int(rng.integers(2, 4))
            A = rng.standard_normal((m, 2))
            qp = SimplexQP(centers=A, linear=rng.standard_normal(m))
            res = solve(qp)
            q_exact, _ = support_oracle(qp)
            # q* <= value <= q* + gap, up to rounding
            assert q_exact - 1e-12 <= res.value <= q_exact + res.gap + 1e-12

    def test_nonconvergence_flagged(self):
        # the optimum is uniform on all 12 vertices; two major cycles reach
        # a support of at most 3
        qp = SimplexQP(centers=np.eye(12), linear=np.zeros(12))
        res = solve(qp, max_iter=2)
        assert not res.converged

    def test_negative_max_iter_rejected(self):
        qp = SimplexQP(centers=np.eye(2), linear=np.array([-3.0, -3.0]))
        with pytest.raises(ValidationError):
            solve(qp, max_iter=-1)
        assert solve(qp, max_iter=0).iterations == 0

    def test_one_rounding_stop_pass_per_solve(self, monkeypatch):
        # the default stop's sizes are computed over all m rows once, in
        # the kernel; `converged` reads the stop from the support's rows
        calls = []
        rounding_stop = kernels.rounding_stop

        def counted(A, c):
            calls.append(A.shape[0])
            return rounding_stop(A, c)

        monkeypatch.setattr(kernels, "rounding_stop", counted)
        for inst in (lens_instance(), critical_instance(),
                     random_supported_instance(np.random.default_rng(3), 12)):
            calls.clear()
            sol = solve_seb(inst)
            assert sol.converged
            assert calls == [inst.m]


class TestSupportOracle:
    def test_examples(self):
        qp = SimplexQP(centers=np.eye(2), linear=np.array([-3.0, -3.0]))
        val, mu = support_oracle(qp)
        assert val == pytest.approx(3.5, abs=1e-15)
        assert np.allclose(mu, [0.5, 0.5], atol=1e-15)

        qp1 = SimplexQP(centers=np.array([[2.0]]), linear=np.array([1.0]))
        val1, mu1 = support_oracle(qp1)
        assert val1 == 3.0 and np.array_equal(mu1, [1.0])

        qp2 = SimplexQP(centers=np.array([[1.0], [-1.0]]),
                        linear=np.array([-1.0, -1.0]))
        val2, mu2 = support_oracle(qp2)
        assert val2 == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(mu2, [0.5, 0.5], atol=1e-15)

    def test_zero_gram_is_linear_program(self):
        # every system of two or more points is singular: the vertices
        # decide, and the best is the largest linear coefficient
        qp = SimplexQP(centers=np.zeros((3, 1)),
                       linear=np.array([1.0, 3.0, 2.0]))
        val, mu = support_oracle(qp)
        assert val == -3.0 and np.array_equal(mu, [0.0, 1.0, 0.0])

    def test_uniform_optimum_on_twelve_balls(self):
        # the 12 unit vectors with radii 1.2: q* = 1.44 - 11/12 at uniform
        # mu, a support of all 12 balls
        inst = Instance.from_data(np.eye(12), np.full(12, 1.2))
        val, mu = support_oracle(build_qp(inst))
        assert val == pytest.approx(1.44 - 11.0 / 12.0, rel=1e-14)
        assert np.allclose(mu, np.full(12, 1.0 / 12.0), rtol=0, atol=1e-14)

    def test_agrees_with_solve(self, rng):
        for _ in range(60):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 5))
            qp = SimplexQP(centers=rng.standard_normal((m, n)),
                           linear=rng.standard_normal(m))
            val, mu = support_oracle(qp)
            res = solve(qp)
            assert abs(val - res.value) <= 1e-12 * max(1.0, abs(val))
            assert mu.min() >= 0.0 and mu.sum() == pytest.approx(1.0)
            assert qp.value(mu) == val

    def test_guard_counts_supports(self, monkeypatch):
        # m = 4 points in R^1: 4 vertices and 6 pairs
        qp = SimplexQP(centers=np.arange(4.0)[:, None], linear=np.zeros(4))
        monkeypatch.setattr(simplex_qp, "SUPPORT_GUARD", 10)
        support_oracle(qp)
        monkeypatch.setattr(simplex_qp, "SUPPORT_GUARD", 9)
        with pytest.raises(CombinatorialBlowup):
            support_oracle(qp)

    def test_guard(self):
        # 2^16 - 1 supports
        qp = SimplexQP(centers=np.eye(16), linear=np.zeros(16))
        with pytest.raises(CombinatorialBlowup):
            support_oracle(qp)

    def test_skipped_supports_never_beat_the_kept_minimum(self):
        # m > n programs with nearly dependent supports: a point within
        # 1e-12..1e-8 of a segment between two others, and a unit lens
        # beside a ball 1e8..1e12 away, listed first, plus a containing
        # ball. On every face the oracle skips, Wolfe's method finds no
        # value below the oracle's q* by more than rounding.
        rng = np.random.default_rng([2033, 12])
        programs = []
        for _ in range(30):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(n + 1, n + 5))
            C = rng.standard_normal((m, n))
            i, j, k = rng.choice(m, 3, replace=False)
            lam = rng.uniform(0.2, 0.8)
            C[k] = (lam * C[i] + (1.0 - lam) * C[j]
                    + 10.0 ** rng.uniform(-12, -8) * rng.standard_normal(n))
            p = 0.3 * rng.standard_normal(n)
            r = np.linalg.norm(C - p, axis=1) + rng.uniform(0.01, 1.0, m)
            programs.append(build_qp(Instance.from_data(C, r)))
        for _ in range(30):
            n = int(rng.integers(2, 4))
            e1, e2 = np.eye(n)[:2]
            D = 10.0 ** rng.uniform(8, 12)
            C = np.array([D * e2, -e1, e1, np.zeros(n)])
            Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            shift = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(0, 6)
            programs.append(build_qp(Instance.from_data(
                C @ Q.T + shift, [D - 0.5, math.sqrt(2.0), math.sqrt(2.0),
                                  10.0])))
        skipped = 0
        for qp in programs:
            best, _ = support_oracle(qp)
            m, n = qp.centers.shape
            for size in range(2, min(m, n + 1) + 1):
                for S in itertools.combinations(range(m), size):
                    if simplex_qp._stationary_weights(qp, S) is not None:
                        continue
                    skipped += 1
                    face = solve(SimplexQP(centers=qp.centers[list(S)],
                                           linear=qp.linear[list(S)]))
                    assert face.converged
                    assert face.value >= best - 1e-9 * abs(best)
        assert skipped > 0

    def test_independent_of_the_kernels(self, rng, monkeypatch):
        qps = [SimplexQP(centers=rng.standard_normal((6, 3)),
                         linear=rng.standard_normal(6)) for _ in range(10)]
        values = [solve(qp).value for qp in qps]

        def broken(*args, **kwargs):
            raise AssertionError("the oracle called a solver kernel")

        monkeypatch.setattr(kernels, "fw_minimize", broken)
        monkeypatch.setattr(kernels, "_minor_cycles", broken)
        for qp, value in zip(qps, values):
            val, _ = support_oracle(qp)
            assert abs(val - value) <= 1e-12 * max(1.0, abs(val))
