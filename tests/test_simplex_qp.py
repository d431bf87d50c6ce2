import math

import numpy as np
import pytest

from conftest import critical_instance, lens_instance
from seblab.errors import CombinatorialBlowup
from seblab.geometry import Instance
from seblab.simplex_qp import (
    SimplexQP,
    build_qp,
    grid_oracle,
    solve,
)


class TestBuildQP:
    def test_critical(self):
        qp = build_qp(critical_instance())
        assert np.allclose(qp.centers @ qp.centers.T, np.eye(2))
        assert np.allclose(qp.linear, [-3.0, -3.0])

    def test_single_ball(self):
        qp = build_qp(Instance.from_data([[0.0, 0.0]], [1.0]))
        gram = qp.centers @ qp.centers.T
        assert gram.shape == (1, 1) and gram[0, 0] == 0.0
        assert qp.linear[0] == -1.0

    def test_lens(self):
        qp = build_qp(lens_instance())
        assert np.allclose(qp.centers @ qp.centers.T,
                           [[1.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(qp.linear, [-1.0, -1.0])


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
            grid_val, _ = grid_oracle(qp, 200)
            # value - q* <= gap, and the lattice value upper-bounds q*
            assert res.value - res.gap <= grid_val + 1e-12

    def test_nonconvergence_flagged(self):
        # the optimum is uniform on all 12 vertices; two major cycles reach
        # a support of at most 3
        qp = SimplexQP(centers=np.eye(12), linear=np.zeros(12))
        res = solve(qp, tol_gap=1e-16, max_iter=2)
        assert not res.converged


class TestGridOracle:
    def test_examples(self):
        qp = SimplexQP(centers=np.eye(2), linear=np.array([-3.0, -3.0]))
        val, mu = grid_oracle(qp, 2)
        assert val == pytest.approx(3.5) and np.allclose(mu, [0.5, 0.5])

        qp1 = SimplexQP(centers=np.array([[2.0]]), linear=np.array([1.0]))
        _, mu1 = grid_oracle(qp1, 7)
        assert np.allclose(mu1, [1.0])

        qp2 = SimplexQP(centers=np.array([[1.0], [-1.0]]),
                        linear=np.array([-1.0, -1.0]))
        val2, _ = grid_oracle(qp2, 10)
        assert val2 == pytest.approx(1.0)

    def test_guard(self):
        qp = SimplexQP(centers=np.eye(12), linear=np.zeros(12))
        with pytest.raises(CombinatorialBlowup):
            grid_oracle(qp, 200)
