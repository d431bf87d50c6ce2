import numpy as np

from conftest import matrix_rank
from seblab.linalg import arrowhead_psd, numerical_rank


def arrowhead_matrix(alpha, b, beta):
    """Dense symmetric [[alpha*I, b], [b^T, beta]], the eigensolver oracle's input."""
    b = np.atleast_1d(np.asarray(b, dtype=float))
    n = b.size
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = alpha * np.eye(n)
    M[:n, n] = b
    M[n, :n] = b
    M[n, n] = beta
    return M


class TestNumericalRank:
    def test_examples(self):
        assert matrix_rank([[-1.0, 0.0], [0.0, -1.0]]) == 2
        assert matrix_rank([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]) == 1
        assert matrix_rank([np.zeros(4)]) == 0
        assert numerical_rank(np.empty(0), (0, 3), 1.0) == 0

    def test_permutation_and_scaling_invariance(self, rng):
        for _ in range(20):
            m, n = rng.integers(1, 6), rng.integers(1, 6)
            V = rng.standard_normal((m, n))
            base = matrix_rank(V)
            perm = rng.permutation(m)
            scales = rng.choice([-3.0, 0.5, 7.0, -0.01], size=m)
            assert matrix_rank(V[perm] * scales[:, None]) == base


class TestArrowheadPsd:
    def test_examples(self):
        psd, res = arrowhead_psd(0.0, np.zeros(2), 0.0)
        assert psd and res <= 0.0
        psd, _ = arrowhead_psd(1.0, [1.0, 1.0], 1.0)
        assert not psd
        psd, _ = arrowhead_psd(1.0, [0.5, 0.5], 1.0)
        assert psd

    def test_agrees_with_eigensolver(self, rng):
        disagreements = 0
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            alpha = float(rng.standard_normal())
            beta = float(rng.standard_normal())
            b = rng.standard_normal(n)
            psd, _ = arrowhead_psd(alpha, b, beta, tol=1e-12)
            min_eig = float(np.linalg.eigvalsh(
                arrowhead_matrix(alpha, b, beta)).min())
            if abs(min_eig) <= 1e-9:
                continue  # inside the tolerance band
            if psd != (min_eig > 0):
                disagreements += 1
        assert disagreements == 0
