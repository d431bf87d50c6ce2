import math

import numpy as np
import pytest

from conftest import (
    CORPUS_FAMILIES,
    FAR_BALL,
    SQRT2,
    corpus,
    critical_instance,
    disjoint_instance,
    lens_instance,
    matrix_rank,
    random_supported_instance,
    traced_peak_mb,
    unsupported_instance,
)
from seblab.errors import EmptyInteriorError
from seblab.geometry import (
    Instance,
    Solution,
    SolveStatus,
)
from seblab.linalg import numerical_rank
from seblab.numrange import QuadraticMap
from seblab.sampling import sample_intersection
from seblab.simplex_qp import build_qp, solve, support_oracle
from seblab.solver import (
    RankRegime,
    Regime,
    build_certificate,
    classify,
    regime_report,
    solve_seb,
)


def g_values(inst, x):
    """g_i(x) = |x - a_i|^2 - r_i^2 of every ball."""
    D = x - inst.centers_matrix()
    return np.einsum("ij,ij->i", D, D) - inst.radii() ** 2


def affine_instance(rng, n, k, m):
    """m balls in R^n whose centers span an affine subspace of dimension
    k < n exactly: small integer directions and coefficients on a 1/32
    grid, so the centers and any integer translation of them up to 2^20
    are represented without rounding. Radii leave a common interior
    point."""
    while True:
        W = rng.integers(-3, 4, (n, k))
        C = rng.integers(-64, 65, (m, k)) / 32.0
        if (np.linalg.matrix_rank(W) == k
                and np.linalg.matrix_rank(C[1:] - C[0]) == k):
            break
    centers = rng.integers(-64, 65, n) / 32.0 + C @ W.T
    p = centers.mean(axis=0) + 0.3 * rng.standard_normal(n)
    radii = np.linalg.norm(centers - p, axis=1) + rng.uniform(0.5, 1.0, m)
    return Instance.from_data(centers, radii)


class TestClassify:
    def test_examples(self):
        assert classify(critical_instance()) == RankRegime(1, Regime.CONVEX)
        assert classify(lens_instance()) == RankRegime(1, Regime.CONVEX)
        assert classify(unsupported_instance()) == RankRegime(
            2, Regime.UNSUPPORTED)

    def test_invariant_and_equal_to_the_solve(self, rng):
        # the gate is the centers' affine rank: translation up to 1e6,
        # rotation, uniform scaling and ball permutation leave it alone,
        # and the solve reports the same rank and regime. The 1e6 shifts
        # are integer, so the moved centers are exact; real shifts are
        # covered by test_moved_rank_deficient_centers
        for _ in range(200):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n))
            m = k + int(rng.integers(1, 4))
            inst = affine_instance(rng, n, k, m)
            expected = RankRegime(k, Regime.CONVEX)
            assert classify(inst) == expected
            assert regime_report(inst, solve_seb(inst)) == expected
            A, radii = inst.centers_matrix(), inst.radii()
            Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            perm = rng.permutation(m)
            s = 10.0 ** rng.uniform(-3, 3)
            for t in (rng.standard_normal(n), 1e3 * rng.standard_normal(n),
                      rng.integers(-10**6, 10**6 + 1, n)):
                assert classify(Instance.from_data(A + t, radii)) == expected
            assert classify(Instance.from_data(A @ Q.T, radii)) == expected
            assert classify(Instance.from_data(s * A, s * radii)) == expected
            assert classify(Instance.from_data(A[perm],
                                               radii[perm])) == expected

    @pytest.mark.parametrize("shift, draws", [(1e6, 3000), (1e8, 600),
                                              (1e10, 600)])
    def test_moved_rank_deficient_centers(self, rng, shift, draws):
        # centers base + C W^T of affine rank k < n (W orthonormal), moved
        # by shift * N(0, I): the move rounds them by about eps * shift,
        # far below the rule's cutoff, so the gate still reads k (a cutoff
        # of 1e-10 s_max max(m, n) read a higher rank on about 1 in 250
        # draws at 1e6 and on most of them from 1e8 on)
        for _ in range(draws):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n))
            m = int(rng.integers(k + 2, 3 * n + 2))
            W = np.linalg.qr(rng.standard_normal((n, k)))[0]
            centers = (rng.standard_normal(n)
                       + rng.standard_normal((m, k)) @ W.T
                       + shift * rng.standard_normal(n))
            inst = Instance.from_data(centers, np.ones(m))
            assert classify(inst) == RankRegime(k, Regime.CONVEX)

    @pytest.mark.parametrize("offset", [1e-9, 1e-11])
    def test_full_rank_just_off_a_hyperplane(self, rng, offset):
        # centers in a hyperplane through the origin, one moved off it by
        # offset times the largest coordinate: affine rank n, which a
        # cutoff tied to the data's rounding reads (a cutoff of
        # 1e-10 s_max max(m, n) read n - 1 on most of them)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(n + 1, 3 * n + 2))
            Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            centers = rng.standard_normal((m, n - 1)) @ Q[:, :-1].T
            centers[rng.integers(m)] += (offset * np.abs(centers).max()
                                         * Q[:, -1])
            inst = Instance.from_data(centers, np.ones(m))
            assert classify(inst) == RankRegime(n, Regime.UNSUPPORTED)


class TestSolveSeb:
    def test_lens(self):
        sol = solve_seb(lens_instance())
        assert sol.status is SolveStatus.CERTIFIED_OPTIMAL
        assert np.allclose(sol.center, [0.0, 0.0], atol=1e-10)
        assert sol.radius == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(sol.multipliers, [0.5, 0.5], atol=1e-10)
        # the circles cross at (0, +-1): both on the reported sphere
        for corner in ([0.0, 1.0], [0.0, -1.0]):
            assert np.linalg.norm(np.array(corner) - sol.center) == (
                pytest.approx(sol.radius, abs=1e-8))

    def test_critical(self):
        sol = solve_seb(critical_instance())
        assert sol.status is SolveStatus.CERTIFIED_OPTIMAL
        assert np.allclose(sol.center, [0.5, 0.5], atol=1e-10)
        assert sol.radius == pytest.approx(math.sqrt(3.5), abs=1e-10)

    def test_single_ball(self):
        sol = solve_seb(Instance.from_data([[2.0, -1.0, 3.0]], [1.5]))
        assert np.allclose(sol.center, [2.0, -1.0, 3.0])
        assert sol.radius == pytest.approx(1.5, abs=1e-12)
        assert sol.multipliers[0] == 1.0

    def test_disjoint_balls_empty_interior(self):
        sol = solve_seb(disjoint_instance())
        assert sol.status is SolveStatus.EMPTY_INTERIOR
        assert sol.qp_value == pytest.approx(-24.0, abs=1e-8)
        assert sol.radius == 0.0

    def test_touching_balls_degenerate_point(self):
        inst = Instance.from_data([[-1.0, 0.0], [1.0, 0.0]], [1.0, 1.0])
        sol = solve_seb(inst)
        assert sol.status is SolveStatus.DEGENERATE_POINT
        assert sol.radius == 0.0
        assert np.allclose(sol.center, [0.0, 0.0], atol=1e-8)

    def test_unsupported_regime_upper_bound(self):
        sol = solve_seb(unsupported_instance())
        assert sol.status is SolveStatus.UPPER_BOUND_ONLY
        report = regime_report(unsupported_instance(), sol)
        assert report.regime is Regime.UNSUPPORTED
        assert report.rank_shifted == 2

    def test_regime_follows_shifted_rank(self):
        # moved off the axis the centers have rank 2 = n = m, but the
        # shifted centers a_i - a still have rank 1: the convex case, read
        # alike before and after the solve
        lens = lens_instance()
        moved = Instance.from_data(lens.centers_matrix() + [0.0, 1e-3],
                                   lens.radii())
        sol = solve_seb(moved)
        report = regime_report(moved, sol)
        assert report == classify(moved) == RankRegime(1, Regime.CONVEX)
        C = moved.centers_matrix()
        assert matrix_rank(C - sol.center, np.abs(C).max()) == 1

    def test_radius_squares_to_qp_value(self, rng):
        for n in (2, 3, 4):
            inst = random_supported_instance(rng, n)
            sol = solve_seb(inst)
            assert sol.radius**2 == pytest.approx(sol.qp_value, rel=1e-10)

    def test_status_soundness(self, rng):
        for n in (2, 3):
            inst = random_supported_instance(rng, n)
            sol = solve_seb(inst)
            # the rank read before the solve is the post-solve rank
            rank = matrix_rank(inst.centers_matrix() - sol.center)
            assert sol.rank_shifted == rank
            if sol.status is SolveStatus.CERTIFIED_OPTIMAL:
                assert rank < n or (rank == n and inst.m == n)


def moved(inst, shift=0.0, rotation=None):
    """The instance rotated about the origin, then moved by `shift`."""
    A = inst.centers_matrix()
    if rotation is not None:
        A = A @ rotation.T
    return Instance.from_data(A + shift, inst.radii())


def rotation_2d(angle=0.7):
    return np.array([[math.cos(angle), -math.sin(angle)],
                     [math.sin(angle), math.cos(angle)]])


def small_lens(t):
    """A lens of two balls of radius t sqrt(2) at (+-t, 0), optimal ball
    B(0, t), beside (inside) the ball B((5, 0), 10)."""
    return Instance.from_data([[-t, 0.0], [t, 0.0], [5.0, 0.0]],
                              [t * SQRT2, t * SQRT2, 10.0])


class TestCheckInterior:
    """The interior decision, read with every other status from the bracket
    -max_i g_i(a) <= q* <= q(mu) at the returned center."""

    def test_lens(self):
        inst = lens_instance()
        sol = solve_seb(inst)
        assert sol.status is SolveStatus.CERTIFIED_OPTIMAL
        assert np.allclose(sol.center, [0.0, 0.0], atol=1e-10)
        assert g_values(inst, sol.center).max() == pytest.approx(
            -sol.qp_value, abs=1e-9)

    def test_disjoint(self):
        inst = disjoint_instance()
        sol = solve_seb(inst)
        assert sol.status is SolveStatus.EMPTY_INTERIOR
        assert sol.qp_value < 0.0
        assert g_values(inst, sol.center).max() > 0.0

    def test_single_ball(self):
        inst = Instance.from_data([[1.0, 2.0]], [0.5])
        sol = solve_seb(inst)
        assert sol.status is SolveStatus.CERTIFIED_OPTIMAL
        assert np.array_equal(sol.center, [1.0, 2.0])
        assert g_values(inst, sol.center).max() < 0.0

    def test_gap_is_the_bracket_width(self):
        # the reported gap is q(mu) + max_i g_i(center), converged or not;
        # a center moved off the multipliers opens the bracket past it
        lens = lens_instance()
        big = random_supported_instance(np.random.default_rng(1), 12)
        for inst, sol in ((lens, solve_seb(lens)),
                          (big, solve_seb(big, max_iter=2))):
            q, gap = certified_gap(inst, sol.multipliers)
            assert sol.fw_gap == pytest.approx(gap, rel=1e-9, abs=1e-12)
            assert q + g_values(inst, sol.center).max() == pytest.approx(
                gap, rel=1e-9, abs=1e-12)
            moved_gap = q + g_values(inst, sol.center + 5.0).max()
            assert moved_gap > sol.fw_gap + 1.0

    def test_unconverged_solve(self):
        # two major cycles leave the bracket 86 % open: the ball of q(mu)
        # still encloses, and is not certified
        inst = random_supported_instance(np.random.default_rng(1), 12)
        sol = solve_seb(inst, max_iter=2)
        assert not sol.converged
        assert sol.status is SolveStatus.UPPER_BOUND_ONLY
        q, gap = certified_gap(inst, sol.multipliers)
        assert sol.radius == pytest.approx(math.sqrt(q), rel=1e-12)
        assert gap > 1e-9 * q
        assert g_values(inst, sol.center).max() < 0.0

    def test_disjoint_unconverged(self):
        # no cycle run: mu is the smallest ball's vertex, whose ball is
        # valid for the empty set; the sampler's start test then refuses
        inst = disjoint_instance()
        sol = solve_seb(inst, max_iter=0)
        assert sol.status is SolveStatus.UPPER_BOUND_ONLY
        assert sol.radius == 1.0
        with pytest.raises(EmptyInteriorError):
            sample_intersection(inst, 10, solution=sol)

    @pytest.mark.parametrize("ratio", [10.0 ** -k for k in range(1, 8)])
    def test_small_ball_inside_a_large_one(self, ratio):
        # the bounds follow the balls that carry weight or hold the center,
        # not the largest ball: radius t at every t / R, moved and rotated
        t = 10.0 * ratio
        base = Instance.from_data([[0.0, 0.0], [5.0, 0.0]], [t, 10.0])
        for inst in (base, moved(base, 1e6, rotation_2d())):
            sol = solve_seb(inst)
            assert sol.status is SolveStatus.CERTIFIED_OPTIMAL
            assert sol.radius == pytest.approx(t, rel=1e-12)
        cloud = sample_intersection(base, 50, seed=1)
        assert np.abs(cloud.points).max() <= t

    @pytest.mark.parametrize("ratio", [10.0 ** -k for k in range(1, 7)])
    def test_small_lens_matches_the_oracle(self, ratio):
        base = small_lens(10.0 * ratio)
        for inst in (base, moved(base, 1e6, rotation_2d())):
            sol = solve_seb(inst)
            q_exact, _ = support_oracle(build_qp(inst))
            assert sol.status is SolveStatus.CERTIFIED_OPTIMAL
            assert abs(sol.qp_value - q_exact) <= 1e-9 * q_exact

    @pytest.mark.parametrize("ratio, status", [
        (1e-7, SolveStatus.CERTIFIED_OPTIMAL),
        (1e-8, SolveStatus.CERTIFIED_OPTIMAL),
    ])
    def test_smaller_lens_is_never_understated(self, ratio, status):
        # the default stop follows the balls that carry weight, so at 1e-8
        # the first vertex (q twice q*) does not stop the solve, though its
        # gap lies under the large ball's rounding: the next cycle reaches
        # q* and certifies it; no ball is smaller than optimal
        base = small_lens(10.0 * ratio)
        for inst in (base, moved(base, 1e6, rotation_2d())):
            sol = solve_seb(inst)
            q_exact, _ = support_oracle(build_qp(inst))
            assert sol.status is status
            assert sol.qp_value >= q_exact * (1.0 - 1e-12)
            if status is SolveStatus.CERTIFIED_OPTIMAL:
                assert sol.qp_value <= q_exact * (1.0 + 1e-9)


@pytest.mark.parametrize("family", CORPUS_FAMILIES)
def test_stress_corpus_against_the_oracle(family):
    # against the exact q*: a certified ball is within 1e-9 of it, no ball
    # is smaller, no point or empty set hides an interior, and only an
    # empty intersection is reported empty
    statuses = []
    for inst in corpus(family):
        sol = solve_seb(inst)
        q_exact, _ = support_oracle(build_qp(inst))
        r2_min = float(inst.radii().min()) ** 2
        statuses.append(sol.status)
        if sol.status is SolveStatus.CERTIFIED_OPTIMAL:
            assert abs(sol.qp_value - q_exact) <= 1e-9 * q_exact
        if sol.status in (SolveStatus.CERTIFIED_OPTIMAL,
                          SolveStatus.UPPER_BOUND_ONLY):
            assert sol.radius ** 2 >= q_exact - 1e-12 * r2_min
        else:
            assert q_exact <= 1e-6 * r2_min
        if sol.status is SolveStatus.EMPTY_INTERIOR:
            assert q_exact < 0.0
    expected = {"nested": SolveStatus.CERTIFIED_OPTIMAL,
                "lens": SolveStatus.CERTIFIED_OPTIMAL,
                "disjoint": SolveStatus.EMPTY_INTERIOR}.get(family)
    if expected is not None:
        assert set(statuses) == {expected}


def test_center_is_the_solves_point():
    # solve_seb reads x = B^T mu from the solve that formed it: the center
    # is the origin plus that point, bit for bit
    for family in CORPUS_FAMILIES + (FAR_BALL,):
        for inst in corpus(family):
            qp = build_qp(inst)
            res = solve(qp)
            assert np.array_equal(res.point, qp.centers.T @ res.minimizer)
            assert np.array_equal(solve_seb(inst).center,
                                  qp.origin + res.point)


class TestFarBall:
    """The lens (+-t, 0) of radii sqrt(2) t beside B((0, D), D - t/2),
    D/t = 1e8 to 1e12: the far ball cuts the lens at y = t/2, so
    q* = 3/4 t^2. Its length must not make the lens's own points look
    affinely dependent to Wolfe's method."""

    @pytest.mark.parametrize("D", [1e8, 1e10, 1e12])
    def test_matches_the_oracle(self, D):
        inst = Instance.from_data([[-1.0, 0.0], [1.0, 0.0], [0.0, D]],
                                  [SQRT2, SQRT2, D - 0.5])
        sol = solve_seb(inst)
        q_exact, _ = support_oracle(build_qp(inst))
        assert sol.converged
        assert abs(sol.qp_value - q_exact) <= 1e-9 * q_exact

    def test_moved_copies_reach_three_quarters(self):
        # the solver and support_oracle both reach 3/4 (s t)^2,
        # (s t)^2 = r_min^2 / 2; with the far ball listed first, the
        # oracle's differences from it are nearly parallel, so it must try
        # another base to keep the three-ball support
        for inst in corpus(FAR_BALL):
            sol = solve_seb(inst)
            q_exact, _ = support_oracle(build_qp(inst))
            st2 = float(inst.radii().min()) ** 2 / 2.0
            assert sol.converged
            assert abs(sol.qp_value - 0.75 * st2) <= 1e-3 * st2
            assert abs(q_exact - 0.75 * st2) <= 1e-3 * st2


class TestInactiveFarBall:
    """The lens [[0, 0], [1, 0]] of radii 1 beside B((0.5, D), D + 0.846),
    which cuts off the lens's bottom tip (0.5, -0.866) and carries no
    multiplier: r* < 0.866, the lens's own radius, so that ball may not be
    certified. The centers' affine rank is 2 = n < m, Unsupported."""

    @pytest.mark.parametrize("D", [1e6, 1e8, 1e10, 1e11, 1e12])
    def test_not_certified(self, D):
        # the far center sets the largest singular value, about D; the
        # lens's direction (about 1) stays far above the coordinates'
        # rounding, about eps D
        inst = Instance.from_data([[0.0, 0.0], [1.0, 0.0], [0.5, D]],
                                  [1.0, 1.0, D + 0.846])
        sol = solve_seb(inst)
        qmap = QuadraticMap.from_instance(inst, sol.target_quadratic())
        assert sol.rank_shifted == qmap.rank == 2
        assert sol.status is not SolveStatus.CERTIFIED_OPTIMAL
        assert qmap.regime() is Regime.UNSUPPORTED


class TestCertificate:
    def test_optimum_vanishes(self):
        inst = lens_instance()
        cert = build_certificate(inst, solve_seb(inst))
        assert cert.alpha == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(cert.offdiag) < 1e-12
        assert cert.beta == pytest.approx(0.0, abs=1e-12)
        assert cert.psd_ok

    def test_vertex_multiplier_still_certifies(self):
        # mu = e_1 on the lens instance: a non-minimal but valid enclosing
        # ball (the first input ball itself)
        inst = lens_instance()
        mu = np.array([1.0, 0.0])
        a = inst.centers_matrix()[0]
        r2 = float(inst.radii()[0]) ** 2
        sol = Solution(center=a, radius=math.sqrt(r2), multipliers=mu,
                       qp_value=r2, status=SolveStatus.UPPER_BOUND_ONLY)
        cert = build_certificate(inst, sol)
        assert cert.alpha == 0.0
        assert np.linalg.norm(cert.offdiag) == 0.0
        assert cert.beta == pytest.approx(0.0, abs=1e-12)
        assert cert.psd_ok

    def test_deflated_radius_fails(self):
        inst = lens_instance()
        sol = solve_seb(inst)
        deflated = Solution(center=sol.center,
                            radius=math.sqrt(sol.qp_value - 0.1),
                            multipliers=sol.multipliers,
                            qp_value=sol.qp_value,
                            status=sol.status)
        cert = build_certificate(inst, deflated)
        assert cert.beta == pytest.approx(-0.1, abs=1e-9)
        assert not cert.psd_ok


class TestIdentityResidual:
    # sum_i mu_i g_i(x) = |x - a|^2 - r^2 at every x, in every regime:
    # it needs only sum(mu) = 1, a = sum(mu_i a_i) and r^2 = q(mu)
    @staticmethod
    def residual(inst, sol, x):
        d = x - sol.center
        return (sol.multipliers @ g_values(inst, x)
                - (float(d @ d) - sol.radius ** 2))

    def test_vanishes_everywhere(self, rng):
        for inst in (lens_instance(),
                     random_supported_instance(np.random.default_rng(7), 4)):
            sol = solve_seb(inst)
            n = inst.dimension
            X = np.vstack([sol.center, np.full(n, 7.0),
                           rng.standard_normal((50, n)) * 10])
            for x in X:
                assert abs(self.residual(inst, sol, x)) <= 1e-9 * (
                    1.0 + float(x @ x))

    def test_unsupported_regime_identity_still_holds(self, rng):
        inst = unsupported_instance()
        sol = solve_seb(inst)
        for _ in range(50):
            x = rng.standard_normal(2) * 5
            assert abs(self.residual(inst, sol, x)) <= 1e-9 * (
                1.0 + float(x @ x))


class TestEquivariance:
    def test_translation(self, rng):
        inst = random_supported_instance(rng, 3)
        sol = solve_seb(inst)
        t = rng.standard_normal(3) * 4
        shifted = Instance.from_data(inst.centers_matrix() + t, inst.radii())
        sol_t = solve_seb(shifted)
        assert np.allclose(sol_t.center, sol.center + t, atol=1e-8)
        assert sol_t.radius == pytest.approx(sol.radius, abs=1e-8)
        assert np.allclose(sol_t.multipliers, sol.multipliers, atol=1e-8)

    def test_rotation(self, rng):
        # at every magnitude: rotating the balls rotates the ball
        for s in (1e-6, 1.0, 1e6):
            base = random_supported_instance(rng, 3)
            inst = Instance.from_data(base.centers_matrix() * s,
                                      base.radii() * s)
            sol = solve_seb(inst)
            Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            rotated = Instance.from_data(inst.centers_matrix() @ Q.T,
                                         inst.radii())
            sol_q = solve_seb(rotated)
            assert sol_q.status is sol.status
            assert np.allclose(sol_q.center, Q @ sol.center, rtol=0,
                               atol=1e-8 * s)
            assert sol_q.radius == pytest.approx(sol.radius, rel=1e-8)
            assert np.allclose(sol_q.multipliers, sol.multipliers, atol=1e-8)

    def test_permutation(self):
        # permuting the balls permutes the multipliers and nothing else
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(n, 3 * n + 1))
            centers = rng.standard_normal((m, n))
            radii = (np.linalg.norm(centers - 0.3 * rng.standard_normal(n),
                                    axis=1) + rng.uniform(0.5, 1.0, m))
            sol = solve_seb(Instance.from_data(centers, radii))
            perm = rng.permutation(m)
            sol_p = solve_seb(Instance.from_data(centers[perm], radii[perm]))
            assert sol_p.status is sol.status
            assert sol_p.radius == pytest.approx(sol.radius, rel=1e-10)
            assert np.allclose(sol_p.center, sol.center, rtol=0, atol=1e-10)
            assert np.allclose(sol_p.multipliers, sol.multipliers[perm],
                               atol=1e-8)

    @pytest.mark.parametrize("extra", ["duplicate", "redundant"])
    def test_extra_ball_keeps_the_ball(self, extra):
        # a copy of an input ball, or a ball containing the optimal ball,
        # leaves the intersection, hence its smallest ball, unchanged
        rng = np.random.default_rng(5)
        for _ in range(30):
            inst = random_supported_instance(rng, int(rng.integers(2, 6)))
            sol = solve_seb(inst)
            assert sol.status is SolveStatus.CERTIFIED_OPTIMAL
            if extra == "duplicate":
                j = int(rng.integers(inst.m))
                center, radius = inst.centers_matrix()[j], inst.radii()[j]
            else:
                v = rng.standard_normal(inst.dimension)
                center = sol.center + 0.5 * sol.radius * v / np.linalg.norm(v)
                radius = 2.0 * sol.radius
            grown = Instance.from_data(
                np.vstack([inst.centers_matrix(), center]),
                np.append(inst.radii(), radius))
            sol_g = solve_seb(grown)
            assert sol_g.radius == pytest.approx(sol.radius, rel=1e-10)
            assert np.allclose(sol_g.center, sol.center, rtol=0,
                               atol=1e-10 * sol.radius)


class TestTranslation:
    """Far from the origin the program is built about the smallest ball, so
    rounding stays at the scale of the balls, not of |a_i|^2."""

    def test_random_moved_by_1e4(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(n, 6 * n + 1))
            centers = rng.standard_normal((m, n))
            p = 0.3 * rng.standard_normal(n)
            radii = (np.linalg.norm(centers - p, axis=1) + 0.5
                     + rng.uniform(0.0, 0.5, m))
            moved = centers + 1e4
            sol = solve_seb(Instance.from_data(moved, radii))
            # the gap of mu does not change under translation: evaluate it
            # on the moved centers less the first one, an exact subtraction
            q, gap = certified_gap(Instance.from_data(moved - moved[0], radii),
                                   sol.multipliers)
            worst = max(worst, abs(gap) / q)
        assert worst <= 1e-12

    @pytest.mark.parametrize("shift", [1e5, 1e6, 1e8])
    def test_moved_lens_certified(self, shift):
        lens = lens_instance()
        moved = Instance.from_data(lens.centers_matrix() + shift,
                                   lens.radii())
        sol = solve_seb(moved)
        assert sol.status is SolveStatus.CERTIFIED_OPTIMAL
        assert sol.radius == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(sol.center, [shift, shift], rtol=0,
                           atol=1e-12 * shift)

    @pytest.mark.parametrize("s", [1e-8, 1e-6, 1e-5, 1e-3, 1e4, 1e8])
    def test_scaled_lens_certified(self, s):
        # every tolerance is relative to the balls: no absolute floor turns
        # a small lens into a point or a large one into a loose solve
        lens = lens_instance()
        scaled = Instance.from_data(lens.centers_matrix() * s,
                                    lens.radii() * s)
        sol = solve_seb(scaled)
        assert sol.status is SolveStatus.CERTIFIED_OPTIMAL
        assert sol.radius == pytest.approx(s, rel=1e-12)
        assert sol.qp_value == pytest.approx(s * s, rel=1e-12)
        assert np.allclose(sol.center, 0.0, rtol=0, atol=1e-12 * s)

    @pytest.mark.parametrize("s", [1e-8, 1e8])
    def test_scaled_random_certified(self, s):
        # a uniform scaling scales the ball and keeps status and certificate
        rng = np.random.default_rng(3)
        for _ in range(100):
            inst = random_supported_instance(rng, int(rng.integers(2, 6)))
            sol = solve_seb(inst)
            scaled = Instance.from_data(inst.centers_matrix() * s,
                                        inst.radii() * s)
            sol_s = solve_seb(scaled)
            assert sol_s.status is sol.status
            assert sol_s.radius == pytest.approx(sol.radius * s, rel=1e-10)
            assert build_certificate(scaled, sol_s).psd_ok


class TestRegimeReport:
    def test_one_shifted_rank_per_solve(self, monkeypatch):
        from seblab import solver

        calls = []

        def counting(*args):
            calls.append(1)
            return numerical_rank(*args)

        monkeypatch.setattr(solver, "numerical_rank", counting)
        # one rank, read by classify before the solve, for every status
        for inst in (critical_instance(), disjoint_instance()):
            calls.clear()
            sol = solve_seb(inst)
            report = regime_report(inst, sol)
            assert len(calls) == 1
            assert report.rank_shifted == sol.rank_shifted == 1

    @pytest.mark.parametrize("make, expected", [
        (lens_instance, (1, Regime.CONVEX)),
        (critical_instance, (1, Regime.CONVEX)),
        (disjoint_instance, (1, Regime.CONVEX)),
        (unsupported_instance, (2, Regime.UNSUPPORTED)),
        (lambda: Instance.from_data(lens_instance().centers_matrix()
                                    + [0.0, 1e-3], lens_instance().radii()),
         (1, Regime.CONVEX)),
    ])
    def test_known_regimes(self, make, expected):
        inst = make()
        report = regime_report(inst, solve_seb(inst))
        assert report == classify(inst) == RankRegime(*expected)


def certified_gap(inst, mu):
    """(q(mu), q(mu) + max_i g_i(a)) from mu and the balls alone."""
    A = inst.centers_matrix()
    r2 = inst.radii() ** 2
    a = A.T @ mu
    q = float(a @ a - mu @ (np.einsum("ij,ij->i", A, A) - r2))
    g = np.einsum("ij,ij->i", A - a, A - a) - r2
    return q, q + float(g.max())


def padded_instance():
    """n = 3, m = 8: four balls of radius sqrt(5) at (+-2, 0, 0), (0, +-2, 0)
    whose intersection has optimal ball B(0, 1), and four inactive balls of
    radius 2 at 0.5 (cos(j pi/2), sin(j pi/2), 0)."""
    centers = [[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 2.0, 0.0],
               [0.0, -2.0, 0.0]]
    centers += [[0.5 * math.cos(j * math.pi / 2),
                 0.5 * math.sin(j * math.pi / 2), 0.0] for j in range(4)]
    return Instance.from_data(centers, [math.sqrt(5.0)] * 4 + [2.0] * 4)


class TestConvergence:
    def test_padded_instance_certified(self):
        inst = padded_instance()
        sol = solve_seb(inst)
        assert sol.radius == pytest.approx(1.0, abs=1e-9)
        assert sol.status is SolveStatus.CERTIFIED_OPTIMAL and sol.converged
        assert g_values(inst, sol.center).max() < 0.0
        assert len(sample_intersection(inst, 10, seed=1)) == 10

    @pytest.mark.parametrize("seed, n", [(0, 96), (5001, 64), (5019, 64)])
    def test_large_square_gap_closes(self, seed, n):
        inst = random_supported_instance(np.random.default_rng(seed), n)
        sol = solve_seb(inst)
        assert sol.converged
        q, gap = certified_gap(inst, sol.multipliers)
        assert gap <= 1e-9 * q

    @pytest.mark.parametrize("n, m", [(6, 300), (48, 48)])
    def test_solve_keeps_no_copy_of_the_program(self, n, m):
        # the program is the instance's frame: beside it a solve holds
        # m-vectors and the support's factor, no (m, n) copy
        rng = np.random.default_rng([n, m])
        centers = rng.standard_normal((m, n))
        p = 0.3 * rng.standard_normal(n)
        radii = (np.linalg.norm(centers - p, axis=1) + 0.5
                 + rng.uniform(0.0, 0.5, m))
        inst = Instance.from_data(centers, radii)
        solve_seb(inst)
        peak = traced_peak_mb(solve_seb, inst)
        assert peak * 1e6 <= 1.5 * centers.nbytes

    def test_tall_support_at_most_n_plus_one(self):
        rng = np.random.default_rng(1)
        centers = rng.standard_normal((60, 5))
        p = rng.standard_normal(5)
        radii = np.linalg.norm(centers - p, axis=1) + 0.5
        sol = solve_seb(Instance.from_data(centers, radii))
        assert np.count_nonzero(sol.multipliers) <= 6

    @pytest.mark.parametrize("seed", range(5))
    def test_iterations_follow_support_size(self, seed):
        # corrective steps: the iteration count tracks the support, not the
        # conditioning (pairwise steps alone took 200-700 iterations here)
        inst = random_supported_instance(np.random.default_rng(seed), 48)
        sol = solve_seb(inst)
        assert sol.converged
        assert sol.fw_iterations <= 3 * np.count_nonzero(sol.multipliers)

    def test_unconverged_is_not_certified(self):
        inst = random_supported_instance(np.random.default_rng(1), 12)
        sol = solve_seb(inst, max_iter=2)
        assert not sol.converged
        assert sol.status is not SolveStatus.CERTIFIED_OPTIMAL


def test_shrinking_radii_never_grows_ball(rng):
    for _ in range(10):
        n = int(rng.integers(2, 4))
        centers = rng.standard_normal((n, n))
        p = rng.standard_normal(n) * 0.2
        slack = rng.uniform(0.6, 1.2, n)
        radii = np.linalg.norm(centers - p, axis=1) + slack
        r_before = solve_seb(Instance.from_data(centers, radii)).radius
        j = int(rng.integers(0, n))
        radii2 = radii.copy()
        radii2[j] -= 0.5 * slack[j]  # interior point p survives
        r_after = solve_seb(Instance.from_data(centers, radii2)).radius
        assert r_after <= r_before + 1e-9
