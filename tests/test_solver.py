import dataclasses
import math

import numpy as np
import pytest

from conftest import (
    critical_instance,
    disjoint_instance,
    lens_instance,
    random_supported_instance,
    unsupported_instance,
)
from seblab.errors import ValidationFailure
from seblab.geometry import Instance, Solution, SolveStatus, eval_quadratic
from seblab.linalg import numerical_rank
from seblab.sampling import sample_intersection
from seblab.solver import (
    Regime,
    build_certificate,
    check_interior,
    classify,
    identity_residual,
    regime_report,
    solve_seb,
)


class TestClassify:
    def test_examples(self):
        assert classify(critical_instance()).regime is Regime.CRITICAL
        assert classify(lens_instance()).regime is Regime.CONVEX
        assert classify(lens_instance()).rank_centers == 1
        assert classify(unsupported_instance()).regime is Regime.UNSUPPORTED


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
        # shifted centers a_i - a still have rank 1: the convex case
        lens = lens_instance()
        moved = Instance.from_data(lens.centers_matrix() + [0.0, 1e-3],
                                   lens.radii())
        report = regime_report(moved, solve_seb(moved))
        assert report.rank_centers == 2 and report.rank_shifted == 1
        assert report.regime is Regime.CONVEX

    def test_radius_squares_to_qp_value(self, rng):
        for n in (2, 3, 4):
            inst = random_supported_instance(rng, n)
            sol = solve_seb(inst)
            assert sol.radius**2 == pytest.approx(sol.qp_value, rel=1e-10)

    def test_status_soundness(self, rng):
        from seblab.linalg import numerical_rank

        for n in (2, 3):
            inst = random_supported_instance(rng, n)
            sol = solve_seb(inst)
            if sol.status is SolveStatus.CERTIFIED_OPTIMAL:
                rank = numerical_rank(inst.centers_matrix() - sol.center)
                assert rank < n or (rank == n and inst.m == n)


class TestCheckInterior:
    def test_lens(self):
        inst = lens_instance()
        sol = solve_seb(inst)
        nonempty, point = check_interior(inst, sol)
        assert nonempty and np.allclose(point, [0.0, 0.0], atol=1e-10)
        worst = max(q(point) for q in inst.quadratics())
        assert worst == pytest.approx(-sol.qp_value, abs=1e-9)

    def test_disjoint(self):
        inst = disjoint_instance()
        sol = solve_seb(inst)
        nonempty, point = check_interior(inst, sol)
        assert not nonempty and point is None

    def test_single_ball(self):
        inst = Instance.from_data([[1.0, 2.0]], [0.5])
        nonempty, point = check_interior(inst, solve_seb(inst))
        assert nonempty and np.allclose(point, [1.0, 2.0])

    def test_validation_failure_on_corrupted_solution(self):
        inst = lens_instance()
        sol = solve_seb(inst)
        bad = Solution(center=sol.center + 5.0, radius=sol.radius,
                       multipliers=sol.multipliers, qp_value=sol.qp_value,
                       status=sol.status)
        with pytest.raises(ValidationFailure):
            check_interior(inst, bad)

    def test_unconverged_solve(self):
        inst = random_supported_instance(np.random.default_rng(1), 12)
        sol = solve_seb(inst, max_iter=2)
        assert not sol.converged
        nonempty, point = check_interior(inst, sol)
        assert nonempty
        if point is not None:
            assert max(q(point) for q in inst.quadratics()) < 0.0
        understated = dataclasses.replace(sol, fw_gap=0.5 * sol.fw_gap)
        with pytest.raises(ValidationFailure):
            check_interior(inst, understated)


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
        a = inst.balls[0].center
        r2 = float(a @ a) - (float(a @ a) - inst.balls[0].radius ** 2)
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
    def test_vanishes_everywhere(self, rng):
        inst = lens_instance()
        sol = solve_seb(inst)
        assert abs(identity_residual(inst, sol, [7.0, -3.0])) < 1e-9
        assert abs(identity_residual(inst, sol, sol.center)) < 1e-9
        for _ in range(50):
            x = rng.standard_normal(2) * 10
            assert abs(identity_residual(inst, sol, x)) <= 1e-9 * (
                1.0 + float(x @ x))

    def test_batch_matches_per_point(self):
        rng = np.random.default_rng(7)
        inst = random_supported_instance(rng, 4)
        sol = solve_seb(inst)
        X = rng.standard_normal((50, 4)) * 5
        target = sol.target_quadratic()
        loop = [sum(w * eval_quadratic(q, x)
                    for w, q in zip(sol.multipliers, inst.quadratics()))
                - eval_quadratic(target, x) for x in X]
        batch = identity_residual(inst, sol, X)
        assert batch.shape == (50,)
        assert np.all(np.abs(batch - loop)
                      <= 1e-12 * (1.0 + np.einsum("ij,ij->i", X, X)))

    def test_unsupported_regime_identity_still_holds(self, rng):
        inst = unsupported_instance()
        sol = solve_seb(inst)
        for _ in range(50):
            x = rng.standard_normal(2) * 5
            assert abs(identity_residual(inst, sol, x)) <= 1e-9 * (
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
        inst = random_supported_instance(rng, 3)
        sol = solve_seb(inst)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rotated = Instance.from_data(inst.centers_matrix() @ Q.T, inst.radii())
        sol_q = solve_seb(rotated)
        assert np.allclose(sol_q.center, Q @ sol.center, atol=1e-8)
        assert sol_q.radius == pytest.approx(sol.radius, abs=1e-8)
        assert np.allclose(sol_q.multipliers, sol.multipliers, atol=1e-8)


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


class TestRegimeReport:
    def test_one_shifted_rank_per_solve(self, monkeypatch):
        from seblab import solver

        calls = []

        def counting(vectors, *args, **kwargs):
            calls.append(1)
            return numerical_rank(vectors, *args, **kwargs)

        monkeypatch.setattr(solver, "numerical_rank", counting)
        inst = critical_instance()
        sol = solve_seb(inst)
        report = regime_report(inst, sol)
        # classify's unshifted rank and the solve's shifted rank
        assert len(calls) == 2
        assert report.rank_shifted == sol.rank_shifted == 1

    @pytest.mark.parametrize("make, expected", [
        (lens_instance, (1, 1, Regime.CONVEX)),
        (critical_instance, (2, 1, Regime.CONVEX)),
        (disjoint_instance, (1, 1, Regime.CONVEX)),
        (unsupported_instance, (2, 2, Regime.UNSUPPORTED)),
        (lambda: Instance.from_data(lens_instance().centers_matrix()
                                    + [0.0, 1e-3], lens_instance().radii()),
         (2, 1, Regime.CONVEX)),
    ])
    def test_known_regimes(self, make, expected):
        inst = make()
        report = regime_report(inst, solve_seb(inst))
        assert (report.rank_centers, report.rank_shifted,
                report.regime) == expected


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
        nonempty, _ = check_interior(inst, sol)
        assert nonempty
        assert len(sample_intersection(inst, 10, seed=1)) == 10

    @pytest.mark.parametrize("seed, n", [(0, 96), (5001, 64), (5019, 64)])
    def test_large_square_gap_closes(self, seed, n):
        inst = random_supported_instance(np.random.default_rng(seed), n)
        sol = solve_seb(inst)
        assert sol.converged
        q, gap = certified_gap(inst, sol.multipliers)
        assert gap <= 1e-9 * q

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
