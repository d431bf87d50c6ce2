"""Acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
``ACCEPT nn PASS`` / ``ACCEPT nn FAIL`` line (visible with ``pytest -s`` or in
captured output on failure).
"""

import math

import numpy as np
import pytest

from conftest import (
    disjoint_instance,
    example_map,
    lens_instance,
    random_rank_deficient_map,
    random_supported_instance,
    unsupported_instance,
)
from seblab.geometry import Instance, SolveStatus, UnitQuadratic
from seblab.numrange import (
    QuadraticMap,
    convexity_probe,
    eval_map,
    in_pair_hull,
    in_range,
    separation_probe,
)
from seblab.sampling import (
    cloud_meb,
    farthest_distance,
    grid_min_maxg,
    grid_resolution_bound,
    sample_intersection,
)
from seblab.simplex_qp import build_qp, support_oracle
from seblab.solver import (
    RankRegime,
    Regime,
    build_certificate,
    classify,
    solve_seb,
)

N_INSTANCES = 50
CLOUD_SIZE = 10_000


def report(number, ok):
    print(f"ACCEPT {number:02d} {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed"


@pytest.fixture(scope="module")
def batch():
    """50 random supported instances with solutions, shared across criteria."""
    rng = np.random.default_rng(715517)
    items = []
    for i in range(N_INSTANCES):
        n = (2, 3, 4)[i % 3]
        inst = random_supported_instance(rng, n)
        items.append((inst, solve_seb(inst)))
    return items


@pytest.fixture(scope="module")
def clouds(batch):
    return [
        sample_intersection(inst, CLOUD_SIZE, seed=i, start=sol.center)
        for i, (inst, sol) in enumerate(batch)
    ]


def test_01_example_values():
    qm = example_map()
    ok = (np.array_equal(eval_map(qm, [1.0, 0.0]), [1.0, 1.0, -1.0])
          and np.array_equal(eval_map(qm, [0.0, 1.0]), [1.0, -1.0, 1.0]))
    z = [1.0, 0.0, 0.0]
    ok = ok and not in_range(qm, z).member
    hull = in_pair_hull(qm, z)
    ok = ok and hull.member
    ok = ok and abs(hull.margin - (-0.5)) <= 1e-9
    # graph coordinates y = (1, 1), t = 0: the graph value there is -1.5
    ok = ok and abs(in_pair_hull(qm, [0.0, 1.0, 1.0]).margin - (-1.5)) <= 1e-9
    report(1, ok)


def test_02_lens_instance():
    inst = lens_instance()
    sol = solve_seb(inst)
    ok = (np.allclose(sol.center, [0.0, 0.0], atol=1e-8)
          and abs(sol.radius - 1.0) <= 1e-8
          and np.allclose(sol.multipliers, [0.5, 0.5], atol=1e-8))
    q_exact, _ = support_oracle(build_qp(inst))
    ok = ok and abs(q_exact - sol.qp_value) <= 1e-12 * inst.scale()
    for corner in ([0.0, 1.0], [0.0, -1.0]):
        ok = ok and abs(np.linalg.norm(np.array(corner) - sol.center)
                        - sol.radius) <= 1e-8
    report(2, ok)


def test_03_critical_instance():
    # n = m = 2 with full-rank centers, but the gate is the centers' affine
    # rank, 1: convex at any translation
    inst = Instance.from_data([[1.0, 0.0], [0.0, 1.0]], [2.0, 2.0])
    sol = solve_seb(inst)
    ok = (np.allclose(sol.center, [0.5, 0.5], atol=1e-8)
          and abs(sol.radius - math.sqrt(3.5)) <= 1e-8)
    q_exact, _ = support_oracle(build_qp(inst))
    ok = ok and abs(q_exact - sol.qp_value) <= 1e-12 * inst.scale()
    for shift in ([0.0, 0.0], [0.0, 5.0], [-0.5, -0.5]):
        moved = Instance.from_data(inst.centers_matrix() + shift,
                                   inst.radii())
        ok = ok and classify(moved) == RankRegime(1, Regime.CONVEX)
    report(3, ok)


def bracket(inst, sol):
    """(q(mu), -max_i g_i(a)), recomputed from the multipliers, the center
    and the balls: weak duality puts the QP optimum between them."""
    A = inst.centers_matrix()
    r2 = inst.radii() ** 2
    mu = sol.multipliers
    a = A[0] + mu @ (A - A[0])
    D = A - a
    q = float(mu @ (r2 - np.einsum("ij,ij->i", D, D)))
    D = A - sol.center
    return q, -float((np.einsum("ij,ij->i", D, D) - r2).max())


def test_04_duality_bracket(batch):
    # the multipliers lie on the simplex and the returned ball is the upper
    # end of a bracket closed to 1e-9, so a radius shrunk by 1 % falls
    # below its lower end
    ok = True
    for inst, sol in batch:
        mu = sol.multipliers
        ok = ok and mu.min() >= 0.0 and abs(mu.sum() - 1.0) <= 1e-12
        q, lb = bracket(inst, sol)
        ok = ok and q - lb <= 1e-9 * q
        ok = ok and abs(sol.radius ** 2 - q) <= 1e-12 * q
        ok = ok and (0.99 * sol.radius) ** 2 < lb
    report(4, ok)


def test_05_lmi_certificate(batch):
    ok = True
    for inst, sol in batch:
        cert = build_certificate(inst, sol)
        ok = ok and abs(cert.alpha) <= 1e-7
        ok = ok and float(np.linalg.norm(cert.offdiag)) <= 1e-7
        ok = ok and abs(cert.beta) <= 1e-7
        ok = ok and cert.psd_ok
    report(5, ok)


def test_06_optimality_vs_oracle(batch):
    ok = True
    for inst, sol in batch:
        q_exact, _ = support_oracle(build_qp(inst))
        ok = ok and abs(sol.qp_value - q_exact) <= max(
            sol.fw_gap, 1e-12 * abs(q_exact))
        ok = ok and sol.fw_gap <= 1e-10 * inst.scale()
    report(6, ok)


def test_07_containment_sampling(batch, clouds):
    ok = True
    for (inst, sol), cloud in zip(batch, clouds):
        ok = ok and farthest_distance(cloud, sol.center) <= sol.radius + 1e-6
    report(7, ok)


def test_08_lower_bound_sandwich():
    # the exact ball of a cloud inside the intersection is at most the
    # solver's ball, and a mixing sampler brings it close
    inst = lens_instance()
    sol = solve_seb(inst)
    cloud = sample_intersection(inst, CLOUD_SIZE, seed=8, start=sol.center)
    _, r = cloud_meb(cloud)
    report(8, 0.9 * sol.radius <= r <= sol.radius * (1 + 1e-9))


def test_09_convexity_probe():
    rng = np.random.default_rng(909)
    ok = True
    for i in range(20):
        n = int(rng.integers(2, 5))
        qm = random_rank_deficient_map(rng, n=n, m=n)
        rep = convexity_probe(qm, CLOUD_SIZE, seed=i)
        ok = ok and len(rep.counterexamples) == 0
    qm = example_map()
    rep = convexity_probe(qm, 100, seed=1)
    found = len(rep.counterexamples) > 0
    found = found and not any(in_range(qm, ce[3]).member
                              for ce in rep.counterexamples)
    report(9, ok and found)


def test_10_separation_probe(batch, clouds):
    ok = True
    checked = 0
    for (inst, sol), cloud in zip(batch, clouds):
        if sol.status is not SolveStatus.CERTIFIED_OPTIMAL:
            continue
        qm = QuadraticMap.from_instance(inst, sol.target_quadratic())
        rep = separation_probe(qm, CLOUD_SIZE, seed=10)
        ok = ok and not rep.range_hits and not rep.hull_hits
        if checked < 5:
            shrunk = UnitQuadratic(sol.center, (0.9 * sol.radius) ** 2)
            qm_s = QuadraticMap.from_instance(inst, shrunk)
            rep_s = separation_probe(qm_s, CLOUD_SIZE, seed=10,
                                     extra_points=cloud.points)
            ok = ok and len(rep_s.range_hits) > 0
        checked += 1
    report(10, ok and checked > 0)


def test_11_slater_identity():
    rng = np.random.default_rng(1111)
    ok = True
    for i in range(20):
        n = (2, 3)[i % 2]
        inst = random_supported_instance(rng, n)
        sol = solve_seb(inst)
        res = 301 if n == 2 else 81
        val = grid_min_maxg(inst, res)
        bound = grid_resolution_bound(inst, res)
        ok = ok and val >= -sol.qp_value - 1e-9
        ok = ok and val <= -sol.qp_value + bound
    disj = disjoint_instance()
    sol = solve_seb(disj)
    ok = ok and sol.status is SolveStatus.EMPTY_INTERIOR
    ok = ok and grid_min_maxg(disj, 241) > 0.0
    report(11, ok)


def test_12_unsupported_regime():
    inst = unsupported_instance()
    sol = solve_seb(inst)
    ok = sol.status is SolveStatus.UPPER_BOUND_ONLY
    # the QP's bracket closes here too; only the claim of minimality fails
    q, lb = bracket(inst, sol)
    ok = ok and q - lb <= 1e-9 * q
    ok = ok and abs(sol.radius ** 2 - q) <= 1e-12 * q
    cert = build_certificate(inst, sol)
    ok = ok and cert.psd_ok and abs(cert.alpha) <= 1e-7
    ok = ok and float(np.linalg.norm(cert.offdiag)) <= 1e-7
    ok = ok and abs(cert.beta) <= 1e-7
    cloud = sample_intersection(inst, CLOUD_SIZE, seed=12, start=sol.center)
    ok = ok and farthest_distance(cloud, sol.center) <= sol.radius + 1e-6
    report(12, ok)


def test_13_equivariance():
    rng = np.random.default_rng(1313)
    ok = True
    for i in range(10):
        n = (2, 3, 4)[i % 3]
        inst = random_supported_instance(rng, n)
        sol = solve_seb(inst)
        for _ in range(10):
            Q, _r = np.linalg.qr(rng.standard_normal((n, n)))
            t = rng.standard_normal(n) * 3
            moved = Instance.from_data(
                inst.centers_matrix() @ Q.T + t, inst.radii())
            sol_m = solve_seb(moved)
            ok = ok and np.allclose(sol_m.center, Q @ sol.center + t,
                                    atol=1e-8)
            ok = ok and abs(sol_m.radius - sol.radius) <= 1e-8
            ok = ok and np.allclose(sol_m.multipliers, sol.multipliers,
                                    atol=1e-8)
    report(13, ok)
