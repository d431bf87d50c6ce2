"""Correctness checks computed apart from the program, and negative controls.

No check calls a seblab function: each recomputes what it needs from the
input balls and the returned outputs, or tests a property the method must
have.  None compares against stored outputs.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from seblab.geometry import SolveStatus
from seblab.sampling import SampleCloud
from workloads import MEB_ITERATIONS

# Stated accuracy: a solve is accurate when its certified gap is at most
# ACCURACY * q(mu), which puts the radius within ACCURACY / 2 of optimal.
ACCURACY = 1e-9
# Round-off allowance, relative to the largest |a_i|^2 + r_i^2.
ROUNDOFF = 1e-12


def _rowdot(X, Y):
    return np.einsum("ij,ij->i", X, Y)


@dataclass(frozen=True)
class Quality:
    """The certified gap of multipliers mu, from mu and the balls alone.

    With a = sum mu_i a_i, q(mu) = |a|^2 - sum mu_i (|a_i|^2 - r_i^2) and
    g_i(a) = |a - a_i|^2 - r_i^2, gap = q(mu) + max_i g_i(a).  It equals the
    Frank-Wolfe gap and brackets r*^2 in [-max_i g_i(a), q(mu)].
    """

    q: float
    gap: float
    support: int

    @property
    def rel_gap(self):
        return self.gap / self.q if self.q > 0 else np.inf

    @property
    def accurate(self):
        return self.q > 0 and self.gap <= ACCURACY * self.q


def quality(instance, mu):
    A = instance.centers_matrix()
    r2 = instance.radii() ** 2
    a = A.T @ mu
    q = float(a @ a - mu @ (_rowdot(A, A) - r2))
    g = _rowdot(A - a, A - a) - r2
    return Quality(q=q, gap=q + float(g.max()),
                   support=int(np.count_nonzero(mu > 0)))


def _tolerance(instance):
    A = instance.centers_matrix()
    return ROUNDOFF * float((_rowdot(A, A) + instance.radii() ** 2).max())


def containment_problems(instance, solution, points):
    """Every point lies in every input ball and in the solver's ball."""
    tol = _tolerance(instance)
    A = instance.centers_matrix()
    r2 = instance.radii() ** 2
    d2 = ((points[:, None, :] - A[None, :, :]) ** 2).sum(axis=2)
    problems = []
    worst = float((d2 - r2[None, :]).max())
    if worst > tol:
        problems.append(f"containment: a point lies {worst:.3e} outside an "
                        f"input ball (squared distance)")
    diff = points - solution.center
    worst = float(_rowdot(diff, diff).max()) - solution.radius ** 2
    if worst > tol:
        problems.append(f"containment: a point lies {worst:.3e} outside the "
                        f"solver's ball (squared distance)")
    return problems


def solution_problems(item, solution, qual):
    """Checks on a Solution; returns a list of 'check: detail' strings."""
    instance = item.instance
    A = instance.centers_matrix()
    radii = instance.radii()
    tol = _tolerance(instance)
    mu = solution.multipliers
    gap = max(qual.gap, 0.0)
    r2 = solution.radius ** 2
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(what)

    need(mu.min() >= -1e-15 and abs(mu.sum() - 1.0) <= 1e-12,
         f"simplex: min mu {mu.min():.3e}, sum mu - 1 {mu.sum() - 1.0:.3e}")
    off = float(np.linalg.norm(solution.center - A.T @ mu))
    need(off <= 1e-12 * (1.0 + np.linalg.norm(A, axis=1).max()),
         f"center: |center - A^T mu| = {off:.3e}")
    need(abs(r2 - qual.q) <= tol,
         f"radius: radius^2 - q(mu) = {r2 - qual.q:.3e}")
    need(solution.fw_gap >= qual.gap - tol,
         f"gap: reported {solution.fw_gap:.3e} understates the certified "
         f"gap {qual.gap:.3e}")
    depth = float((radii - np.linalg.norm(A - item.interior, axis=1)).min())
    need(depth <= solution.radius * (1.0 + 1e-12),
         f"bounds: interior depth {depth:.6g} exceeds radius "
         f"{solution.radius:.6g}")
    need(r2 <= radii.min() ** 2 + gap + tol,
         f"bounds: radius^2 {r2:.6g} exceeds min r_i^2 + gap")
    expected = item.expected_status()
    need(solution.status is expected,
         f"status: {solution.status.value}, rank gate says {expected.value}")
    if item.center is not None:
        need(1.0 - tol <= r2 <= 1.0 + gap + tol,
             f"known: radius^2 {r2!r} is not 1 within the certified gap")
        shift = solution.center - item.center
        need(float(shift @ shift) <= gap + tol,
             f"known: center is {np.linalg.norm(shift):.3e} from the optimum")
    return problems


def check_solve(item, out):
    """(Quality, problems) for a solve_op output."""
    qual = quality(item.instance, out.solution.multipliers)
    problems = solution_problems(item, out.solution, qual)
    if out.regime.rank_shifted != item.rank:
        problems.append(f"status: rank_shifted {out.regime.rank_shifted}, "
                        f"generator built rank {item.rank}")
    cert = out.certificate
    tol = _tolerance(item.instance)
    if cert is None:
        problems.append("certificate: missing")
    elif not (cert.psd_ok and abs(cert.alpha) <= 1e-12 and abs(cert.beta) <= tol
              and np.linalg.norm(cert.offdiag) <= tol):
        problems.append(f"certificate: alpha {cert.alpha:.3e}, "
                        f"|offdiag| {np.linalg.norm(cert.offdiag):.3e}, "
                        f"beta {cert.beta:.3e}, psd_ok {cert.psd_ok}")
    return qual, problems


def check_verify(item, out):
    """(Quality, problems) for a verify_op output."""
    instance = item.instance
    sol = out.solution
    qual = quality(instance, sol.multipliers)
    problems = solution_problems(item, sol, qual)
    tol = _tolerance(instance)
    points = out.cloud.points
    problems += containment_problems(instance, sol, points)

    diff = points - sol.center
    farthest = float(np.sqrt(_rowdot(diff, diff).max()))
    if abs(out.farthest - farthest) > 1e-12 * (1.0 + farthest):
        problems.append(f"farthest: {out.farthest!r}, recomputed {farthest!r}")

    diff = points - out.meb_center
    covers = float(np.sqrt(_rowdot(diff, diff).max()))
    diff = points - points[0]
    half_width = 0.5 * float(np.sqrt(_rowdot(diff, diff).max()))
    # Badoiu-Clarkson: T steps end within a factor 1 + 1/sqrt(T) of the
    # cloud's own enclosing ball, which the solver's ball contains.
    limit = sol.radius * (1.0 + 1.0 / np.sqrt(MEB_ITERATIONS))
    if not (abs(out.meb_radius - covers) <= 1e-12 * (1.0 + covers)
            and half_width * (1.0 - 1e-12) <= out.meb_radius <= limit):
        problems.append(f"cloud_meb: radius {out.meb_radius:.6g}, covers "
                        f"{covers:.6g}, half width {half_width:.6g}, "
                        f"limit {limit:.6g}")

    low = -qual.q - tol
    high = -qual.q + out.grid_bound + max(qual.gap, 0.0) + tol
    if not low <= out.grid_value <= high:
        problems.append(f"grid: {out.grid_value:.6g} not in "
                        f"[{low:.6g}, {high:.6g}]")
    if out.convexity.counterexamples:
        problems.append(f"probes: {len(out.convexity.counterexamples)} "
                        f"convexity counterexamples in the convex regime")
    if out.separation.range_hits or out.separation.hull_hits:
        problems.append(f"probes: {len(out.separation.range_hits)} range and "
                        f"{len(out.separation.hull_hits)} hull hits for the "
                        f"solver's ball")
    return qual, problems


def negative_controls(item, out, check):
    """Corrupt one output at a time; the named check must reject each.

    Returns {control name: rejected}.
    """
    instance = item.instance
    sol = out.solution
    A = instance.centers_matrix()

    # Move mu halfway to its lightest vertex and keep the reported gap.
    mu = 0.5 * sol.multipliers
    mu[int(np.argmin(sol.multipliers))] += 0.5
    q = quality(instance, mu).q
    understated = dataclasses.replace(sol, multipliers=mu, center=A.T @ mu,
                                      radius=float(np.sqrt(q)), qp_value=q)
    shrunk = dataclasses.replace(sol, radius=0.99 * sol.radius)
    wrong = (SolveStatus.UPPER_BOUND_ONLY
             if sol.status is SolveStatus.CERTIFIED_OPTIMAL
             else SolveStatus.CERTIFIED_OPTIMAL)
    flipped = dataclasses.replace(sol, status=wrong)
    outside = A[0].copy()
    outside[0] += 1.01 * instance.radii()[0]

    def rejects(check_name, problems):
        return any(p.startswith(check_name + ":") for p in problems)

    rejected = {}
    for name, bad, check_name in (("radius shrunk by 1%", shrunk, "radius"),
                                  ("understated gap", understated, "gap"),
                                  ("wrong status", flipped, "status")):
        _, problems = check(item, dataclasses.replace(out, solution=bad))
        rejected[name] = rejects(check_name, problems)
    points = np.vstack([item.interior, outside])
    rejected["point outside a ball"] = rejects(
        "containment", containment_problems(instance, sol, points))
    if isinstance(getattr(out, "cloud", None), SampleCloud):
        cloud = SampleCloud(points=np.vstack([out.cloud.points[1:], outside]),
                            seed=out.cloud.seed, method=out.cloud.method)
        _, problems = check(item, dataclasses.replace(out, cloud=cloud))
        rejected["cloud point outside a ball"] = rejects("containment",
                                                         problems)
    return rejected
