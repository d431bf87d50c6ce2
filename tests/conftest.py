import importlib
import math
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from seblab import Instance, UnitQuadratic
from seblab.linalg import numerical_rank
from seblab.numrange import QuadraticMap

SQRT2 = math.sqrt(2.0)
BENCH = Path(__file__).resolve().parent.parent / "bench"
BENCH_MODULES = ("checks", "run", "spans", "workloads")


def matrix_rank(vectors, magnitude=0.0):
    """`numerical_rank` of a list of vectors, from its singular values;
    `magnitude` bounds the coordinates the vectors were differenced from
    (0 for vectors that are data of their own)."""
    V = np.atleast_2d(np.asarray(vectors, dtype=float))
    return numerical_rank(np.linalg.svd(V, compute_uv=False), V.shape,
                          magnitude)


def lens_instance():
    """Two balls of radius sqrt(2) centered at (+-1, 0); optimal ball is the
    unit disk (the circles cross at (0, +-1))."""
    return Instance.from_data([[-1.0, 0.0], [1.0, 0.0]], [SQRT2, SQRT2])


def lens_3d_instance():
    """The lens in R^3: two balls of radius sqrt(2) centered at
    (+-1, 0, 0); the optimal ball is the unit ball."""
    return Instance.from_data([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                              [SQRT2, SQRT2])


def critical_instance():
    """Centers (1,0) and (0,1), radii 2: the absolute centers have rank
    n = m = 2, but their affine rank, the solver's gate, is 1 (convex);
    optimum at (1/2, 1/2) with radius sqrt(3.5)."""
    return Instance.from_data([[1.0, 0.0], [0.0, 1.0]], [2.0, 2.0])


def disjoint_instance():
    return Instance.from_data([[-5.0, 0.0], [5.0, 0.0]], [1.0, 1.0])


def unsupported_instance():
    """n = 2, m = 3, full-rank centers: minimality is not certified."""
    return Instance.from_data([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                              [2.0, 2.0, 2.0])


CORPUS_FAMILIES = ("nested", "lens", "tangent", "disjoint", "random")
# checked by its known q*, not by support_oracle (see
# test_solver.py::TestFarBall)
FAR_BALL = "far ball"


def corpus_case(rng, family, n):
    """Centers and radii of one case of the family, before it is moved."""
    e1 = np.eye(n)[0]
    if family == "nested":
        t = 10.0 ** rng.uniform(-7, -1)
        return np.array([np.zeros(n), 0.5 * e1]), np.array([t, 1.0])
    if family == "lens":
        t = 10.0 ** rng.uniform(-7, -1)
        return (np.array([-t * e1, t * e1, 0.5 * e1]),
                np.array([t * SQRT2, t * SQRT2, 1.0]))
    r = rng.uniform(0.5, 2.0, 2)
    if family == "tangent":
        return np.array([np.zeros(n), (r[0] + r[1]) * e1]), r
    if family == "disjoint":
        d = (r[0] + r[1]) * (1.0 + 10.0 ** rng.uniform(-6, 0))
        return np.array([np.zeros(n), d * e1]), r
    if family == FAR_BALL:
        D = 10.0 ** rng.uniform(8, 12)
        return (np.array([-e1, e1, D * np.eye(n)[1]]),
                np.array([SQRT2, SQRT2, D - 0.5]))
    m = int(rng.integers(n, n + 3))
    C = rng.standard_normal((m, n))
    p = 0.3 * rng.standard_normal(n)
    return C, np.linalg.norm(C - p, axis=1) + rng.uniform(0.01, 1.0, m)


def corpus(family, count=120):
    """Seeded cases of a family in R^2 and R^3: a small ball inside a large
    one and a tiny lens beside it (sizes 1e-7 to 1e-1 of the large ball),
    tangent pairs, pairs apart by 1e-6 to 1 of their radii, random
    supported balls, and a unit lens cut by a ball 1e8 to 1e12 away; each
    rotated, moved by up to 1e6 and scaled by 1e-6 to 1e6, with its balls
    permuted."""
    rng = np.random.default_rng(
        [2029, (CORPUS_FAMILIES + (FAR_BALL,)).index(family)])
    for _ in range(count):
        n = int(rng.integers(2, 4))
        C, r = corpus_case(rng, family, n)
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        shift = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(0, 6)
        s = 10.0 ** rng.uniform(-6, 6)
        perm = rng.permutation(r.size)
        yield Instance.from_data((s * (C @ Q.T + shift))[perm], s * r[perm])


def example_map():
    """The 2-D non-convex range: target center (1,1), components centered at
    (0,1) and (1,0), every quadratic vanishing at the origin."""
    inst = Instance.from_data([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0])
    target = UnitQuadratic(a=np.array([1.0, 1.0]), rho=2.0)
    return QuadraticMap.from_instance(inst, target)


def random_supported_instance(rng, n, slack=0.5):
    """n = m instance with i.i.d. normal centers and radii guaranteeing a
    common interior point."""
    while True:
        centers = rng.standard_normal((n, n))
        if np.linalg.matrix_rank(centers) == n:
            break
    p = rng.standard_normal(n) * 0.3
    radii = np.linalg.norm(centers - p, axis=1) + slack + rng.uniform(0.0, 0.5, n)
    return Instance.from_data(centers, radii)


def tall_instance(n, m):
    """m balls in R^n with normal centers, seeded by (n, m), whose radii
    leave a common interior point near the origin."""
    rng = np.random.default_rng([n, m])
    centers = rng.standard_normal((m, n))
    p = 0.3 * rng.standard_normal(n)
    radii = (np.linalg.norm(centers - p, axis=1) + 0.5
             + rng.uniform(0.0, 0.5, m))
    return Instance.from_data(centers, radii)


def random_rank_deficient_map(rng, n=3, m=3):
    """Quadratic map with rank{a_i - a} < n (convex range)."""
    a = rng.standard_normal(n)
    W = rng.standard_normal((n, n - 1))
    centers = a[None, :] + rng.standard_normal((m, n - 1)) @ W.T
    target = UnitQuadratic(a=a, rho=rng.uniform(0.5, 2.0) ** 2)
    return QuadraticMap(centers=centers, rho=rng.uniform(0.5, 2.0, m) ** 2,
                        target=target)


def traced_peak_mb(fn, *args):
    """Peak memory in MB that tracemalloc sees `fn(*args)` allocate, above
    what was already allocated when the call began."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture
def rng(request):
    """A generator of the test's own: seeded from its id, so its inputs do
    not depend on which tests ran before it or were selected with it."""
    return np.random.default_rng(zlib.crc32(request.node.nodeid.encode()))


@pytest.fixture(scope="module")
def bench():
    """The benchmark's modules, imported as `bench/run.py` imports them and
    only read."""
    sys.path.insert(0, str(BENCH))
    try:
        yield {name: importlib.import_module(name) for name in BENCH_MODULES}
    finally:
        sys.path.remove(str(BENCH))
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)
