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
