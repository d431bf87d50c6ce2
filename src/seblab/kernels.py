"""Hot numerical kernels, one numpy implementation each.

`fw_minimize` (Wolfe's finite method on the centers, no Gram matrix) is
the one simplex-QP solver: the ball solver calls it, and `cloud_meb` calls
it for the exact minimum enclosing ball of a point cloud, started at a
diameter pair. It carries the inverse Cholesky factor of its support from
one major cycle to the next and borders it with each point that joins;
only a drop, or a step on an affinely dependent support, borders the
support again from its first point. One test decides dependence: the
norm of the joining point's least-squares residual against the support,
against 1e-6 of its own length. When it fails, the residual's
coefficients are the dependency along which the support loses a point,
so the kernel needs no SVD and no count of the points. Its one stop,
`rounding_stop`, is weighted by the points that carry weight, not set by
the largest one.
`grid_min_maxg` is the brute-force grid scan, which adds
per-axis tables into the grid by broadcasting, one ball at a time, and
scans its slabs best first, skipping those whose lower bound shows they
cannot hold the minimum. `hit_and_run` is the sampler's fallback for
intersections that fill too little of their enclosing ball for rejection
(in high dimension): it advances up to `CHAINS` hit-and-run chains
together as the columns of one array, drawing from its own
`np.random.default_rng(seed)`, so the global `np.random` state is never
read or changed and one seed gives one output. Its points are feasible
but correlated along each chain; the default rejection path in
`sampling` gives i.i.d. uniform points.

The grid scan works in slabs of at most `TILE` nodes (one row of nodes
when a row is larger), whatever it skips, and the sampler draws the
directions of at most `TILE` coordinates at once, so their working
memory is fixed and does not grow with the grid's node count or the
number of steps.
"""

import numpy as np

CHAINS = 256
# float64 values in one working block (256 KB): the nodes of a grid slab,
# the direction coordinates of a run of hit-and-run steps, or a rejection
# batch with its filter's temporaries
TILE = 1 << 15
# (R, u) of every one-point support: empty, so one is shared by all
_EMPTY_FACTOR = np.empty((0, 0)), np.empty(0)


# ---------------------------------------------------------------------------
# Wolfe's finite method for min |A^T mu|^2 - c^T mu on the simplex
# ---------------------------------------------------------------------------

def fw_minimize(A, c, max_iter, support=None):
    """Wolfe's finite method (Math. Programming 11, 1976) on the simplex.

    Minimizes q(mu) = |A^T mu|^2 - c^T mu over the unit simplex, A holding
    one point per row (m x n). Only the support T and its weights are
    kept, x = A_T^T w is rebuilt from them, so a gradient 2 A x - c costs
    O(mn) and no m x m matrix is formed. The start, by `_minor_cycles`
    from uniform weights, is the minimum of q over the convex hull of
    `support` (row indices; by default the best vertex argmin
    |a_i|^2 - c_i). Each major cycle adds the Frank-Wolfe vertex s
    (smallest gradient) to T, and `_minor_cycles` moves to the minimum of
    q over the convex hull of T + s.

    Between major cycles T is affinely independent and carries its factor
    (R, u), R of order |T| - 1 (empty for one point). `_border` extends it
    with s in O(kn + k^2), k = |T|, so a cycle that adds s and drops
    nothing refactors nothing. When the residual of s against the support
    is below 1e-6 of its length, `_border` returns instead the dependency
    of T + s that the residual's coefficients give, and the minor cycles
    step along it. Only after a drop, which such a step ends with, is the
    factor of the new support bordered again from its first point
    (`_factor`). Beside A the kernel holds two length-m vectors,
    `rounding_stop`'s sizes and one gradient buffer that every major cycle
    overwrites (A.dot(x, out=grad), then *= 2 and -= c: the operations of
    2 A x - c in their order) and that becomes the returned mu, read-only,
    so that `simplex_qp.QPResult` and the solution share it uncopied;
    the factor is O(k^2).

    The loop stops at `rounding_stop`, which the points that carry weight
    set, not the largest one, after max_iter major cycles, or when a cycle
    fails to lower q (rounding).

    Returns (mu, major cycles, gap), gap being the Frank-Wolfe gap
    grad^T mu - min_i grad_i over all m vertices at the returned mu.
    """
    unit, sizes = rounding_stop(A, c)
    # the one length-m buffer of the loop: the best vertex's values, then
    # the gradient of every major cycle, then the returned mu
    grad = np.empty(A.shape[0])
    if support is None:
        np.einsum("ij,ij->i", A, A, out=grad)
        grad -= c
        support = np.array([int(grad.argmin())])
    T, w, factor = _minor_cycles(A, c, support,
                                 np.full(support.size, 1.0 / support.size),
                                 _factor(A, c, support))
    last = np.inf
    for it in range(max_iter + 1):
        # ndarray.dot, not @, in the cycle: on operands this small the
        # dispatch of @ costs about as much as the product, and the
        # results are the same
        x = A[T].T.dot(w)
        A.dot(x, out=grad)
        grad *= 2.0
        grad -= c
        s = int(grad.argmin())
        gap = float(grad[T].dot(w)) - grad[s]
        xx = float(x.dot(x))
        value = xx - float(c[T].dot(w))
        if (gap <= unit * xx + sizes[T].dot(w) or it == max_iter
                or value >= last):
            break
        last = value
        T, w, factor = _minor_cycles(A, c, np.concatenate((T, [s])),
                                     np.concatenate((w, [0.0])),
                                     _border(A, c, T, factor, s))
    mu = grad
    mu.fill(0.0)
    mu[T] = w
    mu.setflags(write=False)
    return mu, it, gap


def rounding_stop(A, c):
    """The stop of `fw_minimize`, (u, s): stop at
    u |x|^2 + sum_{j in T} w_j s_j, that is at
    16 (n + m) eps (|x|^2 + sum_{j in T} w_j (2|a_j|^2 - c_j)), where
    2|a_j|^2 - c_j = |b_j|^2 + r_j^2 in a ball program. s is computed
    once, in place in one length-m vector, so the stop costs O(k) a
    cycle, and it follows the points that carry weight: a small answer
    beside a large ball runs until its own gap nears its own rounding."""
    m, n = A.shape
    unit = 16 * (n + m) * np.finfo(float).eps
    sizes = np.einsum("ij,ij->i", A, A)
    sizes *= 2.0
    sizes -= c
    sizes *= unit
    return unit, sizes


def _factor(A, c, T):
    """The factor of the support T, bordered point by point from the empty
    factor of T[:1] (`_border`), or, as soon as a border fails, the
    dependency that it returns, padded with zeros to the length of T."""
    factor = _EMPTY_FACTOR
    for k in range(1, T.size):
        factor = _border(A, c, T[:k], factor, T[k])
        if isinstance(factor, np.ndarray):
            return np.append(factor, np.zeros(T.size - k - 1))
    return factor


def _border(A, c, T, factor, s):
    """The factor of T + s, extended from `factor`, the factor (R, u) of
    the affinely independent support T (R empty for one point), or, when
    T + s fails the independence test, a dependency v over T + s:
    sum v = 0, and A_{T+s}^T v is the residual that failed the test.

    With a_0 = A[T[0]] and D the rows d_j = a_j - a_0 of T[1:], the factor
    is (R, u): R the inverse Cholesky factor of D D^T (lower triangular,
    R D D^T R^T = I) and u = R rhs with rhs_j = (c_j - c_0)/2 - d_j . a_0.
    The minimum of q on the affine hull of T is then y = (1 - sum z, z)
    with z = R^T u, the solution of (D D^T) z = rhs.

    With d = a_s - a_0, l = R D d and z = R^T l, the least-squares
    coefficients of d on the rows D, the new pivot is the norm of the
    residual r = d - D^T z. It must exceed 1e-6 |d|, its own row's length,
    so a far point cannot make a near one look dependent; taken as a norm,
    not as sqrt(|d|^2 - |l|^2), it has no sqrt(eps) floor of cancellation
    (Bjorck, Numerical Methods for Least Squares Problems, SIAM 1996).
    When T holds n + 1 points the rows D span R^n, so r is at rounding
    level and the test needs no count of the points. When the test fails, d = D^T z
    gives the dependency v = (sum z - 1, -z, 1). Otherwise the new row of
    R is [-z/p, 1/p] and the new entry of u is (rhs_s - l . u)/p. The rows
    D are gathered once, and no copy of A_T is held beside the factors.
    """
    R, u = factor
    a0 = A[T[0]]
    d = A[s] - a0
    D = A[T[1:]]
    D -= a0
    l = R.dot(D.dot(d))
    z = l.dot(R)
    r = d - z.dot(D)
    p = float(r.dot(r)) ** 0.5
    if not p > 1e-6 * float(d.dot(d)) ** 0.5:
        return np.concatenate(([z.sum() - 1.0], -z, [1.0]))
    k = T.size - 1
    grown = np.zeros((k + 1, k + 1))
    grown[:k, :k] = R
    grown[k, :k] = -z / p
    grown[k, k] = 1.0 / p
    rhs = 0.5 * (c[s] - c[T[0]]) - d.dot(a0)
    u = np.concatenate((u, [(rhs - l.dot(u)) / p]))
    return grown, u


def _minor_cycles(A, c, T, w, factor):
    """Minimum of q over the convex hull of the points T, from the weights
    w: (support, weights, factor of the support), the support affinely
    independent and its factor (R, u), empty for one point.

    `factor` is the factor of T or a dependency of T that `_border` or
    `_factor` returned. Move from w toward the minimum y of q on the
    affine hull of T until a weight reaches zero, drop that point, and
    repeat until y lies inside the hull. A y on a face of the hull, with
    exact zeros and no negative weight, needs no exit of its own: every
    point at zero has ratio 1, the least, so the step to y drops them
    all. When T fails the independence test, move instead along its
    dependency v, oriented so that c_T . v >= 0: x stays put and q does
    not rise, and the point whose weight reaches zero is dropped (a
    Caratheodory reduction). After a drop the factor of the smaller
    support is bordered again from its first point.
    """
    while T.size > 1:
        if isinstance(factor, np.ndarray):  # sum v = 0, A_T^T v ~ 0
            step = factor if c[T].dot(factor) >= 0.0 else -factor
        else:
            R, u = factor
            z = u.dot(R)
            y = np.concatenate(([1.0 - z.sum()], z))
            if y.min() > 0.0:
                return T, y, factor
            step = y - w
        neg = np.flatnonzero(step < 0.0)
        ratios = w[neg] / -step[neg]
        j = int(np.argmin(ratios))
        w = np.maximum(w + ratios[j] * step, 0.0)
        w[neg[j]] = 0.0
        T, w = T[w > 0.0], w[w > 0.0]
        factor = _factor(A, c, T)
    return T, np.ones(1), factor


# ---------------------------------------------------------------------------
# Hit-and-run chains inside an intersection of balls
# ---------------------------------------------------------------------------

def hit_and_run(centers, radii, start, count, burn_in, thin, seed):
    """`count` samples of the ball intersection via exact chords.

    min(count, CHAINS) chains start at `start`, run `burn_in` steps, then
    each keeps every `thin`-th point; rows come out one round of chains at
    a time until `count` rows exist. A step moves every chain along a
    random unit direction u to a uniform point of its chord: the line
    y + t*u meets ball i where t lies between the roots of a scalar
    quadratic, so every sample is exactly feasible. Coordinates are taken
    relative to `start`, which keeps the expanded |y - a_i|^2 free of
    cancellation however far the balls sit from the origin.

    The chains are the columns of the (n, chains) state, so the chord
    bounds reduce over the balls (axis 0) elementwise across rows. The
    directions and uniforms of a block of TILE // (n * CHAINS) steps (at
    least one) are drawn at once, so the directions fill at most `TILE`
    elements; memory is O(TILE + chains * m + count * n).
    """
    rng = np.random.default_rng(seed)
    n = centers.shape[1]
    block = max(1, TILE // (n * CHAINS))
    A = centers - start
    theta = (np.einsum("ij,ij->i", A, A) - radii * radii)[:, None]
    out = np.empty((count, n))
    Y = np.zeros((n, min(count, CHAINS)))

    def advance(Y, steps):
        k = Y.shape[1]
        for done in range(0, steps, block):
            size = min(block, steps - done)
            Us = rng.standard_normal((size, n, k))
            Us /= np.sqrt(np.einsum("sij,sij->sj", Us, Us))[:, None, :]
            for U, tau in zip(Us, rng.random((size, k))):
                # per ball and chain: |y + t u - a_i|^2 - r_i^2
                # = t^2 + 2 b t + c0
                b = np.einsum("ij,ij->j", U, Y) - A @ U
                c0 = np.einsum("ij,ij->j", Y, Y) - 2.0 * (A @ Y) + theta
                # a negative discriminant means the chord degenerates at
                # the boundary
                s = np.sqrt(np.maximum(b * b - c0, 0.0))
                tlo = -(b + s).min(axis=0)
                thi = (s - b).min(axis=0)
                t = tlo + (thi - tlo) * tau
                t[thi < tlo] = 0.0  # numerical corner: stay put
                Y = Y + t * U
        return Y

    Y = advance(Y, burn_in)
    k = 0
    while k < count:
        Y = advance(Y[:, :count - k], thin)
        out[k:k + Y.shape[1]] = Y.T
        k += Y.shape[1]
    return out + start


# ---------------------------------------------------------------------------
# Minimum enclosing ball of a point cloud
# ---------------------------------------------------------------------------

def cloud_meb(points, iterations):
    """Exact minimum enclosing ball of the rows of `points`: (center, radius).

    The point MEB is the simplex program with r_i = 0, solved by
    `fw_minimize` on the points centred on the first one (c_i = |p_i|^2
    there). It starts at the midpoint of a diameter pair, as Gaertner's
    farthest-point start ("Fast and robust smallest enclosing balls", ESA
    1999): the point j farthest from the first and the point k farthest
    from j (the default start when every point is the same, j = k). On the
    `verify-lab` clouds of seeds 1-3 (2,000 points, n <= 3) that takes the
    mean count of major cycles from 6.91 to 4.87. It stops where the ball
    program does, at `rounding_stop` (with c_i = |p_i|^2 its sizes are
    |p_i|^2), when a major cycle no longer lowers q, or after `iterations`
    major cycles (0 keeps the diameter pair's midpoint); the radius is the
    largest distance from the center to a point.

    Each O(Nn) difference is formed once: the diameter pair's is freed
    before the kernel runs, and the radius pass writes points - center over
    the centred points, which it no longer needs. On a 100,000-point cloud
    in R^3 the call peaks at 2.7 times the cloud's bytes.
    """
    o = points[0]
    P = points - o
    c = np.einsum("ij,ij->i", P, P)
    j = int(np.argmax(c))
    D = P - P[j]
    k = int(np.argmax(np.einsum("ij,ij->i", D, D)))
    del D
    mu, _, _ = fw_minimize(P, c, iterations,
                           None if j == k else np.array([j, k]))
    center = o + P.T @ mu
    np.subtract(points, center, out=P)  # the centred points are done with
    return center, float(np.sqrt(np.einsum("ij,ij->i", P, P).max()))


# ---------------------------------------------------------------------------
# Exhaustive grid minimization of max_i g_i(x) over a box
# ---------------------------------------------------------------------------

def grid_min_maxg(centers, radii, lo, hi, resolution):
    """Minimum over a regular (resolution+1)^n grid of max_i g_i(x).

    g_i(x) = sum_d (x_d - a_{i,d})^2 - r_i^2 separates over the axes, so
    each ball needs only n tables of length resolution+1. The grid is cut
    along its first axis into the slabs of `_slabs`, and the slabs are
    scanned best first: in ascending order of their lower bounds, until a
    bound exceeds the best value found by more than a rounding margin,
    64 eps max_i (|far_i|^2 + r_i^2) with far_i the box's farther face from
    a_i per axis (the scale of `sampling.grid_resolution_bound`). No node
    of a skipped slab can hold the minimum, so the value is the whole
    grid's.

    Per slab, each ball's tables are added up by broadcasting, in the same
    order as over the whole grid, into one of two slab buffers made once
    per call: the first ball's values are the slab's running maximum,
    which the other balls raise in place, and the slab minimum is folded
    into the result. Every node's arithmetic is that of an untiled scan,
    so the value is too, bit for bit. Differences x_d - a_{i,d} are taken
    per axis, so no |x|^2 cancels. Memory is
    O(max(TILE, (resolution+1)^(n-1)) + n resolution), not two whole
    grids, and reusing the buffers spares the page faults of a fresh
    slab-sized array per ball.
    """
    n, k = lo.size, resolution + 1
    axes = np.linspace(lo, hi, k, axis=1)
    rows, bounds = _slabs(centers, radii, axes)
    far = np.maximum(np.abs(lo - centers), np.abs(hi - centers))
    margin = 64.0 * np.finfo(float).eps * float(
        (np.einsum("ij,ij->i", far, far) + radii * radii).max())
    slab = (rows,) + (k,) * (n - 1)
    best_rows, next_rows = np.empty(slab), np.empty(slab)
    value = np.inf
    for j in np.argsort(bounds, kind="stable"):
        if bounds[j] > value + margin:
            break
        s = int(j) * rows
        best = best_rows[:k - s]
        for i, (a, r) in enumerate(zip(centers, radii)):
            # the ball's values on the slab, summed in the untiled order;
            # the last operation writes them into the slab buffer
            dest = next_rows[:k - s] if i else best
            g = np.subtract((axes[0, s:s + rows] - a[0]) ** 2, r * r,
                            out=dest if n == 1 else None)
            for d in range(1, n):
                g = np.add(g[..., None], (axes[d] - a[d]) ** 2,
                           out=dest if d == n - 1 else None)
            if i:
                np.maximum(best, dest, out=best)
        value = min(value, float(best.min()))
    return value


def _slabs(centers, radii, axes):
    """The grid's slabs along its first axis: (rows, bounds).

    Slab j holds the node rows j*rows up to (j+1)*rows (fewer in the last
    slab): at most ceil(k/32) rows of the k per axis, so that most slabs
    lie far enough from the minimum to be skipped, and at most `TILE`
    nodes (one row when a row alone is larger). bounds[j] is
    max_i (dist(a_i, box_j)^2 - r_i^2), box_j the slab's bounding box,
    which no node of the slab undercuts but by rounding: computed for
    every slab and ball at once.
    """
    n, k = axes.shape
    rows = max(1, min(-(-k // 32), TILE // k ** (n - 1)))
    starts = np.arange(0, k, rows)
    first = axes[0, starts]
    last = axes[0, np.minimum(starts + rows, k) - 1]
    a = centers.T
    # per axis, how far each center lies outside the box's span
    d0 = np.maximum(np.maximum(np.minimum(first, last)[:, None] - a[0],
                               a[0] - np.maximum(first, last)[:, None]), 0.0)
    ends = axes[1:, [0, -1]]
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    rest = np.maximum(np.maximum(lo[:, None] - a[1:], a[1:] - hi[:, None]),
                      0.0)
    dist2 = d0 * d0 + np.einsum("dm,dm->m", rest, rest)
    return rows, (dist2 - radii * radii).max(axis=1)
