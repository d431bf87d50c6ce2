"""Hot numerical kernels, one numpy implementation each.

`fw_minimize` (Wolfe's finite method on the centers, no Gram matrix) is
the one simplex-QP solver: the ball solver calls it, and `cloud_meb` calls
it for the exact minimum enclosing ball of a point cloud, started at a
diameter pair. `grid_min_maxg` is the brute-force grid scan, which adds
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


# ---------------------------------------------------------------------------
# Wolfe's finite method for min |A^T mu|^2 - c^T mu on the simplex
# ---------------------------------------------------------------------------

def fw_minimize(A, c, tol_gap, max_iter, support=None):
    """Wolfe's finite method (Math. Programming 11, 1976) on the simplex.

    Minimizes q(mu) = |A^T mu|^2 - c^T mu over the unit simplex, A holding
    one point per row (m x n). Only the support T and its weights are
    kept, x = A_T^T w is rebuilt from them, so a gradient 2 A x - c costs
    O(mn) and no m x m matrix is formed. The start is the best vertex,
    argmin |a_i|^2 - c_i, or, when `support` (row indices) is given, the
    minimum of q over the convex hull of those rows. Each major cycle adds
    the Frank-Wolfe vertex (smallest gradient) to T, and `_minor_cycles`
    moves to the minimum of q over the convex hull of T. The loop stops at
    gap <= tol_gap, after max_iter major cycles, or when a cycle fails to
    lower q (rounding).

    Returns (mu, major cycles, gap), gap being the Frank-Wolfe gap
    grad^T mu - min_i grad_i over all m vertices at the returned mu.
    """
    if support is None:
        T = np.array([int(np.argmin(np.einsum("ij,ij->i", A, A) - c))])
        w = np.ones(1)
    else:
        T, w = _minor_cycles(A, c, support,
                             np.full(support.size, 1.0 / support.size))
    last = np.inf
    for it in range(max_iter + 1):
        x = A[T].T @ w
        grad = 2.0 * (A @ x) - c
        s = int(np.argmin(grad))
        gap = float(grad[T] @ w) - grad[s]
        value = float(x @ x - c[T] @ w)
        if gap <= tol_gap or it == max_iter or value >= last:
            mu = np.zeros(A.shape[0])
            mu[T] = w
            return mu, it, gap
        last = value
        T, w = _minor_cycles(A, c, np.append(T, s), np.append(w, 0.0))


def _minor_cycles(A, c, T, w):
    """Minimum of q over the convex hull of the points T: (support, weights).

    The minimum of q on the affine hull b_0 + D^T z of T (rows
    D = b_j - b_0) solves (D D^T) z = (c_j - c_0)/2 - D b_0. Move from w
    toward it until a weight reaches zero, drop that point, and repeat
    until the minimum lies inside the hull. When T holds more than n + 1
    points, or the Cholesky factor of D D^T shows T (nearly) affinely
    dependent, move instead along a null vector v of [A_T^T; 1^T],
    oriented so that c_T . v >= 0: x stays put and q does not rise, and
    the point whose weight reaches zero is dropped (a Caratheodory
    reduction).
    """
    while T.size > 1:
        D = A[T[1:]] - A[T[0]]
        independent = False
        if T.size <= A.shape[1] + 1:  # more points are dependent by count
            G = D @ D.T
            try:
                L = np.linalg.cholesky(G)
                independent = (L.diagonal().min()
                               > 1e-6 * np.sqrt(G.diagonal().max()))
            except np.linalg.LinAlgError:
                pass
        if independent:
            z = np.linalg.solve(G, 0.5 * (c[T[1:]] - c[T[0]]) - D @ A[T[0]])
            y = np.append(1.0 - z.sum(), z)
            if y.min() >= 0.0:
                w = y
                break
            step = y - w
        else:
            u = np.linalg.svd(D.T)[2][-1]  # D^T u = 0
            step = np.append(-u.sum(), u)
            if c[T] @ step < 0.0:
                step = -step
        neg = np.flatnonzero(step < 0.0)
        ratios = w[neg] / -step[neg]
        j = int(np.argmin(ratios))
        w = np.maximum(w + ratios[j] * step, 0.0)
        w[neg[j]] = 0.0
        T, w = T[w > 0.0], w[w > 0.0]
    keep = w > 0.0
    return T[keep], w[keep] / w[keep].sum()


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
    mean count of major cycles from 6.91 to 4.87. Its gap tolerance is
    zero, so it runs until a major cycle no longer lowers q, or for
    `iterations` major cycles; the radius is the largest distance from the
    center to a point.
    """
    o = points[0]
    P = points - o
    c = np.einsum("ij,ij->i", P, P)
    j = int(np.argmax(c))
    D = P - P[j]
    k = int(np.argmax(np.einsum("ij,ij->i", D, D)))
    mu, _, _ = fw_minimize(P, c, 0.0, iterations,
                           None if j == k else np.array([j, k]))
    center = o + P.T @ mu
    d2 = np.einsum("ij,ij->i", points - center, points - center)
    return center, float(np.sqrt(d2.max()))


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
