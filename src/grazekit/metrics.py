"""Distances and functionals between particle clouds: exact Wasserstein-2
by optimal assignment, and the Kozachenko-Leonenko entropy estimate.

``w2_exact`` solves the assignment on one of two routes, chosen from the
input before any solve.  Both return an optimal assignment (the same one
whenever the optimum is unique), and W2 is summed from the same costs in
the same row order, so the route changes time and memory only.

- *Dense*: the n x n squared-distance matrix (``cdist``) and
  ``linear_sum_assignment``.  It runs in practical time on any input.
- *Sparse*: when the identity pairing of the two clouds is already close
  to optimal, as for the two clouds of a coupled run, the assignment is
  solved on a candidate graph (each row's ``_W2_NEIGHBOURS`` nearest rows
  of B, and the identity edges) by ``min_weight_full_bipartite_matching``
  (LAPJVsp, after Jonker & Volgenant 1987), and a dual certificate proves
  it optimal over all n^2 pairs without ever holding the matrix, in the
  spirit of Schmitzer's shielding neighbourhoods (2016).

The gate is rho = sum_i |A_i - B_i|^2 / sum_i (distance from A_i to its
nearest row of B)^2, read off the neighbour query the sparse route uses:
the sparse route runs when rho <= ``_SPARSE_MAX_RHO``.  The sparse solver
slows sharply when the optimum leaves the candidate graph, so the gate
decides before the first solve.  On the coupled grazing clouds of
``coupled-run`` rho reads 1.07 at pi/32 and 1.30-1.37 at pi/16 (n 4096;
sparse 0.04-0.30 s against dense 0.23-0.41 s), 1.79-1.90 at pi/8 with
n 2048 and 2.29-2.43 with n 4096 (sparse no faster than dense), 4.2-17 at
pi/4 and pi/2, and 100-170 for independent Gaussian clouds.  Both routes
keep the size guard ``_W2_SIZE_GUARD``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ParameterError

__all__ = ["w2_exact", "entropy_knn"]

_W2_SIZE_GUARD = 4096
# neighbours per point of the entropy estimate
_KNN_K = 4
# nearest rows of B per row of A in the sparse route's first graph
_W2_NEIGHBOURS = 8
# the sparse route's gate on rho (margins in the module docstring: pi/16
# reads at most 1.37, pi/8 at least 1.79)
_SPARSE_MAX_RHO = 1.6
# caps of the sparse route; past any of them it hands over to the dense one.
# A round costs 20-60 ms at pi/16 with n 4096, which takes 2-4 rounds with 8
# neighbours and 7-10 with 1.
_BF_MAX_SWEEPS = 512
_CERT_MAX_PAIRS = 1 << 17
_CERT_MAX_ROUNDS = 16
# rows per ball query of the certificate check
_BALL_ROWS = 256
# a pair violates the certificate when its reduced cost is below
# -_CERT_RTOL x the largest squared certificate radius
_CERT_RTOL = 1e-12


def _as_cloud(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[1] != 3 or A.shape[0] == 0:
        raise ParameterError(
            f"cloud must be (N, 3) with N >= 1, got {A.shape}")
    bad = ~np.isfinite(A).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ParameterError(f"cloud row {i} is not finite: {A[i].tolist()}")
    return A


def _check_w2_size(n):
    """Refuse a cloud size above the exact-assignment guard."""
    if n > _W2_SIZE_GUARD:
        raise ParameterError(
            f"N={n} above the exact-assignment guard {_W2_SIZE_GUARD}; "
            "compare subsampled clouds, or use the paired-L2 distance, "
            "an upper bound of W2")


def w2_exact(A, B) -> float:
    """Wasserstein-2 distance between two equal-size empirical clouds,
    by optimal assignment on squared Euclidean costs.

    Clouds whose identity pairing is close to optimal (rho at most
    ``_SPARSE_MAX_RHO``, see the module docstring) take the sparse route:
    its assignment carries a dual certificate (u, v) with
    c_ij - u_i - v_j >= -tol for every pair, tol = ``_CERT_RTOL`` times the
    largest squared certificate radius, so its cost is optimal to within
    n * tol.  Where the certificate or one of the sparse route's caps
    fails, and on every other input, the dense route solves the problem.
    Both routes refuse N above ``_W2_SIZE_GUARD``.
    """
    A, B = _as_cloud(A), _as_cloud(B)
    if A.shape != B.shape:
        raise ParameterError(f"size mismatch: {A.shape} vs {B.shape}")
    n = A.shape[0]
    _check_w2_size(n)
    # scipy loads in the call, not at import, so commands that never
    # measure W2 or entropy (rate-sweep among them) start without it
    from scipy.spatial import cKDTree
    tree = cKDTree(B)
    # a list of k keeps the result 2-D when k is 1
    dist, near = tree.query(A, k=list(range(1, min(_W2_NEIGHBOURS, n) + 1)))
    D = A - B
    costs = None
    if np.sum(D * D) <= _SPARSE_MAX_RHO * np.sum(dist[:, 0] ** 2):
        costs = _sparse_costs(A, B, tree, near)
    if costs is None:
        from scipy.optimize import linear_sum_assignment
        from scipy.spatial.distance import cdist
        cost = cdist(A, B, "sqeuclidean")
        rows, cols = linear_sum_assignment(cost)
        costs = cost[rows, cols]
    return math.sqrt(costs.sum() / n)


def _pair_costs(A, B, rows, cols):
    """Squared distances |A_rows[k] - B_cols[k]|^2, summed as cdist sums
    them, (d0^2 + d1^2) + d2^2, so both routes see the same bits."""
    d = A[rows] - B[cols]
    d *= d
    return (d[:, 0] + d[:, 1]) + d[:, 2]


def _sparse_costs(A, B, tree, near):
    """The optimal assignment's costs in row order, solved on a candidate
    graph grown until a dual certificate covers all n^2 pairs; None when a
    cap is reached first.

    The graph starts from the rows of B in ``near`` and the identity edges,
    which keep a perfect matching in it.  After each solve, ``_duals``
    gives potentials with nonnegative reduced costs on the graph.  A pair
    off the graph can have c_ij < u_i + v_j only if c_ij < u_i + max v, so
    a ball query lists every pair that could violate; the violators join
    the graph and the next round solves again.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching
    n = A.shape[0]
    ids = np.arange(n)
    # edges as keys j * n + i: sorted by column, then row
    keys = np.unique(np.concatenate(
        [near.ravel() * n + np.repeat(ids, near.shape[1]), ids * n + ids]))
    match = v = None
    for _ in range(_CERT_MAX_ROUNDS):
        cols, rows = np.divmod(keys, n)
        costs = _pair_costs(A, B, rows, cols)
        # the solver takes only nonzero weights: an exact zero goes in as
        # the smallest positive double
        graph = csr_matrix((np.maximum(costs, np.nextafter(0.0, 1.0)),
                            (rows, cols)), shape=(n, n))
        last, match = match, min_weight_full_bipartite_matching(graph)[1]
        # an unchanged matching on a larger graph: the last round's
        # potentials are a warm start
        warm = v if last is not None and np.array_equal(match, last) else None
        duals = _duals(rows, cols, costs, match, warm)
        if duals is None:
            return None
        u, v = duals
        # a pair the k-d tree's rounding leaves out of a ball lies within
        # rounding of its edge, so its reduced cost is far above -tol
        reach = np.maximum(u + v.max(), 0.0)
        radius = np.sqrt(reach)
        counts = tree.query_ball_point(A, radius, return_length=True)
        total = int(counts.sum())
        if total > _CERT_MAX_PAIRS:
            return None
        pr = np.repeat(ids, counts)
        pc = np.empty(total, np.intp)
        starts = np.concatenate(([0], np.cumsum(counts)))
        # the ball lists come as Python ints, so a block of rows at a time;
        # a multi-row query sorts each row's list, as the whole query does
        for r0 in range(0, n, _BALL_ROWS):
            r1 = min(r0 + _BALL_ROWS, n)
            pc[starts[r0]:starts[r1]] = np.fromiter(
                itertools.chain.from_iterable(tree.query_ball_point(
                    A[r0:r1], radius[r0:r1])), np.intp,
                starts[r1] - starts[r0])
        reduced = _pair_costs(A, B, pr, pc) - u[pr] - v[pc]
        bad = reduced < -_CERT_RTOL * reach.max()
        if not bad.any():
            return _pair_costs(A, B, ids, match)
        keys = np.union1d(keys, pc[bad] * n + pr[bad])
    return None


def _duals(rows, cols, costs, match, start=None):
    """Potentials (u, v) of a matching optimal on the graph (rows[k],
    cols[k]) sorted by column, with every column present: v by
    Bellman-Ford from a virtual source over the edges match[i] -> j of
    weight c_ij - c_i,match[i], then u_i = c_i,match[i] - v_match[i].
    None when it has not converged within ``_BF_MAX_SWEEPS`` sweeps.

    start, when given, is v of the same matching on a subgraph.  Every
    entry of it is the (rounded) length of a path that this graph also
    has, and added edges only shorten paths, so Bellman-Ford from there
    reaches the same fixed point as from zeros, in fewer sweeps."""
    n = match.size
    own = np.empty(n)
    on = cols == match[rows]
    own[rows[on]] = costs[on]
    src, weight = match[rows], costs - own[rows]
    starts = np.flatnonzero(np.diff(cols, prepend=-1))
    v = np.zeros(n) if start is None else start
    for _ in range(_BF_MAX_SWEEPS):
        relaxed = np.minimum(v, np.minimum.reduceat(v[src] + weight, starts))
        if np.array_equal(relaxed, v):
            return own - v[match], v
        v = relaxed
    return None


def entropy_knn(V) -> float:
    """H(f) = integral(f log f), the Kozachenko-Leonenko estimate on the
    k = _KNN_K nearest neighbors (sign-flipped differential entropy)."""
    V = _as_cloud(V)
    n = V.shape[0]
    k = _KNN_K
    if n < k + 1:
        raise ParameterError(f"need at least {k + 1} points for k={k}")
    from scipy.spatial import cKDTree
    from scipy.special import digamma
    tree = cKDTree(V)
    # k+1 because the first neighbor is the point itself
    dist, _ = tree.query(V, k=k + 1, workers=-1)
    r = np.maximum(dist[:, k], 1e-300)
    v3 = 4.0 / 3.0 * math.pi
    h_diff = (digamma(n) - digamma(k) + math.log(v3)
              + 3.0 * float(np.mean(np.log(r))))
    return -h_diff
