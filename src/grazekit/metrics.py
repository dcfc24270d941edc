"""Distances and functionals between particle clouds: exact Wasserstein-2
by optimal assignment, and the Kozachenko-Leonenko entropy estimate.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

__all__ = ["w2_exact", "entropy_knn"]

_W2_SIZE_GUARD = 4096
# neighbours per point of the entropy estimate
_KNN_K = 4


def _as_cloud(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[1] != 3:
        raise ParameterError(f"cloud must be (N, 3), got {A.shape}")
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
    by optimal assignment on squared Euclidean costs."""
    A, B = _as_cloud(A), _as_cloud(B)
    if A.shape != B.shape:
        raise ParameterError(f"size mismatch: {A.shape} vs {B.shape}")
    n = A.shape[0]
    _check_w2_size(n)
    # scipy loads in the call, not at import, so commands that never
    # measure W2 or entropy (rate-sweep among them) start without it
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist
    cost = cdist(A, B, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return math.sqrt(cost[rows, cols].sum() / n)


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
