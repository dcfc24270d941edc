"""Tests for the exact W2 distance and the entropy estimate.

Reference values were produced by brute-force routes (exhaustive
assignment enumeration, closed-form Gaussian entropy) and are re-derived
inline where that is cheap.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from grazekit.errors import ParameterError
from grazekit.metrics import entropy_knn, w2_exact

GAUSS_H = -1.5 * math.log(2 * math.pi * math.e)  # differential entropy, sigma2=1


def brute_w2(A, B):
    """Exhaustive-permutation W2 for tiny clouds."""
    n = A.shape[0]
    c = cdist(A, B, "sqeuclidean")
    best = min(sum(c[i, p[i]] for i in range(n))
               for p in itertools.permutations(range(n)))
    return math.sqrt(best / n)


def test_w2_exact_three_point_example():
    A = np.array([[0.0, 0, 0], [1, 0, 0], [0, 2, 0]])
    B = np.array([[0.0, 0, 1], [1, 1, 0], [0, 2, 2]])
    got = w2_exact(A, B)
    assert got == pytest.approx(brute_w2(A, B), rel=1e-15)
    assert got == pytest.approx(1.4142135623730951, rel=1e-15)


def test_w2_exact_random_small_vs_brute():
    rng = np.random.default_rng(7)
    for _ in range(5):
        A = rng.normal(size=(6, 3))
        B = rng.normal(size=(6, 3))
        assert w2_exact(A, B) == pytest.approx(brute_w2(A, B), rel=1e-12)


def test_w2_exact_identical_and_single_offset():
    rng = np.random.default_rng(8)
    A = rng.normal(size=(50, 3))
    assert w2_exact(A, A) == 0.0
    shift = np.array([0.3, -0.1, 0.2])
    # a pure translation is matched index-to-index
    assert w2_exact(A, A + shift) == pytest.approx(np.linalg.norm(shift), rel=1e-12)


def test_w2_exact_metric_properties():
    rng = np.random.default_rng(9)
    A, B, C = (rng.normal(size=(40, 3)) for _ in range(3))
    dab, dba = w2_exact(A, B), w2_exact(B, A)
    assert dab == pytest.approx(dba, rel=1e-12)
    assert w2_exact(A, C) <= dab + w2_exact(B, C) + 1e-12
    # permutation invariance: same empirical measure
    perm = rng.permutation(40)
    assert w2_exact(A[perm], B) == pytest.approx(dab, rel=1e-12)
    # rotation applied to both clouds preserves the distance
    th = 0.6
    R = np.array([[math.cos(th), -math.sin(th), 0],
                  [math.sin(th), math.cos(th), 0],
                  [0, 0, 1.0]])
    assert w2_exact(A @ R.T, B @ R.T) == pytest.approx(dab, rel=1e-10)


def test_w2_exact_second_moment_bound():
    rng = np.random.default_rng(10)
    A = rng.normal(size=(300, 3)) * 1.4
    B = rng.normal(size=(300, 3)) * 0.6 + 0.5
    m2a = np.mean(np.sum(A * A, axis=1))
    m2b = np.mean(np.sum(B * B, axis=1))
    assert w2_exact(A, B) ** 2 <= 2 * m2a + 2 * m2b


def test_w2_exact_guards():
    rng = np.random.default_rng(11)
    with pytest.raises(ParameterError):
        w2_exact(rng.normal(size=(8, 3)), rng.normal(size=(9, 3)))
    big = rng.normal(size=(4097, 3))
    with pytest.raises(ParameterError, match="paired-L2"):
        w2_exact(big, big)


def test_entropy_knn_gaussian():
    for seed in (1, 2, 3):
        V = np.random.default_rng(seed).normal(size=(100_000, 3))
        assert abs(entropy_knn(V) - GAUSS_H) < 0.05


def test_entropy_knn_guard_and_scaling():
    with pytest.raises(ParameterError):
        entropy_knn(np.zeros((4, 3)))
    # the functional is int f log f, so dilating by a subtracts 3 log a
    V = np.random.default_rng(4).normal(size=(20_000, 3))
    h1 = entropy_knn(V)
    h2 = entropy_knn(2.0 * V)
    assert h2 - h1 == pytest.approx(-3 * math.log(2.0), abs=0.02)
