"""Tests for transport distances and velocity-cloud functionals.

Reference values were produced by brute-force routes (exhaustive
assignment enumeration, O(N^2) pairwise loops, closed-form Gaussian
entropy) and are re-derived inline where that is cheap.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from grazekit.errors import ConvergenceWarning, ParameterError
from grazekit.metrics import (FunctionalReport, ellipticity_certificate,
                              entropy_histogram, entropy_knn, functionals,
                              j_alpha, w2_entropic, w2_exact)

GAUSS_H = -1.5 * math.log(2 * math.pi * math.e)  # differential entropy, sigma2=1


def brute_w2(A, B):
    """Exhaustive-permutation W2 for tiny clouds."""
    n = A.shape[0]
    c = cdist(A, B, "sqeuclidean")
    best = min(sum(c[i, p[i]] for i in range(n))
               for p in itertools.permutations(range(n)))
    return math.sqrt(best / n)


def seeded_pair(n=256):
    rng = np.random.default_rng(0)
    A = rng.normal(size=(n, 3))
    B = rng.normal(size=(n, 3)) * 1.3 + np.array([0.4, 0.0, 0.0])
    return A, B


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
    with pytest.raises(ParameterError, match="w2_entropic"):
        w2_exact(big, big)


@pytest.mark.slow
def test_w2_entropic_reg_sweep_converges_to_exact():
    A, B = seeded_pair()
    exact = w2_exact(A, B)
    assert exact == pytest.approx(0.8377895862717075, rel=1e-12)
    errs = []
    for reg in (1e-1, 1e-2, 1e-3):
        got = w2_entropic(A, B, reg=reg)
        errs.append(abs(got - exact) / exact)
    # debiased divergence tightens as reg shrinks and lands within 2%
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.02
    # measured: relative error ~2.3e-5 at reg=1e-3
    assert errs[2] < 1e-3


@pytest.mark.slow
def test_w2_entropic_identical_clouds_and_symmetry():
    A, B = seeded_pair(128)
    assert w2_entropic(A, A, reg=1e-2) == 0.0
    # the stall gauge stops each direction within ~tol of the fixed point
    assert w2_entropic(A, B, reg=1e-2) == pytest.approx(
        w2_entropic(B, A, reg=1e-2), rel=1e-6)


def test_w2_entropic_unstalled_run_warns():
    A, B = seeded_pair(128)
    with pytest.warns(ConvergenceWarning):
        w2_entropic(A, B, reg=1e-3, iters=8)


def test_entropy_knn_gaussian():
    for seed in (1, 2, 3):
        V = np.random.default_rng(seed).normal(size=(100_000, 3))
        assert abs(entropy_knn(V) - GAUSS_H) < 0.05


def test_entropy_knn_guard_and_scaling():
    with pytest.raises(ParameterError):
        entropy_knn(np.zeros((4, 3)), k=4)
    # the functional is int f log f, so dilating by a subtracts 3 log a
    V = np.random.default_rng(4).normal(size=(20_000, 3))
    h1 = entropy_knn(V)
    h2 = entropy_knn(2.0 * V)
    assert h2 - h1 == pytest.approx(-3 * math.log(2.0), abs=0.02)


def test_entropy_histogram_cross_check():
    V = np.random.default_rng(5).normal(size=(100_000, 3))
    hk = entropy_knn(V)
    hh = entropy_histogram(V)
    # coarse binning is biased; the two routes still agree to ~0.1
    assert abs(hh - hk) < 0.15


def test_j_alpha_shortcut_and_brute_force():
    rng = np.random.default_rng(6)
    V = rng.normal(size=(500, 3))
    assert j_alpha(V, 0.0) == 1.0
    for alpha in (-0.5, -1.5, -2.9):
        d = cdist(V, V)
        np.fill_diagonal(d, np.nan)
        want = np.nanmax(np.nanmean(d ** alpha, axis=1))
        assert j_alpha(V, alpha) == pytest.approx(want, rel=1e-12)


def test_j_alpha_lower_bound_on_tight_cloud():
    # all pairwise distances < 1 force every term above 1 for alpha < 0
    rng = np.random.default_rng(12)
    V = rng.uniform(-0.2, 0.2, size=(200, 3))
    assert np.max(cdist(V, V)) < 1.0
    for alpha in (-0.5, -2.0):
        assert j_alpha(V, alpha) >= 1.0
    assert j_alpha(V, 0.0) == 1.0


def test_j_alpha_coincident_points_give_inf():
    V = np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]])
    assert j_alpha(V, -1.0) == np.inf


def test_j_alpha_guards():
    V = np.random.default_rng(13).normal(size=(10, 3))
    with pytest.raises(ParameterError):
        j_alpha(V, -3.0)
    with pytest.raises(ParameterError):
        j_alpha(V, 0.5)


def test_functionals_report():
    V = np.random.default_rng(14).normal(size=(5000, 3))
    rep = functionals(V, [2, 4], alpha=-0.5)
    assert isinstance(rep, FunctionalReport)
    assert rep.m[2.0] == pytest.approx(np.mean(np.sum(V * V, axis=1)), rel=1e-14)
    assert rep.alpha == -0.5
    assert rep.j_alpha == pytest.approx(j_alpha(V, -0.5), rel=1e-14)
    assert abs(rep.entropy - GAUSS_H) < 0.1


def sphere_points(n, seed):
    u = np.random.default_rng(seed).normal(size=(n, 3))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def ellipticity_grids():
    v_grid = np.vstack([np.zeros((1, 3)),
                        2.0 * sphere_points(6, 5),
                        4.0 * sphere_points(4, 6)])
    xi_grid = sphere_points(12, 7)
    return v_grid, xi_grid


def brute_ellipticity(V, gamma, v_grid, xi_grid):
    best = np.inf
    for v in v_grid:
        z = v - V
        r = np.linalg.norm(z, axis=1)
        alive = r > 0
        z, r = z[alive], r[alive]
        for xi in xi_grid:
            q = np.mean(r ** gamma * (r ** 2 - (z @ xi) ** 2))
            best = min(best, q / (1 + np.linalg.norm(v)) ** gamma)
    return best


def test_ellipticity_certificate_matches_brute_force():
    V = np.random.default_rng(8).normal(size=(2048, 3))
    v_grid, xi_grid = ellipticity_grids()
    got = ellipticity_certificate(V, -1.0, v_grid, xi_grid)
    want = brute_ellipticity(V, -1.0, v_grid, xi_grid)
    assert got == pytest.approx(want, rel=1e-10)
    assert got == pytest.approx(1.0574, abs=2e-3)
    assert got > 0


def test_ellipticity_stable_under_doubling():
    v_grid, xi_grid = ellipticity_grids()
    c1 = ellipticity_certificate(
        np.random.default_rng(8).normal(size=(2048, 3)), -1.0, v_grid, xi_grid)
    c2 = ellipticity_certificate(
        np.random.default_rng(8).normal(size=(4096, 3)), -1.0, v_grid, xi_grid)
    assert abs(c2 - c1) / c1 < 0.20


def test_ellipticity_degenerate_cases():
    v_grid, xi_grid = ellipticity_grids()
    # every z parallel to xi kills the quadratic form for that direction
    line = np.outer(np.linspace(-1, 1, 32), np.array([1.0, 0, 0]))
    xi_on_axis = np.array([[1.0, 0, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning):
            ellipticity_certificate(line, -1.0, np.zeros((1, 3)), xi_on_axis)
    # all points coincide with the witness velocity: nothing alive
    V = np.tile([[1.0, 2.0, 3.0]], (8, 1))
    with pytest.warns(UserWarning):
        out = ellipticity_certificate(V, -1.0, np.array([[1.0, 2.0, 3.0]]),
                                      xi_grid)
    assert out == 0.0


def test_ellipticity_guards():
    V = np.random.default_rng(9).normal(size=(64, 3))
    v_grid, xi_grid = ellipticity_grids()
    with pytest.raises(ParameterError):
        ellipticity_certificate(V, 0.5, v_grid, xi_grid)
    with pytest.raises(ParameterError):
        ellipticity_certificate(V, -1.0, v_grid, np.zeros((2, 3)))
