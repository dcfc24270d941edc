"""Tests for the exact W2 distance and the entropy estimate.

Reference values were produced by brute-force routes (exhaustive
assignment enumeration, dense assignment, closed-form Gaussian entropy)
and are re-derived inline where that is cheap.
"""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse.csgraph
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from grazekit import metrics, rngstreams
from grazekit.coupling import (CouplingPlan, build_subdivision, coupled_run,
                               default_h)
from grazekit.errors import ParameterError
from grazekit.kernels import GrazingKernel
from grazekit.metrics import entropy_knn, w2_exact
from grazekit.particles import sample_initial

GAUSS_H = -1.5 * math.log(2 * math.pi * math.e)  # differential entropy, sigma2=1


def brute_w2(A, B):
    """Exhaustive-permutation W2 for tiny clouds."""
    n = A.shape[0]
    c = cdist(A, B, "sqeuclidean")
    best = min(sum(c[i, p[i]] for i in range(n))
               for p in itertools.permutations(range(n)))
    return math.sqrt(best / n)


def dense_w2(A, B):
    """W2 by the full cost matrix and the dense assignment solver."""
    cost = cdist(A, B, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return math.sqrt(cost[rows, cols].sum() / A.shape[0])


@functools.cache
def coupled_clouds(eps, n, seed):
    """The terminal clouds of `coupled-run` (grazing, gamma -0.5, nu 0.6,
    T 0.5, its default subdivision) from its initial cloud at this seed."""
    plan = CouplingPlan(kernel=GrazingKernel(-0.5, 0.6, eps), seed=seed,
                        subdivision=build_subdivision(default_h, 0.5, 4))
    cloud = sample_initial({"name": "isotropic-gaussian"}, n,
                           rngstreams.stream(seed, "cli-init"))
    res = coupled_run(plan, cloud)
    return res.boltz_cloud.velocities, res.landau_cloud.velocities


@pytest.fixture
def solves(monkeypatch):
    """The assignment solvers w2_exact calls, in order: "sparse" for each
    sparse round, "dense" for the dense route."""
    calls = []
    for module, name, route in (
            (scipy.sparse.csgraph, "min_weight_full_bipartite_matching",
             "sparse"),
            (scipy.optimize, "linear_sum_assignment", "dense")):
        def spy(cost, _solve=getattr(module, name), _route=route):
            calls.append(_route)
            return _solve(cost)
        monkeypatch.setattr(module, name, spy)
    return calls


def _paired(n, seed, noise):
    A = np.random.default_rng(seed).normal(size=(n, 3))
    return A, A + noise * np.random.default_rng(seed + 1).normal(size=(n, 3))


def _with_duplicates(shift):
    A = np.random.default_rng(12).normal(size=(64, 3))
    A[40:] = A[:24]
    return A, A + shift


def _shared_rows():
    A, B = _paired(200, 13, 0.02)
    B[::3] = A[::3]  # exact zero costs
    return A, B


def _independent():
    rng = np.random.default_rng(14)
    return rng.normal(size=(512, 3)), rng.normal(size=(512, 3))


@pytest.mark.parametrize("clouds, sparse", [
    (lambda: coupled_clouds(np.pi / 16, 4096, 0), True),
    (lambda: coupled_clouds(np.pi / 16, 4096, 7), True),
    (lambda: coupled_clouds(np.pi / 8, 2048, 0), False),
    (lambda: _with_duplicates(0.0), True),
    (lambda: _with_duplicates(np.array([0.01, -0.02, 0.03])), True),
    (_shared_rows, True),
    (lambda: _paired(metrics._W2_NEIGHBOURS, 15, 0.05), True),
    (_independent, False),
], ids=["pi16-seed0", "pi16-seed7", "pi8", "identical", "duplicates",
        "zero-costs", "n-below-k+1", "independent"])
def test_w2_exact_routes_give_the_dense_bits(clouds, sparse, solves):
    A, B = clouds()
    assert w2_exact(A, B) == dense_w2(A, B)
    assert set(solves) == {"sparse" if sparse else "dense"}


def test_w2_certificate_adds_the_edges_the_first_graph_misses(
        monkeypatch, solves):
    monkeypatch.setattr(metrics, "_W2_NEIGHBOURS", 1)
    A, B = coupled_clouds(np.pi / 16, 4096, 0)
    assert w2_exact(A, B) == dense_w2(A, B)
    # the first graph missed optimal edges; the certificate found them, and
    # the sparse route finished without the dense one
    assert solves.count("sparse") >= 2 and "dense" not in solves


def test_w2_certificate_rounds_start_warm(monkeypatch):
    # one neighbour per row: the certificate takes several rounds, and the
    # later ones keep the matching of the round before
    monkeypatch.setattr(metrics, "_W2_NEIGHBOURS", 1)
    rounds = []
    duals = metrics._duals

    def spy(rows, cols, costs, match, start=None):
        got = duals(rows, cols, costs, match, start)
        # from zeros, Bellman-Ford reaches the same potentials
        cold = duals(rows, cols, costs, match)
        assert all(np.array_equal(a, b) for a, b in zip(got, cold))
        rounds.append((match.copy(), start, got))
        return got

    monkeypatch.setattr(metrics, "_duals", spy)
    A, B = coupled_clouds(np.pi / 16, 4096, 0)
    assert w2_exact(A, B) == dense_w2(A, B)
    assert rounds[0][1] is None
    for (match0, _, (_, v0)), (match1, start, _) in zip(rounds, rounds[1:]):
        if np.array_equal(match0, match1):
            assert start is v0     # the last round's v
        else:
            assert start is None   # another matching starts cold
    assert sum(start is not None for _, start, _ in rounds) >= 2


def test_w2_certificate_ball_pairs_do_not_depend_on_the_row_blocks(
        monkeypatch):
    # the certificate lists its ball pairs a block of rows at a time: the
    # same pairs in the same order as one query over every row
    import scipy.spatial
    listed = []

    class Tree(scipy.spatial.cKDTree):
        def query_ball_point(self, x, r, **kw):
            if not kw.get("return_length"):
                listed.append(len(x))
            return super().query_ball_point(x, r, **kw)

    monkeypatch.setattr(scipy.spatial, "cKDTree", Tree)
    monkeypatch.setattr(metrics, "_W2_NEIGHBOURS", 1)  # several rounds
    A, B = coupled_clouds(np.pi / 16, 4096, 0)
    pairs = {}
    costs = metrics._pair_costs
    for rows in (4096, metrics._BALL_ROWS, 7):
        monkeypatch.setattr(metrics, "_BALL_ROWS", rows)
        calls, listed[:] = [], []

        def spy(A, B, r, c, _calls=calls):
            _calls.append((r.copy(), c.copy()))
            return costs(A, B, r, c)

        monkeypatch.setattr(metrics, "_pair_costs", spy)
        assert w2_exact(A, B) == dense_w2(A, B)
        assert listed and max(listed) <= rows
        pairs[rows] = calls
    one, *blocked = pairs.values()
    for calls in blocked:
        assert len(calls) == len(one)
        for (r0, c0), (r1, c1) in zip(one, calls):
            assert np.array_equal(r0, r1) and np.array_equal(c0, c1)


def test_w2_exact_memory_holds_no_cost_matrix():
    A, B = coupled_clouds(np.pi / 16, 4096, 0)
    tracemalloc.start()
    try:
        w2_exact(A, B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the dense cost matrix alone is 4096^2 doubles, 134 MB
    assert peak <= 16 * 2 ** 20


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
    with pytest.raises(ParameterError, match="N >= 1"):
        w2_exact(np.zeros((0, 3)), np.zeros((0, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_w2_exact_refuses_non_finite_rows(bad):
    A = np.random.default_rng(16).normal(size=(20, 3))
    B = A + 0.01
    B[7, 1] = bad
    with pytest.raises(ParameterError, match="row 7 is not finite"):
        w2_exact(A, B)


def test_entropy_knn_gaussian():
    for seed in (1, 2, 3):
        V = np.random.default_rng(seed).normal(size=(100_000, 3))
        assert abs(entropy_knn(V) - GAUSS_H) < 0.05


def test_entropy_knn_guard_and_scaling():
    with pytest.raises(ParameterError):
        entropy_knn(np.zeros((4, 3)))
    V = np.random.default_rng(5).normal(size=(50, 3))
    V[3, 0] = np.nan
    with pytest.raises(ParameterError, match="row 3 is not finite"):
        entropy_knn(V)
    # the functional is int f log f, so dilating by a subtracts 3 log a
    V = np.random.default_rng(4).normal(size=(20_000, 3))
    h1 = entropy_knn(V)
    h2 = entropy_knn(2.0 * V)
    assert h2 - h1 == pytest.approx(-3 * math.log(2.0), abs=0.02)
