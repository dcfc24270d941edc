"""Tests for frames, deviations, Tanaka alignment, and jump displacements."""

import math

import numpy as np
import pytest

from grazekit.errors import DegenerateInputError
from grazekit import geometry as G
from grazekit import kernels as K

PI = math.pi


def rand_vecs(rng, n, spread=3.0):
    return rng.normal(size=(n, 3)) * np.exp(rng.uniform(-spread, spread, (n, 1)))


# ---------------------------------------------------------------------------
# frame


def test_frame_orthogonality_and_norms():
    rng = np.random.default_rng(7)
    X = rand_vecs(rng, 20_000)
    I, J = G.frame(X)
    r = np.linalg.norm(X, axis=1)
    assert np.max(np.abs(np.sum(I * X, axis=1)) / r**2) < 1e-12
    assert np.max(np.abs(np.sum(J * X, axis=1)) / r**2) < 1e-12
    assert np.max(np.abs(np.sum(I * J, axis=1)) / r**2) < 1e-12
    np.testing.assert_allclose(np.linalg.norm(I, axis=1), r, rtol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(J, axis=1), r, rtol=1e-12)


def test_frame_right_handed():
    # J = X^ x I everywhere: the alignment rotation can only absorb frame
    # differences if the handedness never flips
    rng = np.random.default_rng(8)
    X = rand_vecs(rng, 5000)
    I, J = G.frame(X)
    r = np.linalg.norm(X, axis=1)
    np.testing.assert_allclose(J, np.cross(X / r[:, None], I), atol=1e-12)


def test_frame_negation_parity_bit_exact():
    rng = np.random.default_rng(9)
    X = rand_vecs(rng, 5000)
    I, J = G.frame(X)
    In, Jn = G.frame(-X)
    # even in I, odd in J -- a right-handed frame field cannot have both
    # members odd, so this is the deliberate resolution
    assert np.array_equal(In, I)
    assert np.array_equal(Jn, -J)


def test_frame_deterministic_and_degenerate():
    x = np.array([0.3, -1.2, 0.04])
    I1, J1 = G.frame(x)
    I2, J2 = G.frame(x.copy())
    assert np.array_equal(I1, I2) and np.array_equal(J1, J2)
    with pytest.raises(DegenerateInputError):
        G.frame(np.zeros(3))
    with pytest.raises(DegenerateInputError):
        G.frame(np.array([[1.0, 0, 0], [0, 0, 0]]))


def test_frame_axis_aligned_input():
    I, J = G.frame(np.array([1.0, 0.0, 0.0]))
    assert abs(np.dot(I, [1, 0, 0])) < 1e-12
    assert abs(np.dot(J, [1, 0, 0])) < 1e-12
    assert abs(np.dot(I, J)) < 1e-12
    assert np.linalg.norm(I) == pytest.approx(1.0, rel=1e-12)
    # |X| = 5 scales the frame
    I5, J5 = G.frame(np.array([0.0, 5.0, 0.0]))
    assert np.linalg.norm(I5) == pytest.approx(5.0, rel=1e-12)
    assert np.linalg.norm(J5) == pytest.approx(5.0, rel=1e-12)


def _frame_np_cross(X):
    # frame() as written with np.cross, the reference for its inline cross
    r = np.sqrt(np.sum(X * X, axis=-1))
    Xh = X / r[..., None]
    e = np.eye(3)[np.argmin(np.abs(Xh), axis=-1)]
    C = np.cross(e, Xh)
    I0 = C / np.sqrt(np.sum(C * C, axis=-1))[..., None]
    J0 = np.cross(Xh, I0)
    x0, x1, x2 = X[..., 0], X[..., 1], X[..., 2]
    s = np.where(x0 != 0.0, np.sign(x0),
                 np.where(x1 != 0.0, np.sign(x1), np.sign(x2)))
    return (s * r)[..., None] * I0, (s * r)[..., None] * J0


@pytest.mark.parametrize("case", ["random", "axis-aligned", "negative",
                                  "huge", "tiny", "mixed-scale"])
def test_frame_cross_bit_identical_to_np_cross(case):
    rng = np.random.default_rng(10)
    if case == "random":
        X = rand_vecs(rng, 5000)
    elif case == "axis-aligned":
        X = np.concatenate([np.eye(3), -np.eye(3), 7.5 * np.eye(3),
                            [[1.0, 1.0, 0.0], [0.0, -2.0, 2.0],
                             [3.0, 0.0, -3.0], [1.0, 1.0, 1.0]]])
    elif case == "negative":
        X = -np.abs(rand_vecs(rng, 5000))
    elif case == "huge":
        X = rng.normal(size=(2000, 3)) * 1e150
    elif case == "tiny":
        X = rng.normal(size=(2000, 3)) * 1e-150
    else:
        X = rng.normal(size=(2000, 3)) * 10.0 ** rng.integers(
            -140, 140, size=(2000, 3))
    I, J = G.frame(X)
    I_ref, J_ref = _frame_np_cross(X)
    assert np.array_equal(I, I_ref)
    assert np.array_equal(J, J_ref)
    # the cross itself, on inputs with no frame structure
    A, B = rand_vecs(rng, 1000, spread=60.0), rand_vecs(rng, 1000, spread=60.0)
    assert np.array_equal(G._cross(A, B), np.cross(A, B))


# ---------------------------------------------------------------------------
# gamma


def test_gamma_vec_basics():
    rng = np.random.default_rng(10)
    X = rand_vecs(rng, 1000)
    phi = rng.uniform(0, 2 * PI, 1000)
    Gm = G.gamma_vec(X, phi)
    r2 = np.sum(X * X, axis=1)
    assert np.max(np.abs(np.sum(Gm * X, axis=1)) / r2) < 1e-12
    np.testing.assert_allclose(np.linalg.norm(Gm, axis=1), np.sqrt(r2),
                               rtol=1e-12)
    # phi = 0 gives I itself
    I, _ = G.frame(X)
    np.testing.assert_array_equal(G.gamma_vec(X, np.zeros(1000)), I)


def test_gamma_zero_angular_mean():
    rng = np.random.default_rng(11)
    x = rng.normal(size=3)
    phis = 2 * PI * np.arange(10_000) / 10_000
    Gm = G.gamma_vec(np.broadcast_to(x, (10_000, 3)), phis)
    mean = Gm.mean(axis=0) * 2 * PI
    assert np.max(np.abs(mean)) < 1e-10 * np.linalg.norm(x)


def test_gamma_second_moment_identity():
    # integral over phi of Gamma Gamma^T = pi (|X|^2 Id - X X^T)
    rng = np.random.default_rng(12)
    phis = 2 * PI * np.arange(10_000) / 10_000
    for x in rng.normal(size=(10, 3)):
        Gm = G.gamma_vec(np.broadcast_to(x, (10_000, 3)), phis)
        M = (Gm[:, :, None] * Gm[:, None, :]).mean(axis=0) * 2 * PI
        target = PI * (np.dot(x, x) * np.eye(3) - np.outer(x, x))
        assert np.max(np.abs(M - target)) < 1e-8 * np.dot(x, x)


# ---------------------------------------------------------------------------
# deviate


def test_deviate_conservation_bulk():
    rng = np.random.default_rng(13)
    n = 200_000
    v = rng.normal(size=(n, 3))
    vs = rng.normal(size=(n, 3)) * 2 + 0.5
    th = rng.uniform(0, PI, n)
    ph = rng.uniform(0, 2 * PI, n)
    vp, vsp, a = G.deviate(v, vs, th, ph)
    mom = np.max(np.linalg.norm(vp + vsp - v - vs, axis=1)
                 / (np.linalg.norm(v + vs, axis=1) + 1))
    en = np.sum(vp**2 + vsp**2, axis=1) - np.sum(v**2 + vs**2, axis=1)
    en_rel = np.max(np.abs(en) / np.sum(v**2 + vs**2, axis=1))
    assert mom < 1e-12
    assert en_rel < 1e-12
    # |a|^2 = (1-cos)/2 |v-v*|^2
    r2 = np.sum((v - vs) ** 2, axis=1)
    target = 0.5 * (1 - np.cos(th)) * r2
    assert np.max(np.abs(np.sum(a * a, axis=1) - target) / r2) < 1e-12
    # the relative speed is invariant: |v' - v*'| = |v - v*|
    rel = np.linalg.norm(vp - vsp, axis=1) / np.sqrt(r2)
    assert np.max(np.abs(rel - 1.0)) < 1e-12
    # v' - v is exactly the returned displacement
    np.testing.assert_array_equal(vp, v + a)
    np.testing.assert_array_equal(vsp, vs - a)


def test_deviate_theta_edges():
    rng = np.random.default_rng(14)
    v = rng.normal(size=(50, 3))
    vs = rng.normal(size=(50, 3))
    ph = rng.uniform(0, 2 * PI, 50)
    vp, vsp, a = G.deviate(v, vs, np.zeros(50), ph)
    np.testing.assert_array_equal(vp, v)
    np.testing.assert_array_equal(vsp, vs)
    # theta = pi swaps the velocities (up to sin(pi) rounding)
    vp, vsp, _ = G.deviate(v, vs, np.full(50, PI), ph)
    scale = np.linalg.norm(v - vs, axis=1)[:, None]
    assert np.max(np.abs(vp - vs) / scale) < 1e-15
    assert np.max(np.abs(vsp - v) / scale) < 1e-15


def test_deviate_identical_velocities_noop():
    v = np.array([[1.0, 2.0, 3.0], [0.1, 0.0, -0.4]])
    vp, vsp, a = G.deviate(v, v, np.array([0.3, 2.0]), np.array([1.0, 4.0]))
    np.testing.assert_array_equal(vp, v)
    np.testing.assert_array_equal(vsp, v)
    np.testing.assert_array_equal(a, np.zeros_like(v))


def test_deviate_scalar_inputs():
    vp, vsp, a = G.deviate([1.0, 0, 0], [0, 1.0, 0], 0.5, 1.0)
    assert vp.shape == (3,)
    assert np.allclose(vp + vsp, [1, 1, 0], atol=1e-14)


# ---------------------------------------------------------------------------
# phi_zero / Tanaka alignment


def test_phi_zero_identical_and_parallel():
    rng = np.random.default_rng(15)
    X = rand_vecs(rng, 200)
    assert np.max(np.abs(G.phi_zero(X, X))) == 0.0
    # scaling perturbs the normalized direction by an ulp, so only ~0
    assert np.max(np.abs(G.phi_zero(X, 3.7 * X))) < 1e-12


def test_phi_zero_degenerate():
    with pytest.raises(DegenerateInputError):
        G.phi_zero(np.zeros(3), np.ones(3))


def test_tanaka_alignment_bound():
    # sup over phi of |Gamma(X,phi) - Gamma(Y,phi+phi0)| <= 3|X-Y|;
    # the right-handed construction actually achieves constant 1
    rng = np.random.default_rng(16)
    worst = 0.0
    for _ in range(5):
        m = 4000
        X = rng.normal(size=(m, 3))
        Y = np.where((np.arange(m) % 3 == 0)[:, None],
                     X + 1e-7 * rng.normal(size=(m, 3)),
                     rng.normal(size=(m, 3)))
        p0 = G.phi_zero(X, Y)
        IX, JX = G.frame(X)
        IY, JY = G.frame(Y)
        d = np.linalg.norm(X - Y, axis=1)
        keep = d > 0
        for j in range(32):
            phi = np.full(m, 2 * PI * j / 32)
            GX = G.gamma_from_frame(IX, JX, phi)
            GY = G.gamma_from_frame(IY, JY, phi + p0)
            ratio = np.linalg.norm((GX - GY)[keep], axis=1) / d[keep]
            worst = max(worst, float(np.max(ratio)))
    assert worst <= 3.0
    assert worst <= 1.0 + 1e-6  # the sharp constant, with fp headroom


def test_tanaka_alignment_boundary_straddles():
    # pairs straddling the sign(first-component) boundary and the
    # least-aligned-axis tie: the worst cases for any branchy frame
    rng = np.random.default_rng(17)
    m = 5000
    X = rng.normal(size=(m, 3))
    X[: m // 2, 0] = 1e-9 * rng.normal(size=m // 2)
    X[m // 2:, 0] = X[m // 2:, 1]
    Y = X.copy()
    Y[:, 0] = -Y[:, 0] + 1e-12 * rng.normal(size=m)
    d = np.linalg.norm(X - Y, axis=1)
    keep = d > 0
    X, Y, d = X[keep], Y[keep], d[keep]
    p0 = G.phi_zero(X, Y)
    IX, JX = G.frame(X)
    IY, JY = G.frame(Y)
    worst = 0.0
    for j in range(16):
        phi = np.full(len(X), 2 * PI * j / 16)
        GX = G.gamma_from_frame(IX, JX, phi)
        GY = G.gamma_from_frame(IY, JY, phi + p0)
        worst = max(worst, float(np.max(
            np.linalg.norm(GX - GY, axis=1) / d)))
    assert worst <= 3.0


def test_tanaka_antipodal():
    # Y = -X: both Gammas have norm |X| so the difference is at most
    # 2|X| = |X-Y|, comfortably inside the bound
    rng = np.random.default_rng(18)
    X = rng.normal(size=(500, 3))
    Y = -X
    p0 = G.phi_zero(X, Y)
    for j in range(8):
        phi = np.full(500, 2 * PI * j / 8)
        diff = np.linalg.norm(
            G.gamma_vec(X, phi) - G.gamma_vec(Y, phi + p0), axis=1)
        assert np.all(diff <= 3 * np.linalg.norm(X - Y, axis=1) + 1e-12)


# ---------------------------------------------------------------------------
# jumps


def test_jump_c_degenerate_and_beyond_support():
    kern = K.CoulombKernel(0.1, h_eps=0.0)
    v = np.array([1.0, 0.0, 0.0])
    # v = v* short-circuits to zero
    out = G.jump_c(kern, v, v, 1.0, 0.3)
    np.testing.assert_array_equal(out, np.zeros(3))
    # z beyond Phi * H(eps): angle 0, displacement 0
    vs = np.array([0.0, 1.0, 0.0])
    r = math.sqrt(2.0)
    z_big = float(kern.phi(r)) * kern.tail.z_max * 1.001
    out = G.jump_c(kern, v, vs, z_big, 0.3)
    np.testing.assert_array_equal(out, np.zeros(3))
    # just inside the support the jump is nonzero
    out = G.jump_c(kern, v, vs, z_big * 0.99, 0.3)
    assert np.linalg.norm(out) > 0


def test_jump_c_matches_displacement():
    kern = K.SoftKernel(-0.5, 0.6)
    rng = np.random.default_rng(19)
    v = rng.normal(size=(100, 3))
    vs = rng.normal(size=(100, 3))
    z = rng.exponential(1.0, 100)
    ph = rng.uniform(0, 2 * PI, 100)
    r = np.linalg.norm(v - vs, axis=1)
    theta = kern.tail.G(z / kern.phi(r))
    _, _, a = G.deviate(v, vs, theta, ph)
    np.testing.assert_allclose(G.jump_c(kern, v, vs, z, ph), a, atol=1e-14)


def test_jump_d_form_and_zero_mean():
    kern = K.SoftKernel(-0.5, 0.6)
    v = np.array([0.3, -0.2, 1.0])
    vs = np.array([-0.5, 0.1, 0.2])
    r = np.linalg.norm(v - vs)
    z = 0.7
    theta = float(kern.tail.G(np.array(z / float(kern.phi(r)))))
    phis = 2 * PI * np.arange(64) / 64
    d = G.jump_d(kern, np.broadcast_to(v, (64, 3)),
                 np.broadcast_to(vs, (64, 3)), np.full(64, z), phis)
    np.testing.assert_allclose(np.linalg.norm(d, axis=1),
                               0.5 * theta * r, rtol=1e-12)
    assert np.max(np.abs(d.mean(axis=0))) < 1e-14  # zero angular mean
    np.testing.assert_array_equal(
        G.jump_d(kern, v, v, z, 0.1), np.zeros(3))


def test_jump_identity_second_moment():
    # integral(|c|^2 dphi dz) = k Phi(r) r^2, quadrature through jump_c
    rng = np.random.default_rng(20)
    pairs = rng.normal(size=(6, 2, 3))
    for kern in (K.SoftKernel(-0.5, 0.6),
                 K.GrazingKernel(-0.5, 0.6, PI / 8),
                 K.CoulombKernel(0.1, h_eps=0.0)):
        rep = G.jump_identity_report(kern, pairs, n_phi=16)
        assert rep["max_rel_error"] < 1e-6, kern.params()
        assert rep["max_linearization_ratio"] <= 1.0, kern.params()


def test_coulomb_floor_perturbation_bounded():
    rng = np.random.default_rng(21)
    pairs = rng.normal(size=(8, 2, 3))
    rep = G.coulomb_floor_perturbation_report(0.1, [1e-1, 1e-2, 1e-3], pairs)
    # pinned from the pilot sweep: sup ratio 1.85 over eps in {0.3, 0.1},
    # 20 pairs; cap 3.0 with margin
    assert rep["sup_ratio"] < 3.0
    assert set(rep["per_h"]) == {0.1, 0.01, 0.001}


# ---------------------------------------------------------------------------
# compensator drift


def test_compensator_drift_full_window():
    kern = K.GrazingKernel(-0.5, 0.6, PI / 8)
    v = np.array([1.0, 0.0, 0.0])
    vs = np.array([0.0, 1.0, 0.0])
    r = math.sqrt(2.0)
    expect = -K.k_constant(kern) * float(kern.phi(r)) * (v - vs)
    # theta_min at the support edge (or beyond) gives the full drift
    np.testing.assert_allclose(
        G.compensator_drift(kern, v, vs, kern.eps), expect, rtol=1e-10)
    np.testing.assert_allclose(
        G.compensator_drift(kern, v, vs, PI), expect, rtol=1e-10)


def test_compensator_drift_small_window_and_degenerate():
    kern = K.SoftKernel(-0.5, 0.6)
    v = np.array([1.0, 0.0, 0.0])
    vs = np.array([0.0, 1.0, 0.0])
    d_small = G.compensator_drift(kern, v, vs, 1e-6)
    assert np.linalg.norm(d_small) < 1e-8
    # window monotonicity
    n1 = np.linalg.norm(G.compensator_drift(kern, v, vs, 0.1))
    n2 = np.linalg.norm(G.compensator_drift(kern, v, vs, 1.0))
    assert n1 < n2
    np.testing.assert_array_equal(
        G.compensator_drift(kern, v, v, 0.5), np.zeros(3))
