"""Property tests for the collision geometry: frame structure, negation
parity, conservation, and bit-identity with the row-wise formulas
(np.linalg.norm, argmin over the last axis, np.eye, np.cross)."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grazekit import geometry as G
from grazekit import kernels as K

# components: exact small values (zeros of both signs among them) and
# magnitudes over 60 decades; no row squares to an underflow or overflow
_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -0.5, 3.0])
_MAGNITUDE = st.builds(
    lambda m, neg: -m if neg else m,
    st.floats(min_value=1e-30, max_value=1e30), st.booleans())
_COMPONENT = st.one_of(_SPECIAL, _MAGNITUDE)


_ZERO = st.sampled_from([0.0, -0.0])


@st.composite
def _vector(draw, zero_rows=False):
    """A 3-vector, often with a tie |x_i| = |x_j|, on a coordinate axis
    (signed zeros elsewhere) or, if allowed, zero."""
    x = [draw(_COMPONENT) for _ in range(3)]
    kinds = ["free", "tie", "tie", "axis"] + (["zero"] if zero_rows else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "tie":
        i, j = draw(st.sampled_from([(0, 1), (1, 2), (0, 2)]))
        x[j] = -x[i] if draw(st.booleans()) else x[i]
    elif kind == "axis":
        k = draw(st.integers(0, 2))
        x = [x[i] if i == k else draw(_ZERO) for i in range(3)]
    elif kind == "zero":
        x = [draw(_ZERO) for _ in range(3)]
    if not zero_rows and all(c == 0.0 for c in x):
        x[draw(st.integers(0, 2))] = 1.0
    return x


def _rows(zero_rows=False):
    return st.lists(_vector(zero_rows), min_size=1, max_size=12).map(
        lambda rows: np.array(rows, dtype=float))


_ANGLE = st.floats(min_value=0.0, max_value=math.pi)
_AZIMUTH = st.floats(min_value=0.0, max_value=2.0 * math.pi)


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and \
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


# ---------------------------------------------------------------------------
# row-wise reference formulas


def _ref_frame(X):
    r = np.linalg.norm(X, axis=-1)
    Xh = X / r[..., None]
    e = np.eye(3)[np.argmin(np.abs(Xh), axis=-1)]
    C = np.cross(e, Xh)
    I0 = C / np.linalg.norm(C, axis=-1)[..., None]
    J0 = np.cross(Xh, I0)
    x0, x1, x2 = X[..., 0], X[..., 1], X[..., 2]
    s = np.where(x0 != 0.0, np.sign(x0),
                 np.where(x1 != 0.0, np.sign(x1), np.sign(x2)))
    return (s * r)[..., None] * I0, (s * r)[..., None] * J0


def _ref_collide(v, w, sin_half, sin_theta, phi):
    X = v - w
    ok = np.linalg.norm(X, axis=-1) > 0.0
    Xs = np.where(ok[..., None], X, np.array([1.0, 0.0, 0.0]))
    I, J = _ref_frame(Xs)
    Gm = np.cos(phi)[..., None] * I + np.sin(phi)[..., None] * J
    a = (-(sin_half ** 2))[..., None] * Xs \
        + (0.5 * sin_theta)[..., None] * Gm
    a = np.where(ok[..., None], a, 0.0)
    return v + a, w - a, a


def _ref_deviate(v, w, theta, phi):
    return _ref_collide(v, w, np.sin(0.5 * theta), np.sin(theta), phi)


def _ref_jump_c(kernel, v, w, z, phi):
    X = v - w
    r = np.linalg.norm(X, axis=-1)
    ok = r > 0.0
    rs = np.where(ok, r, 1.0)
    _, sin_half, sin_theta = kernel.tail.angles(z / kernel.phi(rs))
    return _ref_collide(v, w, np.where(ok, sin_half, 0.0),
                        np.where(ok, sin_theta, 0.0), phi)[2]


# ---------------------------------------------------------------------------
# frame


@given(_rows())
def test_frame_orthonormal_and_right_handed(X):
    I, J = G.frame(X)
    r = np.linalg.norm(X, axis=1)
    unit = X / r[:, None]
    Ih, Jh = I / r[:, None], J / r[:, None]
    for a, b in ((Ih, unit), (Jh, unit), (Ih, Jh)):
        assert np.max(np.abs(np.sum(a * b, axis=1))) < 1e-12
    for a in (Ih, Jh):
        assert np.max(np.abs(np.linalg.norm(a, axis=1) - 1.0)) < 1e-12
    # J = X^ x I: the frame never flips handedness
    assert np.max(np.abs(np.cross(unit, Ih) - Jh)) < 1e-12


@given(_rows())
def test_frame_negation_parity_exact(X):
    # I(-X) = I(X), J(-X) = -J(X) exactly (zeros may change sign)
    I, J = G.frame(X)
    In, Jn = G.frame(-X)
    assert np.array_equal(In, I)
    assert np.array_equal(Jn, -J)


@given(_rows())
def test_frame_matches_row_reference(X):
    for got, want in zip(G.frame(X), _ref_frame(X)):
        assert _same_bytes(got, want)
    for got, want in zip(G.frame(X[0]), _ref_frame(X[0])):
        assert _same_bytes(got, want)
    assert _same_bytes(G.row_norm(X), np.linalg.norm(X, axis=-1))


@given(_rows(), _rows())
def test_phi_zero_matches_row_reference(X, Y):
    n = min(len(X), len(Y))
    X, Y = X[:n], Y[:n]
    IX, JX = _ref_frame(X)
    IY, JY = _ref_frame(Y)
    want = np.arctan2(np.sum(IX * JY, axis=-1) - np.sum(JX * IY, axis=-1),
                      np.sum(IX * IY, axis=-1) + np.sum(JX * JY, axis=-1))
    assert _same_bytes(G.phi_zero(X, Y), want)


# ---------------------------------------------------------------------------
# deviate and jump_c


@st.composite
def _collisions(draw):
    v = draw(_rows(zero_rows=True))
    n = len(v)
    sized = dict(min_size=n, max_size=n)
    # v* = v on some rows, so zero relative velocities occur
    same = np.array(draw(st.lists(st.booleans(), **sized)))
    w = np.array(draw(st.lists(_vector(zero_rows=True), **sized)))
    w = np.where(same[:, None], v, w)
    theta = np.array(draw(st.lists(_ANGLE, **sized)))
    phi = np.array(draw(st.lists(_AZIMUTH, **sized)))
    return v, w, theta, phi


@given(_collisions())
def test_deviate_conserves_momentum_and_energy(case):
    v, w, theta, phi = case
    vp, wp, a = G.deviate(v, w, theta, phi)
    scale = np.sum(v * v + w * w, axis=1)
    keep = scale > 0.0
    mom = np.abs(vp + wp - v - w).max(axis=1)
    assert np.all(mom[keep] <= 1e-15 * np.sqrt(scale[keep]) * 4)
    energy = np.abs(np.sum(vp * vp + wp * wp, axis=1) - scale)
    assert np.all(energy[keep] <= 1e-14 * scale[keep])
    # |a|^2 = sin^2(theta/2) |v - v*|^2, also as theta -> 0
    r2 = np.sum((v - w) ** 2, axis=1)
    gap = np.abs(np.sum(a * a, axis=1) - np.sin(0.5 * theta) ** 2 * r2)
    assert np.all(gap <= 1e-14 * r2)


@given(_collisions())
def test_deviate_matches_row_reference(case):
    v, w, theta, phi = case
    for got, want in zip(G.deviate(v, w, theta, phi),
                         _ref_deviate(v, w, theta, phi)):
        assert _same_bytes(got, want)


@pytest.mark.parametrize("kernel", [
    K.GrazingKernel(-0.5, 0.6, math.pi / 8), K.SoftKernel(-1.5, 0.3),
    K.CoulombKernel(0.1)], ids=["grazing", "soft", "coulomb"])
@given(case=_collisions(),
       z_scale=st.floats(min_value=1e-6, max_value=1e6))
def test_jump_c_matches_row_reference(kernel, case, z_scale):
    v, w, _, phi = case
    z = z_scale * np.linspace(0.0, 2.0, len(v))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        got = G.jump_c(kernel, v, w, z, phi)
        want = _ref_jump_c(kernel, v, w, z, phi)
    assert _same_bytes(got, want)


@given(_vector(zero_rows=True), _vector(zero_rows=True),
       st.lists(_ANGLE, min_size=2, max_size=6))
def test_deviate_broadcasts_one_pair_over_angles(v, w, thetas):
    # per-row arrays may extend the velocities' leading shape: one pair
    # against k angles gives k deviations, each as if taken alone
    v, w, theta = np.array(v), np.array(w), np.array(thetas)
    phi = np.linspace(0.0, 6.0, len(theta))
    vp, wp, a = G.deviate(v, w, theta, phi)
    assert vp.shape == wp.shape == a.shape == (len(theta), 3)
    for i in range(len(theta)):
        want = G.deviate(v, w, theta[i], phi[i])
        assert all(_same_bytes(got[i], one)
                   for got, one in zip((vp, wp, a), want))
