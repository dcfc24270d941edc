"""Collision geometry: orthogonal frames, spherical deviations, and the
jump displacement functions driven by a kernel's tail inverse.

All public functions are vectorized over leading axes; a velocity is the
last axis of length 3. Internally they work on component-first (3, ...)
stacks (see below), which the Boltzmann round loop also uses directly.
The deterministic frame attached to a relative velocity
X is built from the coordinate axis least aligned with X:

    I0 = normalize(e_k x X^),   J0 = X^ x I0,
    I  = s * |X| * I0,          J  = s * |X| * J0,

with s the sign of the first nonzero component of X. The triple
(X^, I, J) is right-handed for every X (J = X^ x I exactly), which is
what lets a plane rotation phi_zero align the frames of two nearby
vectors. Under negation, I(-X) = I(X) and J(-X) = -J(X), both exact (a
zero component may change sign).
(A frame with both members odd cannot be right-handed everywhere: the
handedness flip it forces is a reflection, which no rotation phi_zero can
absorb, and the alignment bound fails for pairs straddling the flip set.
The even/odd split is the price of the alignment guarantee.)
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError
from .kernels import k_constant, theta_moment, theta_rule

__all__ = [
    "row_norm",
    "frame",
    "gamma_from_frame",
    "deviate",
    "phi_zero",
    "jump_c",
    "jump_d",
    "jump_identity_report",
]


# Every routine below works on component-first stacks of shape (3, ...):
# X[0], X[1], X[2] hold one component of all rows, so a 3-vector formula
# costs a few whole-array operations instead of reductions and gathers along
# a length-3 axis.  Each expression keeps numpy's operation order (np.sum
# and np.linalg.norm over a length-3 axis add left to right from +0,
# np.cross is a1 b2 - a2 b1, ...), so every result is bit-identical to the
# row-wise form, signed zeros included.

# a x b = a[i+1] b[i-1] - a[i-1] b[i+1]: take(_NP) stacks (a[i+1], a[i-1]),
# take(_PN) stacks (b[i-1], b[i+1]), and _E_NP.take(k, 2) stacks
# (e_k[i+1], e_k[i-1]) for the coordinate axis e_k
_NP = np.array([[1, 2, 0], [2, 0, 1]])
_PN = _NP[::-1].copy()
_E_NP = np.eye(3)[_NP]
_E0 = np.array([1.0, 0.0, 0.0])


def _cols(X):
    """Component-first view (3, ...) of a (..., 3) array."""
    return X.T if X.ndim <= 2 else np.moveaxis(X, -1, 0)


def _rows(Xc):
    """The (..., 3) view of a component-first stack."""
    return Xc.T if Xc.ndim <= 2 else np.moveaxis(Xc, 0, -1)


def _stack(X, *per_row):
    """Component-first stack of X, broadcast against per-row arrays whose
    shape may extend X's leading shape."""
    X = np.asarray(X, dtype=float)
    lead = np.broadcast_shapes(X.shape[:-1], *map(np.shape, per_row))
    if lead != X.shape[:-1]:
        X = np.broadcast_to(X, lead + (3,))
    return _cols(X)


def _norm(X):
    """Row norms of a component-first stack, sqrt((x0 x0 + x1 x1) + x2 x2):
    np.linalg.norm's order (its +0 start is a no-op, a square is never -0)."""
    S = X * X
    return np.sqrt(S[0] + S[1] + S[2])


def _dot(A, B):
    """Row dot products of component-first stacks in np.sum's order; the
    trailing + 0.0 is np.sum's +0 start, which turns an all-negative-zero
    sum into +0."""
    P = A * B
    return P[0] + P[1] + P[2] + 0.0


def _cross_c(a, b):
    """a x b of component-first stacks, in np.cross's operation order."""
    P = a.take(_NP, 0) * b.take(_PN, 0)
    return P[0] - P[1]


def _cross(a, b):
    """a x b over the last axis of (..., 3) arrays: _cross_c in row form,
    bit-identical to np.cross."""
    return _rows(_cross_c(_cols(a), _cols(b)))


def row_norm(X):
    """|X| over the last axis of a (..., 3) array, bit-identical to
    np.linalg.norm(X, axis=-1)."""
    return _norm(_cols(np.asarray(X, dtype=float)))


def _frame(X, r):
    """(I, J) of a component-first stack X with row norms r > 0."""
    Xh = X / r
    # e_k is the coordinate axis least aligned with X (the first on ties)
    k = np.abs(Xh).argmin(axis=0)
    P = _E_NP.take(k, 2) * Xh.take(_PN, 0)
    I0 = P[0] - P[1]  # e_k x X^, normalized below
    I0 /= _norm(I0)
    J0 = _cross_c(Xh, I0)
    # s * |X| with s the sign of the first nonzero component
    x0, x1, x2 = X
    scale = np.copysign(
        r, np.where(x0 != 0.0, x0, np.where(x1 != 0.0, x1, x2)))
    return scale * I0, scale * J0


def _checked_norm(X):
    r = _norm(X)
    if np.any(r == 0.0):
        raise DegenerateInputError("frame of a zero vector is undefined")
    return r


def frame(X):
    """Deterministic orthogonal frame (I, J) attached to X, each of norm
    |X|, both orthogonal to X and to each other, with (X^, I, J)
    right-handed. Raises DegenerateInputError on any zero vector.
    """
    Xc = _stack(X)
    I, J = _frame(Xc, _checked_norm(Xc))
    return _rows(I), _rows(J)


def gamma_from_frame(I, J, phi):
    """cos(phi) * I + sin(phi) * J for an already-computed frame."""
    phi = np.asarray(phi, dtype=float)
    return np.cos(phi)[..., None] * I + np.sin(phi)[..., None] * J


def _safe(X, r):
    """(X with zero rows replaced by e_0, ok = r > 0, r or 1) for a
    component-first stack X with row norms r."""
    ok = r > 0.0
    e0 = _E0.reshape((3,) + (1,) * ok.ndim)
    return np.where(ok, X, e0), ok, np.where(ok, r, 1.0)


def _displacement(X, ok, rs, sin_half, sin_theta, phi):
    """a = -sin^2(theta/2) X + (sin(theta)/2) Gamma(X, phi) of a
    component-first stack X already passed through _safe, from
    sin_half = sin(theta/2) and sin_theta = sin(theta); rows where ok is
    False contribute zero.  sin^2(theta/2) is (1 - cos theta)/2 without its
    cancellation at grazing angles."""
    I, J = _frame(X, rs)
    G = np.cos(phi) * I + np.sin(phi) * J
    a = (0.5 * sin_theta) * G - np.square(sin_half) * X
    return np.where(ok, a, 0.0)


def deviate(v, v_star, theta, phi):
    """Post-collision velocities for deviation angle theta and azimuth phi.

    Returns (v', v_star', a) with v' = v + a, v_star' = v_star - a and
    a = -((1-cos theta)/2)(v-v*) + (sin(theta)/2) Gamma(v-v*, phi), the
    first factor taken as sin^2(theta/2).  Momentum v+v* and energy
    |v|^2+|v*|^2 are conserved; identical velocities are a no-op.
    """
    v = np.asarray(v, dtype=float)
    v_star = np.asarray(v_star, dtype=float)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    X = _stack(v - v_star, theta, phi)
    X, ok, rs = _safe(X, _norm(X))
    a = _rows(_displacement(X, ok, rs, np.sin(0.5 * theta), np.sin(theta),
                            phi))
    return v + a, v_star - a, a


def phi_zero(X, Y):
    """Rotation angle aligning the frame of Y to the frame of X.

    phi_0 = atan2(b, a) with a = I_X.I_Y + J_X.J_Y and
    b = I_X.J_Y - J_X.I_Y maximizes the mean-square alignment
    cos(phi_0) a + sin(phi_0) b; with it,
    |Gamma(X, phi) - Gamma(Y, phi + phi_0)| <= 3 |X - Y| for all phi
    (empirically the constant is 1).
    """
    Xc, Yc = _stack(X), _stack(Y)
    return _align(*_frame(Xc, _checked_norm(Xc)),
                  *_frame(Yc, _checked_norm(Yc)))


def _align(IX, JX, IY, JY):
    """phi_zero from the component-first frames (IX, JX) of X and (IY, JY)
    of Y, already built."""
    a = _dot(IX, IY) + _dot(JX, JY)
    b = _dot(IX, JY) - _dot(JX, IY)
    return np.arctan2(b, a)


def _jump_c(kernel, X, ok, rs, phi, *window):
    """jump_c of a component-first stack X = v - v* already passed through
    _safe: both sines come from kernel.tail.angles(*window), a jump
    coordinate z / Phi(rs) or uniforms with their window (u, lo, mass)."""
    _, sin_half, sin_theta = kernel.tail.angles(*window)
    return _displacement(X, ok, rs, sin_half, sin_theta, phi)


def jump_c(kernel, v, v_star, z, phi):
    """Displacement a[v, v*, G(z/Phi(|v-v*|)), phi]: the full collision
    jump at jump coordinate z. Zero when v = v* or when the angle maps to
    zero (beyond a Coulomb kernel's support)."""
    z = np.asarray(z, dtype=float)
    phi = np.asarray(phi, dtype=float)
    X = _stack(np.asarray(v, dtype=float) - np.asarray(v_star, dtype=float),
               z, phi)
    X, ok, rs = _safe(X, _norm(X))
    return _rows(_jump_c(kernel, X, ok, rs, phi, z / kernel.phi(rs)))


def jump_d(kernel, v, v_star, z, phi):
    """Small-angle linearization (1/2) G(z/Phi) Gamma(v-v*, phi) of the
    collision jump (no radial contraction, angle applied linearly)."""
    z = np.asarray(z, dtype=float)
    phi = np.asarray(phi, dtype=float)
    X = _stack(np.asarray(v, dtype=float) - np.asarray(v_star, dtype=float),
               z, phi)
    X, ok, rs = _safe(X, _norm(X))
    theta = kernel.tail.G(z / kernel.phi(rs))
    I, J = _frame(X, rs)
    d = (0.5 * theta) * (np.cos(phi) * I + np.sin(phi) * J)
    return _rows(np.where(ok, d, 0.0))


# ---------------------------------------------------------------------------
# quadrature identity reports


def jump_identity_report(kernel, pairs, *, n_phi: int = 32) -> dict:
    """Quadrature check of the two jump-size identities on given velocity
    pairs, integrating through jump_c / jump_d themselves.

    For each pair (v, v*):
      * integral(|c|^2 dphi dz)      vs  k * Phi(r) * r^2  (closed form)
      * integral(|c-d|^2 dphi dz)    vs  m4 * Phi(r) * r^2 (upper bound)

    pairs: array (n, 2, 3). Returns max relative error of the first
    identity and max ratio of the second, plus per-pair arrays.
    """
    pairs = np.asarray(pairs, dtype=float)
    v, v_star = pairs[:, 0, :], pairs[:, 1, :]
    X = v - v_star
    r = row_norm(X)
    Phi = kernel.phi(r)
    k = k_constant(kernel)
    m4 = theta_moment(kernel, 4.0)
    nodes, bweights = theta_rule(kernel)
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi

    quad_c = np.zeros(len(pairs))
    quad_cd = np.zeros(len(pairs))
    for i in range(len(pairs)):
        # z-grid along the substitution z = Phi * H(theta); evaluating c
        # back through G(z/Phi) round-trips the tail inverse under test
        z = Phi[i] * kernel.tail.H(nodes)
        vv = np.broadcast_to(v[i], (len(nodes), n_phi, 3))
        ss = np.broadcast_to(v_star[i], (len(nodes), n_phi, 3))
        zz = np.broadcast_to(z[:, None], (len(nodes), n_phi))
        pp = np.broadcast_to(phis[None, :], (len(nodes), n_phi))
        c = jump_c(kernel, vv, ss, zz, pp)
        d = jump_d(kernel, vv, ss, zz, pp)
        phi_mean_c = np.mean(np.sum(c * c, axis=-1), axis=1)
        phi_mean_cd = np.mean(np.sum((c - d) ** 2, axis=-1), axis=1)
        quad_c[i] = 2.0 * math.pi * Phi[i] * np.sum(bweights * phi_mean_c)
        quad_cd[i] = 2.0 * math.pi * Phi[i] * np.sum(bweights * phi_mean_cd)

    closed = k * Phi * r * r
    rel_err = np.abs(quad_c - closed) / closed
    ratio = quad_cd / (m4 * Phi * r * r)
    return {
        "second_moment_quad": quad_c,
        "second_moment_closed": closed,
        "max_rel_error": float(np.max(rel_err)),
        "linearization_ratio": ratio,
        "max_linearization_ratio": float(np.max(ratio)),
        "k": k,
        "m4": m4,
    }
