"""Collision geometry: orthogonal frames, spherical deviations, and the
jump displacement functions driven by a kernel's tail inverse.

All functions are vectorized over leading axes; a velocity is the last
axis of length 3. The deterministic frame attached to a relative velocity
X is built from the coordinate axis least aligned with X:

    I0 = normalize(e_k x X^),   J0 = X^ x I0,
    I  = s * |X| * I0,          J  = s * |X| * J0,

with s the sign of the first nonzero component of X. The triple
(X^, I, J) is right-handed for every X (J = X^ x I exactly), which is
what lets a plane rotation phi_zero align the frames of two nearby
vectors. Under negation, I(-X) = I(X) and J(-X) = -J(X), both bit-exact.
(A frame with both members odd cannot be right-handed everywhere: the
handedness flip it forces is a reflection, which no rotation phi_zero can
absorb, and the alignment bound fails for pairs straddling the flip set.
The even/odd split is the price of the alignment guarantee.)
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError
from .kernels import k_constant, residual_k, theta_moment

__all__ = [
    "frame",
    "gamma_vec",
    "gamma_from_frame",
    "deviate",
    "phi_zero",
    "jump_c",
    "jump_d",
    "compensator_drift",
    "jump_identity_report",
    "coulomb_floor_perturbation_report",
]


def _norm(X):
    return np.sqrt(np.sum(X * X, axis=-1))


def _cross(a, b):
    """a x b over the last axis, in np.cross's operation order (so the
    result is bit-identical) without its per-call axis handling."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(a.shape)
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def frame(X):
    """Deterministic orthogonal frame (I, J) attached to X, each of norm
    |X|, both orthogonal to X and to each other, with (X^, I, J)
    right-handed. Raises DegenerateInputError on any zero vector.
    """
    X = np.asarray(X, dtype=float)
    r = _norm(X)
    if np.any(r == 0.0):
        raise DegenerateInputError("frame of a zero vector is undefined")
    Xh = X / r[..., None]
    k = np.argmin(np.abs(Xh), axis=-1)
    e = np.eye(3)[k]
    C = _cross(e, Xh)
    I0 = C / _norm(C)[..., None]
    J0 = _cross(Xh, I0)
    x0, x1, x2 = X[..., 0], X[..., 1], X[..., 2]
    s = np.where(x0 != 0.0, np.sign(x0),
                 np.where(x1 != 0.0, np.sign(x1), np.sign(x2)))
    scale = (s * r)[..., None]
    return scale * I0, scale * J0


def gamma_from_frame(I, J, phi):
    """cos(phi) * I + sin(phi) * J for an already-computed frame."""
    phi = np.asarray(phi, dtype=float)
    return np.cos(phi)[..., None] * I + np.sin(phi)[..., None] * J


def gamma_vec(X, phi):
    """In-plane deviation direction of norm |X|, orthogonal to X."""
    I, J = frame(X)
    return gamma_from_frame(I, J, phi)


def _displacement(X, theta, phi, r_sq=None):
    """a = -((1-cos theta)/2) X + (sin(theta)/2) Gamma(X, phi), with zero
    rows of X contributing zero (no frame needed there)."""
    X = np.asarray(X, dtype=float)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    r2 = np.sum(X * X, axis=-1) if r_sq is None else r_sq
    ok = r2 > 0.0
    Xsafe = np.where(ok[..., None], X, np.array([1.0, 0.0, 0.0]))
    G = gamma_vec(Xsafe, phi)
    a = (-(0.5 * (1.0 - np.cos(theta)))[..., None] * Xsafe
         + (0.5 * np.sin(theta))[..., None] * G)
    return np.where(ok[..., None], a, 0.0)


def deviate(v, v_star, theta, phi):
    """Post-collision velocities for deviation angle theta and azimuth phi.

    Returns (v', v_star', a) with v' = v + a, v_star' = v_star - a and
    a = -((1-cos theta)/2)(v-v*) + (sin(theta)/2) Gamma(v-v*, phi).
    Momentum v+v* and energy |v|^2+|v*|^2 are conserved; identical
    velocities are a no-op.
    """
    v = np.asarray(v, dtype=float)
    v_star = np.asarray(v_star, dtype=float)
    a = _displacement(v - v_star, theta, phi)
    return v + a, v_star - a, a


def phi_zero(X, Y):
    """Rotation angle aligning the frame of Y to the frame of X.

    phi_0 = atan2(b, a) with a = I_X.I_Y + J_X.J_Y and
    b = I_X.J_Y - J_X.I_Y maximizes the mean-square alignment
    cos(phi_0) a + sin(phi_0) b; with it,
    |Gamma(X, phi) - Gamma(Y, phi + phi_0)| <= 3 |X - Y| for all phi
    (empirically the constant is 1).
    """
    IX, JX = frame(X)
    IY, JY = frame(Y)
    a = np.sum(IX * IY, axis=-1) + np.sum(JX * JY, axis=-1)
    b = np.sum(IX * JY, axis=-1) - np.sum(JX * IY, axis=-1)
    return np.arctan2(b, a)


def _theta_from_z(kernel, r, z):
    """Deviation angle G(z / Phi(r)) with zero standing in where the
    relative speed vanishes (the caller masks those rows out)."""
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    ok = r > 0.0
    rs = np.where(ok, r, 1.0)
    theta = kernel.tail.G(z / kernel.phi(rs))
    return np.where(ok, theta, 0.0)


def jump_c(kernel, v, v_star, z, phi):
    """Displacement a[v, v*, G(z/Phi(|v-v*|)), phi]: the full collision
    jump at jump coordinate z. Zero when v = v* or when the angle maps to
    zero (beyond a Coulomb kernel's support)."""
    v = np.asarray(v, dtype=float)
    v_star = np.asarray(v_star, dtype=float)
    X = v - v_star
    r2 = np.sum(X * X, axis=-1)
    theta = _theta_from_z(kernel, np.sqrt(r2), z)
    return _displacement(X, theta, phi, r_sq=r2)


def jump_d(kernel, v, v_star, z, phi):
    """Small-angle linearization (1/2) G(z/Phi) Gamma(v-v*, phi) of the
    collision jump (no radial contraction, angle applied linearly)."""
    v = np.asarray(v, dtype=float)
    v_star = np.asarray(v_star, dtype=float)
    X = v - v_star
    r2 = np.sum(X * X, axis=-1)
    ok = r2 > 0.0
    theta = _theta_from_z(kernel, np.sqrt(r2), z)
    Xsafe = np.where(ok[..., None], X, np.array([1.0, 0.0, 0.0]))
    G = gamma_vec(Xsafe, np.asarray(phi, dtype=float))
    d = (0.5 * theta)[..., None] * G
    return np.where(ok[..., None], d, 0.0)


def compensator_drift(kernel, v, v_star, theta_min):
    """Drift -k_res * Phi(|v-v*|) * (v-v*) replacing compensated jumps
    with deviation angle below theta_min, where
    k_res = pi * integral((1-cos theta) beta, 0..theta_min). With
    theta_min at or beyond the support edge this is the full drift
    -k * Phi * (v-v*)."""
    v = np.asarray(v, dtype=float)
    v_star = np.asarray(v_star, dtype=float)
    X = v - v_star
    r = _norm(X)
    ok = r > 0.0
    rs = np.where(ok, r, 1.0)
    k_res = residual_k(kernel, float(theta_min))
    out = -k_res * kernel.phi(rs)[..., None] * X
    return np.where(ok[..., None], out, 0.0)


# ---------------------------------------------------------------------------
# quadrature identity reports


def _theta_panels(kernel, lo: float, hi: float, n_panels: int = 48,
                  order: int = 16):
    """Gauss-Legendre nodes/weights for integral(f(theta) beta(theta)),
    panels geometric toward the singular lower edge."""
    s_lo, s_hi = kernel.support
    lo = max(lo, s_lo)
    hi = min(hi, s_hi)
    if s_lo == 0.0:
        edges = hi * np.concatenate(
            [[lo / hi if lo > 0 else 0.0],
             np.geomspace(max(lo / hi, 1e-10), 1.0, n_panels)])
    else:
        edges = np.geomspace(lo, hi, n_panels + 1)
    edges = np.unique(np.clip(edges, lo, hi))
    xg, wg = np.polynomial.legendre.leggauss(order)
    a, b = edges[:-1], edges[1:]
    nodes = (0.5 * (b - a)[:, None] * xg[None, :]
             + 0.5 * (a + b)[:, None]).ravel()
    weights = (0.5 * (b - a)[:, None] * wg[None, :]).ravel()
    return nodes, weights * kernel.beta(nodes)


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
    r = _norm(X)
    Phi = kernel.phi(r)
    k = k_constant(kernel)
    m4 = theta_moment(kernel, 4.0)
    nodes, bweights = _theta_panels(kernel, 0.0, math.pi)
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


def coulomb_floor_perturbation_report(eps: float, h_list, pairs,
                                      *, n_phi: int = 16) -> dict:
    """Size of the jump perturbation caused by the velocity floor h in the
    Coulomb factor (r+h)^-3 relative to the unfloored r^-3.

    For each h and pair computes integral(|c_h - c_0|^2 dphi dz) divided
    by h * r^-2 and reports the supremum of that ratio.
    """
    from .kernels import CoulombKernel

    pairs = np.asarray(pairs, dtype=float)
    v, v_star = pairs[:, 0, :], pairs[:, 1, :]
    X = v - v_star
    r = _norm(X)
    base = CoulombKernel(eps, h_eps=0.0)
    tail = base.tail
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    out: dict = {"per_h": {}}
    sup = 0.0
    for h in h_list:
        kern_h = CoulombKernel(eps, h_eps=float(h))
        ratios = np.zeros(len(pairs))
        for i in range(len(pairs)):
            Phi0 = float(base.phi(r[i]))
            Phih = float(kern_h.phi(r[i]))
            # kink where the floored branch dies: z = Phi_h * z_max
            theta_kink = float(tail.G(np.array(Phih * tail.z_max / Phi0)))
            nodes1, w1 = _theta_panels(base, base.eps, theta_kink, 24)
            nodes2, w2 = _theta_panels(base, theta_kink, 0.5 * math.pi, 24)
            nodes = np.concatenate([nodes1, nodes2])
            w = np.concatenate([w1, w2])
            z = Phi0 * tail.H(nodes)
            vv = np.broadcast_to(v[i], (len(nodes), n_phi, 3))
            ss = np.broadcast_to(v_star[i], (len(nodes), n_phi, 3))
            zz = np.broadcast_to(z[:, None], (len(nodes), n_phi))
            pp = np.broadcast_to(phis[None, :], (len(nodes), n_phi))
            diff = jump_c(kern_h, vv, ss, zz, pp) - jump_c(base, vv, ss, zz, pp)
            phi_mean = np.mean(np.sum(diff * diff, axis=-1), axis=1)
            quad = 2.0 * math.pi * Phi0 * np.sum(w * phi_mean)
            ratios[i] = quad / (float(h) * r[i] ** -2.0)
        out["per_h"][float(h)] = {
            "sup_ratio": float(np.max(ratios)),
            "ratios": ratios,
        }
        sup = max(sup, float(np.max(ratios)))
    out["sup_ratio"] = sup
    return out
