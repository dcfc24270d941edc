"""Angular collision kernels: soft power-law, grazing-rescaled, and Coulomb.

A kernel here is the angular factor beta(theta) of a collision cross section
B(|v-v*|, theta) = Phi(|v-v*|) * beta(theta). Three families:

* soft:     beta(theta) = c_nu * theta^(-1-nu) on (0, pi], nu in (0, 2),
            with c_nu chosen so that the second angular moment
            integral(theta^2 * beta) equals 4/pi. The velocity factor is
            Phi(r) = r^gamma with gamma in (-3, 0).
* grazing:  the soft kernel squeezed onto (0, eps]:
            beta_eps(theta) = (pi/eps)^3 * beta(pi*theta/eps) for theta < eps.
            The rescaling preserves the second moment (still 4/pi) while
            pushing all mass to small deviation angles.
* coulomb:  beta_eps(theta) = (c_eps / log(1/eps)) * cos(theta/2)/sin^3(theta/2)
            on [eps, pi/2], again normalized to second moment 4/pi; the
            velocity factor is r^-3, optionally regularized to (r+h_eps)^-3.

Each family carries a closed-form tail integral H(theta) = integral_theta
of beta and its inverse G = H^{-1}, which converts a uniform jump coordinate
z into a deviation angle. All normalizations and tail inverses are exact
closed forms, and so are the window moments every simulator reads
(window_moments); quadrature is used only for the Coulomb theta_moment and
for the verification reports.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import integrate

from .errors import ParameterError

__all__ = [
    "SoftKernel",
    "GrazingKernel",
    "CoulombKernel",
    "TailInverse",
    "kernel_from_params",
    "soft_normalizer",
    "coulomb_normalizer",
    "theta_moment",
    "window_moments",
    "k_constant",
    "residual_k",
    "r_eta",
    "scaling_agreement_report",
    "coulomb_mismatch_report",
]

_QUAD_TOL = 1e-10  # absolute tolerance for adaptive quadrature throughout


# ---------------------------------------------------------------------------
# normalizers


def soft_normalizer(nu: float) -> float:
    """Constant c_nu making integral(theta^2 * c_nu * theta^(-1-nu), 0..pi)
    equal 4/pi: c_nu = 4*(2-nu) / pi^(3-nu)."""
    if not 0.0 < nu < 2.0:
        raise ParameterError(f"nu must lie in (0, 2), got {nu}")
    return 4.0 * (2.0 - nu) / math.pi ** (3.0 - nu)


def _coulomb_angular_mass(eps: float) -> float:
    """integral(theta^2 * cos(theta/2)/sin^3(theta/2), eps..pi/2), closed form
    obtained by integrating by parts twice."""
    s = math.sin(0.5 * eps)
    c = math.cos(0.5 * eps)
    return (
        eps * eps / (s * s)
        + 4.0 * eps * c / s
        + 8.0 * math.log(1.0 / (math.sqrt(2.0) * s))
        - 0.5 * math.pi * math.pi
        - 2.0 * math.pi
    )


def coulomb_normalizer(eps: float) -> float:
    """Constant c_eps normalizing the Coulomb kernel's second angular moment
    to 4/pi. 2*pi*c_eps tends to 1 as eps -> 0."""
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"coulomb eps must lie in (0, 1), got {eps}")
    return 4.0 * math.log(1.0 / eps) / (math.pi * _coulomb_angular_mass(eps))


# ---------------------------------------------------------------------------
# tail inverses


@dataclass(frozen=True)
class TailInverse:
    """Tail integral H(theta) of an angular kernel and its inverse G.

    H is continuous and decreasing from z_max (possibly inf) at the lower
    support edge down to 0 at the upper edge; G maps a jump coordinate
    z >= 0 back to an angle, with G(z) = 0 for z > z_max (no deviation).
    """

    H: callable
    G: callable
    z_max: float


def _soft_tail(c_nu: float, nu: float) -> TailInverse:
    pi_pow = math.pi ** (-nu)
    a = c_nu / nu

    def H(theta):
        theta = np.asarray(theta, dtype=float)
        out = a * (np.power(theta, -nu) - pi_pow)
        return np.where(theta >= math.pi, 0.0, out)

    def G(z):
        z = np.asarray(z, dtype=float)
        return np.power(nu * z / c_nu + pi_pow, -1.0 / nu)

    return TailInverse(H=H, G=G, z_max=math.inf)


def _grazing_tail(base: TailInverse, eps: float) -> TailInverse:
    scale = (math.pi / eps) ** 2

    def H(theta):
        theta = np.asarray(theta, dtype=float)
        out = scale * base.H(np.minimum(math.pi * theta / eps, math.pi))
        return np.where(theta >= eps, 0.0, out)

    def G(z):
        z = np.asarray(z, dtype=float)
        return (eps / math.pi) * base.G(z / scale)

    return TailInverse(H=H, G=G, z_max=math.inf)


def _coulomb_tail(k_c: float, eps: float) -> TailInverse:
    z_max = k_c * (1.0 / math.sin(0.5 * eps) ** 2 - 2.0)

    def H(theta):
        theta = np.asarray(theta, dtype=float)
        th = np.clip(theta, eps, 0.5 * math.pi)
        out = k_c * (1.0 / np.sin(0.5 * th) ** 2 - 2.0)
        out = np.where(theta < eps, z_max, out)
        return np.where(theta >= 0.5 * math.pi, 0.0, out)

    def G(z):
        z = np.asarray(z, dtype=float)
        inside = z <= z_max
        zc = np.where(inside, z, 0.0)
        ang = 2.0 * np.arcsin(1.0 / np.sqrt(zc / k_c + 2.0))
        return np.where(inside, ang, 0.0)

    return TailInverse(H=H, G=G, z_max=z_max)


# ---------------------------------------------------------------------------
# kernel families


@dataclass(frozen=True)
class SoftKernel:
    """Power-law angular kernel for a soft potential, support (0, pi]."""

    gamma: float
    nu: float
    c_nu: float = field(init=False)

    def __post_init__(self):
        if not -3.0 < self.gamma < 0.0:
            raise ParameterError(f"gamma must lie in (-3, 0), got {self.gamma}")
        object.__setattr__(self, "c_nu", soft_normalizer(self.nu))

    family = "soft"

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, math.pi)

    def beta(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.zeros_like(theta)
        ok = (theta > 0.0) & (theta <= math.pi)
        out[ok] = self.c_nu * theta[ok] ** (-1.0 - self.nu)
        return out

    def phi(self, r):
        """Velocity factor Phi(r) = r^gamma (unregularized; callers floor r)."""
        r = np.asarray(r, dtype=float)
        return np.power(r, self.gamma)

    @functools.cached_property
    def tail(self) -> TailInverse:
        return _soft_tail(self.c_nu, self.nu)

    def params(self) -> dict:
        return {"family": self.family, "gamma": self.gamma, "nu": self.nu}


@dataclass(frozen=True)
class GrazingKernel:
    """Soft kernel rescaled to concentrate on deviation angles below eps."""

    gamma: float
    nu: float
    eps: float
    base: SoftKernel = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.eps <= math.pi:
            raise ParameterError(f"grazing eps must lie in (0, pi], got {self.eps}")
        object.__setattr__(self, "base", SoftKernel(self.gamma, self.nu))

    family = "grazing"

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, self.eps)

    def beta(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.zeros_like(theta)
        ok = (theta > 0.0) & (theta < self.eps)
        scale = (math.pi / self.eps) ** 3
        out[ok] = scale * self.base.beta(math.pi * theta[ok] / self.eps)
        return out

    def phi(self, r):
        return self.base.phi(r)

    @functools.cached_property
    def tail(self) -> TailInverse:
        return _grazing_tail(self.base.tail, self.eps)

    def params(self) -> dict:
        return {"family": self.family, "gamma": self.gamma, "nu": self.nu,
                "eps": self.eps}


@dataclass(frozen=True)
class CoulombKernel:
    """Rutherford-type angular kernel on [eps, pi/2] with gamma = -3.

    h_eps >= 0 regularizes the velocity factor to (r + h_eps)^-3; h_eps = 0
    is the pure kernel used in integral identities. The default schedule ties
    h_eps = eps (non-increasing along any decreasing eps sweep).
    """

    eps: float
    h_eps: float | None = None
    c_eps: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ParameterError(f"coulomb eps must lie in (0, 1), got {self.eps}")
        if self.h_eps is None:
            object.__setattr__(self, "h_eps", self.eps)
        if not 0.0 <= self.h_eps < 1.0:
            raise ParameterError(f"h_eps must lie in [0, 1), got {self.h_eps}")
        object.__setattr__(self, "c_eps", coulomb_normalizer(self.eps))

    family = "coulomb"
    gamma = -3.0

    @property
    def k_c(self) -> float:
        """Prefactor c_eps / log(1/eps) of the angular density."""
        return self.c_eps / math.log(1.0 / self.eps)

    @property
    def support(self) -> tuple[float, float]:
        return (self.eps, 0.5 * math.pi)

    def beta(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.zeros_like(theta)
        ok = (theta >= self.eps) & (theta <= 0.5 * math.pi)
        th = theta[ok]
        out[ok] = self.k_c * np.cos(0.5 * th) / np.sin(0.5 * th) ** 3
        return out

    def phi(self, r):
        r = np.asarray(r, dtype=float)
        return np.power(r + self.h_eps, -3.0)

    @functools.cached_property
    def tail(self) -> TailInverse:
        return _coulomb_tail(self.k_c, self.eps)

    def params(self) -> dict:
        return {"family": self.family, "eps": self.eps, "h_eps": self.h_eps}


Kernel = SoftKernel | GrazingKernel | CoulombKernel


def kernel_from_params(family: str, *, gamma: float | None = None,
                       nu: float | None = None, eps: float | None = None,
                       h_eps: float | None = None) -> Kernel:
    """Build a kernel from flat config parameters (unused ones must be None)."""
    if h_eps is not None and family in ("soft", "grazing"):
        raise ParameterError(f"{family} kernel does not take 'h_eps' "
                             "(only coulomb does)")
    if family == "soft":
        if gamma is None or nu is None or eps is not None:
            raise ParameterError("soft kernel takes gamma and nu only")
        return SoftKernel(gamma, nu)
    if family == "grazing":
        if gamma is None or nu is None or eps is None:
            raise ParameterError("grazing kernel takes gamma, nu and eps")
        return GrazingKernel(gamma, nu, eps)
    if family == "coulomb":
        if eps is None or gamma is not None or nu is not None:
            raise ParameterError("coulomb kernel takes eps (and optional h_eps)")
        return CoulombKernel(eps, h_eps)
    raise ParameterError(f"unknown kernel family {family!r}")


# ---------------------------------------------------------------------------
# angular moments


def _quad_split(f, lo: float, hi: float, splits: int) -> float:
    """Adaptive quadrature on `splits` geometric panels toward lo > 0, for
    integrands that steepen at the lower endpoint."""
    edges = [lo] + [lo * (hi / lo) ** (j / splits) for j in range(1, splits)] + [hi]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = integrate.quad(f, a, b, epsabs=_QUAD_TOL / splits,
                                epsrel=1e-12, limit=200)
        total += val
    return total


def theta_moment(kernel: Kernel, power: float) -> float:
    """integral(theta^power * beta(theta)) over the kernel support.

    Soft and grazing kernels use the closed form; Coulomb integrates
    adaptively with geometric splitting toward the lower support edge.
    Preconditions: power > nu for soft families (divergent otherwise),
    power >= 0 for Coulomb.
    """
    if isinstance(kernel, SoftKernel):
        if power <= kernel.nu:
            raise ParameterError(
                f"moment power must exceed nu={kernel.nu}, got {power}")
        return kernel.c_nu * math.pi ** (power - kernel.nu) / (power - kernel.nu)
    if isinstance(kernel, GrazingKernel):
        if power <= kernel.nu:
            raise ParameterError(
                f"moment power must exceed nu={kernel.nu}, got {power}")
        base_moment = theta_moment(kernel.base, power)
        return (kernel.eps / math.pi) ** (power - 2.0) * base_moment
    if isinstance(kernel, CoulombKernel):
        if power < 0:
            raise ParameterError(f"moment power must be >= 0, got {power}")
        lo, hi = kernel.support
        return _quad_split(lambda t: t ** power * float(kernel.beta(t)),
                           lo, hi, 24)
    raise ParameterError(f"not a kernel: {kernel!r}")


class Moments(NamedTuple):
    """beta-integrals over one angular window."""

    mass: float        # integral(beta), from the tail H
    one_cos: float     # integral((1 - cos theta) * beta)
    one_cos_sq: float  # integral((1 - cos theta)^2 * beta)
    theta_sq: float    # integral(theta^2 * beta)
    sin_sq: float      # integral(sin^2 theta * beta)


# Power series of 1 - cos t and of (1 - cos t)^2 = 3/2 - 2 cos t + cos(2t)/2
# in t^(2k), k = 1..24; at t = pi their last terms are below 1e-23.
_K = np.arange(1, 25)
_FACT = np.array([float(math.factorial(2 * k)) for k in _K])
_ONE_COS_COEF = (-1.0) ** (_K + 1) / _FACT
_ONE_COS_SQ_COEF = (-1.0) ** _K * (2.0 ** (2 * _K - 1) - 2.0) / _FACT


def _power_law_antiderivatives(kernel, x):
    """integral((1 - cos), (1 - cos)^2, theta^2 against beta, 0..x) for
    beta = a * theta^(-1-nu), term by term over the series: exact to
    rounding for every nu in (0, 2)."""
    nu = kernel.nu
    if isinstance(kernel, GrazingKernel):
        a = (math.pi / kernel.eps) ** (2.0 - nu) * kernel.base.c_nu
    else:
        a = kernel.c_nu
    e = 2.0 * _K - nu
    powers = x ** e / e
    return a * np.array([math.fsum(_ONE_COS_COEF * powers),
                         math.fsum(_ONE_COS_SQ_COEF * powers), powers[0]])


def _coulomb_antiderivatives(kernel, x):
    """Antiderivatives at x of (1 - cos), (1 - cos)^2, theta^2 against
    beta = k_c cos(theta/2) / s^3, with s = sin(theta/2) and 1 - cos = 2 s^2:
    4 log s, 4 s^2 and -theta^2/s^2 - 4 theta cos(theta/2)/s + 8 log s."""
    s, c = math.sin(0.5 * x), math.cos(0.5 * x)
    log_s = math.log(s)
    return kernel.k_c * np.array([4.0 * log_s, 4.0 * s * s,
                                  -x * x / (s * s) - 4.0 * x * c / s
                                  + 8.0 * log_s])


@functools.lru_cache(maxsize=256)
def window_moments(kernel: Kernel, lo: float, hi: float) -> Moments:
    """The beta-integrals over [lo, hi] clipped to the kernel support.

    The one place that integrates against beta for the simulators and the
    constants below.  The mass is H(lo) - H(hi) (inf for a window from 0);
    the other moments are closed forms, with sin^2 = 2 (1 - cos) -
    (1 - cos)^2.  An empty window gives zeros.
    """
    s_lo, s_hi = kernel.support
    lo, hi = max(float(lo), s_lo), min(float(hi), s_hi)
    if not lo < hi:
        return Moments(0.0, 0.0, 0.0, 0.0, 0.0)
    H = kernel.tail.H
    mass = math.inf if lo == 0.0 else float(H(lo)) - float(H(hi))
    F = (_coulomb_antiderivatives if isinstance(kernel, CoulombKernel)
         else _power_law_antiderivatives)
    one_cos, one_cos_sq, theta_sq = F(kernel, hi) - F(kernel, lo)
    return Moments(mass, float(one_cos), float(one_cos_sq), float(theta_sq),
                   float(2.0 * one_cos - one_cos_sq))


def k_constant(kernel: Kernel) -> float:
    """k = pi * integral((1 - cos theta) * beta) -- the momentum-transfer
    constant; lies in (0, 2] and tends to 2 as mass concentrates at 0."""
    return math.pi * window_moments(kernel, 0.0, math.pi).one_cos


def residual_k(kernel: Kernel, theta_min: float) -> float:
    """pi * integral((1 - cos theta) * beta, 0..theta_min): the part of k
    carried by deviation angles below a truncation threshold."""
    return math.pi * window_moments(kernel, 0.0, theta_min).one_cos


def r_eta(kernel: Kernel, eta: float) -> float:
    """(pi/4) * integral(theta^2 * beta, 0..eta); equals 1 once eta covers
    the whole support (by the 4/pi normalization)."""
    if not 0.0 < eta <= math.pi:
        raise ParameterError(f"eta must lie in (0, pi], got {eta}")
    return 0.25 * math.pi * window_moments(kernel, 0.0, eta).theta_sq


# ---------------------------------------------------------------------------
# verification reports


def _pair_integral_soft(kernel: SoftKernel | GrazingKernel,
                        x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """I(x, y) = integral((G(z/x) - G(z/y))^2 dz, 0..inf) for a soft-family
    kernel, evaluated by the substitution z = x * H(theta).

    Vectorized over pairs; the integrand is handled with geometric panels
    toward the lower support edge where beta is singular.
    """
    tail = kernel.tail
    hi = kernel.support[1]
    # geometric panel ladder from hi*1e-10 down to 0, dense near the
    # singular lower edge
    n_geo, order = 48, 16
    edges = hi * np.concatenate([[0.0], np.power(10.0, np.linspace(-10, 0, n_geo))])
    xg, wg = np.polynomial.legendre.leggauss(order)
    a = edges[:-1]
    b = edges[1:]
    nodes = 0.5 * (b - a)[:, None] * xg[None, :] + 0.5 * (a + b)[:, None]
    weights = (0.5 * (b - a)[:, None] * wg[None, :]).ravel()
    nodes = nodes.ravel()

    beta_vals = kernel.beta(nodes)
    H_vals = tail.H(nodes)
    x = np.asarray(x, dtype=float)[:, None]
    y = np.asarray(y, dtype=float)[:, None]
    G_other = tail.G(x * H_vals[None, :] / y)
    integrand = (nodes[None, :] - G_other) ** 2 * beta_vals[None, :]
    return np.sum(integrand * weights[None, :], axis=1) * x[:, 0]


def scaling_agreement_report(gamma: float, nu: float, eps_list,
                             pairs) -> dict:
    """Check that I_eps(x,y) = integral((G_eps(z/x) - G_eps(z/y))^2 dz) does
    not depend on the grazing rescaling eps, and report the ratio of I to
    (x-y)^2/(x+y).  eps >= pi takes the unscaled soft kernel.

    pairs: array (n, 2) of positive speeds x, y.
    Returns {eps -> I array}, max relative deviation across eps, and the
    min/max observed ratio.
    """
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or np.any(pairs <= 0):
        raise ParameterError("pairs must be an (n, 2) array of positive speeds")
    x, y = pairs[:, 0], pairs[:, 1]
    values: dict[float, np.ndarray] = {}
    for eps in eps_list:
        kern = (SoftKernel(gamma, nu) if eps >= math.pi
                else GrazingKernel(gamma, nu, eps))
        values[float(eps)] = _pair_integral_soft(kern, x, y)
    mats = np.stack(list(values.values()))
    ref = mats[0]
    max_rel_dev = float(np.max(np.abs(mats - ref[None, :]) /
                               np.maximum(np.abs(ref[None, :]), 1e-300)))
    envelope = (x - y) ** 2 / (x + y)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(envelope > 0, ref / envelope, 0.0)
    return {
        "integrals": values,
        "max_rel_deviation": max_rel_dev,
        "ratio_min": float(np.min(ratio[envelope > 0])),
        "ratio_max": float(np.max(ratio[envelope > 0])),
    }


def _pair_integral_coulomb(kernel: CoulombKernel, x: np.ndarray,
                           y: np.ndarray) -> np.ndarray:
    """I(x, y) = integral((G_eps(z/x) - G_eps(z/y))^2 dz, 0..max*z_max) for the
    Coulomb kernel, via the substitution z = b * H_eps(theta) with
    b = max(x, y), split at the angle where the smaller-speed branch dies.
    """
    tail = kernel.tail
    lo, hi = kernel.support
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    b = np.maximum(x, y)
    s = np.minimum(x, y)
    # With z = b*H(theta): the s-branch G(z/s) vanishes once z > s*z_max,
    # i.e. theta < theta_star with H(theta_star) = (s/b)*z_max.
    theta_star = np.asarray(tail.G(tail.z_max * s / b), dtype=float)
    theta_star = np.clip(theta_star, lo, hi)

    order = 24
    xg, wg = np.polynomial.legendre.leggauss(order)

    def piece(a_arr, b_arr, f):
        # integral over [a, b] per pair of f(theta) * b*beta(theta)
        nodes = 0.5 * (b_arr - a_arr)[:, None] * xg[None, :] \
            + 0.5 * (a_arr + b_arr)[:, None]
        weights = 0.5 * (b_arr - a_arr)[:, None] * wg[None, :]
        beta_vals = kernel.beta(nodes.ravel()).reshape(nodes.shape)
        return np.sum(f(nodes) * beta_vals * weights, axis=1) * b

    n_panel = 24

    def panels(a_arr, b_arr, f):
        total = np.zeros_like(a_arr)
        for j in range(n_panel):
            lo_j = a_arr + (b_arr - a_arr) * j / n_panel
            hi_j = a_arr + (b_arr - a_arr) * (j + 1) / n_panel
            total += piece(lo_j, hi_j, f)
        return total

    H = tail.H
    G = tail.G

    def f_both(theta):
        # both branches alive: (theta - G(b*H(theta)/s))^2
        other = G(b[:, None] * np.asarray(H(theta.ravel())).reshape(theta.shape)
                  / s[:, None])
        return (theta - other) ** 2

    def f_single(theta):
        # only the larger-speed branch alive: G(z/b) = theta, other is 0
        return theta ** 2

    # theta in [theta_star, hi]: both alive. theta in [lo, theta_star]: single.
    out = panels(theta_star, np.full_like(theta_star, hi), f_both)
    out += panels(np.full_like(theta_star, lo), theta_star, f_single)
    return out


def _pair_integral_coulomb_zspace(kernel: CoulombKernel, x: float,
                                  y: float) -> float:
    """Same integral by direct adaptive quadrature in z (cross-check route)."""
    tail = kernel.tail
    b, s = max(x, y), min(x, y)

    def f(z):
        return float((tail.G(z / x) - tail.G(z / y)) ** 2)

    hi1 = s * tail.z_max
    hi2 = b * tail.z_max
    v1, _ = integrate.quad(f, 0.0, hi1, epsabs=_QUAD_TOL, epsrel=1e-12,
                           limit=400)
    v2, _ = integrate.quad(f, hi1, hi2, epsabs=_QUAD_TOL, epsrel=1e-12,
                           limit=400)
    return v1 + v2


def coulomb_mismatch_report(eps_list, pairs, *, cross_check_pair=None) -> dict:
    """For Coulomb kernels, compare I_eps(x, y) (see scaling_agreement_report)
    against the envelope (x-y)^2/(x+y) + (max/log(1/eps))*log(max/min) and
    report the supremum ratio per eps.

    cross_check_pair: optional (x, y, eps) evaluated by two independent
    quadrature routes; the report includes their relative agreement.
    """
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or np.any(pairs <= 0):
        raise ParameterError("pairs must be an (n, 2) array of positive speeds")
    x, y = pairs[:, 0], pairs[:, 1]
    b = np.maximum(x, y)
    s = np.minimum(x, y)
    report: dict = {"per_eps": {}}
    sup_ratio = 0.0
    for eps in eps_list:
        kern = CoulombKernel(float(eps), h_eps=0.0)
        vals = _pair_integral_coulomb(kern, x, y)
        envelope = (x - y) ** 2 / (x + y) \
            + (b / math.log(1.0 / eps)) * np.log(b / s)
        ok = envelope > 0
        ratio = np.max(vals[ok] / envelope[ok])
        report["per_eps"][float(eps)] = {
            "sup_ratio": float(ratio),
            "max_integral": float(np.max(vals)),
        }
        sup_ratio = max(sup_ratio, float(ratio))
    report["sup_ratio"] = sup_ratio
    if cross_check_pair is not None:
        cx, cy, ceps = cross_check_pair
        kern = CoulombKernel(float(ceps), h_eps=0.0)
        v_theta = float(_pair_integral_coulomb(kern, np.array([cx]),
                                               np.array([cy]))[0])
        v_z = _pair_integral_coulomb_zspace(kern, cx, cy)
        report["cross_check"] = {
            "theta_route": v_theta,
            "z_route": v_z,
            "rel_agreement": abs(v_theta - v_z) / max(abs(v_z), 1e-300),
        }
    return report
