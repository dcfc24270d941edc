"""Angular collision kernels: soft power-law, grazing-rescaled, and Coulomb.

A kernel here is the angular factor beta(theta) of a collision cross section
B(|v-v*|, theta) = Phi(|v-v*|) * beta(theta). Three families:

* soft:     beta(theta) = c_nu * theta^(-1-nu) on (0, pi), nu in (0, 2),
            with c_nu chosen so that the second angular moment
            integral(theta^2 * beta) equals 4/pi. The velocity factor is
            Phi(r) = r^gamma with gamma in (-3, 0).
* grazing:  the soft kernel squeezed onto (0, eps):
            beta_eps(theta) = (pi/eps)^3 * beta(pi*theta/eps) for theta < eps.
            The rescaling preserves the second moment (still 4/pi) while
            pushing all mass to small deviation angles.  Soft is this family
            at eps = pi (SoftKernel is the GrazingKernel that fixes it), so
            one tail and one moment formula serve both; beta is open at the
            support top, beta(eps) = 0.
* coulomb:  beta_eps(theta) = (c_eps / log(1/eps)) * cos(theta/2)/sin^3(theta/2)
            on [eps, pi/2], again normalized to second moment 4/pi; the
            velocity factor is r^-3, optionally regularized to (r+h_eps)^-3.

Each family carries a closed-form tail integral H(theta) = integral_theta
of beta and its inverse G = H^{-1}, which converts a uniform jump coordinate
z into a deviation angle. All normalizations and tail inverses are exact
closed forms, and so are the window moments every simulator reads
(window_moments).  Every other beta-integral (the Coulomb theta_moment and
the verification reports, here and in geometry) sums one quadrature rule,
theta_rule; only the Coulomb cross-check's independent z-space route
uses adaptive quadrature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import ParameterError

__all__ = [
    "SoftKernel",
    "GrazingKernel",
    "CoulombKernel",
    "TailInverse",
    "kernel_from_params",
    "soft_normalizer",
    "coulomb_normalizer",
    "theta_rule",
    "theta_moment",
    "window_moments",
    "k_constant",
    "residual_k",
    "r_eta",
    "scaling_agreement_report",
    "coulomb_mismatch_report",
]

_QUAD_TOL = 1e-10  # absolute tolerance of the z-space cross-check quadrature


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

    angles(u, lo, mass, dtype) gives the three angle functions a jump
    reads, (theta, sin(theta/2), sin theta), at z = lo + mass u for window
    uniforms u in [0, 1], mass a scalar or one per u.  The affine map is
    folded into each family's closed form, so z itself is never formed:

    * soft and grazing: theta = c (alpha u + beta)^(-1/nu), both sines
      from libm;
    * Coulomb: sin(theta/2) = q^(-1/2) and sin theta = 2 sqrt(q - 1) / q
      with q = a u + b, a = mass / k_c, b = lo / k_c + 2, without a sine
      call.  Angles beyond z_max are zeroed only when lo + mass > z_max.

    The affine map is evaluated in double and its result (the power's base,
    or q) is rounded once to dtype; everything after it runs in dtype, the
    precision of the three arrays returned: the power and both sines, or
    the Coulomb closed forms and the arcsin.  In float32 each sits within
    3e-7 relative of its double value (Coulomb: theta 1.6e-7 and both sines
    1.1e-7 on its acceptance windows, theta 3.8e-7 up near pi/2).

    Called as angles(z), without a window, u is the jump coordinate z
    itself, beyond z_max always zeroed, and theta = G(z) bitwise: G is the
    same formula at lo = 0, mass = 1.
    """

    H: callable
    G: callable
    z_max: float
    angles: callable


def _power_tail(c_nu: float, nu: float, eps: float) -> TailInverse:
    """Tail of the power law c_nu theta^(-1-nu) squeezed onto (0, eps]:
    H(theta) = (pi/eps)^2 (c_nu/nu) ((pi theta/eps)^(-nu) - pi^(-nu)) and
    G(z) = c (k z + pi^(-nu))^(-1/nu), c = eps/pi, k = nu / (c_nu (pi/eps)^2).
    """
    pi_pow = math.pi ** (-nu)
    expo = -1.0 / nu
    a = c_nu / nu
    scale = (math.pi / eps) ** 2
    c = eps / math.pi
    k = nu / (c_nu * scale)

    def H(theta):
        theta = np.asarray(theta, dtype=float)
        x = math.pi * theta / eps
        out = scale * (a * (np.power(x, -nu) - pi_pow))
        return np.where((theta >= eps) | (x >= math.pi), 0.0, out)

    def theta(u, lo=0.0, mass=None, dtype=np.float64):
        u = np.asarray(u, dtype=float)
        x = np.multiply(u, k if mass is None else k * mass,
                        out=np.empty(u.shape))
        x += k * lo + pi_pow
        x = x.astype(dtype, copy=False)
        np.power(x, expo, out=x)
        x *= c
        return x

    def angles(u, lo=0.0, mass=None, dtype=np.float64):
        th = theta(u, lo, mass, dtype)
        half = np.multiply(th, 0.5)
        return th, np.sin(half, out=half), np.sin(th)

    return TailInverse(H=H, G=lambda z: theta(z), z_max=math.inf,
                       angles=angles)


def _coulomb_tail(k_c: float, eps: float) -> TailInverse:
    z_max = k_c * (1.0 / math.sin(0.5 * eps) ** 2 - 2.0)

    def H(theta):
        theta = np.asarray(theta, dtype=float)
        th = np.clip(theta, eps, 0.5 * math.pi)
        out = k_c * (1.0 / np.sin(0.5 * th) ** 2 - 2.0)
        out = np.where(theta < eps, z_max, out)
        return np.where(theta >= 0.5 * math.pi, 0.0, out)

    def half_sin(u, lo, mass, dtype=np.float64):
        # H(theta) = z at sin(theta/2) = q^(-1/2), q = z/k_c + 2, with q
        # mapped in double and rounded once to dtype.  inside is None when
        # no z can pass z_max, else the mask of those that do not; the
        # others are computed at u = 0 and zeroed by _zeroed
        u = np.asarray(u, dtype=float)
        inside = None
        if mass is None:
            inside, mass = u <= z_max, 1.0
        elif lo + np.max(mass) > z_max:  # rounding keeps lo + m monotone
            inside = lo + mass * u <= z_max
        if inside is not None:
            u = np.where(inside, u, 0.0)
        q = np.multiply(u, mass / k_c, out=np.empty(u.shape))
        q += lo / k_c + 2.0
        q = q.astype(dtype, copy=False)
        s = np.sqrt(q, out=np.empty_like(q))
        np.divide(1.0, s, out=s)
        return inside, q, s

    def double_arcsin(s):
        theta = np.arcsin(s, out=np.empty_like(s))
        theta *= 2.0
        return theta

    def G(z):
        inside, _, s = half_sin(z, 0.0, None)
        return _zeroed(inside, double_arcsin(s))[0]

    def angles(u, lo=0.0, mass=None, dtype=np.float64):
        inside, q, s = half_sin(u, lo, mass, dtype)
        # sin theta = 2 sqrt(q - 1) / q; q - 1 is exact for 2 <= q < 2^24
        # (q <= 1/sin^2(eps/2): in float32 too for eps above about 5e-4)
        sin_t = np.subtract(q, 1.0, out=np.empty_like(q))
        np.sqrt(sin_t, out=sin_t)
        sin_t *= 2.0
        sin_t /= q
        return _zeroed(inside, double_arcsin(s), s, sin_t)

    return TailInverse(H=H, G=G, z_max=z_max, angles=angles)


def _zeroed(inside, *arrays):
    """The arrays, zeroed where inside is False (no mask when None)."""
    if inside is None:
        return arrays
    return tuple(np.where(inside, a, 0.0) for a in arrays)


# ---------------------------------------------------------------------------
# kernel families


@dataclass(frozen=True)
class GrazingKernel:
    """Power-law kernel c_nu theta^(-1-nu) squeezed onto (0, eps), open at
    eps: beta_eps(theta) = (pi/eps)^3 * beta(pi*theta/eps)."""

    gamma: float
    nu: float
    eps: float
    c_nu: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.eps <= math.pi:
            raise ParameterError(f"grazing eps must lie in (0, pi], got {self.eps}")
        if not -3.0 < self.gamma < 0.0:
            raise ParameterError(f"gamma must lie in (-3, 0), got {self.gamma}")
        object.__setattr__(self, "c_nu", soft_normalizer(self.nu))

    family = "grazing"

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, self.eps)

    def beta(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.zeros_like(theta)
        ok = (theta > 0.0) & (theta < self.eps)
        x = math.pi * theta[ok] / self.eps
        scale = (math.pi / self.eps) ** 3
        out[ok] = scale * (self.c_nu * x ** (-1.0 - self.nu))
        return out

    def phi(self, r):
        """Velocity factor Phi(r) = r^gamma (unregularized; callers floor r)."""
        r = np.asarray(r, dtype=float)
        return np.power(r, self.gamma)

    @functools.cached_property
    def tail(self) -> TailInverse:
        return _power_tail(self.c_nu, self.nu, self.eps)

    def params(self) -> dict:
        """The family and the constructor's parameters."""
        return {"family": self.family, **{
            f.name: getattr(self, f.name) for f in fields(self) if f.init}}


@dataclass(frozen=True)
class SoftKernel(GrazingKernel):
    """Power-law kernel for a soft potential: the grazing kernel at eps = pi."""

    eps: float = field(default=math.pi, init=False)
    family = "soft"


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

    params = GrazingKernel.params


Kernel = GrazingKernel | CoulombKernel


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


# theta_rule's _PANELS panels of _ORDER Gauss-Legendre nodes: the first from
# lo up to the floor max(lo, _FLOOR * hi), empty when lo is above _FLOOR * hi,
# then geometric ones from that floor up to hi
_PANELS, _ORDER, _FLOOR = 48, 16, 1e-10


def theta_rule(kernel: Kernel, lo=0.0):
    """Nodes theta and weights w * beta(theta) with sum(w f(theta)) close to
    integral(f * beta) from lo, raised to the kernel support bottom, up to
    the support top hi.

    The one quadrature rule for beta-integrals with no closed form.  Its
    panels are geometric toward the lower edge, where beta is singular.  lo
    is a scalar, giving 1-D nodes and weights, or one value per row, giving
    (len(lo), _PANELS * _ORDER) arrays.
    """
    s_lo, hi = kernel.support
    lo = np.maximum(lo, s_lo)
    edges = np.concatenate(
        [np.expand_dims(lo, -1),
         np.geomspace(np.maximum(lo, _FLOOR * hi), hi, _PANELS, axis=-1)],
        axis=-1)
    a, b = edges[..., :-1, None], edges[..., 1:, None]
    # per call, not at import: leggauss's first eigensolve costs ~0.7 MB RSS
    xg, wg = np.polynomial.legendre.leggauss(_ORDER)
    shape = lo.shape + (-1,)
    nodes = (0.5 * (b - a) * xg + 0.5 * (a + b)).reshape(shape)
    weights = (0.5 * (b - a) * wg).reshape(shape)
    return nodes, weights * kernel.beta(nodes)


def theta_moment(kernel: Kernel, power: float) -> float:
    """integral(theta^power * beta(theta)) over the kernel support.

    Power laws (soft and grazing) use the closed form; Coulomb sums
    theta_rule.  Preconditions: power > nu for power laws (divergent
    otherwise), power >= 0 for Coulomb.
    """
    if isinstance(kernel, GrazingKernel):
        if power <= kernel.nu:
            raise ParameterError(
                f"moment power must exceed nu={kernel.nu}, got {power}")
        return (kernel.eps / math.pi) ** (power - 2.0) * (
            kernel.c_nu * math.pi ** (power - kernel.nu) / (power - kernel.nu))
    if isinstance(kernel, CoulombKernel):
        if power < 0:
            raise ParameterError(f"moment power must be >= 0, got {power}")
        nodes, weights = theta_rule(kernel)
        return float(np.sum(nodes ** power * weights))
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
    a = (math.pi / kernel.eps) ** (2.0 - nu) * kernel.c_nu
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


def _closed_forms(kernel: Kernel, lo: float, hi: float) -> np.ndarray:
    """integral((1 - cos), (1 - cos)^2, theta^2 against beta) over
    [lo, hi], lo < hi inside the support: window_moments without the mass,
    which costs two calls of H."""
    F = (_coulomb_antiderivatives if isinstance(kernel, CoulombKernel)
         else _power_law_antiderivatives)
    return F(kernel, hi) - F(kernel, lo)


@functools.lru_cache(maxsize=256)
def window_moments(kernel: Kernel, lo: float, hi: float) -> Moments:
    """The beta-integrals over [lo, hi] clipped to the kernel support.

    The one place that integrates against beta for the simulators and the
    constants below.  The mass is H(lo) - H(hi) (inf for a window from 0);
    the other moments are closed forms (_closed_forms), with sin^2 =
    2 (1 - cos) - (1 - cos)^2.  An empty window gives zeros.
    """
    s_lo, s_hi = kernel.support
    lo, hi = max(float(lo), s_lo), min(float(hi), s_hi)
    if not lo < hi:
        return Moments(0.0, 0.0, 0.0, 0.0, 0.0)
    H = kernel.tail.H
    mass = math.inf if lo == 0.0 else float(H(lo)) - float(H(hi))
    one_cos, one_cos_sq, theta_sq = _closed_forms(kernel, lo, hi)
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


def _pair_integral(kernel: Kernel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """I(x, y) = integral((G(z/x) - G(z/y))^2 dz, z >= 0) per pair, by the
    substitution z = b * H(theta) with b = max(x, y).

    The smaller-speed branch G(z/s), s = min(x, y), dies once z > s z_max,
    i.e. below theta* = G(z_max s / b), the lower support edge when z_max is
    infinite.  Above theta* both branches live and theta_rule integrates;
    below it G(z/b) = theta alone does, so the part is b times the closed
    theta^2 moment of [lo, theta*].
    """
    tail = kernel.tail
    lo, hi = kernel.support
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    b = np.maximum(x, y)
    s = np.minimum(x, y)
    theta_star = np.clip(tail.G(tail.z_max * s / b), lo, hi)
    nodes, weights = theta_rule(kernel, theta_star)
    other = tail.G(b[:, None] * tail.H(nodes) / s[:, None])
    both = np.sum((nodes - other) ** 2 * weights, axis=1)
    # uncached: an entry per pair would flush the simulators' cached windows
    single = [window_moments.__wrapped__(kernel, lo, t).theta_sq
              for t in theta_star]
    return b * (both + single)


def _speed_pairs(pairs):
    """The columns x, y of an (n, 2) array of positive speeds."""
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or np.any(pairs <= 0):
        raise ParameterError("pairs must be an (n, 2) array of positive speeds")
    return pairs[:, 0], pairs[:, 1]


def scaling_agreement_report(gamma: float, nu: float, eps_list,
                             pairs) -> dict:
    """Check that I_eps(x,y) = integral((G_eps(z/x) - G_eps(z/y))^2 dz) does
    not depend on the grazing rescaling eps, and report the ratio of I to
    (x-y)^2/(x+y).  eps = pi is the unscaled soft kernel.

    pairs: array (n, 2) of positive speeds x, y.
    Returns {eps -> I array}, max relative deviation across eps, and the
    min/max observed ratio.
    """
    x, y = _speed_pairs(pairs)
    values: dict[float, np.ndarray] = {}
    for eps in eps_list:
        values[float(eps)] = _pair_integral(GrazingKernel(gamma, nu, eps),
                                            x, y)
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


def _pair_integral_coulomb_zspace(kernel: CoulombKernel, x: float,
                                  y: float) -> float:
    """Same integral by direct adaptive quadrature in z (cross-check route)."""
    tail = kernel.tail
    b, s = max(x, y), min(x, y)

    def f(z):
        return float((tail.G(z / x) - tail.G(z / y)) ** 2)

    # scipy loads here, not at import: no simulator or sweep calls this
    from scipy.integrate import quad
    hi1 = s * tail.z_max
    hi2 = b * tail.z_max
    v1, _ = quad(f, 0.0, hi1, epsabs=_QUAD_TOL, epsrel=1e-12, limit=400)
    v2, _ = quad(f, hi1, hi2, epsabs=_QUAD_TOL, epsrel=1e-12, limit=400)
    return v1 + v2


def coulomb_mismatch_report(eps_list, pairs, *, cross_check_pair=None) -> dict:
    """For Coulomb kernels, compare I_eps(x, y) (see scaling_agreement_report)
    against the envelope (x-y)^2/(x+y) + (max/log(1/eps))*log(max/min) and
    report the supremum ratio per eps.

    cross_check_pair: optional (x, y, eps) evaluated by two independent
    quadrature routes; the report includes their relative agreement.
    """
    x, y = _speed_pairs(pairs)
    b = np.maximum(x, y)
    s = np.minimum(x, y)
    report: dict = {"per_eps": {}}
    sup_ratio = 0.0
    for eps in eps_list:
        kern = CoulombKernel(float(eps), h_eps=0.0)
        vals = _pair_integral(kern, x, y)
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
        v_theta = float(_pair_integral(kern, np.array([cx]),
                                       np.array([cy]))[0])
        v_z = _pair_integral_coulomb_zspace(kern, cx, cy)
        report["cross_check"] = {
            "theta_route": v_theta,
            "z_route": v_z,
            "rel_agreement": abs(v_theta - v_z) / max(abs(v_z), 1e-300),
        }
    return report
