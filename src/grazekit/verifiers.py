"""Empirical checks for the auxiliary inequalities used by the coupling bounds.

Two families of checks live here:

* a generalized Gronwall inequality for the saturated dynamics
  ``rho' = gamma(t) * psi(rho)`` with ``psi(x) = x(1 - log x)`` below 1 and
  ``psi(x) = x`` above, verified against the explicit envelope of its proof,

* the distance between a compensated Poisson integral and the Gaussian law
  with matching covariance, checked by sampling both and comparing the
  empirical quadratic Wasserstein distance against the kappa^2 log^2 envelope.

Both checks are distributional / numerical: they integrate or sample, then
compare against closed-form envelopes, and return small report objects that
the CLI renders as pass/fail rows.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .metrics import _check_w2_size, w2_exact

__all__ = [
    "psi",
    "gronwall_envelope",
    "GronwallReport",
    "gronwall_bound_check",
    "PoissonIntegralSpec",
    "PoissonGaussianReport",
    "poisson_gaussian_w2",
]


def psi(x):
    """Saturated superlinearity x*(1 - log x) on (0, 1], identity above 1.

    psi(0) = 0, psi is increasing and >= x everywhere.  Accepts scalars or
    arrays; negative inputs are clipped to 0 (they only arise from roundoff
    in integrator stages).
    """
    arr = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(arr > 1.0, arr,
                       np.where(arr > 0.0, arr * (1.0 - np.log(arr)), 0.0))
    return float(out) if out.ndim == 0 else out


def gronwall_envelope(K):
    """Envelope constant C(K) for rho(T) <= C(K) * (a^{exp(-K)} + a).

    Combines the four cases of the comparison argument (a and rho on either
    side of 1): the a^{exp(-K)} branch needs e^{1-exp(-K)}, the linear-in-a
    branch needs e^K * e^{exp(K)-1}; their sum dominates every case.
    """
    K = float(K)
    if K < 0:
        raise ParameterError("K must be nonnegative")
    return np.exp(K) * np.exp(np.expm1(K)) + np.exp(1.0 - np.exp(-K))


@dataclass(frozen=True)
class GronwallReport:
    """Outcome of one saturated-dynamics integration vs its envelope."""

    a: float
    T: float
    K: float
    rho_T: float
    rho_T_alt: float
    integrator_gap: float
    envelope_constant: float
    bound: float
    satisfied: bool


def _rk4_saturated(a, gamma_fn, lo, hi, steps):
    """Classic fixed-step RK4 for rho' = gamma(t) psi(rho) on [lo, hi]."""
    h = (hi - lo) / steps
    rho = float(a)
    t = lo
    for _ in range(steps):
        g0 = gamma_fn(t)
        gh = gamma_fn(t + 0.5 * h)
        g1 = gamma_fn(t + h)
        k1 = g0 * psi(rho)
        k2 = gh * psi(rho + 0.5 * h * k1)
        k3 = gh * psi(rho + 0.5 * h * k2)
        k4 = g1 * psi(rho + h * k3)
        rho += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return rho


def gronwall_bound_check(a, gamma_fn, T, samples=20000, breakpoints=()):
    """Integrate the saturated dynamics and compare against the envelope.

    Parameters
    ----------
    a : float
        Initial value, >= 0.
    gamma_fn : callable
        Nonnegative rate t -> gamma(t) on [0, T].
    T : float
        Horizon, > 0.
    samples : int
        Fixed RK4 step count over [0, T] (split across segments).
    breakpoints : sequence of float
        Interior discontinuity locations of gamma_fn; both integrators and
        the K quadrature restart there so a piecewise rate loses no order.

    Returns
    -------
    GronwallReport
        rho_T from RK4, an adaptive RK45 cross-check at tighter tolerance,
        K = int_0^T gamma, and the verdict rho_T <= C(K)(a^{exp(-K)} + a).
    """
    if not (a >= 0.0) or not np.isfinite(a):
        raise ParameterError("initial value a must be finite and >= 0")
    if not (T > 0.0) or not np.isfinite(T):
        raise ParameterError("horizon T must be finite and positive")
    if samples < 10:
        raise ParameterError("samples must be >= 10")
    edges = [0.0] + sorted(float(b) for b in breakpoints) + [float(T)]
    if any(not (0.0 < b < T) for b in edges[1:-1]):
        raise ParameterError("breakpoints must lie strictly inside (0, T)")

    # probe the rate on the integration grid: it must be finite and >= 0
    probe_t = np.linspace(0.0, T, 257)
    probe = np.array([gamma_fn(t) for t in probe_t], dtype=float)
    if not np.all(np.isfinite(probe)) or np.any(probe < 0):
        raise ParameterError("gamma_fn must be finite and nonnegative on [0, T]")

    # scipy loads here, not at import: only verify-appendix integrates
    from scipy.integrate import quad, solve_ivp
    K = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        seg, _ = quad(gamma_fn, lo, hi, limit=200)
        K += seg
    if not np.isfinite(K):
        raise ParameterError("gamma_fn is not integrable on [0, T]")

    rho = float(a)
    rho_alt = float(a)
    for lo, hi in zip(edges[:-1], edges[1:]):
        # evaluate the rate strictly inside the segment so a jump located at
        # a breakpoint never leaks its other-sided value into this segment
        ilo, ihi = np.nextafter(lo, hi), np.nextafter(hi, lo)

        def g(s, ilo=ilo, ihi=ihi):
            return gamma_fn(min(max(s, ilo), ihi))

        steps = max(10, int(round(samples * (hi - lo) / T)))
        rho = _rk4_saturated(rho, g, lo, hi, steps)
        sol = solve_ivp(
            lambda t, y: [g(t) * psi(y[0])], (lo, hi), [rho_alt],
            method="RK45", rtol=1e-10, atol=1e-13)
        if not sol.success:
            raise ParameterError(f"adaptive integrator failed: {sol.message}")
        rho_alt = float(sol.y[0, -1])

    C = gronwall_envelope(K)
    bound = C * (a ** np.exp(-K) + a)
    return GronwallReport(
        a=float(a), T=float(T), K=float(K), rho_T=rho, rho_T_alt=rho_alt,
        integrator_gap=abs(rho - rho_alt), envelope_constant=float(C),
        bound=float(bound), satisfied=bool(rho <= bound))


class PoissonIntegralSpec:
    """Finite-atom compensated Poisson integral Z_t = sum_j (N_j - t w_j) h_j.

    Parameters
    ----------
    atoms : array (n, 3)
        Jump vectors h_j.
    weights : array (n,)
        Strictly positive intensity weights w_j; N_j ~ Poisson(t w_j).
    t : float
        Horizon, > 0.

    The covariance rate Gamma = sum_j w_j h_j h_j^T must have full rank:
    rank-deficient atom sets (a single atom, all-zero atoms) are rejected.
    """

    def __init__(self, atoms, weights, t):
        atoms = np.asarray(atoms, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if atoms.ndim != 2 or atoms.shape[1] != 3 or atoms.shape[0] < 1:
            raise ParameterError("atoms must be a nonempty (n, 3) array")
        if weights.shape != (atoms.shape[0],):
            raise ParameterError("weights must match the atom count")
        if not np.all(np.isfinite(atoms)):
            raise ParameterError("atoms must be finite")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
            raise ParameterError("weights must be finite and > 0")
        if not (t > 0.0) or not np.isfinite(t):
            raise ParameterError("horizon t must be finite and positive")
        self.atoms = atoms
        self.weights = weights
        self.t = float(t)
        self.gamma = (atoms * weights[:, None]).T @ atoms
        evals, evecs = np.linalg.eigh(self.gamma)
        if evals[0] <= 1e-12 * evals[-1]:
            raise ParameterError(
                "atom set is rank-deficient: Gamma must be positive definite")
        inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.T
        self.kappa = float(np.max(np.linalg.norm(atoms @ inv_sqrt, axis=1)))
        self.gamma_norm = float(evals[-1])

    def envelope(self):
        """kappa^2 |Gamma| max(1, log(t / kappa^2))^2, the target scaling."""
        logterm = max(1.0, np.log(self.t / self.kappa ** 2))
        return self.kappa ** 2 * self.gamma_norm * logterm ** 2


@dataclass(frozen=True)
class PoissonGaussianReport:
    """Empirical W2 between a compensated Poisson integral and its Gaussian."""

    t: float
    kappa: float
    gamma_norm: float
    sample_count: int
    w2_squared: float
    envelope: float
    ratio: float
    control_w2_squared: float
    control_ratio: float
    mean_ok: bool
    cov_ok: bool


def _moment_checks(Z, target_cov):
    """Mean-compensation and covariance agreement within 3 standard errors."""
    m = Z.shape[0]
    mean = Z.mean(axis=0)
    se_mean = Z.std(axis=0, ddof=1) / np.sqrt(m)
    mean_ok = bool(np.all(np.abs(mean) <= 3.0 * se_mean + 1e-12))
    centered = Z - mean
    cov_ok = True
    for i in range(3):
        for j in range(i, 3):
            prod = centered[:, i] * centered[:, j]
            se = prod.std(ddof=1) / np.sqrt(m)
            if abs(prod.mean() - target_cov[i, j]) > 3.0 * se + 1e-12:
                cov_ok = False
    return mean_ok, cov_ok


def _check_sample_count(sample_count):
    """The realization counts poisson_gaussian_w2 accepts: >= 1000, and at
    most the exact-W2 assignment guard."""
    if sample_count < 1000:
        raise ParameterError("sample_count must be >= 1000")
    _check_w2_size(sample_count)


def poisson_gaussian_w2(spec, sample_count, rng):
    """Sample Z_t and N(0, t Gamma), compare their empirical W2.

    Draws ``sample_count`` realizations of the compensated Poisson integral
    and of the matching Gaussian, computes the exact empirical quadratic
    Wasserstein distance between the two clouds, and scales it by the
    kappa^2 |Gamma| log^2 envelope.  A same-law control pair (two
    independent Gaussian samples of the same size) quantifies the
    finite-sample bias inherent to empirical W2 in 3-D.

    Parameters
    ----------
    spec : PoissonIntegralSpec
    sample_count : int
        Number of realizations per cloud, >= 1000 (and <= the exact-W2
        assignment guard).
    rng : numpy.random.Generator

    Returns
    -------
    PoissonGaussianReport
    """
    _check_sample_count(sample_count)
    m = int(sample_count)
    t, atoms, w = spec.t, spec.atoms, spec.weights
    counts = rng.poisson(t * w, size=(m, w.size))
    Z = (counts - t * w) @ atoms

    target_cov = t * spec.gamma
    L = np.linalg.cholesky(target_cov)
    gauss = rng.standard_normal((m, 3)) @ L.T
    ctrl_a = rng.standard_normal((m, 3)) @ L.T
    ctrl_b = rng.standard_normal((m, 3)) @ L.T

    mean_ok, cov_ok = _moment_checks(Z, target_cov)

    env = spec.envelope()
    w2_sq = w2_exact(Z, gauss) ** 2
    ctrl_sq = w2_exact(ctrl_a, ctrl_b) ** 2
    return PoissonGaussianReport(
        t=t, kappa=spec.kappa, gamma_norm=spec.gamma_norm, sample_count=m,
        w2_squared=float(w2_sq), envelope=float(env),
        ratio=float(w2_sq / env), control_w2_squared=float(ctrl_sq),
        control_ratio=float(ctrl_sq / env), mean_ok=mean_ok, cov_ok=cov_ok)
