"""N-particle Euler-Maruyama approximation of the Landau dynamics.

Each particle diffuses against companions drawn from the cloud itself: for a
pair separation z = X_i - X_j the drift is b(z) = -2|z|^gamma z and the noise
matrix sigma(z) satisfies sigma sigma^T = |z|^gamma (|z|^2 Id - z z^T), the
Landau diffusion matrix.  Three pairing modes trade cost against exactness:

* ``full``        — every ordered pair, O(N^2), capped at N <= 2048;
* ``subsampled``  — m uniform companions per particle per step, O(N m);
* ``conservative``— m rounds of random perfect matchings with one shared
                    Gaussian increment per matched pair, applied with
                    opposite signs; since sigma(-z) = -sigma(z) and
                    b(-z) = -b(z), every pair's contributions to the total
                    momentum cancel exactly.

The |z|^gamma singularity at coincident velocities is tamed by evaluating
the SCALAR factors |z|^gamma, |z|^{gamma/2} at max(|z|, reg_delta); the
vector structure keeps the raw z, so exactly coincident pairs contribute
zero automatically.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import rngstreams
from .errors import DegenerateInputError, ParameterError
from .geometry import row_norm
from .particles import draw_companions, speed_floor
from .trajectory import check_cloud_size, next_cloud, run_schedule

__all__ = [
    "LandauCoefficients",
    "LandauConfig",
    "sigma_eval",
    "b_eval",
    "step",
    "run",
]

_FULL_PAIRING_CAP = 2048
_PAIRINGS = ("full", "subsampled", "conservative")


def sigma_eval(gamma, z):
    """Noise matrix sigma(z), a 3x3 square root of the diffusion matrix.

    sigma(z) = |z|^{gamma/2} [[ z2, -z3,  0 ],
                              [-z1,  0,  z3 ],
                              [  0,  z1, -z2 ]]

    satisfying sigma sigma^T = |z|^gamma (|z|^2 Id - z z^T), sigma^T z = 0
    and sigma(-z) = -sigma(z): the stepper's noise term applied to the unit
    increments, one column each.  Raises DegenerateInputError at z = 0; the
    stepping code regularizes upstream instead of calling this.
    """
    coeffs, z, r = _checked_pair(gamma, z, "sigma")
    return coeffs._noise(z, np.eye(3), r).T


def b_eval(gamma, z):
    """Drift vector b(z) = -2 |z|^gamma z (the divergence of the rows of
    the diffusion matrix), the stepper's drift term.  Odd: b(-z) = -b(z)."""
    coeffs, z, r = _checked_pair(gamma, z, "b")
    return coeffs._drift(z, r)


def _checked_pair(gamma, z, name):
    """Unregularized LandauCoefficients(gamma), the 3-vector z, |z| > 0."""
    coeffs = LandauCoefficients(gamma)
    z = np.asarray(z, dtype=float)
    if z.shape != (3,):
        raise ParameterError("z must be a 3-vector")
    r = row_norm(z)
    if r == 0.0:
        raise DegenerateInputError(f"{name}(z) needs |z| > 0")
    return coeffs, z, r


def _scalar_factor(rf, power):
    """rf ** power where rf > 0, else 0: a pair coefficient's regularized
    scalar factor at rf = max(|z|, reg_delta), without 0 ** power at a
    coincident pair when reg_delta is 0."""
    with np.errstate(divide="ignore"):
        return np.where(rf > 0.0, rf ** power, 0.0)


def _check_gamma(gamma):
    if not (-3.0 <= gamma < 0.0):
        raise ParameterError(f"gamma must lie in [-3, 0), got {gamma}")


@dataclass(frozen=True)
class LandauCoefficients:
    """Regularized pair coefficients: the |z|^gamma scalar factors are
    evaluated at max(|z|, reg_delta) while the vector parts keep z."""

    gamma: float
    reg_delta: float = 0.0

    def __post_init__(self):
        _check_gamma(self.gamma)
        if not (self.reg_delta >= 0.0):
            raise ParameterError("reg_delta must be >= 0")

    def terms(self, Z, dB):
        """The drift b_delta(Z) and the noise sigma_delta(Z) @ dB for
        matching (..., 3) arrays of separations and increments."""
        rf = np.maximum(row_norm(Z), self.reg_delta)
        return self._drift(Z, rf), self._noise(Z, dB, rf)

    def _drift(self, Z, rf):
        return -2.0 * _scalar_factor(rf, self.gamma)[..., None] * Z

    def _noise(self, Z, dB, rf):
        pref = _scalar_factor(rf, self.gamma / 2.0)
        z1, z2, z3 = Z[..., 0], Z[..., 1], Z[..., 2]
        b1, b2, b3 = dB[..., 0], dB[..., 1], dB[..., 2]
        out = np.stack([z2 * b1 - z3 * b2,
                        -z1 * b1 + z3 * b3,
                        z1 * b2 - z2 * b3], axis=-1)
        return pref[..., None] * out


@dataclass(frozen=True)
class LandauConfig:
    """Parameters of one Landau particle run.

    m, the companions (subsampled) or matching rounds (conservative) per
    step, defaults to 64; full pairing refuses it."""

    gamma: float
    n: int
    dt: float
    T: float
    pairing: str = "subsampled"
    m: int = None
    reg_delta: float = None
    seed: int = 0

    def __post_init__(self):
        _check_gamma(self.gamma)
        if self.n < 2:
            raise ParameterError("need at least 2 particles")
        if not (self.dt > 0.0):
            raise ParameterError("dt must be positive")
        if not (self.T >= 0.0):
            raise ParameterError("T must be >= 0")
        if self.pairing not in _PAIRINGS:
            raise ParameterError(f"pairing must be one of {_PAIRINGS}")
        if self.pairing == "full" and self.n > _FULL_PAIRING_CAP:
            raise ParameterError(
                f"full pairing is for validation runs with N <= {_FULL_PAIRING_CAP}")
        if self.m is not None:
            if self.pairing == "full":
                raise ParameterError("pairing 'full' takes no 'm' (it "
                                     "evaluates every pair)")
            if self.m < 1:
                raise ParameterError("m must be >= 1")
        if self.reg_delta is not None and not (self.reg_delta >= 0.0):
            raise ParameterError("reg_delta must be >= 0")


def _step_full(X, coeffs, dt, rng, block=256):
    n = X.shape[0]
    drift = np.empty_like(X)
    noise = np.empty_like(X)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        Z = X[lo:hi, None, :] - X[None, :, :]
        dB = rng.normal(scale=np.sqrt(dt), size=Z.shape)
        db, ns = coeffs.terms(Z, dB)
        drift[lo:hi] = db.sum(axis=1)
        noise[lo:hi] = ns.sum(axis=1)
    scale = n - 1
    return X + (dt / scale) * drift + noise / np.sqrt(scale), n * (n - 1)


def _step_subsampled(X, coeffs, dt, m, rng):
    n = X.shape[0]
    J = draw_companions(rng, np.arange(n)[:, None], n, (n, m))
    Z = X[:, None, :] - X.take(J, 0)
    dB = rng.normal(scale=np.sqrt(dt), size=Z.shape)
    db, ns = coeffs.terms(Z, dB)
    drift = db.sum(axis=1)
    noise = ns.sum(axis=1)
    return X + (dt / m) * drift + noise / np.sqrt(m), n * m


def _step_conservative(X, coeffs, dt, m, rng):
    n = X.shape[0]
    half = n // 2
    idx = np.arange(n)
    inv = np.empty(n, dtype=np.intp)
    acc = np.zeros((n, 6))  # drift | noise per particle
    # one round's increments in matching order: pair i's first particle
    # takes +(drift, noise), its second the negation; an odd N leaves an
    # idle last slot of +0.0, which keeps every sum as it was
    rows = np.zeros((n, 6))
    pairs = rows[:2 * half].reshape(half, 2, 6)
    for _ in range(m):
        perm = rng.permutation(n)
        a, b = perm[:2 * half:2], perm[1:2 * half:2]
        Z = X.take(a, 0) - X.take(b, 0)
        dB = rng.normal(scale=np.sqrt(dt), size=(half, 3))
        pairs[:, 0, :3], pairs[:, 0, 3:] = coeffs.terms(Z, dB)
        np.negative(pairs[:, 0], out=pairs[:, 1])
        inv[perm] = idx
        acc += rows.take(inv, 0)
    # uniform 1/m normalization keeps the matched pair's increments exactly
    # antisymmetric (an unmatched particle in an odd-N round just idles)
    return X + (dt / m) * acc[:, :3] + acc[:, 3:] / np.sqrt(m), m * half


def step(cloud, config, rng):
    """One Euler-Maruyama step; returns a new cloud dt later.

    Raises InstabilityError (with the offending particle indices) if any
    velocity becomes non-finite.
    """
    check_cloud_size(cloud, config)
    coeffs = LandauCoefficients(config.gamma,
                                speed_floor(config.reg_delta, cloud))
    X = cloud.velocities
    m = 64 if config.m is None else config.m
    # overflow/invalid intermediates surface as the non-finite check below
    with np.errstate(over="ignore", invalid="ignore"):
        if config.pairing == "full":
            Xn, events = _step_full(X, coeffs, config.dt, rng)
        elif config.pairing == "subsampled":
            Xn, events = _step_subsampled(X, coeffs, config.dt, m, rng)
        else:
            Xn, events = _step_conservative(X, coeffs, config.dt, m, rng)
    return next_cloud(cloud, Xn, config.dt, events)


def run(config, initial_cloud, schedule=None):
    """Run to the horizon, snapshotting at the scheduled times.

    The regularization floor defaults to 1e-3 of the INITIAL cloud's RMS
    speed and is then held fixed for the whole run.  Each step consumes its
    own deterministic substream keyed by (seed, step index), so a run is
    reproducible regardless of snapshot schedule.
    """
    check_cloud_size(initial_cloud, config)
    resolved = replace(config,
                       reg_delta=speed_floor(config.reg_delta, initial_cloud))

    def _advance(cloud):
        rng = rngstreams.stream(resolved.seed, "landau-step", cloud.step_index)
        return step(cloud, resolved, rng)

    return run_schedule(initial_cloud, _advance, resolved.T, resolved.dt,
                        schedule)
