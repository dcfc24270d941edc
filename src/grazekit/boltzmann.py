"""N-particle jump-process approximation of the Boltzmann dynamics.

Every pair collides at its floored rate 2*pi*H(theta_min)*Phi(max(r, v_floor)),
where H is the kernel's angular tail integral, Phi the velocity factor and r
the pair's relative speed.  Each event draws the deviation angle from the
exact normalized tail law theta = G(U[0, H(theta_min)]) and a uniform azimuth.
The two update modes realize these rates differently.

``nanbu`` mode gives every particle a Poisson stream of collision candidates
against companions drawn from the cloud itself.  Candidate counts use the
global bound 2*pi*H(theta_min)*Phi(v_floor)*dt, and each candidate is thinned
by the ratio of its pair's floored velocity factor to that bound.  Only the
owner jumps (v -> v'), so momentum and energy are conserved in expectation.
Angles below theta_min are not simulated as jumps; they are replaced by their
analytic mean drift (the compensator with the residual (1-cos) mass below
theta_min), averaged over a fresh companion subsample.

``symmetric`` mode updates disjoint random pairs two-sidedly (v -> v',
v* -> v*'), which conserves momentum and energy exactly per event.  A
deviation preserves |v - v*|, so a pair's floored rate is constant over the
step: each pair's event count is drawn once per step as
Poisson(2*pi*H(theta_min)*Phi(max(r, v_floor))*dt), with r taken at the start
of the step, and no candidate is thinned.  This mode applies no drift: exact
invariants are its contract, the small-angle compensation is nanbu's.

In both modes ``rate_cap`` bounds the global rate 2*pi*H(theta_min)*
Phi(v_floor)*dt.  In nanbu mode that is the expected candidate count per
particle per step; in symmetric mode it is the largest expected event count
of any pair.

For the Coulomb kernel the angular support already starts at eps, so
theta_min plays no role and the global rate is 2*pi*H_eps(eps)*
(v_floor+h_eps)^-3 without truncation.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import rngstreams
from .errors import InstabilityError, ParameterError, StabilityError
from .geometry import deviate, jump_c
from .kernels import CoulombKernel, GrazingKernel, SoftKernel, residual_k
from .particles import ParticleCloud, sample_initial  # noqa: F401  (re-export)
from .trajectory import run_schedule

__all__ = ["BoltzmannConfig", "step", "run", "sample_initial"]

_UPDATE_MODES = ("nanbu", "symmetric")
_KERNEL_TYPES = (SoftKernel, GrazingKernel, CoulombKernel)


@dataclass(frozen=True)
class BoltzmannConfig:
    """Parameters of one Boltzmann particle run.

    theta_min defaults to eps/64 for grazing kernels and pi/256 for plain
    soft ones; it is ignored for Coulomb kernels (support starts at eps).
    v_floor defaults to 1e-3 of the initial cloud's RMS speed, resolved at
    the start of run(); a direct step() call resolves it from the current
    cloud instead.
    """

    kernel: object
    n: int
    dt: float
    T: float
    theta_min: float = None
    v_floor: float = None
    update_mode: str = "nanbu"
    seed: int = 0
    drift_subsample: int = 64
    rate_cap: float = 1e4

    def __post_init__(self):
        if not isinstance(self.kernel, _KERNEL_TYPES):
            raise ParameterError("kernel must be a soft/grazing/coulomb kernel")
        if self.n < 2:
            raise ParameterError("need at least 2 particles")
        if not (self.dt > 0.0):
            raise ParameterError("dt must be positive")
        if not (self.T >= 0.0):
            raise ParameterError("T must be >= 0")
        if self.theta_min is not None and not (0.0 < self.theta_min <= np.pi):
            raise ParameterError("theta_min must lie in (0, pi]")
        if self.v_floor is not None and not (self.v_floor >= 0.0):
            raise ParameterError("v_floor must be >= 0")
        if self.update_mode not in _UPDATE_MODES:
            raise ParameterError(f"update_mode must be one of {_UPDATE_MODES}")
        if self.drift_subsample < 1:
            raise ParameterError("drift_subsample must be >= 1")
        if not (self.rate_cap > 0.0):
            raise ParameterError("rate_cap must be positive")


def _theta_min_eff(config):
    kernel = config.kernel
    if isinstance(kernel, CoulombKernel):
        return kernel.eps
    if config.theta_min is not None:
        return float(config.theta_min)
    if isinstance(kernel, GrazingKernel):
        return kernel.eps / 64.0
    return np.pi / 256.0


def _resolve_floor(config, cloud):
    if config.v_floor is not None:
        return float(config.v_floor)
    return 1e-3 * np.sqrt(cloud.m2())


@functools.lru_cache(maxsize=256)
def _residual_cached(kernel, theta_min):
    return residual_k(kernel, theta_min)


def _phi_cap(kernel, v_floor):
    """Velocity-factor bound Phi(max(r, v_floor)) <= Phi(v_floor)."""
    with np.errstate(divide="ignore"):
        if isinstance(kernel, CoulombKernel):
            cap = kernel.phi(max(v_floor, 0.0))
        else:
            if v_floor <= 0.0:
                raise ParameterError(
                    "soft kernels have unbounded rate at zero relative speed; "
                    "set v_floor > 0")
            cap = kernel.phi(v_floor)
    if not np.isfinite(cap):
        raise ParameterError("velocity-factor cap is not finite; "
                             "increase v_floor (or h_eps for Coulomb)")
    return float(cap)


def _phi_floored(kernel, r, v_floor):
    return kernel.phi(np.maximum(r, v_floor))


def _fresh_companions(rng, owners, n):
    """One uniform companion per owner, self excluded."""
    j = rng.integers(0, n - 1, size=owners.shape)
    return j + (j >= owners)


def _step_nanbu(X0, kernel, theta_eff, v_floor, lam, dt, drift_sub, rng):
    n = X0.shape[0]
    X = X0.copy()
    phi_cap = _phi_cap(kernel, v_floor)
    H_max = kernel.tail.H(theta_eff)
    counts = rng.poisson(lam, size=n)
    events = 0
    for rnd in range(int(counts.max()) if n else 0):
        owners = np.where(counts > rnd)[0]
        if owners.size == 0:
            break
        comp = _fresh_companions(rng, owners, n)
        W = X0[comp]
        V = X[owners]
        r = np.linalg.norm(V - W, axis=1)
        accept = rng.random(owners.size) * phi_cap <= \
            _phi_floored(kernel, r, v_floor)
        if not np.any(accept):
            continue
        idx = owners[accept]
        V, W, r = V[accept], W[accept], r[accept]
        # z uniform on [0, Phi(r) H(theta_min)]; jump_c divides by the same
        # Phi(r), so the angle law is the exact normalized tail law
        with np.errstate(over="ignore", invalid="ignore"):
            rs = np.where(r > 0.0, r, 1.0)
            z = rng.random(idx.size) * kernel.phi(rs) * H_max
            z = np.where(r > 0.0, z, 0.0)
            phi_ang = rng.uniform(0.0, 2.0 * np.pi, idx.size)
            X[idx] = V + jump_c(kernel, V, W, z, phi_ang)
        events += int(idx.size)

    # analytic drift for the compensated small-angle tail
    k_res = _residual_cached(kernel, float(theta_eff))
    if k_res > 0.0:
        m = min(drift_sub, n - 1)
        J = rng.integers(0, n - 1, size=(n, m))
        J[J >= np.arange(n)[:, None]] += 1
        Z = X[:, None, :] - X0[J]
        r = np.linalg.norm(Z, axis=2)
        phi_fl = _phi_floored(kernel, r, v_floor)
        X -= k_res * dt * np.mean(phi_fl[:, :, None] * Z, axis=1)
    return X, events


def _step_symmetric(X0, kernel, theta_eff, v_floor, dt, rng):
    n = X0.shape[0]
    X = X0.copy()
    H_max = kernel.tail.H(theta_eff)
    half = n // 2
    perm = rng.permutation(n)
    ia, ib = perm[:2 * half:2], perm[1:2 * half:2]
    # deviate preserves |va - vb|, so each pair's rate is fixed for the step
    r = np.linalg.norm(X0[ia] - X0[ib], axis=1)
    counts = rng.poisson(
        2.0 * np.pi * H_max * _phi_floored(kernel, r, v_floor) * dt)
    for rnd in range(int(counts.max()) if half else 0):
        act = np.where(counts > rnd)[0]
        a, b = ia[act], ib[act]
        u_z = rng.random(act.size)
        phi_ang = rng.uniform(0.0, 2.0 * np.pi, act.size)
        theta = kernel.tail.G(u_z * H_max)
        X[a], X[b], _ = deviate(X[a], X[b], theta, phi_ang)
    return X, int(counts.sum())


def step(cloud, config, rng):
    """Advance the cloud by one time step dt.

    nanbu mode thins per-particle candidate streams drawn at the global
    rate lam = 2*pi*H(theta_min)*Phi(v_floor)*dt; symmetric mode draws each
    disjoint pair's event count directly from its own floored rate, which
    never exceeds lam.  Raises StabilityError when lam exceeds
    config.rate_cap (use a smaller dt or a larger v_floor): in nanbu mode
    lam is the expected candidate count per particle, in symmetric mode the
    largest expected event count per pair.  Raises InstabilityError if any
    velocity turns non-finite.
    """
    if cloud.n != config.n:
        raise ParameterError(
            f"cloud has {cloud.n} particles but config says {config.n}")
    kernel = config.kernel
    theta_eff = _theta_min_eff(config)
    v_floor = _resolve_floor(config, cloud)
    lam = 2.0 * np.pi * kernel.tail.H(theta_eff) * \
        _phi_cap(kernel, v_floor) * config.dt
    if lam > config.rate_cap:
        raise StabilityError(
            f"expected {lam:.3g} collisions per step at the speed floor "
            f"(rate_cap {config.rate_cap:.3g}); decrease dt or raise v_floor")

    if config.update_mode == "nanbu":
        Xn, events = _step_nanbu(cloud.velocities, kernel, theta_eff, v_floor,
                                 lam, config.dt, config.drift_subsample, rng)
    else:
        Xn, events = _step_symmetric(cloud.velocities, kernel, theta_eff,
                                     v_floor, config.dt, rng)

    bad = ~np.all(np.isfinite(Xn), axis=1)
    if np.any(bad):
        idx = np.where(bad)[0]
        raise InstabilityError(
            f"non-finite velocities after step {cloud.step_index} "
            f"(first indices {idx[:8].tolist()})", indices=idx)
    return ParticleCloud(velocities=Xn, time=cloud.time + config.dt,
                         step_index=cloud.step_index + 1,
                         events=cloud.events + events)


def run(config, initial_cloud, schedule=None):
    """Run to the horizon, snapshotting at the scheduled times.

    The speed floor defaults to 1e-3 of the INITIAL cloud's RMS speed and is
    then held fixed.  Each step consumes a deterministic substream keyed by
    (seed, step index): identical (config, seed) give bit-identical
    trajectories.
    """
    if initial_cloud.n != config.n:
        raise ParameterError(
            f"cloud has {initial_cloud.n} particles but config says {config.n}")
    resolved = replace(config, v_floor=_resolve_floor(config, initial_cloud))

    def _advance(cloud):
        rng = rngstreams.stream(resolved.seed, "boltzmann-step",
                                cloud.step_index)
        return step(cloud, resolved, rng)

    return run_schedule(initial_cloud, _advance, resolved.T, resolved.dt,
                        schedule)
