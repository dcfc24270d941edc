"""N-particle jump-process approximation of the Boltzmann dynamics.

Every pair collides at its floored rate 2*pi*H(theta_min)*Phi(max(r, v_floor)),
where H is the kernel's angular tail integral, Phi the velocity factor and r
the pair's relative speed.  Each event draws the deviation angle from the
exact normalized tail law theta = G(U[0, H(theta_min)]) and a uniform azimuth.
The two update modes realize these rates differently.

``nanbu`` mode gives every particle a Poisson stream of collision candidates
against companions drawn from the step-start cloud, on its own clock.  The
stream runs at the owner's majorant 2*pi*H(theta_min)*M*dt per step, with
M = Phi(max(d, v_floor)) and d a lower bound on the distance from the
owner's velocity to the nearest other step-start velocity (a k-d tree query,
then the triangle inequality after each jump until the bound has lost half
its queried value).  Each candidate is thinned by the ratio of its pair's
floored velocity factor to M, and a jump redraws the next gap at the new M.
Only the owner jumps (v -> v'), so momentum and energy are conserved in
expectation.  Round k tests the k-th candidate of every owner whose clock
is still inside the step: it draws the companions, then one thinning
uniform per candidate, then a jump coordinate and an azimuth per accepted
candidate, then the next gaps; it works on component-first (3, n) copies of
the cloud, so each 3-vector step is a few whole-array operations (see
geometry).
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

In both modes ``rate_cap`` bounds the global rate lam = 2*pi*H(theta_min)*
Phi(v_floor)*dt, the cap every per-pair rate stays below.  In nanbu mode
lam caps each owner's candidate rate (the drawn candidates follow the
per-owner majorants, usually far fewer); in symmetric mode it caps the
expected event count of any pair.

For the Coulomb kernel the angular support already starts at eps, so it
takes no theta_min and the global rate is 2*pi*H_eps(eps)*
(v_floor+h_eps)^-3 without truncation.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy import spatial

from . import rngstreams
from .errors import ParameterError, StabilityError
from .geometry import _jump_c, _norm, _safe, deviate, row_norm
from .kernels import CoulombKernel, GrazingKernel, SoftKernel, residual_k
from .particles import draw_companions, speed_floor
from .trajectory import check_cloud_size, next_cloud, run_schedule

__all__ = ["BoltzmannConfig", "step", "run"]

_UPDATE_MODES = ("nanbu", "symmetric")
_KERNEL_TYPES = (SoftKernel, GrazingKernel, CoulombKernel)


@dataclass(frozen=True)
class BoltzmannConfig:
    """Parameters of one Boltzmann particle run.

    theta_min defaults to eps/64 for grazing kernels and pi/256 for plain
    soft ones; Coulomb kernels refuse it (their support starts at eps).
    v_floor defaults to 1e-3 of the initial cloud's RMS speed, resolved at
    the start of run(); a direct step() call resolves it from the current
    cloud instead.  drift_subsample (nanbu mode only) defaults to 64.
    """

    kernel: object
    n: int
    dt: float
    T: float
    theta_min: float = None
    v_floor: float = None
    update_mode: str = "nanbu"
    seed: int = 0
    drift_subsample: int = None
    rate_cap: float = 1e4

    def __post_init__(self):
        _check_jump_options(self.kernel, self.theta_min, self.v_floor)
        if self.n < 2:
            raise ParameterError("need at least 2 particles")
        if not (self.dt > 0.0):
            raise ParameterError("dt must be positive")
        if not (self.T >= 0.0):
            raise ParameterError("T must be >= 0")
        if self.update_mode not in _UPDATE_MODES:
            raise ParameterError(f"update_mode must be one of {_UPDATE_MODES}")
        if self.drift_subsample is not None:
            if self.update_mode != "nanbu":
                raise ParameterError("'drift_subsample' is read only by "
                                     "update_mode 'nanbu'")
            if self.drift_subsample < 1:
                raise ParameterError("drift_subsample must be >= 1")
        if not (self.rate_cap > 0.0):
            raise ParameterError("rate_cap must be positive")


def _check_jump_options(kernel, theta_min, v_floor):
    """The kernel, theta_min and v_floor checks of every jump-process
    config (this one and coupling.CouplingPlan)."""
    if not isinstance(kernel, _KERNEL_TYPES):
        raise ParameterError("kernel must be a soft/grazing/coulomb kernel")
    if theta_min is not None and isinstance(kernel, CoulombKernel):
        raise ParameterError("coulomb kernels take no 'theta_min' (their "
                             "support starts at eps)")
    if theta_min is not None and not (0.0 < theta_min <= np.pi):
        raise ParameterError("theta_min must lie in (0, pi]")
    if v_floor is not None and not (v_floor >= 0.0):
        raise ParameterError("v_floor must be >= 0")


def _theta_min_eff(config):
    kernel = config.kernel
    if isinstance(kernel, CoulombKernel):
        return kernel.eps
    if config.theta_min is not None:
        return float(config.theta_min)
    if isinstance(kernel, GrazingKernel):
        return kernel.eps / 64.0
    return np.pi / 256.0


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


def _nn_bound(tree, P, owners):
    """Lower bound on the distance from each row of P to the nearest point
    of the tree's cloud other than the owner's own: the second neighbour
    where the first is the owner.  The relative 1e-12 shrink covers the
    rounding gap between the tree's distances and _norm's."""
    dist, idx = tree.query(P, k=2)
    d = np.where(idx[:, 0] == owners, dist[:, 1], dist[:, 0])
    return d * (1.0 - 1e-12)


def _moved_bound(tree, X, owners, moved, d, d_q):
    """Bounds of owners that just moved by |a| = moved to the columns of
    the component-first X: d - |a| by the triangle inequality, queried
    afresh once that falls below half of the last queried value d_q.
    Updates d and d_q in place and returns the owners' new bounds."""
    d_new = d[owners] - moved
    stale = d_new < 0.5 * d_q[owners]
    if stale.any():
        s = owners[stale]
        d_new[stale] = d_q[s] = _nn_bound(tree, X.take(s, 1).T, s)
    d[owners] = d_new
    return d_new


def _step_nanbu(X0, kernel, theta_eff, v_floor, dt, drift_sub, rng):
    n = X0.shape[0]
    H_max = kernel.tail.H(theta_eff)
    rate = 2.0 * np.pi * H_max * dt
    # every companion w of an owner at V has |V - w| >= d, the distance to
    # the nearest non-self step-start row, so M = Phi(max(d, v_floor))
    # bounds its floored velocity factor until the owner jumps
    tree = spatial.cKDTree(X0)
    everyone = np.arange(n)
    d_q = _nn_bound(tree, X0, everyone)
    d = d_q.copy()
    M = _phi_floored(kernel, d, v_floor)
    # per-owner clocks in units of dt: candidates arrive at rate rate * M,
    # and a jump redraws the next gap at the new M (exponential gaps are
    # memoryless)
    clock = rng.standard_exponential(n) / (rate * M)
    # component-first copies (3, n): W0 is the step-start cloud the
    # companions come from, X the owners' velocities, updated in place
    W0 = X0.T.copy()
    X = W0.copy()
    owners = (clock < 1.0).nonzero()[0]
    events = 0
    while owners.size:
        V = X if owners.size == n else X.take(owners, 1)
        D = V - W0.take(draw_companions(rng, owners, n), 1)
        r = _norm(D)
        Mo = M[owners]
        accept = rng.random(owners.size) * Mo <= \
            _phi_floored(kernel, r, v_floor)
        acc = accept.nonzero()[0]
        if acc.size:
            idx = owners[acc]
            D, ok, rs = _safe(D.take(acc, 1), r[acc])
            # the angle's jump coordinate is uniform on [0, H(theta_min)]:
            # the exact normalized tail law
            u = rng.random(idx.size)
            phi_ang = rng.uniform(0.0, 2.0 * np.pi, idx.size)
            a = _jump_c(kernel, D, ok, rs, phi_ang, u, 0.0, H_max)
            X[:, idx] += a
            events += int(idx.size)
            M[idx] = Mo[acc] = _phi_floored(
                kernel, _moved_bound(tree, X, idx, _norm(a), d, d_q), v_floor)
        c = clock[owners] + rng.standard_exponential(owners.size) / (rate * Mo)
        clock[owners] = c
        owners = owners[c < 1.0]
    X = np.ascontiguousarray(X.T)

    # analytic drift for the compensated small-angle tail
    k_res = residual_k(kernel, theta_eff)
    if k_res > 0.0:
        m = min(drift_sub, n - 1)
        J = draw_companions(rng, everyone[:, None], n, (n, m))
        Z = X[:, None, :] - X0.take(J, 0)
        phi_fl = _phi_floored(kernel, row_norm(Z), v_floor)
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
    r = row_norm(X0.take(ia, 0) - X0.take(ib, 0))
    counts = rng.poisson(
        2.0 * np.pi * H_max * _phi_floored(kernel, r, v_floor) * dt)
    for rnd in range(int(counts.max()) if half else 0):
        act = np.where(counts > rnd)[0]
        a, b = ia[act], ib[act]
        u_z = rng.random(act.size)
        phi_ang = rng.uniform(0.0, 2.0 * np.pi, act.size)
        theta = kernel.tail.G(u_z * H_max)
        X[a], X[b], _ = deviate(X.take(a, 0), X.take(b, 0), theta, phi_ang)
    return X, int(counts.sum())


def step(cloud, config, rng):
    """Advance the cloud by one time step dt.

    nanbu mode thins per-particle candidate streams, each drawn at its own
    nearest-neighbour majorant; symmetric mode draws each disjoint pair's
    event count directly from its own floored rate.  Both rates stay below
    lam = 2*pi*H(theta_min)*Phi(v_floor)*dt, the cap that config.rate_cap
    checks: StabilityError when lam exceeds it (use a smaller dt or a
    larger v_floor).  lam is not the drawn candidate count.  Raises
    InstabilityError if any velocity turns non-finite.
    """
    check_cloud_size(cloud, config)
    kernel = config.kernel
    theta_eff = _theta_min_eff(config)
    v_floor = speed_floor(config.v_floor, cloud)
    lam = 2.0 * np.pi * kernel.tail.H(theta_eff) * \
        _phi_cap(kernel, v_floor) * config.dt
    if lam > config.rate_cap:
        raise StabilityError(
            f"expected {lam:.3g} collisions per step at the speed floor "
            f"(rate_cap {config.rate_cap:.3g}); decrease dt or raise v_floor")

    if config.update_mode == "nanbu":
        drift_subsample = (64 if config.drift_subsample is None
                           else config.drift_subsample)
        Xn, events = _step_nanbu(cloud.velocities, kernel, theta_eff, v_floor,
                                 config.dt, drift_subsample, rng)
    else:
        Xn, events = _step_symmetric(cloud.velocities, kernel, theta_eff,
                                     v_floor, config.dt, rng)

    return next_cloud(cloud, Xn, config.dt, events)


def run(config, initial_cloud, schedule=None):
    """Run to the horizon, snapshotting at the scheduled times.

    The speed floor defaults to 1e-3 of the INITIAL cloud's RMS speed and is
    then held fixed.  Each step consumes a deterministic substream keyed by
    (seed, step index): identical (config, seed) give bit-identical
    trajectories.
    """
    check_cloud_size(initial_cloud, config)
    resolved = replace(config,
                       v_floor=speed_floor(config.v_floor, initial_cloud))

    def _advance(cloud):
        rng = rngstreams.stream(resolved.seed, "boltzmann-step",
                                cloud.step_index)
        return step(cloud, resolved, rng)

    return run_schedule(initial_cloud, _advance, resolved.T, resolved.dt,
                        schedule)
