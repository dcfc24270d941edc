"""Coupled Boltzmann/Landau slab dynamics, subdivision builder, rate sweeps.

The coupled integrator advances a Boltzmann-family particle system V and a
Landau particle system Y through the slabs of a time subdivision, sharing
randomness so that the paired-L2 distance sqrt(mean |V_i - Y_i|^2) isolates
the grazing-limit error instead of Monte Carlo noise:

* both sides use the same companion index per (particle, slab), with
  coefficients frozen at the slab start;
* the Landau diffusion increment per (particle, slab) is built from the
  same draws as the Boltzmann jump aggregate: the window angle sums
  Sum(theta cos phi), Sum(theta sin phi), standardized, drive the
  transverse band of per-direction variance
  Delta * Phi * (pi/4) int_window theta^2 beta (the r_eta-scaled Landau
  tensor, an exact moment match of the linearized jump aggregate), and when
  the kernel carries angular mass above the window top eta (Coulomb) the
  remaining Landau band (pi/4) int_{theta>eta} theta^2 beta is driven by
  the standardized above-eta jump sums.  Every pair with Z = Y - Y_c != 0
  gets both bands, so the Landau increment keeps its full diffusion
  covariance while staying maximally correlated with the Boltzmann path.

Both sides integrate their mean drift with the frozen-coefficient
exponential map (relative-velocity contraction e^{-k Phi Delta}) and add
centered fluctuations on top; this compensated-martingale form stays stable
even for near-coincident pairs whose within-slab collision count is huge.
The V side additionally carries its longitudinal fluctuation, the
non-Gaussian shape of the sampled above-eta jumps and the exact-versus-
linearized angle geometry; those have no Landau counterpart and are part of
the measured gap.  A Tanaka azimuth rotation phi0 aligns the Landau pair
frame with the Boltzmann pair frame when the toggle is on; each side builds
its pair frame once per slab, and the alignment reads those same frames.
Per-pair candidate counts above _NORMAL_FALLBACK (100 000) switch to their
conditional Gaussian aggregate (same moments), keeping cost bounded at
small eps.

Neither side carries the jumps below the window bottom theta_min beyond
their mean drift (k_res): their diffusion, a share r_eta(theta_min) of the
Landau diffusion (0.30 % at the grazing default eps/64 with nu = 0.6), is
left out on both sides alike.  Coulomb windows start at the support edge,
so nothing is left out there.

Each jump of the sampler reads one pair of generator words: its jump
coordinate z = lo + mass u and its azimuth phi = 2 pi u'.  theta,
sin(theta/2) and sin theta come from the kernel's tail.angles(u, lo, mass),
which folds the window map into the closed-form inverse: the soft and
grazing tails take both sines of theta from libm, the Coulomb tail reads
them off its inverse without a sine call.  cos phi and sin phi come from a
1025-entry table and the angle-addition formula (_azimuth_cos_sin), within
5e-16 of np.cos and np.sin.  Each particle's sums are pairwise
(np.add.reduceat), and its (1 - cos theta) sum is that of the terms
2 sin^2(theta/2) rounded once.  The window moments come from
kernels.window_moments.

rate_sweep builds and checks every (eps, seed) cell first, then runs the
cells on every core in the process's CPU affinity (a forked process pool;
in-process with one core or one cell).  Each cell draws only from streams
keyed by its own seed and slab, so the report does not depend on the core
count.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from . import rngstreams
from .boltzmann import _check_jump_options, _theta_min_eff
from .errors import InstabilityError, ParameterError
from .geometry import _align, _dot, _frame, _norm, _safe
from .kernels import (CoulombKernel, kernel_from_params, residual_k,
                      window_moments)
from .landau import _check_gamma, _scalar_factor
from .metrics import _W2_SIZE_GUARD, w2_exact
from .particles import (ParticleCloud, draw_companions, sample_initial,
                        speed_floor)

__all__ = ["Subdivision", "default_h", "build_subdivision", "CouplingPlan",
           "CoupledResult", "coupled_run", "SweepReport", "rate_sweep",
           "fit_verdict"]


# ---------------------------------------------------------------------------
# subdivision
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subdivision:
    """Time grid a_0 < ... < a_K = T with a_0 < 1/n and every gap in
    (1/(4n), 1/n), each interior node a near-minimizer of h in its cell."""

    grid: np.ndarray
    n: int
    h_values: np.ndarray

    @property
    def T(self):
        return float(self.grid[-1])

    @property
    def widths(self):
        return np.diff(self.grid)

    def riemann_sum(self):
        """Sum over cells of (a_{i+1} - a_i) h(a_i)."""
        return float(np.sum(self.widths * self.h_values[:-1]))

    def slab_bounds(self):
        """All integration slabs including the leading [0, a_0]."""
        edges = np.concatenate(([0.0], self.grid))
        return list(zip(edges[:-1], edges[1:]))


def default_h(s):
    """The weight profile h(s) = s^-1/2 of both coupled commands."""
    return np.asarray(s, dtype=float) ** -0.5


def _sample_h(h, pts):
    vals = np.asarray(h(pts), dtype=float)
    if vals.shape != pts.shape:
        vals = np.array([float(h(p)) for p in pts], dtype=float)
    if not np.all(np.isfinite(vals)) or np.any(vals < 0.0):
        raise ParameterError("h must be finite and >= 0 on (0, T)")
    return vals


_SAMPLES_PER_CELL = 32


def build_subdivision(h, T, n):
    """Near-minimizing time grid for the weight profile h.

    Nodes a_i are the argmin of h over _SAMPLES_PER_CELL midpoints of the
    cell (i/(2n), (2i+1)/(4n)]; the last cell is clipped so the final gap
    to T also lands in (1/(4n), 1/n).  Needs T > 1/(4n).
    """
    if not (T > 0.0 and np.isfinite(T)):
        raise ParameterError("T must be positive and finite")
    if n < 1 or int(n) != n:
        raise ParameterError("n must be a positive integer")
    n = int(n)
    if T <= 1.0 / (4.0 * n):
        raise ParameterError(
            f"T={T} too small for resolution n={n}: need T > 1/(4n)")
    K = max(1, int(math.floor(2.0 * n * T)))
    nodes = []
    for i in range(K):
        lo, hi = i / (2.0 * n), (2 * i + 1) / (4.0 * n)
        if i == K - 1:
            lo, hi = max(lo, T - 1.0 / n), min(hi, T - 1.0 / (4.0 * n))
        pts = lo + (hi - lo) * (np.arange(_SAMPLES_PER_CELL) + 0.5) \
            / _SAMPLES_PER_CELL
        vals = _sample_h(h, pts)
        nodes.append(pts[int(np.argmin(vals))])
    grid = np.array(nodes + [T])
    h_values = _sample_h(h, grid)
    gaps = np.diff(grid)
    if not (grid[0] < 1.0 / n and np.all(gaps > 1.0 / (4.0 * n))
            and np.all(gaps < 1.0 / n)):
        raise ParameterError("subdivision construction violated its gap "
                             "invariants (T and n are incompatible)")
    return Subdivision(grid=grid, n=n, h_values=h_values)


# ---------------------------------------------------------------------------
# coupling plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingPlan:
    """Everything one coupled run reads besides its initial cloud: the
    kernel, the slabs, the floors and the shared-randomness recipe.  The
    horizon is the subdivision's end; Landau's gamma is the kernel's.

    Stream consumption order per slab k is fixed: companion_stream(k) yields
    the n companion indices; jump_stream(k) yields, in order, the window
    Poisson counts, one interleaved (z, phi) pair of uniforms per window
    jump, the Gaussian-fallback normals, then (if the kernel has mass above
    eta) the large-angle counts and one (z, phi) pair per large-angle jump.
    The Landau side draws nothing of its own: its kicks are the standardized
    jump sums, so both sides consume identical companion indices and base
    draws in identical order.

    theta_min: bottom of the matching window, as in BoltzmannConfig.
    v_floor: Boltzmann speed floor, reg_delta: Landau regularization floor;
    each defaults to 1e-3 of the initial cloud's RMS speed.
    eta: top of the matching window (defaults to the kernel support top,
    and may not exceed it).
    tanaka: rotate the Landau kicks by the Tanaka azimuth phi0.
    """

    kernel: object
    seed: int
    subdivision: Subdivision
    theta_min: float = None
    v_floor: float = None
    reg_delta: float = None
    tanaka: bool = True
    eta: float = None

    def __post_init__(self):
        _check_jump_options(self.kernel, self.theta_min, self.v_floor)
        _check_gamma(self.kernel.gamma)
        if self.reg_delta is not None and not (self.reg_delta >= 0.0):
            raise ParameterError("reg_delta must be >= 0")
        top = self.kernel.support[1]
        if self.eta is not None and not (0.0 < self.eta <= top):
            raise ParameterError(f"eta must lie in (0, {top}], up to the "
                                 f"kernel support top; got {self.eta}")

    def companion_stream(self, k):
        return rngstreams.stream(self.seed, "slab-comp", k)

    def jump_stream(self, k):
        return rngstreams.stream(self.seed, "slab-jump", k)


# ---------------------------------------------------------------------------
# coupled integrator
# ---------------------------------------------------------------------------

@dataclass
class CoupledResult:
    times: np.ndarray
    paired_l2: np.ndarray
    w2: np.ndarray
    m2_boltz: np.ndarray
    m2_landau: np.ndarray
    boltz_cloud: ParticleCloud
    landau_cloud: ParticleCloud
    events: int

    @property
    def sup_paired_l2(self):
        return float(np.max(self.paired_l2))


# A pair with more window jumps in a slab than this takes the conditional
# Gaussian aggregate of its jump sums (same moments) instead of sampled
# jumps, which bounds the cost of near-coincident Coulomb pairs.
_NORMAL_FALLBACK = 100_000


# The jump sampler works on blocks of whole particles of about _BLOCK draws,
# so a block's temporaries stay in cache; a particle with more draws gets a
# block of its own.  A particle's draws never straddle two blocks, so its
# sums are one segment reduction over its own terms.
_BLOCK = 16384


def _blocks(counts, tot):
    """(p0, p1, s0, s1) per block: particles p0..p1-1 own draws s0..s1-1.
    A block starts at a particle with draws and ends at a particle
    boundary."""
    ends = np.cumsum(counts)
    s0 = 0
    while s0 < tot:
        p0 = int(ends.searchsorted(s0, "right"))
        p1 = max(int(ends.searchsorted(s0 + _BLOCK, "right")), p0 + 1)
        s1 = int(ends[p1 - 1])
        yield p0, p1, s0, s1
        s0 = s1


# Azimuth trig: phi = 2 pi u is split at the nearest of _AZ_CELLS + 1 table
# angles 2 pi j / _AZ_CELLS, and cos phi, sin phi follow from the angle-
# addition formula with short Taylor polynomials of the offset |d| <= pi /
# _AZ_CELLS (truncation below 1e-18).  The table is rounded once from long
# double angles, so the result sits within a few 1e-16 of np.cos and np.sin
# (within 9e-16 where long double is double).
_AZ_CELLS = 1024
_AZ_STEP = 2.0 * np.pi / _AZ_CELLS
_AZ_ANGLES = np.arange(_AZ_CELLS + 1, dtype=np.longdouble) \
    * np.longdouble(2.0 * np.pi) / _AZ_CELLS
_AZ_COS = np.cos(_AZ_ANGLES).astype(np.float64)
_AZ_SIN = np.sin(_AZ_ANGLES).astype(np.float64)
_AZ_C2, _AZ_C4 = -_AZ_STEP ** 2 / 2.0, _AZ_STEP ** 4 / 24.0
_AZ_S3, _AZ_S5 = -_AZ_STEP ** 3 / 6.0, _AZ_STEP ** 5 / 120.0


def _azimuth_cos_sin(u):
    """cos and sin of the azimuths 2 pi u for uniforms u in [0, 1), in
    draw order.

    u * _AZ_CELLS is exact, so the table index j and the in-cell offset
    d = u * _AZ_CELLS - j are exact too; the azimuth is the table angle
    plus d * _AZ_STEP."""
    t = np.multiply(u, _AZ_CELLS)
    j = (t + 0.5).astype(np.intp)
    d = np.subtract(t, j, out=t)
    c, s = _AZ_COS.take(j), _AZ_SIN.take(j)
    del j
    d2 = d * d
    cm1 = _AZ_C4 * d2             # cos(d * step) - 1
    cm1 += _AZ_C2
    cm1 *= d2
    sn = _AZ_S5 * d2              # sin(d * step)
    sn += _AZ_S3
    sn *= d2
    sn += _AZ_STEP
    sn *= d
    # the products land in buffers that are no longer read
    cos_p = np.multiply(c, cm1, out=d2)
    cos_p -= np.multiply(s, sn, out=d)
    cos_p += c
    sin_p = np.multiply(s, cm1, out=cm1)
    sin_p += np.multiply(c, sn, out=sn)
    sin_p += s
    return cos_p, sin_p


def _angle_sums(rng, counts, kernel, z_lo, mass, n, theta_sums=True):
    """Per-particle sums of (1-cos th), sin th cos/sin ph and, with
    theta_sums, th cos/sin ph over `counts` draws from the window tail law;
    z in [z_lo, z_lo+mass].  Returns a (5, n) array, (3, n) without
    theta_sums.

    Draw order: draw i, particle by particle, reads word 2i as its z
    uniform and word 2i+1 as its azimuth uniform; each block takes its
    words from one rng.random((size, 2)) call.  A draw's words depend on
    its index alone, so they do not depend on the blocks, and the generator
    ends 2 * total words past where it started.  th and both sines come
    from kernel.tail.angles(u, z_lo, mass).  Each particle's sums are one
    np.add.reduceat segment over its own contiguous terms (pairwise).  The
    (1-cos th) terms, all positive, are 2 sin^2(th/2) (no cancellation at
    grazing angles), and their sums are rounded once: each
    term splits into a multiple h of q = ulp(snap) plus the exact remainder,
    the h sum of a particle is exact (it stays below 2^53 q), and the
    remainders correct it far below an ulp.  A segment depends on its own
    terms alone, so the bytes do not depend on the blocks; a particle
    without draws keeps +0.0."""
    k = 5 if theta_sums else 3
    sums = np.zeros((k, n))
    snap = math.ldexp(3.0, (2 * int(np.max(counts))).bit_length())
    blocks = list(_blocks(counts, int(np.sum(counts))))
    width = max((s1 - s0 for _, _, s0, s1 in blocks), default=0)
    words, terms = np.empty((width, 2)), np.empty((k + 1, width))
    for p0, p1, s0, s1 in blocks:
        size = s1 - s0
        u = rng.random(out=words[:size])
        th, sin_h, sin_t = kernel.tail.angles(u[:, 0], z_lo, mass)
        cos_p, sin_p = _azimuth_cos_sin(u[:, 1])
        w = terms[:, :size]
        np.square(sin_h, out=w[0])
        w[0] *= 2.0
        # w[k] = h, w[0] rounded to a multiple of q; w[0] keeps the rest
        np.add(w[0], snap, out=w[k])
        w[k] -= snap
        w[0] -= w[k]
        np.multiply(sin_t, cos_p, out=w[1])
        np.multiply(sin_t, sin_p, out=w[2])
        if theta_sums:
            np.multiply(th, cos_p, out=w[3])
            np.multiply(th, sin_p, out=w[4])
        # reduceat gives w[:, i] for an empty segment, so only particles
        # with draws are reduced
        c = counts[p0:p1]
        nz = np.flatnonzero(c)
        seg = np.add.reduceat(w, (np.cumsum(c) - c)[nz], axis=1)
        seg[0] += seg[k]
        sums[:, p0 + nz] = seg[:k]
    return sums


def _check_run(plan, initial_cloud, w2_mode):
    """Every precondition of a coupled run, checked before any slab stream
    is built.  Returns what the run resolves from the plan: the floors
    v_floor and reg_delta, the beta-moments of the matching window
    [theta_min, eta] and of the band above eta, and k_res, the (1-cos) mass
    below the window.  rate_sweep calls it for every cell first, so the
    moments are cached before its pool forks."""
    if w2_mode not in ("none", "terminal", "all"):
        raise ParameterError("w2_mode must be 'none', 'terminal' or 'all'")
    n = initial_cloud.n
    if w2_mode != "none" and n > _W2_SIZE_GUARD:
        raise ParameterError(
            f"w2_mode {w2_mode!r} needs the exact W2, guarded at "
            f"N <= {_W2_SIZE_GUARD}; got n={n}")

    kernel = plan.kernel
    sup_lo, sup_hi = kernel.support
    lo_win = max(_theta_min_eff(plan), sup_lo)
    eta = sup_hi if plan.eta is None else plan.eta
    if not lo_win < eta:
        raise ParameterError(f"matching window [{lo_win}, {eta}] is empty")

    v_floor = speed_floor(plan.v_floor, initial_cloud)
    if not isinstance(kernel, CoulombKernel) and not v_floor > 0.0:
        raise ParameterError("soft/grazing coupling needs v_floor > 0 "
                             "(the collision rate is unbounded otherwise)")
    return (v_floor, speed_floor(plan.reg_delta, initial_cloud),
            window_moments(kernel, lo_win, eta),
            window_moments(kernel, eta, sup_hi), residual_k(kernel, lo_win))


def coupled_run(plan, initial_cloud, *, w2_mode="none"):
    """Run both systems through the plan's slabs from a shared initial cloud.

    Returns the paired-L2 distance at t=0 and at every slab boundary, plus
    m2 of both sides; w2_mode "terminal" adds the exact assignment W2 at the
    final time, "all" at every boundary ("none" leaves NaN).
    """
    v_floor, delta, mom, mom_lg, k_res = _check_run(plan, initial_cloud,
                                                    w2_mode)
    kernel = plan.kernel
    n = initial_cloud.n
    sub = plan.subdivision
    slabs = sub.slab_bounds()

    mass_w, mu1 = mom.mass, mom.one_cos / mom.mass
    var1 = max(mom.one_cos_sq / mom.mass - mu1 * mu1, 0.0)
    e_th2 = mom.theta_sq / mom.mass
    r_eta_win = 0.25 * np.pi * mom.theta_sq
    z_hi = mom_lg.mass  # H(eta): the window's z lies in [z_hi, z_hi+mass_w]
    # z_hi + mass_w can round one ulp past z_max when the window starts at
    # the Coulomb support edge; the sampler's map stays within it, so
    # tail.angles never masks
    mass_z = mass_w
    while z_hi + mass_z > kernel.tail.z_max:
        mass_z = math.nextafter(mass_z, 0.0)
    # jumps above eta only where that band has mass (Coulomb)
    mass_lg = z_hi if z_hi > 1e-14 else 0.0
    one_cos_lg = mom_lg.one_cos if mass_lg > 0.0 else 0.0
    r_tail = 0.25 * np.pi * mom_lg.theta_sq
    # total (1-cos) drift mass: compensated window + large jumps + sub-window
    k_full = np.pi * (mom.one_cos + one_cos_lg) + k_res

    # both clouds component-first (3, n), as geometry works on them
    V = initial_cloud.velocities.T.copy()
    Y = V.copy()
    times, dists = [0.0], [0.0]
    m2b, m2l = [initial_cloud.m2()], [initial_cloud.m2()]
    w2s = [0.0 if w2_mode == "all" else np.nan]
    events = 0

    for k, (t0, t1) in enumerate(slabs):
        delta_t = t1 - t0
        comp = draw_companions(plan.companion_stream(k), np.arange(n), n)
        rng_j = plan.jump_stream(k)

        Vc, Yc = V.take(comp, 1), Y.take(comp, 1)
        X, Z = V - Vc, Y - Yc
        rX, rZ = _norm(X), _norm(Z)
        phi_v = np.asarray(kernel.phi(np.maximum(rX, v_floor)), dtype=float)
        phi_l = _scalar_factor(np.maximum(rZ, delta), kernel.gamma)
        # one frame per side, shared by its kicks and the Tanaka alignment;
        # a pair with zero relative velocity gets a stand-in frame and kicks
        # masked to zero (geometry._safe)
        Xs, okX, rXs = _safe(X, rX)
        Zs, okZ, rZs = _safe(Z, rZ)
        IX, JX = _frame(Xs, rXs)
        IZ, JZ = _frame(Zs, rZs)
        # Tanaka: the Landau frame takes the azimuth offset phi0, i.e. the
        # kick coordinates rotate by R(phi0) relative to the Boltzmann draws
        phi0 = np.where(okX & okZ, _align(IX, JX, IZ, JZ), 0.0) \
            if plan.tanaka else np.zeros(n)
        cos0, sin0 = np.cos(phi0), np.sin(phi0)

        lam = delta_t * phi_v * 2.0 * np.pi * mass_w
        counts = rng_j.poisson(lam)
        fb = counts > _NORMAL_FALLBACK
        events += int(counts.sum())
        s1, s2, s3, t2, t3 = _angle_sums(
            rng_j, np.where(fb, 0, counts), kernel, z_hi, mass_z, n)
        g = rng_j.standard_normal((int(fb.sum()), 3))
        kf = counts[fb].astype(float)
        s1[fb] = kf * mu1 + np.sqrt(kf * var1) * g[:, 0]
        sd_th = np.sqrt(kf * e_th2 / 2.0)
        # sin(theta) ~ theta in the fallback regime: reuse the same normals
        # so the matched pair stays perfectly correlated
        t2[fb], t3[fb] = sd_th * g[:, 1], sd_th * g[:, 2]
        s2[fb], s3[fb] = t2[fb], t3[fb]
        # center the window longitudinal sum by its compensator
        s1 -= lam * mu1

        # Landau transverse kicks of total per-direction variance
        # Delta*Phi_L*(pi/4) int theta^2 beta over [theta_min, support top]:
        # the window band (r_eta_win) is driven by the matched window draws,
        # the above-eta band (r_tail) by the standardized large-jump aggregate
        sig_t = 2.0 * np.sqrt(delta_t * phi_v * r_eta_win)
        u2, u3 = t2 / sig_t, t3 / sig_t
        amp = np.sqrt(delta_t * phi_l * r_eta_win)
        kick2 = amp * (cos0 * u2 - sin0 * u3)
        kick3 = amp * (sin0 * u2 + cos0 * u3)
        if mass_lg > 0.0:
            lam_lg = delta_t * phi_v * 2.0 * np.pi * mass_lg
            counts_lg = rng_j.poisson(lam_lg)
            events += int(counts_lg.sum())
            l1, l2, l3 = _angle_sums(rng_j, counts_lg, kernel, 0.0, mass_lg,
                                     n, theta_sums=False)
            s1 += l1 - lam_lg * (one_cos_lg / mass_lg)
            s2 += l2
            s3 += l3
            sig_lg = np.sqrt(delta_t * phi_v * np.pi * mom_lg.sin_sq)
            ut2, ut3 = l2 / sig_lg, l3 / sig_lg
            amp_t = np.sqrt(delta_t * phi_l * r_tail)
            kick2 += amp_t * (cos0 * ut2 - sin0 * ut3)
            kick3 += amp_t * (sin0 * ut2 + cos0 * ut3)

        # both sides: exponential mean drift (the relative velocity contracts
        # by e^{-k_full Phi_V Delta}, e^{-2 Phi_L Delta}) + centered
        # fluctuations
        V_new = Vc + np.exp(-k_full * phi_v * delta_t) * X
        V_new += np.where(okX, -0.5 * s1 * X + 0.5 * (s2 * IX + s3 * JX), 0.0)
        Y_new = Yc + np.exp(-2.0 * phi_l * delta_t) * Z
        Y_new += np.where(okZ, kick2 * IZ + kick3 * JZ, 0.0)

        bad = ~(np.all(np.isfinite(V_new), axis=0)
                & np.all(np.isfinite(Y_new), axis=0))
        if np.any(bad):
            idx = np.where(bad)[0]
            raise InstabilityError(
                f"non-finite state after slab {k} (first indices "
                f"{idx[:8].tolist()})", indices=idx)
        V, Y = V_new, Y_new

        times.append(t1)
        D = V - Y
        dists.append(float(np.sqrt(np.mean(_dot(D, D)))))
        m2b.append(float(np.mean(_dot(V, V))))
        m2l.append(float(np.mean(_dot(Y, Y))))
        last = k == len(slabs) - 1
        if w2_mode == "all" or (w2_mode == "terminal" and last):
            w2s.append(w2_exact(V.T, Y.T))
        else:
            w2s.append(np.nan)

    V, Y = np.ascontiguousarray(V.T), np.ascontiguousarray(Y.T)
    return CoupledResult(
        times=np.array(times), paired_l2=np.array(dists), w2=np.array(w2s),
        m2_boltz=np.array(m2b), m2_landau=np.array(m2l),
        boltz_cloud=ParticleCloud(velocities=V, time=sub.T,
                                  step_index=len(slabs), events=events),
        landau_cloud=ParticleCloud(velocities=Y, time=sub.T,
                                   step_index=len(slabs)),
        events=events)


# ---------------------------------------------------------------------------
# eps sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepReport:
    family: str
    eps_list: tuple
    seeds: tuple
    p: int
    distances: np.ndarray      # (n_eps, n_seeds) terminal paired-L2
    sup_distances: np.ndarray  # (n_eps, n_seeds) sup over slab boundaries
    w2: np.ndarray             # (n_eps, n_seeds), NaN when not computed
    m2_drift_boltz: np.ndarray
    m2_drift_landau: np.ndarray
    means: np.ndarray
    stderrs: np.ndarray
    slope: float
    slope_stderr: float
    intercept: float
    proven_exponent: float
    conjectured_exponent: float
    verdict: str
    series: dict               # (eps, seed) -> CoupledResult


# The cells of the running sweep, set only while rate_sweep runs them.
# Forked workers inherit it, so a cell crosses no pickle on the way in: a
# kernel whose tail has been cached does not pickle.
_CELLS = None


def _run_cell(index):
    plan, cloud, w2_mode = _CELLS[index]
    return index, coupled_run(plan, cloud, w2_mode=w2_mode)


def _process_count(n_cells):
    """One process per core in this process's CPU affinity, at most one
    per cell."""
    cores = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else 1
    return min(cores, n_cells)


def _run_cells(cells, order):
    """coupled_run on every cell; results come back in cell order.

    With more than one process the cells run in a forked process pool, one
    cell per task, started in the given order, and a cell's exception
    reaches the caller with its type and message (a worker that dies raises
    BrokenProcessPool instead of hanging).  In-process they run in cell
    order, which keeps the one-process peak memory of a grid-order run.
    Every cell draws only from streams keyed by its own seed, so the
    results do not depend on the process count or the order."""
    global _CELLS
    results = [None] * len(cells)
    processes = _process_count(len(cells))
    _CELLS = cells
    try:
        if processes <= 1:
            for i, res in map(_run_cell, range(len(cells))):
                results[i] = res
        else:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor, as_completed
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(processes, mp_context=ctx) as pool:
                futures = [pool.submit(_run_cell, c) for c in order]
                try:
                    for done in as_completed(futures):
                        i, res = done.result()
                        results[i] = res
                except BaseException:
                    pool.shutdown(cancel_futures=True)
                    raise
    finally:
        _CELLS = None
    return results


_FAMILIES = ("grazing", "coulomb")


# The CouplingPlan fields a sweep's recipe sets in every cell; its
# plan_options may set every other field.
_SWEEP_RECIPE = ("kernel", "seed", "subdivision", "theta_min", "v_floor",
                 "reg_delta", "eta")


def rate_sweep(family, eps_list, seeds=range(10), *, n, T, gamma=None,
               nu=None, p=5, w2_mode="none", **plan_options):
    """Coupled-distance sweep over a decreasing eps grid.

    Per (eps, seed) cell: build the kernel at eps (kernels.kernel_from_params;
    Coulomb takes no gamma or nu, and its h_eps is eps), derive the window
    eta, the subdivision resolution n_sub of the profile default_h and the
    floors from the recipe with moment exponent p, run the coupled
    integrator on n particles up to T, and record the terminal paired-L2.
    Every cell is built and checked before any runs, so a bad grid point
    fails before any compute.  The cells then run on every core in this
    process's CPU affinity, smallest eps first; the report is identical to
    a one-core run.  The fit and verdict are fit_verdict's.  seeds defaults
    to 0..9.  plan_options (tanaka) go to every cell's CouplingPlan; the
    recipe sets the _SWEEP_RECIPE fields.
    """
    if family not in _FAMILIES:
        raise ParameterError("rate sweeps need family 'grazing' or 'coulomb'")
    eps_list = tuple(float(e) for e in eps_list)
    seeds = tuple(int(s) for s in seeds)
    if len(eps_list) < 4 or not all(a > b for a, b in
                                    zip(eps_list, eps_list[1:])):
        raise ParameterError("need >= 4 strictly decreasing eps values")
    if len(seeds) < 10 or len(set(seeds)) != len(seeds):
        raise ParameterError("need >= 10 distinct seeds")
    expo = 2.0 * p / (2.0 * p + 3.0)

    clouds = {s: sample_initial({"name": "isotropic-gaussian", "sigma2": 1.0},
                                n, rngstreams.stream(s, "coupled-init"))
              for s in seeds}

    # build: every cell's inputs in grid order, each checked up front
    cells = []
    for eps in eps_list:
        kern = kernel_from_params(family, gamma=gamma, nu=nu, eps=eps)
        if family == "grazing":
            # the window exhausts the support: no angular mass above eta,
            # r_eta = 1 (the degenerate-bound regime)
            small = eps
            eta = kern.support[1]
        else:
            small = 1.0 / math.log(1.0 / eps)
            eta = min(small, kern.support[1])
        sub = build_subdivision(default_h, T, max(1, round(small ** -expo)))
        for s in seeds:
            # grazing floors default to 1e-3 of the RMS speed in coupled_run;
            # theta_min keeps the kernel default: eps/64 for the grazing
            # family, the support bottom eps for Coulomb.  The recipe sets
            # the _SWEEP_RECIPE fields, plan_options the others.
            floor = 0.05 * math.sqrt(clouds[s].m2()) \
                if family == "coulomb" else None
            plan = CouplingPlan(kernel=kern, seed=s, subdivision=sub,
                                theta_min=None, v_floor=floor, reg_delta=floor,
                                eta=eta, **plan_options)
            _check_run(plan, clouds[s], w2_mode)
            cells.append((plan, clouds[s], w2_mode))

    # run: a pool starts the costliest cells (smallest eps, last row) first
    n_seeds = len(seeds)
    order = [i * n_seeds + j for i in reversed(range(len(eps_list)))
             for j in range(n_seeds)]
    results = _run_cells(cells, order)

    # fill, in grid order
    shape = (len(eps_list), n_seeds)
    dist = np.empty(shape)
    sup_dist = np.empty(shape)
    w2 = np.full(shape, np.nan)
    drift_b = np.empty(shape)
    drift_l = np.empty(shape)
    series = {}
    for c, res in enumerate(results):
        i, j = divmod(c, n_seeds)
        m2_0 = clouds[seeds[j]].m2()
        series[(eps_list[i], seeds[j])] = res
        dist[i, j] = res.paired_l2[-1]
        sup_dist[i, j] = res.sup_paired_l2
        w2[i, j] = res.w2[-1]
        drift_b[i, j] = res.m2_boltz[-1] / m2_0 - 1.0
        drift_l[i, j] = res.m2_landau[-1] / m2_0 - 1.0

    return SweepReport(
        family=family, eps_list=eps_list, seeds=seeds, p=p,
        distances=dist, sup_distances=sup_dist, w2=w2,
        m2_drift_boltz=drift_b, m2_drift_landau=drift_l,
        proven_exponent=p / (2.0 * p + 3.0), conjectured_exponent=1.0,
        series=series, **fit_verdict(dist, eps_list, family))


def fit_verdict(dist, eps_list, family):
    """The rate fit of terminal distances dist[i, j] at (eps_list[i], seed j).

    Returns the per-eps means and standard errors, the least-squares line of
    log(mean) against log(eps) (Coulomb: against log(1/log(1/eps))) as slope,
    slope_stderr and intercept, and the verdict: "decreasing" when the means
    strictly decrease along the grid (Coulomb: no paired difference between
    neighbours above 2 of its standard errors), otherwise "inconclusive".
    """
    if family not in _FAMILIES:
        raise ParameterError("rate fits need family 'grazing' or 'coulomb'")
    eps = np.asarray(eps_list, dtype=float)
    root_n = math.sqrt(dist.shape[1])
    means = dist.mean(axis=1)
    if family == "grazing":
        x = np.log(eps)
        decreasing = bool(np.all(np.diff(means) < 0.0))
    else:
        x = np.log(1.0 / np.log(1.0 / eps))
        diffs = np.diff(dist, axis=0)  # paired across seeds
        se = diffs.std(axis=1, ddof=1) / root_n
        decreasing = bool(np.all(diffs.mean(axis=1) <= 2.0 * se))
    y = np.log(means)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    sxx = np.sum((x - x.mean()) ** 2)
    return {
        "means": means,
        "stderrs": dist.std(axis=1, ddof=1) / root_n,
        "slope": float(slope),
        "slope_stderr": float(np.sqrt(np.sum(resid ** 2)
                                      / max(x.size - 2, 1) / sxx)),
        "intercept": float(intercept),
        "verdict": "decreasing" if decreasing else "inconclusive",
    }
