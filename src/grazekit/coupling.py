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

In _slab, the per-slab step, both sides integrate their mean drift with
the frozen-coefficient exponential map (relative-velocity contraction
e^{-k Phi Delta}) and add centered fluctuations on top; this
compensated-martingale form stays stable even for near-coincident pairs
whose within-slab collision count is huge.  The V side additionally
carries its longitudinal fluctuation, the non-Gaussian shape of the
sampled above-eta jumps and the exact-versus-linearized angle geometry;
those have no Landau counterpart and are part of the measured gap.  A
Tanaka azimuth rotation phi0 aligns the Landau pair frame with the
Boltzmann pair frame when the toggle is on; each side builds its pair
frame once per slab, and the alignment reads those same frames.

The bottom of the window holds most of the jumps but little of their
variance: below theta_g, which puts _GAUSS_SHARE (5 %) of the window's
int theta^2 beta under it, lie 77 % of the grazing window's jumps at
nu = 0.6.  Each pair draws one Poisson count per band (Poisson thinning:
the same law as a window count split binomially); the exact band
[theta_g, eta] is sampled jump by jump, and the Gaussian band
[theta_min, theta_g] takes the conditional Gaussian of its five sums given
its count, with the band's moments (the small-jump approximation of
Asmussen & Rosinski 2001; criterion 10 measures its W2 cost).  A pair
expecting more than _EXACT_CAP exact jumps narrows its exact band
(_level_table).  This is an approximation, not the same law: the sums'
mean and covariance are kept, their shape below theta_g is not.

Neither side carries the jumps below the window bottom theta_min beyond
their mean drift (k_res): their diffusion, a share r_eta(theta_min) of the
Landau diffusion (0.30 % at the grazing default eps/64 with nu = 0.6), is
left out on both sides alike.  Coulomb windows start at the support edge,
so nothing is left out there.
"""

import functools
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rngstreams
from .boltzmann import _check_jump_options, _theta_min_eff
from .errors import ParameterError
from .geometry import _align, _dot, _frame, _norm, _safe
from .kernels import (CoulombKernel, Moments, _closed_forms,
                      kernel_from_params, residual_k, window_moments)
from .landau import _check_gamma, _scalar_factor
from .metrics import _check_w2_size, w2_exact
from .particles import (ParticleCloud, draw_companions, sample_initial,
                        speed_floor)
from .trajectory import check_finite

__all__ = ["Subdivision", "default_h", "build_subdivision", "CouplingPlan",
           "CoupledResult", "coupled_run", "CellSeries", "SweepReport",
           "rate_sweep", "fit_verdict"]


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


def default_h(s):
    """The weight profile h(s) = s^-1/2 of both coupled commands."""
    return np.asarray(s, dtype=float) ** -0.5


def _sample_h(h, pts):
    vals = np.asarray(h(pts), dtype=float)
    if vals.shape != pts.shape:
        raise ParameterError(f"h must map an array of shape {pts.shape} to "
                             f"one of the same shape, got {vals.shape}")
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
    the n companion indices; jump_stream(k) yields, in order, the exact
    band's Poisson counts (rate lam (1 - band_p) at the pair's level), the
    Gaussian band's Poisson counts (rate lam band_p: the jumps in
    [theta_min, theta_g]), one interleaved (z, phi) pair of uniforms per
    jump of the exact band [theta_g, eta], particle by particle, the band
    normals (three per pair with band jumps), then (if the kernel has mass
    above eta) the large-angle counts and one (z, phi) pair per large-angle
    jump.  A pair without a band (theta_g = theta_min) draws no band count
    and no band normals.  The Landau side draws nothing of its own: its
    kicks are the standardized jump sums, so both sides consume identical
    companion indices and base draws in identical order.

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
    terminal_w2: float
    m2_boltz: np.ndarray
    m2_landau: np.ndarray
    boltz_cloud: ParticleCloud
    landau_cloud: ParticleCloud
    events: int
    exact_jumps: int   # jumps sampled one by one; the rest are Gaussian

    @property
    def sup_paired_l2(self):
        return float(np.max(self.paired_l2))


# A pair expecting more exact-band jumps in a slab than this narrows its
# exact band (_level_table), which bounds the cost of near-coincident pairs.
_EXACT_CAP = 640

# The Gaussian band [theta_min, theta_g] holds this share of the window's
# int theta^2 beta; 0 samples every window jump.
_GAUSS_SHARE = 0.05


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


def _angle_sums(rng, counts, kernel, z_lo, mass, n):
    """Per-particle sums of (1-cos th), sin th cos/sin ph and th cos/sin ph
    over `counts` draws from the window tail law; z in [z_lo, z_lo+mass],
    with mass a float or one per particle.  Returns a (5, n) array; the
    band above eta reads only its first three rows.

    Draw order: draw i, particle by particle, reads word 2i as its z
    uniform and word 2i+1 as its azimuth uniform; each block takes its
    words from one rng.random((size, 2)) call.  A draw's words depend on
    its index alone, so they do not depend on the blocks, and the generator
    ends 2 * total words past where it started.

    The terms are single precision, each within about 3e-7 of its double
    value relative to its size before the azimuth factor: th and both
    sines come from kernel.tail.angles(u, z_lo, mass, float32), whose
    z-map stays double, and ph = 2 pi u is rounded once to float32 before
    its cosine and sine.  The (1-cos th) terms are 2 sin^2(th/2), with no
    cancellation at grazing angles.  Each particle's sums are one
    np.add.reduceat segment over its own contiguous terms, in double.  A
    segment depends on its own terms alone, so the bytes do not depend on
    the blocks; a particle without draws keeps +0.0."""
    sums = np.zeros((5, n))
    blocks = list(_blocks(counts, int(np.sum(counts))))
    width = max((s1 - s0 for _, _, s0, s1 in blocks), default=0)
    words, terms = np.empty((width, 2)), np.empty((5, width), np.float32)
    for p0, p1, s0, s1 in blocks:
        size = s1 - s0
        c = counts[p0:p1]
        u = rng.random(out=words[:size])
        m = np.repeat(mass[p0:p1], c) if np.ndim(mass) else mass
        th, sin_h, sin_t = kernel.tail.angles(u[:, 0], z_lo, m, np.float32)
        ph = np.multiply(u[:, 1], 2.0 * np.pi).astype(np.float32)
        cos_p, sin_p = np.cos(ph), np.sin(ph, out=ph)
        w = terms[:, :size]
        np.square(sin_h, out=w[0])
        w[0] *= 2.0
        np.multiply(sin_t, cos_p, out=w[1])
        np.multiply(sin_t, sin_p, out=w[2])
        np.multiply(th, cos_p, out=w[3])
        np.multiply(th, sin_p, out=w[4])
        # reduceat gives w[:, i] for an empty segment, so only particles
        # with draws are reduced
        nz = np.flatnonzero(c)
        sums[:, p0 + nz] = np.add.reduceat(w, (np.cumsum(c) - c)[nz], axis=1,
                                           dtype=np.float64)
    return sums


@functools.lru_cache(maxsize=64)
def _band_top(kernel, lo, hi, share):
    """theta_g in [lo, hi] with int_lo^theta_g theta^2 beta = share *
    int_lo^hi theta^2 beta, by bisection down to adjacent doubles (lo at
    share 0).  The bisection reads the closed forms alone, which neither
    flush the cached moments a run reads nor form each point's mass."""
    if not share > 0.0:
        return lo
    target = share * float(_closed_forms(kernel, lo, hi)[2])
    a, b = lo, hi
    while True:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            return b
        if float(_closed_forms(kernel, lo, mid)[2]) < target:
            a = mid
        else:
            b = mid


class _Levels(NamedTuple):
    """_level_table's count-capped rule, one entry per level."""
    lam_top: np.ndarray  # the largest window rate at the level
    theta_g: np.ndarray  # top of the Gaussian band; theta_min when empty
    mass_z: np.ndarray   # z-mass of the exact band [theta_g, eta]
    band_p: np.ndarray   # share of the window jumps in the Gaussian band
    band: Moments        # the Gaussian band's moments, one array per field


@functools.lru_cache(maxsize=64)
def _level_zero(kernel, mom, z_lo, lo, eta, share, cap):
    """Level 0 of _level_table: theta_g, the exact band's z-mass and the
    largest rate whose pair expects at most cap exact jumps."""
    theta_g = _band_top(kernel, lo, eta, share)
    mass_z = window_moments.__wrapped__(kernel, theta_g, eta).mass
    # z_lo + mass_z can round one ulp past z_max at the Coulomb support
    # edge; the sampler's map stays within it, so tail.angles never masks
    while z_lo + mass_z > kernel.tail.z_max:
        mass_z = math.nextafter(mass_z, 0.0)
    top = cap * mom.mass / mass_z
    while top * mass_z / mom.mass > cap:
        top = math.nextafter(top, 0.0)
    return theta_g, mass_z, top


@functools.lru_cache(maxsize=64)
def _level_table(kernel, mom, z_lo, lo, eta, share, cap, count):
    """The count-capped rule over the window [lo, eta] (moments mom, z_lo =
    H(eta)): a pair whose rate is in (lam_top[l-1], lam_top[l]] expects at
    most cap jumps in the exact band [theta_g[l], eta], z-mass mass_z[0] /
    2^l.  theta_g[0] is _band_top's at `share`, theta_g[l] = G(z_lo +
    mass_z[l]), for `count` levels or while it rises strictly below eta;
    the top level takes every larger rate.  Level l reads nothing of the
    count, so a longer table starts with a shorter one's levels.  Moments
    are read uncached."""
    moments = window_moments.__wrapped__
    theta_0, mass_z, top = _level_zero(kernel, mom, z_lo, lo, eta, share, cap)
    theta_g = [theta_0]
    while len(theta_g) < count:
        g = float(kernel.tail.G(z_lo + math.ldexp(mass_z, -len(theta_g))))
        if not theta_g[-1] < g < eta:
            break
        theta_g.append(g)
    band = Moments(*map(np.array, zip(*(moments(kernel, lo, g)
                                          for g in theta_g))))
    levels = np.arange(len(theta_g))
    return _Levels(np.ldexp(top, levels), np.array(theta_g),
                   np.ldexp(mass_z, -levels), band.mass / mom.mass, band)


class _RunConstants(NamedTuple):
    """What a coupled run resolves from its plan and initial cloud before
    any slab; _slab and _jump_sums read it."""
    kernel: object
    v_floor: float     # Boltzmann speed floor
    delta: float       # Landau regularization floor
    mom: Moments       # the matching window [theta_min, eta]
    levels: _Levels    # theta_g, band, band_p and mass_z below: level 0
    z_lo: float        # H(eta): the exact band's z lies in [z_lo, z_lo+mass_z]
    mom_lg: Moments    # the band above eta; None where it has no mass
    r_eta_win: float   # (pi/4) int theta^2 beta over the window
    r_tail: float      # (pi/4) int theta^2 beta above eta
    k_full: float      # (1-cos) drift mass: window + above eta + below window
    theta_g = property(lambda c: c.levels.theta_g[0])
    band = property(lambda c: Moments(*(f[0] for f in c.levels.band)))
    band_p = property(lambda c: c.levels.band_p[0])
    mass_z = property(lambda c: c.levels.mass_z[0])


def _check_run(plan, initial_cloud, w2_mode="none"):
    """Every precondition of a coupled run, checked before any slab stream
    is built.  Returns the run's _RunConstants; k_full includes k_res, the
    (1-cos) mass below the window.  rate_sweep calls it for every cell
    first, so the moments and the level table are cached before its pool
    forks; the levels reach the rate at v_floor in the widest slab."""
    if w2_mode not in ("none", "terminal"):
        raise ParameterError("w2_mode must be 'none' or 'terminal'")
    if w2_mode == "terminal":
        _check_w2_size(initial_cloud.n)

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

    mom, mom_lg = window_moments(kernel, lo_win, eta), \
        window_moments(kernel, eta, sup_hi)
    width = float(np.max(np.diff(plan.subdivision.grid, prepend=0.0)))
    lam_max = width * float(kernel.phi(v_floor)) * 2.0 * np.pi * mom.mass
    # the levels up to lam_max's; the cells of a sweep share a table where
    # their floors need as many levels
    rule = (kernel, mom, mom_lg.mass, lo_win, eta, _GAUSS_SHARE, _EXACT_CAP)
    top, count = _level_zero(*rule)[2], 1
    while math.ldexp(top, count - 1) < lam_max:
        count += 1
    levels = _level_table(*rule, count)
    # jumps above eta only where that band has mass (Coulomb)
    has_lg = mom_lg.mass > 1e-14
    one_cos_lg = mom_lg.one_cos if has_lg else 0.0
    return _RunConstants(
        kernel, v_floor, speed_floor(plan.reg_delta, initial_cloud), mom,
        levels, mom_lg.mass, mom_lg if has_lg else None,
        0.25 * np.pi * mom.theta_sq,
        0.25 * np.pi * mom_lg.theta_sq,
        np.pi * (mom.one_cos + one_cos_lg) + residual_k(kernel, lo_win))


def _normal_sums(k, mom, g):
    """The conditional Gaussian of the five sums of k jumps over mom's
    window, given k, from three normals per pair (rows of g): S1 with the
    jumps' mean and variance of 1 - cos theta, and per transverse direction
    one normal that drives the sin theta sum at scale sqrt(k E sin^2/2) and
    the theta sum at sqrt(k E theta^2/2) (their correlation exceeds
    1 - 2e-6 on the grazing and Coulomb grids); mom's fields may be one
    per pair.  Returns a (5, len(k)) array."""
    mu1 = mom.one_cos / mom.mass
    var1 = np.maximum(mom.one_cos_sq / mom.mass - mu1 * mu1, 0.0)
    s1 = k * mu1 + np.sqrt(k * var1) * g[:, 0]
    sd_s = np.sqrt(k * (mom.sin_sq / mom.mass) / 2.0)
    sd_t = np.sqrt(k * (mom.theta_sq / mom.mass) / 2.0)
    return np.stack((s1, sd_s * g[:, 1], sd_s * g[:, 2], sd_t * g[:, 1],
                     sd_t * g[:, 2]))


def _jump_sums(rng, lam, c, n):
    """One slab's window sums per particle, (5, n) in _angle_sums' rows
    with the longitudinal row centred by its compensator, the number of
    window jumps and the number sampled; c is the run's _RunConstants.
    At its level's band_p, each pair draws two independent Poisson counts,
    which by Poisson thinning split a Poisson(lam) window count: exact
    jumps at rate lam (1 - band_p), sampled (one mass when every pair sits
    at level 0), and Gaussian-band jumps at rate lam band_p
    (_normal_sums).  Stream order as in CouplingPlan."""
    t = c.levels
    lev = t.lam_top[:-1].searchsorted(lam)
    band_p = t.band_p[lev]
    exact = rng.poisson(lam * (1.0 - band_p))
    band = rng.poisson(lam * band_p)
    sums = _angle_sums(rng, exact, c.kernel, c.z_lo,
                       t.mass_z[lev] if lev.any() else t.mass_z[0], n)
    on = np.flatnonzero(band)
    g = rng.standard_normal((on.size, 3))
    sums[:, on] += _normal_sums(band[on].astype(float),
                                Moments(*(f[lev[on]] for f in t.band)), g)
    sums[0] -= lam * (c.mom.one_cos / c.mom.mass)
    sampled = int(exact.sum())
    return sums, sampled + int(band.sum()), sampled


def _slab(V, Y, comp, rng, width, c, tanaka):
    """One slab of the given width: both clouds, component-first (3, n),
    advance against the companion indices comp, drawing from the slab's
    jump stream rng in CouplingPlan's order.  Returns the new clouds, the
    number of jumps and the number of them sampled one by one."""
    n = V.shape[1]
    Vc, Yc = V.take(comp, 1), Y.take(comp, 1)
    X, Z = V - Vc, Y - Yc
    rX, rZ = _norm(X), _norm(Z)
    phi_v = np.asarray(c.kernel.phi(np.maximum(rX, c.v_floor)), dtype=float)
    phi_l = _scalar_factor(np.maximum(rZ, c.delta), c.kernel.gamma)
    # one frame per side, shared by its kicks and the Tanaka alignment; a
    # pair with zero relative velocity gets a stand-in frame and kicks
    # masked to zero (geometry._safe)
    Xs, okX, rXs = _safe(X, rX)
    Zs, okZ, rZs = _safe(Z, rZ)
    IX, JX = _frame(Xs, rXs)
    IZ, JZ = _frame(Zs, rZs)
    # Tanaka: the Landau frame takes the azimuth offset phi0, i.e. the kick
    # coordinates rotate by R(phi0) relative to the Boltzmann draws
    phi0 = np.where(okX & okZ, _align(IX, JX, IZ, JZ), 0.0) \
        if tanaka else np.zeros(n)
    cos0, sin0 = np.cos(phi0), np.sin(phi0)

    lam = width * phi_v * 2.0 * np.pi * c.mom.mass
    (s1, s2, s3, t2, t3), events, exact = _jump_sums(rng, lam, c, n)

    # Landau transverse kicks (module docstring): the window band r_eta_win
    # driven by the window draws, the band above eta r_tail by its jumps
    sig_t = 2.0 * np.sqrt(width * phi_v * c.r_eta_win)
    u2, u3 = t2 / sig_t, t3 / sig_t
    amp = np.sqrt(width * phi_l * c.r_eta_win)
    kick2 = amp * (cos0 * u2 - sin0 * u3)
    kick3 = amp * (sin0 * u2 + cos0 * u3)
    if c.mom_lg is not None:
        mass_lg = c.mom_lg.mass
        lam_lg = width * phi_v * 2.0 * np.pi * mass_lg
        counts_lg = rng.poisson(lam_lg)
        events += int(counts_lg.sum())
        exact += int(counts_lg.sum())  # every jump above eta is sampled
        l1, l2, l3 = _angle_sums(rng, counts_lg, c.kernel, 0.0, mass_lg,
                                 n)[:3]
        s1 += l1 - lam_lg * (c.mom_lg.one_cos / mass_lg)
        s2 += l2
        s3 += l3
        sig_lg = np.sqrt(width * phi_v * np.pi * c.mom_lg.sin_sq)
        ut2, ut3 = l2 / sig_lg, l3 / sig_lg
        amp_t = np.sqrt(width * phi_l * c.r_tail)
        kick2 += amp_t * (cos0 * ut2 - sin0 * ut3)
        kick3 += amp_t * (sin0 * ut2 + cos0 * ut3)

    # both sides: exponential mean drift (the relative velocity contracts by
    # e^{-k_full Phi_V Delta}, e^{-2 Phi_L Delta}) + centered fluctuations
    V_new = Vc + np.exp(-c.k_full * phi_v * width) * X
    V_new += np.where(okX, -0.5 * s1 * X + 0.5 * (s2 * IX + s3 * JX), 0.0)
    Y_new = Yc + np.exp(-2.0 * phi_l * width) * Z
    Y_new += np.where(okZ, kick2 * IZ + kick3 * JZ, 0.0)
    return V_new, Y_new, events, exact


def coupled_run(plan, initial_cloud, *, w2_mode="none"):
    """Run both systems through the plan's slabs from a shared initial cloud.

    Returns the paired-L2 distance at t=0 and at every slab boundary, plus
    m2 of both sides; w2_mode "terminal" adds terminal_w2, the exact
    assignment W2 of the two final clouds ("none" leaves it NaN).
    """
    c = _check_run(plan, initial_cloud, w2_mode)
    n = initial_cloud.n
    sub = plan.subdivision
    times = np.concatenate(([0.0], sub.grid))  # slab bounds, from [0, a_0]

    # both clouds component-first (3, n), as geometry works on them
    V = initial_cloud.velocities.T.copy()
    Y = V.copy()
    dists = [0.0]
    m2b, m2l = [initial_cloud.m2()], [initial_cloud.m2()]
    events = exact = 0
    for k, width in enumerate(np.diff(times)):
        comp = draw_companions(plan.companion_stream(k), np.arange(n), n)
        V, Y, jumps, sampled = _slab(V, Y, comp, plan.jump_stream(k), width,
                                     c, plan.tanaka)
        check_finite(f"state after slab {k}", V.T, Y.T)
        events += jumps
        exact += sampled
        D = V - Y
        dists.append(float(np.sqrt(np.mean(_dot(D, D)))))
        m2b.append(float(np.mean(_dot(V, V))))
        m2l.append(float(np.mean(_dot(Y, Y))))

    w2 = w2_exact(V.T, Y.T) if w2_mode == "terminal" else np.nan
    V, Y = np.ascontiguousarray(V.T), np.ascontiguousarray(Y.T)
    return CoupledResult(
        times=times, paired_l2=np.array(dists), terminal_w2=w2,
        m2_boltz=np.array(m2b), m2_landau=np.array(m2l),
        boltz_cloud=ParticleCloud(velocities=V, time=sub.T,
                                  step_index=times.size - 1, events=events),
        landau_cloud=ParticleCloud(velocities=Y, time=sub.T,
                                   step_index=times.size - 1),
        events=events, exact_jumps=exact)


# ---------------------------------------------------------------------------
# eps sweep
# ---------------------------------------------------------------------------

class CellSeries(NamedTuple):
    """What a sweep keeps of one cell's coupled run: its per-boundary
    series and its two jump counts, without the terminal clouds."""
    times: np.ndarray
    paired_l2: np.ndarray
    m2_boltz: np.ndarray
    m2_landau: np.ndarray
    events: int
    exact_jumps: int


@dataclass
class SweepReport:
    family: str
    eps_list: tuple
    seeds: tuple
    p: int
    distances: np.ndarray      # (n_eps, n_seeds) terminal paired-L2
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
    series: dict               # (eps, seed) -> CellSeries
    theta_g: tuple             # per eps, top of the level-0 Gaussian band
    exact_cap: int             # the count cap _EXACT_CAP
    exact_share: tuple         # per eps, share of the jumps sampled

    @property
    def m2_drift_stats(self):
        """Per-eps mean and standard error over the seeds of each side's
        m2 drift m2(T)/m2(0) - 1."""
        return {name: dict(zip(("means", "stderrs"),
                               _seed_stats(getattr(self, name))))
                for name in ("m2_drift_boltz", "m2_drift_landau")}


# The cells of the running sweep, set only while rate_sweep runs them.
# Forked workers inherit it, so a cell crosses no pickle on the way in: a
# kernel whose tail has been cached does not pickle.
_CELLS = None


def _run_cell(index):
    plan, cloud = _CELLS[index]
    res = coupled_run(plan, cloud)
    return index, CellSeries(*(getattr(res, f) for f in CellSeries._fields))


def _process_count(n_cells):
    """One process per core in this process's CPU affinity, at most one
    per cell."""
    cores = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else 1
    return min(cores, n_cells)


def _run_cells(cells, order):
    """coupled_run on every cell; each cell's CellSeries comes back, in cell
    order.

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


def rate_sweep(family, eps_list, seeds=range(10), *, n, T, gamma=None,
               nu=None, p=5, tanaka=True):
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
    to 0..9; tanaka goes to every cell's CouplingPlan, and the recipe sets
    its other fields.
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
    if not p > 0:
        raise ParameterError(f"moment exponent p must be positive, got {p}")
    expo = 2.0 * p / (2.0 * p + 3.0)

    clouds = {s: sample_initial({"name": "isotropic-gaussian", "sigma2": 1.0},
                                n, rngstreams.stream(s, "coupled-init"))
              for s in seeds}

    # build: every cell's inputs in grid order, each checked up front
    cells, theta_g = [], []
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
            # family, the support bottom eps for Coulomb.
            floor = 0.05 * math.sqrt(clouds[s].m2()) \
                if family == "coulomb" else None
            plan = CouplingPlan(kernel=kern, seed=s, subdivision=sub,
                                theta_min=None, v_floor=floor, reg_delta=floor,
                                eta=eta, tanaka=tanaka)
            consts = _check_run(plan, clouds[s])
            cells.append((plan, clouds[s]))
        theta_g.append(float(consts.theta_g))

    # run: a pool starts the costliest cells (smallest eps, last row) first
    n_seeds = len(seeds)
    order = [i * n_seeds + j for i in reversed(range(len(eps_list)))
             for j in range(n_seeds)]
    results = _run_cells(cells, order)

    # fill, in grid order
    dist, drift_b, drift_l = np.empty((3, len(eps_list), n_seeds))
    jumps, series = np.zeros((len(eps_list), 2), dtype=np.int64), {}
    for c, res in enumerate(results):
        i, j = divmod(c, n_seeds)
        m2_0 = clouds[seeds[j]].m2()
        series[(eps_list[i], seeds[j])] = res
        dist[i, j] = res.paired_l2[-1]
        drift_b[i, j] = res.m2_boltz[-1] / m2_0 - 1.0
        drift_l[i, j] = res.m2_landau[-1] / m2_0 - 1.0
        jumps[i] += (res.events, res.exact_jumps)

    return SweepReport(
        family=family, eps_list=eps_list, seeds=seeds, p=p,
        distances=dist, m2_drift_boltz=drift_b, m2_drift_landau=drift_l,
        proven_exponent=p / (2.0 * p + 3.0), conjectured_exponent=1.0,
        series=series, theta_g=tuple(theta_g), exact_cap=_EXACT_CAP,
        exact_share=tuple((jumps[:, 1] / jumps[:, 0]).tolist()),
        **fit_verdict(dist, eps_list, family))


def _seed_stats(a):
    """Mean and standard error over the seeds (axis 1) of a per-(eps, seed)
    array."""
    return a.mean(axis=1), a.std(axis=1, ddof=1) / math.sqrt(a.shape[1])


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
    means, stderrs = _seed_stats(dist)
    if family == "grazing":
        x = np.log(eps)
        decreasing = bool(np.all(np.diff(means) < 0.0))
    else:
        x = np.log(1.0 / np.log(1.0 / eps))
        d_mean, d_se = _seed_stats(np.diff(dist, axis=0))  # paired by seed
        decreasing = bool(np.all(d_mean <= 2.0 * d_se))
    y = np.log(means)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    sxx = np.sum((x - x.mean()) ** 2)
    return {
        "means": means,
        "stderrs": stderrs,
        "slope": float(slope),
        "slope_stderr": float(np.sqrt(np.sum(resid ** 2)
                                      / max(x.size - 2, 1) / sxx)),
        "intercept": float(intercept),
        "verdict": "decreasing" if decreasing else "inconclusive",
    }
