"""Tests for the coupled Boltzmann/Landau integrator and rate sweeps.

Expected values were measured with a pinned pilot script before being
frozen here; sweeps and coupled runs are deterministic given (config, seed).
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from grazekit import artifacts, coupling, rngstreams
from grazekit.coupling import (CouplingPlan, Subdivision, build_subdivision,
                               coupled_run, rate_sweep)
from grazekit.errors import InstabilityError, ParameterError
from grazekit.kernels import (CoulombKernel, GrazingKernel, SoftKernel,
                              window_moments)
from grazekit.particles import ParticleCloud, sample_initial

GAUSS = {"name": "isotropic-gaussian", "sigma2": 1.0}


def sqrt_inv(s):
    return np.asarray(s, dtype=float) ** -0.5


GRAZING_EPS = [np.pi / 2, np.pi / 4, np.pi / 8, np.pi / 16]
GRAZING = {"gamma": -0.5, "nu": 0.6}


def grazing_setup(n_part, eps=np.pi / 4, seed=3, T=0.5, n_sub=1):
    """A grazing kernel, the subdivision and an initial cloud."""
    kern = GrazingKernel(eps=eps, **GRAZING)
    cloud = sample_initial(GAUSS, n_part, rngstreams.stream(seed, "coupled-init"))
    return kern, build_subdivision(sqrt_inv, T, n_sub), cloud


@pytest.fixture(scope="module")
def grazing_sweep():
    return rate_sweep("grazing", GRAZING_EPS, range(10), n=512, T=0.5,
                      **GRAZING)


@pytest.fixture(scope="module")
def grazing_sweep_no_tanaka():
    return rate_sweep("grazing", GRAZING_EPS, range(10), n=512, T=0.5,
                      tanaka=False, **GRAZING)


def test_subdivision_invariants():
    for h, integral in [(sqrt_inv, lambda T: 2.0 * math.sqrt(T)),
                        (lambda s: np.ones_like(np.asarray(s, float)),
                         lambda T: T),
                        (lambda s: np.zeros_like(np.asarray(s, float)),
                         lambda T: 0.0)]:
        for T, n in [(0.5, 3), (1.0, 8), (0.3, 1)]:
            sub = build_subdivision(h, T, n)
            gaps = np.diff(sub.grid)
            assert sub.grid[0] > 0.0
            assert sub.grid[0] < 1.0 / n
            assert np.all(gaps > 1.0 / (4 * n)) and np.all(gaps < 1.0 / n)
            assert sub.grid[-1] == T
            assert sub.riemann_sum() <= 3.0 * integral(T) + 3.0
            assert np.allclose(sub.h_values, h(sub.grid))


def test_subdivision_nodes_near_minimize():
    # decreasing profile: every node must sit at the top sampled point of
    # its cell, so h(a_i) equals the sampled cell minimum
    sub = build_subdivision(sqrt_inv, 1.0, 8)
    K = len(sub.grid) - 1
    for i in range(K):
        lo, hi = i / 16.0, (2 * i + 1) / 32.0
        if i == K - 1:
            lo, hi = max(lo, 1.0 - 1 / 8.0), min(hi, 1.0 - 1 / 32.0)
        pts = lo + (hi - lo) * (np.arange(32) + 0.5) / 32
        assert sub.h_values[i] <= sqrt_inv(pts).min() + 1e-12


def test_subdivision_validation():
    with pytest.raises(ParameterError):
        build_subdivision(sqrt_inv, 0.2, 1)  # needs T > 1/(4n)
    with pytest.raises(ParameterError):
        build_subdivision(sqrt_inv, -1.0, 4)
    with pytest.raises(ParameterError):
        build_subdivision(sqrt_inv, 1.0, 0)
    with pytest.raises(ParameterError):
        build_subdivision(lambda s: -np.ones_like(np.asarray(s, float)), 1.0, 4)
    # T=0.3, n=1 is the smallest-horizon Coulomb setting and must work
    sub = build_subdivision(sqrt_inv, 0.3, 1)
    assert len(sub.grid) == 2 and sub.slab_bounds()[0][0] == 0.0


def test_coupled_t0_zero_and_bit_reproducible():
    kern, sub, cloud = grazing_setup(128)
    plan = CouplingPlan(kernel=kern, seed=11, subdivision=sub)
    res1 = coupled_run(plan, cloud)
    res2 = coupled_run(plan, cloud)
    assert res1.paired_l2[0] == 0.0
    assert np.array_equal(res1.paired_l2, res2.paired_l2)
    assert np.array_equal(res1.boltz_cloud.velocities,
                          res2.boltz_cloud.velocities)
    assert np.array_equal(res1.landau_cloud.velocities,
                          res2.landau_cloud.velocities)
    assert res1.events == res2.events and res1.events > 0
    assert res1.times[0] == 0.0 and res1.times[-1] == 0.5
    assert np.all(np.isfinite(res1.m2_boltz)) and np.all(np.isfinite(res1.m2_landau))


def test_grazing_sweep_frozen_values(grazing_sweep):
    rep = grazing_sweep
    assert rep.family == "grazing"
    assert rep.verdict == "decreasing"
    assert np.all(np.diff(rep.means) < 0.0)
    assert float(rep.means.sum()) == pytest.approx(1.8075187912285855, rel=1e-9)
    assert rep.slope == pytest.approx(0.991316, rel=1e-4)
    assert rep.slope > 0.3
    assert rep.proven_exponent == pytest.approx(5.0 / 13.0, rel=1e-12)
    assert rep.conjectured_exponent == 1.0
    assert rep.distances.shape == (4, 10)
    assert np.all(rep.sup_distances >= rep.distances - 1e-12)
    assert np.isnan(rep.w2).all()  # w2_mode defaults to "none"


def test_largest_vs_smallest_eps(grazing_sweep):
    # coarsest kernel run must sit strictly above the finest one
    assert grazing_sweep.means[0] > grazing_sweep.means[-1]
    assert grazing_sweep.means[0] / grazing_sweep.means[-1] > 1.5


def test_tanaka_rotation_tightens_coupling(grazing_sweep,
                                           grazing_sweep_no_tanaka):
    assert np.all(grazing_sweep.means < grazing_sweep_no_tanaka.means)
    assert grazing_sweep_no_tanaka.verdict == "decreasing"


def test_coulomb_mini_sweep_frozen_values():
    rep = rate_sweep("coulomb", [0.3, 0.1, 0.03, 0.01], range(10), n=256,
                     T=0.3)
    assert rep.family == "coulomb"
    assert rep.verdict == "decreasing"
    assert float(rep.means.sum()) == pytest.approx(0.7818277886888252,
                                                   rel=1e-9)
    diffs = np.diff(rep.distances, axis=0)
    se = diffs.std(axis=1, ddof=1) / math.sqrt(10)
    assert np.all(diffs.mean(axis=1) <= 2.0 * se)


def test_sweep_validation_errors():
    eps = GRAZING_EPS
    with pytest.raises(ParameterError):                  # too few eps
        rate_sweep("grazing", eps[:3], range(10), n=64, T=0.5, **GRAZING)
    with pytest.raises(ParameterError):                  # not decreasing
        rate_sweep("grazing", eps[::-1], range(10), n=64, T=0.5, **GRAZING)
    with pytest.raises(ParameterError):                  # too few seeds
        rate_sweep("grazing", eps, range(9), n=64, T=0.5, **GRAZING)
    with pytest.raises(ParameterError):                  # repeat
        rate_sweep("grazing", eps, [0, 1, 2, 3, 4, 5, 6, 7, 8, 8], n=64,
                   T=0.5, **GRAZING)
    with pytest.raises(ParameterError):                  # plain soft family
        rate_sweep("soft", eps, range(10), n=64, T=0.5, **GRAZING)
    with pytest.raises(ParameterError, match="coulomb kernel"):
        rate_sweep("coulomb", [0.3, 0.1, 0.03, 0.01], range(10), n=64,
                   T=0.3, gamma=-0.5)                    # gamma is -3


def test_coupled_run_compat_errors():
    kern, sub, cloud = grazing_setup(64)
    plan = CouplingPlan(kernel=kern, seed=0, subdivision=sub)
    with pytest.raises(ParameterError):
        coupled_run(plan, cloud, w2_mode="sometimes")
    plan_empty = CouplingPlan(kernel=kern, seed=0, subdivision=sub, eta=1e-6)
    with pytest.raises(ParameterError):
        coupled_run(plan_empty, cloud)                    # empty window
    plan_floor = CouplingPlan(kernel=kern, seed=0, subdivision=sub,
                              v_floor=0.0)
    with pytest.raises(ParameterError):
        coupled_run(plan_floor, cloud)                    # unbounded rate


def test_plan_validation():
    sub = build_subdivision(sqrt_inv, 0.5, 1)
    kern = GrazingKernel(eps=np.pi / 4, **GRAZING)
    for bad in ({"eta": -0.1}, {"kernel": "grazing"}, {"theta_min": 0.0},
                {"theta_min": 4.0}, {"v_floor": -1.0}, {"reg_delta": -1.0}):
        with pytest.raises(ParameterError):
            CouplingPlan(**{"kernel": kern, "seed": 0, "subdivision": sub,
                            **bad})
    # an eta above the support top is refused, naming both numbers
    top = kern.support[1]
    with pytest.raises(ParameterError) as info:
        CouplingPlan(kernel=kern, seed=0, subdivision=sub, eta=0.5 + top)
    assert str(0.5 + top) in str(info.value) and str(top) in str(info.value)
    # a kernel whose gamma the Landau side refuses fails at the plan
    hard = SoftKernel(gamma=-0.5, nu=0.6)
    object.__setattr__(hard, "gamma", 0.5)
    with pytest.raises(ParameterError, match="gamma"):
        CouplingPlan(kernel=hard, seed=0, subdivision=sub)


def test_forced_gaussian_fallback_path(monkeypatch):
    kern, sub, cloud = grazing_setup(64)
    plan = CouplingPlan(kernel=kern, seed=3, subdivision=sub)
    samp = coupled_run(plan, cloud)
    monkeypatch.setattr(coupling, "_NORMAL_FALLBACK", 0)
    res = coupled_run(plan, cloud)
    res2 = coupled_run(plan, cloud)
    assert np.array_equal(res.paired_l2, res2.paired_l2)
    assert np.all(np.isfinite(res.paired_l2))
    # aggregate moments match the sampled path to leading order, so the
    # distances land in the same regime
    assert 0.3 < res.paired_l2[-1] / samp.paired_l2[-1] < 3.0


@pytest.mark.parametrize("reg_delta", [None, 0.0])
@pytest.mark.parametrize("family", ["grazing", "coulomb"])
def test_zero_relative_velocity_rows_stay_finite_and_quiet(family, reg_delta):
    # the second half of the cloud duplicates the first, so a particle that
    # draws its own duplicate has X = Z = 0 in slab 0: a stand-in frame, a
    # masked kick, and with reg_delta = 0 no 0 ** gamma Landau factor
    half = sample_initial(GAUSS, 32, rngstreams.stream(1, "coupled-init"))
    cloud = ParticleCloud(np.concatenate([half.velocities] * 2))
    kern = (GrazingKernel(eps=np.pi / 8, **GRAZING) if family == "grazing"
            else CoulombKernel(eps=0.01))
    plan = CouplingPlan(kernel=kern, seed=3, reg_delta=reg_delta,
                        subdivision=build_subdivision(sqrt_inv, 0.5, 4))
    n = cloud.n
    j = plan.companion_stream(0).integers(0, n - 1, size=n)
    comp = j + (j >= np.arange(n))
    assert np.flatnonzero(comp == (np.arange(n) + n // 2) % n).tolist() \
        == [7, 27, 42]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = coupled_run(plan, cloud, w2_mode="all")
    for field in ("paired_l2", "w2", "m2_boltz", "m2_landau"):
        assert np.all(np.isfinite(getattr(res, field)))
    assert np.all(np.isfinite(res.boltz_cloud.velocities))
    assert np.all(np.isfinite(res.landau_cloud.velocities))
    assert res.events > 0


def test_w2_modes():
    kern, sub, cloud = grazing_setup(64)
    plan = CouplingPlan(kernel=kern, seed=3, subdivision=sub)
    none = coupled_run(plan, cloud)
    assert np.isnan(none.w2).all()
    term = coupled_run(plan, cloud, w2_mode="terminal")
    assert np.isnan(term.w2[:-1]).all() and term.w2[-1] > 0.0
    full = coupled_run(plan, cloud, w2_mode="all")
    assert full.w2[0] == 0.0
    # assignment-optimal transport never exceeds the identity pairing
    assert np.all(full.w2 <= full.paired_l2 + 1e-12)
    assert term.w2[-1] == pytest.approx(full.w2[-1], rel=1e-12)


def test_subdivision_dataclass_shape():
    sub = build_subdivision(sqrt_inv, 0.5, 3)
    assert isinstance(sub, Subdivision)
    bounds = sub.slab_bounds()
    assert bounds[0][0] == 0.0 and bounds[-1][1] == 0.5
    assert len(bounds) == len(sub.grid)
    assert sub.T == 0.5
    assert np.all(sub.widths > 0.0)


# ---------------------------------------------------------------------------
# early preconditions and the parallel sweep
# ---------------------------------------------------------------------------

def count_streams(monkeypatch):
    """Record the name of every stream built from here on."""
    names = []
    original = rngstreams.stream

    def counted(seed, name, *indices):
        names.append(name)
        return original(seed, name, *indices)

    monkeypatch.setattr(rngstreams, "stream", counted)
    return names


@pytest.mark.parametrize("w2_mode", ["terminal", "all"])
def test_w2_size_guard_fails_before_slab_compute(monkeypatch, w2_mode):
    kern, sub, cloud = grazing_setup(4097)
    names = count_streams(monkeypatch)
    with pytest.raises(ParameterError, match="4096"):
        coupled_run(CouplingPlan(kernel=kern, seed=3, subdivision=sub), cloud,
                    w2_mode=w2_mode)
    with pytest.raises(ParameterError, match="4096"):
        rate_sweep("grazing", GRAZING_EPS, range(10), n=4097, T=0.5,
                   w2_mode=w2_mode, **GRAZING)
    assert names and not [m for m in names if m.startswith("slab-")]


def small_grazing_sweep():
    # the size of the CLI rate-sweep test: n = 48, 4 eps, 10 seeds
    return rate_sweep("grazing", GRAZING_EPS, range(10), n=48, T=0.3,
                      **GRAZING)


def test_sweep_pool_is_byte_identical_to_serial(monkeypatch):
    texts = {}
    for processes in (2, 1):
        monkeypatch.setattr(coupling, "_process_count",
                            lambda n_cells, k=processes: k)
        rep = small_grazing_sweep()
        texts[processes] = (artifacts.sweep_csv_text(rep),
                            artifacts.sweep_summary_json_text(rep))
        assert list(rep.series) == [(e, s) for e in rep.eps_list
                                    for s in rep.seeds]
    assert texts[2] == texts[1]


def test_sweep_cell_errors_surface_unchanged(monkeypatch):
    original = coupling.coupled_run

    def unstable(plan, cloud, **kw):
        if plan.seed == 3 and plan.kernel.eps == np.pi / 8:
            raise InstabilityError("non-finite state after slab 1 (first "
                                   "indices [4, 9])",
                                   indices=np.array([4, 9]))
        return original(plan, cloud, **kw)

    monkeypatch.setattr(coupling, "coupled_run", unstable)
    raised = {}
    for processes in (2, 1):
        monkeypatch.setattr(coupling, "_process_count",
                            lambda n_cells, k=processes: k)
        with pytest.raises(InstabilityError) as info:
            small_grazing_sweep()
        raised[processes] = info.value
    assert type(raised[2]) is type(raised[1]) is InstabilityError
    assert str(raised[2]) == str(raised[1])
    assert np.array_equal(raised[2].indices, raised[1].indices)
    assert raised[2].indices.tolist() == [4, 9]
    assert coupling._CELLS is None  # the handle lives only while cells run


# ---------------------------------------------------------------------------
# the blocked jump sampler against the one-shot sampler it replaced
# ---------------------------------------------------------------------------

def one_shot_terms(rng, counts, kernel, z_lo, mass):
    """The sampler's five terms of every draw, (5, total), in draw order,
    from one (total, 2) array of word pairs: draw i reads word 2i as z and
    word 2i+1 as the azimuth."""
    u = rng.random((int(np.sum(counts)), 2))
    th, sin_h, sin_t = kernel.tail.angles(u[:, 0], z_lo, mass)
    cos_p, sin_p = coupling._azimuth_cos_sin(u[:, 1])
    return np.stack((2.0 * sin_h ** 2, sin_t * cos_p,
                     sin_t * sin_p, th * cos_p, th * sin_p))


def one_shot_angle_sums(rng, counts, kernel, z_lo, mass, n):
    """The jump sampler without blocks: one segment reduction over the
    particles that have draws, and the (1 - cos) sums rounded once."""
    w = one_shot_terms(rng, counts, kernel, z_lo, mass)
    counts = np.asarray(counts)
    nz = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[nz]
    sums = np.zeros((5, n))
    sums[:, nz] = np.add.reduceat(w, starts, axis=1)
    sums[0, nz] = [math.fsum(w[0, a:a + c])
                   for a, c in zip(starts, counts[nz])]
    return tuple(sums)


def same_state(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


SAMPLER_KERNELS = {
    "grazing": GrazingKernel(gamma=-0.5, nu=0.6, eps=np.pi / 16),
    "soft": SoftKernel(gamma=-0.5, nu=0.6),
    "coulomb": CoulombKernel(eps=0.01),
}


def sampler_counts(case):
    rng = np.random.default_rng(17)
    if case == "zeros":            # every third particle draws nothing
        counts = rng.poisson(40.0, 300)
        counts[::3] = 0
    elif case == "all-zero":
        counts = np.zeros(64, dtype=np.int64)
    elif case == "above-block":    # one particle alone outgrows a block
        counts = rng.poisson(3.0, 200)
        counts[77] = coupling._BLOCK + 5
    elif case == "sparse":         # about one draw per particle
        counts = rng.poisson(1.0, 500)
    elif case == "layout":         # zero-draw particles after one above a
        b = coupling._BLOCK        # block, inside a block, ending a block
        counts = np.array([b + 3, 0, 0, 2, 0, 1, b - 3, 0, 0, 4, 0, 0])
    else:                          # many draws per particle, several blocks
        counts = rng.poisson(200.0, 400)
    return counts


@pytest.mark.parametrize("drawn", [0, 3])  # words drawn before the call
@pytest.mark.parametrize("block", ["shipped", "tiny"])
@pytest.mark.parametrize("case", ["zeros", "all-zero", "above-block",
                                  "layout", "sparse", "dense"])
@pytest.mark.parametrize("family", list(SAMPLER_KERNELS))
def test_blocked_sampler_matches_one_shot(monkeypatch, family, case, block,
                                          drawn):
    if block == "tiny":  # blocks of a few draws end inside most particles
        monkeypatch.setattr(coupling, "_BLOCK", 5)
    kernel = SAMPLER_KERNELS[family]
    counts = sampler_counts(case)
    n = counts.size
    mass = float(np.asarray(kernel.tail.H(0.05)))
    for theta_sums in (True, False):
        ref_rng = rngstreams.stream(4, "slab-jump", 1)
        new_rng = rngstreams.stream(4, "slab-jump", 1)
        ref_rng.bit_generator.random_raw(drawn)
        new_rng.bit_generator.random_raw(drawn)
        ref = one_shot_angle_sums(ref_rng, counts, kernel, 0.3, mass, n)
        new = coupling._angle_sums(new_rng, counts, kernel, 0.3, mass, n,
                                   theta_sums=theta_sums)
        assert len(new) == (5 if theta_sums else 3)
        for r, s in zip(ref, new):
            assert s.dtype == np.float64 and r.dtype == np.float64
            assert s.tobytes() == r.tobytes()
        assert same_state(new_rng.bit_generator.state,
                          ref_rng.bit_generator.state)
        # two words per draw, whatever the blocks
        raw_rng = rngstreams.stream(4, "slab-jump", 1)
        raw_rng.bit_generator.random_raw(drawn)
        raw_rng.bit_generator.random_raw(2 * int(counts.sum()))
        assert same_state(new_rng.bit_generator.state,
                          raw_rng.bit_generator.state)
        # reduceat returns a term, not 0, for an empty segment
        idle = new[:, counts == 0]
        assert not np.any(idle) and not np.any(np.signbit(idle))
        if case == "all-zero":  # no words drawn
            fresh = rngstreams.stream(4, "slab-jump", 1)
            fresh.bit_generator.random_raw(drawn)
            assert same_state(new_rng.bit_generator.state,
                              fresh.bit_generator.state)


def test_azimuth_cos_sin_within_rounding_of_numpy():
    u = np.concatenate((rngstreams.stream(2, "slab-jump", 0).random(1 << 20),
                        [0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)]))
    ph = 2.0 * np.pi * u  # the azimuths of rng.uniform(0, 2 pi) on these words
    assert np.array_equal(ph[:1 << 20], rngstreams.stream(
        2, "slab-jump", 0).uniform(0.0, 2.0 * np.pi, 1 << 20))
    assert ph[-1] == np.nextafter(2.0 * np.pi, 0.0)
    assert ph[-4] == np.pi / 2.0 and ph[-3] == np.pi
    cos_p, sin_p = coupling._azimuth_cos_sin(u.copy())
    # measured 4.7e-16 (cos), 5.0e-16 (sin) and 4.4e-16 off the unit
    # circle; the ulp of the largest azimuth alone is 8.9e-16
    assert np.max(np.abs(cos_p - np.cos(ph))) <= 1e-15
    assert np.max(np.abs(sin_p - np.sin(ph))) <= 1e-15
    assert np.max(np.abs(cos_p * cos_p + sin_p * sin_p - 1.0)) <= 7e-16
    assert cos_p[-5] == 1.0 and sin_p[-5] == 0.0


def reference_sampler(calls):
    """The one-shot sampler with the blocked sampler's signature; records
    each call's counts and theta_sums."""
    def sums(rng, counts, kernel, z_lo, mass, n, theta_sums=True):
        calls.append((np.array(counts), theta_sums))
        out = one_shot_angle_sums(rng, counts, kernel, z_lo, mass, n)
        return out if theta_sums else out[:3]
    return sums


@pytest.mark.parametrize("setup", ["grazing", "coulomb-band",
                                   "coulomb-fallback"])
def test_coupled_run_matches_one_shot_sampler(monkeypatch, setup):
    if setup == "grazing":
        kern, sub, cloud = grazing_setup(256, eps=np.pi / 16, n_sub=2)
        plan = CouplingPlan(kernel=kern, seed=7, subdivision=sub)
    else:
        cloud = sample_initial(GAUSS, 128, rngstreams.stream(5, "coupled-init"))
        sub = build_subdivision(sqrt_inv, 0.3, 2)
        floor = 0.05 * math.sqrt(3)
        plan = CouplingPlan(kernel=CoulombKernel(eps=0.01), seed=5,
                            subdivision=sub, v_floor=floor, reg_delta=floor,
                            eta=1.0 / math.log(100.0))
        if setup == "coulomb-fallback":
            monkeypatch.setattr(coupling, "_NORMAL_FALLBACK", 300)
    new = coupled_run(plan, cloud, w2_mode="all")
    calls = []
    monkeypatch.setattr(coupling, "_angle_sums", reference_sampler(calls))
    ref = coupled_run(plan, cloud, w2_mode="all")
    for field in ("times", "paired_l2", "w2", "m2_boltz", "m2_landau"):
        assert np.array_equal(getattr(new, field), getattr(ref, field))
    assert np.array_equal(new.boltz_cloud.velocities,
                          ref.boltz_cloud.velocities)
    assert np.array_equal(new.landau_cloud.velocities,
                          ref.landau_cloud.velocities)
    assert new.events == ref.events
    window = [c for c, theta_sums in calls if theta_sums]
    band = [c for c, theta_sums in calls if not theta_sums]
    assert len(window) == len(sub.slab_bounds())
    assert len(band) == (0 if setup == "grazing" else len(window))
    if setup == "coulomb-fallback":  # fallback pairs reach the sampler as 0
        assert any(np.any(c == 0) and np.any(c > 0) for c in window)


def test_sampler_window_stays_inside_coulomb_z_max(monkeypatch):
    # here H(eta) + (H(eps) - H(eta)) rounds one ulp past z_max = H(eps)
    kernel = CoulombKernel(eps=0.9498182648544462)
    eta = 1.2603072958246715
    lo = window_moments(kernel, eta, kernel.support[1]).mass
    assert lo + window_moments(kernel, kernel.eps, eta).mass \
        > kernel.tail.z_max
    windows = []
    sampler = coupling._angle_sums

    def spy(rng, counts, kernel, z_lo, mass, n, theta_sums=True):
        windows.append((z_lo, mass))
        return sampler(rng, counts, kernel, z_lo, mass, n, theta_sums)

    monkeypatch.setattr(coupling, "_angle_sums", spy)
    cloud = sample_initial(GAUSS, 64, rngstreams.stream(2, "coupled-init"))
    coupled_run(CouplingPlan(kernel=kernel, seed=2, eta=eta, v_floor=0.1,
                             reg_delta=0.1,
                             subdivision=build_subdivision(sqrt_inv, 0.3, 1)),
                cloud)
    assert windows and all(z_lo + mass <= kernel.tail.z_max
                           for z_lo, mass in windows)


def test_sampler_memory_is_a_few_blocks():
    kernel = GrazingKernel(gamma=-0.5, nu=0.6, eps=np.pi / 16)
    counts = np.full(4096, 512)  # 2 097 152 draws, 32 particles per block
    mass = float(np.asarray(kernel.tail.H(kernel.eps / 64.0)))
    rng = rngstreams.stream(0, "slab-jump", 0)
    tracemalloc.start()
    try:
        coupling._angle_sums(rng, counts, kernel, 0.0, mass, counts.size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block's word pairs, terms and temporaries, whatever the number of
    # draws (measured 20.5 block arrays, 2.7 MB); an array the length of
    # all draws would add 128 block arrays
    assert peak < 24 * 8 * coupling._BLOCK


def sum_errors(counts, kernel, lo, hi):
    """Largest |sum - fsum| / sum |term| over the particles with draws, for
    the sampler's sums and for running sums in draw order (bincount)."""
    z_lo = float(np.asarray(kernel.tail.H(hi)))
    mass = float(np.asarray(kernel.tail.H(lo))) - z_lo
    n = counts.size
    got = coupling._angle_sums(rngstreams.stream(3, "slab-jump", 0), counts,
                               kernel, z_lo, mass, n)
    w = one_shot_terms(rngstreams.stream(3, "slab-jump", 0), counts, kernel,
                       z_lo, mass)
    owners = np.repeat(np.arange(n), counts)
    seq = np.array([np.bincount(owners, wj, n) for wj in w])
    ends = np.cumsum(counts)
    err_got = err_seq = 0.0
    for i in np.flatnonzero(counts):
        for j, wj in enumerate(w):
            seg = wj[ends[i] - counts[i]:ends[i]]
            exact, scale = math.fsum(seg), math.fsum(np.abs(seg))
            err_got = max(err_got, abs(got[j, i] - exact) / scale)
            err_seq = max(err_seq, abs(seq[j, i] - exact) / scale)
    return err_got, err_seq


def test_sampler_sums_at_least_as_accurate_as_running_sums():
    counts_rng = rngstreams.stream(3, "test-counts")
    eps = np.pi / 16
    err_got, err_seq = sum_errors(
        counts_rng.poisson(400.0, 512), GrazingKernel(eps=eps, **GRAZING),
        eps / 64.0, eps)
    # measured 8.7e-17 against 1.7e-15 for the running sums (the s1 sums
    # are rounded once)
    assert err_got <= err_seq and err_got < 1.5e-16
    # below 8 terms numpy sums a segment one term after another, so on
    # sparse counts the two orders tie in law and either may come out
    # ahead: measured 2.22e-16 against 2.88e-16
    err_got, _ = sum_errors(counts_rng.poisson(2.0, 2000),
                            CoulombKernel(eps=0.01), 0.01,
                            1.0 / math.log(100.0))
    assert err_got < 4e-16


def test_sampler_s1_matches_mpmath_at_grazing_angles():
    # one draw per particle, so each s1 is a single 1 - cos(theta) term;
    # 1 - np.cos(theta) loses up to 1.1e-11 of it to cancellation here
    import mpmath as mp
    eps = np.pi / 16
    kernel = GrazingKernel(eps=eps, **GRAZING)
    mass = float(kernel.tail.H(eps / 64.0))
    n = 2000
    stream = rngstreams.stream(5, "slab-jump", 0)
    s1 = coupling._angle_sums(stream, np.ones(n, dtype=np.int64), kernel,
                              0.0, mass, n)[0]
    # the draws' z words, and their angles as the sampler maps them
    u = rngstreams.stream(5, "slab-jump", 0).random((n, 2))[:, 0]
    theta = kernel.tail.angles(u, 0.0, mass)[0]
    assert theta.min() < 1.1 * eps / 64.0
    with mp.workdps(40):
        exact = np.array([float(1 - mp.cos(mp.mpf(t))) for t in theta])
    # measured 3.0e-16 with 2 sin^2(theta/2)
    assert np.max(np.abs(s1 - exact) / exact) < 1e-15

    # Coulomb eps = 0.01 over the criterion-12 window [eps, eta], from the
    # support edge up: each term is 2 sin^2(theta/2) = 2/q, q = z/k_c + 2
    kernel = CoulombKernel(eps=0.01)
    z_lo = float(kernel.tail.H(1.0 / math.log(100.0)))
    mass = kernel.tail.z_max - z_lo
    s1 = coupling._angle_sums(rngstreams.stream(5, "slab-jump", 0),
                              np.ones(n, dtype=np.int64), kernel, z_lo, mass,
                              n)[0]
    u = rngstreams.stream(5, "slab-jump", 0).random((n, 2))[:, 0]
    assert kernel.tail.angles(u, z_lo, mass)[0].min() < 1.001 * kernel.eps
    with mp.workdps(40):
        k_c = mp.mpf(kernel.k_c)
        exact = np.array([float(2 / ((z_lo + mass * mp.mpf(ui)) / k_c + 2))
                          for ui in u])
    # measured 5.9e-16 from the closed-form half-angle (6.4e-16 through
    # np.sin(0.5 * theta))
    assert np.max(np.abs(s1 - exact) / exact) < 1e-15
