"""Boltzmann stepper: rate law, conservation, truncation sensitivity."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from grazekit import rngstreams
from grazekit.boltzmann import BoltzmannConfig, run, step
from grazekit.errors import ParameterError, StabilityError
from grazekit.kernels import CoulombKernel, GrazingKernel, SoftKernel, r_eta
from grazekit.particles import ParticleCloud, sample_initial

GAUSS = {"name": "isotropic-gaussian", "sigma2": 1.0}


def pair_cloud(r):
    v = np.array([[0.5 * r, 0.0, 0.0], [-0.5 * r, 0.0, 0.0]])
    return ParticleCloud(velocities=v)


@pytest.mark.parametrize("mode,scale,r0", [
    pytest.param("symmetric", 1.0, 2.0, id="symmetric-1.0"),
    pytest.param("nanbu", 2.0, 2.0, id="nanbu-2.0"),
    pytest.param("symmetric", 1.0, 0.2, id="symmetric-1.0-below-floor"),
])
def test_single_pair_rate_law(mode, scale, r0):
    # mean accepted events over 10^4 one-step trials must sit within 3
    # standard errors of 2*pi*H(theta_min)*Phi(max(r, v_floor))*dt; in nanbu
    # mode both particles own independent candidate streams, hence the
    # factor 2
    kern = GrazingKernel(gamma=-0.5, nu=0.6, eps=np.pi / 4)
    theta_min = kern.eps / 8.0
    v_floor, dt = 0.5, 0.05
    lam_pair = 2.0 * np.pi * float(kern.tail.H(theta_min)) * \
        float(kern.phi(max(r0, v_floor))) * dt
    cfg = BoltzmannConfig(kernel=kern, n=2, dt=dt, T=dt, theta_min=theta_min,
                          v_floor=v_floor, update_mode=mode)
    trials = 10_000
    counts = np.empty(trials)
    for k in range(trials):
        rng = rngstreams.stream(777, f"pair-rate-{mode}", k)
        counts[k] = step(pair_cloud(r0), cfg, rng).events
    mean = counts.mean() / scale
    se = counts.std(ddof=1) / scale / np.sqrt(trials)
    assert abs(mean - lam_pair) <= 3.0 * se


def test_symmetric_conserves_momentum_and_energy():
    kern = GrazingKernel(gamma=-0.5, nu=0.6, eps=np.pi / 2)
    cloud0 = sample_initial(GAUSS, 256, rngstreams.stream(5, "init-b"))
    cfg = BoltzmannConfig(kernel=kern, n=256, dt=0.02, T=0.2,
                          update_mode="symmetric", seed=11)
    end = run(cfg, cloud0, schedule=[0.2]).clouds[-1]
    dp = np.abs(end.velocities.sum(axis=0) - cloud0.velocities.sum(axis=0))
    assert dp.max() < 1e-12 * 256
    e0 = np.sum(cloud0.velocities ** 2)
    assert abs(np.sum(end.velocities ** 2) - e0) <= 1e-12 * e0
    assert end.events > 0


def test_nanbu_mean_momentum_unbiased():
    # momentum is conserved in expectation only (one-sided jumps); the
    # 50-run mean drift must stay within 3 standard errors of zero
    kern = GrazingKernel(gamma=-0.5, nu=0.6, eps=np.pi / 2)
    drifts = np.empty((50, 3))
    for s in range(50):
        c0 = sample_initial(GAUSS, 128, rngstreams.stream(200, "init-nb", s))
        cfg = BoltzmannConfig(kernel=kern, n=128, dt=0.02, T=0.2,
                              update_mode="nanbu", seed=3000 + s)
        end = run(cfg, c0, schedule=[0.2]).clouds[-1]
        drifts[s] = end.velocities.sum(axis=0) - c0.velocities.sum(axis=0)
    pulls = drifts.mean(axis=0) / (drifts.std(axis=0, ddof=1) / np.sqrt(50))
    assert np.all(np.abs(pulls) <= 3.0)


def test_nanbu_m2_drift_shrinks_with_dt():
    kern = GrazingKernel(gamma=-0.5, nu=0.6, eps=np.pi / 2)
    c0 = sample_initial(GAUSS, 1024, rngstreams.stream(9, "init-m2"))
    drift = {}
    for dtv in (0.02, 0.01):
        cfg = BoltzmannConfig(kernel=kern, n=1024, dt=dtv, T=0.3,
                              update_mode="nanbu", seed=21)
        m2T = run(cfg, c0, schedule=[0.3]).clouds[-1].m2()
        drift[dtv] = abs(m2T / c0.m2() - 1.0)
    # measured 2.63% at dt=0.02 and 1.68% at dt=0.01
    assert drift[0.01] < 0.05
    assert drift[0.01] < drift[0.02]


def test_theta_min_shrink_within_compensated_tail_band():
    # moving the truncation angle changes snapshot m2 by less than
    # (pi/4) int_0^theta_min theta^2 beta * sup_pairs Phi|v-w|^2 * T
    soft = SoftKernel(gamma=-0.5, nu=0.6)
    N, T = 1024, 0.2
    c0 = sample_initial(GAUSS, N, rngstreams.stream(31, "init-th"))
    vf = 1e-3 * np.sqrt(c0.m2())
    means = {}
    for th in (np.pi / 2, np.pi / 4):
        vals = []
        for s in range(3):
            cfg = BoltzmannConfig(kernel=soft, n=N, dt=0.02, T=T,
                                  theta_min=th, v_floor=vf,
                                  update_mode="nanbu", seed=500 + s)
            vals.append(run(cfg, c0, schedule=[T]).clouds[-1].m2())
        means[th] = np.mean(vals)
    r = cdist(c0.velocities, c0.velocities)
    sup = float(np.max(soft.phi(np.maximum(r, vf)) * r ** 2))
    band = r_eta(soft, np.pi / 2) * sup * T
    diff = abs(means[np.pi / 2] - means[np.pi / 4])
    # measured: diff 0.307, band 1.49
    assert diff < band


def test_coulomb_rate_bound_and_cap():
    ck = CoulombKernel(eps=0.1)
    c0 = sample_initial(GAUSS, 64, rngstreams.stream(2, "init-c"))
    lam = 2.0 * np.pi * ck.tail.z_max * float(ck.phi(0.0))
    cfg = BoltzmannConfig(kernel=ck, n=64, dt=0.005, T=0.005, v_floor=0.0,
                          seed=1)
    assert lam * 0.005 < 1e4
    assert run(cfg, c0, schedule=[0.005]).clouds[-1].events >= 0
    cfg = BoltzmannConfig(kernel=ck, n=64, dt=0.1, T=0.1, v_floor=0.0, seed=1)
    assert lam * 0.1 > 1e4
    with pytest.raises(StabilityError):
        run(cfg, c0, schedule=[0.1])


def test_coulomb_ignores_theta_min():
    # angular support already starts at eps, so theta_min has no effect
    ck = CoulombKernel(eps=0.2)
    c0 = sample_initial(GAUSS, 64, rngstreams.stream(3, "init-ci"))
    outs = []
    for th in (None, 0.5):
        cfg = BoltzmannConfig(kernel=ck, n=64, dt=0.01, T=0.05, theta_min=th,
                              v_floor=0.0, seed=9)
        outs.append(run(cfg, c0, schedule=[0.05]).clouds[-1].velocities)
    assert np.array_equal(outs[0], outs[1])


def test_config_validation():
    kern = SoftKernel(gamma=-0.5, nu=0.6)
    good = dict(kernel=kern, n=16, dt=0.01, T=0.1)
    BoltzmannConfig(**good)
    for bad in (dict(good, n=1), dict(good, dt=0.0), dict(good, T=-1.0),
                dict(good, theta_min=0.0), dict(good, theta_min=4.0),
                dict(good, v_floor=-1.0), dict(good, update_mode="euler"),
                dict(good, drift_subsample=0), dict(good, rate_cap=0.0),
                dict(good, kernel="coulomb")):
        with pytest.raises(ParameterError):
            BoltzmannConfig(**bad)


def test_unbounded_rate_guards():
    soft = SoftKernel(gamma=-0.5, nu=0.6)
    cloud = ParticleCloud(velocities=np.ones((16, 3)))
    cfg = BoltzmannConfig(kernel=soft, n=16, dt=0.01, T=0.01, v_floor=0.0)
    with pytest.raises(ParameterError):
        step(cloud, cfg, rngstreams.stream(0, "g"))
    ck0 = CoulombKernel(eps=0.1, h_eps=0.0)
    cfg = BoltzmannConfig(kernel=ck0, n=16, dt=0.01, T=0.01, v_floor=0.0)
    with pytest.raises(ParameterError):
        step(cloud, cfg, rngstreams.stream(0, "g"))


def test_cloud_size_mismatch():
    kern = GrazingKernel(gamma=-0.5, nu=0.6, eps=np.pi / 2)
    cfg = BoltzmannConfig(kernel=kern, n=32, dt=0.01, T=0.1)
    cloud = ParticleCloud(velocities=np.ones((16, 3)))
    with pytest.raises(ParameterError):
        step(cloud, cfg, rngstreams.stream(0, "g"))


@pytest.mark.parametrize("mode", ["nanbu", "symmetric"])
def test_equal_velocities_are_inert(mode):
    # coincident pairs have zero relative velocity: the floored rate still
    # fires candidates, but every jump and drift contribution vanishes
    same = ParticleCloud(velocities=np.tile([1.0, -2.0, 0.5], (32, 1)))
    kern = GrazingKernel(gamma=-0.5, nu=0.6, eps=np.pi / 2)
    cfg = BoltzmannConfig(kernel=kern, n=32, dt=0.05, T=0.05, v_floor=0.3,
                          update_mode=mode, seed=4)
    out = step(same.copy(), cfg, rngstreams.stream(4, "inert"))
    assert np.array_equal(out.velocities, same.velocities)


def test_run_deterministic_and_seed_sensitive():
    kern = GrazingKernel(gamma=-0.5, nu=0.6, eps=np.pi / 2)
    c0 = sample_initial(GAUSS, 64, rngstreams.stream(1, "init-d"))
    cfg = BoltzmannConfig(kernel=kern, n=64, dt=0.02, T=0.1, seed=77)
    a = run(cfg, c0, schedule=[0.1]).clouds[-1].velocities
    b = run(cfg, c0, schedule=[0.1]).clouds[-1].velocities
    assert np.array_equal(a, b)
    cfg2 = BoltzmannConfig(kernel=kern, n=64, dt=0.02, T=0.1, seed=78)
    c = run(cfg2, c0, schedule=[0.1]).clouds[-1].velocities
    assert not np.array_equal(a, c)
    assert a.sum() == pytest.approx(-35.7229247616453, rel=1e-12)


def test_run_schedule_and_diagnostics():
    kern = GrazingKernel(gamma=-0.5, nu=0.6, eps=np.pi / 2)
    c0 = sample_initial(GAUSS, 64, rngstreams.stream(1, "init-s"))
    cfg = BoltzmannConfig(kernel=kern, n=64, dt=0.02, T=0.1, seed=5)
    traj = run(cfg, c0, schedule=[0.0, 0.04, 0.1])
    assert [d["t"] for d in traj.diagnostics] == pytest.approx([0.0, 0.04, 0.1])
    events = [d["events"] for d in traj.diagnostics]
    assert events == sorted(events)
    for key in ("t", "m2", "m4", "entropy", "max_speed", "events"):
        assert key in traj.diagnostics[0]
    cfg0 = BoltzmannConfig(kernel=kern, n=64, dt=0.02, T=0.0, seed=5)
    traj0 = run(cfg0, c0)
    assert len(traj0.clouds) == 1
    assert np.array_equal(traj0.clouds[0].velocities, c0.velocities)
    with pytest.raises(ParameterError):
        run(cfg, c0, schedule=[0.2])
