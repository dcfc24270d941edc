"""Boltzmann stepper: rate law, conservation, truncation sensitivity."""

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, pdist

from grazekit import boltzmann, geometry, rngstreams
from grazekit.boltzmann import BoltzmannConfig, run, step
from grazekit.coupling import CouplingPlan, build_subdivision, default_h
from grazekit.geometry import deviate, jump_c, row_norm
from grazekit.errors import ParameterError, StabilityError
from grazekit.kernels import (CoulombKernel, GrazingKernel, SoftKernel,
                              r_eta, residual_k)
from grazekit.particles import ParticleCloud, draw_companions, sample_initial

GAUSS = {"name": "isotropic-gaussian", "sigma2": 1.0}


def pair_cloud(r):
    v = np.array([[0.5 * r, 0.0, 0.0], [-0.5 * r, 0.0, 0.0]])
    return ParticleCloud(velocities=v)


@pytest.mark.slow
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


@pytest.mark.slow
def test_nanbu_m2_loss_matches_compensator():
    # jumps above theta_min keep m2 in expectation; the drift that stands in
    # for the jumps below it drops their variance, so m2 falls at the rate
    # k_res <Phi r^2>, whatever dt is.  Phi(r) = r^gamma scales that rate
    # as m2^(1 + gamma/2), which integrates to the prediction
    # (1 + (gamma/2) L)^(-2/gamma) - 1 with L = k_res <Phi r^2> T / m2 over
    # the initial pairs: here L = 0.1041, a loss of 10.01 %
    kern = GrazingKernel(gamma=-0.5, nu=0.6, eps=np.pi / 2)
    theta_min, T = kern.eps / 4.0, 0.3
    c0 = sample_initial(GAUSS, 1024, rngstreams.stream(9, "init-m2"))
    r = pdist(c0.velocities)
    v_floor = 1e-3 * np.sqrt(c0.m2())
    L = residual_k(kern, theta_min) * \
        np.mean(kern.phi(np.maximum(r, v_floor)) * r ** 2) * T / c0.m2()
    g = kern.gamma
    predicted = (1.0 + 0.5 * g * L) ** (-2.0 / g) - 1.0
    loss = np.empty(50)
    for k, s in enumerate(range(1000, 1050)):
        cfg = BoltzmannConfig(kernel=kern, n=1024, dt=0.02, T=T,
                              theta_min=theta_min, update_mode="nanbu",
                              seed=s)
        loss[k] = run(cfg, c0, schedule=[T]).clouds[-1].m2() / c0.m2() - 1.0
    # measured -10.12 +- 0.24 %; zero lies about 43 stderr away
    se = loss.std(ddof=1) / np.sqrt(loss.size)
    assert abs(loss.mean() - predicted) <= 3.0 * se


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
    # measured: diff 0.256, band 1.46
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


def test_coulomb_refuses_theta_min():
    # the angular support already starts at eps, so a theta_min would
    # change nothing: both jump-process configs refuse it
    ck = CoulombKernel(eps=0.2)
    with pytest.raises(ParameterError, match="'theta_min'"):
        BoltzmannConfig(kernel=ck, n=64, dt=0.01, T=0.05, theta_min=0.5)
    sub = build_subdivision(default_h, 0.5, 1)
    with pytest.raises(ParameterError, match="'theta_min'"):
        CouplingPlan(kernel=ck, seed=0, subdivision=sub, theta_min=0.5)
    CouplingPlan(kernel=ck, seed=0, subdivision=sub)


def test_config_validation():
    kern = SoftKernel(gamma=-0.5, nu=0.6)
    good = dict(kernel=kern, n=16, dt=0.01, T=0.1)
    BoltzmannConfig(**good)
    for bad in (dict(good, n=1), dict(good, dt=0.0), dict(good, T=-1.0),
                dict(good, theta_min=0.0), dict(good, theta_min=4.0),
                dict(good, v_floor=-1.0), dict(good, update_mode="euler"),
                dict(good, drift_subsample=0), dict(good, rate_cap=0.0),
                dict(good, kernel="coulomb"),
                # symmetric mode applies no drift, so it reads no subsample
                dict(good, update_mode="symmetric", drift_subsample=64)):
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
    assert a.sum() == pytest.approx(6.74704089715885, rel=1e-12)


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


def _reference_step_nanbu(X0, kernel, theta_eff, v_floor, dt, drift_sub, rng):
    # the per-owner clock loop in row form, kept as the column form's
    # oracle; it shares the production nearest-neighbour bound
    B = boltzmann
    n = X0.shape[0]
    X = X0.copy()
    H_max = kernel.tail.H(theta_eff)
    rate = 2.0 * np.pi * H_max * dt
    tree = cKDTree(X0)
    d_q = B._nn_bound(tree, X0, np.arange(n))
    d = d_q.copy()
    M = B._phi_floored(kernel, d, v_floor)
    clock = rng.standard_exponential(n) / (rate * M)
    events = 0
    owners = np.where(clock < 1.0)[0]
    while owners.size:
        comp = draw_companions(rng, owners, n)
        W = X0[comp]
        V = X[owners]
        r = np.linalg.norm(V - W, axis=1)
        accept = rng.random(owners.size) * M[owners] <= \
            B._phi_floored(kernel, r, v_floor)
        if np.any(accept):
            idx = owners[accept]
            V, W = V[accept], W[accept]
            # the angle's jump coordinate is uniform on [0, H(theta_min)]:
            # the kernel maps the uniforms with that window
            u = rng.random(idx.size)
            phi_ang = rng.uniform(0.0, 2.0 * np.pi, idx.size)
            D = geometry._cols(V - W)
            a = geometry._rows(geometry._jump_c(
                kernel, *geometry._safe(D, geometry._norm(D)), phi_ang,
                u, 0.0, H_max))
            X[idx] = V + a
            events += int(idx.size)
            d_new = d[idx] - np.linalg.norm(a, axis=1)
            stale = d_new < 0.5 * d_q[idx]
            if np.any(stale):
                s = idx[stale]
                d_q[s] = d_new[stale] = B._nn_bound(tree, X[s], s)
            d[idx] = d_new
            M[idx] = B._phi_floored(kernel, d_new, v_floor)
        clock[owners] += rng.standard_exponential(owners.size) / \
            (rate * M[owners])
        owners = owners[clock[owners] < 1.0]
    _compensate(X, X0, kernel, theta_eff, v_floor, dt, drift_sub, rng)
    return X, events


def _global_cap_step_nanbu(X0, kernel, theta_eff, v_floor, dt, drift_sub,
                           rng):
    # the row-wise loop before per-owner bounds: Poisson(lam) candidates per
    # owner at the global cap lam = 2 pi H(theta_min) Phi(v_floor) dt, kept
    # as the law reference of the clock loop
    B = boltzmann
    n = X0.shape[0]
    X = X0.copy()
    phi_cap = B._phi_cap(kernel, v_floor)
    H_max = kernel.tail.H(theta_eff)
    counts = rng.poisson(2.0 * np.pi * H_max * phi_cap * dt, size=n)
    events = 0
    for rnd in range(int(counts.max())):
        owners = np.where(counts > rnd)[0]
        comp = draw_companions(rng, owners, n)
        W = X0[comp]
        V = X[owners]
        r = np.linalg.norm(V - W, axis=1)
        accept = rng.random(owners.size) * phi_cap <= \
            B._phi_floored(kernel, r, v_floor)
        if not np.any(accept):
            continue
        idx = owners[accept]
        V, W, r = V[accept], W[accept], r[accept]
        with np.errstate(over="ignore", invalid="ignore"):
            rs = np.where(r > 0.0, r, 1.0)
            z = rng.random(idx.size) * kernel.phi(rs) * H_max
            z = np.where(r > 0.0, z, 0.0)
            phi_ang = rng.uniform(0.0, 2.0 * np.pi, idx.size)
            X[idx] = V + jump_c(kernel, V, W, z, phi_ang)
        events += int(idx.size)
    _compensate(X, X0, kernel, theta_eff, v_floor, dt, drift_sub, rng)
    return X, events


def _compensate(X, X0, kernel, theta_eff, v_floor, dt, drift_sub, rng):
    # row-wise analytic drift of the compensated small-angle tail, in place
    B = boltzmann
    n = X0.shape[0]
    k_res = residual_k(kernel, theta_eff)
    if k_res > 0.0:
        m = min(drift_sub, n - 1)
        J = rng.integers(0, n - 1, size=(n, m))
        J[J >= np.arange(n)[:, None]] += 1
        Z = X[:, None, :] - X0[J]
        r = np.linalg.norm(Z, axis=2)
        phi_fl = B._phi_floored(kernel, r, v_floor)
        X -= k_res * dt * np.mean(phi_fl[:, :, None] * Z, axis=1)


def _duplicated_cloud(n, seed):
    # every velocity eight times, so candidates at r = 0 occur (and are
    # always accepted: the floored rate is the cap there)
    base = sample_initial(GAUSS, n // 8, rngstreams.stream(seed, "init-dup"))
    return np.repeat(base.velocities, 8, axis=0)


@pytest.mark.parametrize("kernel, theta_eff, v_floor, dt, dup", [
    pytest.param(GrazingKernel(-0.5, 0.6, np.pi / 8), np.pi / 512, 1e-3,
                 0.02, False, id="grazing"),
    pytest.param(SoftKernel(-1.0, 0.6), np.pi / 256, 0.1, 0.2, False,
                 id="soft"),
    pytest.param(CoulombKernel(0.1, h_eps=0.5), 0.1, 0.0, 0.2, False,
                 id="coulomb"),
    pytest.param(GrazingKernel(-0.5, 0.6, np.pi / 8), np.pi / 512, 0.5,
                 0.02, True, id="grazing-duplicates"),
    pytest.param(SoftKernel(-0.5, 0.6), np.pi / 256, 0.5, 0.01, True,
                 id="soft-small-lambda"),
])
def test_nanbu_step_matches_row_oracle(kernel, theta_eff, v_floor, dt, dup):
    # the column-form clock loop must give the same bytes and event count
    # as the row-wise loop, on both the all-owners rounds and the tail
    # rounds
    n = 48
    if dup:
        X0 = _duplicated_cloud(n, 3)
    else:
        X0 = sample_initial(GAUSS, n, rngstreams.stream(4, "init-or")).velocities
    # large rates: every owner starts with a candidate, then tail rounds;
    # small rates: tail rounds only
    d = boltzmann._nn_bound(cKDTree(X0), X0, np.arange(n))
    lam = 2.0 * np.pi * kernel.tail.H(theta_eff) * dt * \
        boltzmann._phi_floored(kernel, d, v_floor)
    first = rngstreams.stream(5, "oracle").standard_exponential(n) / lam
    assert (first < 1.0).all() == (lam.min() > 1.0)
    assert (first < 1.0).any()
    X_new, ev_new = boltzmann._step_nanbu(
        X0, kernel, theta_eff, v_floor, dt, 16, rngstreams.stream(5, "oracle"))
    X_ref, ev_ref = _reference_step_nanbu(
        X0, kernel, theta_eff, v_floor, dt, 16, rngstreams.stream(5, "oracle"))
    assert ev_new == ev_ref > 0
    assert X_new.flags.c_contiguous and X_new.shape == X_ref.shape
    assert X_new.tobytes() == X_ref.tobytes()


@pytest.mark.slow
def test_nanbu_law_matches_global_cap_sampler():
    # per-owner majorants change the draws, not the law: one step from a
    # fixed cloud, mean events and mean m2 of the clock loop and of the
    # global-cap loop agree within 3 combined standard errors (n = 32, so
    # the per-owner bounds are far from exact and thinning does work)
    kern = GrazingKernel(-0.5, 0.6, np.pi / 8)
    theta_eff, v_floor, dt = kern.eps / 64.0, 0.05, 0.01
    X0 = sample_initial(GAUSS, 32, rngstreams.stream(8, "init-law")).velocities
    stats = {}
    for name, sampler in (("clock", boltzmann._step_nanbu),
                          ("global-cap", _global_cap_step_nanbu)):
        out = np.empty((300, 2))
        for s in range(300):
            X, ev = sampler(X0, kern, theta_eff, v_floor, dt, 16,
                            rngstreams.stream(s, "law-" + name))
            out[s] = ev, np.mean(np.sum(X * X, axis=1))
        stats[name] = out.mean(axis=0), out.std(axis=0, ddof=1) / np.sqrt(300)
    (m_a, se_a), (m_b, se_b) = stats["clock"], stats["global-cap"]
    assert np.all(np.abs(m_a - m_b) <= 3.0 * np.hypot(se_a, se_b))


def _assert_majorant(kernel, W0, V, owners, M, v_floor):
    # brute force over every non-self step-start row
    r = cdist(V, W0)
    r[np.arange(owners.size), owners] = np.inf
    assert np.all(boltzmann._phi_floored(kernel, r, v_floor) <= M[:, None])


@pytest.mark.parametrize("kernel, v_floor, X0", [
    pytest.param(SoftKernel(-1.0, 0.6), 0.05,
                 sample_initial(GAUSS, 48, rngstreams.stream(6, "init-mj"))
                 .velocities, id="random"),
    pytest.param(GrazingKernel(-0.5, 0.6, np.pi / 8), 0.05,
                 _duplicated_cloud(48, 3), id="duplicates"),
    pytest.param(SoftKernel(-2.5, 0.6), 0.01, pair_cloud(0.3).velocities,
                 id="pair"),
    pytest.param(CoulombKernel(0.1, h_eps=0.5), 0.0, _duplicated_cloud(48, 4),
                 id="coulomb-duplicates"),
])
def test_nanbu_majorant_bounds_every_companion(kernel, v_floor, X0):
    B = boltzmann
    n = X0.shape[0]
    everyone = np.arange(n)
    tree = cKDTree(X0)
    d_q = B._nn_bound(tree, X0, everyone)
    d = d_q.copy()
    M = B._phi_floored(kernel, d, v_floor)
    _assert_majorant(kernel, X0, X0, everyone, M, v_floor)
    # an owner with a coincident companion gets the cap
    coincident = (cdist(X0, X0) + np.diag(np.full(n, np.inf))).min(axis=1) == 0
    assert np.all(M[coincident] == B._phi_cap(kernel, v_floor))
    # jumps of every size: small ones keep the triangle bound d - |a|,
    # large ones push it below half of the last query and query afresh
    X = X0.T.copy()
    rng = rngstreams.stream(6, "majorant")
    kept = queried = 0
    for _ in range(40):
        idx = np.flatnonzero(rng.random(n) < 0.5)
        if idx.size == 0:
            continue
        V = X.take(idx, 1).T
        W = X0[draw_companions(rng, idx, n)]
        theta = np.pi * 10.0 ** rng.uniform(-4.0, 0.0, idx.size)
        a = deviate(V, W, theta, rng.uniform(0.0, 2.0 * np.pi, idx.size))[2]
        X[:, idx] += a.T
        before = d_q[idx].copy()
        d_new = B._moved_bound(tree, X, idx, row_norm(a), d, d_q)
        fresh = d_q[idx] != before
        queried += int(fresh.sum())
        kept += int((~fresh & (d_new < before)).sum())
        M[idx] = B._phi_floored(kernel, d_new, v_floor)
        _assert_majorant(kernel, X0, X.take(idx, 1).T, idx, M[idx], v_floor)
    assert kept > 0 and queried > 0
