"""Tests for the Landau particle stepper and its coefficient identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grazekit import rngstreams
from grazekit.errors import (DegenerateInputError, InstabilityError,
                             ParameterError)
from grazekit.geometry import row_norm
from grazekit.landau import (LandauCoefficients, LandauConfig,
                             _scalar_factor, _step_conservative, b_eval, run,
                             sigma_eval, step)
from grazekit.particles import ParticleCloud, sample_initial


def l_matrix(gamma, z):
    r = np.linalg.norm(z)
    return r ** gamma * (r * r * np.eye(3) - np.outer(z, z))


def test_sigma_squares_to_diffusion_matrix():
    rng = np.random.default_rng(0)
    for gamma in (-1.0, -2.5):
        for _ in range(500):
            z = rng.normal(size=3)
            s = sigma_eval(gamma, z)
            l = l_matrix(gamma, z)
            assert np.max(np.abs(s @ s.T - l)) <= 1e-12 * np.max(np.abs(l))


def test_sigma_batch_identity_large():
    # the vectorized coefficient path, 1e5 points (measured 8.9e-16 worst)
    rng = np.random.default_rng(1)
    Z = rng.normal(size=(100_000, 3))
    co = LandauCoefficients(-1.0, 0.0)
    cols = [co.terms(Z, np.tile(e, (Z.shape[0], 1)))[1]
            for e in np.eye(3)]
    sig = np.stack(cols, axis=-1)
    r = np.linalg.norm(Z, axis=1)
    l = r[:, None, None] ** -1.0 * ((r ** 2)[:, None, None] * np.eye(3)[None]
                                    - Z[:, :, None] * Z[:, None, :])
    ssT = sig @ np.transpose(sig, (0, 2, 1))
    scale = np.abs(l).max(axis=(1, 2))
    assert np.max(np.abs(ssT - l).max(axis=(1, 2)) / scale) < 1e-12
    # sigma^T z = 0 identically
    stz = np.einsum("nij,ni->nj", sig, Z)
    assert np.abs(stz).max() < 1e-12


def test_sigma_spot_value_and_oddness():
    s = sigma_eval(-1.0, np.array([1.0, 0, 0]))
    np.testing.assert_allclose(s @ s.T, np.diag([0.0, 1.0, 1.0]), atol=1e-14)
    z = np.array([0.3, -1.2, 0.7])
    np.testing.assert_array_equal(sigma_eval(-1.5, -z), -sigma_eval(-1.5, z))


def _noise_by_stack(coeffs, Z, dB, rf):
    """sigma_delta(Z) @ dB from six component views and a stack, the
    reference LandauCoefficients._noise must match byte for byte."""
    pref = _scalar_factor(rf, coeffs.gamma / 2.0)
    z1, z2, z3 = Z[..., 0], Z[..., 1], Z[..., 2]
    b1, b2, b3 = dB[..., 0], dB[..., 1], dB[..., 2]
    out = np.stack([z2 * b1 - z3 * b2,
                    -z1 * b1 + z3 * b3,
                    z1 * b2 - z2 * b3], axis=-1)
    return pref[..., None] * out


# exact small values (zeros of both signs among them) and magnitudes over
# 60 decades, so no product or power overflows
_COMPONENT = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -0.5]),
    st.builds(lambda m, neg: -m if neg else m,
              st.floats(min_value=1e-30, max_value=1e30), st.booleans()))


@st.composite
def _separations(draw):
    shape = draw(st.sampled_from([(3,), (1, 3), (7, 3), (5, 4, 3)]))
    size = math.prod(shape)
    Z, dB = (np.array(draw(st.lists(_COMPONENT, min_size=size,
                                    max_size=size))).reshape(shape)
             for _ in range(2))
    return Z, dB


@settings(max_examples=300)
@given(_separations(), st.sampled_from([-3.0, -1.3, -0.5]),
       st.sampled_from([0.0, 1e-3, 1.0]))
def test_noise_matches_stack_formula_bytes(sep, gamma, reg_delta):
    Z, dB = sep
    coeffs = LandauCoefficients(gamma, reg_delta)
    rf = np.maximum(row_norm(Z), reg_delta)
    got, want = coeffs._noise(Z, dB, rf), _noise_by_stack(coeffs, Z, dB, rf)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if Z.ndim == 1 and row_norm(Z) > 0.0:
        sigma = sigma_eval(gamma, Z)
        ref = _noise_by_stack(LandauCoefficients(gamma), Z, np.eye(3),
                              row_norm(Z)).T
        assert sigma.tobytes() == ref.tobytes()


def test_b_spot_value_and_oddness():
    np.testing.assert_allclose(b_eval(-2.0, np.array([1.0, 0, 0])),
                               [-2.0, 0.0, 0.0], atol=0)
    z = np.array([0.5, 2.0, -0.25])
    np.testing.assert_array_equal(b_eval(-0.7, -z), -b_eval(-0.7, z))


def test_b_matches_divergence_of_l():
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = rng.normal(size=3)
        gamma = rng.uniform(-2.9, -0.1)
        h = 1e-6 * np.linalg.norm(z)
        div = np.zeros(3)
        for i in range(3):
            for j in range(3):
                zp, zm = z.copy(), z.copy()
                zp[j] += h
                zm[j] -= h
                div[i] += (l_matrix(gamma, zp)[i, j]
                           - l_matrix(gamma, zm)[i, j]) / (2 * h)
        b = b_eval(gamma, z)
        assert np.max(np.abs(div - b)) <= 1e-6 * np.max(np.abs(b))


def test_degenerate_and_guards():
    with pytest.raises(DegenerateInputError):
        sigma_eval(-1.0, np.zeros(3))
    with pytest.raises(DegenerateInputError):
        b_eval(-1.0, np.zeros(3))
    with pytest.raises(ParameterError):
        sigma_eval(0.5, np.ones(3))
    with pytest.raises(ParameterError):
        b_eval(-3.5, np.ones(3))
    with pytest.raises(ParameterError):
        LandauCoefficients(-1.0, -0.1)


def test_positive_semidefinite_l():
    rng = np.random.default_rng(3)
    for _ in range(200):
        z = rng.normal(size=3)
        xi = rng.normal(size=3)
        l = l_matrix(-1.3, z)
        assert xi @ l @ xi >= -1e-12
        assert np.max(np.abs(l @ z)) <= 1e-12 * np.max(np.abs(l))


def test_coefficients_floor_and_coincidence():
    co = LandauCoefficients(-2.0, reg_delta=0.5)
    z = np.array([[0.1, 0.0, 0.0]])  # below the floor
    drift, _ = co.terms(z, np.ones((1, 3)))
    np.testing.assert_allclose(drift, -2.0 * 0.5 ** -2.0 * z, rtol=1e-14)
    zero = np.zeros((1, 3))
    drift, noise = co.terms(zero, np.ones((1, 3)))
    np.testing.assert_array_equal(drift, zero)
    np.testing.assert_array_equal(noise, zero)


def test_config_validation():
    with pytest.raises(ParameterError):
        LandauConfig(gamma=-1.0, n=1, dt=0.01, T=1.0)
    with pytest.raises(ParameterError):
        LandauConfig(gamma=-1.0, n=8, dt=0.0, T=1.0)
    for dt, T in ((np.inf, 1.0), (np.nan, 1.0), (0.01, np.inf),
                  (0.01, np.nan)):
        with pytest.raises(ParameterError, match="finite"):
            LandauConfig(gamma=-1.0, n=8, dt=dt, T=T)
    for pairing in ("magic", "full"):
        with pytest.raises(ParameterError, match="pairing"):
            LandauConfig(gamma=-1.0, n=8, dt=0.01, T=1.0, pairing=pairing)
    with pytest.raises(ParameterError):
        LandauConfig(gamma=-1.0, n=8, dt=0.01, T=1.0, m=0)


def test_conservative_momentum_per_step():
    cloud = sample_initial({"name": "isotropic-gaussian", "sigma2": 1.0}, 128,
                           np.random.default_rng(4), recenter_momentum=True)
    cfg = LandauConfig(gamma=-1.0, n=128, dt=0.01, T=0.1,
                       pairing="conservative", m=16)
    c = cloud
    for k in range(5):
        c = step(c, cfg, rngstreams.stream(5, "t", k))
        assert np.abs(c.momentum()).max() < 1e-12
    assert c.time == pytest.approx(0.05)
    assert c.events == 5 * 16 * 64


def scatter_step_conservative(X, coeffs, dt, m, rng):
    """The conservative step with one fancy-index scatter per term and sign,
    as it was before the gather accumulator."""
    n = X.shape[0]
    half = n // 2
    drift = np.zeros_like(X)
    noise = np.zeros_like(X)
    for _ in range(m):
        perm = rng.permutation(n)
        a, b = perm[:2 * half:2], perm[1:2 * half:2]
        Z = X.take(a, 0) - X.take(b, 0)
        dB = rng.normal(scale=np.sqrt(dt), size=(half, 3))
        db, ns = coeffs.terms(Z, dB)
        drift[a] += db
        drift[b] -= db
        noise[a] += ns
        noise[b] -= ns
    return X + (dt / m) * drift + noise / np.sqrt(m), m * half


@pytest.mark.parametrize("n", [2, 3, 64, 257])
@pytest.mark.parametrize("duplicates", [False, True])
def test_conservative_step_matches_scatter_loop(n, duplicates):
    X = sample_initial({"name": "isotropic-gaussian", "sigma2": 1.0}, n,
                       np.random.default_rng(n)).velocities
    if duplicates:  # coincident pairs give zero (and -0.0) increments
        X[1::2] = X[0:n - 1:2] if n % 2 else X[0::2]
    coeffs = LandauCoefficients(-1.0, 0.0 if duplicates else 0.05)
    ref_rng = rngstreams.stream(3, "landau-step", n)
    new_rng = rngstreams.stream(3, "landau-step", n)
    ref, ref_events = scatter_step_conservative(X, coeffs, 0.01, 7, ref_rng)
    new, new_events = _step_conservative(X, coeffs, 0.01, 7, new_rng)
    assert new.tobytes() == ref.tobytes() and new_events == ref_events
    assert str(new_rng.bit_generator.state) == str(ref_rng.bit_generator.state)


def test_same_velocity_pair_is_inert():
    cloud = ParticleCloud(np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]))
    cfg = LandauConfig(gamma=-1.0, n=2, dt=0.01, T=0.1,
                       pairing="conservative", m=4, reg_delta=0.1)
    out = step(cloud, cfg, np.random.default_rng(0))
    np.testing.assert_array_equal(out.velocities, cloud.velocities)
    assert out.time == pytest.approx(0.01)


def test_step_detects_instability():
    cloud = ParticleCloud(np.array([[1.5e308, 0.0, 0.0],
                                    [-1.5e308, 0.0, 0.0]]))
    cfg = LandauConfig(gamma=-0.5, n=2, dt=0.01, T=0.1,
                       pairing="conservative", m=1, reg_delta=1.0)
    with pytest.raises(InstabilityError) as e:
        step(cloud, cfg, np.random.default_rng(0))
    assert e.value.indices is not None


def test_step_checks_cloud_size():
    cloud = ParticleCloud(np.zeros((4, 3)) + np.arange(4)[:, None])
    cfg = LandauConfig(gamma=-1.0, n=8, dt=0.01, T=0.1)
    with pytest.raises(ParameterError):
        step(cloud, cfg, np.random.default_rng(0))


def test_run_zero_horizon_and_determinism():
    cloud = sample_initial({"name": "isotropic-gaussian", "sigma2": 1.0}, 64,
                           np.random.default_rng(6))
    cfg = LandauConfig(gamma=-1.0, n=64, dt=0.01, T=0.0, m=8)
    traj = run(cfg, cloud)
    assert len(traj.clouds) == 1
    np.testing.assert_array_equal(traj.clouds[0].velocities, cloud.velocities)

    cfg = LandauConfig(gamma=-1.0, n=64, dt=0.01, T=0.05, m=8, seed=42)
    t1 = run(cfg, cloud.copy())
    t2 = run(cfg, cloud.copy())
    np.testing.assert_array_equal(t1.clouds[-1].velocities,
                                  t2.clouds[-1].velocities)


def test_run_schedule_snapshots():
    cloud = sample_initial({"name": "isotropic-gaussian", "sigma2": 1.0}, 32,
                           np.random.default_rng(7))
    cfg = LandauConfig(gamma=-1.0, n=32, dt=0.01, T=0.2, m=8, seed=1)
    traj = run(cfg, cloud, schedule=[0.0, 0.1, 0.2])
    assert [round(c.time, 10) for c in traj.clouds] == [0.0, 0.1, 0.2]
    assert {"t", "m2", "m4", "entropy", "max_speed", "events"} <= set(
        traj.diagnostics[0])
    with pytest.raises(ParameterError):
        run(cfg, cloud, schedule=[0.5])
    with pytest.raises(ParameterError):
        run(cfg, cloud, schedule=[-0.1])


def test_run_conserves_energy_conservative():
    # reduced-scale version of the full-horizon invariant (the acceptance
    # suite runs N=4096, T=0.5; pilot drift there was 0.39% at dt=0.01)
    cloud = sample_initial({"name": "isotropic-gaussian", "sigma2": 1.0}, 512,
                           np.random.default_rng(8), recenter_momentum=True)
    cfg = LandauConfig(gamma=-1.0, n=512, dt=0.01, T=0.2,
                       pairing="conservative", seed=9)
    traj = run(cfg, cloud)
    final = traj.clouds[-1]
    assert np.abs(final.momentum()).max() < 1e-10
    assert abs(final.m2() - cloud.m2()) / cloud.m2() < 0.05


def test_mean_energy_over_runs_subsampled():
    # noise-mode energy balance holds in expectation: 50 independent runs,
    # mean m2 at each snapshot within 3 standard errors of the initial mean
    m2s = []
    for s in range(50):
        cloud = sample_initial({"name": "isotropic-gaussian", "sigma2": 1.0},
                               256, rngstreams.stream(100, "init", s))
        cfg = LandauConfig(gamma=-1.0, n=256, dt=0.01, T=0.2,
                           pairing="subsampled", m=32, seed=1000 + s)
        traj = run(cfg, cloud, schedule=[0.1, 0.2])
        m2s.append([cloud.m2()] + [d["m2"] for d in traj.diagnostics])
    m2s = np.array(m2s)
    base = m2s[:, 0].mean()
    for k in (1, 2):
        se = m2s[:, k].std(ddof=1) / np.sqrt(m2s.shape[0])
        assert abs(m2s[:, k].mean() - base) < 3 * se

