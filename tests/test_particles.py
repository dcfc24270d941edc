"""Tests for the particle cloud container and initial sampling."""

import math

import numpy as np
import pytest

from grazekit.errors import ParameterError
from grazekit.particles import ParticleCloud, recenter, sample_initial


def test_cloud_validation():
    with pytest.raises(ParameterError):
        ParticleCloud(np.zeros((1, 3)))  # N >= 2
    with pytest.raises(ParameterError):
        ParticleCloud(np.zeros((4, 2)))
    with pytest.raises(ParameterError):
        ParticleCloud(np.array([[0.0, 0, 0], [np.inf, 0, 0]]))
    c = ParticleCloud(np.ones((4, 3)))
    assert c.n == 4 and c.time == 0.0


def test_cloud_copy_is_deep():
    c = ParticleCloud(np.ones((4, 3)))
    c2 = c.copy()
    c2.velocities[0, 0] = 7.0
    assert c.velocities[0, 0] == 1.0


def test_cloud_moment_helpers():
    v = np.array([[1.0, 0, 0], [0, 2.0, 0], [0, 0, 0.5]])
    c = ParticleCloud(v)
    assert c.m2() == pytest.approx((1 + 4 + 0.25) / 3, rel=1e-15)
    assert c.m4() == pytest.approx((1 + 16 + 0.0625) / 3, rel=1e-15)
    assert c.max_speed() == 2.0
    np.testing.assert_allclose(c.momentum(), [1.0, 2.0, 0.5], rtol=1e-15)


def test_gaussian_sampling_m2():
    rng = np.random.default_rng(100)
    c = sample_initial({"name": "isotropic-gaussian", "sigma2": 1.0},
                       100_000, rng)
    # chi^2_3 mean 3, variance 6
    assert abs(c.m2() - 3.0) < 3 * math.sqrt(6 / 100_000)
    c = sample_initial({"name": "isotropic-gaussian", "sigma2": 0.25},
                       100_000, rng)
    assert abs(c.m2() - 0.75) < 3 * 0.25 * math.sqrt(6 / 100_000)


def test_uniform_ball_sampling():
    rng = np.random.default_rng(101)
    c = sample_initial({"name": "uniform-ball", "radius": 2.0}, 20_000, rng)
    speeds = np.linalg.norm(c.velocities, axis=1)
    assert np.all(speeds <= 2.0)
    # m2 of the uniform ball is 3R^2/5
    assert c.m2() == pytest.approx(12.0 / 5.0, abs=0.05)


def test_two_temperature_sampling():
    rng = np.random.default_rng(102)
    c = sample_initial({"name": "two-temperature", "sigma2_cold": 0.5,
                        "sigma2_hot": 2.0, "hot_fraction": 0.25},
                       100_000, rng)
    expect = 3 * (0.75 * 0.5 + 0.25 * 2.0)
    assert c.m2() == pytest.approx(expect, abs=0.05)


def test_sampling_rejects_bad_specs():
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError):
        sample_initial({"name": "maxwell-demon"}, 100, rng)
    with pytest.raises(ParameterError):
        sample_initial({"name": "isotropic-gaussian", "sigma2": -1}, 100, rng)
    with pytest.raises(ParameterError):
        sample_initial({"name": "uniform-ball", "radius": 0.0}, 100, rng)
    with pytest.raises(ParameterError):
        sample_initial({"name": "isotropic-gaussian"}, 1, rng)


def test_sampling_rejects_parameters_the_distribution_does_not_take():
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError) as err:
        sample_initial({"name": "isotropic-gaussian", "radius": 3.0,
                        "sigma2_hot": 9.0}, 100, rng)
    assert "'radius', 'sigma2_hot'" in str(err.value)
    with pytest.raises(ParameterError, match="'sigma2'"):
        sample_initial({"name": "uniform-ball", "sigma2": 1.0}, 100, rng)
    with pytest.raises(ParameterError, match="'radius'"):
        sample_initial({"name": "two-temperature", "radius": 1.0}, 100, rng)


def test_recenter():
    rng = np.random.default_rng(103)
    v = rng.normal(size=(4096, 3)) * 3 + 0.7
    vc = recenter(v)
    # float64 reduction noise floor, far below any physical tolerance
    assert np.max(np.abs(vc.sum(axis=0))) < 1e-12
    c = sample_initial({"name": "isotropic-gaussian", "sigma2": 1.0},
                       1000, rng, recenter_momentum=True)
    assert np.max(np.abs(c.momentum())) < 1e-12


def test_sampling_deterministic_by_seed():
    a = sample_initial({"name": "uniform-ball", "radius": 1.0}, 64,
                       np.random.default_rng(42))
    b = sample_initial({"name": "uniform-ball", "radius": 1.0}, 64,
                       np.random.default_rng(42))
    np.testing.assert_array_equal(a.velocities, b.velocities)
