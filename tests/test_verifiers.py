"""Tests for the Gronwall and Poisson-vs-Gaussian empirical verifiers."""

import math

import numpy as np
import pytest

from grazekit import rngstreams
from grazekit.errors import ParameterError
from grazekit.verifiers import (PoissonIntegralSpec, gronwall_bound_check,
                                gronwall_envelope, poisson_gaussian_w2, psi)


def analytic_rho(a, g, T):
    """Closed-form solution of rho' = g*psi(rho), rho(0)=a, constant g."""
    if a == 0:
        return 0.0
    if a >= 1:
        return a * math.exp(g * T)
    u0 = 1 - math.log(a)
    t_star = math.log(u0) / g
    if T <= t_star:
        return math.exp(1 - u0 * math.exp(-g * T))
    return math.exp(g * (T - t_star))


def test_psi_values_and_shape():
    assert psi(0.0) == 0.0
    assert psi(1.0) == 1.0
    assert psi(3.0) == 3.0
    assert psi(0.5) == pytest.approx(0.5 * (1 + math.log(2)), rel=1e-15)
    out = psi(np.array([0.0, 0.25, 1.0, 2.0]))
    assert out.shape == (4,)
    assert out[3] == 2.0


def test_psi_monotone_dominates_identity():
    x = np.linspace(0, 3, 1201)
    p = psi(x)
    assert np.all(np.diff(p) > 0)
    assert np.all(p >= x)


def test_psi_concave_majorant_sandwich():
    # x(1-log x) on [0,1/2], x log2 + 1/2 beyond: within [psi/2, 2 psi]
    x = np.linspace(1e-9, 1.0, 2000)
    tilde = np.where(x <= 0.5, x * (1 - np.log(x)),
                     x * math.log(2) + 0.5)
    p = psi(x)
    assert np.all(p / 2 <= tilde + 1e-15)
    assert np.all(tilde <= 2 * p + 1e-15)


def test_psi_subadditive_on_grid():
    g = np.linspace(0.0, 1.0, 200)
    A, B = np.meshgrid(g, g)
    lhs = psi(A + B)
    rhs = psi(A) + psi(B)
    assert np.all(lhs <= rhs + 1e-12)


def test_gronwall_envelope_values():
    assert gronwall_envelope(0.0) == 2.0
    assert gronwall_envelope(1.0) == pytest.approx(
        math.e * math.exp(math.e - 1) + math.exp(1 - 1 / math.e), rel=1e-15)
    with pytest.raises(ParameterError):
        gronwall_envelope(-0.1)


@pytest.mark.parametrize("a", [1e-6, 1e-3, 0.5, 2.0])
@pytest.mark.parametrize("g", [0.5, 1.0])
def test_gronwall_constant_rate(a, g):
    rep = gronwall_bound_check(a, lambda t: g, 1.0)
    exact = analytic_rho(a, g, 1.0)
    assert rep.rho_T == pytest.approx(exact, rel=1e-9)
    assert rep.integrator_gap < 1e-8
    assert rep.K == pytest.approx(g, rel=1e-12)
    assert rep.satisfied
    assert rep.rho_T <= rep.bound


@pytest.mark.parametrize("a", [1e-6, 1e-3, 0.5, 2.0])
def test_gronwall_piecewise_rate(a):
    def pw(t):
        return 0.5 if t < 0.5 else 2.0

    rep = gronwall_bound_check(a, pw, 1.0, breakpoints=(0.5,))
    exact = analytic_rho(analytic_rho(a, 0.5, 0.5), 2.0, 0.5)
    assert rep.rho_T == pytest.approx(exact, rel=1e-9)
    assert rep.integrator_gap < 1e-8
    assert rep.K == pytest.approx(1.25, rel=1e-12)
    assert rep.satisfied


def test_gronwall_trivial_cases():
    rep = gronwall_bound_check(0.0, lambda t: 1.0, 1.0)
    assert rep.rho_T == 0.0 and rep.bound == 0.0 and rep.satisfied
    rep = gronwall_bound_check(0.7, lambda t: 0.0, 1.0)
    assert rep.rho_T == pytest.approx(0.7, rel=1e-12)
    assert rep.K == 0.0
    assert rep.bound == pytest.approx(2 * (0.7 ** 1 + 0.7), rel=1e-12)


def test_gronwall_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        gronwall_bound_check(-1.0, lambda t: 1.0, 1.0)
    with pytest.raises(ParameterError):
        gronwall_bound_check(1.0, lambda t: 1.0, 0.0)
    with pytest.raises(ParameterError):
        gronwall_bound_check(1.0, lambda t: -1.0, 1.0)
    with pytest.raises(ParameterError):
        # divergent rate blows up on the probe grid
        gronwall_bound_check(1.0, lambda t: 1.0 / t if t > 0 else np.inf, 1.0)
    with pytest.raises(ParameterError):
        gronwall_bound_check(1.0, lambda t: 1.0, 1.0, breakpoints=(1.5,))


def test_poisson_spec_validation():
    with pytest.raises(ParameterError):
        PoissonIntegralSpec(np.array([[1.0, 0, 0]]), np.array([1.0]), 1.0)
    with pytest.raises(ParameterError):
        PoissonIntegralSpec(np.eye(3), np.array([1.0, 1.0, -1.0]), 1.0)
    with pytest.raises(ParameterError):
        PoissonIntegralSpec(np.eye(3), np.ones(3), 0.0)
    # two atoms span a plane only: still rank-deficient in 3-D
    with pytest.raises(ParameterError):
        PoissonIntegralSpec(np.array([[1.0, 0, 0], [0, 1.0, 0]]),
                            np.ones(2), 1.0)
    spec = PoissonIntegralSpec(np.eye(3), np.ones(3), 2.0)
    np.testing.assert_allclose(spec.gamma, np.eye(3), atol=0)
    assert spec.kappa == pytest.approx(1.0, rel=1e-12)


def test_poisson_spec_kappa_scaling():
    # anisotropic atoms: unit rows of Gamma^{-1/2} h_j when w h h^T = Gamma
    atoms = np.diag([2.0, 1.0, 0.5])
    spec = PoissonIntegralSpec(atoms, np.array([1.0, 2.0, 4.0]), 10.0)
    # Gamma = diag(4, 2, 1); Gamma^{-1/2} h_j has norms 1, 1/sqrt2, 1/2
    assert spec.gamma_norm == pytest.approx(4.0, rel=1e-12)
    assert spec.kappa == pytest.approx(1.0, rel=1e-12)


def test_poisson_all_zero_atoms_trivial():
    # all-zero atoms: Gamma = 0 has rank 0 and is refused like any other
    # rank-deficient set
    with pytest.raises(ParameterError, match="rank-deficient"):
        PoissonIntegralSpec(np.zeros((3, 3)), np.ones(3), 1.0)


def test_poisson_gaussian_sample_count_guard():
    spec = PoissonIntegralSpec(np.eye(3), np.ones(3), 1.0)
    with pytest.raises(ParameterError):
        poisson_gaussian_w2(spec, 999, np.random.default_rng(0))


@pytest.mark.slow
def test_poisson_gaussian_ratio_bounded_over_sweep():
    # five-point horizon sweep: ratio stays under the pinned cap and the
    # compensation moment checks hold
    atoms, w = np.eye(3), np.ones(3)
    ratios = []
    for t in (1.0, 3.0, 10.0, 30.0, 100.0):
        spec = PoissonIntegralSpec(atoms, w, t)
        rep = poisson_gaussian_w2(spec, 2048,
                                  rngstreams.stream(1234, "pg-acc", int(t)))
        assert rep.mean_ok and rep.cov_ok
        assert rep.control_w2_squared > 0.0
        ratios.append(rep.ratio)
    assert max(ratios) < 1.5
    # at the largest horizon the same-law control carries most of the
    # numerator: the true-law gap is well inside the envelope
    assert ratios[-1] < 1.5


def test_poisson_gaussian_control_reported():
    spec = PoissonIntegralSpec(np.diag([2.0, 1.0, 0.5]),
                               np.array([1.0, 2.0, 4.0]), 10.0)
    rep = poisson_gaussian_w2(spec, 2048, rngstreams.stream(7, "pgw2-aniso"))
    assert rep.ratio < 1.5
    assert rep.control_ratio < 1.5
    assert rep.mean_ok and rep.cov_ok
