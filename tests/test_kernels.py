"""Tests for the angular kernel families, their normalizations, tail
inverses, and the integral agreement reports.

Reference values marked "40-digit" were computed once with mpmath at
40 decimal digits and frozen here; the package itself never depends on
mpmath.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from grazekit.boltzmann import BoltzmannConfig, _theta_min_eff
from grazekit.errors import ParameterError
from grazekit import kernels as K

PI = math.pi


def quad_moment(kernel, power):
    """Independent quadrature of integral(theta^power * beta); never uses
    the closed forms under test."""
    lo, hi = kernel.support
    if lo == 0.0:
        val, _ = integrate.quad(lambda t: t ** power * float(kernel.beta(t)),
                                0.0, hi, epsabs=1e-12, epsrel=1e-12, limit=400)
        return val
    total = 0.0
    edges = np.geomspace(lo, hi, 32)
    for a, b in zip(edges[:-1], edges[1:]):
        v, _ = integrate.quad(lambda t: t ** power * float(kernel.beta(t)),
                              a, b, epsabs=1e-13, epsrel=1e-12, limit=400)
        total += v
    return total


def criterion_grid():
    kerns = [K.SoftKernel(-0.5, nu) for nu in (0.3, 0.6, 1.2)]
    kerns += [K.GrazingKernel(-0.5, 0.6, e) for e in (PI / 2, PI / 8, PI / 32)]
    kerns += [K.CoulombKernel(e) for e in (0.3, 0.1, 0.01)]
    return kerns


# ---------------------------------------------------------------------------
# normalizers


def test_soft_normalizer_closed_form():
    # nu = 1 collapses to 4/pi^2
    assert K.soft_normalizer(1.0) == pytest.approx(4.0 / PI ** 2, rel=1e-15)
    for nu in (0.3, 0.6, 1.2, 1.9):
        assert K.soft_normalizer(nu) == pytest.approx(
            4.0 * (2.0 - nu) / PI ** (3.0 - nu), rel=1e-15)


def test_soft_normalizer_rejects_bad_nu():
    for nu in (0.0, 2.0, -0.5, 2.5):
        with pytest.raises(ParameterError):
            K.soft_normalizer(nu)


def test_second_moment_is_4_over_pi_everywhere():
    # the defining normalization, checked by quadrature on beta itself
    for kern in criterion_grid():
        a2 = quad_moment(kern, 2.0)
        assert a2 == pytest.approx(4.0 / PI, abs=1e-10), kern.params()


def test_coulomb_normalizer_against_quadrature():
    for eps in (0.3, 0.1, 0.01):
        mass, _ = integrate.quad(
            lambda t: t * t * math.cos(0.5 * t) / math.sin(0.5 * t) ** 3,
            eps, 0.5 * PI, epsabs=1e-12, epsrel=1e-12, limit=400)
        c_quad = 4.0 * math.log(1.0 / eps) / (PI * mass)
        assert K.coulomb_normalizer(eps) == pytest.approx(c_quad, rel=1e-11)


def test_coulomb_normalizer_approaches_inverse_two_pi():
    # 2*pi*c_eps climbs toward 1 from below; at eps=1e-4 it is within 5%
    vals = [2.0 * PI * K.coulomb_normalizer(e)
            for e in (0.3, 0.1, 0.01, 1e-3, 1e-4)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(v < 1.0 for v in vals)
    assert vals[-1] == pytest.approx(0.9539781931627203, rel=1e-12)
    assert abs(vals[-1] - 1.0) < 0.05


def test_coulomb_rejects_bad_eps():
    for eps in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ParameterError):
            K.CoulombKernel(eps)
    with pytest.raises(ParameterError):
        K.CoulombKernel(0.1, h_eps=-0.2)


# ---------------------------------------------------------------------------
# beta and phi


def test_beta_support_and_spot_values():
    soft = K.SoftKernel(-0.5, 0.6)
    assert float(soft.beta(1.0)) == pytest.approx(soft.c_nu, rel=1e-15)
    assert float(soft.beta(0.0)) == 0.0
    assert float(soft.beta(PI + 1e-9)) == 0.0

    g = K.GrazingKernel(-0.5, 0.6, PI / 8)
    th = 0.1
    expect = (PI / g.eps) ** 3 * soft.c_nu * (PI * th / g.eps) ** (-1.6)
    assert float(g.beta(th)) == pytest.approx(expect, rel=1e-14)
    assert float(g.beta(g.eps)) == 0.0
    assert float(g.beta(g.eps * 0.999)) > 0.0

    c = K.CoulombKernel(0.1)
    th = 0.3
    expect = c.k_c * math.cos(0.5 * th) / math.sin(0.5 * th) ** 3
    assert float(c.beta(th)) == pytest.approx(expect, rel=1e-14)
    assert float(c.beta(0.5 * c.eps)) == 0.0
    assert float(c.beta(0.5 * PI + 1e-9)) == 0.0


def test_phi_velocity_factors():
    soft = K.SoftKernel(-0.5, 0.6)
    r = np.array([0.25, 1.0, 4.0])
    np.testing.assert_allclose(soft.phi(r), r ** -0.5, rtol=1e-15)

    c = K.CoulombKernel(0.1)  # h_eps defaults to eps
    assert c.h_eps == 0.1
    np.testing.assert_allclose(c.phi(r), (r + 0.1) ** -3.0, rtol=1e-15)
    c0 = K.CoulombKernel(0.1, h_eps=0.0)
    np.testing.assert_allclose(c0.phi(r), r ** -3.0, rtol=1e-15)


def test_kernel_from_params_dispatch():
    k = K.kernel_from_params("soft", gamma=-0.5, nu=0.6)
    assert isinstance(k, K.SoftKernel)
    k = K.kernel_from_params("grazing", gamma=-0.5, nu=0.6, eps=0.3)
    assert isinstance(k, K.GrazingKernel)
    k = K.kernel_from_params("coulomb", eps=0.1, h_eps=0.05)
    assert isinstance(k, K.CoulombKernel) and k.h_eps == 0.05
    with pytest.raises(ParameterError):
        K.kernel_from_params("soft", gamma=-0.5, nu=0.6, eps=0.3)
    with pytest.raises(ParameterError):
        K.kernel_from_params("coulomb", eps=0.1, gamma=-1.0)
    with pytest.raises(ParameterError):
        K.kernel_from_params("hard", gamma=-0.5, nu=0.6)
    for family, params in (("soft", {"gamma": -0.5, "nu": 0.6}),
                           ("grazing", {"gamma": -0.5, "nu": 0.6, "eps": 0.3})):
        with pytest.raises(ParameterError, match="'h_eps'"):
            K.kernel_from_params(family, h_eps=0.1, **params)


# ---------------------------------------------------------------------------
# moments


def test_soft_moment_closed_form_vs_quadrature():
    for nu, p in ((0.3, 2.0), (0.6, 4.0), (1.2, 1.5), (0.6, 3.0)):
        kern = K.SoftKernel(-1.0, nu)
        assert K.theta_moment(kern, p) == pytest.approx(
            quad_moment(kern, p), rel=1e-9)
    # frozen spot value (nu=0.6, p=4), 40-digit: 5.174387900030248
    assert K.theta_moment(K.SoftKernel(-1.0, 0.6), 4.0) == pytest.approx(
        5.174387900030248, rel=1e-13)


def test_moment_power_guards():
    with pytest.raises(ParameterError):
        K.theta_moment(K.SoftKernel(-0.5, 0.6), 0.5)
    with pytest.raises(ParameterError):
        K.theta_moment(K.GrazingKernel(-0.5, 1.2, 0.3), 1.2)
    with pytest.raises(ParameterError):
        K.theta_moment(K.CoulombKernel(0.1), -0.5)


def test_grazing_moment_scaling():
    # rescaling multiplies the p-th moment by (eps/pi)^(p-2); p=2 invariant
    base = K.SoftKernel(-0.5, 0.6)
    for eps in (PI / 4, PI / 32):
        g = K.GrazingKernel(-0.5, 0.6, eps)
        for p in (2.0, 3.0, 4.0):
            expect = (eps / PI) ** (p - 2.0) * K.theta_moment(base, p)
            assert K.theta_moment(g, p) == pytest.approx(expect, rel=1e-13)
            assert K.theta_moment(g, p) == pytest.approx(
                quad_moment(g, p), rel=1e-9)


def test_coulomb_fourth_moment_grid():
    # m4 decreases along eps -> 0 and m4*log(1/eps) stays bounded
    m4s = [K.theta_moment(K.CoulombKernel(e), 4.0) for e in (0.1, 0.01, 0.001)]
    assert all(a > b for a, b in zip(m4s, m4s[1:]))
    prods = [m * math.log(1.0 / e) for m, e in zip(m4s, (0.1, 0.01, 0.001))]
    assert all(p < 2.0 for p in prods)
    assert m4s[0] == pytest.approx(0.5638973802592666, rel=1e-10)


# ---------------------------------------------------------------------------
# tail inverses


def test_tail_roundtrip_all_families():
    for kern in criterion_grid():
        lo, hi = kern.support
        lo_eff = max(lo, 1e-6 * hi)
        grid = np.linspace(lo_eff, hi * (1.0 - 1e-12), 1000)
        t = kern.tail
        err = np.max(np.abs(t.G(t.H(grid)) - grid))
        assert err < 1e-12, (kern.params(), err)


def test_soft_tail_edges():
    t = K.SoftKernel(-0.5, 0.6).tail
    assert float(t.H(PI)) == 0.0
    assert float(t.G(0.0)) == pytest.approx(PI, rel=1e-15)
    assert t.z_max == math.inf
    # H decreasing
    grid = np.geomspace(1e-6, PI, 500)
    assert np.all(np.diff(t.H(grid)) < 0)


def test_grazing_tail_edges_and_half_pi_identity():
    eps = PI / 2
    g = K.GrazingKernel(-0.5, 0.6, eps).tail
    base = K.SoftKernel(-0.5, 0.6).tail
    # at eps = pi/2 the rescaled inverse is half the base inverse at z/4
    z = np.geomspace(1e-3, 1e3, 64)
    np.testing.assert_allclose(g.G(z), 0.5 * base.G(z / 4.0), rtol=1e-14)
    assert float(g.H(eps)) == 0.0
    assert float(g.H(eps * 1.5)) == 0.0
    assert float(g.G(0.0)) == pytest.approx(eps, rel=1e-15)


@pytest.mark.parametrize("nu", [0.3, 0.6, 1.5])
def test_soft_kernel_is_the_grazing_kernel_at_pi(nu):
    soft, graz = K.SoftKernel(-0.5, nu), K.GrazingKernel(-0.5, nu, PI)
    u = np.linspace(0.0, 1.0, 257)
    for args in ((u,), (u, 0.3, 2.0), (u, 0.0, 1e3)):
        for a, b in zip(soft.tail.angles(*args), graz.tail.angles(*args)):
            assert np.array_equal(a, b)
    for lo, hi in ((0.0, PI), (PI / 256, PI / 4), (0.01, 1.0), (1.0, PI)):
        assert K.window_moments(soft, lo, hi) == \
            K.window_moments(graz, lo, hi)
    for p in (nu + 0.25, 2.0, 4.0):
        assert K.theta_moment(soft, p) == K.theta_moment(graz, p)
    # they differ only in the family, its params and the theta_min default
    assert soft.params() == {"family": "soft", "gamma": -0.5, "nu": nu}
    assert graz.params() == {"family": "grazing", "gamma": -0.5, "nu": nu,
                             "eps": PI}

    def theta_min(kern):
        return _theta_min_eff(BoltzmannConfig(kern, n=8, dt=0.1, T=0.1))

    assert theta_min(soft) == PI / 256 and theta_min(graz) == PI / 64
    assert theta_min(K.GrazingKernel(-0.5, nu, PI / 8)) == PI / 8 / 64


def test_coulomb_tail_edges():
    kern = K.CoulombKernel(0.1)
    t = kern.tail
    assert float(t.G(0.0)) == pytest.approx(0.5 * PI, rel=1e-15)
    assert float(t.G(t.z_max)) == pytest.approx(kern.eps, rel=1e-12)
    # beyond the cutoff the jump is suppressed entirely
    assert float(t.G(t.z_max * (1.0 + 1e-7))) == 0.0
    assert float(t.H(0.5 * kern.eps)) == pytest.approx(t.z_max, rel=1e-15)
    assert float(t.H(0.5 * PI)) == 0.0
    # z_max matches H at the lower support edge
    assert float(t.H(kern.eps)) == pytest.approx(t.z_max, rel=1e-15)


def coulomb_float32_errors(kern, lo, mass, u):
    """Largest relative error of tail.angles in float32 against double on
    the same words, per returned array; also checks the float32 arrays are
    zero exactly where the double ones are."""
    ref = kern.tail.angles(u, lo, mass)
    got = kern.tail.angles(u, lo, mass, np.float32)
    errs = []
    for g, r in zip(got, ref):
        assert g.dtype == np.float32 and r.dtype == np.float64
        assert np.array_equal(g == 0.0, r == 0.0)
        on = r != 0.0
        errs.append(float(np.max(np.abs(g[on] - r[on]) / r[on])))
    return errs


def test_coulomb_float32_angles_within_single_precision_of_double():
    # q = z/k_c + 2 is mapped in double and rounded once to float32; then
    # 1/sqrt(q), 2 sqrt(q - 1)/q and 2 arcsin run in float32.  The windows
    # [eps, 1/log(1/eps)] of the criterion-12 grid and of eps = 0.003, their
    # exact band at a level above 0, and the band above the window top
    u = np.random.default_rng(11).random(20000)
    u[:3] = 0.0, 0.5, 1.0  # u = 1 is the support edge z = z_max
    worst = np.zeros(3)
    for eps in (0.3, 0.1, 0.03, 0.01, 0.003):
        kern = K.CoulombKernel(eps)
        z_lo = float(kern.tail.H(1.0 / math.log(1.0 / eps)))
        mass = kern.tail.z_max - z_lo
        for window in ((z_lo, mass), (z_lo, mass / 8.0)):
            worst = np.maximum(worst,
                               coulomb_float32_errors(kern, *window, u))
        top = coulomb_float32_errors(kern, 0.0, z_lo, u)
        # measured 3.8e-7: the float32 arcsin near theta = pi/2; sines 1.1e-7
        assert top[0] < 5e-7 and max(top[1:]) < 2e-7
    # measured theta 1.6e-7, sin(theta/2) 1.1e-7, sin theta 1.1e-7
    assert worst.max() < 2e-7
    # the masked path: a window past z_max zeroes the draws beyond it in
    # both precisions, and the others keep the bound
    kern = K.CoulombKernel(0.01)
    z_lo = float(kern.tail.H(1.0 / math.log(100.0)))
    mass = 2.0 * (kern.tail.z_max - z_lo)
    theta = kern.tail.angles(u, z_lo, mass, np.float32)[0]
    assert np.count_nonzero(theta == 0.0) == np.count_nonzero(u > 0.5)
    assert max(coulomb_float32_errors(kern, z_lo, mass, u)) < 2e-7
    # the default stays double, and the double path is G's formula
    z = np.array([0.0, 1.0, kern.tail.z_max])
    assert np.array_equal(kern.tail.angles(z)[0], kern.tail.G(z))


# ---------------------------------------------------------------------------
# k constant and window integrals


def test_k_constant_range_and_fourth_moment_gap():
    for kern in criterion_grid():
        k = K.k_constant(kern)
        m4 = K.theta_moment(kern, 4.0)
        assert 0.0 < k <= 2.0, kern.params()
        assert abs(k - 2.0) <= (PI / 24.0) * m4 + 1e-12, kern.params()


def test_k_constant_frozen_values():
    # 40-digit references
    assert K.k_constant(K.SoftKernel(-0.5, 0.6)) == pytest.approx(
        1.4463972585332747, rel=1e-9)
    assert K.k_constant(K.GrazingKernel(-0.5, 0.6, PI / 8)) == pytest.approx(
        1.9894509689692665, rel=1e-9)
    assert K.k_constant(K.CoulombKernel(0.1)) == pytest.approx(
        1.9291313133708723, rel=1e-9)


def test_residual_k():
    kern = K.SoftKernel(-0.5, 0.6)
    # 40-digit reference for the [0, 0.01] window
    assert K.residual_k(kern, 0.01) == pytest.approx(
        6.3829094534371283e-4, rel=1e-8)
    assert K.residual_k(kern, 0.0) == 0.0
    assert K.residual_k(kern, PI) == pytest.approx(K.k_constant(kern),
                                                   rel=1e-11)
    # monotone in the truncation angle
    vals = [K.residual_k(kern, a) for a in (0.01, 0.1, 1.0, PI)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    # coulomb kernel has no mass below eps
    assert K.residual_k(K.CoulombKernel(0.1), 0.05) == 0.0


def series_residual_k(nu, eps, x):
    """40-digit pi (pi/eps)^(2-nu) c_nu sum_k (-1)^(k+1) x^(2k-nu) /
    ((2k)! (2k-nu)): the exact residual k of the grazing kernel below x."""
    import mpmath as mp
    with mp.workdps(40):
        nu, eps, x = mp.mpf(nu), mp.mpf(eps), mp.mpf(x)
        c_nu = 4 * (2 - nu) / mp.pi ** (3 - nu)
        total = mp.nsum(lambda k: (-1) ** (k + 1) * x ** (2 * k - nu)
                        / (mp.factorial(2 * k) * (2 * k - nu)), [1, mp.inf])
        return float(mp.pi * (mp.pi / eps) ** (2 - nu) * c_nu * total)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eps", [PI / 2, PI / 8])
@pytest.mark.parametrize("nu", [0.6, 1.0, 1.5, 1.7, 1.9, 1.99])
def test_residual_k_matches_series_for_every_nu(nu, eps):
    # the window from 0 has an integrable theta^(1-nu) singularity that
    # adaptive quadrature lost as nu -> 2 (26 % off at nu = 1.9)
    kern = K.GrazingKernel(-0.5, nu, eps)
    theta_min = eps / 64.0
    assert K.residual_k(kern, theta_min) == pytest.approx(
        series_residual_k(nu, eps, theta_min), rel=1e-12, abs=0.0)


WINDOWS = [
    (K.GrazingKernel(-0.5, 0.6, PI / 16), PI / 1024, PI / 16),
    (K.GrazingKernel(-0.5, 1.9, PI / 8), PI / 512, PI / 16),
    (K.SoftKernel(-0.5, 0.3), 0.3, PI),
    (K.SoftKernel(-0.5, 1.5), 0.01, 1.0),
    (K.CoulombKernel(0.01), 0.01, 1.0 / math.log(100.0)),
    (K.CoulombKernel(0.01), 1.0 / math.log(100.0), PI / 2),
    (K.CoulombKernel(0.3), 0.3, PI / 2),
]


@pytest.mark.parametrize("kern,lo,hi", WINDOWS)
def test_window_moments_match_mpmath(kern, lo, hi):
    import mpmath as mp
    mom = K.window_moments(kern, lo, hi)
    with mp.workdps(30):
        if isinstance(kern, K.CoulombKernel):
            k_c = mp.mpf(kern.c_eps) / mp.log(1 / mp.mpf(kern.eps))

            def beta(t):
                return k_c * mp.cos(t / 2) / mp.sin(t / 2) ** 3
        else:
            nu = mp.mpf(kern.nu)
            c = 4 * (2 - nu) / mp.pi ** (3 - nu)
            if isinstance(kern, K.GrazingKernel):
                c *= (mp.pi / mp.mpf(kern.eps)) ** (2 - nu)

            def beta(t):
                return c * t ** (-1 - nu)

        def integral(f):
            return float(mp.quad(lambda t: f(t) * beta(t),
                                 [mp.mpf(lo), mp.mpf(hi)]))

        expect = {
            "mass": integral(lambda t: 1),
            "one_cos": integral(lambda t: 2 * mp.sin(t / 2) ** 2),
            "one_cos_sq": integral(lambda t: 4 * mp.sin(t / 2) ** 4),
            "theta_sq": integral(lambda t: t * t),
            "sin_sq": integral(lambda t: mp.sin(t) ** 2),
        }
    for name, value in expect.items():
        # measured <= 7.8e-16 (sin^2), <= 4.8e-16 for the others
        assert getattr(mom, name) == pytest.approx(value, rel=1e-14), name


def test_window_moments_clip_to_the_support_and_cache():
    g = K.GrazingKernel(-0.5, 0.6, PI / 8)
    assert K.window_moments(g, 0.0, PI) == K.window_moments(g, 0.0, g.eps)
    assert K.window_moments(g, g.eps, PI) == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert K.window_moments(g, 0.0, g.eps).mass == math.inf
    c = K.CoulombKernel(0.1)
    assert K.window_moments(c, 0.0, 0.1) == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert K.window_moments(c, 0.0, 1.0) == K.window_moments(c, 0.1, 1.0)
    assert K.window_moments(c, 0.1, 1.0) is K.window_moments(c, 0.1, 1.0)


def test_theta_rule_matches_window_moments_row_by_row():
    # each row of a vector lo is the scalar rule at that lo, clipped to the
    # support, and sums to the closed-form moments of [lo, top] (measured
    # worst 2.1e-11, at nu = 1.2 from 0, where theta^2 beta is singular)
    for kern in criterion_grid():
        s_lo, top = kern.support
        lows = np.array([0.0, s_lo, 0.3 * top, 0.9 * top])
        nodes, weights = K.theta_rule(kern, lows)
        assert nodes.shape == weights.shape == (4, 768)
        for row, lo in enumerate(lows):
            n1, w1 = K.theta_rule(kern, lo)
            np.testing.assert_array_equal(nodes[row], n1)
            np.testing.assert_array_equal(weights[row], w1)
            assert np.all((n1 >= max(lo, s_lo)) & (n1 <= top))
            mom = K.window_moments(kern, lo, top)
            assert np.sum(n1 ** 2 * w1) == pytest.approx(mom.theta_sq,
                                                          rel=1e-10)
            assert np.sum(2.0 * np.sin(0.5 * n1) ** 2 * w1) == \
                pytest.approx(mom.one_cos, rel=1e-10)


def test_r_eta_window():
    for kern in criterion_grid():
        assert K.r_eta(kern, PI) == pytest.approx(1.0, abs=1e-11)
    g = K.GrazingKernel(-0.5, 0.6, PI / 8)
    assert K.r_eta(g, g.eps) == pytest.approx(1.0, abs=1e-11)
    assert K.r_eta(g, g.eps / 2) == pytest.approx(0.3789291416275995, rel=1e-9)
    with pytest.raises(ParameterError):
        K.r_eta(g, 0.0)


# ---------------------------------------------------------------------------
# agreement reports


def test_scaling_agreement_is_eps_free():
    rng = np.random.default_rng(1)
    pairs = rng.uniform(0.1, 5.0, size=(50, 2))
    rep = K.scaling_agreement_report(-0.5, 0.6, [PI, PI / 4, PI / 16], pairs)
    assert rep["max_rel_deviation"] < 1e-10
    # the integral is comparable to (x-y)^2/(x+y) on both sides
    assert 0.5 < rep["ratio_min"] <= rep["ratio_max"] < 2.0


def test_pair_integral_frozen_value():
    # x=1, y=2, eps=pi/4; 40-digit z-space reference: 0.332441507099
    g = K.GrazingKernel(-0.5, 0.6, PI / 4)
    v = K._pair_integral(g, np.array([1.0]), np.array([2.0]))[0]
    assert v == pytest.approx(0.332441507099, rel=1e-10)


def test_scaling_agreement_rejects_bad_pairs():
    with pytest.raises(ParameterError):
        K.scaling_agreement_report(-0.5, 0.6, [PI], np.array([[1.0, -2.0]]))
    with pytest.raises(ParameterError):
        K.scaling_agreement_report(-0.5, 0.6, [PI], np.ones(4))


def test_coulomb_mismatch_report():
    rng = np.random.default_rng(2)
    pairs = rng.uniform(0.1, 5.0, size=(200, 2))
    rep = K.coulomb_mismatch_report([0.3, 0.1, 0.03], pairs,
                                    cross_check_pair=(1.0, 2.0, 0.1))
    assert rep["sup_ratio"] <= 1.0
    assert rep["cross_check"]["rel_agreement"] < 1e-10
    assert set(rep["per_eps"]) == {0.3, 0.1, 0.03}


def test_coulomb_pair_integral_dual_route():
    kern = K.CoulombKernel(0.1, h_eps=0.0)
    for x, y in ((1.0, 2.0), (0.5, 3.0), (2.0, 2.0)):
        v_theta = float(K._pair_integral(
            kern, np.array([x]), np.array([y]))[0])
        v_z = K._pair_integral_coulomb_zspace(kern, x, y)
        assert v_theta == pytest.approx(v_z, rel=1e-9, abs=1e-14)
