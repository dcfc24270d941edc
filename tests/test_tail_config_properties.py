"""Property tests for the kernel tail inverses (H(G(z)) = z and G(H(theta))
= theta for the soft, grazing and Coulomb families, and the angle triple
(theta, sin(theta/2), sin theta) of TailInverse.angles, on a jump
coordinate and on window uniforms) and for the config serializer (dump ->
load -> dump is byte-stable)."""

import json
import math
import os
import tempfile

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grazekit import config as C
from grazekit import kernels as K

# Largest errors seen over the families below (hypothesis examples plus
# 40 000 random angles and jump coordinates per kernel): 6.8e-15 relative on
# theta, the worst at nu = 0.05 (G raises to the power -1/nu), and 5.9e-15
# on z relative to z + H(mid support), the worst at nu near 2.
THETA_RTOL = 1.6e-14
Z_RTOL = 1.6e-14

_NU = st.floats(min_value=0.05, max_value=1.95)


@st.composite
def _kernels(draw):
    family = draw(st.sampled_from(["soft", "grazing", "coulomb"]))
    if family == "soft":
        return K.SoftKernel(-0.5, draw(_NU))
    if family == "grazing":
        return K.GrazingKernel(-0.5, draw(_NU),
                               draw(st.floats(min_value=1e-6,
                                              max_value=math.pi)))
    return K.CoulombKernel(draw(st.floats(min_value=1e-8, max_value=0.99)))


# a fraction of a range: uniform, or log-uniform down to 1e-12
_FRACTION = st.one_of(st.floats(min_value=1e-12, max_value=1.0),
                      st.floats(min_value=-12.0, max_value=0.0).map(
                          lambda e: 10.0 ** e))


def _mid_z(kernel):
    lo, hi = kernel.support
    return float(kernel.tail.H(0.5 * (lo + hi)))


@settings(max_examples=300)
@given(_kernels(), _FRACTION, st.booleans())
def test_g_inverts_h(kernel, f, from_top):
    lo, hi = kernel.support
    theta = hi - (hi - lo) * f if from_top else lo + (hi - lo) * f
    if not lo < theta <= hi:
        theta = hi
    back = float(kernel.tail.G(kernel.tail.H(theta)))
    assert abs(back - theta) <= THETA_RTOL * theta


@settings(max_examples=300)
@given(_kernels(), _FRACTION, st.sampled_from(["range", "tiny", "zero"]))
def test_h_inverts_g(kernel, f, where):
    t = kernel.tail
    hi = kernel.support[1]
    z_top = t.z_max if math.isfinite(t.z_max) else float(t.H(1e-12 * hi))
    z = {"range": f * z_top, "tiny": f * 1e-280, "zero": 0.0}[where]
    back = float(t.H(t.G(z)))
    assert abs(back - z) <= Z_RTOL * (z + _mid_z(kernel))


def test_tail_round_trips_on_dense_grids():
    """The measurement behind the frozen tolerances, on fixed grids."""
    rng = np.random.default_rng(0)
    worst_theta = worst_z = 0.0
    kernels = [K.CoulombKernel(e) for e in (0.9, 0.01, 1e-8)]
    for nu in (0.05, 0.6, 1.95):
        kernels.append(K.SoftKernel(-0.5, nu))
        kernels += [K.GrazingKernel(-0.5, nu, e) for e in (math.pi / 16, 1e-6)]
    for kernel in kernels:
        t = kernel.tail
        lo, hi = kernel.support
        lo_eff = max(lo, 1e-12 * hi)
        theta = np.concatenate((
            np.exp(rng.uniform(math.log(lo_eff), math.log(hi), 20_000)),
            rng.uniform(lo_eff, hi, 20_000), [lo_eff, hi]))
        worst_theta = max(worst_theta,
                          np.max(np.abs(t.G(t.H(theta)) - theta) / theta))
        z_top = t.z_max if math.isfinite(t.z_max) else float(t.H(lo_eff))
        z = np.concatenate((
            np.exp(rng.uniform(math.log(1e-300), math.log(z_top), 20_000)),
            rng.uniform(0.0, z_top, 20_000), [0.0, z_top]))
        worst_z = max(worst_z, np.max(np.abs(t.H(t.G(z)) - z)
                                      / (z + _mid_z(kernel))))
    assert worst_theta <= THETA_RTOL and worst_z <= Z_RTOL


# Largest relative error of the angle triple's sines against 40-digit
# mpmath, over 802 jump coordinates per kernel (uniform and log-uniform,
# the kernels of the round-trip grids above plus Coulomb eps = 0.3):
# 2.2e-16 for Coulomb, 1.1e-16 for the libm families.  About two ulp.
SIN_RTOL = 4.5e-16


def _exact_sines(kernel, z, theta):
    """sin(theta/2) and sin theta in 40 digits: for Coulomb those of the
    exact angle of z (sin(theta/2) = q^(-1/2), q = z/k_c + 2), for the
    libm families those of the returned theta, whose own error the round
    trips above bound."""
    with mp.workdps(40):
        if isinstance(kernel, K.CoulombKernel):
            q = mp.mpf(z) / mp.mpf(kernel.k_c) + 2
            return 1 / mp.sqrt(q), 2 * mp.sqrt(q - 1) / q
        th = mp.mpf(float(theta))
        return mp.sin(th / 2), mp.sin(th)


@settings(max_examples=300)
@given(_kernels(), st.lists(_FRACTION, min_size=1, max_size=6))
def test_angles_give_g_and_its_sines(kernel, fractions):
    t = kernel.tail
    hi = kernel.support[1]
    z_top = t.z_max if math.isfinite(t.z_max) else float(t.H(1e-12 * hi))
    z = z_top * np.array(fractions + [0.0])
    theta, sin_half, sin_theta = t.angles(z)
    assert theta.tobytes() == np.asarray(t.G(z)).tobytes()
    for i in range(z.size):
        for got, exact in zip((sin_half[i], sin_theta[i]),
                              _exact_sines(kernel, z[i], theta[i])):
            assert abs(mp.mpf(float(got)) - exact) <= SIN_RTOL * abs(exact)


def test_coulomb_angles_vanish_beyond_z_max():
    for eps in (0.9, 0.01, 1e-8):
        t = K.CoulombKernel(eps).tail
        z = np.array([t.z_max, np.nextafter(t.z_max, math.inf),
                      2.0 * t.z_max, math.inf])
        theta, sin_half, sin_theta = t.angles(z)
        assert theta[0] == pytest.approx(eps, rel=1e-12)
        assert sin_half[0] > 0.0 and sin_theta[0] > 0.0
        for got in (theta, sin_half, sin_theta):
            assert got[1:].tobytes() == np.zeros(3).tobytes()
        # one coordinate in, three 0-d angles out
        assert [float(a) for a in t.angles(2.0 * t.z_max)] == [0.0] * 3


# Largest relative errors of the windowed theta against the kernel's
# formula in 40 digits at the exact coordinate z = lo + mass u (its float
# constants and its float exponent -1/nu), over 9 kernels x 1200 draws:
# 3.2e-16 for Coulomb, and 2.05 x 2^-53 (1 + 1/nu) for the power laws, whose
# power amplifies the rounding of its base by 1/nu.  G(lo + mass u) rounds z
# first, and sits as far from the exact angle: 3.2e-16 and 4.0e-15 (nu =
# 0.05).  So the windowed theta is within two ulp of the exact angle, scaled
# by that conditioning.
WINDOW_ULPS = 2.0


def _exact_theta(kernel, z):
    with mp.workdps(40):
        if isinstance(kernel, K.CoulombKernel):
            return 2 * mp.asin(1 / mp.sqrt(z / mp.mpf(kernel.k_c) + 2))
        nu = mp.mpf(kernel.nu)
        c, k = mp.mpf(1), nu / mp.mpf(K.soft_normalizer(kernel.nu))
        if isinstance(kernel, K.GrazingKernel):
            c = mp.mpf(kernel.eps) / mp.pi
            k *= c * c
        return c * (k * z + mp.pi ** -nu) ** mp.mpf(-1.0 / kernel.nu)


def _window(kernel, f_lo, f_hi):
    """(lo, mass) of the z window between two angles at fractions f_lo <
    f_hi of the support (log-spaced from 1e-12 of its top when it starts
    at 0), kept within z_max as coupled_run keeps it."""
    s_lo, s_hi = kernel.support
    if s_lo > 0.0:
        th_lo, th_hi = (s_lo + (s_hi - s_lo) * f for f in (f_lo, f_hi))
    else:
        th_lo, th_hi = (s_hi * 1e-12 ** (1.0 - f) for f in (f_lo, f_hi))
    t = kernel.tail
    lo = float(t.H(th_hi))
    mass = float(t.H(th_lo)) - lo
    while lo + mass > t.z_max:
        mass = math.nextafter(mass, 0.0)
    return lo, mass


@settings(max_examples=300)
@given(_kernels(), st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2,
                            unique=True),
       st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1,
                max_size=6))
def test_windowed_angles_match_mpmath(kernel, fractions, us):
    lo, mass = _window(kernel, *sorted(fractions))
    u = np.array(us + [0.0, np.nextafter(1.0, 0.0)])
    theta, sin_half, sin_theta = kernel.tail.angles(u, lo, mass)
    coulomb = isinstance(kernel, K.CoulombKernel)
    cond = 1.0 if coulomb else 1.0 + 1.0 / kernel.nu
    for i in range(u.size):
        z = mp.mpf(lo) + mp.mpf(mass) * mp.mpf(float(u[i]))
        exact = _exact_theta(kernel, z)
        assert abs(mp.mpf(float(theta[i])) - exact) \
            <= WINDOW_ULPS * 2.0 ** -52 * cond * exact
        for got, want in zip((sin_half[i], sin_theta[i]),
                             _exact_sines(kernel, z, theta[i])):
            assert abs(mp.mpf(float(got)) - want) <= SIN_RTOL * abs(want)
    # a Coulomb window within z_max gives no angle below the support
    if coulomb:
        assert theta.min() >= kernel.eps * (1.0 - SIN_RTOL)


def test_coulomb_windows_stay_inside_z_max():
    for eps in (0.9, 0.01, 1e-8):
        kernel = K.CoulombKernel(eps)
        t = kernel.tail
        # the window from the support edge up to pi/2, its top at z_max
        u = np.array([0.0, 0.5, np.nextafter(1.0, 0.0)])
        theta, sin_half, sin_theta = t.angles(u, 0.0, t.z_max)
        assert theta[-1] == pytest.approx(eps, rel=1e-12)
        assert theta[0] == pytest.approx(0.5 * math.pi, rel=1e-15)
        assert np.all(sin_half > 0.0) and np.all(sin_theta > 0.0)
        # a window reaching past z_max zeroes the draws beyond it
        theta, sin_half, sin_theta = t.angles(u, 0.0, 2.0 * t.z_max)
        for got in (theta, sin_half, sin_theta):
            assert got[0] > 0.0 and got[2] == 0.0
        assert theta[1] == pytest.approx(eps, rel=1e-12)


# ---------------------------------------------------------------------------
# config dump -> load -> dump

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_ANGLE = st.one_of(_FINITE, st.just("pi"),
                   st.integers(1, C._MAX_PI_DENOM).map(lambda k: f"pi/{k}"),
                   st.integers(1, C._MAX_PI_DENOM).map(lambda k: math.pi / k))
_BY_KIND = {
    "int": st.integers(-2 ** 63, 2 ** 63),
    "int list": st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=4),
    "float": _FINITE,
    "float list": st.lists(_FINITE, max_size=4),
    "str": st.text(max_size=8),
    "bool": st.booleans(),
    "angle": _ANGLE,
    "angle list": st.lists(_ANGLE, max_size=4),
}


@st.composite
def _config_docs(draw):
    keys = draw(st.sets(st.sampled_from(
        [k for k in C.KEYS if k != "version"])))
    doc = {k: draw(_BY_KIND[C.KEYS[k].name]) for k in sorted(keys)}
    doc["version"] = C.CONFIG_VERSION
    return doc


@given(_config_docs())
def test_config_dump_load_dump_is_byte_stable(doc):
    cfg = C.validate_config(json.loads(json.dumps(doc)))
    text = json.dumps(C.echo_form(cfg))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        loaded = C.load_config(path)
    assert loaded == cfg
    assert json.dumps(C.echo_form(loaded)) == text
