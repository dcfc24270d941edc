"""Particle cloud container and initial-condition sampling."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError

__all__ = ["ParticleCloud", "sample_initial", "recenter", "speed_floor",
           "draw_companions"]


@dataclass
class ParticleCloud:
    """Velocities of an N-particle system at a simulation time.

    step_index counts completed steps and keys the per-step RNG substreams;
    events counts applied collision/diffusion updates (diagnostics only).
    """

    velocities: np.ndarray
    time: float = 0.0
    step_index: int = 0
    events: int = 0

    def __post_init__(self):
        v = np.asarray(self.velocities, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ParameterError(f"velocities must be (N, 3), got {v.shape}")
        if v.shape[0] < 2:
            raise ParameterError("need at least 2 particles")
        if not np.all(np.isfinite(v)):
            raise ParameterError("velocities must be finite")
        self.velocities = v

    @property
    def n(self) -> int:
        return self.velocities.shape[0]

    def copy(self) -> "ParticleCloud":
        return replace(self, velocities=self.velocities.copy())

    def m2(self) -> float:
        return float(np.mean(np.sum(self.velocities ** 2, axis=1)))

    def m4(self) -> float:
        return float(np.mean(np.sum(self.velocities ** 2, axis=1) ** 2))

    def max_speed(self) -> float:
        return float(np.max(np.linalg.norm(self.velocities, axis=1)))

    def momentum(self) -> np.ndarray:
        return self.velocities.sum(axis=0)


def speed_floor(value, cloud: ParticleCloud) -> float:
    """A configured speed floor (v_floor, reg_delta), or its default when
    None: 1e-3 of the cloud's RMS speed."""
    return 1e-3 * np.sqrt(cloud.m2()) if value is None else float(value)


def draw_companions(rng, owners, n, size=None):
    """Uniform companions among n particles, never the owner itself: one
    rng.integers(0, n - 1) call of size (default: owners' shape), each draw
    at or above its (broadcast) owner's index shifted up by one."""
    j = rng.integers(0, n - 1, size=np.shape(owners) if size is None else size)
    j += j >= owners
    return j


def recenter(v: np.ndarray) -> np.ndarray:
    """Shift velocities so the total momentum vanishes.

    Mean subtraction leaves a pairwise-summation residual of order
    N*eps*|v|; folding it into one particle brings the total below
    ~1e-13 absolute, which is as exact as a float64 reduction gets.
    """
    v = np.array(v, dtype=float)
    v -= v.mean(axis=0)
    v[0] -= v.sum(axis=0)
    return v


# each named initial distribution's parameters, with their defaults
_DISTS = {"isotropic-gaussian": {"sigma2": 1.0},
          "two-temperature": {"sigma2_cold": 0.5, "sigma2_hot": 2.0,
                              "hot_fraction": 0.5},
          "uniform-ball": {"radius": 1.0}}


def sample_initial(dist: dict, n: int, rng: np.random.Generator,
                   *, recenter_momentum: bool = False) -> ParticleCloud:
    """Draw an N-particle initial cloud from a named distribution.

    dist, by "name":
      isotropic-gaussian: {"sigma2": s}  — N(0, s·Id)
      two-temperature:    {"sigma2_cold": a, "sigma2_hot": b,
                           "hot_fraction": f} — Gaussian mixture
      uniform-ball:       {"radius": R} — uniform on the solid ball
    A parameter the named distribution does not take is an error.
    """
    if n < 2:
        raise ParameterError("need at least 2 particles")
    name = dist.get("name")
    if name not in _DISTS:
        raise ParameterError(f"unknown initial distribution {name!r}")
    unread = sorted(set(dist) - {"name"} - set(_DISTS[name]))
    if unread:
        raise ParameterError(f"initial distribution {name!r} does not take "
                             f"{', '.join(map(repr, unread))}")
    par = {k: float(dist.get(k, value)) for k, value in _DISTS[name].items()}
    if name == "isotropic-gaussian":
        if par["sigma2"] <= 0:
            raise ParameterError("sigma2 must be positive")
        v = rng.normal(scale=np.sqrt(par["sigma2"]), size=(n, 3))
    elif name == "two-temperature":
        a, b, f = par["sigma2_cold"], par["sigma2_hot"], par["hot_fraction"]
        if not (a > 0 and b > 0 and 0.0 <= f <= 1.0):
            raise ParameterError("bad mixture parameters")
        hot = rng.random(n) < f
        scale = np.where(hot, np.sqrt(b), np.sqrt(a))
        v = rng.normal(size=(n, 3)) * scale[:, None]
    else:
        if par["radius"] <= 0:
            raise ParameterError("radius must be positive")
        u = rng.normal(size=(n, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = par["radius"] * rng.random(n) ** (1.0 / 3.0)
        v = u * r[:, None]
    if recenter_momentum:
        v = recenter(v)
    return ParticleCloud(velocities=v)
