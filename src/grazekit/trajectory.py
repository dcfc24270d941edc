"""The one step loop of the two particle simulators, their run checks,
and the snapshot schedule and step bookkeeping they share."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InstabilityError, ParameterError
from .metrics import _KNN_K, entropy_knn
from .particles import ParticleCloud

__all__ = ["Trajectory", "snapshot_diagnostics", "run_schedule",
           "check_run_config", "check_cloud_size", "next_cloud",
           "check_finite"]


@dataclass
class Trajectory:
    """Ordered snapshots of a particle run plus per-snapshot diagnostics."""

    clouds: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)

    def append(self, cloud: ParticleCloud):
        self.clouds.append(cloud.copy())
        self.diagnostics.append(snapshot_diagnostics(cloud))


def snapshot_diagnostics(cloud: ParticleCloud) -> dict:
    """Scalar diagnostics emitted with every snapshot.

    The entropy estimate needs more than metrics._KNN_K points; tiny
    validation clouds get NaN there rather than an error.
    """
    if cloud.n > _KNN_K:
        entropy = float(entropy_knn(cloud.velocities))
    else:
        entropy = float("nan")
    return {
        "t": float(cloud.time),
        "m2": cloud.m2(),
        "m4": cloud.m4(),
        "entropy": entropy,
        "max_speed": cloud.max_speed(),
        "events": int(cloud.events),
    }


def run_schedule(cloud, config, step, schedule=None):
    """Advance a cloud by step(cloud, config, config.step_stream(k)) at
    step index k, and snapshot at the scheduled times.

    Steps have fixed length config.dt; each requested snapshot s is emitted
    after ceil((s - t0)/dt) steps from the starting cloud's time t0, i.e. at
    the first step boundary at or after it (choose dt so the times of
    interest sit on the grid).  Steps are counted as integers, so rounding
    in the accumulated cloud.time never adds a step.  An empty or None
    schedule means a single snapshot at the horizon config.T.  T = 0
    returns the initial cloud only.
    """
    check_cloud_size(cloud, config)
    T, dt = config.T, config.dt
    if schedule is None or len(schedule) == 0:
        targets = [float(T)]
    else:
        targets = sorted({float(s) for s in schedule})
    if not all(0.0 <= s <= T + 1e-12 for s in targets):
        raise ParameterError("snapshot times must lie in [0, T]")

    traj = Trajectory()
    t0, taken = cloud.time, 0
    for s in targets:
        need = math.ceil((s - t0) / dt - 1e-9)
        while taken < need:
            cloud = step(cloud, config, config.step_stream(cloud.step_index))
            taken += 1
        traj.append(cloud)
    return traj


def check_run_config(config):
    """The run checks of both simulator configs: n >= 2, 0 < dt < inf and
    0 <= T < inf."""
    if config.n < 2:
        raise ParameterError("need at least 2 particles")
    if not (0.0 < config.dt < math.inf):
        raise ParameterError("dt must be positive and finite")
    if not (0.0 <= config.T < math.inf):
        raise ParameterError("T must be finite and >= 0")


def check_cloud_size(cloud, config):
    if cloud.n != config.n:
        raise ParameterError(
            f"cloud has {cloud.n} particles but config says {config.n}")


def next_cloud(cloud, velocities, dt, events):
    """The cloud one step of length dt later, with `events` more events.
    Raises InstabilityError (with the offending particle indices) if any
    velocity is non-finite."""
    check_finite(f"velocities after step {cloud.step_index}", velocities)
    return ParticleCloud(velocities=velocities, time=cloud.time + dt,
                         step_index=cloud.step_index + 1,
                         events=cloud.events + events)


def check_finite(where, *velocities):
    """Raise InstabilityError "non-finite <where>", with the indices of the
    offending particles, unless every row of each (n, 3) velocity array is
    finite."""
    bad = ~np.logical_and.reduce([np.all(np.isfinite(v), axis=1)
                                  for v in velocities])
    if np.any(bad):
        idx = np.where(bad)[0]
        raise InstabilityError(
            f"non-finite {where} (first indices {idx[:8].tolist()})",
            indices=idx)
