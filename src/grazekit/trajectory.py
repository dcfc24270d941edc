"""Snapshot schedule handling shared by the two particle simulators."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .metrics import entropy_knn
from .particles import ParticleCloud

__all__ = ["Trajectory", "snapshot_diagnostics", "run_schedule"]


@dataclass
class Trajectory:
    """Ordered snapshots of a particle run plus per-snapshot diagnostics."""

    clouds: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)

    def append(self, cloud: ParticleCloud):
        self.clouds.append(cloud.copy())
        self.diagnostics.append(snapshot_diagnostics(cloud))

    @property
    def times(self):
        return [c.time for c in self.clouds]


def snapshot_diagnostics(cloud: ParticleCloud) -> dict:
    """Scalar diagnostics emitted with every snapshot.

    The entropy estimate needs at least k+1 = 5 points; tiny validation
    clouds get NaN there rather than an error.
    """
    if cloud.n >= 5:
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


def run_schedule(cloud, step_fn, T, dt, schedule=None):
    """Advance a cloud with ``step_fn`` and snapshot at the scheduled times.

    Steps have fixed length dt; each requested snapshot s is emitted after
    ceil((s - t0)/dt) steps from the starting cloud's time t0, i.e. at the
    first step boundary at or after it (choose dt so the times of interest
    sit on the grid).  Steps are counted as integers, so rounding in the
    accumulated cloud.time never adds a step.  An empty or None schedule means a single snapshot at
    the horizon T.  T = 0 returns the initial cloud only.
    """
    if not (T >= 0.0) or not np.isfinite(T):
        raise ParameterError("horizon T must be finite and >= 0")
    if schedule is None or len(schedule) == 0:
        targets = [float(T)]
    else:
        targets = sorted({float(s) for s in schedule})
    if targets[0] < 0.0 or targets[-1] > T + 1e-12:
        raise ParameterError("snapshot times must lie in [0, T]")

    traj = Trajectory()
    t0, taken = cloud.time, 0
    for s in targets:
        need = math.ceil((s - t0) / dt - 1e-9)
        while taken < need:
            cloud = step_fn(cloud)
            taken += 1
        traj.append(cloud)
    return traj
