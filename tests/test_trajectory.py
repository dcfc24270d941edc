"""Snapshot scheduling: step counts land on the requested time grid."""

import numpy as np
import pytest

from grazekit.particles import ParticleCloud
from grazekit.trajectory import run_schedule


def _counting_step(dt):
    calls = []

    def step_fn(cloud):
        # accumulate time by repeated addition, as the simulators do
        cloud.time += dt
        cloud.step_index += 1
        calls.append(1)
        return cloud

    return step_fn, calls


def _cloud(time=0.0):
    return ParticleCloud(velocities=np.array([[1.0, 0, 0], [-1.0, 0, 0]]),
                         time=time)


def test_long_run_takes_exactly_T_over_dt_steps():
    # 10^5 repeated additions of 1e-4 fall short of 10 by more than the old
    # 1e-9*dt tolerance, which used to add a 100 001st step
    step_fn, calls = _counting_step(1e-4)
    traj = run_schedule(_cloud(), step_fn, 10.0, 1e-4)
    assert len(calls) == 100_000
    assert traj.clouds[-1].step_index == 100_000


def test_snapshots_land_on_step_counts_from_start_time():
    step_fn, calls = _counting_step(0.05)
    traj = run_schedule(_cloud(time=0.25), step_fn, 1.0, 0.05,
                        schedule=[0.25, 0.35, 0.55, 0.58, 0.75])
    assert [c.step_index for c in traj.clouds] == [0, 2, 6, 7, 10]
    assert len(calls) == 10
    assert traj.clouds[2].time == pytest.approx(0.55, rel=1e-12)
