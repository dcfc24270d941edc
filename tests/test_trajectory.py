"""Snapshot scheduling: step counts land on the requested time grid."""

from dataclasses import dataclass

import numpy as np
import pytest

from grazekit.errors import ParameterError
from grazekit.particles import ParticleCloud
from grazekit.trajectory import run_schedule


@dataclass(frozen=True)
class _Config:
    T: float
    dt: float
    n: int = 2

    def step_stream(self, k):
        return ("stream", k)


def _counting_step():
    calls = []

    def step(cloud, config, rng):
        # accumulate time by repeated addition, as the simulators do
        calls.append(rng)
        cloud.time += config.dt
        cloud.step_index += 1
        return cloud

    return step, calls


def _cloud(time=0.0):
    return ParticleCloud(velocities=np.array([[1.0, 0, 0], [-1.0, 0, 0]]),
                         time=time)


def test_long_run_takes_exactly_T_over_dt_steps():
    # 10^5 repeated additions of 1e-4 fall short of 10 by more than the old
    # 1e-9*dt tolerance, which used to add a 100 001st step
    step, calls = _counting_step()
    traj = run_schedule(_cloud(), _Config(T=10.0, dt=1e-4), step)
    assert len(calls) == 100_000
    assert traj.clouds[-1].step_index == 100_000


def test_snapshots_land_on_step_counts_from_start_time():
    step, calls = _counting_step()
    traj = run_schedule(_cloud(time=0.25), _Config(T=1.0, dt=0.05), step,
                        schedule=[0.25, 0.35, 0.55, 0.58, 0.75])
    assert [c.step_index for c in traj.clouds] == [0, 2, 6, 7, 10]
    assert len(calls) == 10
    assert traj.clouds[2].time == pytest.approx(0.55, rel=1e-12)


def test_each_step_draws_the_stream_of_its_step_index():
    step, calls = _counting_step()
    cloud = _cloud()
    cloud.step_index = 3
    run_schedule(cloud, _Config(T=0.2, dt=0.05), step)
    assert calls == [("stream", k) for k in (3, 4, 5, 6)]


@pytest.mark.parametrize("schedule", [[0.1, float("nan")], [float("inf")]])
def test_non_finite_snapshot_times_are_refused(schedule):
    # NaN fails the range check rather than reaching math.ceil
    step, calls = _counting_step()
    with pytest.raises(ParameterError, match=r"snapshot times"):
        run_schedule(_cloud(), _Config(T=0.5, dt=0.1), step, schedule)
    assert not calls


def test_cloud_size_must_match_the_config():
    step, calls = _counting_step()
    with pytest.raises(ParameterError, match="particles"):
        run_schedule(_cloud(), _Config(T=0.5, dt=0.1, n=3), step)
    assert not calls
