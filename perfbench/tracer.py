"""Spans around the calls into each grazekit layer, recorded from outside.

The tracer replaces a module attribute with a wrapper that records a span
(name, start, end, parent, workload) and then calls the original function.
Python resolves a name at call time in the namespace of the caller, so the
attribute to wrap is the one the caller looks up: ``cli`` imports
``rate_sweep``, ``coupled_run`` and ``sample_initial`` by name, and
``coupling`` imports ``w2_exact`` and ``sample_initial`` by name.  The
program itself is unchanged; ``restore`` puts every original back.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its children (calls are single-threaded,
so children never overlap).
"""

import contextlib
import math
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int = -1
    workload: str = ""
    attrs: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self._stack = []
        self._originals = []

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the benchmark itself."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               workload=self.workload))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    def wrap(self, owner, attr, name, on_return=None):
        """Record a span named `name` around every call of owner.attr;
        on_return(attrs, args, result) records counts after the
        span closes."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if on_return is not None:
                on_return(span.attrs, args, result)
            return result

        setattr(owner, attr, traced)
        self._originals.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def records(self):
        """Spans as plain dicts, for writing out."""
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "workload": s.workload,
                 "self_s": s.self_s, **s.attrs} for s in self.spans]


# ---------------------------------------------------------------------------
# grazekit instrumentation
# ---------------------------------------------------------------------------

ARTIFACT_FUNCTIONS = ("snapshots_csv_text", "diagnostics_json_text",
                      "coupled_csv_text", "coupled_summary_json_text",
                      "sweep_csv_text", "sweep_summary_json_text",
                      "write_artifacts")


def _theta_min(config):
    """The smallest simulated angle: the Coulomb support bottom, else the
    configured theta_min, else eps/64 (grazing) or pi/256 (soft), as
    documented on grazekit.boltzmann.BoltzmannConfig."""
    from grazekit.kernels import CoulombKernel, GrazingKernel

    kernel = config.kernel
    if isinstance(kernel, CoulombKernel):
        return kernel.eps
    if config.theta_min is not None:
        return config.theta_min
    if isinstance(kernel, GrazingKernel):
        return kernel.eps / 64.0
    return math.pi / 256.0


def _boltzmann_step(attrs, args, out):
    cloud, config = args[0], args[1]
    kernel = config.kernel
    # majorant candidate rate per owner, 2 pi H(theta_min) Phi(v_floor) dt;
    # run() has already resolved v_floor on the config it passes to step()
    lam = (2.0 * math.pi * float(kernel.tail.H(_theta_min(config)))
           * float(kernel.phi(max(config.v_floor, 0.0))) * config.dt)
    owners = cloud.n if config.update_mode == "nanbu" else cloud.n // 2
    attrs.update(mode=config.update_mode, events=out.events - cloud.events,
                 candidates=lam * owners)


def _landau_step(attrs, args, out):
    attrs["pair_evals"] = out.events - args[0].events


def _coupled_run(attrs, args, out):
    attrs.update(eps=args[0].kernel.eps, slabs=len(out.times) - 1,
                 jumps=int(out.events))


def _write_artifacts(attrs, args, paths):
    attrs["bytes"] = sum(os.path.getsize(p) for p in paths)


def instrument(tracer):
    """Wrap the public functions of every grazekit layer the workloads
    reach."""
    from grazekit import (artifacts, boltzmann, cli, coupling, landau,
                          rngstreams, trajectory)

    tracer.wrap(cli, "rate_sweep", "coupling.rate_sweep")
    tracer.wrap(cli, "coupled_run", "coupling.coupled_run", _coupled_run)
    tracer.wrap(coupling, "coupled_run", "coupling.coupled_run", _coupled_run)
    tracer.wrap(coupling, "w2_exact", "metrics.w2_exact")
    tracer.wrap(cli, "sample_initial", "particles.sample_initial")
    tracer.wrap(coupling, "sample_initial", "particles.sample_initial")
    tracer.wrap(boltzmann, "step", "boltzmann.step", _boltzmann_step)
    tracer.wrap(landau, "step", "landau.step", _landau_step)
    tracer.wrap(trajectory, "snapshot_diagnostics",
                "trajectory.snapshot_diagnostics")
    tracer.wrap(rngstreams, "stream", "rngstreams.stream")
    for fn in ARTIFACT_FUNCTIONS:
        tracer.wrap(artifacts, fn, "artifacts." + fn,
                    _write_artifacts if fn == "write_artifacts" else None)
