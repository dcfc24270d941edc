"""Run one repetition of a workload in this fresh process; write raw results.

    python3 perfbench/worker.py --workload W --seed S --trace 0|1
        --work-dir DIR --result FILE

Every command goes through ``grazekit.cli.main(argv)`` in-process, with its
artifacts in a directory under DIR that is removed once the outputs have
been checked and hashed.  With --trace 1 the calls into each grazekit layer
are recorded as spans and summarized into per-layer metrics.

Each repetition gets its own process because that is what a CLI user pays
for: grazekit memoizes kernel moments with functools.lru_cache, so a second
repetition in the same process would skip work that every CLI call does.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from collections import defaultdict

import tracer as tracing
import workloads


def _hashes(out_dir):
    """Output file -> blob sha1, as recorded in the command's manifest."""
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    return {name: o["sha1"] for name, o in manifest["outputs"].items()}


def _run_command(cli, label, argv, check, out_dir, tracer):
    block = tracer.span("cli." + label) if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with block:
            code = cli.main(argv + ["--out-dir", out_dir])
    except Exception:  # a command that raises is a failed operation
        seconds = time.perf_counter() - t0
        traceback.print_exc()
        return {"label": label, "seconds": seconds,
                "problems": ["raised " + traceback.format_exc(limit=1)],
                "hashes": {}}
    seconds = time.perf_counter() - t0
    try:
        problems = check(out_dir, code)
        hashes = _hashes(out_dir)
    except (OSError, ValueError, KeyError, TypeError, ArithmeticError) as exc:
        problems, hashes = [f"unreadable outputs: {exc!r}"], {}
    for p in problems:
        print(f"check failed [{label}]: {p}", file=sys.stderr)
    return {"label": label, "seconds": seconds, "problems": problems,
            "hashes": hashes}


def run_repetition(cli, cmds, work_dir, tracer=None):
    results = []
    for label, argv, check in cmds:
        out_dir = os.path.join(work_dir, label)
        results.append(_run_command(cli, label, argv, check, out_dir, tracer))
        shutil.rmtree(out_dir, ignore_errors=True)
    return {"wall_s": sum(r["seconds"] for r in results), "commands": results}


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced repetition
# ---------------------------------------------------------------------------

def layer_metrics(spans):
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_s(name):
        return sum(s.self_s for s in by_name[name])

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    runs = by_name["coupling.coupled_run"]
    jumps = sum(s.attrs["jumps"] for s in runs)
    m["coupling.cells"] = len(runs)
    m["coupling.slabs"] = sum(s.attrs["slabs"] for s in runs)
    m["coupling.jumps"] = jumps
    m["coupling.self_s"] = self_s("coupling.coupled_run")
    m["coupling.ns_per_jump"] = ratio(m["coupling.self_s"], jumps, 1e9)
    eps_min = min((s.attrs["eps"] for s in runs), default=None)
    m["coupling.smallest_eps_s"] = sum(
        s.duration for s in runs if s.attrs["eps"] == eps_min)
    m["coupling.sweep_self_s"] = self_s("coupling.rate_sweep")

    for mode in ("nanbu", "symmetric"):
        steps = [s for s in by_name["boltzmann.step"]
                 if s.attrs["mode"] == mode]
        events = sum(s.attrs["events"] for s in steps)
        step_s = sum(s.self_s for s in steps)
        key = "boltzmann." + mode + "."
        m[key + "steps"] = len(steps)
        m[key + "events"] = events
        m[key + "step_s"] = step_s
        m[key + "us_per_event"] = ratio(step_s, events, 1e6)
        m[key + "accept_ratio"] = ratio(
            events, sum(s.attrs["candidates"] for s in steps))

    lsteps = by_name["landau.step"]
    pairs = sum(s.attrs["pair_evals"] for s in lsteps)
    m["landau.steps"] = len(lsteps)
    m["landau.pair_evals"] = pairs
    m["landau.step_s"] = self_s("landau.step")
    m["landau.ns_per_pair"] = ratio(m["landau.step_s"], pairs, 1e9)

    m["metrics.w2_exact_calls"] = len(by_name["metrics.w2_exact"])
    m["metrics.w2_exact_s"] = self_s("metrics.w2_exact")
    m["trajectory.snapshots"] = len(by_name["trajectory.snapshot_diagnostics"])
    m["trajectory.snapshot_diagnostics_s"] = self_s(
        "trajectory.snapshot_diagnostics")
    m["rngstreams.streams"] = len(by_name["rngstreams.stream"])
    m["rngstreams.stream_s"] = self_s("rngstreams.stream")
    m["particles.sample_initial_s"] = self_s("particles.sample_initial")
    m["artifacts.bytes"] = sum(s.attrs["bytes"]
                               for s in by_name["artifacts.write_artifacts"])
    m["artifacts.render_write_s"] = sum(
        s.self_s for s in spans if s.name.startswith("artifacts."))

    # cli.* spans are the benchmark's own, one per command: their self time
    # is whatever no wrapped layer accounts for
    m["cli.self_s"] = sum(s.self_s for s in spans if s.name.startswith("cli."))
    m["trace.spans"] = len(spans)
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    from grazekit import cli
    cli.build_parser()
    setup_s = time.perf_counter() - t0

    cmds = workloads.commands(args.workload, args.seed)
    result = {"setup_s": setup_s}
    if args.trace:
        tracer = tracing.Tracer(args.workload)
        tracing.instrument(tracer)
        try:
            result.update(run_repetition(cli, cmds, args.work_dir, tracer))
        finally:
            tracer.restore()
        result["layers"] = layer_metrics(tracer.spans)
        result["spans"] = tracer.records()
    else:
        result.update(run_repetition(cli, cmds, args.work_dir))
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
