"""grazekit benchmark: one workload, one fresh worker process, one result.

    python3 perfbench/run.py --workload grazing-sweep --seed 0 \
        --seconds 25 --trace 0

Run from the repository root.  The metric names and units come from
BENCHMARK.json: --trace 0 prints its end_to_end metrics, --trace 1 its
per_layer metrics.  The last line of standard output is the result,
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
details (per-command times, output checks, artifact hashes, repeat checks,
provenance).  Everything the run writes stays under perfbench/out/.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import uuid

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 5  # set-up times per run: workers' own, then set-up-only
SETUP_SNIPPET = ("import time; t = time.perf_counter(); "
                 "import grazekit.cli as c; c.build_parser(); "
                 "print(time.perf_counter() - t)")
TIME_LIMIT_S = 170.0
REPEAT_COUNTS = ("coupling.jumps", "boltzmann.nanbu.events",
                 "boltzmann.symmetric.events", "landau.pair_evals",
                 "trajectory.snapshots", "artifacts.bytes")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _child_env(nproc):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    for var in THREAD_VARS:
        env[var] = str(nproc)
    return env


def _code_hash():
    """sha256 over the package sources and the workload definitions: runs
    with equal hashes ran the same code on the same commands."""
    h = hashlib.sha256()
    paths = [os.path.join(HERE, "workloads.py")]
    for base, _, files in os.walk(os.path.join(SRC, "grazekit")):
        paths += [os.path.join(base, f) for f in files if f.endswith(".py")]
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _provenance(nproc, env):
    lines = 0
    for base, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(base, f), encoding="utf-8") as fh:
                    lines += sum(1 for line in fh if line.strip())
    versions = subprocess.run(
        [sys.executable, "-c",
         "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": versions[0], "scipy": versions[1], "git_commit": commit,
            "code_sha256": _code_hash(),
            "thread_caps": {v: env[v] for v in THREAD_VARS},
            "src_nonblank_lines": lines, "machine": platform.machine()}


def _setup_samples(env, count, deadline):
    samples = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env,
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=max(deadline - time.monotonic(), 1.0),
                             check=True)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def _run_worker(args, trace, env, work_dir, deadline):
    """One repetition of the workload in a fresh worker process."""
    result_path = os.path.join(work_dir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace), "--work-dir", work_dir,
           "--result", result_path]
    # the worker's own output (CLI status lines, tracebacks) goes to stderr
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        _fail(f"worker did not finish within {TIME_LIMIT_S:.0f} s")
    if code != 0:
        _fail(f"worker exited with code {code}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _repetitions(args, env, work_dir, deadline):
    """--trace 1: one untraced and one traced repetition.  --trace 0:
    repetitions while the next one, as long as the last, still fits in
    --seconds (at least one)."""
    if args.trace:
        return [_run_worker(args, trace, env, work_dir, deadline)
                for trace in (0, 1)]
    reps = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        reps.append(_run_worker(args, 0, env, work_dir, deadline))
        now = time.monotonic()
        if now - start + (now - t) > args.seconds:
            return reps


def _trace_metrics(untraced, traced):
    """Per-layer metrics of the traced repetition, per-command times of the
    untraced one, and the tracing overhead between the two."""
    m = dict(traced["layers"])
    for label in workloads.LABELS:
        m[f"cli.{label}_s"] = sum(c["seconds"] for c in untraced["commands"]
                                 if c["label"] == label)
    m["trace.wall_s"] = traced["wall_s"]
    m["trace.untraced_wall_s"] = untraced["wall_s"]
    m["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    m["trace.layer_share"] = 1.0 - m["cli.self_s"] / traced["wall_s"]
    return m


def _read_records(path):
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _repeat_check(record, reps, previous):
    """Deterministic outputs and counts must not change between
    repetitions of the same code and seed, in this run or in earlier runs
    recorded in this checkout."""
    problems = []
    first = {c["label"]: c["hashes"] for c in reps[0]["commands"]}
    for i, rep in enumerate(reps[1:], 1):
        for c in rep["commands"]:
            if c["hashes"] != first[c["label"]]:
                problems.append(f"{c['label']}: artifact hashes differ "
                                f"between repetitions 0 and {i}")
    same = [r for r in previous if r["code_sha256"] == record["code_sha256"]
            and r["workload"] == record["workload"]
            and r["seed"] == record["seed"]]
    for r in same:
        for label, hashes in record["hashes"].items():
            if label in r["hashes"] and r["hashes"][label] != hashes:
                problems.append(f"{label}: artifact hashes differ from the "
                                f"run of {r['when']}")
        for key, value in record.get("counts", {}).items():
            old = r.get("counts", {}).get(key)
            if old is not None and old != value:
                problems.append(f"{key}: {value} here, {old} in the run of "
                                f"{r['when']}")
    return {"compared_runs": len(same), "problems": problems}


def _bit_identical(workload, seed, hashes):
    """Whether the artifacts equal those recorded for this workload and
    seed at the baseline commit (None when that seed was not recorded)."""
    with open(os.path.join(HERE, "baseline_hashes.json"),
              encoding="utf-8") as fh:
        baseline = json.load(fh)
    recorded = baseline["hashes"].get(workload, {}).get(str(seed))
    if recorded is None:
        return {"baseline_commit": baseline["commit"], "identical": None}
    differ = sorted(label for label in recorded
                    if recorded[label] != hashes.get(label))
    return {"baseline_commit": baseline["commit"], "identical": not differ,
            "differing_commands": differ}


def main(argv=None):
    ap = argparse.ArgumentParser(description="grazekit benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "grazekit", "cli.py")):
        _fail(f"no grazekit sources under {SRC}; run from a checkout")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # build: byte-compile the package so set-up times measure imports only
    if not compileall.compile_dir(SRC, quiet=1):
        _fail("byte-compiling the package failed")
    nproc = len(os.sched_getaffinity(0))
    env = _child_env(nproc)
    provenance = _provenance(nproc, env)

    os.makedirs(OUT, exist_ok=True)
    work_dir = os.path.join(OUT, "work-" + uuid.uuid4().hex)
    os.makedirs(work_dir)
    try:
        reps = _repetitions(args, env, work_dir, deadline)
        setup = [r["setup_s"] for r in reps]
        if not args.trace:
            setup += _setup_samples(env, max(SETUP_SAMPLES - len(reps), 0),
                                    deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    commands = [c for r in reps for c in r["commands"]]
    failed = sum(1 for c in commands if c["problems"])
    hashes = {c["label"]: c["hashes"] for c in reps[0]["commands"]}
    per_command = {}
    for c in reps[0]["commands"] if args.trace else commands:
        per_command.setdefault(c["label"], []).append(c["seconds"])

    if args.trace:
        metrics = _trace_metrics(*reps)
    else:
        metrics = {"wall_s": statistics.median(r["wall_s"] for r in reps),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                                    for r in reps)}

    record = {"when": time.strftime("%Y-%m-%dT%H:%M:%S"),
              "workload": args.workload, "seed": args.seed,
              "trace": args.trace, "code_sha256": provenance["code_sha256"],
              "hashes": hashes}
    if args.trace:
        record["counts"] = {k: metrics[k] for k in REPEAT_COUNTS}
    runs_path = os.path.join(OUT, "runs.jsonl")
    repeat = _repeat_check(record, reps, _read_records(runs_path))
    for p in repeat["problems"]:
        print(f"repeat check failed: {p}", file=sys.stderr)
    with open(runs_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**record, "metrics": metrics}) + "\n")
    if args.trace:
        spans_path = os.path.join(
            OUT, f"spans-{args.workload}-{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(reps[1]["spans"], fh)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        _fail(f"metrics not measured: {missing}")
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "repetitions": len(reps),
        "command_seconds": per_command,
        "setup_samples_s": setup,
        "failures": [{"label": c["label"], "problems": c["problems"]}
                     for c in commands if c["problems"]],
        "repeat_check": repeat,
        "bit_identical": _bit_identical(args.workload, args.seed, hashes),
        "artifact_hashes": hashes,
        "provenance": provenance,
    }
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0 and not repeat["problems"],
        "attempted": len(commands), "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
