"""Workload definitions: the CLI commands each workload runs, and the checks
that decide whether a command's outputs are correct.

A command is (label, argv, check).  ``check(out_dir, exit_code)`` returns a
list of problems; an empty list means the outputs passed.  Every command's
inputs derive from the workload seed alone.
"""

import csv
import json
import math
import os

SCHEDULE = "0,0.1,0.2,0.3,0.4,0.5"

GRAZING_ARGS = ["--family", "grazing", "--gamma", "-0.5", "--nu", "0.6"]

# Thresholds of the output checks; the sweep ones are acceptance criteria
# 11 and 12, the simulator ones criterion 7.
GRAZING_MIN_SLOPE = 0.3
SYMMETRIC_M2_RTOL = 1e-9
LANDAU_M2_DRIFT = 0.03
# W2 <= paired L2 holds exactly; the two sums run in different orders, so
# allow rounding when the optimal assignment is the identity.
W2_ROUNDING = 1e-12


def _load(out_dir, name):
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _finite(*values):
    return all(v is not None and math.isfinite(v) for v in values)


def _check_sweep(min_slope):
    def check(out_dir, code):
        problems = []
        if code != 0:
            problems.append(f"exit code {code} (verdict not 'decreasing')")
        summary = _load(out_dir, "sweep_summary.json")
        if summary["verdict"] != "decreasing":
            problems.append(f"verdict {summary['verdict']!r}")
        if not _finite(*summary["means"], summary["slope"]):
            problems.append("non-finite mean distance or slope")
        with open(os.path.join(out_dir, "sweep.csv"), encoding="utf-8",
                  newline="") as fh:
            dists = [float(row["paired_l2"]) for row in csv.DictReader(fh)]
        if not dists or not _finite(*dists):
            problems.append("missing or non-finite paired_l2 in sweep.csv")
        if min_slope is not None and not summary["slope"] >= min_slope:
            problems.append(f"slope {summary['slope']} < {min_slope}")
        return problems
    return check


def _check_boltzmann(mode):
    def check(out_dir, code):
        problems = [] if code == 0 else [f"exit code {code}"]
        diag = _load(out_dir, "diagnostics.json")
        if not diag[-1]["events"] > 0:
            problems.append("no collision events")
        if mode == "symmetric":
            m2_0, m2_1 = diag[0]["m2"], diag[-1]["m2"]
            if not abs(m2_1 / m2_0 - 1.0) <= SYMMETRIC_M2_RTOL:
                problems.append(f"m2 moved {m2_0!r} -> {m2_1!r}")
        return problems
    return check


def _check_landau(out_dir, code):
    problems = [] if code == 0 else [f"exit code {code}"]
    diag = _load(out_dir, "diagnostics.json")
    drift = abs(diag[-1]["m2"] / diag[0]["m2"] - 1.0)
    if not drift <= LANDAU_M2_DRIFT:
        problems.append(f"m2 drift {drift!r} > {LANDAU_M2_DRIFT}")
    return problems


def _check_coupled(out_dir, code):
    problems = [] if code == 0 else [f"exit code {code}"]
    s = _load(out_dir, "coupled_summary.json")
    keys = ("terminal_paired_l2", "sup_paired_l2", "terminal_w2",
            "m2_boltz", "m2_landau")
    if not _finite(*(s[k] for k in keys)):
        problems.append("non-finite coupled summary")
    elif not s["terminal_w2"] <= s["terminal_paired_l2"] * (1 + W2_ROUNDING):
        problems.append(f"terminal_w2 {s['terminal_w2']!r} > "
                        f"terminal_paired_l2 {s['terminal_paired_l2']!r}")
    return problems


def commands(workload, seed):
    """The (label, argv, check) list of a workload at a seed."""
    if workload == "grazing-sweep":
        seeds = f"{10 * seed}:{10 * seed + 10}"
        return [("rate_sweep", [
            "rate-sweep", *GRAZING_ARGS,
            "--eps-list", "pi/2,pi/4,pi/8,pi/16", "--n", "4096", "--T", "0.5",
            "--seeds", seeds], _check_sweep(GRAZING_MIN_SLOPE))]
    if workload == "coulomb-sweep":
        seeds = f"{10 * seed}:{10 * seed + 10}"
        return [("rate_sweep", [
            "rate-sweep", "--family", "coulomb",
            "--eps-list", "0.3,0.1,0.03,0.01", "--n", "2048", "--T", "0.3",
            "--seeds", seeds], _check_sweep(None))]
    if workload == "single-runs":
        boltz = ["simulate-boltzmann", *GRAZING_ARGS, "--eps", "pi/8",
                 "--n", "2048", "--dt", "0.05", "--T", "0.5",
                 "--schedule", SCHEDULE, "--seed", str(seed)]
        return [
            ("simulate_boltzmann_nanbu",
             boltz + ["--update-mode", "nanbu"], _check_boltzmann("nanbu")),
            ("simulate_boltzmann_symmetric",
             boltz + ["--update-mode", "symmetric"],
             _check_boltzmann("symmetric")),
            ("simulate_landau", [
                "simulate-landau", "--gamma", "-1", "--pairing",
                "conservative", "--m", "64", "--n", "4096", "--dt", "0.025",
                "--T", "0.5", "--schedule", SCHEDULE, "--seed", str(seed)],
             _check_landau),
            ("coupled_run", [
                "coupled-run", *GRAZING_ARGS, "--eps", "pi/16",
                "--n", "4096", "--T", "0.5", "--w2-mode", "terminal",
                "--seed", str(seed)], _check_coupled),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("grazing-sweep", "coulomb-sweep", "single-runs")

# Every command label any workload uses, for per-command metric names.
LABELS = ("rate_sweep", "simulate_boltzmann_nanbu",
          "simulate_boltzmann_symmetric", "simulate_landau", "coupled_run")
