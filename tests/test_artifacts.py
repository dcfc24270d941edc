"""Tests for artifact emitters: fixed schemas, determinism, manifest hashes.

The git-blob hashes are checked against the two universally known values
(printf 'hello\\n' | git hash-object --stdin, and the empty blob), so the
manifest hashing agrees with real git.
"""

import json
import math
from types import SimpleNamespace

import numpy as np

from grazekit.artifacts import (coupled_csv_text, coupled_summary_json_text,
                                diagnostics_json_text, git_blob_sha1,
                                json_text, manifest_text, snapshots_csv_text,
                                sweep_csv_text, sweep_summary_json_text,
                                verifier_table_csv_text, write_artifacts)
from grazekit.particles import ParticleCloud
from grazekit.trajectory import Trajectory

DIAG_KEYS = ["t", "m2", "m4", "entropy", "max_speed", "events"]


def small_trajectory(n=6, snapshots=2, seed=0):
    rng = np.random.default_rng(seed)
    traj = Trajectory()
    for k in range(snapshots):
        cloud = ParticleCloud(velocities=rng.normal(size=(n, 3)))
        cloud.time = 0.5 * k
        cloud.events = 10 * k
        traj.append(cloud)
    return traj


def fake_coupled(times):
    m = len(times)
    return SimpleNamespace(
        times=np.asarray(times, dtype=float),
        paired_l2=np.linspace(0.0, 0.2, m),
        terminal_w2=np.nan,
        m2_boltz=np.full(m, 3.0),
        m2_landau=np.full(m, 3.01),
        sup_paired_l2=0.2,
        events=123,
        exact_jumps=45)


def test_snapshots_csv_schema():
    traj = small_trajectory(n=4, snapshots=3)
    text = snapshots_csv_text(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,particle,vx,vy,vz"
    assert len(lines) == 1 + 3 * 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and int(first[1]) == 0
    # repr round-trip: the parsed floats equal the source bit-for-bit
    v000 = traj.clouds[0].velocities[0, 0]
    assert float(first[2]) == v000


def test_snapshots_csv_deterministic():
    a = snapshots_csv_text(small_trajectory(seed=3))
    b = snapshots_csv_text(small_trajectory(seed=3))
    assert a == b


def test_snapshots_csv_matches_per_scalar_form():
    """Rows come from tolist() and repr; the text is that of repr(float(x))
    per numpy scalar, signed zeros, subnormals and non-finite values too."""
    odd = np.array([[-0.0, 0.0, 5e-324], [np.nan, -np.inf, np.inf],
                    [-2.2250738585072014e-308, 1e-310, 1.0 / 3.0],
                    [1e300, -7.0, 0.1]])
    clouds = [SimpleNamespace(time=t, velocities=v) for t, v in
              ((0.0, odd), (0.25, np.random.default_rng(5).normal(size=(9, 3))),
               (-0.0, odd[::-1].copy()))]
    lines = ["t,particle,vx,vy,vz"]
    for cloud in clouds:
        t = repr(float(cloud.time))
        for i, (vx, vy, vz) in enumerate(cloud.velocities):
            lines.append(f"{t},{i},{repr(float(vx))},{repr(float(vy))},"
                         f"{repr(float(vz))}")
    text = snapshots_csv_text(SimpleNamespace(clouds=clouds))
    assert text == "\n".join(lines) + "\n"
    assert "-0.0,0.0,5e-324" in text and "nan,-inf,inf" in text


def test_diagnostics_json_key_order_and_nan():
    traj = small_trajectory(n=6, snapshots=2)
    body = json.loads(diagnostics_json_text(traj))
    assert [list(entry) for entry in body] == [DIAG_KEYS, DIAG_KEYS]
    assert body[1]["events"] == 10

    tiny = Trajectory()
    tiny.append(ParticleCloud(velocities=np.eye(3)[:2]))
    entry = json.loads(diagnostics_json_text(tiny))[0]
    assert entry["entropy"] is None  # NaN entropy becomes JSON null


def test_coupled_csv_and_summary():
    res = fake_coupled([0.0, 0.1, 0.3])
    lines = coupled_csv_text(res).strip().split("\n")
    assert lines[0] == "t,paired_l2,m2_boltz,m2_landau"
    assert len(lines) == 4
    assert lines[1] == "0.0,0.0,3.0,3.01"
    summary = json.loads(coupled_summary_json_text(res))
    assert summary["terminal_paired_l2"] == 0.2
    assert summary["terminal_w2"] is None
    assert summary["events"] == 123
    assert summary["exact_jumps"] == 45


def test_sweep_csv_and_summary_schema():
    eps_list = (math.pi / 2, math.pi / 4)
    seeds = (0, 1, 2)
    series = {(e, s): fake_coupled([0.0, 0.5]) for e in eps_list
              for s in seeds}
    report = SimpleNamespace(
        family="grazing", eps_list=eps_list, seeds=seeds, p=5,
        means=np.array([0.5, 0.4]), stderrs=np.array([0.01, 0.01]),
        slope=0.4, slope_stderr=0.02, intercept=-1.0,
        proven_exponent=5.0 / 13.0, conjectured_exponent=1.0,
        verdict="decreasing", series=series, theta_g=(0.19, 0.09),
        exact_cap=640, exact_share=(0.25, 0.5),
        m2_drift_stats={
            "m2_drift_boltz": {"means": np.array([0.4, 0.45]),
                               "stderrs": np.array([0.006, 0.005])},
            "m2_drift_landau": {"means": np.array([0.46, 0.47]),
                                "stderrs": np.array([0.007, 0.006])}})
    lines = sweep_csv_text(report).strip().split("\n")
    assert lines[0] == "eps,seed,t,paired_l2,m2_boltz,m2_landau"
    assert len(lines) == 1 + 2 * 3 * 2
    # eps column carries the exact float, seed the int
    cell = lines[1].split(",")
    assert float(cell[0]) == math.pi / 2 and cell[1] == "0"

    summary = json.loads(sweep_summary_json_text(report))
    for key in ("family", "eps_list", "seeds", "means", "stderrs", "slope",
                "slope_stderr", "intercept", "verdict"):
        assert key in summary
    assert summary["verdict"] == "decreasing"
    # the keys after the fit: theta_g and both drifts, one entry per eps
    assert list(summary)[-3:] == ["theta_g", "m2_drift_boltz",
                                  "m2_drift_landau"]
    assert summary["theta_g"] == [0.19, 0.09]
    assert list(summary)[-5:-3] == ["exact_cap", "exact_share"]
    assert summary["exact_cap"] == 640
    assert summary["exact_share"] == [0.25, 0.5]
    assert summary["m2_drift_landau"] == {"means": [0.46, 0.47],
                                          "stderrs": [0.007, 0.006]}


def test_verifier_table_text():
    rows = [("alpha", 1e-12, 1e-8, True), ("beta", 3.5, 2.0, False)]
    lines = verifier_table_csv_text(rows).strip().split("\n")
    assert lines[0] == "check,measured,bound,passed"
    assert lines[1].endswith(",pass") and lines[2].endswith(",fail")
    assert lines[2].startswith("beta,3.5,2.0,")


def test_git_blob_sha1_known_values():
    assert git_blob_sha1(b"hello\n") == \
        "ce013625030ba8dba906f756967f9e9ca394464a"
    assert git_blob_sha1(b"") == \
        "e69de29bb2d1d6434b8b29ae775ad8c2e48c5391"


def test_json_text_rejects_nothing_finite():
    body = json.loads(json_text({"a": float("inf"), "b": [1.0, float("nan")]}))
    assert body == {"a": None, "b": [1.0, None]}


def test_manifest_changes_iff_output_bytes_change(tmp_path):
    echo = {"version": 1, "family": "soft"}
    files = {"a.csv": "x,y\n1,2\n", "b.json": "{}\n"}
    m1 = manifest_text(echo, 7, files)
    m2 = manifest_text(echo, 7, dict(files))
    assert m1 == m2  # same bytes, same manifest

    bumped = dict(files, **{"a.csv": "x,y\n1,3\n"})
    m3 = manifest_text(echo, 7, bumped)
    assert m3 != m1
    body1, body3 = json.loads(m1), json.loads(m3)
    assert body1["outputs"]["b.json"] == body3["outputs"]["b.json"]
    assert body1["outputs"]["a.csv"] != body3["outputs"]["a.csv"]
    assert body1["outputs"]["a.csv"]["bytes"] == len(files["a.csv"])

    paths = write_artifacts(tmp_path, files, echo, 7)
    names = sorted(p.split("/")[-1] for p in paths)
    assert names == ["a.csv", "b.json", "manifest.json"]
    assert (tmp_path / "manifest.json").read_text() == m1
    assert (tmp_path / "a.csv").read_text() == files["a.csv"]
