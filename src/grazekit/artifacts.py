"""Deterministic CSV/JSON artifact writers and the run manifest.

Every emitter renders to a string first; files are written in one pass at
the end of a run, so a failed run leaves no partial artifacts.  Floats are
printed with repr (shortest round-trip form) and nothing embeds a
timestamp, so identical data gives byte-identical files.  The manifest
records the config echo, the seed, and a git-style content hash
(sha1 over ``blob <len>\\0<bytes>``) per output file: the manifest changes
exactly when some output byte changes.

Fixed column orders:
  snapshots   t,particle,vx,vy,vz
  diagnostics JSON list of {t, m2, m4, entropy, max_speed, events}
  coupled     t,paired_l2,m2_boltz,m2_landau
  sweep       eps,seed,t,paired_l2,m2_boltz,m2_landau
  verifier    check,measured,bound,passed
"""

import hashlib
import json
import math
import os

__all__ = [
    "snapshots_csv_text",
    "diagnostics_json_text",
    "coupled_csv_text",
    "coupled_summary_json_text",
    "sweep_csv_text",
    "sweep_summary_json_text",
    "verifier_table_csv_text",
    "json_text",
    "git_blob_sha1",
    "manifest_text",
    "write_artifacts",
]


def _fmt(x):
    """Shortest exact decimal form of a float (nan/inf included)."""
    return repr(float(x))


def _clean(obj):
    """JSON-safe copy: non-finite floats become null, arrays become lists."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if hasattr(obj, "tolist"):
        return _clean(obj.tolist())
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def json_text(obj):
    """Deterministic JSON body (non-finite floats as null, one trailing
    newline); the common form of every JSON artifact."""
    return json.dumps(_clean(obj), indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# simulation snapshots
# ---------------------------------------------------------------------------

def snapshots_csv_text(trajectory):
    """Long-form velocity table, one row per (snapshot, particle)."""
    lines = ["t,particle,vx,vy,vz"]
    for cloud in trajectory.clouds:
        t = _fmt(cloud.time)
        # tolist gives Python floats, whose repr is _fmt's
        for i, (vx, vy, vz) in enumerate(cloud.velocities.tolist()):
            lines.append(f"{t},{i},{vx!r},{vy!r},{vz!r}")
    return "\n".join(lines) + "\n"


def diagnostics_json_text(trajectory):
    """Sidecar with the per-snapshot scalar diagnostics."""
    return json_text(trajectory.diagnostics)


# ---------------------------------------------------------------------------
# coupled runs and sweeps
# ---------------------------------------------------------------------------

def coupled_csv_text(result):
    """Per-boundary distance series of a single coupled run."""
    lines = ["t,paired_l2,m2_boltz,m2_landau"]
    for k in range(len(result.times)):
        lines.append(",".join(_fmt(v) for v in (
            result.times[k], result.paired_l2[k],
            result.m2_boltz[k], result.m2_landau[k])))
    return "\n".join(lines) + "\n"


def coupled_summary_json_text(result):
    return json_text({
        "terminal_t": result.times[-1],
        "terminal_paired_l2": result.paired_l2[-1],
        "sup_paired_l2": result.sup_paired_l2,
        "terminal_w2": result.terminal_w2,
        "m2_boltz": result.m2_boltz[-1],
        "m2_landau": result.m2_landau[-1],
        "events": result.events,
        "exact_jumps": result.exact_jumps,
    })


def sweep_csv_text(report):
    """Tidy distance series of a rate sweep, one row per (eps, seed, t)."""
    lines = ["eps,seed,t,paired_l2,m2_boltz,m2_landau"]
    for eps in report.eps_list:
        e = _fmt(eps)
        for seed in report.seeds:
            res = report.series[(eps, seed)]
            for k in range(len(res.times)):
                lines.append(f"{e},{seed}," + ",".join(_fmt(v) for v in (
                    res.times[k], res.paired_l2[k],
                    res.m2_boltz[k], res.m2_landau[k])))
    return "\n".join(lines) + "\n"


def sweep_summary_json_text(report):
    return json_text({
        "family": report.family,
        "eps_list": list(report.eps_list),
        "seeds": list(report.seeds),
        "p": report.p,
        "means": report.means,
        "stderrs": report.stderrs,
        "slope": report.slope,
        "slope_stderr": report.slope_stderr,
        "intercept": report.intercept,
        "proven_exponent": report.proven_exponent,
        "conjectured_exponent": report.conjectured_exponent,
        "verdict": report.verdict,
        "exact_cap": report.exact_cap,
        "exact_share": list(report.exact_share),
        "theta_g": list(report.theta_g),
        **report.m2_drift_stats,
    })


# ---------------------------------------------------------------------------
# verifier tables
# ---------------------------------------------------------------------------

def verifier_table_csv_text(rows):
    """Pass/fail table.  rows: iterables (check, measured, bound, passed)."""
    lines = ["check,measured,bound,passed"]
    for check, measured, bound, passed in rows:
        lines.append(f"{check},{_fmt(measured)},{_fmt(bound)},"
                     f"{'pass' if passed else 'fail'}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def git_blob_sha1(data):
    """sha1 of a git blob object holding `data` (bytes)."""
    h = hashlib.sha1()
    h.update(b"blob %d\x00" % len(data))
    h.update(data)
    return h.hexdigest()


def manifest_text(config_echo, seed, file_texts):
    """Manifest body: config echo, seed, and per-file content hashes."""
    outputs = {}
    for name in sorted(file_texts):
        data = file_texts[name].encode("utf-8")
        outputs[name] = {"sha1": git_blob_sha1(data), "bytes": len(data)}
    return json_text({"config": config_echo, "seed": seed,
                       "outputs": outputs})


def write_artifacts(out_dir, file_texts, config_echo, seed):
    """Write run outputs plus manifest.json; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    texts = dict(file_texts)
    texts["manifest.json"] = manifest_text(config_echo, seed, file_texts)
    paths = []
    for name in sorted(texts):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(texts[name])
        paths.append(path)
    return paths
