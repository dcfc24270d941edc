"""Command-line entry point: simulations, sweeps, verifiers, artifacts.

Options resolve in three layers: hard defaults < config file (--config)
< explicit flags, with flag names mirroring config keys.  Every command
validates everything before writing anything, emits its artifacts in one
pass, and finishes with manifest.json (config echo, seed, content hash per
output file).  Exit codes: 0 success, 1 a verifier or sweep verdict failed,
2 usage/config errors.

The default output directory is the config's out_dir, else the
GRAZEKIT_OUT_DIR environment variable, else the current directory.
"""

import argparse
import csv
import math
import sys

import numpy as np

from . import artifacts, boltzmann, landau, rngstreams
from .boltzmann import BoltzmannConfig
from .config import (CONFIG_VERSION, default_out_dir, echo_form,
                     format_angle, load_config, parse_angle, validate_config)
from .coupling import (CouplingPlan, build_subdivision, coupled_run,
                       default_h, fit_verdict, rate_sweep)
from .errors import (DegenerateInputError, InstabilityError, ParameterError,
                     StabilityError)
from .geometry import deviate, frame, gamma_vec, phi_zero
from .kernels import k_constant, kernel_from_params, r_eta, theta_moment
from .landau import LandauConfig
from .particles import sample_initial
from .verifiers import (PoissonIntegralSpec, gronwall_bound_check,
                        poisson_gaussian_w2, psi)

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# option plumbing
# ---------------------------------------------------------------------------

def _angle_arg(text):
    return parse_angle(text, "angle")


def _angle_list_arg(text):
    return [parse_angle(v, "eps_list") for v in text.split(",")]


def _int_list_arg(text):
    """Comma list of integers, or a:b for range(a, b)."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi)))
    return [int(v) for v in text.split(",")]


def _float_list_arg(text):
    return [float(v) for v in text.split(",")]


_FLAG_TYPES = {
    "family": str, "gamma": float, "nu": float, "eps": _angle_arg,
    "h_eps": float, "n": int, "dt": float, "T": float,
    "theta_min": _angle_arg, "v_floor": float, "update_mode": str,
    "drift_subsample": int, "rate_cap": float, "pairing": str, "m": int,
    "reg_delta": float, "initial_name": str, "initial_sigma2": float,
    "initial_sigma2_cold": float, "initial_sigma2_hot": float,
    "initial_hot_fraction": float, "initial_radius": float,
    "eps_list": _angle_list_arg, "seeds": _int_list_arg, "p": int,
    "level": str, "eta": _angle_arg, "truncation_m": float,
    "normal_fallback": int, "subdivision_n": int, "w2_mode": str,
    "samples": int, "t_list": _float_list_arg, "seed": int,
    "schedule": _float_list_arg, "out_dir": str,
}


def _add_flags(sub, keys):
    for key in keys:
        if key == "tanaka":
            sub.add_argument("--tanaka", action=argparse.BooleanOptionalAction,
                             default=None)
            continue
        flag = "--" + key.replace("_", "-")
        if key == "T":
            flag = "--T"
        sub.add_argument(flag, dest=key, type=_FLAG_TYPES[key], default=None,
                         metavar=key.upper())


_KERNEL_KEYS = ("family", "gamma", "nu", "eps", "h_eps")
_BOLTZ_KEYS = ("n", "dt", "T", "theta_min", "v_floor", "update_mode",
               "drift_subsample", "rate_cap")
_LANDAU_KEYS = ("gamma", "n", "dt", "T", "pairing", "m", "reg_delta")
_INITIAL_KEYS = ("initial_name", "initial_sigma2", "initial_sigma2_cold",
                 "initial_sigma2_hot", "initial_hot_fraction",
                 "initial_radius")
_PLAN_KEYS = ("tanaka", "level", "eta", "truncation_m", "normal_fallback",
              "subdivision_n", "w2_mode")
# The config keys each command reads, and so its flags.  Any other key
# (beyond version, seed and out_dir) is refused rather than ignored.
_COMMAND_KEYS = {
    "simulate-boltzmann": (_KERNEL_KEYS + _BOLTZ_KEYS + _INITIAL_KEYS
                           + ("schedule",)),
    "simulate-landau": _LANDAU_KEYS + _INITIAL_KEYS + ("schedule",),
    "coupled-run": (_KERNEL_KEYS + ("n", "T", "theta_min", "v_floor",
                                    "reg_delta") + _INITIAL_KEYS + _PLAN_KEYS),
    "rate-sweep": ("family", "gamma", "nu", "eps_list", "seeds", "n", "T",
                   "p", "tanaka", "level", "normal_fallback", "w2_mode"),
    "verify-kernels": ("family", "gamma", "nu", "eps_list", "h_eps"),
    "verify-geometry": ("samples",),
    "verify-appendix": ("samples", "t_list"),
    "fit-rate": ("family",),
}
_COMMON_KEYS = ("version", "seed", "out_dir")
_COMMAND_HELP = {
    "simulate-boltzmann": "Nanbu/symmetric Boltzmann particle run",
    "simulate-landau": "regularized Landau particle run",
    "coupled-run": "one coupled Boltzmann/Landau trajectory pair",
    "rate-sweep": "coupled-distance sweep over a decreasing eps grid",
    "verify-kernels": "angular-kernel property table",
    "verify-geometry": "collision-geometry identity table",
    "verify-appendix": "Gronwall and Poisson-vs-Gaussian checks",
    "fit-rate": "refit a rate from an existing sweep CSV",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="grazekit",
        description="Grazing-collision limit experiments: particle "
                    "simulators, coupled sweeps, and property verifiers.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help="JSON config file; flags override its keys")
    common.add_argument("--out-dir", dest="out_dir", default=None,
                        help="artifact directory (default: config out_dir, "
                             "else $GRAZEKIT_OUT_DIR, else '.')")
    common.add_argument("--seed", dest="seed", type=int, default=None)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, keys in _COMMAND_KEYS.items():
        sub = subs.add_parser(command, parents=[common],
                              help=_COMMAND_HELP[command])
        if command == "fit-rate":
            sub.add_argument("--input", required=True,
                             help="sweep CSV (eps,seed,t,paired_l2,...)")
        _add_flags(sub, keys)
    return parser


def _merge_options(args):
    """Config-file values overridden by explicit flags, then validated."""
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = {"version": CONFIG_VERSION}
    for key in list(_FLAG_TYPES) + ["tanaka"]:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    cfg.setdefault("version", CONFIG_VERSION)
    return validate_config(cfg, source="options")


def _require(cfg, *keys):
    for key in keys:
        if key not in cfg:
            flag = "--" + key.replace("_", "-") if key != "T" else "--T"
            raise ParameterError(
                f"missing required field '{key}' (flag {flag})")
    return [cfg[k] for k in keys]


def _check_fields(cfg, command):
    """Refuse config keys the command would silently ignore."""
    unread = sorted(set(cfg) - set(_COMMAND_KEYS[command]) - set(_COMMON_KEYS))
    if unread:
        raise ParameterError(
            f"{command} does not read field(s) {', '.join(map(repr, unread))}; "
            "remove them from the config")


def _echo(cfg):
    """Manifest config echo: everything but the output location, so the
    manifest depends only on what was run and what it produced."""
    echo = echo_form(cfg)
    echo.pop("out_dir", None)
    return echo


def _given(cfg, *keys):
    """The keys of cfg among `keys`: a key the config leaves out takes the
    default of the signature it is passed to."""
    return {k: cfg[k] for k in keys if k in cfg}


def _build_kernel(cfg, eps=None):
    family, = _require(cfg, "family")
    return kernel_from_params(family, gamma=cfg.get("gamma"),
                              nu=cfg.get("nu"),
                              eps=cfg.get("eps") if eps is None else eps,
                              h_eps=cfg.get("h_eps"))


_DIST_KEYS = {"initial_sigma2": "sigma2", "initial_sigma2_cold": "sigma2_cold",
              "initial_sigma2_hot": "sigma2_hot",
              "initial_hot_fraction": "hot_fraction",
              "initial_radius": "radius"}


def _initial_cloud(cfg, n, seed):
    dist = {"name": cfg.get("initial_name", "isotropic-gaussian")}
    for key, name in _DIST_KEYS.items():
        if key in cfg:
            dist[name] = cfg[key]
    return sample_initial(dist, n, rngstreams.stream(seed, "cli-init"))


# ---------------------------------------------------------------------------
# simulation commands
# ---------------------------------------------------------------------------

def _cmd_simulate_boltzmann(cfg, out_dir):
    kernel = _build_kernel(cfg)
    n, dt, T = _require(cfg, "n", "dt", "T")
    seed = cfg.get("seed", 0)
    run_cfg = BoltzmannConfig(
        kernel=kernel, n=n, dt=dt, T=T, seed=seed,
        **_given(cfg, "theta_min", "v_floor", "update_mode",
                 "drift_subsample", "rate_cap"))
    cloud = _initial_cloud(cfg, n, seed)
    traj = boltzmann.run(run_cfg, cloud, cfg.get("schedule"))
    files = {"snapshots.csv": artifacts.snapshots_csv_text(traj),
             "diagnostics.json": artifacts.diagnostics_json_text(traj)}
    artifacts.write_artifacts(out_dir, files, _echo(cfg), seed)
    print(f"simulate-boltzmann: {len(traj.clouds)} snapshot(s), "
          f"{traj.clouds[-1].events} collision event(s) -> {out_dir}")
    return 0


def _cmd_simulate_landau(cfg, out_dir):
    gamma, n, dt, T = _require(cfg, "gamma", "n", "dt", "T")
    seed = cfg.get("seed", 0)
    run_cfg = LandauConfig(gamma=gamma, n=n, dt=dt, T=T, seed=seed,
                           **_given(cfg, "pairing", "m", "reg_delta"))
    cloud = _initial_cloud(cfg, n, seed)
    traj = landau.run(run_cfg, cloud, cfg.get("schedule"))
    files = {"snapshots.csv": artifacts.snapshots_csv_text(traj),
             "diagnostics.json": artifacts.diagnostics_json_text(traj)}
    artifacts.write_artifacts(out_dir, files, _echo(cfg), seed)
    print(f"simulate-landau: {len(traj.clouds)} snapshot(s) -> {out_dir}")
    return 0


def _cmd_coupled_run(cfg, out_dir):
    kernel = _build_kernel(cfg)
    n, T = _require(cfg, "n", "T")
    seed = cfg.get("seed", 0)
    plan = CouplingPlan(
        kernel=kernel, seed=seed,
        subdivision=build_subdivision(default_h, T,
                                      cfg.get("subdivision_n", 4)),
        **_given(cfg, "theta_min", "v_floor", "reg_delta", "tanaka", "level",
                 "eta", "truncation_m", "normal_fallback"))
    cloud = _initial_cloud(cfg, n, seed)
    result = coupled_run(plan, cloud, **_given(cfg, "w2_mode"))
    files = {"coupled.csv": artifacts.coupled_csv_text(result),
             "coupled_summary.json": artifacts.coupled_summary_json_text(result)}
    artifacts.write_artifacts(out_dir, files, _echo(cfg), seed)
    print(f"coupled-run: terminal paired-L2 {result.paired_l2[-1]:.6g} "
          f"(sup {result.sup_paired_l2:.6g}) -> {out_dir}")
    return 0


def _cmd_rate_sweep(cfg, out_dir):
    family, eps_list, n, T = _require(cfg, "family", "eps_list", "n", "T")
    seed = cfg.get("seed", 0)
    report = rate_sweep(
        family, eps_list, cfg.get("seeds", list(range(10))), n=n, T=T,
        **_given(cfg, "gamma", "nu", "p", "tanaka", "level", "w2_mode",
                 "normal_fallback"))
    files = {"sweep.csv": artifacts.sweep_csv_text(report),
             "sweep_summary.json": artifacts.sweep_summary_json_text(report)}
    artifacts.write_artifacts(out_dir, files, _echo(cfg), seed)
    print(f"rate-sweep [{family}]: verdict {report.verdict}, slope "
          f"{report.slope:.4f} +/- {report.slope_stderr:.4f} -> {out_dir}")
    return 0 if report.verdict == "decreasing" else 1


# ---------------------------------------------------------------------------
# verifier commands
# ---------------------------------------------------------------------------

def _row(check, measured, bound, slack=0.0):
    measured = float(measured)
    return (check, measured, float(bound), measured <= bound + slack)


def _kernel_rows(kern, label):
    top = kern.support[1]
    lo = max(kern.support[0], 1e-3 * top)
    grid = np.linspace(lo, top, 64)
    inv_err = np.max(np.abs(kern.tail.G(kern.tail.H(grid)) - grid))
    return [
        _row(f"normalization{label}",
             abs(theta_moment(kern, 2.0) - 4.0 / math.pi), 1e-8),
        _row(f"tail-inverse{label}", inv_err, 1e-8),
        _row(f"momentum-transfer-cap{label}", k_constant(kern), 2.0, 1e-9),
        _row(f"window-fraction-top{label}",
             abs(r_eta(kern, top) - 1.0), 1e-8),
    ]


def _cmd_verify_kernels(cfg, out_dir):
    family, = _require(cfg, "family")
    rows = []
    if family == "soft":
        if "eps_list" in cfg:
            raise ParameterError("family 'soft' takes no eps_list")
        rows += _kernel_rows(_build_kernel(cfg), "")
    else:
        eps_list, = _require(cfg, "eps_list")
        for eps in eps_list:
            label = f"[eps={format_angle(eps)}]"
            rows += _kernel_rows(_build_kernel(cfg, eps=eps), label)
    return _finish_verify(cfg, out_dir, "verify_kernels.csv", rows)


def _cmd_verify_geometry(cfg, out_dir):
    samples = cfg.get("samples", 20000)
    if samples < 2:
        raise ParameterError("samples must be >= 2")
    seed = cfg.get("seed", 0)
    rng = rngstreams.stream(seed, "verify-geometry")
    v = rng.normal(size=(samples, 3))
    w = rng.normal(size=(samples, 3))
    theta = rng.uniform(0.0, math.pi, samples)
    phi = rng.uniform(0.0, 2.0 * math.pi, samples)
    v_post, w_post, a = deviate(v, w, theta, phi)

    e_before = np.sum(v ** 2 + w ** 2, axis=1)
    e_after = np.sum(v_post ** 2 + w_post ** 2, axis=1)
    energy_err = np.max(np.abs(e_after / e_before - 1.0))
    p_err = np.max(np.abs(v_post + w_post - (v + w)))

    # |a|^2 = |v - w|^2 sin^2(theta/2); compare r^2-scaled absolute error
    # (the relative one blows up from 1 - cos cancellation as theta -> 0)
    r_sq = np.sum((v - w) ** 2, axis=1)
    len_err = np.max(np.abs(np.sum(a * a, axis=1) / r_sq
                            - np.sin(0.5 * theta) ** 2))

    x = v - w
    I, J = frame(x)  # orthogonal pair of norm |x| each
    frame_err = max(np.max(np.abs(np.sum(I * J, axis=1) / r_sq)),
                    np.max(np.abs(np.sum(I * x, axis=1) / r_sq)),
                    np.max(np.abs(np.sum(J * x, axis=1) / r_sq)),
                    np.max(np.abs(np.sum(I * I, axis=1) / r_sq - 1.0)),
                    np.max(np.abs(np.sum(J * J, axis=1) / r_sq - 1.0)))

    y = x + 0.3 * rng.normal(size=(samples, 3))
    phi0 = phi_zero(x, y)
    gap = np.linalg.norm(x - y, axis=1)
    ratio = 0.0
    for phi_j in np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False):
        diff = gamma_vec(x, np.full(samples, phi_j)) \
            - gamma_vec(y, phi_j + phi0)
        ratio = max(ratio, np.max(np.linalg.norm(diff, axis=1) / gap))

    rows = [
        _row("momentum-conservation", p_err, 1e-9),
        _row("energy-conservation", energy_err, 1e-12),
        _row("deviation-length", len_err, 1e-12),
        _row("frame-orthonormality", frame_err, 1e-12),
        _row("tanaka-distance-ratio", ratio, 3.0),
    ]
    return _finish_verify(cfg, out_dir, "verify_geometry.csv", rows)


def _cmd_verify_appendix(cfg, out_dir):
    samples = cfg.get("samples", 2048)
    t_list = cfg.get("t_list", [1.0, 10.0, 100.0])
    seed = cfg.get("seed", 0)

    x = np.linspace(0.0, 3.0, 601)
    px = psi(x)
    rows = [
        _row("psi-monotone", np.max(-np.diff(px)), 0.0, 1e-12),
        _row("psi-dominates-x", np.max(x - px), 0.0, 1e-12),
    ]
    g = np.linspace(0.0, 1.0, 200)
    A, B = np.meshgrid(g, g)
    rows.append(_row("psi-subadditive",
                     np.max(psi(A + B) - psi(A) - psi(B)), 0.0, 1e-12))

    for a in (1e-6, 1e-3, 0.5, 2.0):
        rep = gronwall_bound_check(a, lambda t: 1.0, 1.0)
        rows.append((f"gronwall[a={a:g}]", rep.rho_T / rep.bound, 1.0,
                     rep.satisfied))

    spec_atoms = np.eye(3)
    for i, t in enumerate(t_list):
        spec = PoissonIntegralSpec(spec_atoms, np.ones(3), t)
        rep = poisson_gaussian_w2(spec, samples,
                                  rngstreams.stream(seed, "pg-verify", i))
        ok = rep.ratio <= 2.0 and rep.mean_ok and rep.cov_ok
        rows.append((f"poisson-gaussian[t={t:g}]", rep.ratio, 2.0, ok))
        rows.append((f"poisson-gaussian-control[t={t:g}]",
                     rep.control_ratio, 2.0, rep.control_ratio <= 2.0))
    return _finish_verify(cfg, out_dir, "verify_appendix.csv", rows)


def _finish_verify(cfg, out_dir, name, rows):
    seed = cfg.get("seed", 0)
    table = artifacts.verifier_table_csv_text(rows)
    artifacts.write_artifacts(out_dir, {name: table}, _echo(cfg), seed)
    failed = [r[0] for r in rows if not r[3]]
    print(table, end="")
    if failed:
        print(f"{len(failed)} of {len(rows)} check(s) FAILED: "
              f"{', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"all {len(rows)} check(s) passed -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# fit-rate
# ---------------------------------------------------------------------------

def _read_sweep_csv(path):
    """Terminal paired-L2 per (eps, seed) from a sweep CSV."""
    terminal = {}
    last_t = {}
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            need = {"eps", "seed", "t", "paired_l2"}
            if reader.fieldnames is None or not need <= set(reader.fieldnames):
                raise ParameterError(
                    f"{path}: expected columns eps,seed,t,paired_l2")
            for line in reader:
                key = (float(line["eps"]), int(line["seed"]))
                t = float(line["t"])
                if key not in terminal or t >= last_t[key]:
                    terminal[key] = float(line["paired_l2"])
                    last_t[key] = t
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        if isinstance(exc, ParameterError):
            raise
        raise ParameterError(f"{path}: bad numeric field: {exc}") from None
    if not terminal:
        raise ParameterError(f"{path}: no data rows")
    return terminal


def _cmd_fit_rate(cfg, out_dir, path):
    family, = _require(cfg, "family")
    terminal = _read_sweep_csv(path)
    eps_vals = sorted({e for e, _ in terminal}, reverse=True)
    # seeds in file order: a sweep's means sum its seeds in that order
    seed_vals = list(dict.fromkeys(s for _, s in terminal))
    if len(eps_vals) < 2:
        raise ParameterError("need >= 2 eps values to fit a rate")
    if len(seed_vals) < 2:
        raise ParameterError("need >= 2 seeds to assess the verdict")
    dist = np.empty((len(eps_vals), len(seed_vals)))
    for i, e in enumerate(eps_vals):
        for j, s in enumerate(seed_vals):
            if (e, s) not in terminal:
                raise ParameterError(
                    f"incomplete sweep grid: missing eps={e:g} seed={s}")
            dist[i, j] = terminal[(e, s)]
    fit = fit_verdict(dist, eps_vals, family)

    seed = cfg.get("seed", 0)
    body = {"family": family, "eps_list": eps_vals, "seeds": seed_vals, **fit}
    files = {"fit.json": artifacts.json_text(body)}
    artifacts.write_artifacts(out_dir, files, _echo(cfg), seed)
    print(f"fit-rate [{family}]: verdict {fit['verdict']}, slope "
          f"{fit['slope']:.4f} +/- {fit['slope_stderr']:.4f} -> {out_dir}")
    return 0 if fit["verdict"] == "decreasing" else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_DISPATCH = {
    "simulate-boltzmann": _cmd_simulate_boltzmann,
    "simulate-landau": _cmd_simulate_landau,
    "coupled-run": _cmd_coupled_run,
    "rate-sweep": _cmd_rate_sweep,
    "verify-kernels": _cmd_verify_kernels,
    "verify-geometry": _cmd_verify_geometry,
    "verify-appendix": _cmd_verify_appendix,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = _merge_options(args)
        _check_fields(cfg, args.command)
        out_dir = args.out_dir or default_out_dir(cfg)
        if args.command == "fit-rate":
            return _cmd_fit_rate(cfg, out_dir, args.input)
        return _DISPATCH[args.command](cfg, out_dir)
    except ParameterError as exc:
        print(f"grazekit: error: {exc}", file=sys.stderr)
        return 2
    except (InstabilityError, StabilityError, DegenerateInputError) as exc:
        print(f"grazekit: run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
