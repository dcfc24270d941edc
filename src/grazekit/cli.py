"""Command-line entry point: simulations, sweeps, verifiers, artifacts.

Options resolve in three layers: hard defaults < config file (--config)
< explicit flags.  Each flag is a config.KEYS key, "--" + key with "_" as
"-", read by its kind's text parser.  A command's keys are derived from
what it builds: the parameters of kernel_from_params, coupled_run and
rate_sweep, and the fields of BoltzmannConfig, LandauConfig and
CouplingPlan but kernel, seed and subdivision.  The initial_* keys are the
sample_initial parameters.  Only keys of no signature are listed:
schedule, subdivision_n, seed where a command draws, and the verify-* and
fit-rate keys.  A command takes a flag for each of its keys and refuses
any other config key but version; a key left out takes its signature's
default.

Every command validates everything before writing anything, emits its
artifacts in one pass, and finishes with manifest.json (config echo, seed,
content hash per output file).  Exit codes: 0 success, 1 a verifier or
sweep verdict failed, 2 usage/config errors.  The default output directory
is the config's out_dir, else the GRAZEKIT_OUT_DIR environment variable,
else the current directory.
"""

import argparse
import csv
import inspect
import math
import sys

import numpy as np

from . import artifacts, boltzmann, landau, rngstreams
from .boltzmann import BoltzmannConfig
from .config import (CONFIG_VERSION, KEYS, default_out_dir, echo_form,
                     flag_type, format_angle, load_config, validate_config)
from .coupling import (CouplingPlan, build_subdivision, coupled_run,
                       default_h, fit_verdict, rate_sweep)
from .errors import (DegenerateInputError, InstabilityError, ParameterError,
                     StabilityError)
from .geometry import deviate, frame, gamma_from_frame, phi_zero
from .kernels import k_constant, kernel_from_params, r_eta, theta_moment
from .landau import LandauConfig
from .particles import _DISTS, sample_initial
from .verifiers import (PoissonIntegralSpec, _check_sample_count,
                        gronwall_bound_check, poisson_gaussian_w2, psi)

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# option plumbing
# ---------------------------------------------------------------------------

def _flag(key):
    return "--" + key.replace("_", "-")


def _add_flags(sub, keys):
    for key in keys:
        how = ({"action": argparse.BooleanOptionalAction}
               if KEYS[key].text is None
               else {"type": flag_type(key), "metavar": key.upper()})
        sub.add_argument(_flag(key), dest=key, default=None, **how)


def _keys(target):
    """The config keys a dataclass or function reads: its parameters that
    are table keys, but seed (a key only where a command draws from it)."""
    return tuple(name for name in inspect.signature(target).parameters
                 if name in KEYS and name != "seed")


_KERNEL_KEYS = _keys(kernel_from_params)
_BOLTZ_KEYS = _keys(BoltzmannConfig)
_LANDAU_KEYS = _keys(LandauConfig)
_PLAN_KEYS = _keys(CouplingPlan)
_RUN_KEYS = _keys(coupled_run)
_SWEEP_KEYS = _keys(rate_sweep)
# initial_name, and initial_ plus each sample_initial distribution parameter
_INITIAL_KEYS = ("initial_name",) + tuple(
    "initial_" + k for params in _DISTS.values() for k in params)
_PARTICLE_KEYS = _INITIAL_KEYS + ("schedule", "seed")
# The config keys each command reads, and so its flags.  Any other key but
# version is refused rather than ignored.
_COMMAND_KEYS = {command: keys + ("out_dir",) for command, keys in {
    "simulate-boltzmann": _KERNEL_KEYS + _BOLTZ_KEYS + _PARTICLE_KEYS,
    "simulate-landau": _LANDAU_KEYS + _PARTICLE_KEYS,
    # the cloud size, and the horizon and slab count of the subdivision
    "coupled-run": (_KERNEL_KEYS + ("n", "T", "subdivision_n") + _PLAN_KEYS
                    + _RUN_KEYS + _INITIAL_KEYS + ("seed",)),
    "rate-sweep": _SWEEP_KEYS,
    "verify-kernels": ("family", "gamma", "nu", "eps_list", "h_eps"),
    "verify-geometry": ("samples", "seed"),
    "verify-appendix": ("samples", "t_list", "seed"),
    "fit-rate": ("family",),
}.items()}
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
                    "simulators, coupled sweeps, and property verifiers.  "
                    "Artifacts go to --out-dir, else $GRAZEKIT_OUT_DIR, "
                    "else the current directory.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, keys in _COMMAND_KEYS.items():
        # no abbreviated flags: --seed must not read as --seeds
        sub = subs.add_parser(command, allow_abbrev=False,
                              help=_COMMAND_HELP[command])
        sub.add_argument("--config", default=None,
                         help="JSON config file; flags override its keys")
        if command == "fit-rate":
            sub.add_argument("--input", required=True,
                             help="sweep CSV (eps,seed,t,paired_l2,...)")
        _add_flags(sub, keys)
    return parser


def _merge_options(args):
    """Config-file values overridden by explicit flags, then validated."""
    cfg = load_config(args.config) if args.config else {
        "version": CONFIG_VERSION}
    for key in KEYS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return validate_config(cfg, source="options")


def _require(cfg, *keys):
    for key in keys:
        if key not in cfg:
            raise ParameterError(
                f"missing required field '{key}' (flag {_flag(key)})")
    return [cfg[k] for k in keys]


def _check_fields(cfg, command):
    """Refuse config keys the command would silently ignore."""
    unread = sorted(set(cfg) - set(_COMMAND_KEYS[command]) - {"version"})
    if unread:
        raise ParameterError(
            f"{command} does not read field(s) {', '.join(map(repr, unread))}; "
            "remove them from the config")


def _write(cfg, out_dir, files):
    """Write the artifacts and manifest.json: the seed and the config echo
    without out_dir, so the manifest depends only on what was run and what
    it produced."""
    echo = echo_form(cfg)
    echo.pop("out_dir", None)
    artifacts.write_artifacts(out_dir, files, echo, _seed(cfg))


def _seed(cfg):
    """The run's seed: the config's, else 0.  The default is not echoed
    into the config, so a manifest shows only the keys that were given."""
    return cfg.get("seed", 0)


def _given(cfg, keys):
    """The keys of cfg among `keys`: a key the config leaves out takes the
    default of the signature it is passed to."""
    return {k: cfg[k] for k in keys if k in cfg}


def _build_kernel(cfg, **override):
    _require(cfg, "family")
    return kernel_from_params(**_given(cfg, _KERNEL_KEYS), **override)


def _initial_cloud(cfg, n, seed):
    dist = {"name": "isotropic-gaussian"}
    dist.update((k.removeprefix("initial_"), cfg[k])
                for k in _INITIAL_KEYS if k in cfg)
    return sample_initial(dist, n, rngstreams.stream(seed, "cli-init"))


# ---------------------------------------------------------------------------
# simulation commands
# ---------------------------------------------------------------------------

def _simulate(cfg, out_dir, run, run_cfg):
    """A particle run from the initial_* cloud, written out as snapshots
    at the scheduled times and their diagnostics."""
    traj = run(run_cfg, _initial_cloud(cfg, run_cfg.n, run_cfg.seed),
               cfg.get("schedule"))
    _write(cfg, out_dir, {
        "snapshots.csv": artifacts.snapshots_csv_text(traj),
        "diagnostics.json": artifacts.diagnostics_json_text(traj)})
    return traj


def _cmd_simulate_boltzmann(cfg, out_dir):
    kernel = _build_kernel(cfg)
    _require(cfg, "n", "dt", "T")
    traj = _simulate(cfg, out_dir, boltzmann.run, BoltzmannConfig(
        kernel=kernel, seed=_seed(cfg), **_given(cfg, _BOLTZ_KEYS)))
    print(f"simulate-boltzmann: {len(traj.clouds)} snapshot(s), "
          f"{traj.clouds[-1].events} collision event(s) -> {out_dir}")
    return 0


def _cmd_simulate_landau(cfg, out_dir):
    _require(cfg, "gamma", "n", "dt", "T")
    traj = _simulate(cfg, out_dir, landau.run, LandauConfig(
        seed=_seed(cfg), **_given(cfg, _LANDAU_KEYS)))
    print(f"simulate-landau: {len(traj.clouds)} snapshot(s) -> {out_dir}")
    return 0


def _cmd_coupled_run(cfg, out_dir):
    kernel = _build_kernel(cfg)
    n, T = _require(cfg, "n", "T")
    seed = _seed(cfg)
    plan = CouplingPlan(
        kernel=kernel, seed=seed,
        subdivision=build_subdivision(default_h, T,
                                      cfg.get("subdivision_n", 4)),
        **_given(cfg, _PLAN_KEYS))
    cloud = _initial_cloud(cfg, n, seed)
    result = coupled_run(plan, cloud, **_given(cfg, _RUN_KEYS))
    _write(cfg, out_dir, {
        "coupled.csv": artifacts.coupled_csv_text(result),
        "coupled_summary.json": artifacts.coupled_summary_json_text(result)})
    print(f"coupled-run: terminal paired-L2 {result.paired_l2[-1]:.6g} "
          f"(sup {result.sup_paired_l2:.6g}) -> {out_dir}")
    return 0


def _cmd_rate_sweep(cfg, out_dir):
    _require(cfg, "family", "eps_list", "n", "T")
    report = rate_sweep(**_given(cfg, _SWEEP_KEYS))
    _write(cfg, out_dir, {
        "sweep.csv": artifacts.sweep_csv_text(report),
        "sweep_summary.json": artifacts.sweep_summary_json_text(report)})
    print(f"rate-sweep [{report.family}]: verdict {report.verdict}, slope "
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
    seed = _seed(cfg)
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
    IY, JY = frame(y)
    phi0 = phi_zero(x, y)
    gap = np.linalg.norm(x - y, axis=1)
    ratio = 0.0
    for phi_j in np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False):
        diff = gamma_from_frame(I, J, np.full(samples, phi_j)) \
            - gamma_from_frame(IY, JY, phi_j + phi0)
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
    seed = _seed(cfg)
    # every input is checked before the psi and Gronwall checks run
    _check_sample_count(samples)
    specs = [PoissonIntegralSpec(np.eye(3), np.ones(3), t) for t in t_list]

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

    for i, spec in enumerate(specs):
        rep = poisson_gaussian_w2(spec, samples,
                                  rngstreams.stream(seed, "pg-verify", i))
        ok = rep.ratio <= 2.0 and rep.mean_ok and rep.cov_ok
        rows.append((f"poisson-gaussian[t={spec.t:g}]", rep.ratio, 2.0, ok))
        rows.append((f"poisson-gaussian-control[t={spec.t:g}]",
                     rep.control_ratio, 2.0, rep.control_ratio <= 2.0))
    return _finish_verify(cfg, out_dir, "verify_appendix.csv", rows)


def _finish_verify(cfg, out_dir, name, rows):
    table = artifacts.verifier_table_csv_text(rows)
    _write(cfg, out_dir, {name: table})
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
    for (eps, seed), d in terminal.items():
        if not (d > 0.0 and math.isfinite(d)):
            raise ParameterError(
                f"{path}: terminal paired_l2 at eps={eps:g} seed={seed} is "
                f"{d!r}; a distance to fit must be finite and > 0")
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

    body = {"family": family, "eps_list": eps_vals, "seeds": seed_vals, **fit}
    _write(cfg, out_dir, {"fit.json": artifacts.json_text(body)})
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
        out_dir = default_out_dir(cfg)
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
