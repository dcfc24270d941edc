"""End-to-end tests of the command-line entry point: exit codes, artifact
schemas, byte-identical reruns, flag/config precedence."""

import json
import math

import pytest

from grazekit.cli import main

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def read_table(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


def write_config(tmp_path, **keys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"version": 1, **keys}))
    return str(path)


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def test_verify_kernels_grazing_pass_table(tmp_path):
    code = main(["verify-kernels", "--family", "grazing", "--gamma", "-0.5",
                 "--nu", "0.6", "--eps-list", "pi/2,pi/8",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    header, rows = read_table(tmp_path / "verify_kernels.csv")
    assert header == "check,measured,bound,passed"
    assert len(rows) == 8  # 4 checks x 2 eps
    assert all(r[-1] == "pass" for r in rows)
    assert any(r[0].endswith("[eps=pi/8]") for r in rows)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["eps_list"] == ["pi/2", "pi/8"]
    assert "out_dir" not in manifest["config"]
    assert set(manifest["outputs"]) == {"verify_kernels.csv"}


def test_verify_kernels_soft_and_coulomb(tmp_path):
    assert main(["verify-kernels", "--family", "soft", "--gamma", "-1.0",
                 "--nu", "0.8", "--out-dir", str(tmp_path / "s")]) == 0
    assert main(["verify-kernels", "--family", "coulomb",
                 "--eps-list", "0.3,0.1",
                 "--out-dir", str(tmp_path / "c")]) == 0
    # family/parameter mismatches are usage errors
    assert main(["verify-kernels", "--family", "coulomb", "--gamma", "-0.5",
                 "--eps-list", "0.3", "--out-dir", str(tmp_path)]) == 2
    assert main(["verify-kernels", "--family", "soft", "--gamma", "-1.0",
                 "--nu", "0.8", "--eps-list", "pi/2",
                 "--out-dir", str(tmp_path)]) == 2


def test_verify_geometry_passes(tmp_path):
    assert main(["verify-geometry", "--samples", "4000",
                 "--out-dir", str(tmp_path)]) == 0
    _, rows = read_table(tmp_path / "verify_geometry.csv")
    names = {r[0] for r in rows}
    assert {"momentum-conservation", "energy-conservation",
            "deviation-length", "frame-orthonormality",
            "tanaka-distance-ratio"} == names
    assert all(r[-1] == "pass" for r in rows)


@pytest.mark.slow
def test_verify_appendix_passes(tmp_path):
    assert main(["verify-appendix", "--samples", "1024", "--t-list", "1,10",
                 "--out-dir", str(tmp_path)]) == 0
    _, rows = read_table(tmp_path / "verify_appendix.csv")
    assert all(r[-1] == "pass" for r in rows)
    assert sum(r[0].startswith("gronwall") for r in rows) == 4
    assert sum(r[0].startswith("poisson-gaussian[") for r in rows) == 2


# ---------------------------------------------------------------------------
# simulations
# ---------------------------------------------------------------------------

def test_simulate_boltzmann_byte_identical_and_overridable(tmp_path):
    cfg = write_config(tmp_path, family="grazing", gamma=-0.5, nu=0.6,
                       eps="pi/8", n=48, dt=0.05, T=0.2, seed=7,
                       schedule=[0.1, 0.2])
    for d in ("r1", "r2"):
        assert main(["simulate-boltzmann", "--config", cfg,
                     "--out-dir", str(tmp_path / d)]) == 0
    csv1 = (tmp_path / "r1" / "snapshots.csv").read_text()
    assert csv1 == (tmp_path / "r2" / "snapshots.csv").read_text()
    assert (tmp_path / "r1" / "manifest.json").read_text() == \
        (tmp_path / "r2" / "manifest.json").read_text()
    assert csv1.startswith("t,particle,vx,vy,vz\n")

    diag = json.loads((tmp_path / "r1" / "diagnostics.json").read_text())
    assert [list(e) for e in diag] == \
        [["t", "m2", "m4", "entropy", "max_speed", "events"]] * 2
    assert diag[0]["t"] == 0.1 and diag[1]["t"] == 0.2

    # a flag overrides the file seed and perturbs every artifact hash
    assert main(["simulate-boltzmann", "--config", cfg, "--seed", "8",
                 "--out-dir", str(tmp_path / "r3")]) == 0
    assert (tmp_path / "r3" / "snapshots.csv").read_text() != csv1
    m1 = json.loads((tmp_path / "r1" / "manifest.json").read_text())
    m3 = json.loads((tmp_path / "r3" / "manifest.json").read_text())
    assert m1["seed"] == 7 and m3["seed"] == 8
    assert m1["config"]["eps"] == "pi/8"
    assert m1["outputs"]["snapshots.csv"] != m3["outputs"]["snapshots.csv"]


@pytest.mark.parametrize("argv", [
    ["simulate-landau", "--gamma", "-1.5", "--n", "32", "--dt", "0.05",
     "--T", "0.1"],
    ["coupled-run", "--family", "grazing", "--gamma", "-0.5", "--nu", "0.6",
     "--eps", "pi/8", "--n", "48", "--T", "0.3", "--subdivision-n", "2"],
    ["verify-geometry", "--samples", "64"],
], ids=["simulate-landau", "coupled-run", "verify-geometry"])
def test_seed_defaults_to_zero_without_echo(tmp_path, argv):
    # a run without --seed draws as --seed 0 and records seed 0, but its
    # config echo holds only the keys that were given
    assert main(argv + ["--out-dir", str(tmp_path / "default")]) == 0
    assert main(argv + ["--seed", "0", "--out-dir", str(tmp_path / "zero")]) \
        == 0
    default, zero = (json.loads((tmp_path / d / "manifest.json").read_text())
                     for d in ("default", "zero"))
    assert default["seed"] == zero["seed"] == 0
    assert default["outputs"] == zero["outputs"]
    assert "seed" not in default["config"] and zero["config"]["seed"] == 0


def test_simulate_landau_runs(tmp_path):
    assert main(["simulate-landau", "--gamma", "-1.5", "--n", "32",
                 "--dt", "0.05", "--T", "0.1", "--seed", "2",
                 "--out-dir", str(tmp_path)]) == 0
    header, rows = read_table(tmp_path / "snapshots.csv")
    assert header == "t,particle,vx,vy,vz"
    assert len(rows) == 32  # default schedule: one snapshot at T
    assert {r[0] for r in rows} == {"0.1"}


def test_missing_required_fields_exit_2(tmp_path):
    # kernel family absent
    assert main(["simulate-boltzmann", "--n", "32", "--dt", "0.05",
                 "--T", "0.1", "--out-dir", str(tmp_path / "x")]) == 2
    # n absent
    assert main(["simulate-landau", "--gamma", "-1.0", "--dt", "0.05",
                 "--T", "0.1", "--out-dir", str(tmp_path / "y")]) == 2
    assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()


# ---------------------------------------------------------------------------
# coupled runs and sweeps
# ---------------------------------------------------------------------------

def test_coupled_run_artifacts(tmp_path):
    assert main(["coupled-run", "--family", "grazing", "--gamma", "-0.5",
                 "--nu", "0.6", "--eps", "pi/8", "--n", "48", "--T", "0.3",
                 "--subdivision-n", "2", "--seed", "3",
                 "--out-dir", str(tmp_path)]) == 0
    header, rows = read_table(tmp_path / "coupled.csv")
    assert header == "t,paired_l2,w2,m2_boltz,m2_landau"
    assert float(rows[0][1]) == 0.0 and float(rows[-1][0]) == 0.3
    summary = json.loads((tmp_path / "coupled_summary.json").read_text())
    assert summary["terminal_paired_l2"] == float(rows[-1][1])
    assert summary["sup_paired_l2"] >= summary["terminal_paired_l2"]
    assert summary["terminal_w2"] is None  # w2_mode defaults to none


def test_coupled_run_eta_above_support_exits_2(tmp_path, capsys):
    # eta 0.5 lies above the pi/8 grazing support: refused, not clipped
    out = tmp_path / "never"
    assert main(COUPLED_RUN + ["--eta", "0.5", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "0.5" in err and str(math.pi / 8) in err
    for flag, value in (("--level", "common"), ("--truncation-m", "4.0"),
                        ("--normal-fallback", "300")):
        assert main(COUPLED_RUN + [flag, value, "--out-dir", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("family, kernel_args, eps_list, seeds", [
    ("grazing", ["--gamma", "-0.5", "--nu", "0.6"], "pi/2,pi/4,pi/8,pi/16",
     "0:10"),
    # unsorted seeds: the refit must add them in the sweep's order
    ("coulomb", [], "0.3,0.1,0.03,0.01", "9,3,7,1,5,0,8,2,6,4"),
], ids=["grazing", "coulomb"])
def test_rate_sweep_and_fit_rate_agree(tmp_path, family, kernel_args,
                                       eps_list, seeds):
    code = main(["rate-sweep", "--family", family, *kernel_args,
                 "--eps-list", eps_list, "--n", "48", "--T", "0.3",
                 "--seeds", seeds, "--out-dir", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert summary["verdict"] == "decreasing"
    header, rows = read_table(tmp_path / "sweep.csv")
    assert header == "eps,seed,t,paired_l2,w2,m2_boltz,m2_landau"
    # every (eps, seed) series is present, bracketed by t = 0 and t = T
    series = {}
    for r in rows:
        series.setdefault((r[0], r[1]), []).append(float(r[2]))
    assert len(series) == 4 * 10
    assert all(ts[0] == 0.0 and ts[-1] == 0.3 for ts in series.values())

    # refitting the emitted CSV reproduces the sweep's own fit exactly
    assert main(["fit-rate", "--input", str(tmp_path / "sweep.csv"),
                 "--family", family, "--out-dir",
                 str(tmp_path / "fit")]) == 0
    fit = json.loads((tmp_path / "fit" / "fit.json").read_text())
    for key in ("eps_list", "seeds", "means", "stderrs", "slope",
                "slope_stderr", "intercept", "verdict"):
        assert fit[key] == summary[key], key
    if family == "grazing":
        assert summary["means"] == sorted(summary["means"], reverse=True)
        assert fit["eps_list"] == pytest.approx(
            [math.pi / 2, math.pi / 4, math.pi / 8, math.pi / 16])


def test_rate_sweep_usage_errors(tmp_path):
    out = str(tmp_path / "never")
    args = ["rate-sweep", "--gamma", "-0.5", "--nu", "0.6", "--n", "48",
            "--T", "0.3", "--out-dir", out]
    # 1-element eps grid
    assert main(args + ["--family", "grazing",
                        "--eps-list", "pi/2"]) == 2
    # soft family has no eps-driven limit
    assert main(args + ["--family", "soft",
                        "--eps-list", "pi/2,pi/4,pi/8,pi/16"]) == 2
    # eps grid must decrease
    assert main(args + ["--family", "grazing",
                        "--eps-list", "pi/16,pi/8,pi/4,pi/2"]) == 2
    import os
    assert not os.path.exists(out)  # usage errors leave no artifacts


COUPLED_RUN = ["coupled-run", "--family", "grazing", "--gamma", "-0.5",
               "--nu", "0.6", "--eps", "pi/8", "--n", "48", "--T", "0.3",
               "--subdivision-n", "2"]
RATE_SWEEP = ["rate-sweep", "--family", "grazing", "--gamma", "-0.5",
              "--nu", "0.6", "--eps-list", "pi/2,pi/4,pi/8,pi/16",
              "--n", "48", "--T", "0.3"]
COULOMB_SWEEP = ["rate-sweep", "--family", "coulomb",
                 "--eps-list", "0.3,0.1,0.03,0.01", "--n", "48", "--T", "0.3"]


@pytest.mark.parametrize("base, key, value", [
    (COUPLED_RUN, "update_mode", "symmetric"),
    (COUPLED_RUN, "drift_subsample", 2),
    (COUPLED_RUN, "rate_cap", 1e9),
    (COUPLED_RUN, "pairing", "full"),
    (COUPLED_RUN, "m", 3),
    (COUPLED_RUN, "dt", 1e-3),
    (COUPLED_RUN, "dt", 0.4),
    (COUPLED_RUN, "h_eps", 0.5),
    (RATE_SWEEP, "dt", 1e-5),
    (RATE_SWEEP, "update_mode", "symmetric"),
    (RATE_SWEEP, "drift_subsample", 2),
    (RATE_SWEEP, "rate_cap", 1e9),
    (RATE_SWEEP, "pairing", "full"),
    (RATE_SWEEP, "m", 3),
    (RATE_SWEEP, "h_eps", 0.5),
    (COULOMB_SWEEP, "h_eps", 0.5),
    (COULOMB_SWEEP, "gamma", -0.5),
    (COULOMB_SWEEP, "nu", 0.3),
], ids=lambda v: (v[0] + "-" + v[2] if v is COULOMB_SWEEP
                  else v[0] if isinstance(v, list) else str(v)))
def test_coupled_commands_reject_solver_options(tmp_path, base, key, value):
    # the coupled integrator reads none of these (coupled-run and a grazing
    # sweep have no dt or h_eps, a Coulomb sweep has gamma = -3 and h_eps =
    # eps): no flag, no config key
    out = tmp_path / "never"
    flag = "--" + key.replace("_", "-")
    assert main(base + [flag, str(value), "--out-dir", str(out)]) == 2
    cfg = write_config(tmp_path, **{key: value})
    assert main(base + ["--config", cfg, "--out-dir", str(out)]) == 2
    assert not out.exists()


SIMULATE_BOLTZMANN = ["simulate-boltzmann", "--family", "grazing",
                      "--gamma", "-0.5", "--nu", "0.6", "--eps", "pi/8",
                      "--n", "48", "--dt", "0.05", "--T", "0.1"]
SIMULATE_LANDAU = ["simulate-landau", "--gamma", "-1.5", "--n", "32",
                   "--dt", "0.05", "--T", "0.1"]
VERIFY_KERNELS = ["verify-kernels", "--family", "grazing", "--gamma", "-0.5",
                  "--nu", "0.6", "--eps-list", "pi/2"]


@pytest.mark.parametrize("base, keys", [
    (RATE_SWEEP, {"v_floor": 0.3, "initial_name": "uniform-ball",
                  "schedule": [0.1]}),
    (SIMULATE_LANDAU, {"update_mode": "symmetric"}),
    (SIMULATE_BOLTZMANN, {"pairing": "full"}),
    (SIMULATE_BOLTZMANN, {"h_eps": 0.3}),
    (COUPLED_RUN, {"dt": 1e-3}),
    (RATE_SWEEP, {"h_eps": 0.5}),
    # neither draws from a seed (a sweep seeds each cell from its seeds)
    (RATE_SWEEP, {"seed": 5}),
    (VERIFY_KERNELS, {"seed": 5}),
], ids=["rate-sweep", "simulate-landau", "simulate-boltzmann",
        "simulate-boltzmann-h_eps", "coupled-run-dt", "rate-sweep-h_eps",
        "rate-sweep-seed", "verify-kernels-seed"])
def test_config_keys_a_command_never_reads_exit_2(tmp_path, base, keys,
                                                   capsys):
    # a config key outside the command's own set is refused, not echoed
    out = tmp_path / "never"
    cfg = write_config(tmp_path, **keys)
    assert main(base + ["--config", cfg, "--out-dir", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert all(repr(k) in err for k in keys)
    # the same command without the stray keys runs
    if base is not RATE_SWEEP:
        assert main(base + ["--out-dir", str(out)]) == 0


COULOMB_RUN = ["simulate-boltzmann", "--family", "coulomb", "--eps", "0.1",
               "--n", "48", "--dt", "0.01", "--T", "0.02"]
COULOMB_COUPLED = ["coupled-run", "--family", "coulomb", "--eps", "0.1",
                   "--n", "48", "--T", "0.3", "--subdivision-n", "2"]


@pytest.mark.parametrize("base, flags, refused", [
    # a Coulomb support starts at eps: no theta_min below it
    (COULOMB_RUN, ["--theta-min", "0.5"], "theta_min"),
    (COULOMB_COUPLED, ["--theta-min", "0.5"], "theta_min"),
    # symmetric mode applies no drift, full pairing takes every pair
    (SIMULATE_BOLTZMANN + ["--update-mode", "symmetric"],
     ["--drift-subsample", "2"], "drift_subsample"),
    (SIMULATE_LANDAU + ["--pairing", "full"], ["--m", "3"], "m"),
    # the default initial distribution is isotropic-gaussian
    (SIMULATE_LANDAU, ["--initial-radius", "3", "--initial-sigma2-hot", "9"],
     "radius', 'sigma2_hot"),
], ids=["simulate-boltzmann-coulomb-theta_min",
        "coupled-run-coulomb-theta_min", "symmetric-drift_subsample",
        "full-pairing-m", "gaussian-radius"])
def test_options_the_run_never_reads_exit_2(tmp_path, base, flags, refused,
                                            capsys):
    out = tmp_path / "never"
    assert main(base + flags + ["--out-dir", str(out)]) == 2
    assert not out.exists()
    assert f"'{refused}'" in capsys.readouterr().err
    # the same command without the refused options runs
    assert main(base + ["--out-dir", str(out)]) == 0


@pytest.mark.parametrize("command", ["rate-sweep", "verify-kernels",
                                     "fit-rate"])
def test_seed_is_a_flag_only_where_a_command_draws(tmp_path, capsys,
                                                   command):
    # none of these draws from a seed (a sweep seeds each cell from its
    # seeds, and --seed is no abbreviation of --seeds)
    args = {"rate-sweep": RATE_SWEEP, "verify-kernels": VERIFY_KERNELS,
            "fit-rate": ["fit-rate", "--family", "grazing", "--input",
                         str(tmp_path / "sweep.csv")]}[command]
    assert main(args + ["--seed", "5", "--out-dir", str(tmp_path)]) == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def test_fit_rate_refuses_a_seed_key(tmp_path, capsys):
    rows = ["eps,seed,t,paired_l2,w2,m2_boltz,m2_landau"]
    for eps, dist in ((0.5, 0.4), (0.25, 0.2)):
        for seed in (0, 1, 2):
            rows.append(f"{eps},{seed},0.3,{dist + 0.01 * seed},nan,3.0,3.0")
    path = tmp_path / "sweep.csv"
    path.write_text("\n".join(rows) + "\n")
    args = ["fit-rate", "--input", str(path), "--family", "grazing",
            "--out-dir", str(tmp_path / "out")]
    assert main(args + ["--config", write_config(tmp_path, seed=5)]) == 2
    assert "'seed'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(args) == 0


def test_fit_rate_inconclusive_exits_1(tmp_path):
    rows = ["eps,seed,t,paired_l2,w2,m2_boltz,m2_landau"]
    for eps, base in ((0.5, 0.2), (0.25, 0.4)):  # grows as eps shrinks
        for seed in (0, 1, 2):
            rows.append(f"{eps},{seed},0.0,0.0,nan,3.0,3.0")
            rows.append(f"{eps},{seed},0.3,{base + 0.01 * seed},nan,3.0,3.0")
    path = tmp_path / "sweep.csv"
    path.write_text("\n".join(rows) + "\n")
    assert main(["fit-rate", "--input", str(path), "--family", "grazing",
                 "--out-dir", str(tmp_path / "out")]) == 1
    fit = json.loads((tmp_path / "out" / "fit.json").read_text())
    assert fit["verdict"] == "inconclusive"
    assert fit["means"] == pytest.approx([0.21, 0.41])


def test_fit_rate_input_validation(tmp_path):
    # missing required flag: argparse usage error
    assert main(["fit-rate", "--family", "grazing"]) == 2
    # nonexistent file
    assert main(["fit-rate", "--input", str(tmp_path / "nope.csv"),
                 "--family", "grazing", "--out-dir", str(tmp_path)]) == 2
    # incomplete (eps, seed) grid
    path = tmp_path / "holes.csv"
    path.write_text("eps,seed,t,paired_l2,w2,m2_boltz,m2_landau\n"
                    "0.5,0,0.3,0.2,nan,3.0,3.0\n"
                    "0.5,1,0.3,0.2,nan,3.0,3.0\n"
                    "0.25,0,0.3,0.1,nan,3.0,3.0\n")
    assert main(["fit-rate", "--input", str(path), "--family", "grazing",
                 "--out-dir", str(tmp_path)]) == 2
    # wrong header
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["fit-rate", "--input", str(bad), "--family", "grazing",
                 "--out-dir", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# option plumbing
# ---------------------------------------------------------------------------

def test_usage_and_config_errors_exit_2(tmp_path, capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1,\n "family" "grazing"}')
    assert main(["simulate-boltzmann", "--config", str(bad)]) == 2
    typo = tmp_path / "typo.json"
    typo.write_text('{"version": 1, "famly": "grazing"}')
    assert main(["simulate-boltzmann", "--config", str(typo)]) == 2
    # bad angle literal in a flag
    assert main(["verify-kernels", "--family", "grazing", "--gamma", "-0.5",
                 "--nu", "0.6", "--eps-list", "pi/zero"]) == 2
    # a flag's type error says what is wrong, in the config's own words
    err = capsys.readouterr().err
    assert ("argument --eps-list: field 'eps_list[0]': bad angle literal "
            "'pi/zero' (expected pi/k with integer k >= 1)") in err
    assert main(SIMULATE_BOLTZMANN + ["--eps", "pi/zero"]) == 2
    assert main(SIMULATE_BOLTZMANN + ["--n", "many"]) == 2
    assert main(RATE_SWEEP + ["--seeds", "0:x"]) == 2
    err = capsys.readouterr().err
    assert "argument --eps: field 'eps': bad angle literal 'pi/zero'" in err
    assert "argument --n: field 'n': expected an integer" in err
    assert ("argument --seeds: field 'seeds': expected a list of integers"
            in err)
    assert "_arg" not in err


def test_out_dir_env_and_flag_precedence(tmp_path, monkeypatch):
    envdir = tmp_path / "from_env"
    monkeypatch.setenv("GRAZEKIT_OUT_DIR", str(envdir))
    assert main(["verify-kernels", "--family", "soft", "--gamma", "-1.0",
                 "--nu", "0.8"]) == 0
    assert (envdir / "verify_kernels.csv").exists()

    flagdir = tmp_path / "from_flag"
    assert main(["verify-kernels", "--family", "soft", "--gamma", "-1.0",
                 "--nu", "0.8", "--out-dir", str(flagdir)]) == 0
    assert (flagdir / "verify_kernels.csv").exists()


def test_help_exits_zero():
    assert main(["--help"]) == 0
    assert main(["rate-sweep", "--help"]) == 0
