"""Tests for the flat JSON config layer: angle literals, schema checks,
lossless round trips, and the key table that drives the command line."""

import argparse
import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grazekit import cli
from grazekit.boltzmann import BoltzmannConfig
from grazekit.cli import _flag
from grazekit.config import (CONFIG_VERSION, KEYS, default_out_dir,
                             echo_form, format_angle, load_config,
                             parse_angle, validate_config)
from grazekit.coupling import CouplingPlan
from grazekit.errors import ParameterError
from grazekit.landau import LandauConfig

GOOD_DOC = {
    "version": 1,
    "family": "grazing",
    "gamma": -0.5,
    "nu": 0.6,
    "eps": "pi/8",
    "eps_list": ["pi/2", "pi/8", 0.3],
    "theta_min": 0.01,
    "n": 128,
    "dt": 0.05,
    "T": 0.5,
    "seeds": [0, 1, 2],
    "schedule": [0.25, 0.5],
    "tanaka": True,
    "out_dir": "runs/a",
}


def test_parse_angle_literals():
    assert parse_angle("pi") == math.pi
    assert parse_angle("pi/2") == math.pi / 2
    assert parse_angle(" PI/32 ") == math.pi / 32
    assert parse_angle("0.3") == 0.3
    assert parse_angle(2) == 2.0
    assert parse_angle(0.125) == 0.125
    for bad in ("pi/0", "pi/-2", "pi/x", "2pi", "tau", [1], True, None):
        with pytest.raises(ParameterError):
            parse_angle(bad)


def test_format_angle_round_trip():
    for k in (1, 2, 3, 7, 8, 16, 64, 4096):
        lit = "pi" if k == 1 else f"pi/{k}"
        assert format_angle(parse_angle(lit)) == lit
    # non-multiples stay plain floats, bit-exactly
    for x in (0.3, 1e-4, 1.0, math.pi / 8 * (1 + 2e-16)):
        out = format_angle(x)
        assert isinstance(out, float) and out == x
    assert format_angle(math.pi / 8192) == math.pi / 8192  # beyond the table


def test_validate_accepts_and_normalizes():
    cfg = validate_config(dict(GOOD_DOC))
    assert cfg["eps"] == math.pi / 8
    assert cfg["eps_list"] == [math.pi / 2, math.pi / 8, 0.3]
    assert cfg["seeds"] == [0, 1, 2]
    assert cfg["version"] == CONFIG_VERSION


def test_validate_rejects_unknown_keys_by_name():
    for key, value in (("extra_knob", 3), ("level", "common"),
                       ("truncation_m", 4.0)):
        with pytest.raises(ParameterError, match=f"unknown field.*'{key}'"):
            validate_config(dict(GOOD_DOC, **{key: value}))


def test_validate_version_handling():
    with pytest.raises(ParameterError, match="version"):
        validate_config({"family": "soft"})
    with pytest.raises(ParameterError, match="version"):
        validate_config({"version": 2})
    with pytest.raises(ParameterError):
        validate_config(["not", "a", "mapping"])


def test_null_means_absent():
    cfg = validate_config({"version": 1, "eta": None, "n": 8})
    assert "eta" not in cfg and cfg["n"] == 8


def test_type_checks_reject_lookalikes():
    cases = [
        {"n": "5"},              # string int
        {"n": True},             # bool is not an int
        {"tanaka": 1},           # int is not a bool
        {"gamma": "-0.5"},       # string float
        {"seeds": [0, 1.5]},     # float in int list
        {"eps_list": "pi/2"},    # scalar where list expected
        {"family": 3},
        {"schedule": [0.1, "x"]},
    ]
    for extra in cases:
        with pytest.raises(ParameterError):
            validate_config({"version": 1, **extra})


def test_dump_load_round_trip_is_lossless_and_stable():
    cfg1 = validate_config(dict(GOOD_DOC))
    text1 = json.dumps(echo_form(cfg1))
    doc2 = json.loads(text1)
    assert doc2["eps"] == "pi/8"            # symbolic form restored
    assert doc2["eps_list"][:2] == ["pi/2", "pi/8"]
    assert doc2["eps_list"][2] == 0.3
    cfg2 = validate_config(doc2)
    assert cfg2 == cfg1
    assert json.dumps(echo_form(cfg2)) == text1   # byte-stable fixed point


def test_save_and_load_config_file(tmp_path):
    path = tmp_path / "run.json"
    cfg1 = validate_config(dict(GOOD_DOC))
    path.write_text(json.dumps(echo_form(cfg1)))
    assert load_config(path) == cfg1


def test_load_reports_line_and_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 1,\n "family" "grazing"}')
    with pytest.raises(ParameterError) as err:
        load_config(path)
    msg = str(err.value)
    assert "bad.json:2:" in msg and "invalid JSON" in msg

    path2 = tmp_path / "typo.json"
    path2.write_text('{"version": 1, "famly": "soft"}')
    with pytest.raises(ParameterError, match="famly"):
        load_config(path2)


def test_default_out_dir_resolution(monkeypatch):
    monkeypatch.delenv("GRAZEKIT_OUT_DIR", raising=False)
    assert default_out_dir({}) == "."
    monkeypatch.setenv("GRAZEKIT_OUT_DIR", "/tmp/envdir")
    assert default_out_dir({}) == "/tmp/envdir"
    assert default_out_dir({"out_dir": "chosen"}) == "chosen"


# ---------------------------------------------------------------------------
# the key table: every key read somewhere, every command's flags its keys

def _subcommand_flags():
    """Each subcommand's config-key flags, by dest."""
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return {command: {a.dest for a in sub._actions
                      if a.option_strings and a.dest in KEYS}
            for command, sub in subs.choices.items()}


def test_every_table_key_is_read_by_a_command():
    read = set().union(*map(set, cli._COMMAND_KEYS.values()))
    assert read | {"version"} == set(KEYS)


def test_every_subcommand_takes_exactly_its_keys_as_flags():
    flags = _subcommand_flags()
    assert flags == {c: set(k) for c, k in cli._COMMAND_KEYS.items()}
    for command, keys in cli._COMMAND_KEYS.items():
        assert len(set(keys)) == len(keys), command


@pytest.mark.parametrize("cls, command", [
    (BoltzmannConfig, "simulate-boltzmann"),
    (LandauConfig, "simulate-landau"),
    (CouplingPlan, "coupled-run"),
])
def test_every_config_field_is_a_key_of_its_command(cls, command):
    # kernel, seed and subdivision are built from other keys
    built = {"kernel", "seed", "subdivision"}
    fields = {f.name for f in dataclasses.fields(cls) if f.init} - built
    assert fields <= set(cli._COMMAND_KEYS[command])


_TEXT_VALUES = {
    "int": st.integers(),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "angle": st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.integers(1, 4096).map(lambda k: f"pi/{k}"),
                       st.just("pi"), st.just(" PI/8 ")),
    "str": st.text(max_size=8),
    "bool": st.booleans(),
}


def _spell(value):
    """A JSON scalar as a command line writes it."""
    return value if isinstance(value, str) else repr(value)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(set(KEYS) - {"version"})), st.data())
def test_flag_text_and_json_give_the_same_value(key, data):
    kind = KEYS[key].name
    element = _TEXT_VALUES[kind.removesuffix(" list")]
    if kind == "bool":
        value = data.draw(element)
        arg = _flag(key) if value else "--no-" + _flag(key)[2:]
    elif kind == "int list" and data.draw(st.booleans()):
        lo, hi = (data.draw(st.integers(-50, 50)) for _ in range(2))
        value = list(range(lo, hi))
        arg = f"{_flag(key)}={lo}:{hi}"
    elif kind.endswith(" list"):
        value = data.draw(st.lists(element, min_size=1, max_size=4))
        arg = f"{_flag(key)}={','.join(map(_spell, value))}"
    else:
        value = data.draw(element)
        arg = f"{_flag(key)}={_spell(value)}"
    command = next(c for c, keys in cli._COMMAND_KEYS.items() if key in keys)
    args = cli.build_parser().parse_args([command, arg])
    assert getattr(args, key) == validate_config(
        {"version": CONFIG_VERSION, key: value})[key]
