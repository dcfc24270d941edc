"""Flat, versioned JSON run configs with symbolic angle literals.

A config file is a single flat JSON object.  ``version`` is required and
must equal CONFIG_VERSION; every other key must appear in KEYS or loading
fails, so typos never silently fall back to defaults.  Values set to JSON
null are treated as absent.

KEYS is the one table of config keys: each key's name and kind, in echo
order.  A kind (int, float, angle, str, bool and the int, float and angle
lists) brings the JSON converter that validates a value, the text parser
of its command-line flag (an int list also takes a:b for range(a, b)) and
its echo form.  The command line takes its flags from this table (see
cli), and flag_type gives a flag's text the same validated value as its
JSON spelling.

Angle kinds (eps, eps_list entries, theta_min, eta) additionally accept
the literals "pi" and "pi/k" for integer k, so an eps grid like
["pi/2", "pi/8", "pi/32"] carries no decimal drift.  Their echo turns exact
multiples pi/k back into the same literal, so a config round-trips
byte-for-byte through load -> echo_form -> JSON -> load.
"""

import argparse
import json
import math
import os
from typing import Callable, NamedTuple

from .errors import ParameterError

__all__ = [
    "CONFIG_VERSION",
    "KEYS",
    "flag_type",
    "parse_angle",
    "format_angle",
    "validate_config",
    "load_config",
    "echo_form",
    "default_out_dir",
]

CONFIG_VERSION = 1

_MAX_PI_DENOM = 4096


def parse_angle(value, field="angle"):
    """Turn a config angle (number, "pi", or "pi/k") into a float."""
    if isinstance(value, bool):
        raise ParameterError(f"field '{field}': expected an angle, got a bool")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        text = value.strip().lower()
        if text == "pi":
            return math.pi
        if text.startswith("pi/"):
            denom = text[3:]
            if denom.isdigit() and int(denom) > 0:
                return math.pi / int(denom)
            raise ParameterError(
                f"field '{field}': bad angle literal {value!r} "
                "(expected pi/k with integer k >= 1)")
        try:
            return float(text)
        except ValueError:
            raise ParameterError(
                f"field '{field}': bad angle literal {value!r}") from None
    raise ParameterError(f"field '{field}': expected an angle, got "
                         f"{type(value).__name__}")


def format_angle(x):
    """Inverse of parse_angle: pi/k multiples back to their literal.

    Only bit-exact values of math.pi / k are rewritten (k up to 4096), so
    formatting never loses precision: everything else stays a plain float.
    """
    x = float(x)
    if x == math.pi:
        return "pi"
    if x > 0.0:
        k = round(math.pi / x)
        if 1 <= k <= _MAX_PI_DENOM and math.pi / k == x:
            return f"pi/{k}"
    return x


def _scalar(types, expected, cast=lambda value: value):
    """The JSON converter of a scalar of one of `types`; a bool passes
    only where `types` names bool (JSON true is no number)."""
    def convert(value, field):
        if not isinstance(value, types) or (
                isinstance(value, bool) and bool not in types):
            raise ParameterError(f"field '{field}': expected {expected}")
        return cast(value)
    return convert


def _number(cast):
    """Flag text as a number, else the text itself, which the kind's
    converter then refuses with its own message."""
    def text_to_number(text):
        try:
            return cast(text)
        except ValueError:
            return text
    return text_to_number


class _Kind(NamedTuple):
    """How one kind of config value is read and written: convert(value,
    field) validates a JSON value, text(flag text) gives the JSON value a
    command-line flag spells (None for bool: a --key / --no-key pair) and
    echo(value) writes a validated value back as JSON."""

    name: str
    convert: Callable
    text: Callable
    echo: Callable = lambda value: value

    def list_of(self, what, text=None):
        """The kind of a list of this kind's values, comma-separated as a
        flag."""
        def convert(value, field):
            if not isinstance(value, (list, tuple)):
                raise ParameterError(
                    f"field '{field}': expected a list of {what}")
            return [self.convert(v, f"{field}[{i}]")
                    for i, v in enumerate(value)]
        return _Kind(self.name + " list", convert, text or (
            lambda t: [self.text(v) for v in t.split(",")]),
            lambda value: [self.echo(v) for v in value])


def _int_list_text(text):
    """Comma list of integers, or a:b for range(a, b)."""
    if ":" not in text:
        return [_INT.text(v) for v in text.split(",")]
    try:
        return list(range(*map(int, text.split(":", 1))))
    except ValueError:
        return text


_INT = _Kind("int", _scalar((int,), "an integer"), _number(int))
_FLOAT = _Kind("float", _scalar((int, float), "a number", float),
               _number(float))
_ANGLE = _Kind("angle", parse_angle, str, format_angle)
_STR = _Kind("str", _scalar((str,), "a string"), str)
_BOOL = _Kind("bool", _scalar((bool,), "true/false"), None)
_INT_LIST = _INT.list_of("integers", _int_list_text)
_FLOAT_LIST = _FLOAT.list_of("numbers")
_ANGLE_LIST = _ANGLE.list_of("angles")

# Every config key and its kind.  Declaration order is the serialization
# (manifest echo) order, grouped by concern.
KEYS = {
    "version": _INT,
    # kernel
    "family": _STR, "gamma": _FLOAT, "nu": _FLOAT, "eps": _ANGLE,
    "h_eps": _FLOAT,
    # particle runs
    "n": _INT, "dt": _FLOAT, "T": _FLOAT, "theta_min": _ANGLE,
    "v_floor": _FLOAT, "update_mode": _STR, "drift_subsample": _INT,
    "rate_cap": _FLOAT, "pairing": _STR, "m": _INT, "reg_delta": _FLOAT,
    # initial condition
    "initial_name": _STR, "initial_sigma2": _FLOAT,
    "initial_sigma2_cold": _FLOAT, "initial_sigma2_hot": _FLOAT,
    "initial_hot_fraction": _FLOAT, "initial_radius": _FLOAT,
    # coupling / sweeps
    "eps_list": _ANGLE_LIST, "seeds": _INT_LIST, "p": _INT, "tanaka": _BOOL,
    "eta": _ANGLE, "subdivision_n": _INT,
    "w2_mode": _STR,
    # verifiers
    "samples": _INT, "t_list": _FLOAT_LIST,
    # bookkeeping
    "seed": _INT, "schedule": _FLOAT_LIST, "out_dir": _STR,
}


def flag_type(key):
    """The argparse type of key's flag: the text parser of its kind, which
    gives the value the same text gets as JSON and reports a text that
    spells none with the JSON converter's message."""
    kind = KEYS[key]

    def parse(text):
        try:
            return kind.convert(kind.text(text), key)
        except ParameterError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def validate_config(doc, source="config"):
    """Check a raw mapping against KEYS and normalize its values.

    Returns a new dict (angles as floats).  Null values drop out; unknown
    keys and a missing/mismatched version are errors naming the field.
    """
    if not isinstance(doc, dict):
        raise ParameterError(f"{source}: top level must be a JSON object")
    unknown = sorted(set(doc) - set(KEYS))
    if unknown:
        raise ParameterError(
            f"{source}: unknown field(s) {', '.join(repr(k) for k in unknown)}")
    if "version" not in doc:
        raise ParameterError(f"{source}: missing required field 'version'")
    cfg = {}
    for key, kind in KEYS.items():
        if key not in doc or doc[key] is None:
            continue
        cfg[key] = kind.convert(doc[key], key)
    if cfg["version"] != CONFIG_VERSION:
        raise ParameterError(
            f"{source}: field 'version': expected {CONFIG_VERSION}, "
            f"got {cfg['version']}")
    return cfg


def load_config(path):
    """Read and validate a JSON config file.

    Malformed JSON is reported with the file, line and column; schema
    violations name the offending field.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from None
    return validate_config(doc, source=str(path))


def echo_form(cfg):
    """The serializable image of a validated config: table order, symbolic
    angles restored.  Echoed into manifests; as JSON it loads back to the
    same config."""
    return {key: kind.echo(cfg[key]) for key, kind in KEYS.items()
            if key in cfg}


def default_out_dir(cfg=None):
    """Output directory resolution: config key, else $GRAZEKIT_OUT_DIR,
    else the current directory."""
    if cfg and cfg.get("out_dir"):
        return cfg["out_dir"]
    return os.environ.get("GRAZEKIT_OUT_DIR", ".")
