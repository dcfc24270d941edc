"""Flat, versioned JSON run configs with symbolic angle literals.

A config file is a single flat JSON object.  ``version`` is required and
must equal CONFIG_VERSION; every other key must appear in the schema below
or loading fails, so typos never silently fall back to defaults.  Values
set to JSON null are treated as absent.

Angle-valued fields (eps, eps_list entries, theta_min, eta) additionally
accept the literals "pi" and "pi/k" for integer k, so an eps grid like
["pi/2", "pi/8", "pi/32"] carries no decimal drift.  Serialization turns
exact multiples pi/k back into the same literal, so a config round-trips
byte-for-byte through load -> echo_form -> JSON -> load.
"""

import json
import math
import os

from .errors import ParameterError

__all__ = [
    "CONFIG_VERSION",
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


def _angle(value, field):
    return parse_angle(value, field)


def _angle_list(value, field):
    if not isinstance(value, (list, tuple)):
        raise ParameterError(f"field '{field}': expected a list of angles")
    return [parse_angle(v, f"{field}[{i}]") for i, v in enumerate(value)]


def _int(value, field):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"field '{field}': expected an integer")
    return value


def _int_list(value, field):
    if not isinstance(value, (list, tuple)):
        raise ParameterError(f"field '{field}': expected a list of integers")
    return [_int(v, f"{field}[{i}]") for i, v in enumerate(value)]


def _float(value, field):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(f"field '{field}': expected a number")
    return float(value)


def _float_list(value, field):
    if not isinstance(value, (list, tuple)):
        raise ParameterError(f"field '{field}': expected a list of numbers")
    return [_float(v, f"{field}[{i}]") for i, v in enumerate(value)]


def _str(value, field):
    if not isinstance(value, str):
        raise ParameterError(f"field '{field}': expected a string")
    return value


def _bool(value, field):
    if not isinstance(value, bool):
        raise ParameterError(f"field '{field}': expected true/false")
    return value


# Declaration order is the serialization order, grouped by concern.  The
# converter both validates and normalizes; angle-valued keys are listed in
# _ANGLE_KEYS so dumping can restore their symbolic form.
_SCHEMA = {
    "version": _int,
    # kernel
    "family": _str,
    "gamma": _float,
    "nu": _float,
    "eps": _angle,
    "h_eps": _float,
    # particle runs
    "n": _int,
    "dt": _float,
    "T": _float,
    "theta_min": _angle,
    "v_floor": _float,
    "update_mode": _str,
    "drift_subsample": _int,
    "rate_cap": _float,
    "pairing": _str,
    "m": _int,
    "reg_delta": _float,
    # initial condition
    "initial_name": _str,
    "initial_sigma2": _float,
    "initial_sigma2_cold": _float,
    "initial_sigma2_hot": _float,
    "initial_hot_fraction": _float,
    "initial_radius": _float,
    # coupling / sweeps
    "eps_list": _angle_list,
    "seeds": _int_list,
    "p": _int,
    "tanaka": _bool,
    "level": _str,
    "eta": _angle,
    "truncation_m": _float,
    "normal_fallback": _int,
    "subdivision_n": _int,
    "w2_mode": _str,
    # verifiers
    "samples": _int,
    "t_list": _float_list,
    # bookkeeping
    "seed": _int,
    "schedule": _float_list,
    "out_dir": _str,
}

_ANGLE_KEYS = {"eps", "theta_min", "eta"}
_ANGLE_LIST_KEYS = {"eps_list"}


def validate_config(doc, source="config"):
    """Check a raw mapping against the schema and normalize its values.

    Returns a new dict (angles as floats).  Null values drop out; unknown
    keys and a missing/mismatched version are errors naming the field.
    """
    if not isinstance(doc, dict):
        raise ParameterError(f"{source}: top level must be a JSON object")
    unknown = sorted(set(doc) - set(_SCHEMA))
    if unknown:
        raise ParameterError(
            f"{source}: unknown field(s) {', '.join(repr(k) for k in unknown)}")
    if "version" not in doc:
        raise ParameterError(f"{source}: missing required field 'version'")
    cfg = {}
    for key, convert in _SCHEMA.items():
        if key not in doc or doc[key] is None:
            continue
        cfg[key] = convert(doc[key], key)
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
    """The serializable image of a validated config: schema order, symbolic
    angles restored.  Echoed into manifests; as JSON it loads back to the
    same config."""
    out = {}
    for key in _SCHEMA:
        if key not in cfg:
            continue
        value = cfg[key]
        if key in _ANGLE_KEYS:
            value = format_angle(value)
        elif key in _ANGLE_LIST_KEYS:
            value = [format_angle(v) for v in value]
        out[key] = value
    return out


def default_out_dir(cfg=None):
    """Output directory resolution: config key, else $GRAZEKIT_OUT_DIR,
    else the current directory."""
    if cfg and cfg.get("out_dir"):
        return cfg["out_dir"]
    return os.environ.get("GRAZEKIT_OUT_DIR", ".")
