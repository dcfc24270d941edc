"""Tests of the named random streams."""

import pathlib
import re

import numpy as np

from grazekit import rngstreams

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "grazekit"

# every stream in the package is built as rngstreams.stream(seed, "name", ...)
CALL = re.compile(r"rngstreams\.stream\(")
# the seed argument may hold one level of parentheses, such as _seed(cfg)
NAMED_CALL = re.compile(
    r'rngstreams\.stream\(\s*(?:[^,()]|\([^()]*\))+,\s*"([^"]+)"')
# what builds a generator without a stream key
GENERATOR = re.compile(r"\bGenerator\(|\bdefault_rng\b|\bRandomState\b|"
                       r"\b(?:PCG64(?:DXSM)?|Philox|SFC64|MT19937)\b")


def source_stream_names():
    calls, names = 0, set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        calls += len(CALL.findall(text))
        found = NAMED_CALL.findall(text)
        assert len(found) == len(CALL.findall(text)), \
            f"{path.name}: a stream call without a literal name"
        names.update(found)
    assert calls > 0
    return names


def test_named_call_pattern():
    assert NAMED_CALL.findall('rngstreams.stream(_seed(cfg), "x")') == ["x"]
    assert NAMED_CALL.findall('rngstreams.stream(s, "slab-jump", k)') \
        == ["slab-jump"]
    assert not NAMED_CALL.findall("rngstreams.stream(_seed(cfg), name)")
    assert not NAMED_CALL.findall("rngstreams.stream(seed, name, 3)")


def test_stream_names_have_distinct_tags():
    # parallel cells are only as independent as their stream keys: two names
    # folding to one crc32 tag would share draws
    names = source_stream_names()
    assert {"boltzmann-step", "cli-init", "coupled-init", "landau-step",
            "pg-verify", "slab-comp", "slab-jump", "verify-geometry"} <= names
    tags = {rngstreams.substream_key(name)[0] for name in names}
    assert len(tags) == len(names)


def test_same_key_same_draws_distinct_keys_differ():
    a = rngstreams.stream(5, "slab-jump", 2).random(8)
    assert np.array_equal(a, rngstreams.stream(5, "slab-jump", 2).random(8))
    assert not np.array_equal(a, rngstreams.stream(5, "slab-jump", 3).random(8))
    assert not np.array_equal(a, rngstreams.stream(5, "slab-comp", 2).random(8))
    assert not np.array_equal(a, rngstreams.stream(6, "slab-jump", 2).random(8))


def test_only_rngstreams_names_a_generator():
    # a generator built anywhere else would draw outside the keyed streams
    for path in sorted(SRC.glob("*.py")):
        found = GENERATOR.findall(path.read_text(encoding="utf-8"))
        if path.name == "rngstreams.py":
            assert set(found) == {"Generator(", "PCG64DXSM"}
        else:
            assert not found, f"{path.name} names {found}"
    assert type(rngstreams.stream(0, "slab-jump", 1).bit_generator) \
        is np.random.PCG64DXSM
