"""Named, keyed random streams.

Every stochastic component of the package draws from a PCG64DXSM generator
seeded from the key (seed, stream name, indices...).  numpy's SeedSequence
hashes the whole key into the generator's initial state, and PCG64DXSM is
the generator numpy recommends for many parallel streams, so streams with
distinct keys are independent; a stream is rebuilt from its key alone,
without replaying any other stream.  This is what makes runs
bit-reproducible, and what lets coupling.rate_sweep run its (eps, seed)
cells in separate processes with output identical to a one-process run.

The stream name is hashed to a stable 32-bit tag; indices (step, slab,
particle, ...) are folded into the spawn key unchanged.  This module is the
only place that names a bit generator.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["stream", "substream_key"]


def _tag(name: str) -> int:
    # crc32 is stable across platforms and Python versions, unlike hash().
    return zlib.crc32(name.encode("utf8"))


def substream_key(name: str, *indices: int) -> tuple[int, ...]:
    """Spawn-key tuple identifying the (name, indices...) stream."""
    return (_tag(name),) + tuple(int(i) for i in indices)


def stream(seed: int, name: str, *indices: int) -> np.random.Generator:
    """A fresh Generator for the named stream of this seed.

    Calling twice with identical arguments yields generators producing
    identical output.
    """
    ss = np.random.SeedSequence(entropy=int(seed) & ((1 << 64) - 1),
                                spawn_key=substream_key(name, *indices))
    return np.random.Generator(np.random.PCG64DXSM(ss))
