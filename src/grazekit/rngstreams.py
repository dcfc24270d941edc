"""Named, counter-based random streams.

Every stochastic component of the package draws from a Philox generator keyed
by (seed, stream name, indices...). Philox is counter-based, so streams with
distinct keys are independent and any stream can be reconstructed without
replaying the others -- this is what makes runs bit-reproducible, and what
lets coupling.rate_sweep run its (eps, seed) cells in separate processes
with output identical to a one-process run.

The stream name is hashed to a stable 32-bit tag; indices (step, slab,
particle, ...) are folded into the spawn key unchanged.
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
    return np.random.Generator(np.random.Philox(ss))
