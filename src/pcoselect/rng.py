"""Counter-based random streams.

Replications and substreams are addressed by key, not by draw order: stream
(seed, replication, stream) always yields the same numbers no matter which
other streams were consumed first, which is what makes multi-process Monte
Carlo runs bit-reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


def stream(seed: int, replication: int = 0, substream: int = 0) -> np.random.Generator:
    """Generator for the (seed, replication, substream) cell.

    Philox is a counter-based bit generator; the 128-bit key is filled with
    (seed, replication) and substreams are separated by 2^128 jumps.  A key
    word holds 64 bits, so each index must lie in [0, 2^64); any other is a
    ConfigError naming it.
    """
    for name, value in (("seed", seed), ("replication", replication), ("substream", substream)):
        if not 0 <= value < 2**64:
            raise ConfigError(f"{name} must be in [0, 2^64) (got {value})")
    key = np.array([np.uint64(seed), np.uint64(replication)], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    if substream:
        bitgen = bitgen.jumped(int(substream))
    return np.random.Generator(bitgen)
