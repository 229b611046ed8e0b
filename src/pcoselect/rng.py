"""Counter-based random streams.

Replications and substreams are addressed by key, not by draw order: stream
(seed, replication, stream) always yields the same numbers no matter which
other streams were consumed first, which is what makes multi-process Monte
Carlo runs bit-reproducible.
"""

from __future__ import annotations

import numpy as np


def stream(seed: int, replication: int = 0, substream: int = 0) -> np.random.Generator:
    """Generator for the (seed, replication, substream) cell.

    Philox is a counter-based bit generator; the 128-bit key is filled with
    (seed, replication) and substreams are separated by 2^128 jumps.
    """
    if seed < 0 or replication < 0 or substream < 0:
        raise ValueError("seed, replication and substream must be nonnegative")
    key = np.array([np.uint64(seed), np.uint64(replication)], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    if substream:
        bitgen = bitgen.jumped(int(substream))
    return np.random.Generator(bitgen)
