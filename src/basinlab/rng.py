"""Deterministic, partitionable random streams.

Every stochastic routine in the library draws from a stream identified by
(seed, stream_id). Streams are backed by the counter-based Philox generator,
so distinct ids give statistically independent streams and the same id always
replays bit-identically, regardless of how many other streams were consumed.
"""

from __future__ import annotations

import numpy as np

# Every Monte Carlo loop draws its samples in chunks of at most this many,
# which bounds the loop's memory whatever the requested sample count.
MC_CHUNK = 1_000_000


def rng_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Return the generator for stream `stream_id` of experiment `seed`."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream_id & 0xFFFFFFFFFFFFFFFF)])
    return np.random.Generator(np.random.Philox(key=key))
