"""Deterministic random-number plumbing.

Every stochastic routine takes an RngSpec rather than a live generator, so a
result is a pure function of (inputs, master_seed, stream_id).  Streams are
derived counter-style: the generator key is a hash of master_seed and
stream_id, so distinct stream ids give statistically independent streams and
the same pair always reproduces the same draws bit for bit, independent of
how many streams exist or in what order they are consumed.
"""

from __future__ import annotations

from .records import record

U64_MAX = 2**64 - 1


@record
class RngSpec:
    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not 0 <= int(self.master_seed) <= U64_MAX:
            raise ValueError(f"master_seed must fit in an unsigned 64-bit int, got {self.master_seed}")
        if int(self.stream_id) < 0:
            raise ValueError(f"stream_id must be nonnegative, got {self.stream_id}")

    def generator(self) -> np.random.Generator:
        """Fresh counter-based generator for this (master_seed, stream_id) pair."""
        import numpy as np

        seq = np.random.SeedSequence(entropy=int(self.master_seed),
                                     spawn_key=(int(self.stream_id),))
        return np.random.Generator(np.random.Philox(seed=seq))
