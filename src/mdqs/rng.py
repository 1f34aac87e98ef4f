"""Deterministic random-stream derivation.

A run has one 64-bit master seed. Every consumer gets its own stream
derived from the master seed plus a stable string label, so adding a
consumer never shifts the draws of an existing one, and reruns are
byte-identical. Labels name a purpose, not a simulation config: the
synthetic dataset generator, the simulation's synthetic qualities, and each
simulated evaluator by id. So every cell of a simulation grid draws the
same numbers for the same purpose.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

SEED_LIMIT = 1 << 64  # a master seed is an integer in [0, SEED_LIMIT)


def stream_words(label: str) -> tuple[int, int, int, int]:
    """First four little-endian uint32 words of SHA-256(label)."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return struct.unpack("<4I", digest[:16])


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Generator for (seed, label); same pair always yields the same stream.

    ValueError for a seed outside [0, SEED_LIMIT): masking it would run
    another seed's stream under this seed's name."""
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    entropy = [seed, *stream_words(label)]
    return np.random.default_rng(np.random.SeedSequence(entropy))
