"""Deterministic random-stream derivation.

A run has one 64-bit master seed. Every consumer (synthetic generator, each
simulation config, noise draws) gets its own stream derived from the master
seed plus a stable string label, so adding a consumer never shifts the draws
of an existing one, and reruns are byte-identical.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

_MASK64 = (1 << 64) - 1


def stream_words(label: str) -> tuple[int, int, int, int]:
    """First four little-endian uint32 words of SHA-256(label)."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return struct.unpack("<4I", digest[:16])


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Generator for (seed, label); same pair always yields the same stream."""
    entropy = [seed & _MASK64, *stream_words(label)]
    return np.random.default_rng(np.random.SeedSequence(entropy))
