"""Shared plumbing: deterministic seed derivation."""

from __future__ import annotations

import numpy as np


def derive_seed(base: int, *path: int) -> int:
    """Deterministic u64 stream seed for a (base, stage...) path."""
    ss = np.random.SeedSequence(entropy=int(base), spawn_key=tuple(int(x) for x in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
