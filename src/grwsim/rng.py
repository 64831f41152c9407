"""Deterministic random-number streams.

Every stochastic routine in the package draws from a Philox-4x64
counter-based generator keyed by a ``(seed, stream_id)`` pair.  Distinct
ids give statistically independent streams, and the key -> output mapping
is fixed by the Philox algorithm itself, so results are bit-exact
reproducible across hosts, processes, and worker counts.  Ensemble code
derives the stream for trajectory ``i`` as ``(master_seed, i)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_int

GENERATOR_NAME = "philox4x64"

_U64 = 2**64


@dataclass(frozen=True)
class RngStream:
    """Key of one reproducible random stream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for label, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            require_int(label, value)
            if not 0 <= value < _U64:
                raise ValidationError(
                    f"{label} must be an integer in [0, 2**64), got {value!r}"
                )

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def trajectory_stream(master_seed: int, trajectory_index: int) -> RngStream:
    """Stream assigned to one trajectory of an ensemble."""
    return RngStream(seed=master_seed, stream_id=trajectory_index)
