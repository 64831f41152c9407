"""Deterministic random-number streams.

Every stochastic routine in the package draws from a Philox-4x64
counter-based generator keyed by a ``(seed, stream_id)`` pair.  Distinct
ids give statistically independent streams, and the key -> output mapping
is fixed by the Philox algorithm itself, so results are bit-exact
reproducible across hosts, processes, and worker counts.  Ensemble code
derives the stream for trajectory ``i`` as ``(master_seed, i)``.

:meth:`RngStream.generator` builds a fresh, independent generator per
call.  The package's own draw sites instead move one ``Philox`` from
stream to stream (:class:`_Rekeyer`), which gives the same draws without
a new ``Philox`` per stream; read Bernoulli masks from raw Philox words
(:func:`_bernoulli`), which gives the bits of ``random(n) < p`` without
making the doubles; and skip doubles that are never read by moving the
counter (:func:`_skip_doubles`), which leaves the state ``random(n)``
leaves without making them.  All three rest on numpy's Philox state
layout (a 256-bit counter, bumped before each 4-word block, and a 4-word
buffer) and its double, ``(word >> 11) * 2**-53``, which the
Leggett-Garg hit times also read from raw words; ``tests/test_rng.py``
checks each against :meth:`RngStream.generator`.
"""
from __future__ import annotations

import math
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


class _Rekeyer:
    """One ``Philox`` and its ``Generator``, moved to the start of one
    stream after another.

    :meth:`start` sets the ``Philox`` state to the stream's key, a zero
    counter, an empty buffer (``buffer_pos = 4``) and no spare 32-bit half
    (``has_uint32 = 0``): the state :meth:`RngStream.generator` starts in,
    so the draws are the same.  What it skips is that constructor's cost,
    a key array and the ``SeedSequence`` that ``Philox`` seeds from OS
    entropy before the key replaces it.  Every :meth:`start` returns the
    same generator, so a caller is done with one stream before it starts
    the next; each call that draws owns its own ``_Rekeyer``.
    """

    def __init__(self) -> None:
        self._bits = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bits)
        self._key = [0, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def start(self, stream: RngStream) -> np.random.Generator:
        self._key[:] = stream.seed, stream.stream_id
        self._bits.state = self._state
        return self._gen


def _bernoulli(gen: np.random.Generator, n: int, p: float) -> np.ndarray:
    """``gen.random(n) < p`` for ``0 <= p <= 1``, read from the raw words.

    A Philox double is ``(word >> 11) * 2**-53``, below ``p`` exactly when
    ``word >> 11 < ceil(p * 2**53)``, that is when ``word < ceil(p * 2**53)
    << 11``.  At ``p = 1`` that bound is ``2**64``, past every word and
    past ``uint64``, so every entry is true; the ``n`` words are drawn all
    the same.  Any other bit generator draws ``gen.random(n) < p``.
    """
    if not isinstance(gen.bit_generator, np.random.Philox):
        return gen.random(n) < p
    words = gen.bit_generator.random_raw(n)
    bound = math.ceil(p * 2**53) << 11
    if bound == _U64:
        return np.ones(n, dtype=bool)
    return words < np.uint64(bound)


def _skip_doubles(gen: np.random.Generator, n: int) -> None:
    """Move ``gen`` past ``n`` doubles: the state ``gen.random(n)`` leaves,
    buffer included, without making them.

    A Philox double is one 64-bit word.  The words still in the 4-word
    buffer come first; each later block of 4 adds 1 to the 256-bit
    counter (word 0 lowest, carried into the next) and refills the buffer
    from it.  So whole blocks past the buffered words are skipped by
    adding their number to the counter, wrapping at ``2**256``, and the
    last 1 to 4 words are drawn, which leaves the last block in the buffer
    and its position where ``random(n)`` leaves them.  ``gen`` must be a
    ``Philox`` generator.
    """
    bits = gen.bit_generator
    state = bits.state
    words = n - (4 - state["buffer_pos"])
    blocks = (words - 1) // 4
    if blocks > 0:
        counter = sum(int(w) << 64 * i for i, w in enumerate(state["state"]["counter"]))
        counter += blocks
        state["state"]["counter"] = [(counter >> 64 * i) % _U64 for i in range(4)]
        state["buffer_pos"] = 4
        bits.state = state
        n = words - 4 * blocks
    bits.random_raw(n)
