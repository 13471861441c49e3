"""Deterministic random-number streams.

Every stochastic component draws from a named substream so that results
are reproducible regardless of the order in which components are created
or executed.  Substreams are derived from a root seed plus a stable hash
of the stream name.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["RandomStreams", "BoundedDraws"]


class RandomStreams:
    """Factory for named, independent :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically."""
        gen = self._streams.get(name)
        if gen is None:
            key = zlib.crc32(name.encode("utf-8"))
            gen = np.random.default_rng(np.random.SeedSequence([self.seed, key]))
            self._streams[name] = gen
        return gen


class BoundedDraws:
    """Uniform integers in ``[0, high]`` from one stream, drawn in blocks.

    One ``Generator.integers(..., size=BLOCK)`` call replaces ``BLOCK``
    scalar calls and yields the same values in the same order (numpy's
    bounded draws keep any unused random bits in the bit generator, not
    in the call), so results do not depend on the block size.  A draw
    with a different ``high`` discards the rest of the block and starts
    a new one at the stream's current position.
    """

    BLOCK = 64

    __slots__ = ("_gen", "_high", "_values", "_pos")

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._high = -1
        self._values: list[int] = []
        self._pos = 0

    def draw(self, high: int) -> int:
        """One uniform integer in ``[0, high]``; 0 without a draw if ``high <= 0``."""
        if high <= 0:
            return 0
        pos = self._pos
        if high != self._high or pos == len(self._values):
            self._values = self._gen.integers(0, high + 1, size=self.BLOCK).tolist()
            self._high = high
            pos = 0
        self._pos = pos + 1
        return self._values[pos]
