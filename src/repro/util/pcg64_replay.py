"""Replay a PCG64 ``Generator``'s scalar draws from one block of raw words.

A scalar ``Generator`` call costs far more in call overhead than in drawing.
A caller that knows its call sequence can instead take one block of raw
64-bit outputs (``PCG64.random_raw``) and recompute every value with the
algorithms numpy itself uses:

- ``uniform(lo, hi)`` is ``lo + (hi - lo) * d`` with ``d = (word >> 11) *
  2**-53``; it takes one word, scalar or element of a ``size=`` draw.
- ``integers(lo, hi)`` (int64, ``endpoint=False``) is Lemire's bounded
  draw on 32-bit halves while the range has at most ``2**32`` values,
  rejection loop included. (numpy takes a plain 32-bit half for exactly
  ``2**32`` values, which the formula gives too in unbounded integers.)
  A 32-bit draw takes a fresh word's low half and keeps its high half in
  the bit generator's ``has_uint32``/``uinteger`` buffer for the next
  32-bit draw; doubles leave that buffer alone. A range of one value
  (``integers(0, 1)``) draws nothing.

Every value is recomputed from the same words with the same IEEE double
operations, so it is bitwise equal to the ``Generator`` call's. The words
are a prefix of the stream, so :meth:`PCG64Replay.commit` can leave the
generator exactly where the calls would have: the entry state advanced by
the consumed word count, with the final 32-bit buffer.
"""

from __future__ import annotations

import numpy as np

_UINT32_MAX = 0xFFFFFFFF
#: At most this many words (8 MB) are drawn ahead; a longer walk grows the block.
_MAX_AHEAD = 1 << 20


def uniform(lo, hi, words: np.ndarray) -> np.ndarray:
    """``Generator.uniform(lo, hi)`` of each raw word; ``lo``, ``hi`` broadcast.

    Element ``i`` is the scalar call with the bounds at ``i``. A range that
    numpy refuses, reversed or not finite in width, is refused here too.
    """
    span = np.subtract(hi, lo)
    if not np.all(np.isfinite(span) & (span >= 0)):
        raise ValueError(f"uniform range [{lo}, {hi}] is reversed or not finite")
    return lo + span * ((words >> 11) * 2.0**-53)


class PCG64Replay:
    """A cursor over raw words drawn ahead from a PCG64 generator's state.

    ``size_hint`` words (at most ``_MAX_AHEAD``) are drawn up front; the
    block grows when a walk needs more, so the hint only has to be a good
    guess. ``gen`` is not touched until :meth:`commit`.
    """

    def __init__(self, gen: np.random.Generator, size_hint: int):
        if type(gen.bit_generator) is not np.random.PCG64:
            raise ValueError(
                f"the raw-word replay mirrors PCG64, not {type(gen.bit_generator).__name__}"
            )
        self._gen = gen
        self._entry = gen.bit_generator.state
        self._source = np.random.PCG64()
        self._source.state = self._entry
        self.words = self._source.random_raw(min(max(size_hint, 1), _MAX_AHEAD))
        self.position = 0
        self._has_half = bool(self._entry["has_uint32"])
        self._half = int(self._entry["uinteger"])

    def take(self, count: int) -> int:
        """Consume ``count`` words (one per double); return the first one's index.

        The block may grow, so read :attr:`words` after the call.
        """
        start = self.position
        self.position += count
        if self.position > self.words.size:
            more = max(self.position - self.words.size, self.words.size)
            self.words = np.concatenate([self.words, self._source.random_raw(more)])
        return start

    def _uint32(self) -> int:
        """PCG64's ``next_uint32``: the buffered high half, else a new word's low half."""
        if self._has_half:
            self._has_half = False
            return self._half
        index = self.take(1)
        word = int(self.words[index])
        self._has_half, self._half = True, word >> 32
        return word & _UINT32_MAX

    def integers(self, lo: int, hi: int) -> int:
        """``Generator.integers(lo, hi)``: one int64 in ``[lo, hi)``."""
        span = hi - lo - 1
        if span < 0:
            raise ValueError(f"integers range [{lo}, {hi}) is empty")
        if span > _UINT32_MAX:
            raise ValueError(
                f"integers range [{lo}, {hi}) has more than 2**32 values; numpy draws it "
                "on its 64-bit path, which the replay does not mirror"
            )
        if span == 0:
            return lo
        excluded = span + 1
        scaled = self._uint32() * excluded
        if scaled & _UINT32_MAX < excluded:
            threshold = (_UINT32_MAX - span) % excluded
            while scaled & _UINT32_MAX < threshold:
                scaled = self._uint32() * excluded
        return lo + (scaled >> 32)

    def commit(self) -> None:
        """Leave the generator where the replayed calls would have."""
        self._source.state = self._entry
        self._source.advance(self.position)
        state = self._source.state
        state["has_uint32"], state["uinteger"] = int(self._has_half), self._half
        self._gen.bit_generator.state = state
