"""Entropy sources with consumption accounting.

Every randomized operation in the package pulls from an EntropySource
instead of a global RNG. Production code uses SystemEntropy; tests and
reproducible experiments use SeededEntropy (infinite, keyed hash counter)
or RecordedEntropy (bounded replay).

Index draws use rejection sampling on ceil(log2(n))-bit values so the
consumed-entropy accounting is exact: drawing from a 256-element pool
costs precisely 8 bits, and a draw from a non-power-of-two range costs
an expected < 2 attempts. Bits are taken from the byte stream through a
little-endian reservoir (each byte appended above the remaining bits).
"""

from __future__ import annotations

import hashlib
import os

from .errors import EntropyExhausted


def _bit_length_ceil(n: int) -> int:
    # ceil(log2(n)) for n >= 1; the number of bits needed to index n items
    return (n - 1).bit_length()


class EntropySource:
    """Byte stream with bit-level draws and consumption counters.

    Subclasses implement _generate(n) returning exactly n bytes or raising
    EntropyExhausted. Counters:

      bytes_consumed  bytes pulled out of the underlying stream
      bits_consumed   bits handed out via take_bits
      index_draws     successful draw_index calls
      rejections      draw attempts discarded by rejection sampling
    """

    def __init__(self) -> None:
        self.bytes_consumed = 0
        self.bits_consumed = 0
        self.index_draws = 0
        self.rejections = 0
        self._reservoir = 0
        self._reservoir_bits = 0

    def _generate(self, n: int) -> bytes:
        raise NotImplementedError

    def read(self, n: int) -> bytes:
        """Return exactly n raw bytes."""
        if n < 0:
            raise ValueError("negative read")
        data = self._generate(n)
        self.bytes_consumed += n
        return data

    def take_bits(self, k: int) -> int:
        """Return a k-bit unsigned integer, consuming k bits of entropy."""
        if k < 0:
            raise ValueError("negative bit count")
        while self._reservoir_bits < k:
            byte = self.read(1)[0]
            self._reservoir |= byte << self._reservoir_bits
            self._reservoir_bits += 8
        value = self._reservoir & ((1 << k) - 1)
        self._reservoir >>= k
        self._reservoir_bits -= k
        self.bits_consumed += k
        return value

    def draw_index(self, n: int) -> int:
        """Uniform draw from range(n) via rejection on ceil(log2(n))-bit values."""
        if n < 1:
            raise ValueError("empty range")
        k = _bit_length_ceil(n)
        while True:
            value = self.take_bits(k)
            if value < n:
                self.index_draws += 1
                return value
            self.rejections += 1

    def shuffled(self, items) -> list:
        """Fisher-Yates shuffle driven by draw_index; returns a new list.

        The draws run inline on a local copy of the reservoir, which is
        written back with the counters on return or on EntropyExhausted,
        so the result, the stream and every counter match a loop of
        draw_index(i + 1) calls exactly.
        """
        out = list(items)
        generate = self._generate
        reservoir = self._reservoir
        have = start = self._reservoir_bits
        nbytes = draws = rejections = 0
        try:
            for i in range(len(out) - 1, 0, -1):
                k = i.bit_length()  # _bit_length_ceil(i + 1)
                while True:
                    while have < k:
                        reservoir |= generate(1)[0] << have
                        have += 8
                        nbytes += 1
                    j = reservoir & ((1 << k) - 1)
                    reservoir >>= k
                    have -= k
                    if j <= i:
                        break
                    rejections += 1
                draws += 1
                out[i], out[j] = out[j], out[i]
        finally:
            self._reservoir, self._reservoir_bits = reservoir, have
            self.bytes_consumed += nbytes
            # every bit read into the reservoir was handed out or is left
            self.bits_consumed += 8 * nbytes + start - have
            self.index_draws += draws
            self.rejections += rejections
        return out


class SystemEntropy(EntropySource):
    """OS randomness (os.urandom)."""

    def _generate(self, n: int) -> bytes:
        return os.urandom(n)


class SeededEntropy(EntropySource):
    """Deterministic infinite stream: SHA-256 over a seed-keyed counter.

    The same seed always replays the identical byte sequence, independent
    of platform and process. The seed is bytes or an int in [0, 2**128).
    """

    def __init__(self, seed) -> None:
        super().__init__()
        if isinstance(seed, int):
            if not 0 <= seed < 1 << 128:
                raise ValueError(f"an int seed must lie in [0, 2**128), got {seed}")
            seed = seed.to_bytes(16, "big")
        self._key = bytes(seed)
        self._counter = 0
        self._buffer = b""

    def _generate(self, n: int) -> bytes:
        while len(self._buffer) < n:
            if n < 64:  # a small read appends one block, the cheapest refill
                block = hashlib.sha256(
                    self._key + self._counter.to_bytes(8, "big")
                ).digest()
                self._counter += 1
                self._buffer += block
            else:
                self._buffer += self._blocks(n - len(self._buffer))
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out

    def _blocks(self, nbytes: int) -> bytes:
        """The next blocks that cover nbytes, joined at once: a large read
        that added them one += at a time would copy the buffer each time,
        quadratic in n. A method of its own, so no closure over self slows
        the one-byte reads of _generate."""
        start = self._counter
        self._counter = stop = start + (nbytes + 31) // 32
        key = self._key
        return b"".join(
            hashlib.sha256(key + i.to_bytes(8, "big")).digest()
            for i in range(start, stop)
        )


class RecordedEntropy(EntropySource):
    """Bounded replay of a fixed byte string; raises when it runs dry."""

    def __init__(self, data: bytes) -> None:
        super().__init__()
        self._data = bytes(data)
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def _generate(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise EntropyExhausted(
                f"recorded entropy exhausted: wanted {n} bytes, "
                f"{self.remaining} left"
            )
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out
