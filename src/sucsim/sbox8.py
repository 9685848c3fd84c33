"""Involutive 8-bit S-boxes from 4-bit round functions.

The construction is a balanced Feistel network over nibbles with an odd
number of rounds r and a palindromic round-function sequence: the free
choices S_0 .. S_{(r-1)/2} are mirrored so round k and round r-1-k use
the same 4-bit table. Rounds alternate which half they modify and never
swap halves:

    round k even:  L ^= S_k(R)
    round k odd:   R ^= S_k(L)

with L the high nibble. Each round is then its own inverse, and running
the palindrome backwards is the same as running it forwards, so the
resulting byte permutation is an involution for any choice of round
functions. No swap after the last round.

Every table is bytes: a round function is the 16-byte table of `sbox4`
and an SBox8 holds the 256-byte table itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sbox4 import check_table4


@dataclass(frozen=True)
class FeistelSpec:
    """r odd rounds; free holds the (r+1)/2 selectable 16-byte round functions."""

    r: int
    free: tuple

    def __post_init__(self):
        if self.r < 1 or self.r % 2 == 0:
            raise ValueError(f"r must be odd and >= 1, got {self.r}")
        free = tuple(check_table4(t) for t in self.free)
        if len(free) != (self.r + 1) // 2:
            raise ValueError(
                f"free list must have {(self.r + 1) // 2} entries for r={self.r}, "
                f"got {len(free)}"
            )
        object.__setattr__(self, "free", free)


@dataclass(frozen=True)
class SBox8:
    """256-entry byte substitution, held as 256 bytes."""

    table: bytes

    def __post_init__(self):
        # bytes() takes only ints in [0, 255]; iter() keeps it from reading
        # an int as a length or an array through the buffer protocol
        t = self.table if isinstance(self.table, bytes) else bytes(iter(self.table))
        if len(t) != 256:
            raise ValueError("table must be 256 values in [0, 255]")
        object.__setattr__(self, "table", t)

    def is_involution(self) -> bool:
        return self.table.translate(self.table) == _IDENTITY


# Every byte x, and its nibble halves, as 256-byte strings indexed by x.
_IDENTITY = bytes(range(256))
_HIGH = bytes(x >> 4 for x in range(256))
_LOW = bytes(x & 0x0F for x in range(256))


def _xor(a: bytes, b: bytes) -> int:
    return int.from_bytes(a, "big") ^ int.from_bytes(b, "big")


def feistel8(spec: FeistelSpec) -> SBox8:
    """Build the involutive byte substitution described by spec.

    Each round runs on all 256 inputs at once: one `translate` through
    the 4-bit table and one XOR of the halves as big integers.
    """
    left, right = _HIGH, _LOW
    for k in range(spec.r):
        s = spec.free[min(k, spec.r - 1 - k)].ljust(256, b"\0")
        if k % 2 == 0:
            left = _xor(left, right.translate(s)).to_bytes(256, "big")
        else:
            right = _xor(right, left.translate(s)).to_bytes(256, "big")
    # every half is a nibble, so the shift moves each into its own byte's high half
    table = int.from_bytes(left, "big") << 4 | int.from_bytes(right, "big")
    return SBox8(table=table.to_bytes(256, "big"))


@dataclass(frozen=True)
class SBoxProfile8:
    """Exhaustive profile of a byte substitution.

    lin and diff are raw table maxima (Walsh sum over b != 0, difference
    count over a != 0). The probability views divide out the domain:
    max_diff_prob = diff/256 and max_lin_prob = (lin/256)^2, comparable
    against the 4-bit class bound p^2 = 2^-4.
    """

    bijective: bool
    involutive: bool
    lin: int
    diff: int
    branch_min: int

    @property
    def max_diff_prob(self) -> float:
        return self.diff / 256.0

    @property
    def max_lin_prob(self) -> float:
        return (self.lin / 256.0) ** 2


_BYTES = np.arange(256)
# (-1) to the parity of every byte value
_SIGN = 1 - 2 * (np.bitwise_count(_BYTES) & 1).astype(np.int16)
# _XOR[a, x] = x ^ a and _ROW[a] = a << 8 address the 256 x 256 DDT cells
_XOR = _BYTES[:, None] ^ _BYTES
_ROW = (_BYTES[:, None] << 8).astype(np.uint16)
_ONE_BIT = 1 << np.arange(8)


def profile8(sbox) -> SBoxProfile8:
    """Full 256x256 DDT and 256x255 Walsh scan of an 8-bit table."""
    box = sbox if isinstance(sbox, SBox8) else SBox8(table=sbox)
    t = np.frombuffer(box.table, dtype=np.uint8)

    bijective = len(set(box.table)) == 256
    involutive = bool(np.all(t[t] == _BYTES))

    # d[a, x] = S(x) ^ S(x ^ a): one bincount fills the whole DDT
    d = t ^ np.take(t, _XOR)
    ddt = np.bincount((_ROW | d).ravel(), minlength=256 * 256)
    diff = int(ddt[256:].max())

    # Walsh spectrum: per output mask b, signs (-1)^{b.S(x)} transformed
    # over x by a fast Walsh-Hadamard pass evaluates all input masks a.
    # Each pass pairs entry k with k + 128 and interleaves their sum and
    # difference; eight such passes give the natural-order transform.
    # Every partial sum stays within +-256, so int16 holds it.
    w = _SIGN[_BYTES[1:, None] & t]
    for _ in range(8):
        lo, hi = w[:, :128], w[:, 128:]
        w = np.stack((lo + hi, lo - hi), axis=2).reshape(255, 256)
    lin = int(np.abs(w).max())

    branch_min = int(np.bitwise_count(d[_ONE_BIT]).min())
    return SBoxProfile8(
        bijective=bijective,
        involutive=involutive,
        lin=lin,
        diff=diff,
        branch_min=branch_min,
    )


def class_log2_cardinality(r: int, set_size: int) -> float:
    """log2 of the number of distinct free-choice selections: ((r+1)/2) * log2(|S|)."""
    if r < 1 or r % 2 == 0:
        raise ValueError(f"r must be odd and >= 1, got {r}")
    if set_size < 1:
        raise ValueError("set_size must be >= 1")
    return ((r + 1) // 2) * math.log2(set_size)


def table8_to_hex(sbox) -> str:
    return (sbox.table if isinstance(sbox, SBox8) else bytes(iter(sbox))).hex()


def table8_from_hex(s: str) -> SBox8:
    s = s.strip().lower()
    if len(s) != 512:
        raise ValueError("expected exactly 512 hex digits")
    return SBox8(bytes.fromhex(s))
