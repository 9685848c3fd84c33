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
# _SIGNS[y, b - 1] = (-1)^popcount(b & y) for the nonzero output masks b, so
# row S(x) holds the sign of every component function at x. It is a row of
# the symmetric +-1 Hadamard matrix, minus the b = 0 column.
_SIGNS = 1 - 2 * (np.bitwise_count(_BYTES[:, None] & _BYTES[1:]) & 1).astype(np.int8)
# _HALF[h] lists the 128 x with bit h clear. For a with top bit h, row a - 1 of
# _PARTNER lists x ^ a for those x: one x from each pair {x, x ^ a}.
_HALF = np.array([[x for x in range(256) if not x >> h & 1] for h in range(8)])
_TOP_BIT = np.array([a.bit_length() - 1 for a in range(1, 256)])
_PARTNER = _HALF[_TOP_BIT] ^ _BYTES[1:, None]
# row a - 1 of the half-size DDT counts its differences from key (a - 1) << 8
_ROW_KEY = _BYTES[:255, None] << 8
_ONE_BIT_ROWS = (1 << np.arange(8)) - 1


def _butterflies(w):
    """Walsh-Hadamard passes over the top four bits of w's row index.

    Pass k adds and subtracts the two halves of each of 2^k row blocks.
    Past four passes the blocks get short and each add about three times
    slower, so the caller brings the low four bits to the top with one
    transposing copy instead.
    """
    u = np.empty_like(w)
    for k in range(4):
        v, o = w.reshape(2**k, 2, -1), u.reshape(2**k, 2, -1)
        np.add(v[:, 0], v[:, 1], out=o[:, 0])
        np.subtract(v[:, 0], v[:, 1], out=o[:, 1])
        w, u = u, w
    return w


def profile8(sbox) -> SBoxProfile8:
    """Exhaustive DDT and Walsh maxima and branch number of an 8-bit table.

    DDT: for any function, x and x ^ a give the same difference, so row a
    counts each difference twice over the 128 x with a's top bit clear.
    One bincount of those 255 x 128 (a, difference) keys, its maximum
    doubled, gives the DDT maximum.

    Walsh: row x of _SIGNS[S] holds (-1)^{b.S(x)} for every b != 0, and a
    Walsh-Hadamard transform down the rows gives every W(a, b), the rows
    in some order of a. Sums stay within +-16 over the first four passes,
    which run in int8, and within +-256 over the last four, in int16.
    """
    box = sbox if isinstance(sbox, SBox8) else SBox8(table=sbox)
    t = np.frombuffer(box.table, dtype=np.uint8)

    d = np.take(np.take(t, _HALF), _TOP_BIT, axis=0) ^ np.take(t, _PARTNER)
    diff = 2 * int(np.bincount((_ROW_KEY + d).ravel()).max())
    # a = 1 << j pairs every x with its partner, so its half row covers them all
    branch_min = int(np.bitwise_count(d[_ONE_BIT_ROWS]).min())

    w = _butterflies(np.take(_SIGNS, t, axis=0))
    w = _butterflies(w.reshape(16, 16, 255).transpose(1, 0, 2).astype(np.int16, order="C"))
    lin = int(max(w.max(), -w.min()))

    return SBoxProfile8(
        bijective=len(set(box.table)) == 256,
        involutive=box.is_involution(),
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
