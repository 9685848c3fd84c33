"""The 64-bit involutive SPN.

A cipher instance is eight involutive byte substitutions plus a fixed
bit permutation, iterated R rounds with the permutation omitted after
the last substitution layer:

    y = S o (P o S)^(R-1) (x)

P is the 8x8 bit-matrix transpose: global bit position p = 8i + j of
the block (byte i, bit j, LSB first) moves to 8j + i. P is self-inverse
and the layer sequence reads the same forwards and backwards, so with
involutive S-boxes the whole cipher is an involution: applying it twice
restores the input, and encryption equals decryption.

Both apply paths run the T-table form (Daemen & Rijmen, The Design of
Rijndael, 2002). P is linear over XOR, so one round P o S of a block
whose bytes are x_0 .. x_7 is the XOR over i of T[i][x_i], with

    T[i][v] = P(S_i(v) << 8i)

an (8, 256) table of 64-bit words derived once per instance. Since P
is self-inverse, P o (P o S)^R = S o (P o S)^(R-1): the cipher is R
table rounds followed by one bare P, and needs no separate table for
the last substitution layer. p_layer and s_layer keep the layer-by-
layer definition for tests to compare against.

Blocks are 8 bytes; hex encoding is byte 0 first, and the 64-bit words
are the blocks read little-endian. apply answers 8n bytes with 8n bytes:
one block runs on Python ints, more go to apply_batch. apply_batch runs
an (N, 8) uint8 array for the statistical harness and for multi-block
challenges: each round copies the state's bytes once into an (8, N)
index plane, gathers each row through its table into one preallocated
word buffer and XORs it into the state in place.

The byte tables come from the pool as bytes (see `sbox4` and `sbox8`):
an instance draws 16-byte slices of the pool's blob, and its sealed
form is the eight 256-byte tables joined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entropy import EntropySource
from .sbox4 import SBoxPool
from .sbox8 import FeistelSpec, SBox8, feistel8

BLOCK_BYTES = 8


def check_block(block: bytes) -> bytes:
    b = bytes(block)
    if len(b) != BLOCK_BYTES:
        raise ValueError(f"block must be 8 bytes, got {len(b)}")
    return b


def block_to_hex(block: bytes) -> str:
    return check_block(block).hex()


def block_from_hex(s: str) -> bytes:
    s = s.strip().lower()
    if len(s) != 16:
        raise ValueError("expected exactly 16 hex digits")
    return bytes.fromhex(s)


@dataclass(frozen=True)
class SucParams:
    rounds: int = 15
    feistel_r: int = 3
    pool_digest: bytes = b""

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.feistel_r < 1 or self.feistel_r % 2 == 0:
            raise ValueError("feistel_r must be odd and >= 1")


# 8x8 bit transpose on a 64-bit word via three delta swaps; byte i of the
# little-endian word is row i, bit j is column j, so bit 8i+j <-> 8j+i.
# Works on a Python int and, element-wise, on a uint64 array.
def _transpose64(x):
    t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AA
    x = x ^ t ^ (t << 7)
    t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCC
    x = x ^ t ^ (t << 14)
    t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0
    return x ^ t ^ (t << 28)


def _spread() -> np.ndarray:
    """(8, 256) little-endian words with [i][v] = P(v << 8i)."""
    j = np.arange(8, dtype=np.uint64)
    v = np.arange(256, dtype=np.uint64)[:, None]
    p_of_byte = np.bitwise_or.reduce(((v >> j) & 1) << (8 * j), axis=1)
    return (p_of_byte[None, :] << j[:, None]).astype("<u8")


_SPREAD = _spread()
_BYTES = np.arange(256, dtype=np.uint8)
_ROWS = np.arange(8)[:, None]


def p_layer(block: bytes) -> bytes:
    """Move bit 8i+j to bit 8j+i; self-inverse."""
    x = int.from_bytes(check_block(block), "little")
    return _transpose64(x).to_bytes(8, "little")


def s_layer(block: bytes, sboxes) -> bytes:
    """Substitute byte i through table i."""
    b = check_block(block)
    return bytes(sboxes[i].table[b[i]] for i in range(8))


@dataclass(frozen=True)
class SucInstance:
    """Eight involutive byte tables plus round parameters; immutable.

    Derives the round table T[i][v] = P(S_i(v) << 8i) once: as an
    (8, 256) uint64 array for apply_batch and as eight lists of ints
    for apply.
    """

    sboxes: tuple
    params: SucParams
    _t: np.ndarray = field(init=False, repr=False, compare=False)
    _rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.sboxes) != 8:
            raise ValueError("an instance needs exactly 8 S-boxes")
        if not all(isinstance(s, SBox8) for s in self.sboxes):
            raise TypeError("sboxes must be SBox8 values")
        s = np.frombuffer(self.tables_blob(), dtype=np.uint8).reshape(8, 256)
        bad = np.flatnonzero((s[_ROWS, s] != _BYTES).any(axis=1))
        if bad.size:
            raise ValueError(f"S-box {bad[0]} is not an involution")
        t = _SPREAD[_ROWS, s]
        t.setflags(write=False)
        object.__setattr__(self, "_t", t)
        object.__setattr__(self, "_rows", tuple(t.tolist()))

    def tables_blob(self) -> bytes:
        """The 2048-byte concatenation sealed into device storage."""
        return b"".join(s.table for s in self.sboxes)


def apply(suc: SucInstance, blocks: bytes) -> bytes:
    """Run the cipher over 8n bytes, n >= 1; its own inverse. One block
    runs on Python ints; more go to apply_batch, dearer for one block and
    far cheaper per block for many. ValueError for no or a partial block."""
    b = bytes(blocks)
    if len(b) != BLOCK_BYTES:
        if not b or len(b) % BLOCK_BYTES:
            raise ValueError(f"blocks must be whole 8-byte blocks, got {len(b)} bytes")
        return apply_batch(suc, np.frombuffer(b, np.uint8).reshape(-1, 8)).tobytes()
    t0, t1, t2, t3, t4, t5, t6, t7 = suc._rows
    for _ in range(suc.params.rounds):
        x = (
            t0[b[0]] ^ t1[b[1]] ^ t2[b[2]] ^ t3[b[3]]
            ^ t4[b[4]] ^ t5[b[5]] ^ t6[b[6]] ^ t7[b[7]]
        )
        b = x.to_bytes(8, "little")
    return _transpose64(x).to_bytes(8, "little")


def apply_batch(suc: SucInstance, blocks: np.ndarray) -> np.ndarray:
    """Vectorized apply over an (N, 8) uint8 array; the input is not written."""
    b = np.asarray(blocks, dtype=np.uint8)
    if b.ndim != 2 or b.shape[1] != 8:
        raise ValueError("blocks must have shape (N, 8)")
    n = b.shape[0]
    cols = np.empty((8, n), dtype=np.intp)  # cols[i] = byte i of every block
    x = np.empty(n, dtype="<u8")
    g = np.empty_like(x)
    t = suc._t
    for _ in range(suc.params.rounds):
        cols[...] = b.T
        # every index is a byte, so "clip" never clips; unlike "raise" it
        # lets take write straight into out
        t[0].take(cols[0], out=x, mode="clip")
        for i in range(1, 8):
            x ^= t[i].take(cols[i], out=g, mode="clip")
        b = x.view(np.uint8).reshape(n, 8)
    return _transpose64(x).astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)


def draw_instance(
    pool: SBoxPool,
    params: SucParams,
    entropy: EntropySource,
    replicate_single: bool = False,
) -> SucInstance:
    """Assemble an instance by drawing free-choice indices from a pool.

    Default draws 8 x (r+1)/2 indices (one Feistel spec per S-box
    position, box-major order). replicate_single draws one spec and uses
    the same byte table in all eight positions.
    """
    per_box = (params.feistel_r + 1) // 2

    def draw_box() -> SBox8:
        free = tuple(pool.entry(entropy.draw_index(pool.count)) for _ in range(per_box))
        return feistel8(FeistelSpec(r=params.feistel_r, free=free))

    if replicate_single:
        sboxes = (draw_box(),) * 8
    else:
        sboxes = tuple(draw_box() for _ in range(8))
    return SucInstance(sboxes=sboxes, params=params)


def suc_log2_cardinality(r: int, set_size: int) -> float:
    """log2 of the number of distinct instances: 8 * ((r+1)/2) * log2(|S|)."""
    if r < 1 or r % 2 == 0:
        raise ValueError(f"r must be odd and >= 1, got {r}")
    if set_size < 1:
        raise ValueError("set_size must be >= 1")
    return 8 * ((r + 1) // 2) * math.log2(set_size)
