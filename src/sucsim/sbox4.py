"""4-bit S-box workbench: exhaustive profiling, randomized generation of
the optimal class, and pool files.

The target class is the Serpent-type optimal S-boxes: bijective 16-entry
tables with linearity 8, differential resistance 4, and every one-bit
input difference flipping at least two output bits. Plain rejection
sampling is hopeless (about 2.2 million such tables among 16! = 2e13
permutations), so generation runs a randomized depth-first construction
that prunes partial assignments as soon as a difference-distribution
count passes 4 or a completed one-bit pair violates the branch
condition, and applies the full linearity test only to completed
candidates.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

from .entropy import EntropySource
from .errors import PoolFormatError, SearchBudgetExceeded

SBox4 = tuple  # 16 ints in [0, 15]

POOL_MAGIC = b"SBOXPOOL"
POOL_VERSION = 1
_HEADER = struct.Struct(">8sH6x")  # magic, version, reserved
_COUNT = struct.Struct(">I")


def check_table4(table) -> SBox4:
    """Validate and normalize a 16-entry table; returns an immutable tuple."""
    t = tuple(int(v) for v in table)
    if len(t) != 16:
        raise ValueError(f"table must have 16 entries, got {len(t)}")
    if any(v < 0 or v > 15 for v in t):
        raise ValueError("table entries must lie in [0, 15]")
    return t


@dataclass(frozen=True)
class SBoxProfile:
    """Exhaustive strength profile of an S-box.

    lin: max |Walsh sum| over all input masks a and output masks b != 0.
    diff: max difference-distribution count over input differences a != 0.
    branch_min: min output Hamming weight over one-bit input differences.
    """

    bijective: bool
    lin: int
    diff: int
    branch_min: int


def _walsh_max_4(table) -> int:
    # One length-16 Walsh-Hadamard transform per output mask b. The
    # transform of (-1)^{b.S(x)} evaluates all input masks a at once.
    best = 0
    for b in range(1, 16):
        w = [1 - 2 * ((b & table[x]).bit_count() & 1) for x in range(16)]
        h = 1
        while h < 16:
            for i in range(0, 16, 2 * h):
                for j in range(i, i + h):
                    u, v = w[j], w[j + h]
                    w[j], w[j + h] = u + v, u - v
            h *= 2
        m = max(abs(v) for v in w)
        if m > best:
            best = m
    return best


def profile4(table) -> SBoxProfile:
    """Exhaustively profile a 16-entry table (all masks, all differences)."""
    t = check_table4(table)
    bijective = len(set(t)) == 16

    ddt = [[0] * 16 for _ in range(16)]
    for a in range(16):
        for x in range(16):
            ddt[a][t[x] ^ t[x ^ a]] += 1
    diff = max(max(row) for row in ddt[1:])

    lin = _walsh_max_4(t)

    branch_min = min(
        (t[x] ^ t[x ^ a]).bit_count() for a in (1, 2, 4, 8) for x in range(16)
    )
    return SBoxProfile(bijective=bijective, lin=lin, diff=diff, branch_min=branch_min)


def is_serpent_type(table) -> bool:
    """True iff bijective with lin 8, diff 4, and branch condition >= 2."""
    p = profile4(table)
    return p.bijective and p.lin == 8 and p.diff == 4 and p.branch_min >= 2


# _NEAR[t]: bitmask of the values v with v ^ t of weight < 2. A one-bit
# input difference must flip at least two output bits, so a position one
# bit away from a position holding t cannot take any of these values.
_NEAR = tuple(
    sum(1 << v for v in range(16) if (v ^ t).bit_count() < 2) for t in range(16)
)


def sample_serpent_type(
    entropy: EntropySource, max_candidates: int = 100_000
) -> SBox4:
    """Draw one random member of the Serpent-type class.

    Randomized DFS over partial permutations. A value v at position x is
    admissible only if, against every earlier position xp, the running
    difference count for (x^xp, v^table[xp]) stays <= 4 and one-bit input
    differences keep >= 2 output bits. Completed candidates face the full
    profile; at most max_candidates of them are tested before giving up.

    The DFS is not uniform over the class: some members are reached far
    more often than others (ROADMAP item 2 measures the bias and plans an
    exact sampler). Every visited node draws one shuffle of range(16).

    Deterministic for a deterministic entropy source.
    """
    table = [-1] * 16
    ddt = [0] * 256  # ddt[16 * a + b], counted in steps of 2
    tested = 0

    def extend(x: int, used: int) -> bool:
        nonlocal tested
        if x == 16:
            tested += 1
            if tested > max_candidates:
                raise SearchBudgetExceeded(
                    f"no Serpent-type S-box within {max_candidates} candidates"
                )
            return is_serpent_type(table)
        # values already placed, or one bit away from an earlier one-bit
        # neighbour's value; the DDT rows test the rest
        blocked = used
        for d in (1, 2, 4, 8):
            if x ^ d < x:
                blocked |= _NEAR[table[x ^ d]]
        rows = [(16 * (x ^ xp), table[xp]) for xp in range(x)]
        for v in entropy.shuffled(range(16)):
            if blocked >> v & 1:
                continue
            for row, t in rows:
                if ddt[row + (v ^ t)] > 2:  # one more pair would pass 4
                    break
            else:
                for row, t in rows:
                    ddt[row + (v ^ t)] += 2
                table[x] = v
                if extend(x + 1, used | 1 << v):
                    return True
                for row, t in rows:
                    ddt[row + (v ^ t)] -= 2
        return False

    if not extend(0, 0):
        # With pruning only on sound necessary conditions the search space
        # always contains members, so this is unreachable in practice.
        raise SearchBudgetExceeded("search space exhausted")
    return tuple(table)


@dataclass(frozen=True)
class SBoxPool:
    """Ordered collection of distinct verified Serpent-type S-boxes."""

    entries: tuple

    @property
    def count(self) -> int:
        return len(self.entries)

    @property
    def digest(self) -> bytes:
        return pool_digest(self.entries)


def pool_digest(entries) -> bytes:
    """SHA-256 over the concatenated 16-byte records."""
    h = hashlib.sha256()
    for t in entries:
        h.update(bytes(t))
    return h.digest()


def build_pool(count: int, entropy: EntropySource) -> SBoxPool:
    """Generate `count` pairwise-distinct Serpent-type S-boxes."""
    if count < 1:
        raise ValueError("count must be >= 1")
    seen = set()
    entries = []
    attempts = 0
    limit = 4 * count + 100  # duplicates are astronomically rare
    while len(entries) < count:
        attempts += 1
        if attempts > limit:
            raise SearchBudgetExceeded(
                f"could not reach {count} distinct entries in {limit} attempts"
            )
        t = sample_serpent_type(entropy)
        if t in seen:
            continue
        seen.add(t)
        entries.append(t)
    return SBoxPool(entries=tuple(entries))


def write_pool(pool: SBoxPool, path) -> None:
    body = b"".join(bytes(t) for t in pool.entries)
    blob = (
        _HEADER.pack(POOL_MAGIC, POOL_VERSION)
        + _COUNT.pack(pool.count)
        + body
        + pool_digest(pool.entries)
    )
    with open(path, "wb") as f:
        f.write(blob)


def read_pool(path) -> SBoxPool:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < _HEADER.size + _COUNT.size + 32:
        raise PoolFormatError("pool file truncated")
    magic, version = _HEADER.unpack_from(blob, 0)
    if magic != POOL_MAGIC:
        raise PoolFormatError(f"bad magic {magic!r}")
    if version != POOL_VERSION:
        raise PoolFormatError(f"unsupported pool version {version}")
    (count,) = _COUNT.unpack_from(blob, _HEADER.size)
    start = _HEADER.size + _COUNT.size
    end = start + 16 * count
    if len(blob) != end + 32:
        raise PoolFormatError(
            f"pool file length {len(blob)} does not match count {count}"
        )
    entries = tuple(tuple(blob[i : i + 16]) for i in range(start, end, 16))
    if hashlib.sha256(blob[start:end]).digest() != blob[end:]:
        raise PoolFormatError("content digest mismatch")
    for t in entries:
        check_table4(t)
    return SBoxPool(entries=entries)


def table_to_hex(table) -> str:
    """16 hex digits, one per entry."""
    return "".join(f"{v:x}" for v in check_table4(table))


def table_from_hex(s: str) -> SBox4:
    s = s.strip().lower()
    if len(s) != 16:
        raise ValueError("expected exactly 16 hex digits")
    return check_table4(int(c, 16) for c in s)
