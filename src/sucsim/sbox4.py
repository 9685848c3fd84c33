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


def _walsh_max_4(table, cutoff: int | None = None) -> int:
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
            if cutoff is not None and best > cutoff:
                return best
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


def sample_serpent_type(
    entropy: EntropySource, max_candidates: int = 100_000
) -> SBox4:
    """Draw one uniform-ish random member of the Serpent-type class.

    Randomized DFS over partial permutations. A value v at position x is
    admissible only if, against every earlier position xp, the running
    difference count for (x^xp, v^table[xp]) stays <= 4 and one-bit input
    differences keep >= 2 output bits. Completed candidates face the full
    profile; at most max_candidates of them are tested before giving up.

    Deterministic for a deterministic entropy source.
    """
    table = [-1] * 16
    used = [False] * 16
    ddt = [[0] * 16 for _ in range(16)]
    tested = 0

    def extend(x: int) -> bool:
        nonlocal tested
        if x == 16:
            tested += 1
            if tested > max_candidates:
                raise SearchBudgetExceeded(
                    f"no Serpent-type S-box within {max_candidates} candidates"
                )
            return is_serpent_type(table)
        for v in entropy.shuffled(range(16)):
            if used[v]:
                continue
            ok = True
            for xp in range(x):
                a = x ^ xp
                b = v ^ table[xp]
                if ddt[a][b] + 2 > 4 or (a.bit_count() == 1 and b.bit_count() < 2):
                    ok = False
                    break
            if not ok:
                continue
            for xp in range(x):
                ddt[x ^ xp][v ^ table[xp]] += 2
            table[x] = v
            used[v] = True
            if extend(x + 1):
                return True
            for xp in range(x):
                ddt[x ^ xp][v ^ table[xp]] -= 2
            table[x] = -1
            used[v] = False
        return False

    if not extend(0):
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
