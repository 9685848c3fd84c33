"""4-bit S-box workbench: exhaustive profiling, randomized generation of
the optimal class, and pool files.

A 4-bit table is 16 bytes, one value in [0, 15] each. A pool is one blob
of 16-byte tables, entry i at blob[16i : 16i + 16]; its file holds that
blob between a header and its SHA-256, and reading it profiles each entry.

The target class is the Serpent-type optimal S-boxes: bijective 16-entry
tables with linearity 8, differential resistance 4, and every one-bit
input difference flipping at least two output bits. `profile4` evaluates
these definitions on the table's truth tables, and `SBoxProfile.serpent_type`
states the rule. Plain rejection sampling is hopeless (about 2.2 million
members among 16! = 2e13 permutations), so generation runs a randomized
depth-first construction that prunes on difference counts and the branch
condition and profiles only completed candidates.
"""

from __future__ import annotations

import hashlib
import os
import re
import struct
from dataclasses import dataclass

from .entropy import EntropySource
from .errors import PoolFormatError, SearchBudgetExceeded

POOL_MAGIC = b"SBOXPOOL"
POOL_VERSION = 1
_HEADER = struct.Struct(">8sH6x")  # magic, version, reserved
_COUNT = struct.Struct(">I")
_NOT_NIBBLE = re.compile(rb"[^\x00-\x0f]")


def check_table4(table) -> bytes:
    """Validate a 16-entry table of values in [0, 15]; returns it as bytes."""
    # bytes() takes only ints in [0, 255]; iter() keeps it from reading
    # an int as a length
    t = table if isinstance(table, bytes) else bytes(iter(table))
    if len(t) != 16:
        raise ValueError(f"table must have 16 entries, got {len(t)}")
    if _NOT_NIBBLE.search(t):
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

    @property
    def serpent_type(self) -> bool:
        """The class rule: bijective with lin 8, diff 4 and branch_min >= 2."""
        return self.bijective and self.lin == 8 and self.diff == 4 and self.branch_min >= 2


# _XOR_BY[a] lists x ^ a for x = 0..15, so _XOR_BY[a].translate(S) is S(x ^ a).
# _PARITY[b] maps v to the digit of b.v, so int(S.translate(_PARITY[b]), 2) is
# the 16-bit truth table of x -> b.S(x); _LINEAR holds those of x -> a.x.
_XOR_BY = tuple(bytes(x ^ a for x in range(16)) for a in range(16))
_PARITY = tuple(bytes(b"01"[(b & v).bit_count() & 1] for v in range(256)) for b in range(16))
_LINEAR = tuple(int(bytes(range(16)).translate(p), 2) for p in _PARITY)


def profile4(table) -> SBoxProfile:
    """Exhaustively profile a 16-entry table, straight from the definitions:
    diff and branch_min count over the difference rows S(x) ^ S(x ^ a), and
    the Walsh sum at masks (a, b) is 16 - 2 wt(c_b ^ l_a) for the truth
    tables c_b of the component b.S and l_a of the linear function a.x."""
    t = check_table4(table)
    s, ti = t.ljust(256, b"\0"), int.from_bytes(t, "big")
    rows = [(ti ^ int.from_bytes(x.translate(s), "big")).to_bytes(16, "big")
            for x in _XOR_BY[1:]]  # rows[a - 1] is S(x) ^ S(x ^ a)
    diff = max([max(map(row.count, set(row))) for row in rows])
    branch_min = min([min(map(int.bit_count, rows[a - 1])) for a in (1, 2, 4, 8)])
    components = [int(t.translate(p), 2) for p in _PARITY[1:]]
    lin = max([abs(16 - 2 * (c ^ l).bit_count()) for c in components for l in _LINEAR])
    return SBoxProfile(bijective=len(set(t)) == 16, lin=lin, diff=diff, branch_min=branch_min)


def is_serpent_type(table) -> bool:
    """True iff the table is a member of the Serpent-type class."""
    return profile4(table).serpent_type


# _NEAR[t]: bitmask of the values v with v ^ t of weight < 2. A one-bit
# input difference must flip at least two output bits, so a position one
# bit away from a position holding t cannot take any of these values.
_NEAR = tuple(
    sum(1 << v for v in range(16) if (v ^ t).bit_count() < 2) for t in range(16)
)


def sample_serpent_type(
    entropy: EntropySource, max_candidates: int = 100_000
) -> bytes:
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
    return bytes(table)


@dataclass(frozen=True)
class SBoxPool:
    """Ordered collection of distinct verified Serpent-type S-boxes, held
    as one blob of 16-byte tables: entry i is blob[16i : 16i + 16]."""

    blob: bytes

    def __post_init__(self):
        if len(self.blob) % 16:
            raise ValueError(f"pool blob of {len(self.blob)} bytes is not whole tables")

    @property
    def count(self) -> int:
        return len(self.blob) // 16

    @property
    def digest(self) -> bytes:
        """SHA-256 over the concatenated 16-byte tables."""
        return hashlib.sha256(self.blob).digest()

    def entry(self, i: int) -> bytes:
        """Table i, the 16 bytes at blob[16i : 16i + 16]."""
        return self.blob[16 * i : 16 * i + 16]

    @property
    def entries(self) -> tuple:
        """The tables as tuples of 16 ints, the form the benchmark (perfbench's
        pool-gen workload and its tests) was written for and the only reader
        of this view; the library reads `entry`."""
        return tuple(tuple(self.entry(i)) for i in range(self.count))


def build_pool(count: int, entropy: EntropySource) -> SBoxPool:
    """Generate `count` pairwise-distinct Serpent-type S-boxes."""
    if count < 1:
        raise ValueError("count must be >= 1")
    entries = {}  # distinct tables in draw order
    attempts = 0
    limit = 4 * count + 100  # duplicates are astronomically rare
    while len(entries) < count:
        attempts += 1
        if attempts > limit:
            raise SearchBudgetExceeded(
                f"could not reach {count} distinct entries in {limit} attempts"
            )
        entries[sample_serpent_type(entropy)] = None
    return SBoxPool(blob=b"".join(entries))


def write_pool(pool: SBoxPool, path) -> None:
    with open(path, "wb") as f:
        f.write(_HEADER.pack(POOL_MAGIC, POOL_VERSION) + _COUNT.pack(pool.count))
        f.write(pool.blob)
        f.write(pool.digest)


def read_pool(path) -> SBoxPool:
    """The pool in the file at path, its body read straight into the blob;
    PoolFormatError unless the header, length and digest check out, it has
    an entry, every value is a nibble, and the entries are distinct
    Serpent-type tables (each one profiled once)."""
    start = _HEADER.size + _COUNT.size
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(start)
        if size < start + 32:
            raise PoolFormatError("pool file truncated")
        magic, version = _HEADER.unpack_from(head, 0)
        if magic != POOL_MAGIC:
            raise PoolFormatError(f"bad magic {magic!r}")
        if version != POOL_VERSION:
            raise PoolFormatError(f"unsupported pool version {version}")
        (count,) = _COUNT.unpack_from(head, _HEADER.size)
        if size != start + 16 * count + 32:
            raise PoolFormatError(f"pool file length {size} does not match count {count}")
        if count == 0:
            raise PoolFormatError("pool file holds no entries")
        body = f.read(16 * count)
        digest = f.read()  # a file changed since fstat fails the digest
    if hashlib.sha256(body).digest() != digest:
        raise PoolFormatError("content digest mismatch")
    if _NOT_NIBBLE.search(body):  # one scan, and no copy of the body
        raise PoolFormatError("pool entry value outside [0, 15]")
    pool, seen = SBoxPool(blob=body), set()
    for i in range(count):
        entry = pool.entry(i)
        if entry in seen:
            raise PoolFormatError(f"pool entry {i} repeats an earlier entry")
        if not is_serpent_type(entry):
            raise PoolFormatError(f"pool entry {i} is not a Serpent-type table")
        seen.add(entry)
    return pool


def table_to_hex(table) -> str:
    """16 hex digits, one per entry."""
    return "".join(f"{v:x}" for v in check_table4(table))


def table_from_hex(s: str) -> bytes:
    s = s.strip().lower()
    if len(s) != 16:
        raise ValueError("expected exactly 16 hex digits")
    return check_table4(int(c, 16) for c in s)
