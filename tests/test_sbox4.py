"""4-bit S-box profiling and class sampling.

The reference implementations below recompute every statistic entry by
entry (a signed sum over x for each mask pair, a dictionary of difference
counts, bit counting for the branch condition). profile4 works on whole
truth tables and difference rows at once (translates, big-int XORs and
popcounts), so agreement between the two is a meaningful check rather
than a tautology.
"""

import hashlib
import random
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sucsim.entropy import RecordedEntropy, SeededEntropy
from sucsim.errors import EntropyExhausted, PoolFormatError, SearchBudgetExceeded
from sucsim.sbox4 import (
    POOL_MAGIC,
    POOL_VERSION,
    CLASS_SIZE,
    SBoxPool,
    build_pool,
    check_table4,
    is_serpent_type,
    profile4,
    read_pool,
    sample_serpent_type,
    table_from_hex,
    table_to_hex,
    write_pool,
)

# frozen regression values; class membership is established by the
# reference functions below, these pin the exact sampler output
T0_SEED0_HEX = "7ed30ba6c124589f"
SERPENT_S0_HEX = "38f1a65bed42709c"
POOL32_SEED7_DIGEST = "533ac60631b8072928a9334425c13088b86ab732988a2c6c725e3428e920a22c"


def ref_walsh_max(t):
    best = 0
    for a in range(16):
        for b in range(1, 16):
            s = 0
            for x in range(16):
                s += (-1) ** (((a & x).bit_count() + (b & t[x]).bit_count()) & 1)
            best = max(best, abs(s))
    return best


def ref_diff_max(t):
    best = 0
    for a in range(1, 16):
        counts = {}
        for x in range(16):
            d = t[x] ^ t[x ^ a]
            counts[d] = counts.get(d, 0) + 1
        best = max(best, max(counts.values()))
    return best


def ref_branch_min(t):
    return min((t[x] ^ t[x ^ a]).bit_count() for a in (1, 2, 4, 8) for x in range(16))


def ref_is_member(t):
    return (
        len(set(t)) == 16
        and ref_walsh_max(t) == 8
        and ref_diff_max(t) == 4
        and ref_branch_min(t) >= 2
    )


# ---------------------------------------------------------------------------
# profiling

def test_profile_identity_table():
    ident = tuple(range(16))
    p = profile4(ident)
    assert p.bijective
    assert p.lin == ref_walsh_max(ident) == 16
    assert p.diff == ref_diff_max(ident) == 16
    assert p.branch_min == ref_branch_min(ident) == 1


def test_profile_constant_table():
    for v in range(16):
        const = (v,) * 16
        p = profile4(const)
        assert not p.bijective
        assert p.lin == ref_walsh_max(const) == 16
        assert p.diff == ref_diff_max(const) == 16
        assert p.branch_min == ref_branch_min(const) == 0


def test_profile_matches_reference_on_random_permutations(pool32):
    rng = random.Random(1234)
    tables = []
    for _ in range(300):
        t = list(range(16))
        rng.shuffle(t)
        tables.append(tuple(t))
    for t in tables + [pool32.entry(i) for i in range(pool32.count)]:
        p = profile4(t)
        assert p.bijective
        assert p.lin == ref_walsh_max(t)
        assert p.diff == ref_diff_max(t)
        assert p.branch_min == ref_branch_min(t)


def test_profile_matches_reference_on_random_functions():
    rng = random.Random(99)
    for _ in range(100):
        t = tuple(rng.randrange(16) for _ in range(16))
        p = profile4(t)
        assert p.lin == ref_walsh_max(t)
        assert p.diff == ref_diff_max(t)
        assert p.branch_min == ref_branch_min(t)


def test_known_member_profile():
    s0 = table_from_hex(SERPENT_S0_HEX)
    assert ref_is_member(s0)
    assert is_serpent_type(s0)
    p = profile4(s0)
    assert (p.lin, p.diff, p.branch_min) == (8, 4, 2)
    assert p.serpent_type


def test_importing_sbox4_loads_no_numpy():
    # pool generation imports only sbox4; numpy would add to its start-up
    code = "import sys, sucsim.sbox4; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_check_table4_rejects_bad_shapes():
    with pytest.raises(ValueError):
        check_table4(range(15))
    with pytest.raises(ValueError):
        check_table4([16] + list(range(15)))
    with pytest.raises(ValueError):
        check_table4([-1] + list(range(15)))
    for bad in (range(17), [256] + list(range(15)), bytes(15), b"\x10" + bytes(15)):
        with pytest.raises(ValueError):
            check_table4(bad)


def test_check_table4_returns_bytes():
    want = bytes(range(16))
    for form in (list(range(16)), range(16), np.arange(16, dtype=np.uint8), want):
        assert check_table4(form) == want
        assert type(check_table4(form)) is bytes


# ---------------------------------------------------------------------------
# sampling

def test_sampler_seed0_frozen_output():
    t = sample_serpent_type(SeededEntropy(0))
    assert table_to_hex(t) == T0_SEED0_HEX
    assert ref_is_member(t)


def test_sampler_outputs_are_members_by_reference():
    for seed in range(25):
        t = sample_serpent_type(SeededEntropy(seed))
        assert ref_is_member(t), f"seed {seed} produced a non-member"


def test_sampler_deterministic_per_seed():
    assert sample_serpent_type(SeededEntropy(77)) == sample_serpent_type(
        SeededEntropy(77)
    )


def test_sampler_spreads_across_seeds():
    tables = {sample_serpent_type(SeededEntropy(s)) for s in range(100)}
    assert len(tables) >= 99


def ref_sample(entropy):
    # the plain DFS the sampler must reproduce draw for draw: one
    # draw_index Fisher-Yates shuffle per node, a 16x16 difference table,
    # every pruning test spelled out, full profile on completed tables
    table, used = [-1] * 16, [False] * 16
    ddt = [[0] * 16 for _ in range(16)]

    def extend(x):
        if x == 16:
            return ref_is_member(table)
        order = list(range(16))
        for i in range(15, 0, -1):
            j = entropy.draw_index(i + 1)
            order[i], order[j] = order[j], order[i]
        for v in order:
            pairs = [(x ^ xp, v ^ table[xp]) for xp in range(x)]
            if used[v] or any(
                ddt[a][b] == 4 or (a.bit_count() == 1 and b.bit_count() < 2)
                for a, b in pairs
            ):
                continue
            for a, b in pairs:
                ddt[a][b] += 2
            table[x], used[v] = v, True
            if extend(x + 1):
                return True
            for a, b in pairs:
                ddt[a][b] -= 2
            used[v] = False
        return False

    assert extend(0)
    return tuple(table)


def counters(e):
    return (e.bytes_consumed, e.bits_consumed, e.index_draws, e.rejections)


@pytest.mark.parametrize("seed", [0, 3, 41])
def test_sampler_matches_the_plain_dfs_draw_for_draw(seed):
    fast, ref = SeededEntropy(seed), SeededEntropy(seed)
    for _ in range(2):
        assert sample_serpent_type(fast) == bytes(ref_sample(ref))
        assert counters(fast) == counters(ref)
    assert fast.take_bits(13) == ref.take_bits(13)


def test_sampler_propagates_entropy_exhaustion():
    with pytest.raises(EntropyExhausted):
        sample_serpent_type(RecordedEntropy(b"\x07\x13"))


def test_sampler_budget_zero_raises():
    with pytest.raises(SearchBudgetExceeded):
        sample_serpent_type(SeededEntropy(0), max_candidates=0)


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 24))
@settings(max_examples=60, deadline=None)
def test_class_closed_under_xor_composition(c, d, seed):
    # x -> S(x ^ c) ^ d preserves the spectrum, the difference table and
    # the branch condition, so membership must survive.
    t = sample_serpent_type(SeededEntropy(seed))
    u = tuple(t[x ^ c] ^ d for x in range(16))
    assert is_serpent_type(u)


# ---------------------------------------------------------------------------
# hex encoding

@given(st.permutations(range(16)))
def test_hex_roundtrip(perm):
    t = bytes(perm)
    assert table_from_hex(table_to_hex(t)) == t


def test_hex_rejects_bad_input():
    with pytest.raises(ValueError):
        table_from_hex("0123")
    with pytest.raises(ValueError):
        table_from_hex("zz" * 8)


# ---------------------------------------------------------------------------
# pools

def test_build_pool_entries_distinct_and_verified(pool32):
    assert pool32.count == 32
    entries = [pool32.entry(i) for i in range(pool32.count)]
    assert len(set(entries)) == 32
    for t in entries[:8]:
        assert ref_is_member(t)
    for t in entries:
        assert is_serpent_type(t)


def test_pool32_digest_frozen(pool32):
    assert pool32.digest.hex() == POOL32_SEED7_DIGEST


def test_pool_roundtrip(tmp_path, pool32):
    path = tmp_path / "pool.bin"
    write_pool(pool32, path)
    back = read_pool(path)
    assert back.digest == pool32.digest
    assert type(back.blob) is bytes and back.blob == pool32.blob
    assert back.digest == hashlib.sha256(back.blob).digest()


def test_pool_digest_is_order_sensitive(pool32):
    reversed_blob = b"".join(pool32.entry(i) for i in reversed(range(pool32.count)))
    assert SBoxPool(blob=reversed_blob).digest != pool32.digest


def test_a_pool_blob_holds_whole_tables(pool32):
    assert len(pool32.blob) == 16 * pool32.count == 16 * 32
    with pytest.raises(ValueError):
        SBoxPool(blob=pool32.blob[:-1])


def test_build_pool_rejects_zero_count():
    with pytest.raises(ValueError):
        build_pool(0, SeededEntropy(0))


def test_build_pool_refuses_more_tables_than_the_class_holds():
    # refused before any draw: an empty stream would raise EntropyExhausted
    with pytest.raises(ValueError, match="class size"):
        build_pool(CLASS_SIZE + 1, RecordedEntropy(b""))
    assert CLASS_SIZE == 2_211_840  # Leander & Poschmann, 2007


def _pool_file(tmp_path, pool):
    path = tmp_path / "pool.bin"
    write_pool(pool, path)
    return path, bytearray(path.read_bytes())


def _expect_format_error(path, blob):
    path.write_bytes(bytes(blob))
    with pytest.raises(PoolFormatError):
        read_pool(path)


def test_pool_file_rejects_truncation(tmp_path, pool32):
    path, blob = _pool_file(tmp_path, pool32)
    _expect_format_error(path, blob[:-1])


def test_pool_file_rejects_bad_magic(tmp_path, pool32):
    path, blob = _pool_file(tmp_path, pool32)
    blob[0] ^= 0xFF
    _expect_format_error(path, blob)


def test_pool_file_rejects_unknown_version(tmp_path, pool32):
    path, blob = _pool_file(tmp_path, pool32)
    blob[9] = 2
    _expect_format_error(path, blob)


def test_pool_file_rejects_count_mismatch(tmp_path, pool32):
    path, blob = _pool_file(tmp_path, pool32)
    blob[19] += 1  # count low byte
    _expect_format_error(path, blob)


def test_pool_file_rejects_body_corruption(tmp_path, pool32):
    path, blob = _pool_file(tmp_path, pool32)
    blob[20 + 5] ^= 0x01  # inside the first record
    _expect_format_error(path, blob)


def raw_pool_file(path, body: bytes):
    """A pool file around body whose header and digest are both right."""
    head = struct.pack(">8sH6xI", POOL_MAGIC, POOL_VERSION, len(body) // 16)
    path.write_bytes(head + body + hashlib.sha256(body).digest())
    return path


def test_pool_file_rejects_an_empty_pool(tmp_path):
    path = raw_pool_file(tmp_path / "empty.pool", b"")
    with pytest.raises(PoolFormatError, match="no entries"):
        read_pool(path)


@pytest.mark.parametrize("value", [16, 255])
def test_pool_file_rejects_a_value_outside_a_nibble(tmp_path, pool32, value):
    body = bytearray(pool32.blob)
    body[-1] = value  # last value of the last table; the digest is recomputed
    path = raw_pool_file(tmp_path / "bad.pool", bytes(body))
    with pytest.raises(PoolFormatError, match="outside"):
        read_pool(path)


def test_pool_file_rejects_a_table_outside_the_class(tmp_path):
    # nibbles and digest are right, but neither table is Serpent-type
    body = bytes(16) + bytes(range(16))
    path = raw_pool_file(tmp_path / "weak.pool", body)
    with pytest.raises(PoolFormatError, match="entry 0 is not a Serpent-type"):
        read_pool(path)


def test_pool_file_rejects_a_repeated_entry(tmp_path, pool32):
    body = bytearray(pool32.blob)
    body[16 * 9 : 16 * 10] = pool32.entry(5)
    path = raw_pool_file(tmp_path / "repeat.pool", bytes(body))
    with pytest.raises(PoolFormatError, match="entry 9 repeats"):
        read_pool(path)


def test_pool_file_rejects_digest_corruption(tmp_path, pool32):
    path, blob = _pool_file(tmp_path, pool32)
    blob[-1] ^= 0x01
    _expect_format_error(path, blob)
