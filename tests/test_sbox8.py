"""Involutive byte substitutions built from nibble Feistel rounds.

ref_feistel rebuilds the construction from its definition (explicit
round loop over nibbles); ref_profile recomputes the linear and
differential maxima through a dense sign-matrix product instead of the
in-tree transform. Both serve as oracles for the package paths.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sucsim.sbox8 import (
    FeistelSpec,
    SBox8,
    class_log2_cardinality,
    feistel8,
    profile8,
    table8_from_hex,
    table8_to_hex,
)

_POP = np.array([bin(v).count("1") for v in range(256)])


def ref_feistel(free, r, x):
    seq = [free[min(k, r - 1 - k)] for k in range(r)]
    left, right = x >> 4, x & 15
    for k, s in enumerate(seq):
        if k % 2 == 0:
            left ^= s[right]
        else:
            right ^= s[left]
    return (left << 4) | right


def ref_profile(table):
    t = np.array(table, dtype=np.int64)
    x = np.arange(256)
    diff = 0
    for a in range(1, 256):
        diff = max(diff, int(np.bincount(t[x ^ a] ^ t[x], minlength=256).max()))
    m_in = (-1) ** _POP[x[:, None] & x[None, :]]  # [a, x]
    m_out = (-1) ** _POP[x[:, None] & t[None, :]]  # [b, x]
    walsh = m_in @ m_out.T  # [a, b]
    lin = int(np.abs(walsh[:, 1:]).max())
    branch = min(
        int(_POP[t[x] ^ t[x ^ (1 << j)]].min()) for j in range(8)
    )
    return lin, diff, branch


def spec_from(pool, indices, r):
    return FeistelSpec(r=r, free=tuple(pool.entry(i) for i in indices))


# ---------------------------------------------------------------------------
# construction

def test_construction_matches_reference(pool32):
    for r, indices in [(1, [0]), (3, [1, 2]), (5, [3, 4, 5]), (7, [6, 7, 8, 9])]:
        box = feistel8(spec_from(pool32, indices, r))
        free = tuple(pool32.entry(i) for i in indices)
        assert all(box.table[x] == ref_feistel(free, r, x) for x in range(256))


def test_construction_matches_reference_on_random_tables():
    # any 16 nibbles, bijective or not: every table entry feeds the whole-table rounds
    rng = random.Random(13)
    for r in (1, 3, 5, 7):
        for _ in range(25):
            free = tuple(
                tuple(rng.randrange(16) for _ in range(16)) for _ in range((r + 1) // 2)
            )
            box = feistel8(FeistelSpec(r=r, free=free))
            assert box.table == bytes(ref_feistel(free, r, x) for x in range(256))


def test_construction_is_involution_for_any_round_functions():
    rng = random.Random(5)
    for r in (1, 3, 5, 7, 9):
        for _ in range(20):
            free = tuple(
                tuple(rng.randrange(16) for _ in range(16))
                for _ in range((r + 1) // 2)
            )
            box = feistel8(FeistelSpec(r=r, free=free))
            assert box.is_involution()


def test_single_round_only_touches_the_high_nibble(pool32):
    s0 = pool32.entry(0)
    box = feistel8(FeistelSpec(r=1, free=(s0,)))
    for x in range(256):
        assert box.table[x] == (((x >> 4) ^ s0[x & 15]) << 4) | (x & 15)


def test_zero_round_functions_build_the_identity():
    zero = (0,) * 16
    box = feistel8(FeistelSpec(r=3, free=(zero, zero)))
    assert box.table == bytes(range(256))


def test_identity_round_functions_build_the_nibble_swap():
    ident = tuple(range(16))
    box = feistel8(FeistelSpec(r=3, free=(ident, ident)))
    assert box.table == bytes(((x & 15) << 4) | (x >> 4) for x in range(256))


def test_pool_built_boxes_are_never_identity(pool32):
    for i in range(0, 30, 2):
        box = feistel8(spec_from(pool32, [i, i + 1], 3))
        assert box.table != bytes(range(256))
        assert box.is_involution()


def test_spec_validation():
    ident = tuple(range(16))
    with pytest.raises(ValueError):
        FeistelSpec(r=2, free=(ident,))
    with pytest.raises(ValueError):
        FeistelSpec(r=0, free=())
    with pytest.raises(ValueError):
        FeistelSpec(r=3, free=(ident,))  # needs 2 round functions
    with pytest.raises(ValueError):
        FeistelSpec(r=1, free=((16,) * 16,))


@given(st.integers(0, 31), st.integers(0, 31), st.integers(0, 255))
@settings(max_examples=80, deadline=None)
def test_construction_point_checks(pool32, i, j, x):
    free = (pool32.entry(i), pool32.entry(j))
    box = feistel8(FeistelSpec(r=3, free=free))
    assert box.table[x] == ref_feistel(free, 3, x)
    assert box.table[box.table[x]] == x


# ---------------------------------------------------------------------------
# profiling

def test_profile_matches_reference_on_permutations():
    rng = random.Random(31)
    for _ in range(25):
        t = list(range(256))
        rng.shuffle(t)
        p = profile8(tuple(t))
        assert p.bijective
        assert (p.lin, p.diff, p.branch_min) == ref_profile(t)


def test_profile_matches_reference_on_random_functions():
    # the half-size DDT pairs x with x ^ a, which must hold for any function
    rng = random.Random(37)
    for image in (256, 17, 2):
        for _ in range(6):
            t = [rng.randrange(image) for _ in range(256)]
            p = profile8(tuple(t))
            assert (p.lin, p.diff, p.branch_min) == ref_profile(t)


def test_profile_matches_reference_on_built_boxes(pool32):
    for i in range(0, 12, 2):
        box = feistel8(spec_from(pool32, [i, i + 1], 3))
        p = profile8(box)
        assert (p.lin, p.diff, p.branch_min) == ref_profile(list(box.table))
        assert p.involutive and p.bijective


def test_profile_of_the_nibble_swap():
    swap = tuple(((x & 15) << 4) | (x >> 4) for x in range(256))
    p = profile8(swap)
    # linear map: spectrum and difference table are degenerate
    assert (p.lin, p.diff, p.branch_min) == ref_profile(swap) == (256, 256, 1)
    assert p.involutive


def test_profile_of_a_constant_table():
    p = profile8((0,) * 256)
    assert not p.bijective
    assert not p.involutive
    assert (p.lin, p.diff, p.branch_min) == ref_profile((0,) * 256) == (256, 256, 0)


def test_probability_views():
    p = profile8(tuple(((x & 15) << 4) | (x >> 4) for x in range(256)))
    assert p.max_diff_prob == p.diff / 256
    assert p.max_lin_prob == (p.lin / 256) ** 2


def test_profile_rejects_short_tables():
    with pytest.raises(ValueError):
        profile8((0,) * 255)


# ---------------------------------------------------------------------------
# container and encoding

def test_sbox8_byte_roundtrip(pool32):
    box = feistel8(spec_from(pool32, [4, 9], 3))
    assert SBox8(box.table) == box == SBox8(list(box.table))


def test_sbox8_hex_roundtrip(pool32):
    box = feistel8(spec_from(pool32, [2, 3], 3))
    assert table8_from_hex(table8_to_hex(box)).table == box.table


def test_sbox8_validation():
    with pytest.raises(ValueError):
        SBox8(table=(0,) * 255)
    with pytest.raises(ValueError):
        SBox8(table=(256,) + (0,) * 255)
    with pytest.raises(ValueError):
        SBox8(b"\x00" * 100)
    with pytest.raises(ValueError):
        table8_from_hex("ab" * 100)


# ---------------------------------------------------------------------------
# cardinality

def test_class_cardinality_values():
    assert class_log2_cardinality(1, 2**21) == 21.0
    assert class_log2_cardinality(3, 2**21) == 42.0
    assert class_log2_cardinality(13, 2**21) == 147.0
    assert class_log2_cardinality(3, 256) == 16.0


def test_class_cardinality_rejects_bad_arguments():
    with pytest.raises(ValueError):
        class_log2_cardinality(2, 256)
    with pytest.raises(ValueError):
        class_log2_cardinality(3, 0)
