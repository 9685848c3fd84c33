"""The 64-bit involutive block cipher.

ref_apply is a from-scratch interpreter: substitution through plain
list indexing and the bit permutation through an explicit 8x8 matrix
walk. The frozen known-answer values below were produced by ref_apply
and must keep matching the production path bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sucsim.cipher import (
    SucInstance,
    SucParams,
    apply,
    apply_batch,
    block_from_hex,
    block_to_hex,
    check_block,
    draw_instance,
    p_layer,
    s_layer,
    suc_log2_cardinality,
)
from sucsim.entropy import SeededEntropy
from sucsim.sbox8 import FeistelSpec, SBox8, feistel8

# pool seed 0 (256 entries), draw seed 0, feistel r 3, 15 rounds
KAT_ZERO_IN = "0000000000000000"
KAT_ZERO_OUT = "8e851f7dae8e0044"
KAT_SEQ_IN = "0123456789abcdef"
KAT_SEQ_OUT = "9df38d1d334f020b"


def ref_apply(tables, rounds, block):
    def sub(b):
        return [tables[i][b[i]] for i in range(8)]

    def perm(b):
        out = [0] * 8
        for i in range(8):
            for j in range(8):
                if (b[i] >> j) & 1:
                    out[j] |= 1 << i
        return out

    b = list(block)
    for _ in range(rounds - 1):
        b = perm(sub(b))
    return bytes(sub(b))


def make_instance(pool, seed, rounds=15, feistel_r=3, **kw):
    params = SucParams(rounds=rounds, feistel_r=feistel_r)
    return draw_instance(pool, params, SeededEntropy(seed), **kw)


IDENT8 = SBox8(table=tuple(range(256)))


def identity_instance(rounds):
    return SucInstance(sboxes=(IDENT8,) * 8, params=SucParams(rounds=rounds))


# ---------------------------------------------------------------------------
# layers

def test_p_layer_moves_every_bit_to_its_transpose():
    for i in range(8):
        for j in range(8):
            src = (1 << (8 * i + j)).to_bytes(8, "little")
            dst = (1 << (8 * j + i)).to_bytes(8, "little")
            assert p_layer(src) == dst


def test_p_layer_example():
    # byte 0 bit 1 lands in byte 1 bit 0
    block = bytes([0b00000010, 0, 0, 0, 0, 0, 0, 0])
    assert p_layer(block) == bytes([0, 0b00000001, 0, 0, 0, 0, 0, 0])


@given(st.binary(min_size=8, max_size=8))
def test_p_layer_is_an_involution(block):
    assert p_layer(p_layer(block)) == block


def test_s_layer_with_nibble_swaps():
    swap = SBox8(table=tuple(((x & 15) << 4) | (x >> 4) for x in range(256)))
    block = bytes.fromhex("0123456789abcdef")
    assert s_layer(block, (swap,) * 8) == bytes.fromhex("1032547698badcfe")


def test_layers_reject_short_blocks():
    with pytest.raises(ValueError):
        p_layer(b"\x00" * 7)
    with pytest.raises(ValueError):
        check_block(b"\x00" * 9)


# ---------------------------------------------------------------------------
# apply vs reference

def test_apply_matches_reference(pool32):
    rng = np.random.default_rng(2024)
    for rounds in (1, 2, 3, 15):
        inst = make_instance(pool32, seed=rounds, rounds=rounds)
        tables = [s.table for s in inst.sboxes]
        for _ in range(30):
            x = bytes(rng.integers(0, 256, 8, dtype=np.uint8))
            assert apply(inst, x) == ref_apply(tables, rounds, x)


def test_apply_single_round_is_the_substitution_layer(pool32):
    inst = make_instance(pool32, seed=3, rounds=1)
    x = bytes.fromhex("00ff11ee22dd33cc")
    assert apply(inst, x) == s_layer(x, inst.sboxes)


def test_apply_two_rounds_is_s_p_s(pool32):
    inst = make_instance(pool32, seed=4, rounds=2)
    x = bytes.fromhex("a1b2c3d4e5f60718")
    assert apply(inst, x) == s_layer(p_layer(s_layer(x, inst.sboxes)), inst.sboxes)


def test_apply_is_an_involution(pool32):
    inst = make_instance(pool32, seed=9)
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = bytes(rng.integers(0, 256, 8, dtype=np.uint8))
        assert apply(inst, apply(inst, x)) == x


def test_identity_boxes_odd_rounds_give_the_identity_map():
    inst = identity_instance(rounds=15)
    for x in (bytes(8), bytes.fromhex("0123456789abcdef"), b"\xff" * 8):
        assert apply(inst, x) == x


def test_identity_boxes_two_rounds_give_the_bit_transpose():
    inst = identity_instance(rounds=2)
    x = bytes.fromhex("8040201008040201")
    assert apply(inst, x) == p_layer(x)


# ---------------------------------------------------------------------------
# batch path

def test_batch_matches_scalar(pool32):
    inst = make_instance(pool32, seed=12)
    rng = np.random.default_rng(3)
    blocks = rng.integers(0, 256, (300, 8), dtype=np.uint8)
    out = apply_batch(inst, blocks)
    for row_in, row_out in zip(blocks, out):
        assert apply(inst, bytes(row_in)) == bytes(row_out)


@pytest.mark.parametrize("rounds", range(1, 17))
def test_batch_scalar_and_reference_agree_at_every_round_count(pool32, rounds):
    inst = make_instance(pool32, seed=100 + rounds, rounds=rounds)
    tables = [s.table for s in inst.sboxes]
    blocks = np.random.default_rng(rounds).integers(0, 256, (40, 8), dtype=np.uint8)
    out = apply_batch(inst, blocks)
    for x, y in zip(blocks, out):
        assert bytes(y) == apply(inst, bytes(x)) == ref_apply(tables, rounds, bytes(x))


def test_batch_accepts_any_block_array_form(pool32):
    inst = make_instance(pool32, seed=14)
    wide = np.random.default_rng(5).integers(0, 256, (50, 16), dtype=np.uint8)
    strided = wide[:, ::2]
    blocks = np.ascontiguousarray(strided)
    want = np.array([list(apply(inst, bytes(b))) for b in blocks], dtype=np.uint8)
    forms = (
        blocks,
        strided,
        np.frombuffer(blocks.tobytes(), dtype=np.uint8).reshape(50, 8),
        blocks.tolist(),
    )
    for form in forms:
        assert np.array_equal(apply_batch(inst, form), want)
    assert np.array_equal(wide[:, ::2], blocks)  # input left untouched
    assert np.array_equal(apply_batch(inst, blocks[:1]), want[:1])
    empty = apply_batch(inst, np.zeros((0, 8), dtype=np.uint8))
    assert empty.shape == (0, 8) and empty.dtype == np.uint8


@pytest.mark.parametrize("n", [1, 2, 1024, 6500])
def test_batch_matches_scalar_at_every_call_size(pool32, n):
    # 1 and 2 blocks answer short challenges, 1024 a t=1024 enrolment,
    # 6500 one avalanche instance
    inst = make_instance(pool32, seed=n)
    blocks = np.random.default_rng(n).integers(0, 256, (n, 8), dtype=np.uint8)
    want = b"".join(apply(inst, bytes(row)) for row in blocks)
    assert apply_batch(inst, blocks).tobytes() == want


@pytest.mark.parametrize("n", [1, 2, 1024])
def test_apply_answers_several_blocks_as_it_answers_each(pool32, n):
    inst = make_instance(pool32, seed=16)
    raw = SeededEntropy(n).read(8 * n)
    each = b"".join(apply(inst, raw[i : i + 8]) for i in range(0, 8 * n, 8))
    assert apply(inst, raw) == each


@pytest.mark.parametrize("size", [0, 12])
def test_apply_refuses_no_bytes_and_a_partial_block(pool32, size):
    inst = make_instance(pool32, seed=17)
    with pytest.raises(ValueError, match="whole 8-byte blocks"):
        apply(inst, bytes(size))


def test_batch_leaves_a_read_only_input_unchanged(pool32):
    inst = make_instance(pool32, seed=15)
    raw = SeededEntropy(15).read(8 * 64)
    blocks = np.frombuffer(raw, dtype=np.uint8).reshape(64, 8)
    assert not blocks.flags.writeable
    out = apply_batch(inst, blocks)
    assert blocks.tobytes() == raw
    assert out.tobytes() == b"".join(apply(inst, raw[i : i + 8]) for i in range(0, 512, 8))


def test_batch_involution(pool32):
    inst = make_instance(pool32, seed=13)
    rng = np.random.default_rng(4)
    blocks = rng.integers(0, 256, (1000, 8), dtype=np.uint8)
    assert np.array_equal(apply_batch(inst, apply_batch(inst, blocks)), blocks)


def test_batch_shape_validation(pool32):
    inst = make_instance(pool32, seed=1)
    with pytest.raises(ValueError):
        apply_batch(inst, np.zeros((4, 7), dtype=np.uint8))


# ---------------------------------------------------------------------------
# known answers

def test_known_answer_full_pipeline(pool256):
    inst = make_instance(pool256, seed=0)
    assert apply(inst, block_from_hex(KAT_ZERO_IN)).hex() == KAT_ZERO_OUT
    assert apply(inst, block_from_hex(KAT_SEQ_IN)).hex() == KAT_SEQ_OUT
    # involution closes both pairs
    assert apply(inst, block_from_hex(KAT_ZERO_OUT)).hex() == KAT_ZERO_IN
    assert apply(inst, block_from_hex(KAT_SEQ_OUT)).hex() == KAT_SEQ_IN


def test_known_answer_agrees_with_reference(pool256):
    inst = make_instance(pool256, seed=0)
    tables = [s.table for s in inst.sboxes]
    assert ref_apply(tables, 15, bytes(8)).hex() == KAT_ZERO_OUT


# ---------------------------------------------------------------------------
# instance drawing

def test_draw_consumes_one_index_per_round_function(pool32):
    e = SeededEntropy(0)
    draw_instance(pool32, SucParams(feistel_r=3), e)
    assert e.index_draws == 16  # 8 boxes x 2 free choices

    e = SeededEntropy(0)
    draw_instance(pool32, SucParams(feistel_r=13), e)
    assert e.index_draws == 56  # 8 boxes x 7


def test_draw_replicated_uses_one_spec(pool32):
    e = SeededEntropy(0)
    inst = draw_instance(pool32, SucParams(feistel_r=3), e, replicate_single=True)
    assert e.index_draws == 2
    assert len({s.table for s in inst.sboxes}) == 1


def test_draw_deterministic(pool32):
    a = make_instance(pool32, seed=21)
    b = make_instance(pool32, seed=21)
    c = make_instance(pool32, seed=22)
    assert a.tables_blob() == b.tables_blob()
    assert a.tables_blob() != c.tables_blob()


def test_instance_rejects_non_involutions():
    rot = SBox8(table=tuple((x + 1) % 256 for x in range(256)))
    with pytest.raises(ValueError):
        SucInstance(sboxes=(rot,) * 8, params=SucParams())
    with pytest.raises(ValueError):
        SucInstance(sboxes=(IDENT8,) * 7, params=SucParams())


def test_params_validation():
    with pytest.raises(ValueError):
        SucParams(rounds=0)
    with pytest.raises(ValueError):
        SucParams(feistel_r=4)


# ---------------------------------------------------------------------------
# misc

def test_block_hex_roundtrip():
    assert block_to_hex(block_from_hex("00ff00ff00ff00ff")) == "00ff00ff00ff00ff"
    with pytest.raises(ValueError):
        block_from_hex("00ff")


def test_cardinality_values():
    assert suc_log2_cardinality(13, 2**21) == 1176.0
    assert suc_log2_cardinality(3, 2**21) == 336.0
    assert suc_log2_cardinality(3, 256) == 128.0
    with pytest.raises(ValueError):
        suc_log2_cardinality(2, 256)
    with pytest.raises(ValueError):
        suc_log2_cardinality(3, 0)
