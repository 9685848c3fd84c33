"""Entropy source contracts: determinism, bit accounting, rejection draws.

The consumption counters back the personalization cost accounting, so
their exact values are part of the contract, not an implementation
detail.
"""

import hashlib

import pytest
from hypothesis import given, strategies as st

from sucsim.entropy import RecordedEntropy, SeededEntropy, SystemEntropy
from sucsim.errors import EntropyExhausted


def test_seeded_streams_replay():
    a = SeededEntropy(42)
    b = SeededEntropy(42)
    assert a.read(100) == b.read(100)


def test_seeded_int_seed_matches_bytes_seed():
    a = SeededEntropy(5)
    b = SeededEntropy((5).to_bytes(16, "big"))
    assert a.read(64) == b.read(64)


@pytest.mark.parametrize("seed", [-1, 2**128], ids=["negative", "2**128"])
def test_seeded_int_seed_outside_128_bits_is_refused(seed):
    with pytest.raises(ValueError, match="seed"):
        SeededEntropy(seed)


def test_seeded_streams_differ_across_seeds():
    assert SeededEntropy(1).read(32) != SeededEntropy(2).read(32)


def test_seeded_read_is_a_stream():
    a = SeededEntropy(9)
    b = SeededEntropy(9)
    assert a.read(10) + a.read(10) + a.read(12) == b.read(32)


def test_mixed_size_reads_equal_one_large_read():
    sizes = [1, 0, 31, 32, 33, 1, 64, 65, 200, 7, 1000, 3, 4096, 1]
    a, b = SeededEntropy(11), SeededEntropy(11)
    assert b"".join(a.read(k) for k in sizes) == b.read(sum(sizes))
    assert (a._counter, a._buffer) == (b._counter, b._buffer)
    assert a.read(100) == b.read(100)


def test_a_large_read_is_the_hash_counter_stream():
    seed = (3).to_bytes(16, "big")
    n = 8 * 65535
    blocks = (n + 31) // 32
    want = b"".join(
        hashlib.sha256(seed + i.to_bytes(8, "big")).digest() for i in range(blocks)
    )
    e = SeededEntropy(3)
    assert e.read(n) == want[:n]
    assert e._counter == blocks and e._buffer == want[n:]


def test_read_counts_bytes():
    e = SeededEntropy(0)
    e.read(5)
    e.read(0)
    e.read(7)
    assert e.bytes_consumed == 12


def test_take_bits_is_little_endian_within_the_reservoir():
    # 0xb4 = 1011_0100: the low nibble comes out first
    e = RecordedEntropy(b"\xb4")
    assert e.take_bits(4) == 0x4
    assert e.take_bits(4) == 0xB
    assert e.bits_consumed == 8
    assert e.bytes_consumed == 1


def test_take_bits_zero_is_free():
    e = RecordedEntropy(b"")
    assert e.take_bits(0) == 0
    assert e.bits_consumed == 0
    assert e.bytes_consumed == 0


@given(st.integers(0, 2**64 - 1), st.integers(1, 64))
def test_take_bits_stays_in_range(seed, k):
    v = SeededEntropy(seed).take_bits(k)
    assert 0 <= v < 2**k


def test_draw_index_power_of_two_has_exact_cost():
    e = SeededEntropy(3)
    for _ in range(10):
        v = e.draw_index(256)
        assert 0 <= v < 256
    assert e.index_draws == 10
    assert e.rejections == 0
    assert e.bits_consumed == 80
    assert e.bytes_consumed == 10


def test_draw_index_rejection_path():
    # n=200 needs 8-bit attempts; 0xff is rejected, 0x10 accepted
    e = RecordedEntropy(b"\xff\x10")
    assert e.draw_index(200) == 0x10
    assert e.rejections == 1
    assert e.index_draws == 1
    assert e.bits_consumed == 16


def test_draw_index_singleton_consumes_nothing():
    e = RecordedEntropy(b"")
    assert e.draw_index(1) == 0
    assert e.bits_consumed == 0


def test_draw_index_rejects_empty_range():
    with pytest.raises(ValueError):
        SeededEntropy(0).draw_index(0)


@given(st.integers(0, 2**32), st.integers(1, 300))
def test_draw_index_in_range(seed, n):
    assert 0 <= SeededEntropy(seed).draw_index(n) < n


def test_draw_index_covers_the_range():
    e = SeededEntropy(11)
    seen = {e.draw_index(7) for _ in range(500)}
    assert seen == set(range(7))


@given(st.lists(st.integers(), max_size=40), st.integers(0, 2**32))
def test_shuffled_is_a_permutation(items, seed):
    out = SeededEntropy(seed).shuffled(items)
    assert sorted(out) == sorted(items)


def test_shuffled_deterministic_per_seed():
    items = list(range(20))
    assert SeededEntropy(4).shuffled(items) == SeededEntropy(4).shuffled(items)
    assert SeededEntropy(4).shuffled(items) != SeededEntropy(5).shuffled(items)


def reference_shuffled(e, items):
    # the textbook Fisher-Yates: one draw_index call per position
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = e.draw_index(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def counters(e):
    return (e.bytes_consumed, e.bits_consumed, e.index_draws, e.rejections)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 16, 17, 300])
def test_shuffled_matches_draw_index_fisher_yates(seed, n):
    fast, ref = SeededEntropy(seed), SeededEntropy(seed)
    # leave a few bits in the reservoir first, so carry-in is covered too
    assert fast.take_bits(5) == ref.take_bits(5)
    for _ in range(3):
        assert fast.shuffled(range(n)) == reference_shuffled(ref, range(n))
        assert counters(fast) == counters(ref)
    # the reservoir carries over: the next bits come out identically
    assert fast.take_bits(13) == ref.take_bits(13)
    assert counters(fast) == counters(ref)


@pytest.mark.parametrize("size", [0, 1, 3, 5, 6])
def test_shuffled_counters_match_after_running_dry(size):
    # a shuffle of 16 needs at least 49 bits, so 6 bytes always run dry
    data = SeededEntropy(size).read(size)
    fast, ref = RecordedEntropy(data), RecordedEntropy(data)
    with pytest.raises(EntropyExhausted):
        fast.shuffled(range(16))
    with pytest.raises(EntropyExhausted):
        reference_shuffled(ref, range(16))
    assert counters(fast) == counters(ref)
    # the bits left over from the partial shuffle are the same
    assert fast._reservoir_bits == ref._reservoir_bits
    assert fast.take_bits(ref._reservoir_bits) == ref.take_bits(ref._reservoir_bits)


def test_recorded_replays_and_exhausts():
    e = RecordedEntropy(b"abcdef")
    assert e.read(4) == b"abcd"
    assert e.remaining == 2
    with pytest.raises(EntropyExhausted):
        e.read(3)
    assert e.read(2) == b"ef"
    assert e.remaining == 0


def test_system_entropy_produces_bytes():
    e = SystemEntropy()
    data = e.read(16)
    assert len(data) == 16
    assert e.bytes_consumed == 16


def test_negative_read_rejected():
    with pytest.raises(ValueError):
        SeededEntropy(0).read(-1)
    with pytest.raises(ValueError):
        SeededEntropy(0).take_bits(-1)
