"""Acceptance gate: the nine headline guarantees, one test each.

Each test states its tolerance inline and fails loudly when the
implementation drifts. Statistical checks run at full scale (1000
instances where the claim is about 1000 instances), so this file is the
slowest in the suite; everything else keeps its scale down and leaves
the load-bearing numbers to these nine.
"""

import hashlib
import random
import time
from collections import Counter

import numpy as np
import pytest

from sucsim import analysis, authority, device, netlink
from sucsim.cipher import SucParams, apply_batch, draw_instance, suc_log2_cardinality
from sucsim.entropy import SeededEntropy
from sucsim.errors import FrameError, IntegrityError,LifecycleError

POOL256_SEED0_DIGEST = "3f59945737d7bb51e7487b7740a0e6a33e2c34cc6fa7c18312fd8c7bdb987c19"


# 1 -------------------------------------------------------------------------

def test_involution_holds_at_scale(pool256):
    """10^5 (instance, block) pairs with zero failures, under a minute."""
    params = SucParams(rounds=15, feistel_r=3)
    rng = np.random.default_rng(0)
    started = time.perf_counter()
    pairs = 0
    for i in range(100):
        instance = draw_instance(pool256, params, SeededEntropy(10_000 + i))
        blocks = rng.integers(0, 256, size=(1000, 8), dtype=np.uint8)
        assert np.array_equal(apply_batch(instance, apply_batch(instance, blocks)), blocks)
        pairs += len(blocks)
        # every built byte table must be a self-inverse permutation, all 256 points
        for box in instance.sboxes:
            t = box.table
            assert all(t[t[x]] == x for x in range(256))
    elapsed = time.perf_counter() - started
    assert pairs == 100_000
    assert elapsed < 60.0, f"involution sweep took {elapsed:.1f}s"


# 2 -------------------------------------------------------------------------

def _walsh_max(t):
    best = 0
    for a in range(16):
        for b in range(1, 16):
            s = sum(
                (-1) ** (((a & x).bit_count() + (b & t[x]).bit_count()) & 1)
                for x in range(16)
            )
            best = max(best, abs(s))
    return best


def _diff_max(t):
    best = 0
    for a in range(1, 16):
        counts = Counter(t[x] ^ t[x ^ a] for x in range(16))
        best = max(best, max(counts.values()))
    return best


def _branch_min(t):
    return min((t[x] ^ t[x ^ a]).bit_count() for a in (1, 2, 4, 8) for x in range(16))


def test_pool_entries_survive_independent_verification(pool256_timed):
    """Fixed-seed 256-entry pool in under 5 minutes, every entry re-verified
    from the raw definitions (mask sums, difference counts, bit counting)."""
    pool, build_seconds = pool256_timed
    assert build_seconds < 300.0, f"pool build took {build_seconds:.1f}s"
    assert pool.count == 256
    assert pool.digest.hex() == POOL256_SEED0_DIGEST
    for t in pool.entries:
        assert len(set(t)) == 16
        assert _walsh_max(t) == 8
        assert _diff_max(t) == 4
        assert _branch_min(t) >= 2


# 3 -------------------------------------------------------------------------

def test_instance_space_cardinality():
    """log2 of the instance space: 1176 at r=13, |S|=2^21; the |S|=2^21
    closed form collapses to 84r + 84 across the odd r range."""
    assert suc_log2_cardinality(13, 2 ** 21) == 1176
    for r in range(1, 16, 2):
        assert suc_log2_cardinality(r, 2 ** 21) == 84 * r + 84


# 4 -------------------------------------------------------------------------

def test_avalanche_matches_binomial(pool256):
    """1000 SUCs x 100 inputs x 64 flips at R=15: mean 32 +- 0.5, stddev
    4 +- 0.5, chi-square GOF against Binomial(64, 1/2) not rejected at 0.01."""
    cfg = analysis.AvalancheConfig(
        suc_count=1000, trials_per_suc=100, rounds=15, feistel_r=3, seed=0
    )
    result = analysis.avalanche_histogram(cfg, pool256)
    gof = analysis.chi_square_binomial(result.counts)
    assert result.total == 1000 * 100 * 64
    assert abs(result.mean - 32.0) < 0.5, f"mean {result.mean:.4f}"
    assert abs(result.stddev - 4.0) < 0.5, f"stddev {result.stddev:.4f}"
    assert gof.p_value > 0.01, f"chi2 p={gof.p_value:.5f} (stat {gof.statistic:.2f})"
    assert not gof.rejected


# 5 -------------------------------------------------------------------------

def test_avalanche_saturates_with_rounds(pool256):
    """Mean Hamming distance per round count: far below 32 at R=1, inside
    [31.5, 32.5] for every R >= 5."""
    cfg = analysis.AvalancheConfig(suc_count=30, trials_per_suc=30, feistel_r=3, seed=0)
    rows = analysis.avalanche_vs_rounds(cfg, pool256, 1, 32)
    assert [row.rounds for row in rows] == list(range(1, 33))
    assert rows[0].mean < 9.0, f"R=1 mean {rows[0].mean:.3f}"
    for row in rows[4:]:
        assert 31.5 <= row.mean <= 32.5, f"R={row.rounds} mean {row.mean:.3f}"


# 6 -------------------------------------------------------------------------

def test_cost_model_anchors():
    """The analytic latency model hits its hardware anchor points.

    These are model evaluations, not measurements: the microsecond-scale
    cipher latencies come out of cycle counts and a clock, nothing here
    times real silicon.
    """
    cost = analysis.tau_otpp(3, 256)
    assert cost.total_ms == pytest.approx(647.679, abs=0.1)
    assert analysis.tau_trng_ms(16) == pytest.approx(0.464, abs=0.001)
    assert analysis.reinit_time().total_ms == pytest.approx(51.1, abs=0.2)
    assert analysis.hardware_latency_anchor(50) == pytest.approx(2.88, rel=1e-9)
    assert analysis.hardware_latency_anchor(200) == pytest.approx(0.72, rel=1e-9)
    # TRNG demand at r=3, |S|=256: 128 drawn bits, i.e. the 16-byte row
    assert analysis.kappa_trng(3, 256) == 128
    assert analysis.kappa_trng(3, 256, "bytes") == 16


# 7 -------------------------------------------------------------------------

def test_lifecycle_property_suite(tmp_path, pool256):
    directory = str(tmp_path)
    params = SucParams(rounds=15, feistel_r=3)

    # entropy accounting: exactly 4(r+1) index draws, rejection-free on a
    # power-of-two pool
    device.manufacture(directory, "acc01", SeededEntropy(1))
    dev = device.load_device(directory, "acc01")
    stream = SeededEntropy(0)
    device.otpp(dev, pool256, params, stream)
    assert stream.index_draws == 4 * (3 + 1) == 16
    assert stream.rejections == 0
    assert stream.bits_consumed == 128
    device.save_envm(dev, directory)

    # one-time enforcement
    with pytest.raises(LifecycleError):
        device.otpp(dev, pool256, params, SeededEntropy(2))

    # personalization -> reinit reproduces the drawn tables byte-identically
    replay = draw_instance(pool256, dev.envm.params, SeededEntropy(0))
    loaded = device.reinit(dev)
    assert hashlib.sha256(loaded.tables_blob()).digest() == hashlib.sha256(
        replay.tables_blob()
    ).digest()
    device.power_off(dev)
    assert dev.loaded is None
    assert device.reinit(dev).tables_blob() == loaded.tables_blob()

    # any single corrupted byte bricks the next boot: 1000 randomized trials
    path = device.envm_path(directory, "acc01")
    pristine = open(path, "rb").read()
    rng = random.Random(0xACCE)
    try:
        for _ in range(1000):
            blob = bytearray(pristine)
            blob[rng.randrange(len(blob))] ^= rng.randrange(1, 256)
            with open(path, "wb") as f:
                f.write(bytes(blob))
            with pytest.raises(IntegrityError):
                device.boot(directory, "acc01")
    finally:
        with open(path, "wb") as f:
            f.write(pristine)
    assert device.boot(directory, "acc01").loaded is not None


# 8 -------------------------------------------------------------------------

def test_protocol_end_to_end(tmp_path, make_device, pool32):
    directory, serial = make_device(serial="deva", seed=21)
    deva = device.boot(directory, serial)
    store = authority.UirStore(str(tmp_path / "uir"))

    with netlink.TaService(
        store, listen=("127.0.0.1", 0), enroll_pairs=1024, entropy=SeededEntropy(8)
    ) as service:
        address = service.address[:2]

        # first contact enrolls t=1024; the record must hold 1024 fresh pairs
        outcome = netlink.run_agent(deva, address)
        assert outcome.enrolled == 1024
        record = store.load("deva")
        assert len(record.pairs) == 1024
        assert record.unused_count == 1024

        # 1024 authentications, all accepted, each burning exactly one pair
        for i in range(1024):
            outcome = netlink.run_agent(deva, address)
            assert outcome.result is authority.AuthResult.ACCEPTED, f"session {i}"
        assert store.load("deva").unused_count == 0

        # the 1025th finds nothing left
        outcome = netlink.run_agent(deva, address)
        assert outcome.result is authority.AuthResult.EXHAUSTED

        # impostor: real silicon, wrong serial -> rejected 1000/1000
        dir_b, _ = make_device(serial="devb", seed=22)
        devb = device.boot(dir_b, "devb")
        assert netlink.run_agent(devb, address).enrolled == 1024
        dir_c, _ = make_device(serial="devc", seed=23)
        impostor = device.boot(dir_c, "devc")
        impostor.serial = "devb"
        for i in range(1000):
            outcome = netlink.run_agent(impostor, address)
            assert outcome.result is authority.AuthResult.REJECTED, f"attempt {i}"
        assert store.load("devb").unused_count == 24

    # decoder fuzzing, phase one: 10^5 intact random frames stream through
    # with nothing lost
    rng = random.Random(0xF021)
    kinds = list(netlink.FrameKind)
    decoder = netlink.StreamDecoder()
    decoded = 0
    for _ in range(100_000):
        frame = netlink.Frame(rng.choice(kinds), rng.randbytes(rng.randrange(0, 48)))
        decoded += len(decoder.feed(netlink.encode(frame)))
    assert decoded == 100_000

    # phase two: 10^5 frames with random single-byte mutations. A corrupted
    # length field desynchronizes the stream by design, so no fidelity claim
    # here; the requirement is that nothing but FrameError ever escapes and
    # the decoder stays usable after a reset.
    decoder = netlink.StreamDecoder()
    decoded = rejected = 0
    for _ in range(100_000):
        frame = netlink.Frame(rng.choice(kinds), rng.randbytes(rng.randrange(0, 48)))
        blob = bytearray(netlink.encode(frame))
        if rng.random() < 0.35:
            blob[rng.randrange(len(blob))] ^= rng.randrange(1, 256)
        try:
            got = decoder.feed(bytes(blob))
        except FrameError:
            rejected += 1
            decoder = netlink.StreamDecoder()
        else:
            decoded += len(got)
    assert decoded > 0 and rejected > 0
    decoder = netlink.StreamDecoder()
    recovered = decoder.feed(netlink.encode(netlink.Frame(netlink.FrameKind.HELLO, b"")))
    assert [f.kind for f in recovered] == [netlink.FrameKind.HELLO]

    # enrollment payload accounting: 16 bytes per pair
    channel = authority.LocalDeviceChannel(deva)
    assert authority.enroll(channel, 16, SeededEntropy(5)).payload_bytes == 256
    assert authority.enroll(channel, 2048, SeededEntropy(6)).payload_bytes == 32768


# 9 -------------------------------------------------------------------------

def test_strength_bound_distribution(pool256):
    """1000 r=3 built byte tables: report the max differential/linear
    probability distribution and the fractions above 2^-4. Reported, not
    gated; the only hard assertions are shape and sanity."""
    report = analysis.bound_report(pool256, count=1000, feistel_r=3, seed=0)
    assert report.count == 1000
    assert report.bound == 2 ** -4
    assert all(0.0 < p <= 1.0 for p in report.diff_probs)
    assert all(0.0 < p <= 1.0 for p in report.lin_probs)
    assert 0.0 <= report.frac_diff_exceeding <= 1.0
    assert 0.0 <= report.frac_lin_exceeding <= 1.0

    diff_hist = Counter(report.diff_probs)
    lin_hist = Counter(report.lin_probs)
    assert sum(diff_hist.values()) == sum(lin_hist.values()) == 1000
    print(f"\nmax differential probability histogram: {dict(sorted(diff_hist.items()))}")
    print(f"max linear probability histogram: {dict(sorted(lin_hist.items()))}")
    print(
        f"fraction above 2^-4: diff {report.frac_diff_exceeding:.4f}, "
        f"lin {report.frac_lin_exceeding:.4f}"
    )
    # tripwire only: a majority above the bound would mean the construction
    # is broken, not that the statistic moved
    assert report.frac_diff_exceeding < 0.5
    assert report.frac_lin_exceeding < 0.5
