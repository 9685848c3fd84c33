"""Statistical harness and the latency model.

The diffusion machinery is checked against a degenerate instance whose
avalanche behavior is known exactly (the identity map moves nothing, so
every single-bit flip yields Hamming distance 1). Model numbers are
checked against their defining arithmetic, not against themselves.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from sucsim import analysis
from sucsim.analysis import (
    DEFAULT_COSTS,
    AvalancheConfig,
    avalanche_histogram,
    avalanche_vs_rounds,
    chi2_sf,
    chi_square_binomial,
    hardware_latency_anchor,
    kappa_trng,
    otpp_grid,
    reinit_time,
    tau_otpp,
    tau_otpp_aggregate_ms,
    tau_trng_ms,
    bound_report,
)
from sucsim.analysis import SBOX_MODES
from sucsim.cipher import SucInstance, SucParams, apply, draw_instance
from sucsim.entropy import SeededEntropy
from sucsim.sbox8 import SBox8


# ---------------------------------------------------------------------------
# avalanche machinery

def small_cfg(**kw):
    base = dict(suc_count=5, trials_per_suc=9, rounds=15, seed=0)
    base.update(kw)
    return AvalancheConfig(**base)


def test_histogram_totals(pool32):
    res = avalanche_histogram(small_cfg(), pool32)
    assert len(res.counts) == 65
    assert res.total == 5 * 9 * 64
    assert sum(res.counts) == res.total


def test_histogram_deterministic(pool32):
    a = avalanche_histogram(small_cfg(), pool32)
    b = avalanche_histogram(small_cfg(), pool32)
    c = avalanche_histogram(small_cfg(seed=1), pool32)
    assert list(a.counts) == list(b.counts)
    assert list(a.counts) != list(c.counts)


def test_histogram_sbox_modes_differ(pool32):
    a = avalanche_histogram(small_cfg(sbox_mode="single-replicated"), pool32)
    b = avalanche_histogram(small_cfg(sbox_mode="eight-distinct"), pool32)
    assert list(a.counts) != list(b.counts)
    assert a.total == b.total


# sha256 of the little-endian int64 counts, as the layer-by-layer cipher
# (s_layer, then p_layer, per round) computed them
AVALANCHE_PINS = {
    "single-replicated": "5489a5835381e2f4effd5832e45685cacc28605b4e6b867e4e2d3b50ea6c9b63",
    "eight-distinct": "e200b840467e80b0101e7dc30d796f0b4a2fa64994c124ae084610a1b21402e1",
}


@pytest.mark.parametrize("sbox_mode", sorted(AVALANCHE_PINS))
def test_histogram_counts_are_pinned(pool32, sbox_mode):
    cfg = small_cfg(suc_count=8, trials_per_suc=20, sbox_mode=sbox_mode)
    counts = avalanche_histogram(cfg, pool32).counts.astype("<i8")
    assert hashlib.sha256(counts.tobytes()).hexdigest() == AVALANCHE_PINS[sbox_mode]


def test_identity_instance_has_unit_avalanche():
    # identity tables and odd round count: the cipher is the identity,
    # so flipping one input bit moves the output by exactly one bit
    ident = SBox8(table=tuple(range(256)))
    inst = SucInstance(sboxes=(ident,) * 8, params=SucParams(rounds=15))
    inputs = np.random.default_rng(0).integers(0, 256, (50, 8), dtype=np.uint8)
    counts = analysis._avalanche_counts_for_instance(inst, inputs)
    assert counts[1] == 50 * 64
    assert counts.sum() == 50 * 64


def reference_counts(inst, inputs):
    """The distance histogram from scalar apply and int.bit_count()."""
    counts = np.zeros(65, dtype=np.int64)
    for row in inputs:
        x = int.from_bytes(bytes(row), "little")
        y = int.from_bytes(apply(inst, bytes(row)), "little")
        for p in range(64):
            flipped = apply(inst, (x ^ 1 << p).to_bytes(8, "little"))
            counts[(int.from_bytes(flipped, "little") ^ y).bit_count()] += 1
    return counts


@pytest.mark.parametrize("sbox_mode", SBOX_MODES)
@pytest.mark.parametrize("rounds", [1, 2, 15])
def test_counts_match_a_scalar_reference(pool32, sbox_mode, rounds):
    params = SucParams(rounds=rounds)
    stream = SeededEntropy(rounds)
    inst = draw_instance(
        pool32, params, stream, replicate_single=sbox_mode == "single-replicated"
    )
    inputs = np.frombuffer(stream.read(8 * 12), dtype=np.uint8).reshape(12, 8)
    counts = analysis._avalanche_counts_for_instance(inst, inputs)
    assert counts.shape == (65,)
    assert np.array_equal(counts, reference_counts(inst, inputs))


def test_config_validation():
    with pytest.raises(ValueError):
        AvalancheConfig(sbox_mode="bogus")
    with pytest.raises(ValueError):
        AvalancheConfig(suc_count=0)


def test_mean_and_stddev_definitions(pool32):
    res = avalanche_histogram(small_cfg(), pool32)
    values = np.repeat(np.arange(65), res.counts)
    assert res.mean == pytest.approx(values.mean())
    assert res.stddev == pytest.approx(values.std())
    assert res.min_distance == values.min()
    assert res.max_distance == values.max()


# ---------------------------------------------------------------------------
# goodness of fit

@pytest.mark.parametrize(
    "x, dof, p",
    [
        # upper 5% points of the chi-square table, and one far tail value
        (3.8414588206941285, 1, 0.05),
        (18.30703805327515, 10, 0.05),
        (67.5048065495412, 50, 0.05),
        (362.6301664720331, 10, 8.2988514e-72),
    ],
)
def test_chi2_sf_matches_table_values(x, dof, p):
    assert chi2_sf(x, dof) == pytest.approx(p, rel=1e-9)


@pytest.mark.parametrize("x", [0.0, 0.5, 3.0, 41.7, 900.0])
def test_chi2_sf_with_two_dof_is_the_exponential_tail(x):
    assert chi2_sf(x, 2) == math.exp(-x / 2)


@pytest.mark.parametrize("dof", [1, 2, 9, 64])
def test_chi2_sf_bounds(dof):
    assert chi2_sf(0.0, dof) == 1.0
    assert chi2_sf(1e6, dof) == 0.0
    assert chi2_sf(math.inf, dof) == 0.0
    assert 0.0 < chi2_sf(dof, dof) < 1.0


def test_chi2_sf_rejects_zero_dof():
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)


def test_gof_accepts_the_exact_binomial_shape():
    n = 64000
    counts = [round(n * math.comb(64, k) / 2**64) for k in range(65)]
    gof = chi_square_binomial(counts)
    assert not gof.rejected
    assert gof.p_value > 0.5


def test_gof_rejects_a_uniform_histogram():
    counts = np.full(65, 1000)
    gof = chi_square_binomial(counts)
    assert gof.rejected
    assert gof.p_value < 1e-6


@pytest.mark.parametrize(
    "counts",
    [
        np.zeros(65, dtype=int),  # no samples at all
        np.bincount([32] * 10, minlength=65),  # every bin pools into one
    ],
    ids=["empty", "ten-samples"],
)
def test_gof_refuses_a_histogram_that_pools_to_one_bin(counts):
    with pytest.raises(ValueError, match="at least two"):
        chi_square_binomial(counts)


def test_gof_counts_a_nan_p_value_as_rejected():
    assert analysis.GofResult(math.nan, 1, math.nan).rejected


def test_gof_pools_sparse_tails():
    rng = np.random.default_rng(1)
    sample = rng.binomial(64, 0.5, 500)
    counts = np.bincount(sample, minlength=65)
    gof = chi_square_binomial(counts)
    # tails with expectation below the floor are merged inward
    assert gof.dof < 64
    assert 0.0 <= gof.p_value <= 1.0
    assert not gof.rejected


# ---------------------------------------------------------------------------
# rounds sweep

def test_rounds_sweep_shows_diffusion_building(pool32):
    cfg = AvalancheConfig(suc_count=6, trials_per_suc=8, seed=0)
    rows = avalanche_vs_rounds(cfg, pool32, 1, 4)
    assert [r.config.rounds for r in rows] == [1, 2, 3, 4]
    assert rows[0].mean < 10
    assert rows[-1].mean > 28
    assert rows[0].mean < rows[1].mean < rows[2].mean


# ---------------------------------------------------------------------------
# construction-strength report

def test_bound_report_shape(pool32):
    rep = bound_report(pool32, count=30, seed=4)
    assert rep.count == 30
    assert len(rep.lin_probs) == 30
    assert rep.bound == 2**-4
    assert all(0 < p <= 1 for p in rep.diff_probs)
    assert all(0 < p <= 1 for p in rep.lin_probs)
    assert 0.0 <= rep.frac_diff_exceeding <= 1.0
    assert 0.0 <= rep.frac_lin_exceeding <= 1.0


def test_bound_report_deterministic(pool32):
    a = bound_report(pool32, count=12, seed=9)
    b = bound_report(pool32, count=12, seed=9)
    assert a.diff_probs == b.diff_probs
    assert a.lin_probs == b.lin_probs


# ---------------------------------------------------------------------------
# latency model

def test_aggregate_constants_follow_their_definitions():
    c = DEFAULT_COSTS
    assert c.k1 == pytest.approx(4 * c.tau1, rel=1e-12)
    assert c.k2 == pytest.approx(8 * c.tau3, rel=1e-12)
    expected_k3 = c.tau2 + c.tau_puf + 8 * (c.tau4 + c.tau_e) + c.tau_envm
    assert c.k3_us == pytest.approx(expected_k3, rel=1e-12)


def test_aggregate_model_follows_changed_constants():
    consts = analysis.CostConstants(tau1=5.0, tau3=2.0)
    for r, size in ((3, 256), (13, 2**21)):
        assert tau_otpp(r, size, consts).total_ms == pytest.approx(
            tau_otpp_aggregate_ms(r, size, consts), rel=1e-12
        )


def test_trng_entropy_demand():
    assert kappa_trng(3, 256) == 128
    assert kappa_trng(3, 256, "bytes") == 16
    assert kappa_trng(13, 2**21) == 1176
    assert kappa_trng(13, 2**21, "bytes") == 147
    with pytest.raises(ValueError):
        kappa_trng(3, 256, "nibbles")


def test_trng_latency_value():
    assert tau_trng_ms(16) == pytest.approx(0.4645, abs=1e-9)
    assert abs(tau_trng_ms(16) - 0.464) <= 0.001


def test_personalization_breakdown_sums_to_the_aggregate_form():
    cost = tau_otpp(3, 256)
    parts = (
        cost.trng_ms + cost.sbox_gen_ms + cost.puf_ms + cost.encrypt_ms + cost.envm_ms
    )
    assert cost.total_ms == pytest.approx(parts, rel=1e-12)
    assert cost.total_ms == pytest.approx(tau_otpp_aggregate_ms(3, 256), abs=1e-9)
    assert abs(cost.total_ms - 647.679) <= 0.1


def test_personalization_grid_is_monotone():
    rows = otpp_grid([3, 5, 7], [256, 4096, 2**21])
    by_pair = {(r, s): ms for r, s, ms in rows}
    assert by_pair[(3, 256)] < by_pair[(5, 256)] < by_pair[(7, 256)]
    assert by_pair[(3, 256)] < by_pair[(3, 4096)] < by_pair[(3, 2**21)]


def test_reinit_time_components():
    cost = reinit_time()
    assert cost.total_ms == pytest.approx(51.1, abs=1e-9)
    doubled = reinit_time(replace(DEFAULT_COSTS, tau_puf=60_000.0))
    assert doubled.total_ms == pytest.approx(81.1, abs=1e-9)


def test_hardware_latency_anchors():
    assert hardware_latency_anchor(50) == pytest.approx(2.88, abs=1e-12)
    assert hardware_latency_anchor(200) == pytest.approx(0.72, abs=1e-12)
    assert hardware_latency_anchor(100) == pytest.approx(1.44, abs=1e-12)
    with pytest.raises(ValueError):
        hardware_latency_anchor(0)
