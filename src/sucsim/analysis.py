"""Statistical and analytic reproduction harness.

Avalanche experiments measure, over freshly drawn cipher instances, the
Hamming distance between the outputs for an input and for that input
with one bit flipped, across all 64 flip positions. A healthy instance
at full round count concentrates the histogram around 32 like
Binomial(64, 1/2).

The cost side evaluates closed-form latency models for personalization
and reinitialization. The default constants describe a SmartFusion2-class
target and are configurable.

Experiments are deterministic: every instance gets its own seeded
stream derived from (seed, label, index), so results are bit-identical
for a given seed regardless of batch size or host.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .cipher import SucParams, apply_batch, draw_instance
from .entropy import SeededEntropy
from .sbox4 import SBoxPool
from .sbox8 import FeistelSpec, feistel8, profile8

SBOX_MODES = ("single-replicated", "eight-distinct")


def _subseed(seed, *parts) -> bytes:
    h = hashlib.sha256(str(seed).encode())
    for p in parts:
        h.update(b"/" + str(p).encode())
    return h.digest()


@dataclass(frozen=True)
class AvalancheConfig:
    suc_count: int = 1000
    trials_per_suc: int = 100
    rounds: int = 15
    feistel_r: int = 3
    sbox_mode: str = "single-replicated"
    seed: int = 0

    def __post_init__(self):
        if self.suc_count < 1 or self.trials_per_suc < 1:
            raise ValueError("counts must be positive")
        if self.sbox_mode not in SBOX_MODES:
            raise ValueError(f"sbox_mode must be one of {SBOX_MODES}")


@dataclass
class AvalancheResult:
    config: AvalancheConfig
    counts: np.ndarray  # length 65, index = Hamming distance

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def mean(self) -> float:
        d = np.arange(65)
        return float((d * self.counts).sum() / self.total)

    @property
    def stddev(self) -> float:
        d = np.arange(65)
        m = self.mean
        return float(math.sqrt(((d - m) ** 2 * self.counts).sum() / self.total))

    @property
    def min_distance(self) -> int:
        return int(np.flatnonzero(self.counts)[0])

    @property
    def max_distance(self) -> int:
        return int(np.flatnonzero(self.counts)[-1])


# column 0 XORs nothing; column p + 1 flips bit p of the little-endian
# word, which is bit p % 8 of byte p // 8
_FLIPS = np.concatenate(([0], 1 << np.arange(64, dtype=np.uint64))).astype("<u8")


def _avalanche_counts_for_instance(suc, inputs: np.ndarray) -> np.ndarray:
    """Histogram of output distances for every (input, flipped bit) pair."""
    t = inputs.shape[0]
    batch = np.ascontiguousarray(inputs).view("<u8") ^ _FLIPS  # (t, 65)
    out = apply_batch(suc, batch.view(np.uint8).reshape(t * 65, 8))
    out = out.view("<u8").reshape(t, 65)
    distances = np.bitwise_count(out[:, 1:] ^ out[:, :1])
    return np.bincount(distances.ravel(), minlength=65)


def avalanche_histogram(cfg: AvalancheConfig, pool: SBoxPool) -> AvalancheResult:
    """Run the full flip experiment for suc_count fresh instances."""
    params = SucParams(
        rounds=cfg.rounds, feistel_r=cfg.feistel_r, pool_digest=pool.digest
    )
    counts = np.zeros(65, dtype=np.int64)
    replicate = cfg.sbox_mode == "single-replicated"
    for i in range(cfg.suc_count):
        stream = SeededEntropy(_subseed(cfg.seed, "suc", cfg.rounds, i))
        suc = draw_instance(pool, params, stream, replicate_single=replicate)
        raw = stream.read(8 * cfg.trials_per_suc)
        inputs = np.frombuffer(raw, dtype=np.uint8).reshape(cfg.trials_per_suc, 8)
        counts += _avalanche_counts_for_instance(suc, inputs)
    return AvalancheResult(config=cfg, counts=counts)


GOF_SIGNIFICANCE = 0.01
GOF_MIN_EXPECTED = 5.0  # tail bins pool inward until each expects this many


@dataclass(frozen=True)
class GofResult:
    statistic: float
    dof: int
    p_value: float

    @property
    def rejected(self) -> bool:
        # a nan p-value is rejected, not passed
        return not self.p_value >= GOF_SIGNIFICANCE


# Binomial(64, 1/2) pmf, exact up to the final rounding to float
_BINOM64_PMF = np.array([math.comb(64, k) / 2**64 for k in range(65)])


def chi2_sf(x: float, dof: int) -> float:
    """Survival function P(X >= x) of the chi-square law with integer dof.

    Closed forms with h = x / 2: for even dof = 2m it is the Poisson sum
    e^-h * sum_{j<m} h^j / j!; for odd dof = 2m + 1 it is
    erfc(sqrt(h)) + e^-h * sum_{1<=j<=m} h^(j-1/2) / Gamma(j + 1/2).
    Terms are evaluated in log space, so a huge x gives 0.0 rather than
    overflowing.
    """
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if x <= 0:
        return 1.0
    if math.isinf(x):
        return 0.0
    h = x / 2
    log_h = math.log(h)
    if dof % 2 == 0:
        head = 0.0
        exponents = [j * log_h - h - math.lgamma(j + 1) for j in range(dof // 2)]
    else:
        head = math.erfc(math.sqrt(h))
        exponents = [
            (j - 0.5) * log_h - h - math.lgamma(j + 0.5)
            for j in range(1, dof // 2 + 1)
        ]
    # capped against rounding past 1; a nan x stays nan
    return min(head + math.fsum(math.exp(e) for e in exponents), 1.0)


def chi_square_binomial(counts: np.ndarray) -> GofResult:
    """Goodness of fit against Binomial(64, 1/2), pooling sparse tail bins.

    Raises ValueError when fewer than two bins remain after pooling (an
    empty or tiny histogram), since no fit can then be tested.
    """
    obs = np.asarray(counts, dtype=np.float64).copy()
    total = obs.sum()
    exp = total * _BINOM64_PMF

    # pool from each tail inward
    lo, hi = 0, 64
    while lo < hi and exp[lo] < GOF_MIN_EXPECTED:
        exp[lo + 1] += exp[lo]
        obs[lo + 1] += obs[lo]
        lo += 1
    while hi > lo and exp[hi] < GOF_MIN_EXPECTED:
        exp[hi - 1] += exp[hi]
        obs[hi - 1] += obs[hi]
        hi -= 1
    if hi == lo:
        raise ValueError(
            f"{total:g} samples pool into one bin; a chi-square fit needs "
            f"at least two bins expecting >= {GOF_MIN_EXPECTED:g}"
        )
    obs = obs[lo : hi + 1]
    exp = exp[lo : hi + 1]
    stat = float(((obs - exp) ** 2 / exp).sum())
    dof = int(len(obs)) - 1
    return GofResult(statistic=stat, dof=dof, p_value=chi2_sf(stat, dof))


def avalanche_vs_rounds(
    cfg: AvalancheConfig, pool: SBoxPool, rounds_from: int = 1, rounds_to: int = 32
) -> list:
    """Sweep the round count; one histogram result per round."""
    if rounds_to < rounds_from:
        raise ValueError("empty rounds range")
    return [
        avalanche_histogram(replace(cfg, rounds=r), pool)
        for r in range(rounds_from, rounds_to + 1)
    ]


# ---------------------------------------------------------------------------
# bound reporting: strength distribution of the built 8-bit class

@dataclass
class BoundReport:
    """Per-instance maxima against the 4-bit class bound p^2 = 2^-4."""

    diff_probs: list
    lin_probs: list
    bound: float = 2.0 ** -4

    @property
    def count(self) -> int:
        return len(self.diff_probs)

    @property
    def frac_diff_exceeding(self) -> float:
        return sum(1 for v in self.diff_probs if v > self.bound) / self.count

    @property
    def frac_lin_exceeding(self) -> float:
        return sum(1 for v in self.lin_probs if v > self.bound) / self.count


def bound_report(
    pool: SBoxPool, count: int = 1000, feistel_r: int = 3, seed: int = 0
) -> BoundReport:
    """Profile `count` freshly drawn Feistel-built byte substitutions."""
    diff_probs, lin_probs = [], []
    for i in range(count):
        stream = SeededEntropy(_subseed(seed, "bound", i))
        free = tuple(
            pool.entry(stream.draw_index(pool.count)) for _ in range((feistel_r + 1) // 2)
        )
        prof = profile8(feistel8(FeistelSpec(r=feistel_r, free=free)))
        diff_probs.append(prof.max_diff_prob)
        lin_probs.append(prof.max_lin_prob)
    return BoundReport(diff_probs=diff_probs, lin_probs=lin_probs)


# ---------------------------------------------------------------------------
# cost models

@dataclass(frozen=True)
class CostConstants:
    """Latency constants (microseconds unless suffixed _ms).

    tau1/tau2 calibrate the random number generator, tau3/tau4 the
    byte-substitution builder; the aggregate coefficients k1, k2 and k3
    are derived from them, so the component and k-form models agree.
    tau_e is the per-table encryption share backed out of the ~647 ms
    personalization total.
    """

    tau1: float = 4.78125
    tau2: float = 388.0
    tau3: float = 1.63
    tau4: float = 0.07
    tau_puf: float = 30_000.0
    tau_e: float = 2_580.0
    tau_envm: float = 596_000.0
    cipher_cycles: int = 144
    reinit_envm_read_ms: float = 1.33
    reinit_decrypt_ms: float = 18.0
    reinit_lsram_ms: float = 1.77

    @property
    def k1(self) -> float:
        return 4 * self.tau1

    @property
    def k2(self) -> float:
        return 8 * self.tau3

    @property
    def k3_us(self) -> float:
        return self.tau2 + self.tau_puf + 8 * (self.tau4 + self.tau_e) + self.tau_envm


DEFAULT_COSTS = CostConstants()


def kappa_trng(r: int, set_size: int, unit: str = "bits") -> int:
    """Randomness budget for personalization: 4 * ceil(log2(|S|)) * (r+1).

    The closed form counts index-draw bits; the byte view divides by 8.
    The aggregate personalization model charges the TRNG per bit while
    the standalone TRNG latency is quoted per byte, so both units are
    exposed rather than silently reconciled.
    """
    if r < 1 or r % 2 == 0:
        raise ValueError(f"r must be odd and >= 1, got {r}")
    if set_size < 1:
        raise ValueError("set_size must be >= 1")
    bits = 4 * math.ceil(math.log2(set_size)) * (r + 1)
    if unit == "bits":
        return bits
    if unit == "bytes":
        return bits // 8
    raise ValueError(f"unknown unit {unit!r}")


def tau_trng_ms(kappa: int, consts: CostConstants = DEFAULT_COSTS) -> float:
    """TRNG latency for a budget of kappa units."""
    return (consts.tau1 * kappa + consts.tau2) / 1000.0


@dataclass(frozen=True)
class OtppCost:
    r: int
    set_size: int
    trng_ms: float
    sbox_gen_ms: float
    puf_ms: float
    encrypt_ms: float
    envm_ms: float

    @property
    def total_ms(self) -> float:
        return (
            self.trng_ms
            + self.sbox_gen_ms
            + self.puf_ms
            + self.encrypt_ms
            + self.envm_ms
        )


def tau_otpp(
    r: int, set_size: int, consts: CostConstants = DEFAULT_COSTS
) -> OtppCost:
    """Personalization latency model with its component breakdown.

    The aggregate form k1*ceil(log2(|S|))*(r+1) + k2*r + k3 equals the
    component sum, since k1 = 4*tau1 and k2 = 8*tau3.
    """
    kappa = kappa_trng(r, set_size, "bits")
    return OtppCost(
        r=r,
        set_size=set_size,
        trng_ms=tau_trng_ms(kappa, consts),
        sbox_gen_ms=8 * (consts.tau3 * r + consts.tau4) / 1000.0,
        puf_ms=consts.tau_puf / 1000.0,
        encrypt_ms=8 * consts.tau_e / 1000.0,
        envm_ms=consts.tau_envm / 1000.0,
    )


def tau_otpp_aggregate_ms(
    r: int, set_size: int, consts: CostConstants = DEFAULT_COSTS
) -> float:
    """The k-form of the same model."""
    log_s = math.ceil(math.log2(set_size))
    return (consts.k1 * log_s * (r + 1) + consts.k2 * r + consts.k3_us) / 1000.0


def otpp_grid(r_values, set_sizes, consts: CostConstants = DEFAULT_COSTS) -> list:
    """(r, set_size, total_ms) over the cartesian grid, row-major in r."""
    return [
        (r, s, tau_otpp(r, s, consts).total_ms) for r in r_values for s in set_sizes
    ]


@dataclass(frozen=True)
class ReinitCost:
    envm_read_ms: float
    puf_ms: float
    decrypt_ms: float
    lsram_ms: float

    @property
    def total_ms(self) -> float:
        return self.envm_read_ms + self.puf_ms + self.decrypt_ms + self.lsram_ms


def reinit_time(consts: CostConstants = DEFAULT_COSTS) -> ReinitCost:
    """Boot-time reload model; independent of r."""
    return ReinitCost(
        envm_read_ms=consts.reinit_envm_read_ms,
        puf_ms=consts.tau_puf / 1000.0,
        decrypt_ms=consts.reinit_decrypt_ms,
        lsram_ms=consts.reinit_lsram_ms,
    )


def hardware_latency_anchor(
    freq_mhz: float, consts: CostConstants = DEFAULT_COSTS
) -> float:
    """One cipher evaluation in microseconds at the given fabric clock."""
    if freq_mhz <= 0:
        raise ValueError("frequency must be positive")
    return consts.cipher_cycles / freq_mhz
