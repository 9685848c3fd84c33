"""experiments: the avalanche histogram and the strength-bound report.

op1 runs `analysis.avalanche_histogram` at the paper's configuration
(single-replicated S-boxes, R=15, F=3, 100 trials per instance) for 4
fresh instances; each instance feeds 6500 blocks to one
`cipher.apply_batch` call. op2 runs `analysis.bound_report` over 4 fresh
Feistel-built byte tables, dominated by `sbox8.profile8`. Both draw from
a 32-entry pool built in set-up. No disk or network is involved.
"""

from __future__ import annotations

import hashlib

import numpy as np

from sucsim import analysis, cipher
from sucsim.entropy import SeededEntropy

import harness
import pool_gen

POOL_ENTRIES = 32
INSTANCES_PER_OP = 4
TABLES_PER_OP = 4
PHASE_SHARE = {"op1": 0.7, "op2": 0.3}
LABELS = {"op1": "avalanche_instances", "op2": "bound_tables"}
FORBIDDEN = ("device.", "authority.", "netlink.")
# set-up builds the 32-entry pool, about 2.5 s
SETUP_RUNS = 3
CHECK_INSTANCES = 8
CHECK_BLOCKS = 64


def avalanche_config(seed: int) -> analysis.AvalancheConfig:
    return analysis.AvalancheConfig(
        suc_count=INSTANCES_PER_OP,
        trials_per_suc=100,
        rounds=15,
        feistel_r=3,
        sbox_mode="single-replicated",
        seed=seed,
    )


class Workload:
    name = "experiments"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pool, _ = pool_gen.build(pool_gen.SETUP_POOL_SEED, POOL_ENTRIES)
        self.passes = 0

    def inputs(self, pass_no: int, phase: str, k: int) -> int:
        return harness.int_seed(self.seed, phase, pass_no, k)

    def measure(self, seconds: float, probe, tracer=None) -> dict:
        pass_no = self.passes
        self.passes += 1

        def op1(k):
            cfg = avalanche_config(self.inputs(pass_no, "avalanche", k))
            return INSTANCES_PER_OP, analysis.avalanche_histogram(cfg, self.pool)

        def op2(k):
            seed = self.inputs(pass_no, "bound", k)
            return TABLES_PER_OP, analysis.bound_report(
                self.pool, count=TABLES_PER_OP, feistel_r=3, seed=seed
            )

        return harness.run_phases(
            [
                harness.PhaseSpec("op1", op1, PHASE_SHARE["op1"], INSTANCES_PER_OP),
                harness.PhaseSpec("op2", op2, PHASE_SHARE["op2"], TABLES_PER_OP),
            ],
            seconds,
            probe,
            tracer,
        )

    def check(self, phases: dict) -> None:
        expected = INSTANCES_PER_OP * 100 * 64
        for r in phases["op1"].records:
            if r.ok and (r.output.total != expected or not 30.0 < r.output.mean < 34.0):
                r.error = f"histogram total {r.output.total} mean {r.output.mean:.3f}"
        for r in phases["op2"].records:
            if r.ok and not (
                r.output.count == TABLES_PER_OP
                and all(0 < p <= 1 for p in r.output.diff_probs + r.output.lin_probs)
            ):
                r.error = "bound report has missing or out-of-range probabilities"
        # scalar apply against apply_batch, and the involution, on a sample
        # of instances drawn the way the avalanche phase draws them
        params = cipher.SucParams(rounds=15, feistel_r=3, pool_digest=self.pool.digest)
        for i, r in enumerate(harness.prefix(phases["op1"])):
            stream = SeededEntropy(harness.subseed(self.seed, "check", i))
            for _ in range(CHECK_INSTANCES // harness.DIGEST_OPS):
                suc = cipher.draw_instance(self.pool, params, stream, replicate_single=True)
                blocks = np.frombuffer(stream.read(8 * CHECK_BLOCKS), dtype=np.uint8)
                blocks = blocks.reshape(CHECK_BLOCKS, 8)
                batch = cipher.apply_batch(suc, blocks)
                scalar = [cipher.apply(suc, bytes(b)) for b in blocks]
                if [bytes(b) for b in batch] != scalar:
                    r.error = "scalar apply differs from apply_batch"
                elif not np.array_equal(cipher.apply_batch(suc, batch), blocks) or any(
                    cipher.apply(suc, y) != bytes(x) for x, y in zip(blocks, scalar)
                ):
                    r.error = "applying the cipher twice is not the identity"

    def digests(self, phases: dict) -> dict:
        out = hashlib.sha256()
        inp = hashlib.sha256()
        for phase in ("op1", "op2"):
            for r in harness.prefix(phases[phase]):
                label = "avalanche" if phase == "op1" else "bound"
                inp.update(str(self.inputs(0, label, r.index)).encode())
                if not r.ok:
                    continue
                if phase == "op1":
                    out.update(r.output.counts.astype("<i8").tobytes())
                else:
                    out.update(np.array(r.output.diff_probs + r.output.lin_probs, "<f8").tobytes())
        return {"inputs_sha256": inp.hexdigest(), "outputs_sha256": out.hexdigest()}

    def details(self, phases: dict) -> dict:
        return {"pool_entries": POOL_ENTRIES}

    def layer_values(self, phases: dict, agg: dict, spans) -> dict:
        return {}

    def close(self) -> dict:
        return {}


def setup(seed: int) -> Workload:
    return Workload(seed)
