"""pool-gen: the randomized DFS sampler and the entropy bit plumbing.

op1 builds one 4-entry pool, `sbox4.build_pool(4, SeededEntropy(s_k))`,
from its own seeded stream. op2 re-verifies the entries of 8 op1 pools
with `sbox4.is_serpent_type`, as `sucsim profile` would; 32 checks per
operation keep its count in the p90 band of the tail rule, where a
single GC pause does not decide the tail.

The DFS work behind one entry varies by a factor of about a hundred from
stream to stream (the coefficient of variation of per-entry time is
about 3), so entries per second over a few hundred entries moves by
15-20% between seeds. Time per byte of entropy the DFS consumes varies
far less: every visited node draws one shuffle. op1 therefore counts its
work in reference entries of REF_ENTRY_BYTES consumed bytes, about the
mean per entry, and reports the raw entry rate alongside. A sampler that
keeps the consumed byte stream (as the pinned pool digest demands)
moves both by the same factor on the same seed.
"""

from __future__ import annotations

import hashlib

from sucsim import sbox4
from sucsim.entropy import SeededEntropy

import harness

POOL_ENTRIES = 4
POOLS_PER_CHECK = 8
REF_ENTRY_BYTES = 8192
PHASE_SHARE = {"op1": 0.88, "op2": 0.12}
LABELS = {"op1": "pool_entries", "op2": "entry_checks"}
FORBIDDEN = ("cipher.", "device.", "authority.", "netlink.")
# set-up is imports only, about 0.17 s, so many runs are cheap
SETUP_RUNS = 9

# The pool the other workloads build in set-up comes from this fixed
# stream (the one whose 256-entry pool digest the acceptance tests pin):
# DFS work varies so much by stream that a per-seed pool would make
# set-up time mostly a function of the seed.
SETUP_POOL_SEED = 0


def build(seed, count: int):
    """`build_pool(count, SeededEntropy(seed))` with its entropy counters."""
    stream = SeededEntropy(seed)
    return sbox4.build_pool(count, stream), stream


# ---------------------------------------------------------------------------
# independent oracle: definitions evaluated directly, no shared code


def _parity(v: int) -> int:
    return bin(v).count("1") & 1


def oracle_ok(table) -> bool:
    """Bijective, max |Walsh| 8, max DDT entry 4, one-bit branch >= 2."""
    t = list(table)
    if sorted(t) != list(range(16)):
        return False
    ddt_max = max(
        sum(1 for x in range(16) if t[x] ^ t[x ^ a] == b)
        for a in range(1, 16)
        for b in range(16)
    )
    walsh_max = max(
        abs(sum(1 - 2 * _parity((a & x) ^ (b & t[x])) for x in range(16)))
        for a in range(16)
        for b in range(1, 16)
    )
    branch = min(bin(t[x] ^ t[x ^ a]).count("1") for a in (1, 2, 4, 8) for x in range(16))
    return ddt_max == 4 and walsh_max == 8 and branch >= 2


# ---------------------------------------------------------------------------


class Workload:
    name = "pool-gen"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.passes = 0

    def inputs(self, pass_no: int, k: int) -> bytes:
        return harness.subseed(self.seed, "pool", pass_no, k)

    def measure(self, seconds: float, probe, tracer=None) -> dict:
        pass_no = self.passes
        self.passes += 1
        pools = []

        def op1(k):
            pool, stream = build(self.inputs(pass_no, k), POOL_ENTRIES)
            pools.append(pool)
            return stream.bytes_consumed / REF_ENTRY_BYTES, (pool, stream)

        def op2(k):
            tables = [
                t
                for j in range(POOLS_PER_CHECK)
                for t in pools[(k * POOLS_PER_CHECK + j) % len(pools)].entries
            ]
            return len(tables), [sbox4.is_serpent_type(t) for t in tables]

        return harness.run_phases(
            [
                harness.PhaseSpec("op1", op1, PHASE_SHARE["op1"], POOL_ENTRIES),
                harness.PhaseSpec("op2", op2, PHASE_SHARE["op2"], POOL_ENTRIES * POOLS_PER_CHECK),
            ],
            seconds,
            probe,
            tracer,
        )

    def check(self, phases: dict) -> None:
        """Mark every operation whose outputs fail the oracle as failed."""
        for r in phases["op1"].records:
            if not r.ok:
                continue
            pool, _ = r.output
            if len(pool.entries) != POOL_ENTRIES or len(set(pool.entries)) != POOL_ENTRIES:
                r.error = "pool entries missing or not distinct"
            elif not all(oracle_ok(t) for t in pool.entries):
                r.error = "pool entry fails the DDT/Walsh/branch oracle"
        for r in phases["op2"].records:
            if r.ok and not all(r.output):
                r.error = "is_serpent_type rejected a pool entry"

    def digests(self, phases: dict) -> dict:
        out = hashlib.sha256()
        inp = hashlib.sha256()
        for r in harness.prefix(phases["op1"]):
            inp.update(self.inputs(0, r.index))
            if r.ok:
                out.update(r.output[0].digest)
        return {"inputs_sha256": inp.hexdigest(), "outputs_sha256": out.hexdigest()}

    def details(self, phases: dict) -> dict:
        p1 = phases["op1"]
        ok = [r for r in p1.records if r.ok]
        entries = sum(len(r.output[0].entries) for r in ok)
        return {
            "raw_pool_entries_per_s": entries / p1.elapsed,
            "entries": entries,
            "entropy_bytes": sum(r.output[1].bytes_consumed for r in ok),
        }

    def layer_values(self, phases: dict, agg: dict, spans) -> dict:
        from tracing import child_calls

        ok = [r for r in phases["op1"].records if r.ok]
        streams = [r.output[1] for r in ok]
        entries = sum(len(r.output[0].entries) for r in ok)
        samples = agg.get("sbox4.sample_serpent_type", {}).get("calls", 0)
        draws = sum(s.index_draws for s in streams)
        return {
            "sbox4.candidates_per_entry": child_calls(
                spans, "sbox4.sample_serpent_type", "sbox4.is_serpent_type"
            ) / entries,
            "sbox4.duplicates": samples - entries,
            "entropy.bytes_per_entry": sum(s.bytes_consumed for s in streams) / entries,
            "entropy.rejections_per_draw": sum(s.rejections for s in streams) / draws,
        }

    def close(self) -> dict:
        return {}


def setup(seed: int) -> Workload:
    return Workload(seed)
