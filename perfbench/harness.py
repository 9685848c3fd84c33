"""Pieces shared by the three workloads: seeding, closed-loop phases,
latency summaries, digests and the environment record.

Every workload runs two phases, `op1` and `op2`, taking turns in
SLICES rounds. Within its turn a phase is a closed loop of one client:
it starts its next operation when the previous one returned, until
the phase's share of the round is used up. Operation k
of a phase draws its inputs from (seed, phase, k) alone, so the first
DIGEST_OPS operations of a phase are the same work on every run with the
same seed, whatever the machine's speed.

The host's speed drifts, so a host probe (see hostprobe.py) is read
before the first slice and after every slice, and each slice's times are
scaled to the nominal host speed by the mean of the probes around it.
Phases report scaled rates and latencies; the raw ones stay available.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# Operations every phase completes even when its time share runs out,
# so the output digest always covers the same prefix of work.
DIGEST_OPS = 4

# Tail latency is reported at the highest of these percentiles that still
# leaves TAIL_MIN_BEYOND samples above it (nearest-rank definition).
TAIL_LADDER = ("50", "90", "99", "99.9", "99.99")
TAIL_MIN_BEYOND = 10

# Rounds in which the phases of a run take turns.
SLICES = 20


def subseed(seed, *parts) -> bytes:
    """32 bytes that depend only on the run seed and the label parts."""
    h = hashlib.sha256(b"perfbench")
    for p in (seed, *parts):
        h.update(b"/" + str(p).encode())
    return h.digest()


def int_seed(seed, *parts) -> int:
    return int.from_bytes(subseed(seed, *parts)[:8], "big")


# ---------------------------------------------------------------------------
# latency summaries


def _rank(pct: Fraction, n: int) -> int:
    """1-based nearest rank of percentile pct among n sorted samples."""
    return max(1, math.ceil(pct * n / 100))


def tail_percentile(n: int) -> str | None:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples above it."""
    best = None
    for p in TAIL_LADDER:
        if n - _rank(Fraction(p), n) >= TAIL_MIN_BEYOND:
            best = p
    return best


def summarize(latencies: list) -> dict:
    """Median and tail of a list of latencies in seconds, reported in ms.

    With fewer than 2*TAIL_MIN_BEYOND samples no percentile qualifies and
    the tail falls back to the largest sample.
    """
    s = sorted(latencies)
    n = len(s)
    if n == 0:
        return {"n": 0, "p50_ms": float("nan"), "tail_ms": float("nan"),
                "tail_pct": None, "beyond": 0}
    pct = tail_percentile(n)
    rank = _rank(Fraction(pct), n) if pct else n
    return {
        "n": n,
        "p50_ms": s[_rank(Fraction(50), n) - 1] * 1e3,
        "tail_ms": s[rank - 1] * 1e3,
        "tail_pct": pct or "max",
        "beyond": n - rank,
    }


# ---------------------------------------------------------------------------
# closed-loop phases


@dataclass
class OpRecord:
    index: int
    start: float
    end: float
    items: float = 0.0
    output: object = None
    error: str | None = None
    factor: float = 1.0  # scale to nominal host speed, set per slice

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class Phase:
    """Outcome of one phase, summed over its slices.

    items_per_op is the nominal work of one operation. An operation whose
    measured work differs (pool-gen counts DFS entropy) has its latency
    scaled to the nominal amount, so latencies compare across inputs.
    `elapsed` is raw wall time; `scaled_elapsed` is scaled to the nominal
    host speed slice by slice.
    """

    name: str
    items_per_op: float
    records: list = field(default_factory=list)
    elapsed: float = 0.0
    scaled_elapsed: float = 0.0
    counters: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r.ok)

    @property
    def per_s(self) -> float:
        return self._items() / self.scaled_elapsed

    @property
    def raw_per_s(self) -> float:
        return self._items() / self.elapsed

    def _items(self) -> float:
        return sum(r.items for r in self.records if r.ok)

    def latencies(self, scaled: bool = True) -> list:
        return [
            (r.end - r.start) * (r.factor if scaled else 1.0) * self.items_per_op / r.items
            for r in self.records
            if r.ok and r.items > 0
        ]

    def errors(self, limit: int = 3) -> list:
        return [r.error for r in self.records if not r.ok][:limit]


@dataclass
class PhaseSpec:
    """op(k) -> (items, output); share is its part of the run."""

    name: str
    op: object
    share: float
    items_per_op: float


def _run_slice(spec: PhaseSpec, phase: Phase, seconds: float, tracer) -> float:
    """Closed loop of one client until the deadline; returns the slice's
    wall time.

    The client stops once the deadline has passed and at least DIGEST_OPS
    operations of the phase were run. An exception fails that one
    operation and the loop goes on.
    """
    started = time.perf_counter()
    deadline = started + seconds
    before = tracer.snapshot() if tracer else None
    while True:
        k = len(phase.records)
        if k >= DIGEST_OPS and time.perf_counter() >= deadline:
            break
        record = OpRecord(index=k, start=time.perf_counter(), end=0.0)
        try:
            if tracer is None:
                record.items, record.output = spec.op(k)
            else:
                with tracer.session(f"{spec.name}-{k}"):
                    record.items, record.output = spec.op(k)
        except Exception:  # one failed operation must not end the phase
            record.error = traceback.format_exc(limit=4)
        record.end = time.perf_counter()
        phase.records.append(record)
    elapsed = time.perf_counter() - started
    if tracer:
        phase.counters.update(tracer.snapshot() - before)
    return elapsed


def run_phases(specs: list, seconds: float, probe, tracer=None) -> dict:
    """Run the phases interleaved in SLICES rounds, each phase taking its
    share of every round, so every phase samples the whole run window
    (machine speed on a shared host drifts within seconds). `probe` is a
    hostprobe.HostProbe, read between slices."""
    phases = {s.name: Phase(name=s.name, items_per_op=s.items_per_op) for s in specs}
    before = probe.sample()
    for _ in range(SLICES):
        for spec in specs:
            phase = phases[spec.name]
            first = len(phase.records)
            elapsed = _run_slice(spec, phase, seconds * spec.share / SLICES, tracer)
            after = probe.sample()
            factor = probe.factor(before, after)
            before = after
            for r in phase.records[first:]:
                r.factor = factor
            phase.elapsed += elapsed
            phase.scaled_elapsed += elapsed * factor
    return phases


def prefix(phase: Phase) -> list:
    """The first DIGEST_OPS records, the part every run of a seed shares."""
    return phase.records[:DIGEST_OPS]


# ---------------------------------------------------------------------------
# environment record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """Commit of a checkout with a .git directory, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "sucsim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path = ROOT) -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cryptography": version("cryptography"),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "src_sha256": source_digest(root),
    }
