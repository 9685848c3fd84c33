"""ta-service: the authority service, device lifecycle and TCP framing.

An in-process `netlink.TaService` listens on loopback with a fresh
`UirStore`; device and record files live in a temporary directory inside
the checkout. op1 is provisioning by a closed loop of one station:
`device.manufacture` -> `otpp` -> `save_envm` -> `boot` -> `run_agent`,
which enrolls t=1024 pairs (2048 challenge/response frames, 1024 scalar
`apply` calls). op2 is authentication by a closed loop of one gateway:
`device.boot` then one `run_agent` session against a serial the gateway
draws from its seeded stream; the service reads, updates and rewrites
the whole 1024-pair record.

One client per phase, not two: with two client threads on a 2-vCPU host
they and the service's session threads contend for the GIL, which
tripled the median latency of both phases (provisioning 330 ms against
110 ms, authentication 12 ms against 6 ms) and made their tails move by
a quarter between runs.

`TaService.stop()` blocks for its full 5 s join timeout, so it runs
after every timed region and outside set-up and is reported only as the
layer metric `netlink.stop_s`.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import threading
import time
from collections import Counter

import numpy as np

from sucsim import authority, cipher, device, netlink
from sucsim.entropy import SeededEntropy

import harness
import pool_gen

POOL_ENTRIES = 32
ENROLL_PAIRS = 1024
PHASE_SHARE = {"op1": 0.88, "op2": 0.12}
LABELS = {"op1": "provision", "op2": "auth"}
FORBIDDEN = ("sbox4.sample_serpent_type",)
# set-up builds the pool and starts the service, about 1.5 s
SETUP_RUNS = 3
PROBE_BLOCKS = 16
SCALAR_CHECKS = 8


class LockedSeededEntropy(SeededEntropy):
    """SeededEntropy that concurrent service sessions can share."""

    def __init__(self, seed) -> None:
        super().__init__(seed)
        self._lock = threading.Lock()

    def _generate(self, n: int) -> bytes:
        with self._lock:
            return super()._generate(n)


class Workload:
    name = "ta-service"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pool, _ = pool_gen.build(pool_gen.SETUP_POOL_SEED, POOL_ENTRIES)
        harness.STATE.mkdir(exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="ta-service-", dir=harness.STATE)
        self.dev_dir = os.path.join(self.tmp, "dev")
        self.store = authority.UirStore(os.path.join(self.tmp, "uir"))
        self.service = netlink.TaService(
            self.store,
            enroll_pairs=ENROLL_PAIRS,
            entropy=LockedSeededEntropy(harness.subseed(seed, "authority")),
        )
        self.service.start()
        self.address = self.service.address[:2]
        self.passes = 0
        self.threads_alive_end = 0

    def serial(self, pass_no: int, k: int) -> str:
        return f"p{pass_no}d{k:05d}"

    def inputs(self, pass_no: int, k: int) -> tuple:
        return (
            harness.subseed(self.seed, "silicon", pass_no, k),
            harness.subseed(self.seed, "otpp", pass_no, k),
        )

    def measure(self, seconds: float, probe, tracer=None) -> dict:
        pass_no = self.passes
        self.passes += 1
        params = cipher.SucParams(rounds=15, feistel_r=3)
        enrolled = []
        gateway = SeededEntropy(harness.subseed(self.seed, "gateway", pass_no))

        def provision(k):
            serial = self.serial(pass_no, k)
            silicon, personal = self.inputs(pass_no, k)
            dev = device.manufacture(self.dev_dir, serial, SeededEntropy(silicon))
            device.otpp(dev, self.pool, params, SeededEntropy(personal))
            device.save_envm(dev, self.dev_dir)
            dev = device.boot(self.dev_dir, serial)
            outcome = netlink.run_agent(dev, self.address)
            if outcome.enrolled != ENROLL_PAIRS or not outcome.ok:
                raise RuntimeError(f"enrollment of {serial}: {outcome}")
            enrolled.append(serial)
            return 1, serial

        def auth(k):
            serial = enrolled[gateway.draw_index(len(enrolled))]
            dev = device.boot(self.dev_dir, serial)
            outcome = netlink.run_agent(dev, self.address)
            if outcome.result is not authority.AuthResult.ACCEPTED or not outcome.ok:
                raise RuntimeError(f"authentication of {serial}: {outcome}")
            return 1, serial

        phases = harness.run_phases(
            [
                harness.PhaseSpec("op1", provision, PHASE_SHARE["op1"], 1),
                harness.PhaseSpec("op2", auth, PHASE_SHARE["op2"], 1),
            ],
            seconds,
            probe,
            tracer,
        )
        self.threads_alive_end = threading.active_count()
        return phases

    def check(self, phases: dict) -> None:
        """Every record holds 1024 pairs whose responses the device cipher
        reproduces, and exactly one pair was used per accepted
        authentication."""
        auths = {}
        for r in phases["op2"].records:
            if r.ok:
                auths[r.output] = auths.get(r.output, 0) + 1
        for r in phases["op1"].records:
            if not r.ok:
                continue
            serial = r.output
            record = self.store.load(serial)
            suc = device.boot(self.dev_dir, serial).loaded
            xs = np.frombuffer(b"".join(p.x for p in record.pairs), np.uint8).reshape(-1, 8)
            ys = np.frombuffer(b"".join(p.y for p in record.pairs), np.uint8).reshape(-1, 8)
            used = sum(1 for p in record.pairs if p.used)
            if len(record.pairs) != ENROLL_PAIRS:
                r.error = f"{serial} enrolled {len(record.pairs)} pairs"
            elif not np.array_equal(cipher.apply_batch(suc, xs), ys):
                r.error = f"{serial} stored responses differ from apply_batch"
            elif any(
                cipher.apply(suc, p.x) != p.y for p in record.pairs[:SCALAR_CHECKS]
            ):
                r.error = f"{serial} stored responses differ from apply"
            elif used != auths.get(serial, 0):
                r.error = f"{serial} used {used} pairs for {auths.get(serial, 0)} authentications"

    def digests(self, phases: dict) -> dict:
        """Sealed tables, probe responses and enrolled pairs of the first
        devices. They enroll before the first authentication, so their
        challenges are the first the service draws."""
        out = hashlib.sha256()
        inp = hashlib.sha256()
        for r in harness.prefix(phases["op1"]):
            for part in self.inputs(0, r.index):
                inp.update(part)
            if not r.ok:
                continue
            suc = device.boot(self.dev_dir, r.output).loaded
            out.update(suc.tables_blob())
            probes = SeededEntropy(harness.subseed(self.seed, "probe", r.index))
            for _ in range(PROBE_BLOCKS):
                out.update(cipher.apply(suc, probes.read(8)))
            for pair in self.store.load(r.output).pairs:
                out.update(pair.x + pair.y)
        return {"inputs_sha256": inp.hexdigest(), "outputs_sha256": out.hexdigest()}

    def details(self, phases: dict) -> dict:
        return {"enroll_pairs": ENROLL_PAIRS}

    def layer_values(self, phases: dict, agg: dict, spans) -> dict:
        provision, auth = phases["op1"], phases["op2"]
        provisions = sum(1 for r in provision.records if r.ok)
        auths = sum(1 for r in auth.records if r.ok)
        saved = provision.counters["authority.save.bytes"] + auth.counters["authority.save.bytes"]
        # agent-side applies run in the benchmark's thread, under the operation's
        # session label; the service never calls apply itself
        applies = Counter(
            session.split("-", 1)[0]
            for _sid, name, _s, _e, _parent, session in spans
            if name == "cipher.apply"
        )
        return {
            "cipher.apply_calls_per_provision": applies["op1"] / provisions,
            "cipher.apply_calls_per_auth": applies["op2"] / auths,
            "netlink.frames_per_provision": provision.counters["netlink.frames"] / provisions,
            "netlink.frames_per_auth": auth.counters["netlink.frames"] / auths,
            "netlink.wire_bytes_per_auth": auth.counters["netlink.wire_bytes"] / auths,
            "authority.record_bytes": saved / agg["authority.save"]["calls"],
            "netlink.threads_alive_end": self.threads_alive_end,
        }

    def close(self) -> dict:
        started = time.perf_counter()
        self.service.stop()
        stop_s = time.perf_counter() - started
        shutil.rmtree(self.tmp, ignore_errors=True)
        return {"netlink.stop_s": stop_s}

    def abandon(self) -> None:
        """Remove the files without the slow stop; for set-up timing runs
        whose process exits next (the service threads are daemons)."""
        shutil.rmtree(self.tmp, ignore_errors=True)


def setup(seed: int) -> Workload:
    return Workload(seed)
