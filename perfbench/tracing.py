"""Span tracing around the layer boundaries of sucsim.

The traced run replaces each layer's public functions at the names their
callers look up (`analysis.apply_batch`, `netlink.apply`, the
`UirStore` methods, ...) with wrappers that record a span: name, start,
end, parent span and session. Spans stay in memory and are written out
when the run ends. Nothing under src/ is changed; `restore` puts every
original back.
"""

from __future__ import annotations

import csv
import gzip
import itertools
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# span name -> (module, attribute) pairs that resolve to that function.
# A function imported into several modules is patched in each, because
# the caller looks it up in its own module.
SPAN_TARGETS = {
    "sbox4.build_pool": [("sbox4", "build_pool")],
    "sbox4.sample_serpent_type": [("sbox4", "sample_serpent_type")],
    "sbox4.is_serpent_type": [("sbox4", "is_serpent_type")],
    "entropy.shuffled": [("entropy", "EntropySource.shuffled")],
    "sbox8.feistel8": [("sbox8", "feistel8"), ("cipher", "feistel8"), ("analysis", "feistel8")],
    "sbox8.profile8": [("sbox8", "profile8"), ("analysis", "profile8")],
    "cipher.draw_instance": [("cipher", "draw_instance"), ("analysis", "draw_instance"), ("device", "draw_instance")],
    "cipher.apply_batch": [("cipher", "apply_batch"), ("analysis", "apply_batch")],
    "cipher.apply": [("cipher", "apply"), ("authority", "apply"), ("netlink", "apply")],
    "analysis.avalanche_histogram": [("analysis", "avalanche_histogram")],
    "analysis.bound_report": [("analysis", "bound_report")],
    "device.manufacture": [("device", "manufacture")],
    "device.otpp": [("device", "otpp")],
    "device.save_envm": [("device", "save_envm")],
    "device.boot": [("device", "boot")],
    "authority.enroll": [("authority", "enroll")],
    "authority.authenticate": [("authority", "authenticate")],
    "authority.create": [("authority", "UirStore.create")],
    "authority.load": [("authority", "UirStore.load")],
    "authority.save": [("authority", "UirStore.save")],
    "netlink.run_agent": [("netlink", "run_agent")],
    "netlink.respond": [("netlink", "_SessionChannel.respond")],
}

LOCK_WAIT = "authority.lock_wait"


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class _TimedLock:
    """Per-serial lock whose acquisition is recorded as a lock-wait span."""

    def __init__(self, lock, tracer: "Tracer") -> None:
        self._lock = lock
        self._tracer = tracer

    def __enter__(self):
        self._tracer.call(LOCK_WAIT, self._lock.acquire, (), {})
        return self

    def __exit__(self, *exc) -> None:
        self._lock.release()


class Tracer:
    """In-memory span recorder and counter set.

    A span is (id, name, start, end, parent id or 0, session). Spans of
    one benchmark operation share its session label; threads that no
    operation started (the service's session threads) use their thread
    name, which the service makes unique per connection.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: Counter = Counter()
        self._counter_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list = []
        self.origin = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def session(self, label: str):
        previous = getattr(self._local, "session", None)
        self._local.session = label
        try:
            yield
        finally:
            self._local.session = previous

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else 0
        session = getattr(self._local, "session", None) or threading.current_thread().name
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, session))

    def add(self, name: str, value: float = 1) -> None:
        with self._counter_lock:
            self.counters[name] += value

    def snapshot(self) -> Counter:
        with self._counter_lock:
            return Counter(self.counters)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span_wrapper(self, name: str, original, after=None):
        def wrapper(*args, **kwargs):
            result = self.call(name, original, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every boundary in SPAN_TARGETS plus the counted ones."""
        from sucsim import analysis, authority, cipher, device, entropy, netlink, sbox4, sbox8

        modules = {
            "analysis": analysis, "authority": authority, "cipher": cipher,
            "device": device, "entropy": entropy, "netlink": netlink,
            "sbox4": sbox4, "sbox8": sbox8,
        }
        after = {
            "cipher.apply_batch": lambda args, result: self.add(
                "cipher.apply_batch.blocks", len(args[1])
            ),
            "authority.save": lambda args, result: self.add(
                "authority.save.bytes",
                os.path.getsize(os.path.join(args[0].directory, f"{args[1].serial}.uir")),
            ),
        }
        for name, targets in SPAN_TARGETS.items():
            for module_name, path in targets:
                owner, attr = _resolve(modules[module_name], path)
                original = getattr(owner, attr)
                self._patch(owner, attr, self._span_wrapper(name, original, after.get(name)))

        original_lock_for = authority.UirStore.lock_for

        def lock_for(store, serial):
            return _TimedLock(original_lock_for(store, serial), self)

        self._patch(authority.UirStore, "lock_for", lock_for)

        original_encode = netlink.encode

        def encode(frame):
            wire = original_encode(frame)
            self.add("netlink.frames")
            self.add("netlink.wire_bytes", len(wire))
            return wire

        self._patch(netlink, "encode", encode)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as gzipped CSV, times in microseconds from tracer start."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, newline="") as f:
            w = csv.writer(f)
            w.writerow(["id", "name", "start_us", "end_us", "parent", "session"])
            for sid, name, start, end, parent, session in self.spans:
                w.writerow([
                    sid, name,
                    round((start - self.origin) * 1e6, 3),
                    round((end - self.origin) * 1e6, 3),
                    parent, session,
                ])


def self_times(spans) -> dict:
    """Span id -> duration minus the time its child spans cover.

    Children run on their parent's thread, so they nest inside it and do
    not overlap each other.
    """
    covered = defaultdict(float)
    for _sid, _name, start, end, parent, _session in spans:
        if parent:
            covered[parent] += end - start
    return {
        sid: max(0.0, (end - start) - covered[sid])
        for sid, _name, start, end, _parent, _session in spans
    }


def aggregate(spans) -> dict:
    """Span name -> {"calls", "total_s", "self_s"}."""
    own = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, name, start, end, _parent, _session in spans:
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own[sid]
    return dict(out)


def child_calls(spans, parent_name: str, child_name: str) -> int:
    """Number of child_name spans whose direct parent is a parent_name span."""
    parents = {sid for sid, name, *_ in spans if name == parent_name}
    return sum(1 for _sid, name, _s, _e, parent, _ in spans if name == child_name and parent in parents)


def foreign_calls(spans, counters, forbidden) -> Counter:
    """Calls into layers or functions a workload must leave alone.

    forbidden holds layer prefixes such as "cipher." or full span names.
    Frames count as netlink calls.
    """
    hits = Counter(
        name for _sid, name, *_ in spans
        if any(name == f or (f.endswith(".") and name.startswith(f)) for f in forbidden)
    )
    if "netlink." in forbidden and counters.get("netlink.frames"):
        hits["netlink.encode"] += counters["netlink.frames"]
    return hits
