"""Trusted-Authority records and the single-use challenge-response flow.

Enrollment challenges a personalized device with t random blocks and
stores the (challenge, response) pairs in a per-serial record. Each
authentication consumes exactly one pair, whether or not it succeeds,
so a challenge is never transmitted twice. Because the device cipher is
an involution, the record also supports the reversed handshake: send
the stored response and expect the stored challenge back.

Records live in a directory, one text file per serial, rewritten
atomically; per-serial locks serialize mutation.
"""

from __future__ import annotations

import datetime as _dt
import enum
import os
import threading
from dataclasses import dataclass, field
from typing import Protocol

from . import records
from .cipher import SucParams, apply
from .entropy import EntropySource
from .errors import ChannelError, EnrollmentError

_HEADER_KEYS = ("serial", "created_at", "rounds", "feistel_r", "pool_digest")


class AuthResult(enum.Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    EXHAUSTED = "exhausted"


class DeviceChannel(Protocol):
    """Anything that can answer a challenge block for a given device."""

    serial: str

    def respond(self, block: bytes) -> bytes: ...


@dataclass
class CrPair:
    x: bytes
    y: bytes
    used: bool = False


@dataclass
class UirRecord:
    serial: str
    params: SucParams
    pairs: list = field(default_factory=list)
    created_at: str = ""

    @property
    def unused_count(self) -> int:
        return sum(1 for p in self.pairs if not p.used)

    @property
    def payload_bytes(self) -> int:
        # 8 challenge + 8 response bytes per enrolled pair
        return 16 * len(self.pairs)


def _utcnow() -> str:
    return _dt.datetime.now(_dt.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def enroll(
    channel: DeviceChannel,
    t: int,
    entropy: EntropySource,
    params: SucParams | None = None,
) -> UirRecord:
    """Collect t distinct-challenge response pairs from the device."""
    if t < 1:
        raise ValueError("t must be >= 1")
    record = UirRecord(
        serial=channel.serial, params=params or SucParams(), created_at=_utcnow()
    )
    seen = set()
    while len(record.pairs) < t:
        x = entropy.read(8)
        if x in seen:
            continue
        seen.add(x)
        y = channel.respond(x)
        record.pairs.append(CrPair(x=x, y=bytes(y)))
    return record


def authenticate(
    channel: DeviceChannel,
    record: UirRecord,
    entropy: EntropySource | None = None,
    inverse: bool = False,
) -> AuthResult:
    """One handshake: send a stored challenge, require the stored response.

    With inverse=True the handshake runs reversed: send the stored
    response and expect the challenge back, which only an involutive
    device can do. The selected pair is consumed even when the device
    answers wrongly or not at all. Pass an entropy source to randomize
    pair selection; without one the lowest unused pair goes first, which
    keeps runs deterministic and auditable.
    """
    unused = [p for p in record.pairs if not p.used]
    if not unused:
        return AuthResult.EXHAUSTED
    pair = unused[0 if entropy is None else entropy.draw_index(len(unused))]
    pair.used = True
    sent, expected = (pair.y, pair.x) if inverse else (pair.x, pair.y)
    try:
        answer = channel.respond(sent)
    except ChannelError:
        return AuthResult.REJECTED
    return AuthResult.ACCEPTED if bytes(answer) == expected else AuthResult.REJECTED


# ---------------------------------------------------------------------------
# persistence

def _pair(value: str) -> CrPair:
    x, y, used = value.split(" ")
    if used not in ("0", "1"):
        raise ValueError(f"pair use flag {used[:8]!r} is not 0 or 1")
    return CrPair(x=records.hex_field(x, 8), y=records.hex_field(y, 8), used=used == "1")


class UirStore:
    """Directory of `<serial>.uir` records with per-serial write locks."""

    def __init__(self, directory) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._locks: dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()

    def _path(self, serial: str) -> str:
        if not records.SERIAL_RE.match(serial):
            raise EnrollmentError(f"invalid serial {serial[:80]!r}")
        return os.path.join(self.directory, f"{serial}.uir")

    def lock_for(self, serial: str) -> threading.Lock:
        with self._locks_guard:
            return self._locks.setdefault(serial, threading.Lock())

    def has(self, serial: str) -> bool:
        return os.path.exists(self._path(serial))

    def serials(self) -> list:
        # a stray file whose stem is not a serial is no record: skip it
        names = os.listdir(self.directory)
        stems = (n[: -len(".uir")] for n in names if n.endswith(".uir"))
        return sorted(s for s in stems if records.SERIAL_RE.match(s))

    def save(self, record: UirRecord) -> None:
        header = {
            "serial": record.serial,
            "created_at": record.created_at,
            "rounds": record.params.rounds,
            "feistel_r": record.params.feistel_r,
            "pool_digest": record.params.pool_digest.hex(),
        }
        pairs = [f"{p.x.hex()} {p.y.hex()} {1 if p.used else 0}" for p in record.pairs]
        records.write(self._path(record.serial), header, "pair", pairs)

    def load(self, serial: str) -> UirRecord:
        path = self._path(serial)
        try:
            lines = records.read(path)
            head = records.fields(lines[:5], _HEADER_KEYS)
            if head["serial"] != serial:
                raise ValueError("record serial does not match file name")
            return UirRecord(
                serial=serial,
                params=SucParams(
                    rounds=records.int_field(head["rounds"]),
                    feistel_r=records.int_field(head["feistel_r"]),
                    pool_digest=records.hex_field(head["pool_digest"], 0, 32),
                ),
                pairs=[_pair(v) for v in records.rows(lines[5:], "pair")],
                created_at=head["created_at"],
            )
        except FileNotFoundError:
            raise EnrollmentError(f"no record for serial {serial!r}") from None
        except ValueError as exc:
            raise EnrollmentError(f"record for {serial!r} is malformed: {exc}") from exc

    def create(self, record: UirRecord) -> None:
        """Persist a new record; duplicate serials are refused."""
        with self.lock_for(record.serial):
            if self.has(record.serial):
                raise EnrollmentError(f"serial {record.serial!r} already enrolled")
            self.save(record)

    def stats(self) -> list:
        """(serial, total pairs, used, unused) per enrolled device."""
        out = []
        for serial in self.serials():
            record = self.load(serial)
            used = sum(1 for p in record.pairs if p.used)
            out.append((serial, len(record.pairs), used, len(record.pairs) - used))
        return out


class LocalDeviceChannel:
    """In-process channel over a booted device; used by tests and the CLI."""

    def __init__(self, dev) -> None:
        if dev.loaded is None:
            raise ChannelError(f"device {dev.serial} has no loaded instance")
        self.serial = dev.serial
        self._dev = dev

    def respond(self, block: bytes) -> bytes:
        return apply(self._dev.loaded, block)
