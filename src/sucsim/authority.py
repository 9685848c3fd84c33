"""Trusted-Authority records and the single-use challenge-response flow.

Enrollment challenges a personalized device with t random blocks and
stores the (challenge, response) pairs in a per-serial record. Each
authentication consumes exactly one pair, whether or not it succeeds,
so a challenge is never transmitted twice. Because the device cipher is
an involution, the record also supports the reversed handshake: send
the stored response and expect the stored challenge back.

Records live in a directory, one text file per serial. Its `pair:` rows
are written once, at enrollment, and never rewritten. Pairs are used
lowest first, so the used ones are a prefix, recorded as one appended
`used: <index>` line per use. `authenticate` is the one authentication
transaction: under the record's `flock` (POSIX), which excludes threads
and processes alike, it loads the record and appends and fsyncs the
lowest unused index; the challenge goes out only after the lock is
released, so the use is durable before the challenge leaves and no lock
spans a network round trip. `load` is strict, so a torn or duplicated
`used:` line makes the record fail closed with EnrollmentError.
"""

from __future__ import annotations

import datetime as _dt
import enum
import fcntl
import os
import re
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from . import records
from .cipher import SucParams, apply, apply_batch
from .entropy import EntropySource
from .errors import ChannelError, EnrollmentError

_HEADER_KEYS = ("serial", "created_at", "rounds", "feistel_r", "pool_digest")
_PAIR_ROWS = re.compile(r"(?:pair: [0-9a-f]{16} [0-9a-f]{16}\n)*")


class AuthResult(enum.Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    EXHAUSTED = "exhausted"


class DeviceChannel(Protocol):
    """Anything that can answer challenge blocks for a given device.

    `respond` takes one or more concatenated 8-byte blocks and returns
    the device's answers, concatenated in the same order. Enrollment
    sends all its challenges in one call; authentication sends one block.
    """

    serial: str

    def respond(self, blocks: bytes) -> bytes: ...


@dataclass(slots=True)  # records load 1000s of these per authentication
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
    """Collect t distinct-challenge response pairs from the device.

    The t challenges are drawn in one read, each repeat replaced by the
    next fresh block of the stream (so the challenges are those of t
    one-block draws that skip repeats), then sent in one `respond` call.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    record = UirRecord(
        serial=channel.serial, params=params or SucParams(), created_at=_utcnow()
    )
    drawn = entropy.read(8 * t)
    xs = dict.fromkeys(drawn[i : i + 8] for i in range(0, len(drawn), 8))
    while len(xs) < t:
        xs.setdefault(entropy.read(8))
    ys = bytes(channel.respond(b"".join(xs)))
    if len(ys) != 8 * t:
        raise ChannelError(f"{len(ys)} response bytes to {t} challenges")
    record.pairs = [CrPair(x=x, y=ys[8 * i : 8 * i + 8]) for i, x in enumerate(xs)]
    return record


def authenticate(
    channel: DeviceChannel, store: UirStore, inverse: bool = False
) -> AuthResult:
    """One handshake: send a stored challenge, require the stored response.

    The lowest unused pair is used up even when the device answers
    wrongly or not at all. With inverse=True the handshake runs reversed:
    send the stored response and expect the challenge back, which only
    an involutive device can do.
    """
    with store.lock_for(channel.serial):
        record = store.load(channel.serial)
        index = len(record.pairs) - record.unused_count  # uses are a prefix
        if index == len(record.pairs):
            return AuthResult.EXHAUSTED
        store.mark_used(channel.serial, index)
    pair = record.pairs[index]
    sent, expected = (pair.y, pair.x) if inverse else (pair.x, pair.y)
    try:
        answer = channel.respond(sent)
    except ChannelError:
        return AuthResult.REJECTED
    return AuthResult.ACCEPTED if bytes(answer) == expected else AuthResult.REJECTED


# ---------------------------------------------------------------------------
# persistence

class _RecordLock:
    """An exclusive `flock` on a fresh open of one record, so it excludes
    threads and processes alike; closing the file releases it."""

    def __init__(self, path: str, serial: str) -> None:
        self._path, self._serial = path, serial

    def acquire(self) -> None:
        try:
            self._file = open(self._path, "rb")  # never creates a record
        except FileNotFoundError:
            raise EnrollmentError(f"no record for serial {self._serial!r}") from None
        fcntl.flock(self._file, fcntl.LOCK_EX)

    def release(self) -> None:
        self._file.close()

    def __enter__(self) -> None:
        self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


class UirStore:
    """Directory of `<serial>.uir` records, each its own lock."""

    def __init__(self, directory) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _path(self, serial: str) -> str:
        if not records.SERIAL_RE.match(serial):
            raise EnrollmentError(f"invalid serial {serial[:80]!r}")
        return os.path.join(self.directory, f"{serial}.uir")

    def lock_for(self, serial: str) -> _RecordLock:
        """Serial's record lock: `acquire()` opens and flocks the file,
        EnrollmentError if there is none; `release()` closes it."""
        return _RecordLock(self._path(serial), serial)

    def has(self, serial: str) -> bool:
        return os.path.exists(self._path(serial))

    def serials(self) -> list:
        # a stray file whose stem is not a serial is no record: skip it
        names = os.listdir(self.directory)
        stems = (n[: -len(".uir")] for n in names if n.endswith(".uir"))
        return sorted(s for s in stems if records.SERIAL_RE.match(s))

    def save(self, record: UirRecord) -> None:
        """Create a new record's file whole, in one atomic link, or raise
        FileExistsError. Uses are appended by `mark_used`, never saved."""
        if any(p.used for p in record.pairs):
            raise ValueError("a new record cannot have a used pair")
        header = {
            "serial": record.serial,
            "created_at": record.created_at,
            "rounds": record.params.rounds,
            "feistel_r": record.params.feistel_r,
            "pool_digest": record.params.pool_digest.hex(),
        }
        pairs = [f"{p.x.hex()} {p.y.hex()}" for p in record.pairs]
        records.write(self._path(record.serial), header, (("pair", pairs),), replace=False)

    def mark_used(self, serial: str, index: int) -> None:
        """Durably record the use of pair index: one fsynced appended line."""
        records.append(self._path(serial), "used", index)

    def load(self, serial: str) -> UirRecord:
        path = self._path(serial)
        try:
            lines = records.read(path)
            head = records.fields(lines[:5], _HEADER_KEYS)
            if head["serial"] != serial:
                raise ValueError("record serial does not match file name")
            first_use = next(
                (i for i, line in enumerate(lines) if line.startswith("used: ")), len(lines)
            )
            rows = lines[5:first_use]
            block = "\n".join(rows) + "\n" if rows else ""
            end = _PAIR_ROWS.match(block).end()  # the end of the good rows
            if end != len(block):
                row = block.count("\n", 0, end)
                raise ValueError(f"pair row {row} is malformed")
            raw = bytes.fromhex(block.replace("pair: ", ""))  # skips the whitespace
            uses = records.rows(lines[first_use:], "used")
            if uses != [str(i) for i in range(len(uses))]:
                raise ValueError("used lines do not read 0, 1, 2, ... in order")
            if len(uses) > len(rows):
                raise ValueError(f"{len(uses)} uses of {len(rows)} pairs")
            return UirRecord(
                serial=serial,
                params=SucParams(
                    rounds=records.int_field(head["rounds"]),
                    feistel_r=records.int_field(head["feistel_r"]),
                    pool_digest=records.hex_field(head["pool_digest"], 0, 32),
                ),
                pairs=[
                    CrPair(raw[i : i + 8], raw[i + 8 : i + 16], i < 16 * len(uses))
                    for i in range(0, len(raw), 16)
                ],
                created_at=head["created_at"],
            )
        except FileNotFoundError:
            raise EnrollmentError(f"no record for serial {serial!r}") from None
        except ValueError as exc:
            raise EnrollmentError(f"record for {serial!r} is malformed: {exc}") from exc

    def create(self, record: UirRecord) -> None:
        """Persist a new record; duplicate serials are refused."""
        try:
            self.save(record)
        except FileExistsError:
            raise EnrollmentError(f"serial {record.serial!r} already enrolled") from None

    def stats(self) -> list:
        """(serial, total pairs, used, unused) per enrolled device."""
        out = []
        for serial in self.serials():
            record = self.load(serial)
            unused = record.unused_count
            out.append((serial, len(record.pairs), len(record.pairs) - unused, unused))
        return out


class LocalDeviceChannel:
    """In-process channel over a device; one with nothing loaded cannot answer."""

    def __init__(self, dev) -> None:
        self.serial = dev.serial
        self._dev = dev

    def respond(self, blocks: bytes) -> bytes:
        """One block through `apply`, several through `apply_batch`, which
        costs more for one block and far less per block for many."""
        if self._dev.loaded is None:
            raise ChannelError(f"device {self.serial} has no loaded instance")
        if len(blocks) == 8:
            return apply(self._dev.loaded, blocks)
        xs = np.frombuffer(blocks, np.uint8).reshape(-1, 8)  # ValueError unless 8n bytes
        return apply_batch(self._dev.loaded, xs).tobytes()
