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

A loaded `UirRecord` is two values: every pair in one bytes value, 16
bytes each (challenge, then response), and the count of used pairs.
`load` reads the file once, checks the pair rows as one block and the
`used:` lines against their one valid spelling, and builds no per-pair
or per-line objects; `UirRecord.pairs` is a view of `CrPair` tuples,
built only when something reads it.
"""

from __future__ import annotations

import binascii
import datetime as _dt
import enum
import fcntl
import functools
import os
import re
from dataclasses import dataclass
from typing import NamedTuple, Protocol

import numpy as np

from . import records
from .cipher import SucParams, apply
from .entropy import EntropySource
from .errors import ChannelError, EnrollmentError

_HEADER_KEYS = ("serial", "created_at", "rounds", "feistel_r", "pool_digest")
_PAIR_ROWS = re.compile(r"(?:pair: [0-9a-f]{16} [0-9a-f]{16}\n)*")
# A good pair row, with each lowercase hex digit read as "x"; _ROW_CLASS
# maps a row's bytes to that template, and any byte foreign to it to NUL.
_ROW_TEMPLATE = b"pxir: " + b"x" * 16 + b" " + b"x" * 16 + b"\n"
_ROW_LEN = len(_ROW_TEMPLATE)
_ROW_CLASS = bytes(
    ord("x") if c in b"0123456789abcdef" else c if c in b"pir: \n" else 0 for c in range(256)
)


def _pair_rows(block: bytes) -> bytes:
    """Pair bytes of a block of `pair: <x> <y>` rows, checked as strictly
    as _PAIR_ROWS, or ValueError naming the first bad row."""
    n = len(block) // _ROW_LEN
    if not (
        len(block) % _ROW_LEN == 0
        and block.translate(_ROW_CLASS) == _ROW_TEMPLATE * n
        and block[1::_ROW_LEN] == b"a" * n  # the hex class holds "pair"'s a
    ):
        good = _PAIR_ROWS.match(block.decode("latin-1")).end()  # the regex names the row
        raise ValueError(f"pair row {good // _ROW_LEN} is malformed")
    rows = np.frombuffer(block, np.uint8).reshape(n, _ROW_LEN)  # x at 6:22, y at 23:39
    return binascii.a2b_hex(np.concatenate((rows[:, 6:22], rows[:, 23:39]), axis=1).tobytes())


@functools.cache  # one entry per bit length of a use count
def _use_lines(bits: int) -> bytes:
    """`used: 0\n` to `used: 2**bits - 1\n`: every good tail of fewer
    than 2**bits uses is a prefix of it."""
    return "".join(f"used: {i}\n" for i in range(1 << bits)).encode("ascii")


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


class CrPair(NamedTuple):
    """One pair of a record's `pairs` view."""

    x: bytes
    y: bytes
    used: bool


@dataclass
class UirRecord:
    """Pairs held as one bytes value, 16 per pair (challenge, then
    response), and the count of used pairs, which are a prefix."""

    serial: str
    params: SucParams
    pair_bytes: bytes = b""
    used: int = 0
    created_at: str = ""

    @property
    def pair_count(self) -> int:
        return len(self.pair_bytes) // 16

    @property
    def unused_count(self) -> int:
        return self.pair_count - self.used

    @property
    def payload_bytes(self) -> int:
        return len(self.pair_bytes)

    @functools.cached_property
    def pairs(self) -> tuple:
        """Read-only CrPair view, built on first access; load and
        authenticate never build it."""
        b = self.pair_bytes
        return tuple(
            CrPair(b[i : i + 8], b[i + 8 : i + 16], i < 16 * self.used)
            for i in range(0, len(b), 16)
        )


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
    drawn = entropy.read(8 * t)
    xs = dict.fromkeys(drawn[i : i + 8] for i in range(0, len(drawn), 8))
    while len(xs) < t:
        xs.setdefault(entropy.read(8))
    ys = bytes(channel.respond(b"".join(xs)))
    if len(ys) != 8 * t:
        raise ChannelError(f"{len(ys)} response bytes to {t} challenges")
    pairs = np.empty((t, 2, 8), np.uint8)
    pairs[:, 0] = np.frombuffer(b"".join(xs), np.uint8).reshape(t, 8)
    pairs[:, 1] = np.frombuffer(ys, np.uint8).reshape(t, 8)
    return UirRecord(
        serial=channel.serial,
        params=params or SucParams(),
        pair_bytes=pairs.tobytes(),
        created_at=_utcnow(),
    )


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
        index = record.used  # uses are a prefix
        if index == record.pair_count:
            return AuthResult.EXHAUSTED
        store.mark_used(channel.serial, index)
    pair = record.pair_bytes[16 * index : 16 * index + 16]
    sent, expected = (pair[8:], pair[:8]) if inverse else (pair[:8], pair[8:])
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
        if record.used:
            raise ValueError("a new record cannot have a used pair")
        fields = {
            "serial": record.serial,
            "created_at": record.created_at,
            "rounds": record.params.rounds,
            "feistel_r": record.params.feistel_r,
            "pool_digest": record.params.pool_digest.hex(),
        }
        h = record.pair_bytes.hex()
        fields["pair"] = [f"{h[i : i + 16]} {h[i + 16 : i + 32]}" for i in range(0, len(h), 32)]
        records.write(self._path(record.serial), fields, replace=False)

    def mark_used(self, serial: str, index: int) -> None:
        """Durably record the use of pair index: one fsynced appended line."""
        records.append(self._path(serial), "used", index)

    def load(self, serial: str) -> UirRecord:
        """The record of serial, read whole and checked strictly; it builds
        no per-pair or per-line objects. EnrollmentError if malformed."""
        path = self._path(serial)
        try:
            with open(path, "rb") as f:
                data = f.read()
            if not data.endswith(b"\n"):
                raise ValueError("record does not end with a newline")
            *lines, body = data.split(b"\n", 5)
            head = records.fields([line.decode("ascii") for line in lines], _HEADER_KEYS)
            if head["serial"] != serial:
                raise ValueError("record serial does not match file name")
            start = body.find(b"u")  # no good pair row holds a "u": the uses start here
            block, tail = (body, b"") if start < 0 else (body[:start], body[start:])
            raw = _pair_rows(block)
            n = len(raw) // 16
            uses = tail.count(b"\n")
            if uses > n:
                raise ValueError(f"{uses} uses of {n} pairs")
            if not _use_lines(uses.bit_length()).startswith(tail):
                raise ValueError("used lines do not read 0, 1, 2, ... in order")
            return UirRecord(
                serial=serial,
                params=SucParams(
                    rounds=records.int_field(head["rounds"]),
                    feistel_r=records.int_field(head["feistel_r"]),
                    pool_digest=records.hex_field(head["pool_digest"], 0, 32),
                ),
                pair_bytes=raw,
                used=uses,
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
            r = self.load(serial)
            out.append((serial, r.pair_count, r.used, r.unused_count))
        return out


class LocalDeviceChannel:
    """In-process channel over a device; one with nothing loaded cannot answer."""

    def __init__(self, dev) -> None:
        self.serial = dev.serial
        self._dev = dev

    def respond(self, blocks: bytes) -> bytes:
        """The device's answers to 8n challenge bytes; ValueError unless
        they are whole blocks."""
        if self._dev.loaded is None:
            raise ChannelError(f"device {self.serial} has no loaded instance")
        return apply(self._dev.loaded, blocks)
