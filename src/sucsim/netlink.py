"""Binary TCP link between the authority service and device agents.

Wire format, fixed 7-byte header then payload:

    magic "SUC1" | kind (1 byte) | length (u16 big-endian) | payload

Serial strings travel as UTF-8, enrollment sizes as u16 big-endian,
authentication results as one status byte. A CHALLENGE carries n >= 1
concatenated 8-byte blocks, at most `BLOCKS_PER_FRAME` (8191, the most
that fit the u16 length); its RESPONSE carries the n answers in the same
order, so it is exactly as long as the CHALLENGE.

A session is one TCP connection. The agent opens with HELLO carrying
its serial; the service answers HELLO_ACK and then either enrolls the
device (unknown serial: ENROLL_BEGIN, one CHALLENGE/RESPONSE exchange
per 8191 of the t challenges, ENROLL_END) or runs a single
authentication (known serial: a one-block CHALLENGE, RESPONSE,
AUTH_RESULT; an exhausted record sends AUTH_RESULT straight away). The
service saves the pair's use before it sends the CHALLENGE (see
`authority.authenticate`). An agent that cannot answer a challenge
replies with an ERROR frame, which the service scores as a rejection.

Each service turn is one write: the service holds HELLO_ACK, and
ENROLL_BEGIN on an enrollment, and sends them in front of the next frame,
so an authentication's HELLO_ACK leaves with its CHALLENGE (or its
AUTH_RESULT, or an ERROR). Holding groups frames into writes; it
changes neither the frames nor their order.

Sessions run on service workers that call `accept()` themselves, one
thread per concurrent session and no session cap yet (see `TaService`).
"""

from __future__ import annotations

import enum
import itertools
import logging
import math
import socket
import struct
import threading
import time
from dataclasses import dataclass

from . import authority, records
from .authority import AuthResult, UirStore
from .cipher import apply
from .entropy import EntropySource, SystemEntropy
from .errors import ChannelError, FrameError, ProtocolError, SucError

log = logging.getLogger("sucsim.netlink")

MAGIC = b"SUC1"
HEADER = struct.Struct(">4sBH")
MAX_PAYLOAD = 65535
BLOCKS_PER_FRAME = MAX_PAYLOAD // 8
IDLE_WORKERS = 2  # service workers waiting in accept() between sessions


class FrameKind(enum.IntEnum):
    HELLO = 1
    HELLO_ACK = 2
    CHALLENGE = 3
    RESPONSE = 4
    ENROLL_BEGIN = 5
    ENROLL_END = 6
    AUTH_RESULT = 7
    ERROR = 8


_KINDS = {int(k) for k in FrameKind}

_STATUS_BYTE = {
    AuthResult.ACCEPTED: b"\x00",
    AuthResult.REJECTED: b"\x01",
    AuthResult.EXHAUSTED: b"\x02",
}
_STATUS_FROM_BYTE = {v: k for k, v in _STATUS_BYTE.items()}


@dataclass(frozen=True)
class Frame:
    kind: FrameKind
    payload: bytes = b""


def encode(frame: Frame) -> bytes:
    payload = bytes(frame.payload)
    if len(payload) > MAX_PAYLOAD:
        raise FrameError(f"payload of {len(payload)} bytes exceeds u16 length")
    return HEADER.pack(MAGIC, int(frame.kind), len(payload)) + payload


class StreamDecoder:
    """Incremental frame parser; feed() returns every completed frame."""

    def __init__(self) -> None:
        self._buf = bytearray()

    @property
    def pending(self) -> int:
        return len(self._buf)

    def feed(self, data: bytes) -> list:
        self._buf += data
        frames = []
        while len(self._buf) >= HEADER.size:
            magic, kind, length = HEADER.unpack_from(self._buf, 0)
            if magic != MAGIC:
                raise FrameError(f"bad magic {bytes(magic)!r}")
            if kind not in _KINDS:
                raise FrameError(f"unknown frame kind {kind}")
            if len(self._buf) < HEADER.size + length:
                break
            payload = bytes(self._buf[HEADER.size : HEADER.size + length])
            del self._buf[: HEADER.size + length]
            frames.append(Frame(kind=FrameKind(kind), payload=payload))
        return frames


def decode(data: bytes) -> Frame:
    """Strict single-frame decode; trailing or missing bytes are errors."""
    dec = StreamDecoder()
    frames = dec.feed(data)
    if not frames:
        raise FrameError("truncated frame")
    if len(frames) > 1 or dec.pending:
        raise FrameError("trailing bytes after frame")
    return frames[0]


class FrameChannel:
    """Blocking frame I/O over a connected socket."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._decoder = StreamDecoder()
        self._ready: list = []
        self._held = b""

    def send(self, frame: Frame, hold: bool = False) -> None:
        """Send the held frames and then this one in one write; with
        `hold`, keep this one too for the next send."""
        self._held += encode(frame)
        if hold:
            return
        data, self._held = self._held, b""
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise ChannelError(f"send failed: {exc}") from exc

    def take_held(self) -> bytes:
        """The held frames' bytes, which this channel then forgets."""
        data, self._held = self._held, b""
        return data

    def recv(self) -> Frame:
        while not self._ready:
            try:
                data = self._sock.recv(4096)
            except socket.timeout as exc:
                raise ChannelError("session timed out") from exc
            except OSError as exc:
                raise ChannelError(f"recv failed: {exc}") from exc
            if not data:
                if self._decoder.pending:
                    raise FrameError("connection closed mid-frame")
                raise ChannelError("connection closed")
            self._ready.extend(self._decoder.feed(data))
        return self._ready.pop(0)

    def expect(self, kind: FrameKind) -> Frame:
        frame = self.recv()
        if frame.kind == FrameKind.ERROR:
            raise ChannelError(
                f"peer error: {frame.payload.decode('utf-8', 'replace')}"
            )
        if frame.kind != kind:
            raise ProtocolError(f"expected {kind.name}, got {frame.kind.name}")
        return frame


def check_timeout(timeout: float) -> None:
    """Refuse a socket timeout that is not positive and finite: 0 or -1
    would fail every exchange, nan or inf crash the socket calls."""
    if not 0 < timeout < math.inf:  # also refuses nan
        raise ValueError(f"timeout must be positive and finite, got {timeout}")


class _SessionSocket:
    """A session's socket whose recv and sendall share one deadline, so
    the service's timeout bounds the whole exchange, not each call."""

    def __init__(self, sock: socket.socket, timeout: float) -> None:
        self._sock = sock
        self._deadline = time.monotonic() + timeout

    def _arm(self) -> None:
        remaining = self._deadline - time.monotonic()
        if remaining <= 0:
            raise socket.timeout("session deadline passed")
        self._sock.settimeout(remaining)

    def recv(self, size: int) -> bytes:
        self._arm()
        return self._sock.recv(size)

    def sendall(self, data: bytes) -> None:
        self._arm()
        self._sock.sendall(data)


class _SessionChannel:
    """authority.DeviceChannel over a live agent session (service side)."""

    def __init__(self, serial: str, channel: FrameChannel) -> None:
        self.serial = serial
        self._channel = channel

    def respond(self, blocks: bytes) -> bytes:
        """One CHALLENGE/RESPONSE exchange per BLOCKS_PER_FRAME blocks."""
        step = 8 * BLOCKS_PER_FRAME
        answers = []
        for i in range(0, len(blocks), step):
            challenge = blocks[i : i + step]
            self._channel.send(Frame(FrameKind.CHALLENGE, challenge))
            frame = self._channel.expect(FrameKind.RESPONSE)
            if len(frame.payload) != len(challenge):
                raise ProtocolError(
                    f"response of {len(frame.payload)} bytes to a"
                    f" {len(challenge)}-byte challenge"
                )
            answers.append(frame.payload)
        return b"".join(answers)


class TaService:
    """Threaded authority endpoint.

    Unknown serials are enrolled with `enroll_pairs` challenges on first
    contact; known serials get one authentication per session, whose
    result and wall-clock time are logged. `timeout` bounds each whole
    session, so a client that trickles bytes cannot hold a thread longer.

    Sessions run on daemon worker threads that accept for themselves:
    `IDLE_WORKERS` wait in `accept()`, a worker that takes the last
    waiting slot first starts a replacement, and a worker back from its
    session exits if `IDLE_WORKERS` others already wait. So each
    concurrent session has its own thread, named `ta-session-<n>` for
    the session, and concurrency is unbounded (no session cap yet).
    """

    def __init__(
        self,
        store: UirStore,
        listen: tuple = ("127.0.0.1", 0),
        enroll_pairs: int = 16,
        entropy: EntropySource | None = None,
        timeout: float = 10.0,
    ) -> None:
        if not 1 <= enroll_pairs <= 0xFFFF:  # ENROLL_BEGIN carries a u16
            raise ValueError(f"enroll_pairs must be in 1..65535, got {enroll_pairs}")
        check_timeout(timeout)
        self.store = store
        self.enroll_pairs = enroll_pairs
        self.entropy = entropy or SystemEntropy()
        self.timeout = timeout
        self._listener = socket.create_server(listen)
        self.address = self._listener.getsockname()
        self._lock = threading.Lock()  # guards the three below
        self._workers: set = set()
        self._idle = 0  # workers in, or on their way to, accept()
        self._sessions = itertools.count(1)
        self._stopping = threading.Event()

    def __enter__(self) -> "TaService":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> None:
        with self._lock:
            for _ in range(IDLE_WORKERS):
                self._spawn()
        log.info("authority listening on %s:%d", *self.address[:2])

    def stop(self) -> None:
        """Stop accepting, then wait for the sessions in flight; repeatable."""
        with self._lock:
            self._stopping.set()
            workers = list(self._workers)
        try:
            # on Linux this wakes every accept() at once
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # an earlier stop() closed it
        for worker in workers:
            worker.join()
        self._listener.close()

    def serve_forever(self) -> None:
        self.start()
        try:
            self._stopping.wait()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def _spawn(self) -> None:
        """Start one more waiting worker; the caller holds the lock."""
        worker = threading.Thread(target=self._work, name="ta-worker", daemon=True)
        self._workers.add(worker)
        self._idle += 1
        worker.start()

    def _work(self) -> None:
        worker = threading.current_thread()
        while True:
            try:
                conn, peer = self._listener.accept()
            except OSError as exc:
                if self._stopping.is_set():
                    break
                log.warning("accept failed: %s", exc)
                continue
            with self._lock:
                self._idle -= 1
                if not self._idle and not self._stopping.is_set():
                    self._spawn()
                worker.name = f"ta-session-{next(self._sessions)}"
            with conn:
                try:
                    self._serve_session(conn, peer)
                except Exception:
                    log.exception("session with %s crashed", peer)
            with self._lock:
                if self._idle >= IDLE_WORKERS:
                    self._workers.discard(worker)
                    return
                self._idle += 1
        with self._lock:
            self._idle -= 1
            self._workers.discard(worker)

    def _serve_session(self, conn: socket.socket, peer) -> None:
        channel = FrameChannel(_SessionSocket(conn, self.timeout))
        try:
            hello = channel.recv()
            if hello.kind != FrameKind.HELLO:
                raise ProtocolError(f"expected HELLO, got {hello.kind.name}")
            serial = hello.payload.decode("utf-8", "replace")
            if not records.SERIAL_RE.match(serial):
                raise FrameError(f"HELLO carries an invalid serial {serial[:80]!r}")
            channel.send(Frame(FrameKind.HELLO_ACK), hold=True)
            if self.store.has(serial):
                self._run_authentication(channel, serial)
            else:
                self._run_enrollment(channel, serial)
        except (SucError, OSError) as exc:
            log.warning("session with %s aborted: %s", peer, exc)
            channel.send(Frame(FrameKind.ERROR, str(exc).encode()), hold=True)
        finally:
            # whatever is held, an ERROR too, goes out before the connection
            # closes, past the deadline too but without waiting: a short
            # write goes out unless the peer has stopped reading
            held = channel.take_held()
            if held:
                try:
                    conn.setblocking(False)
                    conn.sendall(held)
                except OSError:
                    pass

    def _run_enrollment(self, channel: FrameChannel, serial: str) -> None:
        t = self.enroll_pairs
        channel.send(Frame(FrameKind.ENROLL_BEGIN, struct.pack(">H", t)), hold=True)
        record = authority.enroll(_SessionChannel(serial, channel), t, self.entropy)
        self.store.create(record)
        channel.send(Frame(FrameKind.ENROLL_END))
        log.info("enrolled %s with %d pairs", serial, t)

    def _run_authentication(self, channel: FrameChannel, serial: str) -> None:
        started = time.perf_counter()
        result = authority.authenticate(_SessionChannel(serial, channel), self.store)
        elapsed = time.perf_counter() - started
        log.info("auth %s: %s (%.1f ms)", serial, result.value, elapsed * 1e3)
        channel.send(Frame(FrameKind.AUTH_RESULT, _STATUS_BYTE[result]))


@dataclass
class AgentOutcome:
    """What one agent session accomplished."""

    serial: str
    enrolled: int = 0
    result: AuthResult | None = None
    error: str | None = None
    answered: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None and self.result in (None, AuthResult.ACCEPTED)


def run_agent(dev, address: tuple, timeout: float = 10.0) -> AgentOutcome:
    """One agent session for a loaded (or deliberately unbootable) device.

    Answers CHALLENGE frames with the device cipher, through `apply`,
    until the service closes the exchange; `answered` counts blocks. A
    device with nothing loaded answers ERROR, so the service rejects it.
    A session that ends without ENROLL_END, AUTH_RESULT or ERROR reports
    the error "session closed".
    """
    check_timeout(timeout)
    outcome = AgentOutcome(serial=dev.serial)
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.settimeout(timeout)
        channel = FrameChannel(sock)
        channel.send(Frame(FrameKind.HELLO, dev.serial.encode()))
        channel.expect(FrameKind.HELLO_ACK)
        expect_pairs = 0
        while True:
            try:
                frame = channel.recv()
            except ChannelError:
                outcome.error = "session closed"
                break
            if frame.kind == FrameKind.CHALLENGE:
                if dev.loaded is None:
                    channel.send(
                        Frame(FrameKind.ERROR, b"device not initialized")
                    )
                    outcome.error = "device not initialized"
                    break
                n, rest = divmod(len(frame.payload), 8)
                if n == 0 or rest:
                    raise ProtocolError("challenge must be whole 8-byte blocks")
                channel.send(Frame(FrameKind.RESPONSE, apply(dev.loaded, frame.payload)))
                outcome.answered += n
            elif frame.kind == FrameKind.ENROLL_BEGIN:
                if len(frame.payload) != 2:
                    raise ProtocolError("ENROLL_BEGIN must carry 2 bytes")
                (expect_pairs,) = struct.unpack(">H", frame.payload)
            elif frame.kind == FrameKind.ENROLL_END:
                outcome.enrolled = expect_pairs
                break
            elif frame.kind == FrameKind.AUTH_RESULT:
                outcome.result = _STATUS_FROM_BYTE.get(frame.payload)
                if outcome.result is None:
                    raise ProtocolError(f"bad status {frame.payload[:8]!r}")
                break
            elif frame.kind == FrameKind.ERROR:
                outcome.error = frame.payload.decode("utf-8", "replace")
                break
            else:
                raise ProtocolError(f"unexpected {frame.kind.name} frame")
    return outcome
