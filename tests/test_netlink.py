"""Wire framing and the TCP authority service.

Framing tests pin the exact byte layout; the fuzz tests assert the
decoder's only failure mode is FrameError. Service tests run real
loopback sockets.
"""

import gc
import logging
import socket
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sucsim import authority, device, netlink, records
from sucsim.authority import AuthResult, UirStore
from sucsim.cipher import apply, apply_batch
from sucsim.entropy import SeededEntropy
from sucsim.errors import FrameError
from sucsim.netlink import (
    Frame,
    FrameKind,
    StreamDecoder,
    TaService,
    decode,
    encode,
    run_agent,
)


# ---------------------------------------------------------------------------
# framing

def test_frame_byte_layout():
    frame = Frame(FrameKind.CHALLENGE, b"\x01\x02\x03\x04\x05\x06\x07\x08")
    wire = encode(frame)
    assert wire == b"SUC1\x03\x00\x08" + frame.payload
    assert len(wire) == 15
    assert decode(wire) == frame


def test_empty_payload_frame():
    wire = encode(Frame(FrameKind.HELLO_ACK))
    assert wire == b"SUC1\x02\x00\x00"
    assert decode(wire).payload == b""


@given(
    st.sampled_from(list(FrameKind)),
    st.binary(max_size=2000),
)
def test_encode_decode_roundtrip(kind, payload):
    assert decode(encode(Frame(kind, payload))) == Frame(kind, payload)


def test_oversized_payload_rejected():
    with pytest.raises(FrameError):
        encode(Frame(FrameKind.RESPONSE, b"\x00" * 65536))


def test_decode_rejects_bad_magic():
    with pytest.raises(FrameError):
        decode(b"XUC1\x03\x00\x00")


def test_decode_rejects_unknown_kind():
    with pytest.raises(FrameError):
        decode(b"SUC1\x99\x00\x00")


def test_decode_rejects_truncation_and_trailing_bytes():
    wire = encode(Frame(FrameKind.HELLO, b"abc"))
    with pytest.raises(FrameError):
        decode(wire[:-1])
    with pytest.raises(FrameError):
        decode(wire + b"x")


def test_stream_decoder_byte_at_a_time():
    frames = [
        Frame(FrameKind.HELLO, b"dev01"),
        Frame(FrameKind.CHALLENGE, bytes(8)),
        Frame(FrameKind.AUTH_RESULT, b"\x00"),
    ]
    wire = b"".join(encode(f) for f in frames)
    decoder = StreamDecoder()
    got = []
    for i in range(len(wire)):
        got.extend(decoder.feed(wire[i : i + 1]))
    assert got == frames
    assert decoder.pending == 0


@given(st.lists(st.binary(max_size=64), max_size=12), st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_stream_decoder_chunking_is_transparent(payloads, chunk):
    frames = [Frame(FrameKind.RESPONSE, p) for p in payloads]
    wire = b"".join(encode(f) for f in frames)
    decoder = StreamDecoder()
    got = []
    for i in range(0, len(wire), chunk):
        got.extend(decoder.feed(wire[i : i + chunk]))
    assert got == frames


def test_stream_decoder_flags_bad_magic_immediately():
    decoder = StreamDecoder()
    decoder.feed(encode(Frame(FrameKind.HELLO, b"ok")))
    with pytest.raises(FrameError):
        decoder.feed(b"JUNKJUNKJUNK")


@given(st.binary(max_size=400))
@settings(max_examples=300, deadline=None)
def test_stream_decoder_never_crashes_on_noise(noise):
    decoder = StreamDecoder()
    try:
        frames = decoder.feed(noise)
    except FrameError:
        return
    for f in frames:
        assert isinstance(f, Frame)


# ---------------------------------------------------------------------------
# service scenarios

@pytest.fixture
def booted(make_device):
    def boot(serial="dev01", seed=1):
        d, s = make_device(serial=serial, seed=seed)
        return device.boot(d, s)

    return boot


def logged_results(caplog):
    """Results of the service's `auth %s: %s` log lines, in order."""
    return [
        AuthResult(r.args[1])
        for r in caplog.records
        if r.name == "sucsim.netlink" and r.msg.startswith("auth %s: %s")
    ]


def netlink_errors(caplog):
    return [
        r for r in caplog.records
        if r.name == "sucsim.netlink" and r.levelno >= logging.ERROR
    ]


def test_first_contact_enrolls(tmp_path, booted):
    dev = booted()
    store = UirStore(tmp_path / "uir")
    with TaService(store, enroll_pairs=8, entropy=SeededEntropy(0)) as svc:
        outcome = run_agent(dev, svc.address)
    assert outcome.enrolled == 8
    assert outcome.ok
    record = store.load("dev01")
    assert len(record.pairs) == 8
    for p in record.pairs:
        assert p.y == apply(dev.loaded, p.x)
        assert not p.used


def test_an_enrollment_past_one_frame_takes_two_challenges(tmp_path, booted, monkeypatch):
    sent = []

    def recording_encode(frame, encode=netlink.encode):
        sent.append((frame.kind, len(frame.payload)))
        return encode(frame)

    monkeypatch.setattr(netlink, "encode", recording_encode)
    dev = booted()
    store = UirStore(tmp_path / "uir")
    with TaService(store, enroll_pairs=8192, entropy=SeededEntropy(0)) as svc:
        outcome = run_agent(dev, svc.address)
    assert outcome.enrolled == outcome.answered == 8192 and outcome.ok
    assert sent[2:] == [
        (FrameKind.ENROLL_BEGIN, 2),
        (FrameKind.CHALLENGE, 8 * 8191),
        (FrameKind.RESPONSE, 8 * 8191),
        (FrameKind.CHALLENGE, 8),
        (FrameKind.RESPONSE, 8),
        (FrameKind.ENROLL_END, 0),
    ]
    record = store.load("dev01")
    xs = np.frombuffer(b"".join(p.x for p in record.pairs), np.uint8).reshape(-1, 8)
    ys = np.frombuffer(b"".join(p.y for p in record.pairs), np.uint8).reshape(-1, 8)
    assert len({p.x for p in record.pairs}) == 8192
    assert np.array_equal(apply_batch(dev.loaded, xs), ys)


def test_a_short_response_gets_an_error_and_no_record(tmp_path):
    store = UirStore(tmp_path / "uir")
    with TaService(store, enroll_pairs=4, entropy=SeededEntropy(0)) as svc:
        with socket.create_connection(svc.address, timeout=5) as sock:
            channel = netlink.FrameChannel(sock)
            channel.send(Frame(FrameKind.HELLO, b"dev01"))
            channel.expect(FrameKind.HELLO_ACK)
            channel.expect(FrameKind.ENROLL_BEGIN)
            challenge = channel.expect(FrameKind.CHALLENGE)
            assert len(challenge.payload) == 32
            channel.send(Frame(FrameKind.RESPONSE, challenge.payload[:24]))
            reply = channel.recv()
    assert reply.kind is FrameKind.ERROR
    assert b"response of 24 bytes to a 32-byte challenge" in reply.payload
    assert not store.has("dev01")


def test_known_device_authenticates_until_exhausted(tmp_path, booted, caplog):
    caplog.set_level(logging.INFO, logger="sucsim.netlink")
    dev = booted()
    store = UirStore(tmp_path / "uir")
    with TaService(store, enroll_pairs=4, entropy=SeededEntropy(0)) as svc:
        assert run_agent(dev, svc.address).enrolled == 4
        for _ in range(4):
            outcome = run_agent(dev, svc.address)
            assert outcome.result is AuthResult.ACCEPTED
            assert outcome.answered == 1
        outcome = run_agent(dev, svc.address)
        assert outcome.result is AuthResult.EXHAUSTED
    results = logged_results(caplog)
    assert results == [AuthResult.ACCEPTED] * 4 + [AuthResult.EXHAUSTED]


def test_impostor_device_is_rejected(tmp_path, booted):
    real = booted(serial="dev01", seed=1)
    impostor = booted(serial="dev02", seed=2)
    impostor.serial = "dev01"  # claims the other identity
    store = UirStore(tmp_path / "uir")
    with TaService(store, enroll_pairs=4, entropy=SeededEntropy(0)) as svc:
        run_agent(real, svc.address)
        outcome = run_agent(impostor, svc.address)
        assert outcome.result is AuthResult.REJECTED
        assert not outcome.ok
    assert store.load("dev01").unused_count == 3  # the pair burned anyway


def test_unbootable_device_is_rejected(tmp_path, booted, make_device, caplog):
    caplog.set_level(logging.INFO, logger="sucsim.netlink")
    dev = booted(serial="dev01", seed=1)
    store = UirStore(tmp_path / "uir")
    with TaService(store, enroll_pairs=2, entropy=SeededEntropy(0)) as svc:
        run_agent(dev, svc.address)
        device.power_off(dev)  # nothing loaded: the agent answers ERROR
        outcome = run_agent(dev, svc.address)
        assert outcome.error == "device not initialized"
        assert not outcome.ok
    assert store.load("dev01").unused_count == 1
    assert logged_results(caplog)[-1] is AuthResult.REJECTED


def test_concurrent_agents(tmp_path, booted):
    devs = [booted(serial=f"dev{i}", seed=i) for i in range(4)]
    store = UirStore(tmp_path / "uir")
    outcomes = {}
    with TaService(store, enroll_pairs=3, entropy=SeededEntropy(0)) as svc:
        def session(dev):
            outcomes[dev.serial] = run_agent(dev, svc.address)

        threads = [threading.Thread(target=session, args=(d,)) for d in devs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(o.enrolled == 3 for o in outcomes.values())
        # one authentication each, again in parallel
        threads = [threading.Thread(target=session, args=(d,)) for d in devs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert all(o.result is AuthResult.ACCEPTED for o in outcomes.values())
    assert sorted(store.serials()) == [f"dev{i}" for i in range(4)]


def test_service_survives_garbage_connections(tmp_path, booted):
    dev = booted()
    store = UirStore(tmp_path / "uir")
    with TaService(store, enroll_pairs=2, entropy=SeededEntropy(0)) as svc:
        for junk in (b"GET / HTTP/1.1\r\n\r\n", b"\x00" * 40, b"SUC1\xff\xff\xff"):
            with socket.create_connection(svc.address, timeout=5) as sock:
                sock.sendall(junk)
                sock.shutdown(socket.SHUT_WR)
                try:
                    sock.recv(4096)  # whatever the service answers, if anything
                except OSError:
                    pass
        # a clean session still works afterwards
        outcome = run_agent(dev, svc.address)
        assert outcome.enrolled == 2


@pytest.mark.parametrize("payload", [b"../escaped", b"", b"\xff\xfedev01"])
def test_hello_with_a_bad_serial_gets_an_error_frame(
    tmp_path, monkeypatch, caplog, payload
):
    crashes = []
    monkeypatch.setattr(threading, "excepthook", crashes.append)
    store = UirStore(tmp_path / "uir")
    with TaService(store, enroll_pairs=2, entropy=SeededEntropy(0)) as svc:
        with socket.create_connection(svc.address, timeout=5) as sock:
            channel = netlink.FrameChannel(sock)
            channel.send(Frame(FrameKind.HELLO, payload))
            reply = channel.recv()
    assert reply.kind is FrameKind.ERROR
    assert crashes == []
    assert [p.name for p in tmp_path.rglob("*")] == ["uir"]
    assert netlink_errors(caplog) == []


def test_a_crashing_session_is_logged_and_the_service_goes_on(
    tmp_path, booted, monkeypatch, caplog
):
    def broken_has(serial):
        raise RuntimeError("disk on fire")

    dev = booted()
    store = UirStore(tmp_path / "uir")
    with TaService(store, enroll_pairs=2, entropy=SeededEntropy(0)) as svc:
        monkeypatch.setattr(store, "has", broken_has)
        dropped = run_agent(dev, svc.address)
        monkeypatch.undo()
        outcome = run_agent(dev, svc.address)
    assert dropped.enrolled == 0
    assert dropped.error == "session closed" and not dropped.ok
    assert outcome.enrolled == 2 and outcome.ok
    [error] = netlink_errors(caplog)
    assert error.exc_info[0] is RuntimeError


def frames_per_write(monkeypatch):
    """Record the kinds of the frames in each write the service makes."""
    writes = []
    original = netlink._SessionSocket.sendall

    def sendall(self, data):
        writes.append([f.kind for f in StreamDecoder().feed(data)])
        return original(self, data)

    monkeypatch.setattr(netlink._SessionSocket, "sendall", sendall)
    return writes


def test_each_service_turn_is_one_write(tmp_path, booted, monkeypatch):
    writes = frames_per_write(monkeypatch)
    dev = booted()
    store = UirStore(tmp_path / "uir")
    with TaService(store, enroll_pairs=4, entropy=SeededEntropy(0)) as svc:
        assert run_agent(dev, svc.address).enrolled == 4
        enrollment = writes[:]
        writes.clear()
        assert run_agent(dev, svc.address).result is AuthResult.ACCEPTED
    K = FrameKind
    assert enrollment == [[K.HELLO_ACK, K.ENROLL_BEGIN, K.CHALLENGE], [K.ENROLL_END]]
    assert writes == [[K.HELLO_ACK, K.CHALLENGE], [K.AUTH_RESULT]]


def raw_session(address, serial, answer):
    """Frames a plain client reads, as (kind, payload), until the service
    closes; each CHALLENGE gets answer(payload) back."""
    frames = []
    with socket.create_connection(address, timeout=5) as sock:
        channel = netlink.FrameChannel(sock)
        channel.send(Frame(FrameKind.HELLO, serial.encode()))
        while True:
            try:
                frame = channel.recv()
            except netlink.ChannelError:
                return frames
            frames.append((frame.kind, frame.payload))
            if frame.kind == FrameKind.CHALLENGE:
                channel.send(Frame(FrameKind.RESPONSE, answer(frame.payload)))


def test_a_plain_client_reads_the_same_frames_in_the_same_order(tmp_path, booted):
    dev = booted()
    answer = lambda blocks: apply(dev.loaded, blocks)
    K = FrameKind
    with TaService(UirStore(tmp_path / "uir"), enroll_pairs=1, entropy=SeededEntropy(0)) as svc:
        enrollment = raw_session(svc.address, "dev01", answer)
        accepted = raw_session(svc.address, "dev01", answer)
        exhausted = raw_session(svc.address, "dev01", answer)
    assert [(k, len(p)) for k, p in enrollment] == [
        (K.HELLO_ACK, 0), (K.ENROLL_BEGIN, 2), (K.CHALLENGE, 8), (K.ENROLL_END, 0)
    ]
    assert enrollment[1][1] == b"\x00\x01"
    assert [(k, len(p)) for k, p in accepted] == [
        (K.HELLO_ACK, 0), (K.CHALLENGE, 8), (K.AUTH_RESULT, 1)
    ]
    assert accepted[2][1] == b"\x00"
    assert exhausted == [(K.HELLO_ACK, b""), (K.AUTH_RESULT, b"\x02")]


def test_silent_clients_do_not_delay_an_authentication(tmp_path, booted):
    dev = booted()
    store = UirStore(tmp_path / "uir")
    with TaService(store, enroll_pairs=2, entropy=SeededEntropy(0), timeout=5) as svc:
        run_agent(dev, svc.address)
        silent = [socket.create_connection(svc.address, timeout=5) for _ in range(16)]
        try:
            started = time.perf_counter()
            outcome = run_agent(dev, svc.address)
            elapsed = time.perf_counter() - started
        finally:
            for sock in silent:
                sock.close()
    assert outcome.result is AuthResult.ACCEPTED
    assert elapsed < 1.0


def enroll_by_echo(sock, serial):
    """A plain client's enrollment that answers each challenge with itself."""
    channel = netlink.FrameChannel(sock)
    channel.send(Frame(FrameKind.HELLO, serial.encode()))
    channel.expect(FrameKind.HELLO_ACK)
    channel.expect(FrameKind.ENROLL_BEGIN)
    challenge = channel.expect(FrameKind.CHALLENGE)
    channel.send(Frame(FrameKind.RESPONSE, challenge.payload))
    channel.expect(FrameKind.ENROLL_END)


def test_workers_return_to_the_idle_level_after_a_burst(tmp_path):
    interval = sys.getswitchinterval()
    with TaService(UirStore(tmp_path / "uir"), enroll_pairs=2, entropy=SeededEntropy(0)) as svc:
        idle = threading.active_count()
        socks = [socket.create_connection(svc.address, timeout=5) for _ in range(8)]
        clients = [
            threading.Thread(target=enroll_by_echo, args=(sock, f"dev{i}"))
            for i, sock in enumerate(socks)
        ]
        try:
            # each open connection holds a worker of its own
            deadline = time.monotonic() + 5
            while threading.active_count() < idle + 7 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert threading.active_count() >= idle + 7
            sys.setswitchinterval(1e-5)  # interleave the workers' returns
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in clients)
        finally:
            sys.setswitchinterval(interval)
            for sock in socks:
                sock.close()
        deadline = time.monotonic() + 5
        while threading.active_count() > idle and time.monotonic() < deadline:
            time.sleep(0.005)
        assert threading.active_count() == idle
        assert sorted(svc.store.serials()) == [f"dev{i}" for i in range(8)]


def heap_threads():
    gc.collect()
    return sum(isinstance(o, threading.Thread) for o in gc.get_objects())


def test_service_retains_no_thread_per_session(tmp_path, booted):
    dev = booted()
    store = UirStore(tmp_path / "uir")
    with TaService(store, enroll_pairs=32, entropy=SeededEntropy(0)) as svc:
        idle = threading.active_count()

        def session():
            outcome = run_agent(dev, svc.address)
            # wait for the session thread to end, so the next accept
            # finds every earlier one finished
            deadline = time.monotonic() + 5
            while threading.active_count() > idle and time.monotonic() < deadline:
                time.sleep(0.005)
            assert threading.active_count() == idle
            return outcome

        assert session().enrolled == 32
        before = heap_threads()
        for _ in range(20):
            assert session().result is AuthResult.ACCEPTED
        assert heap_threads() <= before


def test_a_crash_after_the_challenge_leaves_the_pair_used(
    tmp_path, booted, monkeypatch, caplog
):
    def crash(self, block):
        raise RuntimeError("link on fire")

    dev = booted()
    store = UirStore(tmp_path / "uir")
    with TaService(store, enroll_pairs=2, entropy=SeededEntropy(0)) as svc:
        run_agent(dev, svc.address)
        monkeypatch.setattr(netlink._SessionChannel, "respond", crash)
        dropped = run_agent(dev, svc.address)
    assert dropped.error == "session closed"
    reloaded = UirStore(tmp_path / "uir").load("dev01")
    assert [p.used for p in reloaded.pairs] == [True, False]
    [error] = netlink_errors(caplog)
    assert error.exc_info[0] is RuntimeError


def test_a_failed_save_sends_no_challenge(tmp_path, booted, monkeypatch):
    def broken_append(path, key, value):
        raise OSError("disk full")

    dev = booted()
    store = UirStore(tmp_path / "uir")
    with TaService(store, enroll_pairs=2, entropy=SeededEntropy(0)) as svc:
        run_agent(dev, svc.address)
        monkeypatch.setattr(records, "append", broken_append)
        outcome = run_agent(dev, svc.address)
    assert outcome.error == "disk full"
    assert outcome.answered == 0
    assert store.load("dev01").unused_count == 2


def test_an_unanswered_challenge_does_not_hold_the_serial(tmp_path, booted):
    dev = booted()
    store = UirStore(tmp_path / "uir")
    with TaService(store, enroll_pairs=2, entropy=SeededEntropy(0), timeout=5) as svc:
        run_agent(dev, svc.address)
        with socket.create_connection(svc.address, timeout=5) as sock:
            channel = netlink.FrameChannel(sock)
            channel.send(Frame(FrameKind.HELLO, b"dev01"))
            channel.expect(FrameKind.HELLO_ACK)
            channel.expect(FrameKind.CHALLENGE)  # and never answer it
            started = time.perf_counter()
            outcome = run_agent(dev, svc.address)
            elapsed = time.perf_counter() - started
    assert outcome.result is AuthResult.ACCEPTED
    assert elapsed < 1.0
    assert store.load("dev01").unused_count == 0


def test_stop_returns_promptly(tmp_path):
    before = set(threading.enumerate())
    svc = TaService(UirStore(tmp_path / "uir"))
    svc.start()
    workers = set(threading.enumerate()) - before
    assert len(workers) == netlink.IDLE_WORKERS
    time.sleep(0.2)  # let the workers wait in accept()
    started = time.perf_counter()
    svc.stop()
    assert time.perf_counter() - started < 0.1
    assert not any(w.is_alive() for w in workers)
    svc.stop()  # as serve_forever does after a stop() from another thread
    never_started = TaService(UirStore(tmp_path / "uir"))
    started = time.perf_counter()
    never_started.stop()
    assert time.perf_counter() - started < 0.1


def test_a_trickling_client_is_cut_off_at_the_session_deadline(tmp_path):
    # 11 bytes of HELLO at 0.3 s each: no single recv waits 0.5 s, the
    # whole exchange does
    svc = TaService(UirStore(tmp_path / "uir"), timeout=0.5)
    svc.start()
    replies = []

    def trickle(sock):
        sock.settimeout(0.3)
        for byte in encode(Frame(FrameKind.HELLO, b"dev01"))[:-1]:
            sock.sendall(bytes([byte]))
            try:
                replies.append(sock.recv(64))
                return
            except socket.timeout:
                pass

    with socket.create_connection(svc.address, timeout=5) as sock:
        started = time.monotonic()
        client = threading.Thread(target=trickle, args=(sock,))
        client.start()
        time.sleep(0.1)
        svc.stop()
        stopped = time.monotonic() - started
        client.join(timeout=10)
        cut_off = time.monotonic() - started
    assert stopped < 1.0
    assert cut_off < 1.0
    assert [decode(r) for r in replies] == [Frame(FrameKind.ERROR, b"session timed out")]


@pytest.mark.parametrize("pairs", [0, -1, 65536])
def test_service_refuses_an_enrollment_size_outside_u16(tmp_path, pairs):
    with pytest.raises(ValueError, match="enroll_pairs"):
        TaService(UirStore(tmp_path / "uir"), enroll_pairs=pairs)


@pytest.mark.parametrize("timeout", [0, -1, float("nan"), float("inf")])
def test_service_refuses_a_timeout_that_is_not_positive_and_finite(tmp_path, timeout):
    # 0 or -1 would time out every session; nan or inf would crash each session thread
    with pytest.raises(ValueError, match="timeout must be positive and finite"):
        TaService(UirStore(tmp_path / "uir"), timeout=timeout)


@pytest.mark.parametrize("timeout", [0, -1, float("nan"), float("inf")])
def test_agent_refuses_a_timeout_that_is_not_positive_and_finite(booted, timeout):
    dev = booted()
    with socket.create_server(("127.0.0.1", 0)) as listener:
        with pytest.raises(ValueError, match="timeout must be positive and finite"):
            netlink.run_agent(dev, listener.getsockname(), timeout=timeout)
        listener.settimeout(0.2)
        with pytest.raises(socket.timeout):
            listener.accept()  # the agent never connected


def agent_against_fake_service(dev, frames):
    """run_agent against a listener that acknowledges HELLO, then sends frames."""
    listener = socket.create_server(("127.0.0.1", 0))

    def fake_service():
        conn, _ = listener.accept()
        with conn:
            channel = netlink.FrameChannel(conn)
            channel.recv()  # HELLO
            channel.send(Frame(FrameKind.HELLO_ACK))
            for frame in frames:
                channel.send(frame)
            try:
                channel.recv()
            except Exception:
                pass

    t = threading.Thread(target=fake_service, daemon=True)
    t.start()
    try:
        return run_agent(dev, listener.getsockname())
    finally:
        listener.close()
        t.join(timeout=5)


def test_agent_refuses_oversized_challenge(booted):
    # a CHALLENGE whose payload is not whole 8-byte blocks is a protocol violation
    dev = booted()
    for size in (0, 12, 15):
        with pytest.raises(netlink.ProtocolError, match="whole 8-byte blocks"):
            agent_against_fake_service(dev, [Frame(FrameKind.CHALLENGE, bytes(size))])


@pytest.mark.parametrize(
    "frame",
    [
        Frame(FrameKind.AUTH_RESULT, b""),
        Frame(FrameKind.AUTH_RESULT, b"\x00\x00"),
        Frame(FrameKind.ENROLL_BEGIN, b"\x01"),
        Frame(FrameKind.ENROLL_BEGIN, b"\x00\x01\x00"),
    ],
    ids=["empty-result", "long-result", "short-begin", "long-begin"],
)
def test_agent_refuses_malformed_result_and_begin_frames(booted, frame):
    with pytest.raises(netlink.ProtocolError):
        agent_against_fake_service(booted(), [frame])


def test_session_channel_serial_survives(tmp_path, booted):
    dev = booted(serial="weird-serial-9", seed=3)
    store = UirStore(tmp_path / "uir")
    with TaService(store, enroll_pairs=1, entropy=SeededEntropy(0)) as svc:
        outcome = run_agent(dev, svc.address)
    assert outcome.serial == "weird-serial-9"
    assert store.has("weird-serial-9")
