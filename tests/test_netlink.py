"""Wire framing and the TCP authority service.

Framing tests pin the exact byte layout; the fuzz tests assert the
decoder's only failure mode is FrameError. Service tests run real
loopback sockets.
"""

import gc
import logging
import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from sucsim import authority, device, netlink
from sucsim.authority import AuthResult, UirStore
from sucsim.cipher import apply
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
        assert run_agent(dev, svc.address).enrolled == 0
        monkeypatch.undo()
        outcome = run_agent(dev, svc.address)
    assert outcome.enrolled == 2
    [error] = netlink_errors(caplog)
    assert error.exc_info[0] is RuntimeError


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


def test_stop_returns_promptly(tmp_path):
    svc = TaService(UirStore(tmp_path / "uir"))
    svc.start()
    time.sleep(0.2)  # let the accept thread wait for connections
    started = time.perf_counter()
    svc.stop()
    assert time.perf_counter() - started < 1.0
    svc._accept_thread.join(timeout=5)
    assert not svc._accept_thread.is_alive()
    never_started = TaService(UirStore(tmp_path / "uir"))
    started = time.perf_counter()
    never_started.stop()
    assert time.perf_counter() - started < 1.0


def test_agent_refuses_oversized_challenge(tmp_path, booted):
    # a CHALLENGE whose payload is not 8 bytes is a protocol violation
    dev = booted()
    listener = socket.create_server(("127.0.0.1", 0))

    def fake_service():
        conn, _ = listener.accept()
        with conn:
            channel = netlink.FrameChannel(conn)
            channel.recv()  # HELLO
            channel.send(Frame(FrameKind.HELLO_ACK))
            channel.send(Frame(FrameKind.CHALLENGE, b"\x00" * 15))
            try:
                channel.recv()
            except Exception:
                pass

    t = threading.Thread(target=fake_service, daemon=True)
    t.start()
    try:
        with pytest.raises(netlink.ProtocolError):
            run_agent(dev, listener.getsockname())
    finally:
        listener.close()
        t.join(timeout=5)


def test_session_channel_serial_survives(tmp_path, booted):
    dev = booted(serial="weird-serial-9", seed=3)
    store = UirStore(tmp_path / "uir")
    with TaService(store, enroll_pairs=1, entropy=SeededEntropy(0)) as svc:
        outcome = run_agent(dev, svc.address)
    assert outcome.serial == "weird-serial-9"
    assert store.has("weird-serial-9")
