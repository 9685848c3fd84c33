"""Challenge-response bookkeeping: enrollment, single-use pairs, records.

Key behavioral claims:
  * a selected pair is consumed no matter how the handshake ends
  * the use is one fsynced appended line, on disk before the challenge
    leaves; the enrolled pair rows are never rewritten
  * two processes on one store never send a challenge twice nor enroll
    a serial twice
  * forward authentication cannot distinguish an involution from any
    other bijection, the inverse direction can
"""

import hashlib
import os
import subprocess
import sys
import threading
import time

import pytest

from sucsim import authority, device
from sucsim.authority import (
    AuthResult,
    LocalDeviceChannel,
    UirRecord,
    UirStore,
    authenticate,
    enroll,
)
from sucsim.cipher import SucParams, apply
from sucsim.entropy import RecordedEntropy, SeededEntropy
from sucsim.errors import ChannelError, EnrollmentError


class FnChannel:
    """Channel that answers each 8-byte block with an arbitrary function."""

    def __init__(self, serial, fn):
        self.serial = serial
        self.fn = fn

    def respond(self, blocks):
        return b"".join(self.fn(blocks[i : i + 8]) for i in range(0, len(blocks), 8))


class DeadChannel:
    def __init__(self, serial):
        self.serial = serial

    def respond(self, block):
        raise ChannelError("no device")


def booted_channel(make_device, **kw):
    d, serial = make_device(**kw)
    return LocalDeviceChannel(device.boot(d, serial))


def stored(tmp_path, record):
    """A fresh store holding record."""
    store = UirStore(tmp_path / "uir")
    store.create(record)
    return store


# ---------------------------------------------------------------------------
# enrollment

def test_enroll_records_true_responses(make_device):
    channel = booted_channel(make_device)
    record = enroll(channel, 16, SeededEntropy(0))
    assert len(record.pairs) == 16
    assert len({p.x for p in record.pairs}) == 16
    dev_map = channel._dev.loaded
    for p in record.pairs:
        assert p.y == apply(dev_map, p.x)
        assert not p.used


def test_enroll_payload_sizes():
    channel = FnChannel("s", lambda b: b)
    assert enroll(channel, 16, SeededEntropy(1)).payload_bytes == 256
    assert enroll(channel, 2048, SeededEntropy(2)).payload_bytes == 32768


def test_enroll_skips_repeated_challenges():
    # recorded stream hands out the same challenge twice, then a fresh one
    x1, x2 = b"A" * 8, b"B" * 8
    record = enroll(FnChannel("s", lambda b: b), 2, RecordedEntropy(x1 + x1 + x2))
    assert [p.x for p in record.pairs] == [x1, x2]


def test_enroll_pairs_are_pinned(make_device):
    # computed when each challenge was drawn and sent on its own
    record = enroll(booted_channel(make_device), 64, SeededEntropy(0))
    digest = hashlib.sha256(b"".join(p.x + p.y for p in record.pairs)).hexdigest()
    assert digest == "ea37378269e4fc478c03510deae4fbf10371e35b9a19e6495587e753b5f6f686"


def test_enroll_sends_every_challenge_in_one_call():
    calls = []
    channel = FnChannel("s", lambda b: b)
    channel.respond = lambda blocks: calls.append(blocks) or blocks
    record = enroll(channel, 300, SeededEntropy(4))
    assert calls == [b"".join(p.x for p in record.pairs)]


def test_enroll_refuses_an_answer_of_the_wrong_length():
    with pytest.raises(ChannelError, match="response bytes"):
        enroll(FnChannel("s", lambda b: b[:4]), 4, SeededEntropy(0))


def test_enroll_rejects_zero_pairs():
    with pytest.raises(ValueError):
        enroll(FnChannel("s", lambda b: b), 0, SeededEntropy(0))


# ---------------------------------------------------------------------------
# authentication

def test_authenticate_accepts_the_real_device(tmp_path, make_device):
    channel = booted_channel(make_device)
    store = stored(tmp_path, enroll(channel, 8, SeededEntropy(0)))
    for _ in range(8):
        assert authenticate(channel, store) is AuthResult.ACCEPTED
    assert store.load("dev01").unused_count == 0
    assert authenticate(channel, store) is AuthResult.EXHAUSTED


def test_authenticate_consumes_lowest_unused_first(tmp_path, make_device):
    channel = booted_channel(make_device)
    store = stored(tmp_path, enroll(channel, 4, SeededEntropy(0)))
    authenticate(channel, store)
    assert [p.used for p in store.load("dev01").pairs] == [True, False, False, False]
    authenticate(channel, store)
    assert [p.used for p in store.load("dev01").pairs] == [True, True, False, False]


def test_impostor_is_rejected_and_still_burns_the_pair(tmp_path, make_device):
    real = booted_channel(make_device, serial="real", seed=1)
    store = stored(tmp_path, enroll(real, 3, SeededEntropy(0)))
    impostor = FnChannel("real", lambda b: bytes(8))
    assert authenticate(impostor, store) is AuthResult.REJECTED
    assert store.load("real").unused_count == 2


def test_dead_channel_is_rejected_and_still_burns_the_pair(tmp_path, make_device):
    real = booted_channel(make_device)
    store = stored(tmp_path, enroll(real, 2, SeededEntropy(0)))
    assert authenticate(DeadChannel("dev01"), store) is AuthResult.REJECTED
    assert authenticate(DeadChannel("dev01"), store, inverse=True) is AuthResult.REJECTED
    assert authenticate(real, store) is AuthResult.EXHAUSTED


def test_inverse_authentication_accepts_the_real_device(tmp_path, make_device):
    channel = booted_channel(make_device)
    store = stored(tmp_path, enroll(channel, 6, SeededEntropy(0)))
    for _ in range(6):
        assert authenticate(channel, store, inverse=True) is AuthResult.ACCEPTED
    assert authenticate(channel, store, inverse=True) is AuthResult.EXHAUSTED


def test_forward_cannot_tell_a_bijection_from_an_involution(tmp_path):
    # counter map: bijective, deterministic, emphatically not an involution
    def h(block):
        v = int.from_bytes(block, "big")
        return ((v + 1) % 2**64).to_bytes(8, "big")

    channel = FnChannel("s", h)
    store = stored(tmp_path, enroll(channel, 4, SeededEntropy(3)))
    assert authenticate(channel, store) is AuthResult.ACCEPTED
    # h(h(x)) = x + 2 != x, so the reversed handshake exposes it
    assert authenticate(channel, store, inverse=True) is AuthResult.REJECTED
    assert authenticate(channel, store, inverse=True) is AuthResult.REJECTED


def test_exhausted_record_never_touches_the_channel(tmp_path, monkeypatch):
    calls = []

    def spy(block):
        calls.append(block)
        return block

    store = stored(tmp_path, UirRecord(serial="s", params=SucParams(), created_at="t"))
    monkeypatch.setattr(store, "mark_used", lambda *use: calls.append(use))  # nor uses a pair
    assert authenticate(FnChannel("s", spy), store) is AuthResult.EXHAUSTED
    assert calls == []


def test_the_use_is_fsynced_before_the_challenge_is_sent(tmp_path, monkeypatch):
    events = []
    store = stored(tmp_path, enroll(FnChannel("s", lambda b: b), 2, SeededEntropy(0)))
    path = store._path("s")
    fsync = os.fsync

    def spy_fsync(fd):
        fsync(fd)
        with open(path) as f:
            events.append(("fsync", os.fstat(fd).st_ino, f.read().splitlines()[-1]))

    def spy_respond(block):
        events.append(("respond", block))
        return block

    monkeypatch.setattr(os, "fsync", spy_fsync)
    assert authenticate(FnChannel("s", spy_respond), store) is AuthResult.ACCEPTED
    first = store.load("s").pairs[0].x
    assert events == [("fsync", os.stat(path).st_ino, "used: 0"), ("respond", first)]


def test_authentication_appends_a_use_and_never_rewrites_the_pairs(tmp_path):
    channel = FnChannel("s", lambda b: b)
    store = stored(tmp_path, enroll(channel, 3, SeededEntropy(0)))
    path = store._path("s")
    inode = os.stat(path).st_ino
    with open(path) as f:
        enrolled = f.read()
    for _ in range(4):
        authenticate(channel, store)
    assert os.stat(path).st_ino == inode
    with open(path) as f:
        assert f.read() == enrolled + "used: 0\nused: 1\nused: 2\n"
    assert sorted(os.listdir(store.directory)) == ["s.uir"]


def test_concurrent_authentications_of_one_serial_use_distinct_pairs(tmp_path):
    sent, results = [], []

    def echo(block):
        sent.append(block)
        return block

    channel = FnChannel("s", echo)
    store = stored(tmp_path, enroll(FnChannel("s", lambda b: b), 24, SeededEntropy(0)))
    threads = [
        threading.Thread(target=lambda: results.append(authenticate(channel, store)))
        for _ in range(16)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [AuthResult.ACCEPTED] * 16
    assert len(set(sent)) == 16  # a lost update would send a challenge twice
    assert store.load("s").unused_count == 8


# ---------------------------------------------------------------------------
# other processes on one store

# Each child imports, prints "ready", then waits for a line on stdin, so
# a test can release several at once.
AUTH_CHILD = """
import sys
from sucsim.authority import UirStore, authenticate
class Echo:
    serial = "s"
    def respond(self, block):
        print("sent", block.hex())
        return block
print("ready", flush=True)
sys.stdin.readline()
for _ in range(int(sys.argv[2])):
    print(authenticate(Echo(), UirStore(sys.argv[1])).value, flush=True)
"""

CREATE_CHILD = """
import sys
from sucsim.authority import UirStore, enroll
from sucsim.entropy import SeededEntropy
from sucsim.errors import EnrollmentError
class Echo:
    serial = "s"
    def respond(self, blocks):
        return blocks
record = enroll(Echo(), 4096, SeededEntropy(0))
print("ready", flush=True)
sys.stdin.readline()
try:
    UirStore(sys.argv[1]).create(record)
    print("created")
except EnrollmentError as exc:
    print(exc)
"""


@pytest.fixture
def children():
    """Start n copies of a child script, each past its imports and waiting."""
    procs = []

    def start(script, *args, n=1):
        started = [
            subprocess.Popen(
                [sys.executable, "-c", script, *map(str, args)],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(n)
        ]
        procs.extend(started)
        for proc in started:
            assert proc.stdout.readline() == "ready\n"
        return started

    yield start
    for proc in procs:
        with proc:  # closes the pipes and reaps the child
            proc.kill()


def release(procs):
    for proc in procs:
        proc.stdin.write("go\n")
        proc.stdin.flush()


def outputs(procs):
    return [proc.communicate(timeout=60)[0].splitlines() for proc in procs]


def test_a_held_record_lock_stops_another_process(tmp_path, children):
    store = stored(tmp_path, enroll(FnChannel("s", lambda b: b), 2, SeededEntropy(0)))
    with open(store._path("s")) as f:
        enrolled = f.read()
    first = store.load("s").pairs[0].x.hex()
    lock = store.lock_for("s")
    lock.acquire()
    try:
        (proc,) = children(AUTH_CHILD, store.directory, 1)
        release([proc])
        time.sleep(0.5)
        assert proc.poll() is None
        with open(store._path("s")) as f:
            assert f.read() == enrolled  # no use appended under the held lock
    finally:
        lock.release()
    assert outputs([proc]) == [[f"sent {first}", "accepted"]]
    with open(store._path("s")) as f:
        assert f.read() == enrolled + "used: 0\n"


def test_two_processes_authenticating_one_record_use_distinct_pairs(tmp_path, children):
    store = stored(tmp_path, enroll(FnChannel("s", lambda b: b), 250, SeededEntropy(0)))
    procs = children(AUTH_CHILD, store.directory, 100, n=2)
    release(procs)
    lines = [line for out in outputs(procs) for line in out]
    sent = [line for line in lines if line.startswith("sent ")]
    assert sorted(set(lines) - set(sent)) == ["accepted"]
    assert len(lines) - len(sent) == 200
    assert len(set(sent)) == 200  # a lost update would send a challenge twice
    assert store.load("s").unused_count == 50


def test_two_processes_creating_one_serial_enroll_it_once(tmp_path, children):
    store = UirStore(tmp_path / "uir")
    procs = children(CREATE_CHILD, store.directory, n=2)
    release(procs)
    assert sorted(outputs(procs)) == [["created"], ["serial 's' already enrolled"]]
    assert os.listdir(store.directory) == ["s.uir"]  # no staging file left behind
    assert len(store.load("s").pairs) == 4096


# ---------------------------------------------------------------------------
# record store

def test_store_roundtrip_preserves_everything(tmp_path, make_device):
    channel = booted_channel(make_device)
    record = enroll(channel, 5, SeededEntropy(0), params=channel._dev.envm.params)
    store = UirStore(tmp_path / "uir")
    store.create(record)
    back = store.load("dev01")
    assert back.serial == record.serial
    assert back.created_at == record.created_at
    assert back.params == record.params
    assert [(p.x, p.y, p.used) for p in back.pairs] == [
        (p.x, p.y, p.used) for p in record.pairs
    ]


def test_record_file_bytes_are_pinned(tmp_path):
    # computed when each pair was a CrPair object, rendered row by row
    def reverse(block):
        return block[::-1]  # an involution, so the inverse handshake passes

    channel = FnChannel("s", reverse)
    params = SucParams(rounds=15, feistel_r=3, pool_digest=bytes(range(32)))
    record = enroll(channel, 64, SeededEntropy(0), params=params)
    record.created_at = "2021-01-01T00:00:00Z"
    store = stored(tmp_path, record)
    assert authenticate(channel, store) is AuthResult.ACCEPTED
    assert authenticate(channel, store, inverse=True) is AuthResult.ACCEPTED
    with open(store._path("s"), "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    assert digest == "344ab5159571b5b4d067609a80ac46eaf34f89b36c417691c498bf8e5d3d3c77"


def test_store_save_refuses_a_record_with_a_used_pair(tmp_path):
    record = enroll(FnChannel("s", lambda b: b), 3, SeededEntropy(0))
    record.used = 1
    store = UirStore(tmp_path / "uir")
    with pytest.raises(ValueError, match="used pair"):
        store.create(record)
    assert not store.has("s")


def test_store_save_persists_consumption(tmp_path, make_device):
    channel = booted_channel(make_device)
    store = stored(tmp_path, enroll(channel, 4, SeededEntropy(0)))
    authenticate(channel, store)
    assert UirStore(tmp_path / "uir").load("dev01").unused_count == 3


def test_store_refuses_duplicate_serials(tmp_path):
    store = UirStore(tmp_path / "uir")
    record = enroll(FnChannel("x", lambda b: b), 1, SeededEntropy(0))
    store.create(record)
    with pytest.raises(EnrollmentError, match="already enrolled"):
        store.create(record)


def test_store_missing_serial(tmp_path):
    with pytest.raises(EnrollmentError, match="no record"):
        UirStore(tmp_path / "uir").load("nobody")


def assert_authenticate_refuses(store, serial):
    """authenticate fails closed on the record: EnrollmentError, no
    challenge sent, and the file byte for byte as it was."""
    path = store._path(serial)
    with open(path, "rb") as f:
        before = f.read()
    sent = []
    with pytest.raises(EnrollmentError):
        authenticate(FnChannel(serial, lambda b: sent.append(b) or b), store)
    assert sent == []
    with open(path, "rb") as f:
        assert f.read() == before  # no `used:` line appended


def test_store_rejects_malformed_records(tmp_path):
    store = UirStore(tmp_path / "uir")
    path = store._path("bad")
    head = "serial: bad\ncreated_at: t\nrounds: 15\nfeistel_r: 3\npool_digest: \n"
    pair = "pair: 0001020304050607 08090a0b0c0d0e0f\n"
    with open(path, "w") as f:
        f.write(head + pair + pair + "used: 0\n")
    assert [p.used for p in store.load("bad").pairs] == [True, False]
    cases = [
        "garbage\n",
        "serial: bad\ncreated_at: t\nrounds: 15\nfeistel_r: 3\n",  # no digest
        "serial: other\ncreated_at: t\nrounds: 15\nfeistel_r: 3\npool_digest: 00\n",
        "serial: bad\ncreated_at: t\nrounds: abc\nfeistel_r: 3\npool_digest: \n",
        "serial: bad\ncreated_at: t\nrounds: 0\nfeistel_r: 3\npool_digest: \n",
        "serial: bad\ncreated_at: t\nrounds: 15\nfeistel_r: 3\npool_digest: 123\n",
        "created_at: t\nserial: bad\nrounds: 15\nfeistel_r: 3\npool_digest: \n",
        head + pair.replace("\n", " 0\n"),  # a per-row use flag
        head + pair + pair + "used: 1\n",  # out of order
        head + pair + pair + "used: 0\nused: 0\n",  # duplicate
        head + pair + "used: 0\nused: 1\n",  # more uses than pairs
        head + "used: 0\n",
        head + pair + "used: 0\n" + pair,  # a pair after a use
        head + pair + "used: 00\n",
        head + pair + "used: +0\n",
        head + pair + "used: 0 \n",
        head + pair + pair + "used: 0\nused: 1",  # torn final line
        head + pair + pair + "used: 0\nuse",
        head + pair + pair + "used: 0\n\n",
    ]
    for text in cases:
        with open(path, "w") as f:
            f.write(text)
        with pytest.raises(EnrollmentError):
            store.load("bad")
        assert_authenticate_refuses(store, "bad")


@pytest.mark.parametrize("serial", ["../escaped", "", ".hidden", "a/b", "x" * 65])
def test_store_refuses_unsafe_serials(tmp_path, serial):
    store = UirStore(tmp_path / "uir")
    record = enroll(FnChannel(serial, lambda b: b), 1, SeededEntropy(0))
    with pytest.raises(EnrollmentError, match="invalid serial"):
        store.create(record)
    assert [p.name for p in tmp_path.rglob("*")] == ["uir"]


@pytest.mark.parametrize(
    "row",
    [
        "pair: 0123456789ABCDEF 0123456789abcdef",
        "pair: 0123456789abcdef0123456789abcdef",
        "pair: 0123456789abcde 0123456789abcdef",
    ],
    ids=["uppercase", "no-space", "short"],
)
def test_a_bad_pair_row_deep_in_a_record_fails_closed(tmp_path, row):
    store = UirStore(tmp_path / "uir")
    store.create(enroll(FnChannel("s", lambda b: b), 1024, SeededEntropy(0)))
    path = store._path("s")
    lines = open(path).read().split("\n")
    assert len(store.load("s").pairs) == 1024
    lines[5 + 700] = row  # after the five header lines
    with open(path, "w") as f:
        f.write("\n".join(lines))
    with pytest.raises(EnrollmentError, match="pair row 700 is malformed"):
        store.load("s")
    assert_authenticate_refuses(store, "s")


def test_the_pair_row_check_is_as_strict_as_the_row_pattern():
    # every one-byte change, deletion and insertion in a block of three rows
    rows = b"pair: 0123456789abcdef fedcba9876543210\n" * 3
    digits = (*range(6, 22), *range(23, 39))  # a row's hex columns

    def good(i, v):
        return v == rows[i] or i % 40 in digits and v in b"0123456789abcdef"

    cases = [
        (rows[:i] + bytes([v]) + rows[i + 1 :], i, good(i, v))
        for i in range(len(rows))
        for v in range(256)
    ]
    cases += [(rows[:i] + rows[i + 1 :], i, False) for i in range(len(rows))]
    cases += [(rows[:i] + b"0" + rows[i:], i, False) for i in range(len(rows) + 1)]
    for block, i, ok in cases:
        assert (authority._PAIR_ROWS.fullmatch(block.decode("latin-1")) is not None) == ok
        if ok:
            expected = bytes.fromhex(block.decode().replace("pair: ", ""))
            assert authority._pair_rows(block) == expected
        else:
            with pytest.raises(ValueError, match=f"pair row {i // 40} is malformed"):
                authority._pair_rows(block)


def test_load_and_authenticate_build_no_pair_objects(tmp_path, monkeypatch):
    store = stored(tmp_path, enroll(FnChannel("s", lambda b: b), 8, SeededEntropy(0)))
    loaded = []
    load = UirStore.load

    def spy_load(self, serial):
        loaded.append(load(self, serial))
        return loaded[-1]

    monkeypatch.setattr(UirStore, "load", spy_load)
    assert authenticate(FnChannel("s", lambda b: b), store) is AuthResult.ACCEPTED
    (record,) = loaded
    assert "pairs" not in vars(record)  # the view was never built
    assert (record.pair_count, record.used, record.unused_count) == (8, 0, 8)
    back = store.load("s")
    assert (back.used, back.unused_count, back.payload_bytes) == (1, 7, 128)
    assert [p.used for p in back.pairs] == [True] + [False] * 7
    assert b"".join(p.x + p.y for p in back.pairs) == back.pair_bytes


def test_store_pair_lines_are_strict(tmp_path):
    store = UirStore(tmp_path / "uir")
    record = enroll(FnChannel("s", lambda b: b), 2, SeededEntropy(0))
    store.create(record)
    path = store._path("s")
    text = open(path).read()
    # a pair line that fails the canonical-hex pattern must be an error,
    # not silently reinterpreted as a header field
    with open(path, "w") as f:
        f.write(text.replace("pair: ", "pair: 0X", 1))
    with pytest.raises(EnrollmentError):
        store.load("s")


def test_store_stats(tmp_path, make_device):
    channel = booted_channel(make_device)
    store = stored(tmp_path, enroll(channel, 4, SeededEntropy(0)))
    authenticate(channel, store)
    authenticate(channel, store)
    for stray in (".uir", "a b.uir"):  # stems that are not serials
        (tmp_path / "uir" / stray).write_text("not a record\n")
    assert store.stats() == [("dev01", 4, 2, 2)]
    assert store.serials() == ["dev01"]
    assert store.has("dev01") and not store.has("dev02")


# ---------------------------------------------------------------------------
# local channel

def test_local_channel_requires_a_booted_device(make_device):
    d, serial = make_device()
    dev = device.load_device(d, serial)  # not booted
    with pytest.raises(ChannelError):
        LocalDeviceChannel(dev).respond(bytes(8))


def test_local_channel_answers_many_blocks_as_apply_answers_each(make_device):
    channel = booted_channel(make_device)
    xs = SeededEntropy(5).read(8 * 100)
    ys = [apply(channel._dev.loaded, xs[i : i + 8]) for i in range(0, len(xs), 8)]
    assert channel.respond(xs) == b"".join(ys)


def test_local_channel_is_involutive(make_device):
    channel = booted_channel(make_device)
    x = bytes.fromhex("deadbeef01020304")
    assert channel.respond(channel.respond(x)) == x
