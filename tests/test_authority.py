"""Challenge-response bookkeeping: enrollment, single-use pairs, records.

Key behavioral claims:
  * a selected pair is consumed no matter how the handshake ends
  * forward authentication cannot distinguish an involution from any
    other bijection, the inverse direction can
"""

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
    """Channel backed by an arbitrary byte-block function."""

    def __init__(self, serial, fn):
        self.serial = serial
        self.fn = fn

    def respond(self, block):
        return self.fn(block)


class DeadChannel:
    def __init__(self, serial):
        self.serial = serial

    def respond(self, block):
        raise ChannelError("no device")


def booted_channel(make_device, **kw):
    d, serial = make_device(**kw)
    return LocalDeviceChannel(device.boot(d, serial))


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


def test_enroll_rejects_zero_pairs():
    with pytest.raises(ValueError):
        enroll(FnChannel("s", lambda b: b), 0, SeededEntropy(0))


# ---------------------------------------------------------------------------
# authentication

def test_authenticate_accepts_the_real_device(make_device):
    channel = booted_channel(make_device)
    record = enroll(channel, 8, SeededEntropy(0))
    for _ in range(8):
        assert authenticate(channel, record) is AuthResult.ACCEPTED
    assert record.unused_count == 0
    assert authenticate(channel, record) is AuthResult.EXHAUSTED


def test_authenticate_consumes_lowest_unused_first(make_device):
    channel = booted_channel(make_device)
    record = enroll(channel, 4, SeededEntropy(0))
    authenticate(channel, record)
    assert [p.used for p in record.pairs] == [True, False, False, False]
    authenticate(channel, record)
    assert [p.used for p in record.pairs] == [True, True, False, False]


def test_authenticate_random_selection_consumes_everything(make_device):
    channel = booted_channel(make_device)
    record = enroll(channel, 6, SeededEntropy(0))
    picker = SeededEntropy(5)
    for _ in range(6):
        assert authenticate(channel, record, entropy=picker) is AuthResult.ACCEPTED
    assert record.unused_count == 0


def test_impostor_is_rejected_and_still_burns_the_pair(make_device):
    real = booted_channel(make_device, serial="real", seed=1)
    record = enroll(real, 3, SeededEntropy(0))
    impostor = FnChannel("real", lambda b: bytes(8))
    assert authenticate(impostor, record) is AuthResult.REJECTED
    assert record.unused_count == 2


def test_dead_channel_is_rejected_and_still_burns_the_pair(make_device):
    real = booted_channel(make_device)
    record = enroll(real, 2, SeededEntropy(0))
    assert authenticate(DeadChannel("dev01"), record) is AuthResult.REJECTED
    assert authenticate(DeadChannel("dev01"), record, inverse=True) is AuthResult.REJECTED
    assert authenticate(real, record) is AuthResult.EXHAUSTED


def test_inverse_authentication_accepts_the_real_device(make_device):
    channel = booted_channel(make_device)
    record = enroll(channel, 6, SeededEntropy(0))
    for _ in range(6):
        assert authenticate(channel, record, inverse=True) is AuthResult.ACCEPTED
    assert authenticate(channel, record, inverse=True) is AuthResult.EXHAUSTED


def test_forward_cannot_tell_a_bijection_from_an_involution():
    # counter map: bijective, deterministic, emphatically not an involution
    def h(block):
        v = int.from_bytes(block, "big")
        return ((v + 1) % 2**64).to_bytes(8, "big")

    channel = FnChannel("s", h)
    record = enroll(channel, 4, SeededEntropy(3))
    assert authenticate(channel, record) is AuthResult.ACCEPTED
    # h(h(x)) = x + 2 != x, so the reversed handshake exposes it
    assert authenticate(channel, record, inverse=True) is AuthResult.REJECTED
    assert authenticate(channel, record, inverse=True) is AuthResult.REJECTED


def test_exhausted_record_never_touches_the_channel():
    calls = []

    def spy(block):
        calls.append(block)
        return block

    record = UirRecord(serial="s", params=SucParams(), created_at="t")
    assert authenticate(FnChannel("s", spy), record) is AuthResult.EXHAUSTED
    assert calls == []


# ---------------------------------------------------------------------------
# record store

def test_store_roundtrip_preserves_everything(tmp_path, make_device):
    channel = booted_channel(make_device)
    record = enroll(channel, 5, SeededEntropy(0), params=channel._dev.envm.params)
    authenticate(channel, record)
    store = UirStore(tmp_path / "uir")
    store.create(record)
    back = store.load("dev01")
    assert back.serial == record.serial
    assert back.created_at == record.created_at
    assert back.params == record.params
    assert [(p.x, p.y, p.used) for p in back.pairs] == [
        (p.x, p.y, p.used) for p in record.pairs
    ]


def test_store_save_persists_consumption(tmp_path, make_device):
    channel = booted_channel(make_device)
    store = UirStore(tmp_path / "uir")
    store.create(enroll(channel, 4, SeededEntropy(0)))
    record = store.load("dev01")
    authenticate(channel, record)
    store.save(record)
    assert store.load("dev01").unused_count == 3


def test_store_refuses_duplicate_serials(tmp_path):
    store = UirStore(tmp_path / "uir")
    record = enroll(FnChannel("x", lambda b: b), 1, SeededEntropy(0))
    store.create(record)
    with pytest.raises(EnrollmentError, match="already enrolled"):
        store.create(record)


def test_store_missing_serial(tmp_path):
    with pytest.raises(EnrollmentError, match="no record"):
        UirStore(tmp_path / "uir").load("nobody")


def test_store_rejects_malformed_records(tmp_path):
    store = UirStore(tmp_path / "uir")
    path = store._path("bad")
    cases = [
        "garbage\n",
        "serial: bad\ncreated_at: t\nrounds: 15\nfeistel_r: 3\n",  # no digest
        "serial: other\ncreated_at: t\nrounds: 15\nfeistel_r: 3\npool_digest: 00\n",
        "serial: bad\ncreated_at: t\nrounds: abc\nfeistel_r: 3\npool_digest: \n",
        "serial: bad\ncreated_at: t\nrounds: 0\nfeistel_r: 3\npool_digest: \n",
        "serial: bad\ncreated_at: t\nrounds: 15\nfeistel_r: 3\npool_digest: 123\n",
        "created_at: t\nserial: bad\nrounds: 15\nfeistel_r: 3\npool_digest: \n",
    ]
    for text in cases:
        with open(path, "w") as f:
            f.write(text)
        with pytest.raises(EnrollmentError):
            store.load("bad")


@pytest.mark.parametrize("serial", ["../escaped", "", ".hidden", "a/b", "x" * 65])
def test_store_refuses_unsafe_serials(tmp_path, serial):
    store = UirStore(tmp_path / "uir")
    record = enroll(FnChannel(serial, lambda b: b), 1, SeededEntropy(0))
    with pytest.raises(EnrollmentError, match="invalid serial"):
        store.create(record)
    assert [p.name for p in tmp_path.rglob("*")] == ["uir"]


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
    store = UirStore(tmp_path / "uir")
    record = enroll(channel, 4, SeededEntropy(0))
    authenticate(channel, record)
    authenticate(channel, record)
    store.create(record)
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
        LocalDeviceChannel(dev)


def test_local_channel_is_involutive(make_device):
    channel = booted_channel(make_device)
    x = bytes.fromhex("deadbeef01020304")
    assert channel.respond(channel.respond(x)) == x
