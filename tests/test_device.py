"""Device lifecycle: manufacture, one-time personalization, boot, storage.

The storage format is deliberately rigid (fixed line order, lowercase
hex, decimal integers, authenticated payload), so any single corrupted
byte in a personalized record must surface as IntegrityError. The
randomized tamper sweep exercises that claim across the whole file.
"""

import os
import random
from pathlib import Path

import pytest

from sucsim import device
from sucsim.cipher import SucParams, apply, draw_instance
from sucsim.entropy import SeededEntropy
from sucsim.errors import DeviceError, IntegrityError, LifecycleError
from sucsim.sbox4 import read_pool, write_pool
from sucsim.sbox8 import FeistelSpec


def fresh(tmp_path, serial="dev01", seed=1):
    d = str(tmp_path)
    device.manufacture(d, serial, SeededEntropy(seed))
    return d, device.load_device(d, serial)


def personalize(d, dev, pool, seed=2, rounds=15, feistel_r=3):
    device.otpp(
        dev,
        pool,
        SucParams(rounds=rounds, feistel_r=feistel_r),
        SeededEntropy(seed),
    )
    device.save_envm(dev, d)
    return dev


# ---------------------------------------------------------------------------
# keys

def test_device_key_is_deterministic(tmp_path):
    _, dev = fresh(tmp_path)
    assert device.derive_device_key(dev) == device.derive_device_key(dev)
    assert len(device.derive_device_key(dev)) == 32


def test_device_key_binds_the_serial(tmp_path):
    d, dev = fresh(tmp_path, "aaa", seed=1)
    other = device.DeviceState(serial="bbb", silicon_seed=dev.silicon_seed, envm=device.Envm())
    assert device.derive_device_key(dev) != device.derive_device_key(other)


def test_device_keys_distinct_across_devices(tmp_path):
    keys = set()
    for i in range(200):
        device.manufacture(str(tmp_path), f"d{i:03}", SeededEntropy(i))
        dev = device.load_device(str(tmp_path), f"d{i:03}")
        keys.add(device.derive_device_key(dev))
    assert len(keys) == 200


def test_device_key_requires_the_fingerprint():
    dev = device.DeviceState(serial="x", silicon_seed=b"", envm=device.Envm())
    with pytest.raises(DeviceError, match="fingerprint"):
        device.derive_device_key(dev)


# ---------------------------------------------------------------------------
# sealing

def test_seal_unseal_roundtrip():
    key = SeededEntropy(1).read(32)
    blob = device.seal(key, b"payload" * 10, b"aad", SeededEntropy(2))
    assert device.unseal(key, blob, b"aad") == b"payload" * 10


def test_unseal_rejects_any_modification():
    key = SeededEntropy(1).read(32)
    blob = device.seal(key, b"secret tables", b"aad", SeededEntropy(2))
    bad_ct = device.SealedBlob(blob.nonce, b"\x00" + blob.ciphertext[1:], blob.tag)
    bad_tag = device.SealedBlob(blob.nonce, blob.ciphertext, bytes(16))
    bad_nonce = device.SealedBlob(bytes(12), blob.ciphertext, blob.tag)
    for broken in (bad_ct, bad_tag, bad_nonce):
        with pytest.raises(IntegrityError):
            device.unseal(key, broken, b"aad")
    with pytest.raises(IntegrityError):
        device.unseal(key, blob, b"other aad")
    with pytest.raises(IntegrityError):
        device.unseal(SeededEntropy(9).read(32), blob, b"aad")


# ---------------------------------------------------------------------------
# lifecycle

def test_manufacture_creates_blank_device(tmp_path):
    d, dev = fresh(tmp_path)
    assert dev.envm.lifecycle == device.LIFECYCLE_BLANK
    assert os.path.exists(device.silicon_path(d, "dev01"))
    assert os.path.exists(device.envm_path(d, "dev01"))
    with pytest.raises(DeviceError, match="already exists"):
        device.manufacture(d, "dev01", SeededEntropy(5))


def test_personalization_flips_the_lifecycle(tmp_path, pool32):
    d, dev = fresh(tmp_path)
    personalize(d, dev, pool32)
    assert dev.envm.lifecycle == device.LIFECYCLE_PERSONALIZED
    assert dev.envm.params.pool_digest == pool32.digest


def test_personalization_is_one_time(tmp_path, pool32):
    d, dev = fresh(tmp_path)
    personalize(d, dev, pool32)
    with pytest.raises(LifecycleError, match="already personalized"):
        device.otpp(dev, pool32, SucParams(), SeededEntropy(3))


def test_personalization_checks_the_pool_digest(tmp_path, pool32):
    d, dev = fresh(tmp_path)
    params = SucParams(pool_digest=b"\x00" * 32)
    with pytest.raises(DeviceError, match="pool"):
        device.otpp(dev, pool32, params, SeededEntropy(3))


def test_personalization_entropy_accounting(tmp_path, pool256):
    # 16 one-byte index draws for the tables, then the 12-byte seal nonce
    d, dev = fresh(tmp_path)
    e = SeededEntropy(0)
    device.otpp(dev, pool256, SucParams(feistel_r=3), e)
    assert e.index_draws == 16
    assert e.bits_consumed == 128
    assert e.rejections == 0
    assert e.bytes_consumed == 16 + device.NONCE_BYTES


def test_personalization_entropy_accounting_small_pool(tmp_path, pool32):
    d, dev = fresh(tmp_path)
    e = SeededEntropy(0)
    device.otpp(dev, pool32, SucParams(feistel_r=3), e)
    assert e.index_draws == 16
    assert e.bits_consumed == 16 * 5
    assert e.bytes_consumed == 10 + device.NONCE_BYTES


def test_personalized_device_answers_the_known_challenge(tmp_path, pool256):
    # same pool and draw seed as the cipher known-answer pair
    d, dev = fresh(tmp_path)
    personalize(d, dev, pool256, seed=0)
    booted = device.boot(d, "dev01")
    assert apply(booted.loaded, bytes(8)).hex() == "8e851f7dae8e0044"


def test_boot_restores_the_same_instance(tmp_path, pool32):
    d, dev = fresh(tmp_path)
    personalize(d, dev, pool32)
    blobs = {device.boot(d, "dev01").loaded.tables_blob() for _ in range(5)}
    assert len(blobs) == 1


def test_every_table_is_bytes_from_the_pool_file_to_a_booted_device(tmp_path, pool32):
    write_pool(pool32, tmp_path / "pool.bin")
    pool = read_pool(tmp_path / "pool.bin")
    assert type(pool.blob) is bytes
    spec = FeistelSpec(r=3, free=(list(range(16)), pool.blob[:16]))
    assert [type(t) for t in spec.free] == [bytes, bytes]
    drawn = draw_instance(pool, SucParams(), SeededEntropy(2))
    assert all(type(box.table) is bytes for box in drawn.sboxes)
    d, dev = fresh(tmp_path)
    personalize(d, dev, pool, seed=2)  # draws the same instance from the same stream
    booted = device.boot(d, "dev01").loaded
    assert all(type(box.table) is bytes for box in booted.sboxes)
    assert booted.tables_blob() == drawn.tables_blob()


def test_power_off_drops_volatile_state(tmp_path, pool32):
    d, dev = fresh(tmp_path)
    personalize(d, dev, pool32)
    device.reinit(dev)
    assert dev.loaded is not None
    device.power_off(dev)
    assert dev.loaded is None


def test_reinit_requires_personalization(tmp_path):
    d, dev = fresh(tmp_path)
    with pytest.raises(LifecycleError, match="not personalized"):
        device.reinit(dev)


@pytest.mark.parametrize("serial", ["../escaped", "", "a/b"])
def test_device_files_refuse_unsafe_serials(tmp_path, serial):
    with pytest.raises(DeviceError, match="invalid serial"):
        device.manufacture(str(tmp_path / "dev"), serial, SeededEntropy(1))
    assert list(tmp_path.iterdir()) == []


def test_boot_missing_files(tmp_path):
    with pytest.raises(DeviceError, match="fingerprint unavailable"):
        device.load_device(str(tmp_path), "ghost")


# ---------------------------------------------------------------------------
# storage format

def test_envm_file_is_stable_across_save_load_cycles(tmp_path, pool32):
    d, dev = fresh(tmp_path)
    personalize(d, dev, pool32)
    first = Path(device.envm_path(d, "dev01")).read_bytes()
    reloaded = device.load_device(d, "dev01")
    device.save_envm(reloaded, d)
    assert Path(device.envm_path(d, "dev01")).read_bytes() == first


def test_envm_never_stores_tables_in_the_clear(tmp_path, pool32):
    d, dev = fresh(tmp_path)
    personalize(d, dev, pool32)
    device.reinit(dev)
    blob = dev.loaded.tables_blob()
    raw = Path(device.envm_path(d, "dev01")).read_bytes()
    text = raw.decode("ascii")
    for off in range(0, len(blob) - 16, 64):
        window = blob[off : off + 16]
        assert window not in raw
        assert window.hex() not in text


def test_envm_serial_must_match_the_file(tmp_path, pool32):
    d, dev = fresh(tmp_path)
    personalize(d, dev, pool32)
    os.rename(device.envm_path(d, "dev01"), device.envm_path(d, "dev02"))
    os.rename(device.silicon_path(d, "dev01"), device.silicon_path(d, "dev02"))
    with pytest.raises(IntegrityError, match="serial"):
        device.load_device(d, "dev02")


# ---------------------------------------------------------------------------
# tamper detection

def test_single_byte_tamper_is_always_detected(tmp_path, pool32):
    d, dev = fresh(tmp_path)
    personalize(d, dev, pool32)
    path = device.envm_path(d, "dev01")
    pristine = Path(path).read_bytes()
    rng = random.Random(0)
    for _ in range(150):
        idx = rng.randrange(len(pristine))
        xor = rng.randrange(1, 256)
        device.tamper_envm(d, "dev01", idx, xor=xor)
        with pytest.raises(IntegrityError):
            device.boot(d, "dev01")
        with open(path, "wb") as f:
            f.write(pristine)
    # restored record still boots
    assert device.boot(d, "dev01").loaded is not None


@pytest.mark.parametrize(
    "index, table",
    [
        (3, bytes((x + 1) % 256 for x in range(256))),  # a permutation only
        (5, bytes(256)),  # not even a permutation
    ],
    ids=["3-permutation", "5-constant"],
)
def test_boot_refuses_sealed_tables_that_are_not_involutions(
    tmp_path, pool32, index, table
):
    d, dev = fresh(tmp_path)
    personalize(d, dev, pool32)
    tables = bytearray(device.reinit(dev).tables_blob())
    tables[256 * index : 256 * (index + 1)] = table
    key = device.derive_device_key(dev)
    aad = device._aad(dev.serial, dev.envm.params)
    dev.envm.blob = device.seal(key, bytes(tables), aad, SeededEntropy(3))
    device.save_envm(dev, d)
    with pytest.raises(IntegrityError, match=f"S-box {index} is not an involution"):
        device.boot(d, "dev01")


def test_silicon_tamper_breaks_unsealing(tmp_path, pool32):
    d, dev = fresh(tmp_path)
    personalize(d, dev, pool32)
    spath = device.silicon_path(d, "dev01")
    raw = bytearray(Path(spath).read_bytes())
    raw[7] ^= 0x20
    with open(spath, "wb") as f:
        f.write(raw)
    with pytest.raises(IntegrityError):
        device.boot(d, "dev01")


def test_tamper_helper_validates_arguments(tmp_path, pool32):
    d, dev = fresh(tmp_path)
    personalize(d, dev, pool32)
    with pytest.raises(ValueError):
        device.tamper_envm(d, "dev01", 0, xor=0)
