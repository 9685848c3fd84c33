"""Device lifecycle emulation.

A device is two files: `<serial>.silicon`, 32 read-only bytes standing
in for a memoryless hardware fingerprint, and `<serial>.envm`, a small
text record standing in for embedded non-volatile memory. The device
key is derived fresh from the silicon seed on every use and never
stored.

Personalization (one permitted run per device) draws S-box selections
from a pool, builds the eight involutive byte tables, seals the 2048
byte concatenation under the device key with authenticated encryption,
and flips the lifecycle flag. Every boot thereafter unseals the tables,
revalidates them, and loads the cipher instance into volatile state.

The envm record is a strict `records` file (fixed key order, lowercase
hex only) so that any single-byte corruption of the file is detected at
parse time or by the authentication tag.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from . import records
from .cipher import SucInstance, SucParams, draw_instance
from .entropy import EntropySource, SystemEntropy
from .errors import DeviceError, IntegrityError, LifecycleError
from .sbox4 import SBoxPool
from .sbox8 import SBox8

SILICON_BYTES = 32
NONCE_BYTES = 12
TAG_BYTES = 16
TABLES_BYTES = 2048  # 8 S-boxes x 256 bytes

LIFECYCLE_BLANK = "blank"
LIFECYCLE_PERSONALIZED = "personalized"

_KDF_SALT = b"sucsim.device-key.v1"
_HEAD_KEYS = ("serial", "lifecycle")
_SEALED_KEYS = ("rounds", "feistel_r", "pool_digest", "nonce", "ciphertext", "tag")


@dataclass(frozen=True)
class SealedBlob:
    nonce: bytes
    ciphertext: bytes
    tag: bytes


@dataclass
class Envm:
    """Persistent per-device record."""

    lifecycle: str = LIFECYCLE_BLANK
    params: SucParams | None = None
    blob: SealedBlob | None = None


@dataclass
class DeviceState:
    serial: str
    silicon_seed: bytes
    envm: Envm
    loaded: SucInstance | None = None


def _device_file(directory, serial: str, suffix: str) -> str:
    if not records.SERIAL_RE.match(serial):
        raise DeviceError(f"invalid serial {serial[:80]!r}")
    return os.path.join(directory, serial + suffix)


def silicon_path(directory, serial: str) -> str:
    return _device_file(directory, serial, ".silicon")


def envm_path(directory, serial: str) -> str:
    return _device_file(directory, serial, ".envm")


def derive_device_key(dev: DeviceState) -> bytes:
    """32-byte device key from the silicon seed, bound to the serial."""
    if not dev.silicon_seed:
        raise DeviceError(f"fingerprint unavailable for {dev.serial}")
    kdf = HKDF(
        algorithm=hashes.SHA256(),
        length=32,
        salt=_KDF_SALT,
        info=b"device-key:" + dev.serial.encode(),
    )
    return kdf.derive(dev.silicon_seed)


def _aad(serial: str, params: SucParams) -> bytes:
    # Binds serial and parameters to the sealed payload, so editing any
    # of them in the envm record breaks authentication.
    return b"|".join(
        [
            b"sucsim-envm-v1",
            serial.encode(),
            str(params.rounds).encode(),
            str(params.feistel_r).encode(),
            params.pool_digest.hex().encode(),
        ]
    )


def seal(key: bytes, data: bytes, aad: bytes, entropy: EntropySource) -> SealedBlob:
    if len(key) != 32:
        raise ValueError("key must be 32 bytes")
    nonce = entropy.read(NONCE_BYTES)
    out = AESGCM(key).encrypt(nonce, data, aad)
    return SealedBlob(nonce=nonce, ciphertext=out[:-TAG_BYTES], tag=out[-TAG_BYTES:])


def unseal(key: bytes, blob: SealedBlob, aad: bytes) -> bytes:
    try:
        return AESGCM(key).decrypt(blob.nonce, blob.ciphertext + blob.tag, aad)
    except InvalidTag as exc:
        raise IntegrityError("sealed tables failed authentication") from exc


def manufacture(
    directory, serial: str, entropy: EntropySource | None = None
) -> DeviceState:
    """Create the silicon fingerprint and a blank envm record on disk."""
    entropy = entropy or SystemEntropy()
    spath = silicon_path(directory, serial)
    if os.path.exists(spath):
        raise DeviceError(f"device {serial} already exists at {spath}")
    seed = entropy.read(SILICON_BYTES)
    os.makedirs(directory, exist_ok=True)
    with open(spath, "wb") as f:
        f.write(seed)
    dev = DeviceState(serial=serial, silicon_seed=seed, envm=Envm())
    save_envm(dev, directory)
    return dev


def otpp(
    dev: DeviceState,
    pool: SBoxPool,
    params: SucParams,
    entropy: EntropySource,
) -> DeviceState:
    """One-time personalization: select, build, seal, flip the lifecycle.

    Consumes exactly 4*(feistel_r+1) pool-index draws (plus the seal
    nonce) from `entropy`. Permitted once; a personalized device refuses.
    """
    if dev.envm.lifecycle != LIFECYCLE_BLANK:
        raise LifecycleError(f"device {dev.serial} already personalized")
    if params.pool_digest and params.pool_digest != pool.digest:
        raise DeviceError("pool does not match params.pool_digest")
    if not params.pool_digest:
        params = replace(params, pool_digest=pool.digest)

    instance = draw_instance(pool, params, entropy)
    key = derive_device_key(dev)
    blob = seal(key, instance.tables_blob(), _aad(dev.serial, params), entropy)
    dev.envm = Envm(lifecycle=LIFECYCLE_PERSONALIZED, params=params, blob=blob)
    return dev


def reinit(dev: DeviceState) -> SucInstance:
    """Per-boot reload: unseal, revalidate every table, publish `loaded`."""
    if dev.envm.lifecycle != LIFECYCLE_PERSONALIZED:
        raise LifecycleError(f"device {dev.serial} not personalized")
    key = derive_device_key(dev)
    data = unseal(key, dev.envm.blob, _aad(dev.serial, dev.envm.params))
    if len(data) != TABLES_BYTES:
        raise IntegrityError(f"sealed payload has {len(data)} bytes, want {TABLES_BYTES}")
    sboxes = tuple(SBox8(data[i : i + 256]) for i in range(0, TABLES_BYTES, 256))
    try:
        instance = SucInstance(sboxes=sboxes, params=dev.envm.params)
    except ValueError as exc:
        raise IntegrityError(f"sealed tables invalid: {exc}") from exc
    dev.loaded = instance
    return instance


def power_off(dev: DeviceState) -> None:
    """Drop volatile state; envm survives."""
    dev.loaded = None


# ---------------------------------------------------------------------------
# envm file format

def save_envm(dev: DeviceState, directory) -> None:
    fields = {"serial": dev.serial, "lifecycle": dev.envm.lifecycle}
    if dev.envm.lifecycle == LIFECYCLE_PERSONALIZED:
        p, b = dev.envm.params, dev.envm.blob
        fields.update(
            rounds=p.rounds,
            feistel_r=p.feistel_r,
            pool_digest=p.pool_digest.hex(),
            nonce=b.nonce.hex(),
            ciphertext=b.ciphertext.hex(),
            tag=b.tag.hex(),
        )
    records.write(envm_path(directory, dev.serial), fields, replace=True)


def _parse_envm(lines: list, serial: str) -> Envm:
    head = records.fields(lines[:2], _HEAD_KEYS)
    if head["serial"] != serial:
        raise ValueError(f"envm serial {head['serial']!r} does not match {serial!r}")
    if head["lifecycle"] == LIFECYCLE_BLANK:
        records.fields(lines[2:], ())  # a blank record ends after its head
        return Envm()
    if head["lifecycle"] != LIFECYCLE_PERSONALIZED:
        raise ValueError(f"envm lifecycle {head['lifecycle']!r} unknown")
    f = records.fields(lines[2:], _SEALED_KEYS)
    params = SucParams(
        rounds=records.int_field(f["rounds"]),
        feistel_r=records.int_field(f["feistel_r"]),
        pool_digest=records.hex_field(f["pool_digest"], 32),
    )
    blob = SealedBlob(
        nonce=records.hex_field(f["nonce"], NONCE_BYTES),
        ciphertext=records.hex_field(f["ciphertext"], TABLES_BYTES),
        tag=records.hex_field(f["tag"], TAG_BYTES),
    )
    return Envm(lifecycle=LIFECYCLE_PERSONALIZED, params=params, blob=blob)


def load_device(directory, serial: str) -> DeviceState:
    spath = silicon_path(directory, serial)
    try:
        with open(spath, "rb") as f:
            seed = f.read()
    except FileNotFoundError:
        raise DeviceError(f"fingerprint unavailable: {spath} missing") from None
    if len(seed) != SILICON_BYTES:
        raise DeviceError(f"silicon file {spath} has wrong size")

    epath = envm_path(directory, serial)
    try:
        envm = _parse_envm(records.read(epath), serial)
    except FileNotFoundError:
        raise DeviceError(f"envm record missing: {epath}") from None
    except ValueError as exc:
        raise IntegrityError(f"envm record invalid: {exc}") from exc
    return DeviceState(serial=serial, silicon_seed=seed, envm=envm)


def boot(directory, serial: str) -> DeviceState:
    """Load device files and run reinitialization."""
    dev = load_device(directory, serial)
    reinit(dev)
    return dev


def tamper_envm(directory, serial: str, byte_index: int, xor: int = 0xFF) -> None:
    """Test helper: flip one byte of the envm record in place."""
    if not 1 <= xor <= 255:
        raise ValueError("xor must be a nonzero byte value")
    path = envm_path(directory, serial)
    with open(path, "rb") as f:
        raw = bytearray(f.read())
    if not 0 <= byte_index < len(raw):
        raise ValueError(f"byte index {byte_index} outside file of {len(raw)} bytes")
    raw[byte_index] ^= xor
    with open(path, "wb") as f:
        f.write(raw)
