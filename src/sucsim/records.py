"""Strict `key: value` text records.

Both files the package keeps on disk use this format: the device's
`<serial>.envm` (sealed S-box tables) and the authority's `<serial>.uir`
(challenge-response pairs). A record is ASCII text, one `key: value`
line per field (one per row of a repeated field) in a fixed order,
every line ending in a newline and no blank lines. Byte fields are
lowercase hex of an exact length and integers are plain decimal, so the
content of a record has exactly one spelling and a changed byte cannot
parse back to the same values.

Every malformed input raises ValueError; callers map it to their own
error type. Files are written whole atomically (write a uniquely named
sibling, then rename or link it into place), so a reader never sees half
a record; `append` adds one line in place and fsyncs it.
"""

from __future__ import annotations

import os
import re

# A serial names files on disk and travels in HELLO frames, so it must
# be a plain file name stem: no separators, no leading dot, bounded.
SERIAL_RE = re.compile(r"\A[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def write(path: str, fields: dict, *, replace: bool) -> None:
    """Atomically write a `key: value` line per field, in dict order, to path
    (a list value gives one line per row, none if empty): over a file there
    if replace, else FileExistsError."""
    lines = []
    for key, value in fields.items():
        if not isinstance(value, list):
            lines.append(f"{key}: {value}")
        elif value:  # one join, not one more format per row: records run to 1000s of rows
            lines.append(f"{key}: " + f"\n{key}: ".join(value))
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"  # concurrent writers never share one
    try:
        with open(tmp, "x", encoding="ascii") as f:
            f.write("\n".join(lines) + "\n")
        (os.replace if replace else os.link)(tmp, path)
    finally:
        if os.path.lexists(tmp):  # it is gone once renamed
            os.unlink(tmp)


def append(path: str, key: str, value) -> None:
    """Append one `key: value` line to the record at path and fsync it,
    so the line is on disk when this returns."""
    with open(path, "a", encoding="ascii") as f:
        f.write(f"{key}: {value}\n")
        f.flush()
        os.fsync(f.fileno())


def read(path: str) -> list:
    """Lines of the record at path. FileNotFoundError passes through."""
    with open(path, "rb") as f:
        text = f.read().decode("ascii")  # UnicodeDecodeError is a ValueError
    if not text.endswith("\n"):
        raise ValueError("record does not end with a newline")
    return text[:-1].split("\n")


def _value(line: str, key: str) -> str:
    name, sep, value = line.partition(": ")
    if name != key or not sep:
        raise ValueError(f"expected a {key!r} line, found {line[:40]!r}")
    return value


def fields(lines, keys) -> dict:
    """Values of exactly one line per key, in the order of keys."""
    if len(lines) != len(keys):
        raise ValueError(f"record has {len(lines)} lines, want {len(keys)}")
    return {key: _value(line, key) for line, key in zip(lines, keys)}


def hex_field(value: str, *nbytes: int) -> bytes:
    """Bytes of a lowercase hex value whose length is one of nbytes."""
    raw = bytes.fromhex(value)
    if raw.hex() != value or len(raw) not in nbytes:
        raise ValueError(f"{value[:40]!r} is not canonical hex of {nbytes} bytes")
    return raw


def int_field(value: str) -> int:
    """A non-negative decimal integer without sign, spaces or leading zeros."""
    n = int(value)
    if n < 0 or str(n) != value:
        raise ValueError(f"{value[:40]!r} is not a canonical decimal integer")
    return n
