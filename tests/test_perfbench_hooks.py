"""The benchmark's tracer still finds every library name it patches,
and a traced authentication still runs.

`perfbench/tracing.py` wraps sucsim functions by module and attribute
name, so a rename under src/ would otherwise show only when a traced
benchmark runs.
"""

import importlib
import itertools
import importlib.util
import pathlib

from sucsim.authority import AuthResult, UirStore, authenticate, enroll
from sucsim.entropy import SeededEntropy
from sucsim.sbox4 import is_serpent_type, read_pool, write_pool

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


class Echo:
    serial = "s"

    def respond(self, blocks):
        return blocks


def test_the_tracer_installs_and_restores_its_hooks():
    tracing = load_tracing()
    targets = [
        tracing._resolve(importlib.import_module(f"sucsim.{module}"), path)
        for pairs in tracing.SPAN_TARGETS.values()
        for module, path in pairs
    ]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(
            owner.__dict__[attr] is not original
            for (owner, attr), original in zip(targets, originals)
        )
    finally:
        tracer.restore()
    assert [owner.__dict__[attr] for owner, attr in targets] == originals


def test_a_traced_authentication_waits_on_the_record_lock_once(tmp_path):
    # the tracer wraps whatever `lock_for` returns and calls its
    # acquire() and release(); traced service runs rely on that contract
    tracing = load_tracing()
    store = UirStore(tmp_path)
    store.create(enroll(Echo(), 4, SeededEntropy(0)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = authenticate(Echo(), store)
    finally:
        tracer.restore()
    assert result is AuthResult.ACCEPTED
    assert [span[1] for span in tracer.spans].count(tracing.LOCK_WAIT) == 1
    assert store.load("s").unused_count == 3


def test_a_traced_authentication_loads_the_record_once_and_saves_nothing(tmp_path):
    tracing = load_tracing()
    store = UirStore(tmp_path)
    store.create(enroll(Echo(), 4, SeededEntropy(0)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert authenticate(Echo(), store) is AuthResult.ACCEPTED
    finally:
        tracer.restore()
    names = [span[1] for span in tracer.spans]
    assert names.count("authority.load") == 1
    assert "authority.save" not in names


def test_a_loaded_record_offers_what_the_benchmark_reads(tmp_path):
    # perfbench/ta_service.py checks records through len(pairs) and pairs[i].x/.y/.used
    store = UirStore(tmp_path)
    store.create(enroll(Echo(), 16, SeededEntropy(0)))
    for _ in range(5):
        authenticate(Echo(), store)
    record = store.load("s")
    assert len(record.pairs) == record.pair_count == 16
    assert sum(1 for p in record.pairs if p.used) == record.used == 5
    assert [p.used for p in record.pairs] == [i < 5 for i in range(16)]
    for i, p in enumerate(record.pairs):
        assert p.x + p.y == record.pair_bytes[16 * i : 16 * i + 16]


def test_a_pool_offers_what_the_benchmark_reads(tmp_path, pool32):
    # perfbench/pool_gen.py checks pools through len, set and iteration of entries
    path = tmp_path / "pool.bin"
    write_pool(pool32, path)
    pool = read_pool(path)
    entries = pool.entries
    assert len(entries) == pool.count == 32
    assert len(set(entries)) == pool.count
    assert all(len(t) == 16 and is_serpent_type(t) for t in entries)
    assert bytes(itertools.chain.from_iterable(entries)) == pool.blob
