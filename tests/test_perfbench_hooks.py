"""The benchmark's tracer still finds every library name it patches,
and a traced authentication still runs.

`perfbench/tracing.py` wraps sucsim functions by module and attribute
name, so a rename under src/ would otherwise show only when a traced
benchmark runs.
"""

import importlib
import importlib.util
import pathlib

from sucsim.authority import AuthResult, UirStore, authenticate, enroll
from sucsim.entropy import SeededEntropy

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
