"""The benchmark's tracer still finds every library name it patches.

`perfbench/tracing.py` wraps sucsim functions by module and attribute
name, so a rename under src/ would otherwise show only when a traced
benchmark runs.
"""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_the_tracer_installs_and_restores_its_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
