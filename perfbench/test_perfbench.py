"""The benchmark's own tests.

    python3 -m pytest perfbench

They run the benchmark in subprocesses with one-second phases, so the
whole file takes a few minutes; it is not part of the tier-1 suite.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time

import pytest

import harness
import hostprobe

sys.path.insert(0, str(harness.SRC))

import pool_gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int = 0, seconds: float = 1, cwd=harness.ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def parsed(proc):
    assert proc.returncode == 0, proc.stderr + proc.stdout
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


# ---------------------------------------------------------------------------
# tail rule and span arithmetic


@pytest.mark.parametrize(
    "n, pct",
    [(0, None), (19, None), (20, "50"), (99, "50"), (100, "90"), (999, "90"),
     (1000, "99"), (9999, "99"), (10000, "99.9"), (100000, "99.99")],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, pct):
    assert harness.tail_percentile(n) == pct


def test_summarize_uses_nearest_rank_tail():
    s = harness.summarize([i / 1000 for i in range(1, 101)])  # 1..100 ms
    assert (s["tail_pct"], s["tail_ms"], s["beyond"]) == ("90", pytest.approx(90.0), 10)
    assert s["p50_ms"] == pytest.approx(50.0)
    few = harness.summarize([0.003, 0.001, 0.002])
    assert (few["tail_pct"], few["tail_ms"], few["beyond"]) == ("max", pytest.approx(3.0), 0)


def test_self_time_subtracts_children_on_a_synthetic_tree():
    # root [0,10] holds a [1,4] and b [5,9]; b holds c [6,7]
    spans = [
        (3, "c", 6.0, 7.0, 2, "s"),
        (1, "root", 0.0, 10.0, 0, "s"),
        (2, "b", 5.0, 9.0, 1, "s"),
        (4, "a", 1.0, 4.0, 1, "s"),
        (5, "a", 20.0, 22.0, 0, "t"),
    ]
    assert tracing.self_times(spans) == {1: 3.0, 2: 3.0, 3: 1.0, 4: 3.0, 5: 2.0}
    agg = tracing.aggregate(spans)
    assert agg["a"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}
    assert agg["root"]["self_s"] == 3.0
    assert tracing.child_calls(spans, "root", "a") == 1
    hits = tracing.foreign_calls(spans, {"netlink.frames": 2}, ("a", "netlink."))
    assert hits == {"a": 2, "netlink.encode": 2}


def test_tracer_nests_spans_and_restores_originals():
    from sucsim import sbox4
    from sucsim.entropy import SeededEntropy

    original = sbox4.sample_serpent_type
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.session("one"):
            sbox4.build_pool(1, SeededEntropy(0))
    finally:
        tracer.restore()
    assert sbox4.sample_serpent_type is original
    by_id = {s[0]: s for s in tracer.spans}
    sample = next(s for s in tracer.spans if s[1] == "sbox4.sample_serpent_type")
    assert by_id[sample[4]][1] == "sbox4.build_pool"
    assert {s[5] for s in tracer.spans} == {"one"}
    assert tracing.child_calls(tracer.spans, "sbox4.sample_serpent_type", "entropy.shuffled") > 0


# ---------------------------------------------------------------------------
# host speed scaling


class HalfSpeedProbe:
    """Stands in for hostprobe.HostProbe on a host at half the nominal speed."""

    factor = hostprobe.HostProbe.factor

    def sample(self) -> float:
        return 2 * hostprobe.NOMINAL_S


def test_phases_scale_times_to_the_nominal_host_speed():
    def op(k):
        time.sleep(0.002)
        return 1, k

    phase = harness.run_phases([harness.PhaseSpec("op1", op, 1.0, 1)], 0.05, HalfSpeedProbe())["op1"]
    assert phase.attempted >= harness.DIGEST_OPS
    assert phase.scaled_elapsed == pytest.approx(phase.elapsed / 2)
    assert phase.per_s == pytest.approx(2 * phase.raw_per_s)
    assert phase.latencies() == pytest.approx([t / 2 for t in phase.latencies(scaled=False)])


def test_host_probe_runs_the_loop_in_a_helper_and_stops_it():
    with hostprobe.HostProbe() as probe:
        first, second = probe.sample(), probe.sample()
    assert probe._proc.returncode == 0
    assert probe.samples == [first, second] and min(first, second) > 0
    assert probe.factor(hostprobe.NOMINAL_S, hostprobe.NOMINAL_S) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# metric names


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


# ---------------------------------------------------------------------------
# whole runs


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_same_seed_same_digest_and_printed_names(workload):
    first, result = parsed(bench(workload, seed=3))
    second, _ = parsed(bench(workload, seed=3))
    other, _ = parsed(bench(workload, seed=4))
    assert first["outputs_sha256"] == second["outputs_sha256"]
    assert first["inputs_sha256"] == second["inputs_sha256"]
    assert other["inputs_sha256"] != first["inputs_sha256"]
    assert other["outputs_sha256"] != first["outputs_sha256"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_run_reports_layers_and_isolation(workload):
    detail, result = parsed(bench(workload, seed=5, trace=1, seconds=2))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert result["correct"]
    assert metrics["trace.foreign_calls"] == 0 and detail["isolation"]["calls"] == {}
    calls = detail["span_calls"]
    if workload == "pool-gen":
        assert metrics["sbox4.sample_ms"] > 0 and metrics["entropy.shuffled_ms"] > 0
        assert metrics["sbox4.candidates_per_entry"] >= 1
        assert metrics["sbox4.duplicates"] == 0
        assert not any(name.split(".")[0] in ("cipher", "device", "authority", "netlink") for name in calls)
    elif workload == "experiments":
        assert metrics["cipher.apply_batch_blocks"] == 6500
        assert metrics["sbox8.profile8_ms"] > 0 and metrics["cipher.apply_batch_ns_per_block"] > 0
        assert not any(name.split(".")[0] in ("device", "authority", "netlink") for name in calls)
    else:
        assert metrics["netlink.frames_per_provision"] == 4 + 2 * 1024  # HELLO, ACK, BEGIN, pairs, END
        assert metrics["netlink.frames_per_auth"] == 5
        assert metrics["netlink.wire_bytes_per_auth"] > 5 * 7
        assert metrics["cipher.apply_calls_per_provision"] == 1024
        assert metrics["cipher.apply_calls_per_auth"] == 1
        assert calls["netlink.respond"] == calls["authority.enroll"] * 1024 + calls["authority.authenticate"]
        assert metrics["netlink.stop_s"] > 0
        assert "sbox4.sample_serpent_type" not in calls


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("pool-gen", seed=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# pool-gen outputs


def test_seed0_pool_of_256_matches_the_pinned_digest():
    text = (harness.ROOT / "tests" / "test_acceptance.py").read_text()
    pinned = re.search(r'POOL256_SEED0_DIGEST = "([0-9a-f]{64})"', text).group(1)
    pool, stream = pool_gen.build(0, 256)
    assert pool.digest.hex() == pinned
    assert all(pool_gen.oracle_ok(t) for t in pool.entries)
    assert len(set(pool.entries)) == 256
    assert stream.index_draws > 0


def test_oracle_rejects_tables_outside_the_class():
    pool, _ = pool_gen.build(1, 1)
    member = pool.entries[0]
    assert pool_gen.oracle_ok(member)
    assert not pool_gen.oracle_ok(tuple(range(16)))  # linear: |Walsh| 16
    assert not pool_gen.oracle_ok((member[1],) + member[1:])  # not bijective
    swapped = list(member)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    from sucsim import sbox4

    assert pool_gen.oracle_ok(swapped) == sbox4.is_serpent_type(swapped)
