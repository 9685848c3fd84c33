"""sucsim benchmark.

    python3 perfbench/run.py --workload {pool-gen,experiments,ta-service}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the program under test is imported from
its src/ directory. The untraced run (--trace 0) measures for S seconds
and prints the end-to-end metrics; the traced run (--trace 1) measures
S/2 seconds untraced, then S/2 seconds with every layer boundary traced,
and prints the per-layer metrics. Output checks run after the timed
region; a failed check makes the exit code 1. The last line of stdout
is the result object; the line before it carries the details (metric
names from the workload's own vocabulary, percentiles, digests,
environment), which are also written under .perfbench/.

Every end-to-end time is scaled to a nominal host speed by a probe that
times a fixed reference loop in a helper process between the slices of
the run and around every set-up (see hostprobe.py); the details keep the
raw times next to the scaled ones.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import hostprobe  # noqa: E402

WORKLOADS = {"pool-gen": "pool_gen", "experiments": "experiments", "ta-service": "ta_service"}
# A workload's SETUP_RUNS fresh-interpreter set-ups are timed, the larger
# half before the measured region and the rest after it: the host's speed
# drifts over tens of seconds, so the median samples both ends of the run.
SETUP_TIMEOUT_S = 170

# (name, unit, better); the order is the order printed
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_rate", "ratio", "higher"),
    ("op1_per_s", "1/s", "higher"),
    ("op1_p50_ms", "ms", "lower"),
    ("op1_tail_ms", "ms", "lower"),
    ("op2_per_s", "1/s", "higher"),
    ("op2_p50_ms", "ms", "lower"),
    ("op2_tail_ms", "ms", "lower"),
]

# per-layer metric -> (span name, scale): self time per call
SELF_TIME = {
    "sbox4.sample_ms": ("sbox4.sample_serpent_type", 1e3),
    "sbox4.is_serpent_type_ms": ("sbox4.is_serpent_type", 1e3),
    "entropy.shuffled_ms": ("entropy.shuffled", 1e3),
    "cipher.draw_instance_ms": ("cipher.draw_instance", 1e3),
    "analysis.avalanche_self_ms": ("analysis.avalanche_histogram", 1e3),
    "sbox8.feistel8_ms": ("sbox8.feistel8", 1e3),
    "sbox8.profile8_ms": ("sbox8.profile8", 1e3),
    "analysis.bound_report_self_ms": ("analysis.bound_report", 1e3),
    "device.manufacture_ms": ("device.manufacture", 1e3),
    "device.otpp_ms": ("device.otpp", 1e3),
    "device.save_envm_ms": ("device.save_envm", 1e3),
    "authority.enroll_ms": ("authority.enroll", 1e3),
    "authority.create_ms": ("authority.create", 1e3),
    "cipher.apply_us": ("cipher.apply", 1e6),
    "device.boot_ms": ("device.boot", 1e3),
    "authority.load_ms": ("authority.load", 1e3),
    "authority.save_ms": ("authority.save", 1e3),
    "authority.authenticate_ms": ("authority.authenticate", 1e3),
    "authority.lock_wait_ms": ("authority.lock_wait", 1e3),
    "netlink.run_agent_ms": ("netlink.run_agent", 1e3),
    "netlink.respond_ms": ("netlink.respond", 1e3),
}

PER_LAYER = [
    ("sbox4.sample_ms", "ms", "lower"),
    ("sbox4.is_serpent_type_ms", "ms", "lower"),
    ("entropy.shuffled_ms", "ms", "lower"),
    ("sbox4.candidates_per_entry", "count", "lower"),
    ("sbox4.duplicates", "count", "lower"),
    ("entropy.bytes_per_entry", "bytes", "lower"),
    ("entropy.rejections_per_draw", "ratio", "lower"),
    ("cipher.draw_instance_ms", "ms", "lower"),
    ("cipher.apply_batch_ns_per_block", "ns", "lower"),
    ("cipher.apply_batch_blocks", "count", "higher"),
    ("analysis.avalanche_self_ms", "ms", "lower"),
    ("sbox8.feistel8_ms", "ms", "lower"),
    ("sbox8.profile8_ms", "ms", "lower"),
    ("analysis.bound_report_self_ms", "ms", "lower"),
    ("device.manufacture_ms", "ms", "lower"),
    ("device.otpp_ms", "ms", "lower"),
    ("device.save_envm_ms", "ms", "lower"),
    ("authority.enroll_ms", "ms", "lower"),
    ("authority.create_ms", "ms", "lower"),
    ("cipher.apply_us", "us", "lower"),
    ("cipher.apply_calls_per_provision", "count", "lower"),
    ("cipher.apply_calls_per_auth", "count", "lower"),
    ("device.boot_ms", "ms", "lower"),
    ("authority.load_ms", "ms", "lower"),
    ("authority.save_ms", "ms", "lower"),
    ("authority.record_bytes", "bytes", "lower"),
    ("authority.authenticate_ms", "ms", "lower"),
    ("authority.lock_wait_ms", "ms", "lower"),
    ("netlink.run_agent_ms", "ms", "lower"),
    ("netlink.respond_ms", "ms", "lower"),
    ("netlink.frames_per_provision", "count", "lower"),
    ("netlink.frames_per_auth", "count", "lower"),
    ("netlink.wire_bytes_per_auth", "bytes", "lower"),
    ("netlink.threads_alive_end", "count", "lower"),
    ("netlink.stop_s", "s", "lower"),
    ("trace.op1_overhead_pct", "%", "lower"),
    ("trace.op2_overhead_pct", "%", "lower"),
    ("trace.foreign_calls", "count", "lower"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_program() -> str | None:
    """Import sucsim from the checkout's src/; None when it is not there."""
    if not (harness.SRC / "sucsim" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(harness.SRC))
    import sucsim

    return sucsim.__file__ if Path(sucsim.__file__).resolve().is_relative_to(harness.SRC) else None


def time_setup(args, probe: hostprobe.HostProbe) -> tuple:
    """Wall time from launching a fresh interpreter until it reports the
    workload ready, raw and scaled by the host probes taken right before
    and after it.

    The child's readiness is read from a pipe, not from its exit, which
    subprocess would notice only at its next poll, up to 50 ms late.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    before = probe.sample()
    started = time.perf_counter()
    with subprocess.Popen(cmd, cwd=harness.ROOT, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            raw = time.perf_counter() - started
            proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
    if ready != "ready\n" or code != 0:
        raise RuntimeError(f"set-up run exited with {code}")
    return raw, raw * probe.factor(before, probe.sample())


def phase_metrics(phases: dict) -> dict:
    out = {}
    for key in ("op1", "op2"):
        phase = phases[key]
        lat = harness.summarize(phase.latencies())
        raw = harness.summarize(phase.latencies(scaled=False))
        out[key] = {
            "per_s": phase.per_s,
            "p50_ms": lat["p50_ms"],
            "tail_ms": lat["tail_ms"],
            "tail_pct": lat["tail_pct"],
            "samples": lat["n"],
            "beyond_tail": lat["beyond"],
            "attempted": phase.attempted,
            "failed": phase.failed,
            "elapsed_s": phase.elapsed,
            "raw_per_s": phase.raw_per_s,
            "raw_p50_ms": raw["p50_ms"],
            "raw_tail_ms": raw["tail_ms"],
        }
    return out


def layer_metrics(wl, module, traced: dict, tracer, base: dict, closing: dict) -> tuple:
    """Per-layer metric values, the span aggregate, and the foreign calls."""
    import tracing

    agg = tracing.aggregate(tracer.spans)
    values = {}
    for name, (span, scale) in SELF_TIME.items():
        row = agg.get(span)
        values[name] = row["self_s"] / row["calls"] * scale if row else 0.0
    batch = agg.get("cipher.apply_batch")
    blocks = tracer.counters.get("cipher.apply_batch.blocks", 0)
    values["cipher.apply_batch_ns_per_block"] = batch["self_s"] / blocks * 1e9 if batch else 0.0
    values["cipher.apply_batch_blocks"] = blocks / batch["calls"] if batch else 0.0
    for key in ("op1", "op2"):
        values[f"trace.{key}_overhead_pct"] = 100.0 * (base[key].per_s / traced[key].per_s - 1.0)
    foreign = tracing.foreign_calls(tracer.spans, tracer.counters, module.FORBIDDEN)
    values["trace.foreign_calls"] = sum(foreign.values())
    values.update(wl.layer_values(traced, agg, tracer.spans))
    values.update(closing)
    return {name: values.get(name, 0.0) for name, _unit, _better in PER_LAYER}, agg, foreign


def main(argv=None) -> int:
    args = parse_args(argv)
    if load_program() is None:
        print(f"sucsim sources not found under {harness.SRC}", file=sys.stderr)
        return 2
    module = importlib.import_module(WORKLOADS[args.workload])

    if args.setup_only:
        wl = module.setup(args.seed)
        print("ready", flush=True)
        if hasattr(wl, "abandon"):
            wl.abandon()
        return 0

    with hostprobe.HostProbe() as probe:
        # set-up time is an end-to-end metric, so only the untraced run measures it
        setup_after = 0 if args.trace else module.SETUP_RUNS // 2
        setup_before = 0 if args.trace else module.SETUP_RUNS - setup_after
        setup_runs = [time_setup(args, probe) for _ in range(setup_before)]
        wl = module.setup(args.seed)
        try:
            if args.trace:
                import tracing

                base = wl.measure(args.seconds / 2, probe)
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    traced = wl.measure(args.seconds / 2, probe, tracer)
                finally:
                    tracer.restore()
                passes = [base, traced]
            else:
                base = wl.measure(args.seconds, probe)
                passes = [base]
            for phases in passes:
                wl.check(phases)
            digests = wl.digests(base)
        finally:
            closing = wl.close()
        setup_runs += [time_setup(args, probe) for _ in range(setup_after)]
        probe_samples = probe.samples

    all_phases = [p[k] for p in passes for k in ("op1", "op2")]
    attempted = sum(p.attempted for p in all_phases)
    failed = sum(p.failed for p in all_phases)
    pm = phase_metrics(base)
    e2e = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - failed / attempted,
    }
    if setup_runs:
        e2e["setup_s"] = statistics.median(scaled for _raw, scaled in setup_runs)
    for key in ("op1", "op2"):
        for stat in ("per_s", "p50_ms", "tail_ms"):
            e2e[f"{key}_{stat}"] = pm[key][stat]
    units = {name: unit for name, unit, _ in END_TO_END}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": harness.environment(),
        **digests,
        "setup_runs_s": [raw for raw, _scaled in setup_runs],
        "setup_runs_scaled_s": [scaled for _raw, scaled in setup_runs],
        "host_probe": {
            "nominal_s": hostprobe.NOMINAL_S,
            "median_s": statistics.median(probe_samples),
            "samples_s": probe_samples,
        },
        "error_rate": failed / attempted,
        "errors": [e for p in all_phases for e in p.errors()][:3],
        "metrics": {},
        "phases": {module.LABELS[k]: pm[k] for k in ("op1", "op2")},
        **wl.details(base),
    }
    for name, value in e2e.items():
        named = name
        for key, label in module.LABELS.items():
            named = named.replace(key, label)
        detail["metrics"][named] = {"value": value, "unit": units[name]}

    correct = failed == 0
    if args.trace:
        metrics, agg, foreign = layer_metrics(wl, module, traced, tracer, base, closing)
        correct = correct and not foreign
        detail["isolation"] = {"forbidden": list(module.FORBIDDEN), "calls": dict(foreign)}
        detail["span_calls"] = {name: row["calls"] for name, row in sorted(agg.items())}
        detail["tracing_overhead_s_per_op"] = {
            module.LABELS[k]: traced[k].elapsed / max(1, traced[k].attempted)
            - base[k].elapsed / max(1, base[k].attempted)
            for k in ("op1", "op2")
        }
        result_metrics = {
            name: {"value": metrics[name], "unit": unit} for name, unit, _ in PER_LAYER
        }
        trace_path = harness.STATE / "traces" / f"{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(trace_path)
        detail["trace_file"] = str(trace_path.relative_to(harness.ROOT))
    else:
        detail["layer"] = closing
        result_metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }
    out_dir = harness.STATE / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
