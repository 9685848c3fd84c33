"""Run the benchmark once per seed and summarize each metric.

    python3 perfbench/repeat.py --workloads pool-gen,experiments,ta-service \
        --seeds 0-9 --seconds 30 --out perfbench/baseline.json

For every workload and end-to-end metric it records the values, their
median and quartiles (`statistics.quantiles(values, n=4)`) and the
spread: the distance between the quartiles as a share of the median.
Any run that exits non-zero or reports `correct: false` is listed under
`failures`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default="pool-gen,experiments,ta-service")
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--out")
    args = p.parse_args(argv)

    report = {"environment": harness.environment(), "seconds": args.seconds, "workloads": {}}
    failures = []
    for workload in args.workloads.split(","):
        values = {}
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=harness.ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
            if result is None or not result["correct"]:
                failures.append({"workload": workload, "seed": seed, "exit": proc.returncode,
                                 "stderr": proc.stderr[-2000:]})
                if result is None:
                    continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        report["workloads"][workload] = {
            name: summarize(v) for name, v in values.items() if len(v) >= 2
        }
    report["failures"] = failures
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    for workload, metrics in report["workloads"].items():
        for name, s in metrics.items():
            print(f"{workload:12s} {name:28s} median {s['median']:12.4f} spread {s['spread']:.4f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
