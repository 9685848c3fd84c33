"""Host speed probe: a fixed pure-Python loop, timed in a helper process.

The benchmark host is a few vCPUs shared with other tenants. Its speed
drifts by 10-20% over tens of seconds, and every time the benchmark
measures drifts with it. The probe measures that drift: between the
slices of a run the benchmark asks the helper for the median time of
REPS runs of `reference_loop`, and scales the slice's times by
NOMINAL_S / that median. Over 15 s windows on a 2-vCPU host, this cut
the coefficient of variation of `is_serpent_type` times from 7.5% to
2.4% and of `avalanche_histogram` times from 7.8% to 3.0%.

The loop runs in its own process so that the program under test cannot
move it: threads, locks or garbage the program leaves behind slow the
program's own times, not the probe's.

    python3 perfbench/hostprobe.py     # serve: read a count, print a median
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

# A probe reads NOMINAL_S on a host of the nominal speed; scaled times
# are the times such a host would show.
NOMINAL_S = 0.004
REPS = 9


def reference_loop() -> int:
    s = 0
    for i in range(40000):
        s += (i * i) % 7
    return s


def median_time(reps: int) -> float:
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class HostProbe:
    """Handle on the helper process; use as a context manager."""

    def __init__(self) -> None:
        self.samples = []
        self._proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def sample(self) -> float:
        """Median reference-loop time now, in seconds."""
        self._proc.stdin.write(f"{REPS}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("host probe exited")
        value = float(line)
        self.samples.append(value)
        return value

    def factor(self, *samples: float) -> float:
        """Scale from measured to nominal time for the given probe samples."""
        return NOMINAL_S / statistics.mean(samples)

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "HostProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> None:
    for line in sys.stdin:
        print(median_time(int(line)), flush=True)


if __name__ == "__main__":
    serve()
