"""Host speed, measured beside the work, so that timings can be scaled to a reference speed.

On a shared host the same code runs up to about 2x slower for seconds or
minutes at a time, as other tenants come and go; no statistic over a
25-second run removes that, so two runs of the same code taken minutes apart
disagree by more than a regression bound. A fixed text-processing loop
(lower-casing, splitting, counting words in a dict, a JSON round trip: the
operations socialqe spends its time on) slows down with the program. A
timing divided by the loop's time at that moment and multiplied by
REFERENCE_MS is therefore steady: it reads as milliseconds on a host where
one pass of the loop takes REFERENCE_MS. The loop does not call socialqe, so
a change to the program moves the scaled timings as much as the raw ones.

Measured on a shared 2-CPU Xeon VM over 200 s, the spread (coefficient of
variation) of 25-second medians fell from 0.15-0.20 raw to 0.03-0.04 scaled
for rerank, similar_hashtags and parse_stream batches. The loop's working
set stays small: random lookups in a large dict tracked the host worse
than no scaling at all, and adding a scan over a 10,000-word set (as
word-break scans its lexicon) made the probe about 10% slower while the
benchmark itself worked on the other CPU, so a change in the program's
memory use would have moved the yardstick.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter

REFERENCE_MS = 1.0
INTERVAL_S = 0.05  # a probe (two passes of ~0.5-0.9 ms) per interval: about 2-4% of one CPU

_rng = random.Random(0)
_WORDS = [f"Word{i}x" for i in range(200)]
_TEXT = " ".join(_rng.choice(_WORDS) for _ in range(3000))


def _loop_ms() -> float:
    t0 = perf_counter()
    counts: dict[str, int] = {}
    for word in _TEXT.lower().split():
        counts[word] = counts.get(word, 0) + 1
    json.loads(json.dumps(counts))
    return (perf_counter() - t0) * 1e3


def probe_ms() -> float:
    """One probe: the faster of two passes of the loop, so a single interrupt drops out."""
    return min(_loop_ms(), _loop_ms())


class SpeedLog:
    """Timestamped probes taken during a run; `scaled` turns a wall interval into reference time."""

    def __init__(self, times: list[float], probes: list[float]):
        if not probes:
            raise RuntimeError("the host speed monitor recorded no probe")
        self.times = times
        self.probes = probes

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_MS / the mean probe over [t0, t1], widened to the nearest probe on each side."""
        lo = max(0, bisect_left(self.times, t0) - 1)
        hi = min(len(self.times), bisect_right(self.times, t1) + 1)
        window = self.probes[lo:hi]
        return REFERENCE_MS * len(window) / sum(window)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds between t0 and t1, scaled to the reference speed."""
        return (t1 - t0) * self.scale(t0, t1)


class Monitor:
    """A child process that probes every INTERVAL_S while the benchmark works.

    It runs beside the work rather than between its steps because a build
    runs in another process and an evaluate lasts seconds: probes taken only
    before and after them miss the changes of speed in between. Probing from
    the other CPU tracks the work's CPU as well: over 46 back-to-back `tall`
    builds the spread of build wall time fell from 0.14 raw to 0.03 scaled
    by probes from the waiting parent, and to 0.12 by probes only before
    and after each build. perf_counter is the system-wide monotonic clock on
    Linux, so the child's timestamps compare with the parent's.
    """

    def __init__(self, path: Path):
        self.path = path
        path.write_text("", encoding="utf-8")
        self.child = subprocess.Popen([sys.executable, __file__, str(path), str(os.getpid())])
        deadline = perf_counter() + 30
        while not path.read_text(encoding="utf-8"):  # first probe written: the child is up
            if self.child.poll() is not None or perf_counter() > deadline:
                self.child.kill()
                self.child.wait()
                raise RuntimeError("the host speed monitor did not start")
            time.sleep(0.01)

    def stop(self) -> SpeedLog:
        """Stop the child, wait for it to end and return what it recorded."""
        if self.child.poll() is None:
            self.child.send_signal(signal.SIGTERM)
        self.child.wait()
        times, probes = [], []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            t, ms = line.split()
            times.append(float(t))
            probes.append(float(ms))
        return SpeedLog(times, probes)


def _monitor(path: str, parent: int):
    with open(path, "a", encoding="utf-8") as out:
        while os.getppid() == parent:
            ms = probe_ms()
            out.write(f"{perf_counter():.6f} {ms:.6f}\n")
            out.flush()
            time.sleep(INTERVAL_S)


if __name__ == "__main__":
    # python3 bench/hostspeed.py PROBES_FILE PARENT_PID: probe until stopped or orphaned.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    _monitor(sys.argv[1], int(sys.argv[2]))
