#!/usr/bin/env python3
"""Machine-speed calibration for the timed metrics.

The benchmark runs on shared 2-core hosts whose cores slow down by up to
half for seconds to minutes at a time when neighbours are busy.  Raw
timings then measure the neighbours as much as the program (ten raw
runs spread 7-11% in throughput; see ``perfbench/README.md``).  To take
that out, a fixed piece of pure-Python work (the *probe*) is timed over
and over while the program runs, on the same core, and every timed
metric is scaled to the speed at which the probe takes
:data:`REFERENCE_S`::

    reported time = measured time * REFERENCE_S / mean probe time

so a reported throughput reads as operations per second on a core that
runs the probe in :data:`REFERENCE_S` (a quiet core of the 2-core host
the bounds were tuned on).  The probe is benchmark code: no change to
the program moves it, so a change that makes the program faster or
slower moves the reported numbers by the same factor as the raw ones.

Run as a script, it samples a given core every :data:`SAMPLE_INTERVAL`
seconds until it is terminated, then prints
``[[monotonic time, probe seconds], ...]`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

#: probe time on a quiet core of the reference host (seconds)
REFERENCE_S = 0.00034
#: seconds between two probes of the sampler
SAMPLE_INTERVAL = 0.25


def probe() -> float:
    """CPU seconds of one fixed unit of dict-and-integer work.

    CPU time, not wall time: the probe shares its core with the timed
    process, and time spent waiting for its turn says nothing about how
    fast the core runs.
    """
    t0 = time.thread_time()
    d: dict[int, int] = {}
    for i in range(2_500):
        d[i & 1023] = d.get(i & 1023, 0) + i
    return time.thread_time() - t0


class SpeedMeter:
    """Probe samples, each with the monotonic time it was taken."""

    def __init__(self, samples: list[tuple[float, float]]) -> None:
        self.samples = samples

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S / mean probe time`` over samples in a window.

        Multiply a measured time by it, or divide a measured rate.
        """
        times = [s for t, s in self.samples if start <= t <= end]
        if not times:
            return 1.0
        return REFERENCE_S * len(times) / sum(times)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cpu", type=int, required=True)
    args = ap.parse_args()
    os.sched_setaffinity(0, {args.cpu})
    samples = []
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    while not stop:
        samples.append((time.monotonic(), probe()))
        time.sleep(SAMPLE_INTERVAL)
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
