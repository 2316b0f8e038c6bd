"""Core-speed sampler: how fast the benchmark's core runs, moment by moment.

    python3 perfbench/pace.py

The benchmark runs on a shared host. Its core runs pure-Python code at
one of two speeds, 1.7 to 2 times apart, and switches between them
every second or so, presumably as the host's other tenants load and
leave the core's hardware sibling. A workload process that spans many
switches is slowed by the share of its time spent in the slow state,
and that share differs from run to run by tens of percent.

This process runs beside the workload, pinned to the same core at the
lowest priority (nice 19), so the scheduler gives it a slice of a few
milliseconds at a steady rhythm and it takes about 1.5 % of the core.
In each slice it times a fixed piece of pure-Python work by its own CPU
clock, which skips the time it is not running, and reads how long the
hypervisor has kept its core from the guest so far (the steal column of
/proc/stat). Until SIGTERM it keeps (monotonic time, CPU seconds, steal
seconds) for every piece, then prints them as one JSON list and exits.
`pace_factor` turns the pieces timed during a workload interval into the
factor that scales that interval's time to a quiet core; `steal_between`
gives the time stolen from the core during it.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import statistics
import sys
import time

#: CPU seconds one piece of reference work takes on a quiet core (the
#: fast state) of the 2-core Xeon VM the baseline was measured on.
#: Corrected times are expressed at this pace.
REFERENCE_PIECE_S = 0.00057

#: Fewest pieces a pace is taken over; a window with fewer is widened.
MIN_PIECES = 30

#: A piece costing more than this many times the window's median counts
#: as this many times the median (an interrupt, not the core's speed).
CLIP = 3.0

_MOD = 2147483629


def piece() -> int:
    """Fixed work: modular integer arithmetic with small dict stores."""
    s, d = 0, {}
    for i in range(3000):
        s = (s * 31 + i) % _MOD
        d[i & 255] = s
    return s


def read_steal() -> float:
    """Seconds the hypervisor has run something else on the CPUs this
    process may use, since boot; the benchmark pins it to one. 0 where
    the kernel does not report it, so no steal is taken off."""
    names = {f"cpu{c}".encode() for c in os.sched_getaffinity(0)}
    try:
        with open("/proc/stat", "rb") as fh:
            lines = [line.split() for line in fh if line.split(maxsplit=1)[0] in names]
    except OSError:
        return 0.0
    return sum(int(fields[8]) for fields in lines if len(fields) > 8) / os.sysconf("SC_CLK_TCK")


def steal_between(samples: list[tuple[float, float, float]], t0: float, t1: float) -> float:
    """Steal seconds from the last piece ending by t0 to the first ending after t1."""
    ends = [s[0] for s in samples]
    lo = max(bisect.bisect_right(ends, t0) - 1, 0)
    hi = min(bisect.bisect_left(ends, t1), len(samples) - 1)
    return samples[hi][2] - samples[lo][2]


def pace_factor(samples: list[tuple[float, float, float]], t0: float, t1: float) -> float | None:
    """REFERENCE_PIECE_S over the mean piece cost timed within [t0, t1].

    The mean, not the median: the core alternates between two speeds, and
    a workload's time grows with the share of time spent in the slow one,
    which the mean of evenly spread pieces estimates. Pieces are chosen by
    the monotonic time they ended at. With fewer than MIN_PIECES in the
    window, it is widened to the MIN_PIECES pieces that ended nearest to
    it. None when fewer than MIN_PIECES were timed at all.
    """
    if len(samples) < MIN_PIECES:
        return None
    ends = [s[0] for s in samples]
    lo, hi = bisect.bisect_left(ends, t0), bisect.bisect_right(ends, t1)
    while hi - lo < MIN_PIECES:
        before = t0 - ends[lo - 1] if lo > 0 else float("inf")
        after = ends[hi] - t1 if hi < len(ends) else float("inf")
        if before <= after:
            lo -= 1
        else:
            hi += 1
    costs = [s[1] for s in samples[lo:hi]]
    cap = CLIP * statistics.median(costs)
    return REFERENCE_PIECE_S / statistics.fmean(min(c, cap) for c in costs)


def main() -> int:
    os.nice(19)
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    samples = []
    clock = time.thread_time
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    while not stopped:
        c0 = clock()
        piece()
        c1 = clock()
        samples.append((time.monotonic(), c1 - c0, read_steal()))
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
