"""Rescale CPU time to a reference CPU speed with a co-scheduled loop.

On a shared host the speed of a CPU changes by up to 1.6x, in states that
last from a second to minutes.  A calibration loop pinned to the same CPU
as the timed process shares its time slices (a few milliseconds each), so
it runs at the speed that CPU had while the timed code ran.  At nice 5 it
takes about a quarter of the CPU, in slices spread over the timed
interval.  Its rate over that interval rescales the timed code's CPU
time:

    ref_s = cpu_s * rate / REF_RATE

REF_RATE is a fixed number of loop chunks per CPU second, about the fast
state of the 2-CPU reference machine, so ref_s reads as seconds on that
machine.  Only the scale depends on it; comparisons between two versions
of the program on one machine do not.
"""
from __future__ import annotations

import mmap
import os
import signal
import struct
import time

REF_RATE = 1200.0
MIN_CHUNKS = 20  # loop chunks (about 1 ms each) behind every rate
# At nice 19 the loop ran in slices too rare and too cold-cached to track
# the CPU (spreads grew); at nice 0 it tracked as well but doubled run time.
NICE = 5
_FMT = "dd"  # (process CPU seconds, chunks done) of the loop


def _chunk():
    # mostly small-object churn (dicts, floats, strings), as in building
    # rows, with some integer arithmetic: the mix whose rate tracked the
    # workloads' own CPU times most closely on the reference machine
    rows = [{"path_id": i, "value": i * 0.5, "tau": str(i)} for i in range(2000)]
    s = 0
    for i in range(3000):
        s += i * i % 7
    return len(rows) + s


class Calibrator:
    """A forked loop pinned to `cpu` that publishes its progress."""

    def __init__(self, cpu: int):
        self._mm = mmap.mmap(-1, struct.calcsize(_FMT))
        parent = os.getpid()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                os.sched_setaffinity(0, {cpu})
                os.nice(NICE)
                n = 0
                while os.getppid() == parent:  # never outlive the timing process
                    struct.pack_into(_FMT, self._mm, 0, time.process_time(), float(n))
                    _chunk()
                    n += 1
            finally:
                os._exit(0)
        give_up = time.monotonic() + 10.0
        while self.read()[1] < 1:  # wait for a first chunk, so rates are defined
            if time.monotonic() > give_up:
                self.stop()
                raise RuntimeError("calibration loop did not start")
            time.sleep(0.001)

    def read(self):
        return struct.unpack_from(_FMT, self._mm, 0)

    def read_after(self, before, min_chunks=MIN_CHUNKS):
        """A reading at least `min_chunks` past `before`.

        The loop runs at a lower priority, so during a short timed call it
        may hardly run; the caller then idles until it has.
        """
        give_up = time.monotonic() + 10.0
        while True:
            after = self.read()
            if after[1] - before[1] >= min_chunks:
                return after
            if time.monotonic() > give_up:
                raise RuntimeError("calibration loop made no progress")
            time.sleep(0.001)

    def stop(self):
        try:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # already ended and reaped
        self._mm.close()


def ref_seconds(cpu_s: float, before, after) -> float:
    """cpu_s rescaled by the loop's rate between two readings."""
    (c0, n0), (c1, n1) = before, after
    if c1 <= c0 or n1 <= n0:
        raise RuntimeError("calibration loop made no progress while the code ran")
    return cpu_s * (n1 - n0) / (c1 - c0) / REF_RATE
