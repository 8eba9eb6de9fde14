"""Speed of the CPU a timed process runs on, measured while it runs.

The reference machine's speed is not steady: a fixed pure-Python loop runs
at 0.7 to 1.4 times its median, in CPU time as well as wall time, with
changes from a fraction of a second to about a minute apart, and each vCPU
drifts on its own.  Timing a process between two calibration loops leaves
most of that in (per-process spread about 13%), because the speed changes
within the process's own run.

So a calibration loop runs *beside* the timed process, pinned to the same
CPU at niceness 10 (it gets about a tenth of the CPU, in slices a few ms
apart).  It counts finished chunks of fixed work and publishes the count
with its own CPU time in a 16-byte shared file.  Chunks per CPU second over
the timed process's lifetime is the CPU's speed at the same moments; the
process's CPU time scaled by that speed over ``REF_CHUNKS_PER_S`` is its
CPU time at the reference speed (per-process spread about 3-4%).

Usage as a script (started by ``Speedometer``): python3 speed.py SHARED_FILE
"""

from __future__ import annotations

import mmap
import os
import struct
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

# Chunks per CPU second of the loop below on the reference machine (2-vCPU
# VM, Python 3.11.7); near the median there, so that calibrated times read
# close to CPU seconds on that machine.
REF_CHUNKS_PER_S = 3300.0
NICENESS = 10
_LAYOUT = "qd"  # chunks done, loop's CPU seconds


def _loop(shared: Path) -> None:
    os.nice(NICENESS)
    with shared.open("r+b") as f, mmap.mmap(f.fileno(), 16) as m:
        done = 0
        while True:
            x = 0
            for i in range(2000):
                x += i * i % 7
            acc = Fraction(0)
            for i in range(1, 30):
                acc += Fraction(i % 97 + 1, i % 89 + 2)
            table = {}
            for i in range(1, 30):
                table[frozenset((i % 13, i % 17, i % 5))] = i
            done += 1
            struct.pack_into(_LAYOUT, m, 0, done, time.process_time())


class Speedometer:
    """One calibration loop process; ``follow`` moves it to a CPU, and
    ``reading`` before and after a timed process gives ``speed``."""

    def __init__(self, work: Path) -> None:
        self.shared = work / "speed.bin"
        self.shared.write_bytes(bytes(16))
        self.file = self.shared.open("r+b")
        self.map = mmap.mmap(self.file.fileno(), 16)
        self.proc = subprocess.Popen([sys.executable, __file__, str(self.shared)])
        deadline = time.monotonic() + 30
        while self.reading()[0] < 200:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RuntimeError("calibration loop did not start")
            time.sleep(0.01)

    def follow(self, cpu: int) -> None:
        os.sched_setaffinity(self.proc.pid, {cpu})

    def reading(self) -> tuple[int, float]:
        # The loop may write between the two fields; read until two agree.
        while True:
            first = struct.unpack_from(_LAYOUT, self.map, 0)
            if struct.unpack_from(_LAYOUT, self.map, 0) == first:
                return first

    def speed(self, before: tuple[int, float], after: tuple[int, float]) -> float:
        """Speed between two readings, as a share of the reference speed."""
        chunks, seconds = after[0] - before[0], after[1] - before[1]
        if chunks < 1 or seconds <= 0:
            raise RuntimeError("calibration loop made no progress")
        return chunks / seconds / REF_CHUNKS_PER_S

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.map.close()
        self.file.close()


if __name__ == "__main__":
    try:
        _loop(Path(sys.argv[1]))
    except KeyboardInterrupt:
        pass
