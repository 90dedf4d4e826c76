"""Timings at a reference speed, from calibration runs between them.

The machines this benchmark runs on change speed by up to 2x over seconds
and minutes, for the library and for a fixed loop alike.  So a short
calibration (`calibration_unit`: a harmonic sum in stdlib `Fraction`, no
`rittkit`) runs between timed operations, at least every `every_s` and for
about `DUTY` of the time since the last one, so that a long operation is
followed by enough samples to outweigh their jitter.  A wall time is
scaled by the reference time of the calibration over its median measured
time within `WINDOW_S` of the operation.  Work done in
subprocesses is calibrated by a subprocess that runs the same sum
(`python3 bench/speed.py`), which also tracks the speed of process start-up.

Reference times are about the medians on a 2-vCPU x86_64 VM with Python
3.11.7, so reported times read close to wall times there.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time
from fractions import Fraction

TERMS = 300
REF_S = 1.25e-3          # calibration_unit() in process
PROCESS_REF_S = 0.08     # `python3 bench/speed.py` as a subprocess
EVERY_S = 0.05           # in process; a calibration takes about 1 ms
PROCESS_EVERY_S = 0.25   # in a subprocess; it takes about 80 ms
WINDOW_S = 0.5
DUTY = 0.05


def calibration_unit():
    s = Fraction(0)
    for i in range(1, TERMS):
        s += Fraction(1, i)
    return s


def calibration_process():
    subprocess.run([sys.executable, __file__], check=True)


class Speed:
    """Calibration samples: (end time, duration) of one calibration."""

    def __init__(self, unit=calibration_unit, ref_s=REF_S, every_s=EVERY_S):
        self.unit = unit
        self.ref_s = ref_s
        self.every_s = every_s
        self.times = []
        self.durs = []

    @classmethod
    def of_processes(cls):
        return cls(calibration_process, PROCESS_REF_S, PROCESS_EVERY_S)

    def sample(self):
        t0 = time.perf_counter()
        self.unit()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.durs.append(t1 - t0)

    def calibrate(self):
        """Samples for about DUTY of the time since the last one; at least one."""
        gap = time.perf_counter() - self.times[-1] if self.times else 0.0
        for _ in range(max(1, int(gap * DUTY / self.ref_s))):
            self.sample()

    def maybe_calibrate(self):
        if not self.times or time.perf_counter() - self.times[-1] > self.every_s:
            self.calibrate()

    def factor(self, t0, t1) -> float:
        """Reference speed over the speed measured around [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        return self.ref_s / statistics.median(self.durs[lo:hi]
                                             or self.durs[-2:])

    def timed(self, fn):
        """Wall time of fn() and that time at the reference speed."""
        for _ in range(3):
            self.sample()
        t0 = time.perf_counter()
        fn()
        t1 = time.perf_counter()
        for _ in range(max(3, int((t1 - t0) * DUTY / self.ref_s))):
            self.sample()
        return t1 - t0, (t1 - t0) * self.factor(t0, t1)


if __name__ == "__main__":
    calibration_unit()
