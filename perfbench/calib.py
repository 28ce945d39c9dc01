"""Calibrated timing: rescale wall time by a reference kernel's speed.

On a shared machine the same seeded work can take 30% longer from one
minute to the next.  Every timed section is therefore bracketed by
samples of a fixed reference kernel, and reported as

    calibrated = raw * NOMINAL_REF_S / mean(ref_before, ref_after)

so a section that ran while the machine was slow is scaled down by the
same factor the reference slowed down by.

The reference runs in a helper process, started once per benchmark run
and driven over a pipe, while the benchmark process waits between jobs.
Nothing the program leaves in its own process (heap growth, garbage,
threads) can then slow the reference and so hide a regression.

Run as a script (``python3 perfbench/calib.py``) this module is that
helper: each line on stdin asks for one sample, answered on stdout.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple, TypeVar

import numpy as np

#: typical reference-kernel time (seconds) on the machine the bounds were
#: set on (2-core x86-64 VM, Python 3.11, numpy 2.4); calibrated seconds
#: are wall seconds on a machine that runs the kernel this fast
NOMINAL_REF_S = 0.014

#: reference-kernel runs per sample
SAMPLE_REPEATS = 5

T = TypeVar("T")


class ReferenceKernel:
    """A fixed mix of the work Phase 2 spends its time in: an interpreted
    Python loop, small numpy calls, and random reads over a table and a
    dict too large for the caches.  The last part makes the reference
    feel memory contention from other tenants, which slows the
    cache-hungry workloads (``cf_local`` holds ~200 MB of caches) more
    than compute alone shows."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = rng.integers(0, 1 << 30, size=1 << 22)  # 32 MiB
        self._index = rng.integers(0, 1 << 22, size=1 << 16)
        keys = rng.integers(0, 1 << 40, size=1 << 17)
        self._dict = {int(key): i for i, key in enumerate(keys)}
        self._probe = [int(key) for key in rng.permutation(keys)[: 1 << 13]]

    def run(self) -> int:
        acc = 0
        for i in range(60_000):
            acc += (i * 7) % 13
        values = np.arange(2048, dtype=np.int64)
        for _ in range(100):
            values = np.sort((values * 31 + 7) % 1009)
        acc += int(self._table[self._index].sum())
        table = self._dict
        for key in self._probe:
            acc += table[key]
        return acc + int(values[0])

    def sample(self, repeats: int = SAMPLE_REPEATS) -> List[float]:
        """Wall times of ``repeats`` runs."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self.run()
            times.append(time.perf_counter() - start)
        return times


def estimate(times: List[float]) -> float:
    """The reference time a sample stands for."""
    return statistics.median(times)


@dataclass
class Section:
    """One timed section: raw wall seconds and the reference samples
    taken just before and just after it."""

    raw_s: float
    ref_before: List[float]
    ref_after: List[float]

    @property
    def factor(self) -> float:
        return NOMINAL_REF_S / ((estimate(self.ref_before) + estimate(self.ref_after)) / 2.0)

    @property
    def calibrated_s(self) -> float:
        return self.raw_s * self.factor

    def to_dict(self) -> dict:
        return {
            "raw_s": self.raw_s,
            "ref_before": self.ref_before,
            "ref_after": self.ref_after,
            "calibrated_s": self.calibrated_s,
        }


class Calibrator:
    """Owns the reference helper process and times sections against it.

    Consecutive sections share samples: the sample taken after one
    section is also the one before the next, since only benchmark
    bookkeeping runs between them.  ``invalidate`` drops it when other
    work did.
    """

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._last: Optional[List[float]] = None
        self.sample()  # warm the helper (imports, page faults)
        self._last = None

    def sample(self) -> List[float]:
        """One reference sample, taken in the helper."""
        assert self._proc.stdin is not None and self._proc.stdout is not None
        self._proc.stdin.write("sample\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper exited")
        self._last = json.loads(line)
        return self._last

    def timed(self, fn: Callable[[], T]) -> Tuple[T, Section]:
        """Run ``fn`` as one timed section; returns its result and timing."""
        before = self._last if self._last is not None else self.sample()
        start = time.perf_counter()
        result = fn()
        raw_s = time.perf_counter() - start
        return result, Section(raw_s=raw_s, ref_before=before, ref_after=self.sample())

    def invalidate(self) -> None:
        """Forget the last sample (work ran since it was taken)."""
        self._last = None

    def close(self) -> None:
        if self._proc.poll() is None:
            assert self._proc.stdin is not None
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        if self._proc.stdout is not None:
            self._proc.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _helper_main() -> int:
    kernel = ReferenceKernel()
    for _ in sys.stdin:
        print(json.dumps(kernel.sample()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(_helper_main())
