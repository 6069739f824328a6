"""Speed samples that put times taken on a shared machine at one nominal speed.

On a shared machine the speed of one core drifts by up to a factor of
two, and it does so within fractions of a second: process CPU time
drifts with it, so neither raw wall nor CPU times of runs taken minutes
apart are comparable, and two readings taken right before and right
after a seconds-long operation do not tell its mean speed. A sibling
process (``SpeedSampler``) on the same CPU therefore times a short fixed
computation, which never changes and does not use qheat, every
``PERIOD_S`` for the whole run. It shares neither heap, garbage
collector nor threads with the program under test. ``Calibration`` turns
a measured interval's wall time into a cost in reference units, which
stays put when the whole core slows down: it removes the time the
sibling held the CPU, and divides each piece of the rest by the time of
the sample taken at its start. Multiplied by ``NOMINAL_SAMPLE_S`` it
reads as seconds at one fixed speed. Like
qheat's hot loops, the reference is interpreter-bound work on small
numpy arrays.

    python3 reference.py --serve    # samples until stdin closes, then prints the samples as JSON
"""

from __future__ import annotations

import bisect
import itertools
import json
import select
import subprocess
import sys
import time

import numpy as np

SAMPLE_STEPS = 75
WARM_STEPS = 5
PERIOD_S = 0.02
STOP_TIMEOUT_S = 30
# A sample's time on an unloaded core of a 2-core Xeon VM (Python 3.11,
# numpy 2.4). It only sets the scale: calibrated times read as seconds on
# that core.
NOMINAL_SAMPLE_S = 0.001

_RNG = np.random.default_rng(12345)
_EVALS = np.array([-1.3, -0.2, 0.4, 1.1])
_Q, _ = np.linalg.qr(_RNG.normal(size=(4, 4)) + 1j * _RNG.normal(size=(4, 4)))
_ROWS = np.ascontiguousarray(_Q.conj().T)


def reference_work(steps: int = SAMPLE_STEPS) -> int:
    rng = np.random.default_rng(12345)
    state = _Q[:, 0].copy()
    total = 0
    for _ in range(steps):
        state = np.exp(-0.7j * _EVALS) * state
        amps = _ROWS @ state
        born = amps.real**2 + amps.imag**2
        r = rng.random() * float(born.sum())
        acc = 0.0
        for k, p in enumerate(born.tolist()):
            acc += p
            if r < acc:
                break
        total += k
        state = _Q[:, k]
    return total


class Calibration:
    """Clocks built from the sibling's samples, as functions of ``time.perf_counter``.

    ``samples`` are (wake, sample start, sample end) of the sibling, in
    order and not overlapping; from wake to sample end it held the CPU.
    """

    def __init__(self, samples: list[tuple[float, float, float]]):
        if not samples:
            raise RuntimeError("no speed samples")
        self.samples = samples
        self.wakes = [s[0] for s in samples]
        self.busy_before = list(itertools.accumulate((s[2] - s[0] for s in samples), initial=0.0))
        # The own time from one wake to the next runs at the speed of the
        # sample taken at the first of the two.
        self.factors = [NOMINAL_SAMPLE_S / (s[2] - s[1]) for s in samples]
        own_wakes = [w - b for w, b in zip(self.wakes, self.busy_before)]
        steps = ((own_wakes[k + 1] - own_wakes[k]) * self.factors[k] for k in range(len(samples) - 1))
        self.nominal_at_wake = list(itertools.accumulate(steps, initial=0.0))

    def own(self, t: float) -> float:
        """``t`` less all the time the sibling held the CPU before ``t``."""
        i = bisect.bisect_right(self.wakes, t)
        if i == 0:
            return t
        return t - self.busy_before[i] + max(0.0, self.samples[i - 1][2] - t)

    def nominal(self, t: float) -> float:
        """Own time up to ``t``, each piece of it at the speed of the last sample before it.

        The difference of two readings is an interval's own time in
        seconds at the nominal speed. Before the first sample, the first
        sample's speed is used.
        """
        k = max(0, bisect.bisect_right(self.wakes, t) - 1)
        return self.nominal_at_wake[k] + (self.own(t) - self.own(self.wakes[k])) * self.factors[k]


class SpeedSampler:
    """The sibling process, sampling from start until ``stop``.

    It inherits the caller's CPU affinity; ``perf_counter`` readings of
    both processes come from the same system-wide clock. Use it as a
    context manager: leaving the block ends the process and waits for it.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve"], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        # Its start-up would otherwise compete with the first measurements.
        if self.proc.stdout.readline() != "ready\n":
            raise RuntimeError(f"speed sampler did not start (exit code {self.proc.wait()})")

    def stop(self) -> list[tuple[float, float, float]]:
        """End the sibling and return every sample it took."""
        try:
            out, _ = self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RuntimeError("speed sampler did not stop") from None
        if self.proc.returncode != 0 or not out.strip():
            raise RuntimeError(f"speed sampler failed (exit code {self.proc.returncode})")
        return [tuple(s) for s in json.loads(out)]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()


def serve() -> int:
    reference_work()  # the first samples in a fresh process run cold
    print("ready", flush=True)
    samples = []
    while not select.select([0], [], [], PERIOD_S)[0]:
        wake = time.perf_counter()
        reference_work(WARM_STEPS)  # untimed: refills the caches the program evicted
        start = time.perf_counter()
        reference_work()
        samples.append((wake, start, time.perf_counter()))
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__" and sys.argv[1:] == ["--serve"]:
    sys.exit(serve())
