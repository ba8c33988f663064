"""A fixed reference loop that measures how fast the host runs right now.

The machine the benchmark runs on is shared, and its speed changes by up
to a factor of two within a second, for every process on it alike.  The
benchmark times this loop while it measures and reports times scaled to
the speed the loop shows then:

    scaled = measured * REFERENCE_S / reference time

so a scaled time moves when the program does more or less work, and much
less when the host speeds up or slows down.  The loop is pure Python of
the kinds the program runs (permutation composition, tuple hashing, dict
and set updates, integer arithmetic) and is part of the benchmark, so no
change to the program moves it.
"""

from __future__ import annotations

import threading
import time

# Seconds the loop is taken to last on the reference machine; it only sets
# the scale of the reported times.
REFERENCE_S = 0.01

_DEGREE = 48
_STEPS = 4000


def _work(steps: int = _STEPS) -> int:
    perms = [tuple((i * k + k) % _DEGREE for i in range(_DEGREE)) for k in (5, 7, 11, 13, 17, 19, 23, 25)]
    seen: dict[tuple[int, ...], int] = {}
    orbit: set[int] = set()
    x = tuple(range(_DEGREE))
    acc = 0
    for step in range(steps):
        p = perms[step & 7]
        x = tuple([x[j] for j in p])
        seen[x] = seen.get(x, 0) + 1
        orbit.add(x[step % _DEGREE] * _DEGREE + x[0])
        acc = (acc * 31 + x[1]) % 1_000_003
    return acc + len(seen) + len(orbit)


def reference() -> tuple[float, float]:
    """(wall seconds, CPU seconds) of one pass of the reference loop."""
    cpu0, t0 = time.process_time(), time.perf_counter()
    _work()
    return time.perf_counter() - t0, time.process_time() - cpu0


class Sampler:
    """A thread that times a short pass of the reference loop every
    ``PERIOD`` seconds while the queries run, so that a long query is
    scaled by the speed the host had during it.

    A pass is a tenth of the loop (about a millisecond) and holds the
    interpreter lock throughout, so the program pauses for it; the cost is
    the same on every commit.
    """

    PERIOD = 0.05
    STEPS = _STEPS // 10

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds of one pass)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        t0 = time.perf_counter()
        _work(self.STEPS)
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, t1 - t0))

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD):
            self._sample()

    def __enter__(self) -> "Sampler":
        self._sample()  # so that there is always a nearest pass
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the loop's time in [t0, t1]: the mean speed of
        the passes made then, or of the pass nearest to it."""
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        if not inside:
            mid = (t0 + t1) / 2
            inside = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return sum(REFERENCE_S / (10 * d) for d in inside) / len(inside)
