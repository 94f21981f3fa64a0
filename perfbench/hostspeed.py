"""Host-speed normalisation of measured times.

The machines this benchmark runs on share their cores: the same pure-Python
loop runs up to 1.6 times slower for seconds at a time.  The benchmark
therefore keeps timing a fixed reference kernel, a miniature table parse
(regex tokens, a dict of tuples, a sort) written with the standard library
only, so that no change to the program can speed it up: once before each
op, and every 50 ms on a sampler thread, which the interpreter lets in at
its switch interval even while an op runs.  Each op's time is divided by
the host's slowdown while it ran: the median kernel time over `REF_S`, the
kernel's typical time on an idle two-CPU x86-64 host.  Ops long enough to
hold three sampler runs use those; shorter ops use the kernel runs before
the 17 nearest ops.  Reported seconds are thus seconds at nominal speed.
"""

from __future__ import annotations

import bisect
import re
import statistics
import threading
import time

REF_S = 120e-6
PERIOD_S = 0.05  # sampler interval
MIN_INSIDE = 3  # sampler runs an op needs to be judged by them alone
_REACH = 8  # ops on either side whose kernel runs estimate a short op's speed

_TOKEN = re.compile(r"\w+|->|,")
_LINES = [f"    n{i:03d} -> p{(i * 7) % 101:03d}," for i in range(40)]


def kernel_seconds() -> float:
    """One timed run of the reference kernel: a miniature table parse."""
    started = time.perf_counter()
    table: dict[str, tuple[str, int]] = {}
    for line in _LINES:
        tokens = [match.group() for match in _TOKEN.finditer(line)]
        table[tokens[0]] = (tokens[2], len(tokens))
    rows = sorted(table.items(), key=lambda row: row[1])
    "".join(key for key, _ in rows)
    return time.perf_counter() - started


class Sampler:
    """Times the kernel every PERIOD_S on a background thread while entered."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            started = time.perf_counter()
            self.samples.append((started, kernel_seconds()))

    def __enter__(self) -> Sampler:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self, start: float, end: float) -> float | None:
        """The slowdown over [start, end], or None if too few runs fell inside."""
        lo = bisect.bisect_left(self.samples, start, key=lambda s: s[0])
        hi = bisect.bisect_right(self.samples, end, key=lambda s: s[0])
        if hi - lo < MIN_INSIDE:
            return None
        return statistics.median(s[1] for s in self.samples[lo:hi]) / REF_S


def slowdowns(
    sampler: Sampler, spans: list[tuple[float, float]], kernel: list[float]
) -> list[float]:
    """Each op's slowdown, given the ops' (start, end) and the kernel run
    timed before each of them."""
    out = []
    for i, (start, end) in enumerate(spans):
        inside = sampler.slowdown(start, end)
        if inside is None:
            inside = statistics.median(kernel[max(0, i - _REACH) : i + _REACH + 1]) / REF_S
        out.append(inside)
    return out


def slowdown_now() -> float:
    """The host's slowdown measured on the spot, for one-off timings."""
    return statistics.median(kernel_seconds() for _ in range(2 * _REACH + 1)) / REF_S
