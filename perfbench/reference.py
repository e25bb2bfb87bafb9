"""A fixed reference computation, timed between queries to track host speed.

The benchmark runs on shared virtual machines whose speed drifts: a fixed
pure-Python loop runs up to a third slower for seconds to tens of seconds
at a time, and the slow spells differ from run to run.  A run therefore
times this kernel every `BLOCK_S` seconds between queries and scales each
query's time by `REF_S` over the kernel's local time, which cancels the
drift and leaves the program's own cost.  The kernel never calls goeritz,
so no change to the program can move it; it mixes what the program does
(argparse, reduction of signed-letter words, piecewise-linear integer
updates, dicts, string output) so that host slowdowns hit both alike.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import time

REF_S = 0.003  # nominal kernel time: scaled times read as on a host where it takes 3 ms
BLOCK_S = 0.1  # at most this much query time between two kernel samples

_WORD = tuple((i * 7919) % 11 - 5 or 6 for i in range(1000))
_ARGV = ["member", "-n", "6", "--word", "1 -2 3 -4 5", "--json"]


def kernel() -> int:
    """About 3 ms of fixed work; returns a checksum."""
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("eq", "normalize", "member"):
        p = sub.add_parser(verb)
        p.add_argument("-n", type=int, required=True)
        p.add_argument("--word", default="")
        p.add_argument("--json", action="store_true")
    args = parser.parse_args(_ARGV)
    total = args.n + len(args.word)
    word = list(_WORD)
    for _ in range(10):
        stack: list[int] = []
        for g in word:
            if stack and stack[-1] == -g:
                stack.pop()
            else:
                stack.append(g)
        coords = [0] * 12
        for g in stack:
            j = abs(g) % 12
            coords[j] = max(coords[j] + g, coords[j - 1] - g)
        counts: dict[int, int] = {}
        for g in stack:
            counts[g] = counts.get(g, 0) + 1
        total += len(stack) + sum(coords) + len(counts) + len(" ".join(map(str, stack[:300])))
        word = [g if k % 3 else -g for k, g in enumerate(reversed(word))]
    return total


class Reference:
    """Kernel samples taken through a run, and the scale they imply."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = -float("inf")

    def sample(self) -> int:
        """Time the kernel once (collector off); return the sample's index."""
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - start)
        finally:
            gc.enable()
        self.last = time.perf_counter()
        return len(self.samples) - 1

    def due(self) -> int:
        """The index of the latest sample, taking a new one if the last is
        `BLOCK_S` old."""
        if time.perf_counter() - self.last >= BLOCK_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, i: int) -> float:
        """Factor for a time measured after sample i and before sample i + 1:
        REF_S over the median of the two samples on each side."""
        return REF_S / statistics.median(self.samples[max(0, i - 1):i + 3])
