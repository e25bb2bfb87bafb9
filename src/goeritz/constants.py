"""The finiteness constants: fixed-point arithmetic reproduced exactly.

R(h) = m - 4h where m solves m = 2h(6 + log2(m + 2)); the map is a
contraction for m > 0, so plain iteration converges.  With h0 = 32 the
smallest integer at least R(h0) is 897, giving the quasiconvexity cap
2R + 2 <= 1796, and together with the hyperbolicity constant 102 the
distance threshold max(2K + 4, 2K + 2*delta) = 3796.
"""

from __future__ import annotations

import math

from .words import _Record

HYPERBOLICITY_DELTA = 102.0
QUASICONVEXITY_CAP = 1796.0
H_ZERO = 32.0
# The fixed-point iteration of solve_m stops when a step moves m by less than
# TOLERANCE, and fails after MAX_ITERATIONS steps.
TOLERANCE = 1e-9
MAX_ITERATIONS = 100_000


class ConstantsReport(_Record):
    """The fixed point m, R(h) and the constants derived from it, for one h."""

    __slots__ = ("h", "m", "R", "ceil_R", "two_R_plus_two", "quasiconvexity_cap", "delta", "N")

    def __init__(self, h: float, m: float, R: float, ceil_R: int, two_R_plus_two: float,
                 quasiconvexity_cap: float, delta: float, N: float) -> None:
        self._set(h, m, R, ceil_R, two_R_plus_two, quasiconvexity_cap, delta, N)


def solve_m(h: float) -> float:
    """Fixed point of m = 2h(6 + log2(m + 2)), from m0 = 12h."""
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be a positive finite number, got {h!r}")
    m = 12.0 * h
    for _ in range(MAX_ITERATIONS):
        nxt = 2.0 * h * (6.0 + math.log2(m + 2.0))
        if math.isinf(nxt):
            raise ValueError(f"h = {h!r} is too large: the fixed point overflows")
        if abs(nxt - m) < TOLERANCE:
            return nxt
        m = nxt
    raise RuntimeError("fixed-point iteration did not converge")


def finiteness_constant(K: float, delta: float) -> float:
    """max(2K + 4, 2K + 2*delta)."""
    if K <= 0 or delta <= 0:
        raise ValueError("K and delta must be positive")
    return max(2.0 * K + 4.0, 2.0 * K + 2.0 * delta)


def solve_R(h: float) -> ConstantsReport:
    m = solve_m(h)
    R = m - 4.0 * h
    return ConstantsReport(
        h=h,
        m=m,
        R=R,
        ceil_R=math.ceil(R),
        two_R_plus_two=2.0 * R + 2.0,
        quasiconvexity_cap=QUASICONVEXITY_CAP,
        delta=HYPERBOLICITY_DELTA,
        N=finiteness_constant(QUASICONVEXITY_CAP, HYPERBOLICITY_DELTA),
    )
