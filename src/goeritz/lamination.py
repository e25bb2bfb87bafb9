"""Integer lamination coordinates on the punctured disk and growth rates.

A lamination on the disk with m punctures is encoded by 2m-4 integers,
grouped as pairs (a_i, b_i) for i = 1..m-2 attached to the interior
punctures.  Braid generators act by exact piecewise-linear maps touching
only the pairs i-1 and i; the rules were derived from the curve model
(cyclic free-group words under the Artin action) by exact fitting against
intersection-number extraction and hold as identities on the whole lattice,
not just on vectors realized by curves.

The chart convention: the curve enclosing punctures j and j+1 has
a_j = 1, b_j = 0 (when j <= m-2) and a_{j-1} = 0, b_{j-1} = 1 (when
j >= 2), all other entries zero.  The all-zero vector encodes no curve
and is rejected.

Growth rates: iterating a pseudo-Anosov braid multiplies coordinate norms
by its dilatation asymptotically, so the averaged log-increment of the
1-norm converges to log(lambda).  That number is estimated per seed and
maximized over two multicurves that together fill the disk, the unions of
the odd- and of the even-indexed adjacent-pair curves (the growth of a
multicurve is the largest growth of its components, so this has the same
limit as the maximum over all m-1 curves).  A seed converges when the
means of two consecutive ten-iteration windows agree within the relative
TOLERANCE, a module constant read at call time.

The estimator iterates the word less each pair l ... -l with only far
letters between (words._cancel_commuting).  The braid relations hold on
the whole lattice, so that word is the same map and gives the same orbits.
It iterates only the coordinate pairs that word moves, with each seed's
pairs written down from their indices, and the rest, which no letter
moves, carried as one constant 1-norm.  That front end, _compile_touched,
is shared by act and by wordproblem.is_trivial.

Reducible and periodic braids give orbits that become exactly linear,
c_{k+p} = c_k + d (d = 0 for a periodic orbit), after a few iterations.
At k = 10, 20 and 40 the estimator tries to prove that: it applies the
same compiled action p times to the ray c_k + t*d, t >= 0, with every
comparison decided on the whole ray.  The pieces of the action are closed
convex cones and the rules are continuous on their walls, so a ray that
meets no wall and comes back as c_k + (t+1)*d proves the tail: the seed's
coordinates grow at most linearly, so its exponential growth rate is
exactly 0.  A proved tail decides its seed: the estimate is 0 and
converged.  The two multicurves fill the disk, so when both are proved the
braid's entropy is 0.

The classification reads only the estimate and whether every seed
converged: sub-exponential is a converged 0, exponential a converged
estimate above 1e-3, and everything else inconclusive.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from .words import BraidWord, _Record, _cancel_commuting, _family_factors


class LamCoords(_Record):
    """Coordinates of an integral lamination on the m-punctured disk."""

    __slots__ = ("punctures", "coords")

    def __init__(self, punctures: int, coords: tuple[int, ...]) -> None:
        if punctures < 3:
            raise ValueError("lamination coordinates need at least 3 punctures")
        coords = tuple(coords)
        if len(coords) != 2 * punctures - 4:
            raise ValueError(f"need {2 * punctures - 4} coordinates for {punctures} punctures, "
                             f"got {len(coords)}")
        if all(x == 0 for x in coords):
            raise ValueError("the zero vector does not encode a curve")
        self._set(punctures, coords)


def _compile_touched(
    m: int, letters: Sequence[int]
) -> tuple[list[int], list[tuple[int, int, int, int, int]], list[list[int]]]:
    """Compile a word on m strands onto the coordinate pairs its letters touch.

    Returns (pairs, ops, starts).  pairs lists, in order, the indices
    p = 2i - 2 of the touched pairs (a_i, b_i): sigma_k touches the pairs at
    2k - 4 (k > 1) and 2k - 2 (k < m - 1), so on 3 strands sigma_1 and
    sigma_2 share pair 0.  The ops apply the letters rightmost first to the
    touched pairs alone, pairs[j] re-indexed to 2j, and each is
    (kind, p, p + 1, q, q + 1): kind 0 for sigma_k and 1 for sigma_k^-1 with
    1 < k < m - 1, on the pairs at p and q = p + 2; 2 and 3 for
    sigma_1^+-1 and 4 and 5 for sigma_{m-1}^+-1, on the pair at p alone,
    with q and q + 1 set to 0.  Each distinct signed letter's op is built
    once, and the word is read through that table.

    starts holds both seed multicurves on those pairs.  The pair at p holds
    a_i of curve c_i and b_i of curve c_{i+1}, so the odd multicurve, the
    union of the odd-indexed adjacent-pair curves, is (1, 0) there when
    p % 4 == 0 and (0, 1) when p % 4 == 2, and the even multicurve is its
    complement.  The other coordinates stay constant, so each start keeps
    them as one last entry, their 1-norm m - 2 - len(pairs), which no op
    touches: every norm is that of the whole vector, while the work and the
    orbit history follow the word, not the strand count.
    """
    gens = set(map(abs, letters))
    pairs = sorted({2 * k - 4 for k in gens if k > 1} | {2 * k - 2 for k in gens if k < m - 1})
    new = {p: 2 * i for i, p in enumerate(pairs)}
    table = {}
    for k in gens:
        p = new[max(2 * k - 4, 0)]
        kind, q, q1 = (2, 0, 0) if k == 1 else (4, 0, 0) if k == m - 1 else (0, p + 2, p + 3)
        table[k], table[-k] = (kind, p, p + 1, q, q1), (kind + 1, p, p + 1, q, q1)
    odd = [x for p in pairs for x in ((1, 0) if p % 4 == 0 else (0, 1))]
    rest = m - 2 - len(pairs)
    return pairs, list(map(table.__getitem__, reversed(letters))), [
        odd + [rest], [1 - x for x in odd] + [rest]]


def _apply(c: list[int], ops: Sequence[tuple[int, int, int, int, int]]) -> None:
    """Apply compiled ops to the coordinates in place, in order.

    Each op is (kind, p, p + 1, q, q + 1), as _compile_touched builds it:
    kinds 0 and 1 are sigma_k^+-1 in the middle, on the pairs at p and
    q = p + 2; kinds 2 and 3 are sigma_1^+-1 and kinds 4 and 5
    sigma_{m-1}^+-1, on the pair at p alone.  Coordinates are ints or _Ray,
    and the kernel uses only +, -, <, <= and >, between coordinates and
    against 0.

    This is the hot path of every entropy estimate, so the rules are
    inlined, with min, max and abs written as comparisons, and coordinates
    move a pair at a time: a two-name assignment compiles to plain loads and
    stores, where four names would build and unpack a tuple.  The middle
    rules, on the pairs (a_p, b_p) and (a_q, b_q), are

        sigma_k:      a_p' = a_p + max(0, min(2(b_q - b_p), a_q - b_p))
                      b_q' = min(b_q, 2a_q - b_q, b_p + a_q - b_q)
                      a_q' = a_p + a_q - b_q,  b_p' = a_p' - b_q' + b_p
        sigma_k^-1:   a_p' = min(b_p - a_p + a_q, 2b_p - a_p, a_p)
                      a_q' = max(a_p - a_q + b_q, a_p - 2b_p + a_q + b_q,
                                 a_q + b_q - a_p)
                      b_p' = b_p - a_p + b_q,  b_q' = a_p' + a_q' - a_q

    with shared differences computed once, and the edge rules, on the one
    pair (a, b) they touch, are

        sigma_1:          d = a - b;  (d, b) if d > 0 else (d, a + d)
        sigma_1^-1:       (b - a, b - 2a) if a < 0 else (b + a, b)
        sigma_{m-1}:      (a - 2b, a - b) if b < 0 else (a, a + b)
        sigma_{m-1}^-1:   d = b - a;  (a, d) if d > 0 else (b + d, d)
    """
    for kind, p, p1, q, q1 in ops:
        if kind == 0:
            ap, bp = c[p], c[p1]
            aq, bq = c[q], c[q1]
            d = aq - bq
            t = bq - bp
            t += t
            u = aq - bp
            if u < t:
                t = u
            na = ap + t if t > 0 else ap
            nb = aq + d
            if bq < nb:
                nb = bq
            u = bp + d
            if u < nb:
                nb = u
            c[p], c[p1] = na, na - nb + bp
            c[q], c[q1] = ap + d, nb
        elif kind == 1:
            ap, bp = c[p], c[p1]
            aq, bq = c[q], c[q1]
            e = bp - ap
            na = e + aq
            u = e + bp
            if u < na:
                na = u
            if ap < na:
                na = ap
            nq = aq + bq - ap
            u = nq - e - e
            if u > nq:
                nq = u
            u = ap + bq - aq
            if u > nq:
                nq = u
            c[p], c[p1] = na, e + bq
            c[q], c[q1] = nq, na + nq - aq
        elif kind == 2:
            a = c[p]
            d = a - c[p1]
            c[p] = d
            if d <= 0:
                c[p1] = a + d
        elif kind == 3:
            a, b = c[p], c[p1]
            if a < 0:
                c[p], c[p1] = b - a, b - a - a
            else:
                c[p] = b + a
        elif kind == 4:
            a, b = c[p], c[p1]
            if b < 0:
                c[p], c[p1] = a - b - b, a - b
            else:
                c[p1] = a + b
        else:
            b = c[p1]
            d = b - c[p]
            c[p1] = d
            if d <= 0:
                c[p] = b + d


def act(word: BraidWord, lam: LamCoords) -> LamCoords:
    """Image of the lamination under the braid, rightmost letter first."""
    if word.strands != lam.punctures:
        raise ValueError(
            f"strand count {word.strands} does not match "
            f"{lam.punctures} punctures"
        )
    c = list(lam.coords)
    pairs, ops, _ = _compile_touched(lam.punctures, word.letters)
    touched = [x for p in pairs for x in c[p:p + 2]]
    _apply(touched, ops)
    for j, p in enumerate(pairs):
        c[p:p + 2] = touched[2 * j:2 * j + 2]
    return LamCoords(lam.punctures, tuple(c))


class EntropyReport(_Record):
    """Growth-rate estimate for one braid word."""

    __slots__ = ("word_length", "strands", "iterations", "log_lambda", "converged", "classification")

    def __init__(self, word_length: int, strands: int, iterations: int, log_lambda: float,
                 converged: bool, classification: str) -> None:
        self._set(word_length, strands, iterations, log_lambda, converged, classification)


# Relative agreement of two consecutive window means at which a seed converges.
TOLERANCE = 1e-8
_WINDOW = 10
_PROOFS = (_WINDOW, 2 * _WINDOW, 4 * _WINDOW)  # linear tails are sought at k = 10, 20, 40


class _WallCrossing(ArithmeticError):
    """A ray met a wall of the piecewise-linear action: no single piece
    carries it."""


class _Ray:
    """The affine ray c + t*d, t >= 0, as a number for _apply.

    Sums and differences act on (c, d) coefficientwise; an int is subtracted
    from the base.  A sign is decided on the whole ray: one that starts at 0
    has the sign of its slope, and one whose base and slope have strictly
    opposite signs changes sign at some t > 0 and raises _WallCrossing.  So
    every comparison picks one linear piece for the whole ray; where the
    difference is 0 at t = 0 the pieces agree there, by continuity.
    """

    __slots__ = ("c", "d")

    def __init__(self, c: int, d: int) -> None:
        self.c = c
        self.d = d

    def __add__(self, other: "_Ray") -> "_Ray":
        return _Ray(self.c + other.c, self.d + other.d)

    def __sub__(self, other: "_Ray | int") -> "_Ray":
        if isinstance(other, _Ray):
            return _Ray(self.c - other.c, self.d - other.d)
        return _Ray(self.c - other, self.d)

    def sign(self) -> int:
        c, d = self.c, self.d
        if (c > 0 and d < 0) or (c < 0 and d > 0):
            raise _WallCrossing
        s = c or d
        return (s > 0) - (s < 0)

    def __lt__(self, other: "_Ray | int") -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: "_Ray | int") -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: "_Ray | int") -> bool:
        return (self - other).sign() > 0


def _prove_period(
    ops: Sequence[tuple[int, int, int, int, int]],
    start: Sequence[int],
    step: Sequence[int],
    p: int,
) -> bool:
    """Prove f^p(start + t*step) = start + (t+1)*step for every t >= 0.

    f is the compiled word.  Applies it p times to the ray start + t*step;
    the proof fails if a comparison crosses a wall or the ray does not come
    back shifted by one step.
    """
    ray = [_Ray(x, s) for x, s in zip(start, step)]
    try:
        for _ in range(p):
            _apply(ray, ops)
    except _WallCrossing:
        return False
    return all(r.c == x + s and r.d == s for r, x, s in zip(ray, start, step))


def _linear_tail(
    ops: Sequence[tuple[int, int, int, int, int]], history: Sequence[Sequence[int]]
) -> Optional[int]:
    """The period of a proved linear tail of the orbit history = (c_0..c_K).

    Tries each period p <= K/2 whose last two p-step differences agree,
    c_K - c_{K-p} = c_{K-p} - c_{K-2p} = d, in increasing order, and
    returns the first that _prove_period proves: then
    c_{K + jp} = c_K + j*d for every j >= 0.  The coordinate sums s_k are
    linear, so a p with s_K - s_{K-p} != s_{K-p} - s_{K-2p} is skipped
    unread; otherwise the comparison stops at the first nonzero second
    difference, and d is built only for a candidate.  A candidate with
    d = 0 needs no proof: c_K = c_{K-p} makes the orbit periodic, since f
    is a function.
    """
    k = len(history) - 1
    last = history[k]
    sums = list(map(sum, history))
    for p in range(1, k // 2 + 1):
        if sums[k] - sums[k - p] != sums[k - p] - sums[k - 2 * p]:
            continue
        mid = history[k - p]
        if all(x - y == y - z for x, y, z in zip(last, mid, history[k - 2 * p])):
            step = [x - y for x, y in zip(last, mid)]
            if not any(step) or _prove_period(ops, last, step, p):
                return p
    return None


def _log_norm(c: Iterable[int]) -> float:
    return math.log(sum(map(abs, c)))


def _estimate_seed(
    ops: Sequence[tuple[int, int, int, int, int]],
    start: Sequence[int],
    max_iterations: int,
) -> tuple[float, bool, int]:
    """Iterate one seed's coordinates under the compiled word; return
    (estimate, converged, iters).

    The norm is read only where it is used: at each window boundary, or at
    the last two iterates when no window closes.  Iterations after the last
    whole window cannot change the estimate, so they are counted but not
    applied.  At k = 10, 20 and 40, before the convergence test, an orbit
    that _linear_tail proves linear ends the seed: estimate 0, converged.
    """
    c = list(start)
    start_log = _log_norm(c)
    if max_iterations < _WINDOW:
        for _ in range(max_iterations - 1):
            _apply(c, ops)
        prev_log = _log_norm(c)
        if max_iterations:
            _apply(c, ops)
        estimate = _log_norm(c) - prev_log
        return max(estimate, 0.0), False, max_iterations
    history = [tuple(c)]
    prev = None
    for k in range(_WINDOW, max_iterations + 1, _WINDOW):
        for _ in range(_WINDOW):
            _apply(c, ops)
            if k <= _PROOFS[-1]:
                history.append(tuple(c))
        cur_log = _log_norm(c)
        # The log-norm difference across the window: exactly 0 for a flat norm.
        mean = (cur_log - start_log) / _WINDOW
        start_log = cur_log
        if k in _PROOFS and _linear_tail(ops, history) is not None:
            return 0.0, True, k
        if prev is not None and abs(mean - prev) <= TOLERANCE * max(abs(mean), 1e-12):
            return max(mean, 0.0), True, k
        prev = mean
    return max(mean, 0.0), False, max_iterations


def _classify(estimate: float, converged: bool) -> str:
    if converged and estimate == 0.0:
        return "sub-exponential"
    if converged and estimate > 1e-3:
        return "exponential"
    return "inconclusive"


def entropy_estimate(word: BraidWord, max_iterations: int = 200) -> EntropyReport:
    """Growth rate of lamination coordinates under iteration of the braid.

    Iterates the two filling multicurves, averages log-norm increments
    over trailing windows, and reports the maximum over seeds.  The word
    iterated is the braid's word less its commuting cancellations, which is
    the same map, on the coordinate pairs it moves;
    the seeds' entries there follow from the pair indices (_compile_touched),
    so neither the cancelled letters nor the strand count cost work.  A seed
    whose orbit is proved linear reports exactly 0, so the report is 0,
    converged and sub-exponential when both are.  The report is converged
    when every seed is; otherwise it is inconclusive, never a fabricated
    value.
    max_iterations must be non-negative.
    """
    if word.strands < 3:
        raise ValueError("entropy estimation needs at least 3 strands")
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be non-negative, got {max_iterations}")
    _, ops, starts = _compile_touched(word.strands, _cancel_commuting(word.letters))
    estimates, seeds_converged, iterations = zip(*(
        _estimate_seed(ops, start, max_iterations) for start in starts
    ))
    log_lambda, converged = max(estimates), all(seeds_converged)
    return EntropyReport(
        word_length=len(word),
        strands=word.strands,
        iterations=sum(iterations),
        log_lambda=log_lambda,
        converged=converged,
        classification=_classify(log_lambda, converged),
    )


def penner_lower_bound(punctures: int) -> float:
    """log 2 / (4m - 12), the universal lower bound for pseudo-Anosov
    entropy on the m-punctured sphere, m >= 4."""
    if punctures < 4:
        raise ValueError("the lower bound needs at least 4 punctures")
    return math.log(2.0) / (4 * punctures - 12)


class BoundViolation(RuntimeError):
    """A converged estimate fell below a proven lower bound.

    This is a fault in the estimate, never a mathematical verdict.
    """


class SweepRecord(_Record):
    """One row of a normalized-entropy sweep."""

    __slots__ = ("family", "n", "strands", "log_lambda", "normalized", "penner_bound", "converged")

    def __init__(self, family: str, n: int, strands: int, log_lambda: float, normalized: float,
                 penner_bound: float, converged: bool) -> None:
        self._set(family, n, strands, log_lambda, normalized, penner_bound, converged)


def family_sweep(
    which: str,
    n_range: Iterable[int],
    max_iterations: int = 4000,
) -> list[SweepRecord]:
    """Sweep the stabilized family, one record per index n.

    The record's normalized entropy is strands * log_lambda; every
    converged estimate is checked against the Penner bound with 1e-6 slack,
    and one below it raises BoundViolation.  The values are disk estimates;
    for small n the spherical entropy may differ, which downstream
    consumers must keep in mind.

    It iterates X Y^-2 (X Z^-2), which acts as X Y^(2n+1) (X Z^(2n+1)): with
    d = sigma_1...sigma_{m-1}, Y = d^2 and Z = (d sigma_{m-1})^2 have (2n+3)-th
    powers d^m = (d sigma_{m-1})^(m-1) = Delta^2, central and fixing every lamination.

    Rows n = 1..6 and 8 of both families match, within 1e-6, the log of the
    largest root in (1, 2) of x^(2n+3) - 2x^(n+2) - 2x^(n+1) + 1.  That closed
    form is observed, not proved.
    """
    records = []
    for n in n_range:
        x, second = _family_factors(which, n)
        word = x * second ** -2
        report = entropy_estimate(word, max_iterations=max_iterations)
        bound = penner_lower_bound(word.strands)
        if report.converged and report.log_lambda < bound - 1e-6:
            raise BoundViolation(
                f"estimate {report.log_lambda} below the universal bound {bound}"
            )
        records.append(
            SweepRecord(
                family=which,
                n=n,
                strands=word.strands,
                log_lambda=report.log_lambda,
                normalized=word.strands * report.log_lambda,
                penner_bound=bound,
                converged=report.converged,
            )
        )
    return records
