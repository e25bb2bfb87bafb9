"""Exact word problem in the braid group and the spherical mapping class group.

Triviality is decided by the exact integer lamination action of
goeritz.lamination, on m+1 punctures for a braid on m strands (the braid
leaves the extra puncture m+1 in place).  Star curve i, for i = 1..m,
surrounds punctures i and m+1 and passes on one side of the punctures in
between; it bounds a neighbourhood of an arc from i to m+1, and these m arcs
meet only at m+1.  A braid that fixes every star curve fixes every star arc
and every puncture.  The arcs cut the disk into an annulus, so by the
Alexander method the braid is a power of the twist about the boundary, the
full twist of B_{m+1}; that twist links strand m+1 with the others, which a
braid of B_m never does, so the power is 0 and the braid is trivial.  On m
punctures alone this would fail: the full twist of B_m acts trivially there.
One letter costs O(1) integer operations per curve, and coordinates grow by
at most O(L) bits over a word of length L, so the test takes O(m L) such
operations (Dehornoy, Dynnikov, Rolfsen and Wiest, Ordering Braids, AMS
2008, ch. XII; Thiffeault and Budisic, braidlab, arXiv:1410.0849, whose
equality test also adds a basepoint puncture).  Those operations are
capped by MAX_CURVE_STEPS; a word whose exponent sum is not 0 needs none of
them.  Equality is triviality of a b^-1.

Handle-free representatives come from handle reduction: repeatedly rewrite
the leftmost handle (a subword e v -e where e is a letter, -e its inverse,
and v contains only letters of strictly larger index) until none remains.
The procedure always terminates; the result is empty exactly when the
braid is trivial, because a handle-free nonempty word is sigma-positive or
sigma-negative in its lowest index.  Its step count is capped by
GOERITZ_MAX_STEPS.

A rewrite does not rescan or re-cancel the whole word.  The first rewrite
free-cancels the whole word once, because the input need not be freely
reduced.  From then on the word stays freely reduced: every later rewrite
splices its freely reduced replacement in place and cancels only at the two
seams, which is all free reduction can do to three freely reduced pieces.
The search for the next handle resumes at the left seam lo.  No handle of
the new word closes before lo: it would lie in the unchanged prefix, so it
would also be a handle of the old word closing before the one just
rewritten, which was the leftmost-closing one.  The rewrite sequence, the
result and the step count are those of rescanning the whole word after every
rewrite.  Two steps stay linear in the worst case: rebuilding the scan state
walks back from lo to the first letter of index 1, which is position 0 when
the prefix has none, and the splice moves the suffix of the list.
"""

from __future__ import annotations

import os
from typing import Sequence

from .freegroup import FreeEndo, FreeWord, ResourceExhausted, artin_action, is_inner
from .lamination import _apply, _compile
from .words import BraidWord, SphericalBraid, _free_cancel, compose, exponent_sum, inverse, permutation_of

DEFAULT_MAX_STEPS = 10_000_000
# Cap on the work of is_trivial: star curves times letters, over all runs.
MAX_CURVE_STEPS = 10_000_000


def max_steps_from_env(default: int = DEFAULT_MAX_STEPS) -> int:
    """The step cap from GOERITZ_MAX_STEPS, or ``default`` when it is unset."""
    value = os.environ.get("GOERITZ_MAX_STEPS")
    if value is None:
        return default
    try:
        cap = int(value)
        if cap >= 0:
            return cap
    except ValueError:
        pass
    raise ValueError(f"GOERITZ_MAX_STEPS must be a non-negative integer, got {value!r}")


def _star_curve(strands: int, i: int) -> list[int]:
    """Coordinates of star curve i on m+1 punctures, m = strands.

    The curve surrounds punctures i and m+1 and passes on one side of the
    punctures in between: it is the image of the adjacent-pair curve around
    i, i+1 under sigma_m ... sigma_{i+1} (rightmost first).  In coordinates
    that is a_1 = b_1 = ... = 1 for i = 1, and for i >= 2 the first 2i-3
    entries zero and the remaining ones 1.
    """
    zeros = 2 * i - 3 if i >= 2 else 0
    return [0] * zeros + [1] * (2 * strands - 2 - zeros)


def _fixes_star_curves(strands: int, letters: Sequence[int]) -> bool:
    """Whether the braid on ``strands`` strands fixes every star curve."""
    ops = _compile(strands + 1, reversed(letters))
    for i in range(1, strands + 1):
        curve = _star_curve(strands, i)
        c = curve.copy()
        _apply(c, ops)
        if c != curve:
            return False
    return True


def _find_handle(letters: list[int], start: int) -> tuple[int, int] | None:
    """Position pair (q, p) of the leftmost-closing handle, or None.

    The caller guarantees that no handle closes before ``start``.  The scan
    state is a stack of (index, position) pairs, indices strictly increasing
    upwards: the last occurrence of each index with no smaller index after
    it.  The state at ``start`` is rebuilt by scanning backward, which stops
    at the first letter of index 1 because nothing can lie below it.
    """
    stack: list[tuple[int, int]] = []
    for r in range(start - 1, -1, -1):
        i = abs(letters[r])
        if not stack or i < stack[-1][0]:
            stack.append((i, r))
            if i == 1:
                break
    stack.reverse()
    for p in range(start, len(letters)):
        letter = letters[p]
        i = abs(letter)
        while stack and stack[-1][0] > i:
            stack.pop()
        if stack and stack[-1][0] == i:
            q = stack[-1][1]
            if letters[q] == -letter:
                return q, p
            stack[-1] = (i, p)
        else:
            stack.append((i, p))
    return None


def _replacement(letters: list[int], q: int, p: int) -> tuple[int, ...]:
    """The freely reduced rewrite of the handle letters[q..p].

    In e v -e with e = sigma_i^s, each sigma_{i+1}^d of v becomes
    sigma_{i+1}^-s sigma_i^d sigma_{i+1}^s; higher letters are kept.
    """
    i = abs(letters[q])
    e = 1 if letters[q] > 0 else -1
    replacement: list[int] = []
    for letter in letters[q + 1 : p]:
        if abs(letter) == i + 1:
            d = 1 if letter > 0 else -1
            replacement.extend((-e * (i + 1), d * i, e * (i + 1)))
        else:
            replacement.append(letter)
    return _free_cancel(replacement)


def _splice(letters: list[int], lo: int, hi: int, replacement: tuple[int, ...]) -> int:
    """Set letters[lo:hi] = replacement, cancelling only at the two seams.

    letters[:lo], letters[hi:] and the replacement must each be freely
    reduced; the result then is too.  Returns the left seam, the first
    position that changed.
    """
    n = len(letters)
    head, tail = 0, len(replacement)
    while head < tail and lo > 0 and letters[lo - 1] == -replacement[head]:
        lo -= 1
        head += 1
    while head < tail and hi < n and replacement[tail - 1] == -letters[hi]:
        tail -= 1
        hi += 1
    if head == tail:
        while lo > 0 and hi < n and letters[lo - 1] == -letters[hi]:
            lo -= 1
            hi += 1
    letters[lo:hi] = replacement[head:tail]
    return lo


def handle_reduce(word: BraidWord, max_steps: int | None = None) -> BraidWord:
    """An equivalent handle-free word; empty iff the input is trivial."""
    cap = max_steps_from_env() if max_steps is None else max_steps
    letters = list(word.letters)
    steps = 0
    start = 0
    while True:
        found = _find_handle(letters, start)
        if found is None:
            return BraidWord(word.strands, tuple(letters))
        steps += 1
        if steps > cap:
            raise ResourceExhausted(
                f"handle reduction exceeded {cap} steps on a word of length {len(word)}"
            )
        q, p = found
        replacement = _replacement(letters, q, p)
        if steps == 1:
            # The input may not be freely reduced: cancel the whole word once.
            letters = list(_free_cancel([*letters[:q], *replacement, *letters[p + 1 :]]))
        else:
            start = _splice(letters, q, p + 1, replacement)


def is_trivial(word: BraidWord) -> bool:
    """Whether the braid is trivial, by its action on the star curves.

    The used generator indices split into runs of consecutive integers; the
    letters of different runs commute and move disjoint sets of strands, so
    the braid is trivial exactly when each run's subword is.  A run lo..hi
    is a braid on hi-lo+2 strands after shifting its indices down by lo-1,
    so the work depends on the word, not on the strand count.  The work,
    curves times letters summed over the runs, is capped by
    MAX_CURVE_STEPS.  A word whose exponent sum is not 0 is nontrivial
    without that work: the exponent sum is a homomorphism to the integers.
    """
    if exponent_sum(word):
        return False
    start: dict[int, int] = {}
    for i in sorted({abs(letter) for letter in word.letters}):
        start[i] = start.get(i - 1, i)
    runs: dict[int, list[int]] = {}
    for letter in word.letters:
        shift = start[abs(letter)] - 1
        runs.setdefault(shift, []).append(letter - shift if letter > 0 else letter + shift)
    sized = [(max(map(abs, letters)) + 1, letters) for letters in runs.values()]
    steps = sum(strands * len(letters) for strands, letters in sized)
    if steps > MAX_CURVE_STEPS:
        raise ResourceExhausted(
            f"star-curve test needs {steps} curve-letter steps, over the cap of {MAX_CURVE_STEPS}"
        )
    return all(_fixes_star_curves(strands, letters) for strands, letters in sized)


def braid_equal(a: BraidWord, b: BraidWord) -> bool:
    """Equality in the braid group, decided by is_trivial(a b^-1)."""
    if a.strands != b.strands:
        raise ValueError(f"strand count mismatch: {a.strands} != {b.strands}")
    return is_trivial(compose(a, inverse(b)))


def braid_equal_via_artin(a: BraidWord, b: BraidWord) -> bool:
    """Independent oracle: the Artin representation is faithful."""
    if a.strands != b.strands:
        raise ValueError(f"strand count mismatch: {a.strands} != {b.strands}")
    return artin_action(a) == artin_action(b)


def sphere_endo(word: BraidWord) -> FreeEndo:
    """The action induced on the fundamental group of the punctured sphere.

    The sphere group is the free group on the first strands-1 meridians; the
    last meridian is eliminated against the relation x_1 ... x_m = 1.  The
    elimination comes first: the Artin loop starts at x_k for k < m and at
    (x_1 ... x_{m-1})^-1 for x_m, so only sphere images are built, and only
    they count against the image cap.
    """
    m = word.strands
    sphere = FreeEndo(m, tuple(FreeWord._reduced(m, (k,)) for k in range(1, m))
                      + (FreeWord._reduced(m, tuple(range(1 - m, 0))),))
    images = artin_action(word, sphere).images[: m - 1]
    return FreeEndo(m - 1, tuple(FreeWord._reduced(m - 1, image.letters) for image in images))


def mcg_trivial(a: SphericalBraid) -> bool:
    """Triviality of the induced mapping class of the punctured sphere.

    The permutation must be trivial; the remaining pure automorphism of the
    sphere group is trivial in the mapping class group exactly when it is
    inner.
    """
    word = a.word
    return permutation_of(word).is_identity() and is_inner(sphere_endo(word)) is not None


def mcg_equal(a: SphericalBraid, b: SphericalBraid) -> bool:
    """Equality of the induced mapping classes, decided by mcg_trivial(a b^-1)."""
    if a.strands != b.strands:
        raise ValueError(f"strand count mismatch: {a.strands} != {b.strands}")
    if a.strands < 3:
        raise ValueError("mapping class comparison needs at least 3 strands")
    return mcg_trivial(SphericalBraid(compose(a.word, inverse(b.word))))
