"""Exact word problem in the braid group and the spherical mapping class group.

Triviality is decided by the exact integer lamination action of
goeritz.lamination.  The exponent sum is a homomorphism to the integers, so
a braid with a nonzero sum is nontrivial, and on 2 strands, where B_2 is the
integers, a sum of 0 is trivial.  A braid f on m >= 3 strands is trivial
exactly when its exponent sum is 0 and it fixes both seed multicurves, the
unions of the odd- and of the even-indexed adjacent-pair curves
c_1, ..., c_{m-1}:

- f(M) = M permutes the components of M, so f permutes the c_i.  It keeps
  intersection numbers, so it induces an automorphism of the chain
  c_1 - c_2 - ... - c_{m-1}, which is the identity or the reversal.
- Identity: f fixes every c_i.  sigma_i is the half twist about c_i and
  f sigma_i f^-1 the half twist about f(c_i), so f commutes with every
  generator: it is central, f = Delta^(2j).
- Reversal: the half twist Delta maps c_i to c_{m-i}, so Delta^-1 f fixes
  every c_i and f = Delta^(2j+1).
- Delta^i has exponent sum i m(m-1)/2, so a sum of 0 forces f = 1.

No permutation check is needed: the sum rules out the odd powers.
Coordinates determine multicurves, so "fixes" is equality of coordinates
(Farb and Margalit, A Primer on Mapping Class Groups, ch. 9, for the
centre; Dehornoy, Dynnikov, Rolfsen and Wiest, Ordering Braids, AMS 2008,
ch. XII, for the coordinates).  The test runs on the coordinate pairs the
letters touch (lamination._compile_touched), so its work follows the word,
not the strand count.  A letter costs O(1) operations per multicurve, so a
core of L letters takes 2 L steps, capped by MAX_CURVE_STEPS.  The cap
bounds letters, not time: the coordinates grow by O(1) bits per letter, so
a pseudo-Anosov core of L letters costs O(L^2) bit operations.

Equality is triviality of a b^-1.  Triviality is a conjugacy invariant:
u w u^-1 is trivial exactly when w is, in the braid group and in the
mapping class group alike (Lyndon and Schupp, Combinatorial Group Theory,
ch. I.1).  So both tests first strip the word to its cyclic core, the w of
the freely reduced word u w u^-1 with u longest, and the multicurve and
image caps count the letters of that core.  A shared prefix p of a and b
then costs nothing: (p a)(p b)^-1 = p (a b^-1) p^-1.

Handle-free representatives come from handle reduction: repeatedly rewrite
the leftmost-closing handle (a subword e v -e where e is a letter, -e its
inverse, and v contains only letters of strictly larger index) and
free-cancel the whole word, until no handle remains.  Each step scans from
the first letter.  The procedure always terminates; the result is empty
exactly when the braid is trivial, because a handle-free nonempty word is
sigma-positive or sigma-negative in its lowest index (Dehornoy, A fast
method for comparing braids, Adv. Math. 1997).  Its step count is capped by
MAX_HANDLE_STEPS.
"""

from __future__ import annotations

from .freegroup import FreeEndo, FreeWord, ResourceExhausted, artin_action, check_image_total, is_inner
from .lamination import _apply, _compile_touched
from .words import BraidWord, _cyclic_core, _free_cancel, _swap_along, compose, exponent_sum, inverse

# Cap on the rewrites of handle_reduce.
MAX_HANDLE_STEPS = 10_000_000
# Cap on the work of is_trivial: 2 x letters of the cyclic core.
MAX_CURVE_STEPS = 10_000_000


def _find_handle(letters: tuple[int, ...]) -> tuple[int, int] | None:
    """Position pair (q, p) of the leftmost-closing handle, or None.

    The scan state is a stack of (index, position) pairs, indices strictly
    increasing upwards: the last occurrence of each index with no smaller
    index after it.
    """
    stack: list[tuple[int, int]] = []
    for p, letter in enumerate(letters):
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


def _replacement(letters: tuple[int, ...], q: int, p: int) -> list[int]:
    """The rewrite of the handle letters[q..p].

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
    return replacement


def handle_reduce(word: BraidWord) -> BraidWord:
    """An equivalent handle-free word; empty iff the input is trivial."""
    letters = word.letters
    steps = 0
    while (found := _find_handle(letters)) is not None:
        steps += 1
        if steps > MAX_HANDLE_STEPS:
            raise ResourceExhausted(
                f"handle reduction exceeded {MAX_HANDLE_STEPS} steps on a word of length {len(word)}"
            )
        q, p = found
        letters = _free_cancel([*letters[:q], *_replacement(letters, q, p), *letters[p + 1 :]])
    return BraidWord(word.strands, letters)


def is_trivial(word: BraidWord) -> bool:
    """Whether the braid is trivial, by its exponent sum and its action on
    the seed multicurves.

    A nonzero exponent sum decides without any multicurve, and so does a
    word on 2 strands.  Otherwise the word is freely cancelled and cut to
    its cyclic core, a conjugate, so trivial exactly when the word is; the
    core acts once on both seed multicurves, on the coordinate pairs its
    letters touch.  That work, 2 x letters of the core, is capped by
    MAX_CURVE_STEPS.  The cap bounds letters, not time: a pseudo-Anosov
    core of L letters costs O(L^2) bit operations.
    """
    return _is_trivial_reduced(BraidWord._unchecked(word.strands, _free_cancel(word.letters)))


def _is_trivial_reduced(word: BraidWord) -> bool:
    """is_trivial of a word whose letters are already freely reduced."""
    if exponent_sum(word):
        return False
    if word.strands == 2:
        return True
    letters = _cyclic_core(word.letters)
    steps = 2 * len(letters)
    if steps > MAX_CURVE_STEPS:
        raise ResourceExhausted(f"multicurve test needs {steps} steps, over the cap of {MAX_CURVE_STEPS}")
    _, ops, starts = _compile_touched(word.strands, letters)
    for start in starts:
        c = start.copy()
        _apply(c, ops)
        if c != start:
            return False
    return True


def braid_equal(a: BraidWord, b: BraidWord) -> bool:
    """Equality in the braid group, decided by is_trivial(a b^-1); compose
    has freely reduced a b^-1 already."""
    return _is_trivial_reduced(compose(a, inverse(b)))


def sphere_endo(word: BraidWord) -> FreeEndo:
    """The action induced on the fundamental group of the punctured sphere.

    The sphere group is the free group on the first strands-1 meridians; the
    last meridian is eliminated against the relation x_1 ... x_m = 1.  The
    elimination comes first: the Artin loop starts at x_k for k < m and at
    (x_1 ... x_{m-1})^-1 for x_m, so only sphere images are built, and only
    they count against the image cap.
    """
    m = word.strands
    check_image_total(2 * (m - 1), word)  # m - 1 letters for x_1..x_{m-1}, m - 1 for x_m
    sphere = FreeEndo(m, tuple(FreeWord._reduced(m, (k,)) for k in range(1, m))
                      + (FreeWord._reduced(m, tuple(range(1 - m, 0))),))
    images = artin_action(word, sphere).images[: m - 1]
    return FreeEndo(m - 1, tuple(FreeWord._reduced(m - 1, image.letters) for image in images))


def mcg_trivial(word: BraidWord) -> bool:
    """Triviality of the word's mapping class on the sphere with word.strands punctures.

    The test runs on the cyclic core of the word, a conjugate: its mapping
    class is trivial exactly when the word's is, and its permutation, a
    conjugate permutation, is the identity exactly when the word's is.  An
    empty core is the identity.  Otherwise the permutation, followed on the
    strands the core moves only, must be trivial; the remaining pure
    automorphism of the sphere group is trivial in the mapping class group
    exactly when it is inner.  Only the core's sphere images are built, so
    the image cap counts those.  mcg_equal passes a freely reduced a b^-1,
    whose core is cyclically reduced.
    """
    letters = _cyclic_core(word.letters)
    if not letters:
        return True
    # the endpoint permutation on the 0-based positions the core moves
    moved = _swap_along({p: p for letter in letters for p in (abs(letter) - 1, abs(letter))}, letters)
    if any(point != label for point, label in moved.items()):
        return False
    return is_inner(sphere_endo(BraidWord(word.strands, letters))) is not None


def mcg_equal(a: BraidWord, b: BraidWord) -> bool:
    """Equality of the words' mapping classes on the sphere with a.strands
    punctures, decided by mcg_trivial(a b^-1)."""
    if a.strands != b.strands:
        raise ValueError(f"strand count mismatch: {a.strands} != {b.strands}")
    if a.strands < 3:
        raise ValueError("mapping class comparison needs at least 3 strands")
    return mcg_trivial(compose(a, inverse(b)))
