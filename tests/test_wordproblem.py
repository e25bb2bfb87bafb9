import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artin_oracles import braid_equal_via_artin, mcg_trivial_unreduced
from lamination_oracles import _compile
from seed_curves import seed_curves, seed_multicurves
from sweep_words import sweep_word
from goeritz import wordproblem
from goeritz.lamination import _apply, act
from goeritz.words import (
    BraidWord,
    _cyclic_core,
    _free_cancel,
    braid,
    compose,
    delta_j,
    entropy_family_word,
    exponent_sum,
    family_word,
    full_twist,
    half_twist,
    inverse,
    sphere_relator,
)
from goeritz.wordproblem import (
    ResourceExhausted,
    braid_equal,
    handle_reduce,
    is_trivial,
    mcg_equal,
    mcg_trivial,
)


def random_word(rng, strands, length):
    letters = [rng.choice([i for i in range(-(strands - 1), strands) if i != 0])
               for _ in range(length)]
    return braid(strands, letters)


def insert_relator(rng, w):
    """A planar-equal word differing by one inserted relation."""
    n = w.strands
    kind = rng.randrange(3)
    if kind == 0 and n >= 3:
        i = rng.randint(1, n - 2)
        piece = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
    elif kind == 1 and n >= 4:
        i = rng.randint(1, n - 3)
        j = rng.randint(i + 2, n - 1)
        piece = [i, j, -i, -j]
    else:
        i = rng.randint(1, n - 1)
        piece = [i, -i]
    pos = rng.randint(0, len(w.letters))
    letters = list(w.letters)
    return braid(n, letters[:pos] + piece + letters[pos:])


def test_braid_relation():
    assert braid_equal(braid(3, [1, 2, 1]), braid(3, [2, 1, 2]))


def test_family_x_word_identity():
    assert braid_equal(braid(5, [2, 3, 2, 3, 2, 3]), family_word("X", 5))


def test_full_twist_nontrivial_planar():
    assert not braid_equal(full_twist(4), braid(4, []))
    assert not is_trivial(half_twist(4))


def test_handle_reduce_returns_equivalent_word():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(2, 6)
        w = random_word(rng, n, rng.randint(0, 12))
        reduced = handle_reduce(w)
        assert braid_equal_via_artin(w, reduced)


def test_single_relation_insertions_reduce_to_equal():
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(3, 6)
        w = random_word(rng, n, rng.randint(0, 10))
        w2 = insert_relator(rng, w)
        assert braid_equal(w, w2)


def test_oracle_agreement_random_pairs():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(2, 5)
        a = random_word(rng, n, rng.randint(0, 9))
        b = random_word(rng, n, rng.randint(0, 9))
        assert braid_equal(a, b) == braid_equal_via_artin(a, b)


def test_resource_cap(monkeypatch):
    default = wordproblem.MAX_HANDLE_STEPS
    monkeypatch.setattr(wordproblem, "MAX_HANDLE_STEPS", 0)
    with pytest.raises(ResourceExhausted):
        handle_reduce(braid(3, [1, 2, -1]))
    # a genuinely long reduction trips a small cap but finishes under a real one
    w = compose(half_twist(5), braid(5, [-1, -3, 2, -4] * 4))
    monkeypatch.setattr(wordproblem, "MAX_HANDLE_STEPS", 2)
    with pytest.raises(ResourceExhausted):
        handle_reduce(w)
    monkeypatch.setattr(wordproblem, "MAX_HANDLE_STEPS", default)
    assert braid_equal_via_artin(handle_reduce(w), w)


def test_mcg_kernel():
    assert mcg_equal(full_twist(4), braid(4, []))
    assert mcg_trivial(full_twist(5))
    assert mcg_equal(braid(4, [-1, -1, 3, 3]), braid(4, []))
    assert not mcg_equal(braid(3, [1]), braid(3, [2]))


def test_mcg_differs_from_planar():
    d2 = full_twist(4)
    assert not braid_equal(d2, braid(4, []))
    assert mcg_equal(d2, braid(4, []))


def test_sphere_relator_absorption():
    rng = random.Random(14)
    for m in (4, 6):
        rel = sphere_relator(m)
        for _ in range(50):
            w = random_word(rng, m, rng.randint(0, 8))
            assert mcg_equal(compose(w, rel), w)


def test_mcg_strand_requirements():
    with pytest.raises(ValueError):
        mcg_equal(braid(2, [1]), braid(2, [1]))
    with pytest.raises(ValueError):
        mcg_equal(braid(3, [1]), braid(4, [1]))


def test_braid_equal_strand_mismatch():
    with pytest.raises(ValueError, match="strand count mismatch: 3 != 4"):
        braid_equal(braid(3, []), braid(4, []))


def test_eta_conjugacy_identity():
    x = family_word("X", 5)
    z = family_word("Z", 5)
    alpha = compose(x, z)
    alpha_dm2 = compose(alpha, inverse(full_twist(5)))
    # the expanded 12-letter form of alpha Delta^-2
    assert braid_equal(alpha_dm2, braid(5, [2, 3, 3, 2, -4, -3, -3, -4, -2, -1, -3, -2]))
    eta = braid(5, [1, 2, 1, 3, 2, 1, 4,
                    1, 2, 1, 4, 3, 2, 1,
                    2, 3, 2, 1, 4, 3,
                    3, 4, 3, 2, 1])
    gamma = braid(5, [1, 2, -4, -3, -3, -4, -2, -3])
    word = compose(compose(compose(inverse(eta), alpha_dm2), eta), inverse(gamma))
    assert is_trivial(word)


def test_mcg_trivial_three_strands():
    # the thrice-punctured sphere has trivial pure mapping class group
    assert mcg_equal(full_twist(3), braid(3, []))
    assert mcg_equal(braid(3, [1, 1]), braid(3, []))
    assert not mcg_equal(braid(4, [1, 1]), braid(4, []))


def rescanning_handle_reduce(letters):
    """Reference reducer: after every rewrite, free-cancel the whole word and
    search for the next handle from position 0.  Returns (letters, steps)."""
    letters = list(letters)
    steps = 0
    while True:
        found = None
        last = {}
        for p, letter in enumerate(letters):
            i = abs(letter)
            opened = last.get(i)
            if opened is not None and opened[1] == -letter:
                found = opened[0], p
                break
            for j in list(last):
                if j > i:
                    del last[j]
            last[i] = (p, letter)
        if found is None:
            return tuple(letters), steps
        steps += 1
        q, p = found
        i = abs(letters[q])
        e = 1 if letters[q] > 0 else -1
        replacement = []
        for letter in letters[q + 1 : p]:
            if abs(letter) == i + 1:
                d = 1 if letter > 0 else -1
                replacement.extend((-e * (i + 1), d * i, e * (i + 1)))
            else:
                replacement.append(letter)
        stack = []
        for letter in letters[:q] + replacement + letters[p + 1 :]:
            if stack and stack[-1] == -letter:
                stack.pop()
            else:
                stack.append(letter)
        letters = stack


def fixes_seed_curves(w):
    """Whether the braid fixes every adjacent-pair curve of the whole disk."""
    return all(act(w, curve) == curve for curve in seed_curves(w.strands))


def fixed_multicurves(w):
    """Which of the odd and the even seed multicurves the braid fixes."""
    return tuple(act(w, m) == m for m in seed_multicurves(w.strands))


def shifted(word, strands, shift):
    """The word on ``strands`` strands with every generator index raised by ``shift``."""
    return braid(strands, [x + shift if x > 0 else x - shift for x in word.letters])


@st.composite
def braid_words(draw, max_letters=80):
    """Words on 2-9 strands: random (rarely freely reduced), random with
    cancelling pairs inserted, of the form w w^-1, or blocks; up to
    max_letters letters before padding.  A blocks word is a product on two
    generator blocks with an unused generator between them, whose exponent
    sums cancel: the left block is random or a conjugate of a power of its
    full twist, and the right block makes up the exponent sum."""
    strands = draw(st.integers(2, 9))
    letter = st.integers(-(strands - 1), strands - 1).filter(bool)
    shapes = ("random", "padded", "w w^-1") + (("blocks",) if strands >= 4 else ())
    shape = draw(st.sampled_from(shapes))
    if shape == "w w^-1":
        w = draw(st.lists(letter, max_size=max_letters // 2))
        return BraidWord(strands, tuple(w) + tuple(-x for x in reversed(w)))
    if shape == "blocks":
        gap = draw(st.integers(2, strands - 2))
        left = draw(st.lists(st.integers(1 - gap, gap - 1).filter(bool), max_size=max_letters // 4))
        if draw(st.booleans()):
            twist = full_twist(gap) ** draw(st.sampled_from((-1, 1, 2)))
            left += [*twist.letters, *(-x for x in reversed(left))]
        right_index = st.integers(gap + 1, strands - 1)
        right_letter = st.builds(lambda i, e: i * e, right_index, st.sampled_from((1, -1)))
        right = draw(st.lists(right_letter, max_size=max_letters // 4))
        balance = sum(1 if x > 0 else -1 for x in left + right)
        sign = -1 if balance > 0 else 1
        right += [sign * draw(right_index) for _ in range(abs(balance))]
        # A random merge of the two blocks, each kept in order.
        order = draw(st.permutations([0] * len(left) + [1] * len(right)))
        blocks = (iter(left), iter(right))
        return BraidWord(strands, tuple(next(blocks[side]) for side in order))
    letters = draw(st.lists(letter, max_size=max_letters))
    if shape == "padded":
        for _ in range(draw(st.integers(1, 5))):
            pos = draw(st.integers(0, len(letters)))
            x = draw(letter)
            letters[pos:pos] = [x, -x]
    return BraidWord(strands, tuple(letters))


@settings(max_examples=300, deadline=None)
@given(braid_words())
def test_handle_reduce_matches_rescanning_reference(w):
    expected, _ = rescanning_handle_reduce(w.letters)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wordproblem, "MAX_HANDLE_STEPS", 10**6)
        assert handle_reduce(w).letters == expected


@settings(max_examples=200, deadline=None)
@given(braid_words())
def test_step_cap_matches_rescanning_reference(w):
    expected, steps = rescanning_handle_reduce(w.letters)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wordproblem, "MAX_HANDLE_STEPS", steps)
        assert handle_reduce(w).letters == expected
        if steps:
            mp.setattr(wordproblem, "MAX_HANDLE_STEPS", steps - 1)
            with pytest.raises(ResourceExhausted):
                handle_reduce(w)


@pytest.mark.parametrize(
    "strands, letters, expected",
    [
        # the second handle opens at position 0
        (3, (1, 1, 2, 1, -2, -1, -1, 2), (-2, 1, 2, 2)),
        # the second replacement cancels away at its seams, after which the
        # prefix tail cancels against the suffix head
        (4, (-3, -1, -3, 1, 1, 3, -1, 3), ()),
        # the second handle, -1 -2 -2 1, holds a repeated letter of the next
        # index, so the triples replacing it cancel; likewise the first handle
        (3, (2, -1, -2, 1, -2, 1), (2, 2, 2, -1, -1, -2)),
        (3, (1, 2, 2, -1), (-2, 1, 1, 2)),
    ],
)
def test_handle_reduce_seam_cases(strands, letters, expected):
    assert rescanning_handle_reduce(letters)[0] == expected
    assert handle_reduce(braid(strands, letters)).letters == expected


def letter_lists(strands, max_size=12):
    return st.lists(st.integers(-(strands - 1), strands - 1).filter(bool), max_size=max_size)


def conjugate(u, w):
    """u w u^-1, not freely cancelled."""
    return BraidWord(w.strands, (*u, *w.letters, *(-x for x in reversed(u))))


@settings(max_examples=300, deadline=None)
@given(braid_words(), st.data())
def test_is_trivial_matches_handle_reduction(w, data):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wordproblem, "MAX_HANDLE_STEPS", 10**6)
        trivial = handle_reduce(w).letters == ()
    assert is_trivial(w) == trivial
    # Triviality is a conjugacy invariant; is_trivial decides on the cyclic core.
    u = data.draw(letter_lists(w.strands))
    assert is_trivial(conjugate(u, w)) == trivial
    # The curve test on the whole disk, without the run split, decides only
    # together with the exponent sum: it cannot tell the powers of the full
    # twist apart.
    fixes = w.strands < 3 or fixes_seed_curves(w)
    assert (fixes and exponent_sum(w) == 0) == trivial
    # So does the test on the two multicurves.
    fixes_both = w.strands < 3 or fixed_multicurves(w) == (True, True)
    assert (fixes_both and exponent_sum(w) == 0) == trivial


def _run_split_is_trivial(word):
    """The run-split triviality test, without its cap: the cyclic core is
    split into runs of consecutive generator indices, each shifted down to
    a braid on the k strands it moves, and each run must have exponent sum
    0 and, for k >= 3, fix both seed multicurves of the k-punctured disk."""
    letters = _cyclic_core(_free_cancel(word.letters))
    start = {}
    for i in sorted({abs(letter) for letter in letters}):
        start[i] = start.get(i - 1, i)
    runs = {}
    for letter in letters:
        shift = start[abs(letter)] - 1
        runs.setdefault(shift, []).append(letter - shift if letter > 0 else letter + shift)
    for run in runs.values():
        if sum(1 if letter > 0 else -1 for letter in run):
            return False
        strands = max(map(abs, run)) + 1
        if strands > 2:
            ops = _compile(strands, reversed(run))
            for seed in seed_multicurves(strands):
                c = list(seed.coords)
                _apply(c, ops)
                if tuple(c) != seed.coords:
                    return False
    return True


@st.composite
def multi_run_words(draw):
    """u w u^-1, not freely cancelled, on 3-200 strands, where w merges up
    to five runs of consecutive generators, each kept in order.  Runs start
    at the left edge or anywhere, are 1-4 generators wide, are separated by
    a gap of exactly one unused index or more, and may end at the right
    edge.  A run of one generator is a power with exponent sum 0 or not; a
    wider run is random, a conjugate of a braid relation (trivial), or a
    conjugate of a power of its full twist.  Often the last run makes up
    the exponent sum of the others.  u has at most 4 letters next to the
    runs, so it can join them."""
    strands = draw(st.integers(3, 200))
    top = strands - 1
    lo = 1 if draw(st.booleans()) else draw(st.integers(1, top))
    spans = []
    while lo <= top and len(spans) < 4:
        hi = min(top, lo + draw(st.integers(0, 3)))
        spans.append((lo, hi))
        lo = hi + 1 + draw(st.sampled_from((1, 1, 2, 3, 40)))
    if spans[-1][1] + 2 <= top and draw(st.booleans()):
        spans.append((max(spans[-1][1] + 2, top - draw(st.integers(0, 3))), top))
    runs = []
    for lo, hi in spans:
        letter = st.integers(lo, hi).flatmap(lambda i: st.sampled_from((i, -i)))
        if lo == hi:
            run = [lo] * draw(st.integers(0, 3)) + [-lo] * draw(st.integers(0, 3))
            run = draw(st.permutations(run))
        else:
            shape = draw(st.sampled_from(("random", "relation", "twist")))
            u = draw(st.lists(letter, max_size=4))
            if shape == "random":
                core = draw(st.lists(letter, max_size=10))
            elif shape == "relation":
                i = draw(st.integers(lo, hi - 1))
                core = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
            else:
                twist = shifted(full_twist(hi - lo + 2), strands, lo - 1)
                core = list((twist ** draw(st.sampled_from((-1, 1, 2)))).letters)
            run = [*u, *core, *(-x for x in reversed(u))]
        runs.append(run)
    if draw(st.booleans()):
        balance = sum(1 if x > 0 else -1 for run in runs for x in run)
        lo, hi = spans[-1]
        runs[-1] += [(-1 if balance > 0 else 1) * draw(st.integers(lo, hi)) for _ in range(abs(balance))]
    order = draw(st.permutations([k for k, run in enumerate(runs) for _ in run]))
    letters = [iter(run) for run in runs]
    w = BraidWord(strands, tuple(next(letters[k]) for k in order))
    near = st.integers(max(1, spans[0][0] - 1), min(top, spans[-1][1] + 1))
    u = draw(st.lists(near.flatmap(lambda i: st.sampled_from((i, -i))), max_size=4))
    return conjugate(u, w)


@settings(max_examples=300, deadline=None)
@given(multi_run_words())
def test_is_trivial_matches_run_split(w):
    assert is_trivial(w) == _run_split_is_trivial(w)


@settings(max_examples=200, deadline=None)
@given(braid_words(max_letters=16), st.data())
def test_braid_equal_matches_artin_oracle(w, data):
    # a b^-1 = w, so the pair is equal exactly when w is trivial
    k = data.draw(st.integers(0, len(w)))
    a = BraidWord(w.strands, w.letters[:k])
    b = inverse(BraidWord(w.strands, w.letters[k:]))
    equal = braid_equal_via_artin(a, b)
    assert braid_equal(a, b) == equal
    # A shared prefix or suffix changes nothing: (p a)(p b)^-1 = p a b^-1 p^-1.
    p = BraidWord(w.strands, data.draw(letter_lists(w.strands)))
    s = BraidWord(w.strands, data.draw(letter_lists(w.strands)))
    assert braid_equal(p * a, p * b) == equal == braid_equal(a * s, b * s)


@st.composite
def sphere_conjugates(draw):
    """u w u^-1, not freely cancelled, on 4-6 strands with u of at most 4
    letters: w is a random word of at most 6 letters, a rotation of the
    sphere relator or of its inverse (trivial mapping classes), the full
    twist (trivial), or sigma_i^2 (a Dehn twist about an essential curve)."""
    strands = draw(st.integers(4, 6))
    shape = draw(st.sampled_from(("random", "relator", "twist", "dehn")))
    if shape == "random":
        core = tuple(draw(letter_lists(strands, max_size=6)))
    elif shape == "relator":
        core = sphere_relator(strands).letters
        k = draw(st.integers(0, len(core) - 1))
        core = core[k:] + core[:k]
        if draw(st.booleans()):
            core = tuple(-x for x in reversed(core))
    elif shape == "twist":
        core = full_twist(strands).letters
    else:
        core = (draw(st.integers(1, strands - 1)),) * 2
    u = draw(letter_lists(strands, max_size=4))
    return conjugate(u, BraidWord(strands, core))


@settings(max_examples=200, deadline=None)
@given(sphere_conjugates())
def test_mcg_trivial_matches_unreduced_oracle(word):
    assert mcg_trivial(word) == mcg_trivial_unreduced(word)


@pytest.mark.parametrize("strands", range(2, 10))
def test_central_and_pure_braids_are_nontrivial(strands):
    # On m punctures the full twist fixes every seed curve; its exponent
    # sum, m(m-1), shows that it is not trivial.
    d2 = full_twist(strands)
    for k in (-2, -1, 1, 2):
        assert not is_trivial(d2 ** k)
        assert strands < 3 or fixes_seed_curves(d2 ** k)
    rng = random.Random(strands)
    for _ in range(5):
        a = random_word(rng, strands, rng.randint(1, 10))
        conjugate = compose(compose(a, d2), inverse(a))
        assert not is_trivial(conjugate)
        assert strands < 3 or fixes_seed_curves(conjugate)
        assert is_trivial(compose(conjugate, inverse(d2)))
    for i in range(1, strands):
        assert not is_trivial(braid(strands, [i, i]))
        assert not is_trivial(braid(strands, [-i, -i]))


@pytest.mark.parametrize(
    "word",
    [
        braid(4, [1, 1, -3, -3]),
        compose(braid(6, full_twist(3).letters), braid(6, [-4] * 6)),
        compose(braid(7, full_twist(4).letters), shifted(full_twist(3), 7, 4) ** -2),
    ],
    ids=["s1^2 s3^-2", "D3^2 s4^-6", "D4^2 (D3^2 on 5,6)^-2"],
)
def test_exponent_sum_is_checked_per_run(word):
    # Each run is a power of its own full twist, which fixes the run's seed
    # curves, and the exponent sums cancel over the whole word: only the
    # seed multicurves of the whole disk tell it from the identity.
    assert exponent_sum(word) == 0
    assert not is_trivial(word)
    assert not braid_equal_via_artin(word, BraidWord(word.strands))


@pytest.mark.parametrize(
    "word, fixed",
    [
        (half_twist(4), (True, True)),
        (half_twist(6), (True, True)),
        (half_twist(8), (True, True)),
        (compose(full_twist(4), braid(4, [-1] * 6 + [-3] * 6)), (True, False)),
        (compose(full_twist(4), braid(4, [-2] * 12)), (False, True)),
    ],
    ids=["D4", "D6", "D8", "D4^2 s1^-6 s3^-6", "D4^2 s2^-12"],
)
def test_multicurve_cases(word, fixed):
    # On an even number of strands the half twist reverses the chain of seed
    # curves and keeps the parity of each, so it fixes both multicurves; its
    # exponent sum is not 0.  The other two words have exponent sum 0 and
    # fix only one multicurve: the full twist times powers of the half
    # twists about the curves of that multicurve.
    assert fixed_multicurves(word) == fixed
    assert (exponent_sum(word) == 0) != (fixed == (True, True))
    assert not is_trivial(word)
    assert not braid_equal_via_artin(word, BraidWord(word.strands))


def test_one_and_two_strand_words():
    with pytest.raises(ValueError):
        BraidWord(1)
    assert is_trivial(BraidWord(2))
    assert is_trivial(braid(2, [1, -1, -1, 1]))
    for letters in ([1], [-1], [1, 1], [-1, -1, -1]):
        assert not is_trivial(braid(2, letters))
    assert braid_equal(braid(2, [1, 1, -1]), braid(2, [1]))


def test_unused_generators_do_not_cost_work():
    # The multicurves act on the coordinate pairs the letters touch
    # (lamination._restrict), so generators far apart cost what their
    # letters cost, not the strand count.
    n = 100_000
    assert is_trivial(braid(n, [1, n - 1, -1, -(n - 1)]))
    assert not is_trivial(braid(n, [1, 1, -(n - 1), -(n - 1)]))
    assert is_trivial(braid(n, [n - 2, n - 1, n - 2, -(n - 1), -(n - 2), -(n - 1)]))
    assert not is_trivial(braid(n, [n - 2, n - 1, -(n - 2), -(n - 1)]))
    n = 4_000_000
    for a, b, equal in (([1, n - 1], [n - 1, 1], True),
                        ([1, 1, -(n - 1), -(n - 1)], [], False)):
        start = time.monotonic()
        assert braid_equal(braid(n, a), braid(n, b)) == equal
        assert time.monotonic() - start < 1.0
        tracemalloc.start()
        try:
            assert braid_equal(braid(n, a), braid(n, b)) == equal
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2 ** 20


def test_curve_step_cap(monkeypatch):
    # A trivial word of 18 letters that does not cancel freely, on generators
    # 1-2, 4 and 6-8: 2 multicurves x 18 letters, each letter counted.
    w = braid(9, [1, 2, 1, -2, -1, -2, 4, 6, 8, -6, 7, 8, 7, -8, -7, -8, -4, -8])
    monkeypatch.setattr(wordproblem, "MAX_CURVE_STEPS", 36)
    assert is_trivial(w)
    monkeypatch.setattr(wordproblem, "MAX_CURVE_STEPS", 35)
    with pytest.raises(ResourceExhausted, match="multicurve test needs 36 steps, over the cap of 35"):
        is_trivial(w)
    # A nonzero exponent sum decides without acting on any curve.
    monkeypatch.setattr(wordproblem, "MAX_CURVE_STEPS", 0)
    assert not is_trivial(braid(9, [1, 2, 1, -2, -1, -2, 6, 6, -8]))
    # Free cancellation comes first: a freely trivial word costs no curve step.
    assert is_trivial(braid(9, [1, 2, 3, 6, -6, -3, -2, -1]))


def test_long_trivial_word_is_fast():
    # a D^2 a^-1 D^-2 on 50 strands, about 20 000 letters after free
    # cancellation: the two multicurves cost 2 x 20 000 steps, where the 49
    # seed curves cost about 10^6.
    rng = random.Random(50)
    a = random_word(rng, 50, 8000)
    d2 = full_twist(50)
    w = compose(compose(compose(a, d2), inverse(a)), inverse(d2))
    assert len(_free_cancel(w.letters)) > 19_000
    start = time.monotonic()
    assert is_trivial(w)
    assert time.monotonic() - start < 0.5


@pytest.mark.parametrize("n", range(1, 9))
def test_family_factor_powers_are_the_full_twist(n):
    m = 4 * n + 6
    y = family_word("Y", m)
    assert is_trivial(y ** (m // 2) * inverse(full_twist(m)))
    m = 4 * n + 7
    z = family_word("Z", m)
    assert is_trivial(z ** ((m - 1) // 2) * inverse(full_twist(m)))
    for which in ("unknot", "hopf"):
        word = entropy_family_word(which, n)
        short = sweep_word(which, n)
        assert len(short) < len(word)
        assert is_trivial(word * inverse(short) * inverse(full_twist(word.strands)))
        assert not is_trivial(word * inverse(short))


@pytest.mark.parametrize("n", [1, 2])
def test_family_factors_are_powers_of_the_shift(n):
    # delta_j(m, m) = sigma_1...sigma_{m-1} conjugates sigma_i to sigma_{i+1}.
    m = 4 * n + 6
    assert braid_equal_via_artin(family_word("Y", m), delta_j(m, m) ** 2)
    m = 4 * n + 7
    assert braid_equal_via_artin(family_word("Z", m), (delta_j(m, m) * braid(m, [m - 1])) ** 2)
