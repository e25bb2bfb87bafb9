import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goeritz import wordproblem
from goeritz.lamination import act, seed_curves
from goeritz.words import (
    BraidWord,
    braid,
    compose,
    family_word,
    full_twist,
    half_twist,
    inverse,
    s_map,
    sphere_relator,
)
from goeritz.wordproblem import (
    ResourceExhausted,
    _fixes_star_curves,
    _star_curve,
    braid_equal,
    braid_equal_via_artin,
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


def test_resource_cap():
    with pytest.raises(ResourceExhausted):
        handle_reduce(braid(3, [1, 2, -1]), max_steps=0)
    # a genuinely long reduction trips a small cap but finishes under a real one
    w = compose(half_twist(5), braid(5, [-1, -3, 2, -4] * 4))
    with pytest.raises(ResourceExhausted):
        handle_reduce(w, max_steps=2)
    assert braid_equal_via_artin(handle_reduce(w), w)


def test_mcg_kernel():
    assert mcg_equal(s_map(full_twist(4)), s_map(braid(4, [])))
    assert mcg_trivial(s_map(full_twist(5)))
    assert mcg_equal(s_map(braid(4, [-1, -1, 3, 3])), s_map(braid(4, [])))
    assert not mcg_equal(s_map(braid(3, [1])), s_map(braid(3, [2])))


def test_mcg_differs_from_planar():
    d2 = full_twist(4)
    assert not braid_equal(d2, braid(4, []))
    assert mcg_equal(s_map(d2), s_map(braid(4, [])))


def test_sphere_relator_absorption():
    rng = random.Random(14)
    for m in (4, 6):
        rel = sphere_relator(m)
        for _ in range(50):
            w = random_word(rng, m, rng.randint(0, 8))
            assert mcg_equal(s_map(compose(w, rel)), s_map(w))


def test_mcg_strand_requirements():
    with pytest.raises(ValueError):
        mcg_equal(s_map(braid(2, [1])), s_map(braid(2, [1])))
    with pytest.raises(ValueError):
        mcg_equal(s_map(braid(3, [1])), s_map(braid(4, [1])))


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
    assert mcg_equal(s_map(full_twist(3)), s_map(braid(3, [])))
    assert mcg_equal(s_map(braid(3, [1, 1])), s_map(braid(3, [])))
    assert not mcg_equal(s_map(braid(4, [1, 1])), s_map(braid(4, [])))


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


@st.composite
def braid_words(draw, max_letters=80):
    """Words on 2-9 strands: random (rarely freely reduced), random with
    cancelling pairs inserted, or of the form w w^-1; up to max_letters
    letters before padding."""
    strands = draw(st.integers(2, 9))
    letter = st.integers(-(strands - 1), strands - 1).filter(bool)
    shape = draw(st.sampled_from(("random", "padded", "w w^-1")))
    if shape == "w w^-1":
        w = draw(st.lists(letter, max_size=max_letters // 2))
        return BraidWord(strands, tuple(w) + tuple(-x for x in reversed(w)))
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
    assert handle_reduce(w, max_steps=10**6).letters == expected


@settings(max_examples=200, deadline=None)
@given(braid_words())
def test_step_cap_matches_rescanning_reference(w):
    expected, steps = rescanning_handle_reduce(w.letters)
    assert handle_reduce(w, max_steps=steps).letters == expected
    if steps:
        with pytest.raises(ResourceExhausted):
            handle_reduce(w, max_steps=steps - 1)


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


@settings(max_examples=300, deadline=None)
@given(braid_words())
def test_is_trivial_matches_handle_reduction(w):
    trivial = handle_reduce(w, max_steps=10**6).letters == ()
    assert is_trivial(w) == trivial
    # The star-curve test alone, without the exponent-sum check.
    assert _fixes_star_curves(w.strands, w.letters) == trivial


@settings(max_examples=200, deadline=None)
@given(braid_words(max_letters=16), st.data())
def test_braid_equal_matches_artin_oracle(w, data):
    # a b^-1 = w, so the pair is equal exactly when w is trivial
    k = data.draw(st.integers(0, len(w)))
    a = BraidWord(w.strands, w.letters[:k])
    b = inverse(BraidWord(w.strands, w.letters[k:]))
    assert braid_equal(a, b) == braid_equal_via_artin(a, b)


def test_star_curves_are_images_of_adjacent_pair_curves():
    for m in range(2, 10):
        seeds = seed_curves(m + 1)
        for i in range(1, m + 1):
            image = act(braid(m + 1, range(m, i, -1)), seeds[i - 1])
            assert list(image.coords) == _star_curve(m, i)


@pytest.mark.parametrize("strands", range(2, 10))
def test_central_and_pure_braids_are_nontrivial(strands):
    # On m punctures the full twist acts trivially; on m+1 it does not.
    d2 = full_twist(strands)
    for k in (-2, -1, 1, 2):
        assert not is_trivial(d2 ** k)
        assert not _fixes_star_curves(strands, (d2 ** k).letters)
    rng = random.Random(strands)
    for _ in range(5):
        a = random_word(rng, strands, rng.randint(1, 10))
        assert not is_trivial(compose(compose(a, d2), inverse(a)))
        assert not _fixes_star_curves(strands, compose(compose(a, d2), inverse(a)).letters)
        assert is_trivial(compose(compose(a, d2), compose(inverse(a), inverse(d2))))
    for i in range(1, strands):
        assert not is_trivial(braid(strands, [i, i]))
        assert not is_trivial(braid(strands, [-i, -i]))


def test_one_and_two_strand_words():
    with pytest.raises(ValueError):
        BraidWord(1)
    assert is_trivial(BraidWord(2))
    assert is_trivial(braid(2, [1, -1, -1, 1]))
    for letters in ([1], [-1], [1, 1], [-1, -1, -1]):
        assert not is_trivial(braid(2, letters))
    assert braid_equal(braid(2, [1, 1, -1]), braid(2, [1]))


def test_unused_generators_do_not_cost_work():
    # Runs of generators far apart are decided separately, on few strands.
    n = 100_000
    assert is_trivial(braid(n, [1, n - 1, -1, -(n - 1)]))
    assert not is_trivial(braid(n, [1, 1, -(n - 1), -(n - 1)]))
    assert is_trivial(braid(n, [n - 2, n - 1, n - 2, -(n - 1), -(n - 2), -(n - 1)]))
    assert not is_trivial(braid(n, [n - 2, n - 1, -(n - 2), -(n - 1)]))


def test_star_curve_cap(monkeypatch):
    # Two runs: 4 curves x 6 letters and 2 curves x 2 letters.
    w = braid(9, [1, 2, 3, -3, -2, -1, 6, -6])
    monkeypatch.setattr(wordproblem, "MAX_CURVE_STEPS", 28)
    assert is_trivial(w)
    monkeypatch.setattr(wordproblem, "MAX_CURVE_STEPS", 27)
    with pytest.raises(ResourceExhausted, match="28 curve-letter steps"):
        is_trivial(w)
    # A nonzero exponent sum decides without acting on any curve.
    assert not is_trivial(braid(9, [1, 2, 3, -3, -2, -1, 6, 6]))
