import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goeritz import freegroup, wordproblem
from goeritz.freegroup import (
    FreeEndo,
    FreeWord,
    ResourceExhausted,
    artin_action,
    eliminate_last_generator,
    is_inner,
)
from goeritz.words import BraidWord, _free_cancel, _join, braid, compose, permutation_of


def random_word(rng, strands, length):
    letters = [rng.choice([i for i in range(-(strands - 1), strands) if i != 0])
               for _ in range(length)]
    return braid(strands, letters)


def test_free_reduction_and_equality():
    assert FreeWord(3, (1, -1)).letters == ()
    assert FreeWord(3, (1, 2, -2, -1, 3)).letters == (3,)
    assert FreeWord(2, (1, 2)) * FreeWord(2, (-2, 1)) == FreeWord(2, (1, 1))
    assert FreeWord(2, (1, 2)).inverse().letters == (-2, -1)


def test_cyclic_reduce():
    u, core = FreeWord(3, (1, 2, 3, -2, -1)).cyclic_reduce()
    assert u.letters == (1, 2)
    assert core.letters == (3,)


def test_artin_generator_rule():
    phi = artin_action(braid(4, [2]))
    assert phi.images[0].letters == (1,)
    assert phi.images[1].letters == (2, 3, -2)
    assert phi.images[2].letters == (2,)
    assert phi.images[3].letters == (4,)


def test_artin_square_example():
    phi = artin_action(braid(4, [2, 2]))
    assert phi.images[1].letters == (2, 3, 2, -3, -2)
    assert phi.images[2].letters == (2, 3, -2)


def test_artin_identity():
    assert artin_action(braid(4, [])) == FreeEndo.identity(4)


def test_artin_homomorphism():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(2, 6)
        a = random_word(rng, n, rng.randint(0, 8))
        b = random_word(rng, n, rng.randint(0, 8))
        assert artin_action(compose(a, b)) == artin_action(a).compose(artin_action(b))


def test_artin_product_preservation():
    rng = random.Random(4)
    prod = {n: FreeWord(n, tuple(range(1, n + 1))) for n in range(2, 7)}
    for _ in range(200):
        n = rng.randint(2, 6)
        w = random_word(rng, n, rng.randint(0, 12))
        assert artin_action(w)(prod[n]) == prod[n]


def test_artin_conjugacy_shape():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 6)
        w = random_word(rng, n, rng.randint(0, 10))
        phi = artin_action(w)
        pi = permutation_of(w)
        for i in range(1, n + 1):
            _, core = phi.images[i - 1].cyclic_reduce()
            assert core.letters == (pi(i),)


def test_is_inner_identity():
    assert is_inner(FreeEndo.identity(3)) == FreeWord(3)


def test_is_inner_constructed_conjugation():
    rng = random.Random(6)
    for _ in range(100):
        rank = rng.randint(2, 5)
        u = FreeWord(rank, tuple(rng.choice([i for i in range(-rank, rank + 1) if i])
                                 for _ in range(rng.randint(0, 8))))
        endo = FreeEndo(rank, tuple(u * FreeWord(rank, (i,)) * u.inverse()
                                    for i in range(1, rank + 1)))
        got = is_inner(endo)
        assert got is not None
        for i in range(1, rank + 1):
            assert endo.images[i - 1] == got * FreeWord(rank, (i,)) * got.inverse()


def test_is_inner_negative():
    swap = FreeEndo(2, (FreeWord(2, (2,)), FreeWord(2, (1,))))
    assert is_inner(swap) is None
    shift = FreeEndo(2, (FreeWord(2, (1, 1)), FreeWord(2, (2,))))
    assert is_inner(shift) is None


def test_eliminate_last_generator():
    w = FreeWord(4, (4, 1))
    assert eliminate_last_generator(w).letters == (-3, -2)  # -3 -2 -1 1 reduces
    w = FreeWord(4, (-4,))
    assert eliminate_last_generator(w).letters == (1, 2, 3)
    with pytest.raises(ValueError):
        eliminate_last_generator(FreeWord(1, (1,)))


def product_artin_action(word):
    """The Artin action built from FreeWord products, one letter at a time."""
    rank = word.strands
    images = [FreeWord(rank, (i,)) for i in range(1, rank + 1)]
    for letter in word.letters:
        i = abs(letter) - 1
        a, b = images[i], images[i + 1]
        if letter > 0:
            images[i] = a * b * a.inverse()
            images[i + 1] = a
        else:
            images[i] = b
            images[i + 1] = b.inverse() * a * b
    return FreeEndo(rank, tuple(images))


@st.composite
def braid_words(draw):
    """Words on 2-9 strands with 0-60 letters: random, random with
    cancelling pairs inserted, or of the form w w^-1."""
    strands = draw(st.integers(2, 9))
    letter = st.integers(-(strands - 1), strands - 1).filter(bool)
    shape = draw(st.sampled_from(("random", "padded", "w w^-1")))
    if shape == "w w^-1":
        w = draw(st.lists(letter, max_size=30))
        return BraidWord(strands, tuple(w) + tuple(-x for x in reversed(w)))
    letters = draw(st.lists(letter, max_size=50 if shape == "padded" else 60))
    if shape == "padded":
        for _ in range(draw(st.integers(1, 5))):
            pos = draw(st.integers(0, len(letters)))
            x = draw(letter)
            letters[pos:pos] = [x, -x]
    return BraidWord(strands, tuple(letters))


@settings(max_examples=300, deadline=None)
@given(braid_words())
def test_artin_action_matches_product_builder(w):
    phi = artin_action(w)
    assert phi == product_artin_action(w)
    for image in phi.images:
        assert _free_cancel(image.letters) == image.letters
    n = len(w.letters) // 2
    if w.letters[n:] == tuple(-x for x in reversed(w.letters[:n])):
        assert phi == FreeEndo.identity(w.strands)


def reduced_tuples(rank=4, max_size=12):
    letter = st.integers(-rank, rank).filter(bool)
    return st.lists(letter, max_size=max_size).map(_free_cancel)


@settings(max_examples=500, deadline=None)
@given(reduced_tuples(), reduced_tuples(), reduced_tuples())
def test_seam_join_is_free_cancellation(p, q, r):
    # u = p q and v = q^-1 r share a seam of up to len(q) cancelling letters.
    u = _free_cancel(p + q)
    v = _free_cancel(tuple(-x for x in reversed(q)) + r)
    assert _join(u, v) == _free_cancel(u + v)
    assert _join(p, r) == _free_cancel(p + r)


@settings(max_examples=200, deadline=None)
@given(reduced_tuples())
def test_seam_join_cancels_inverse_and_keeps_empty(u):
    u_inv = tuple(-x for x in reversed(u))
    assert _join(u, u_inv) == ()
    assert _join(u_inv, u) == ()
    assert _join(u, ()) == u
    assert _join((), u) == u


def test_image_letter_cap(monkeypatch):
    assert wordproblem.ResourceExhausted is ResourceExhausted
    w = braid(3, [1, 2, 1, 2])
    total = sum(len(image) for image in artin_action(w).images)
    monkeypatch.setattr(freegroup, "MAX_IMAGE_LETTERS", total)
    assert artin_action(w) == product_artin_action(w)
    monkeypatch.setattr(freegroup, "MAX_IMAGE_LETTERS", total - 1)
    with pytest.raises(ResourceExhausted):
        artin_action(w)
