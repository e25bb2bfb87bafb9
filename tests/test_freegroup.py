import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artin_oracles import compose_endo, identity_endo
from goeritz import freegroup, wicket, wordproblem
from goeritz.freegroup import (
    FreeEndo,
    FreeWord,
    ResourceExhausted,
    artin_action,
    is_inner,
)
from goeritz.words import (
    BraidWord,
    _free_cancel,
    _join,
    braid,
    compose,
    full_twist,
    inverse,
    permutation_of,
    sphere_relator,
)


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
    assert artin_action(braid(4, [])) == identity_endo(4)


def test_artin_homomorphism():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(2, 6)
        a = random_word(rng, n, rng.randint(0, 8))
        b = random_word(rng, n, rng.randint(0, 8))
        assert artin_action(compose(a, b)) == compose_endo(artin_action(a), artin_action(b))


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
    assert is_inner(identity_endo(3)) == FreeWord(3)


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


def _is_inner_by_products(endo):
    """is_inner as first written: the candidate checked with FreeWord
    products."""
    rank = endo.rank
    prefix, core = endo.images[0].cyclic_reduce()
    if core.letters != (1,):
        return None
    if rank == 1:
        return FreeWord(1)
    v = prefix
    target = v.inverse() * endo.images[1] * v
    k = 0
    for letter in target.letters:
        if abs(letter) != 1:
            break
        k += 1 if letter > 0 else -1
    u = v * FreeWord(rank, (1,) * k if k >= 0 else (-1,) * (-k))
    u_inv = u.inverse()
    for i in range(1, rank + 1):
        if endo.images[i - 1] != u * FreeWord(rank, (i,)) * u_inv:
            return None
    return u


def test_is_inner_matches_product_check():
    rng = random.Random(7)

    def word(rank, length):
        return FreeWord(rank, tuple(rng.choice([i for i in range(-rank, rank + 1) if i])
                                    for _ in range(length)))

    inner = 0
    for _ in range(2000):
        rank = rng.randint(1, 6)
        u = word(rank, rng.randint(0, 10))
        images = [u * FreeWord(rank, (i,)) * u.inverse() for i in range(1, rank + 1)]
        shape = rng.randrange(4)
        if shape == 1:  # one image conjugated by something else
            i = rng.randrange(rank)
            w = word(rank, rng.randint(1, 4))
            images[i] = w * images[i] * w.inverse()
        elif shape == 2:  # one image multiplied by a letter
            i = rng.randrange(rank)
            images[i] = images[i] * word(rank, 1)
        elif shape == 3:  # the sphere action of a random braid
            images = wordproblem.sphere_endo(random_word(rng, rank + 1, rng.randint(0, 8))).images
        endo = FreeEndo(rank, tuple(images))
        got = is_inner(endo)
        assert got == _is_inner_by_products(endo)
        inner += got is not None
    assert 500 <= inner <= 1500


def eliminate_last_generator(word: FreeWord) -> FreeWord:
    """Oracle for the sphere quotient: x_rank -> (x_1 ... x_{rank-1})^-1,
    applied to a finished word."""
    rank = word.rank
    letters: list[int] = []
    for letter in word.letters:
        if letter == rank:
            letters.extend(range(-(rank - 1), 0))
        elif letter == -rank:
            letters.extend(range(1, rank))
        else:
            letters.append(letter)
    return FreeWord(rank - 1, tuple(letters))


def sphere_endo_oracle(word):
    """The full Artin action, then elimination of the last generator."""
    endo = artin_action(word)
    images = tuple(eliminate_last_generator(image) for image in endo.images[:-1])
    return FreeEndo(word.strands - 1, images)


def mcg_equal_oracle(a, b):
    """Mapping-class equality from the full action and elimination."""
    if permutation_of(a) != permutation_of(b):
        return False
    return is_inner(sphere_endo_oracle(compose(a, inverse(b)))) is not None


def test_eliminate_last_generator():
    w = FreeWord(4, (4, 1))
    assert eliminate_last_generator(w).letters == (-3, -2)  # -3 -2 -1 1 reduces
    w = FreeWord(4, (-4,))
    assert eliminate_last_generator(w).letters == (1, 2, 3)
    for letters in ([1], [2, 2], [1, 2, 3], [3, -1, 2, 2]):
        w = braid(4, letters)
        assert wordproblem.sphere_endo(w) == sphere_endo_oracle(w)


def test_sphere_quotient_agrees_with_elimination_oracle():
    rng = random.Random(21)
    for _ in range(30):
        m = rng.randint(4, 8)
        a = random_word(rng, m, rng.randint(4, 40))
        assert wordproblem.sphere_endo(a) == sphere_endo_oracle(a)
        others = (
            random_word(rng, m, rng.randint(4, 40)),
            compose(a, sphere_relator(m)),
            compose(a, full_twist(m)),
            compose(a, braid(m, [1, 1])),
        )
        for b in others:
            assert wordproblem.mcg_equal(a, b) == mcg_equal_oracle(a, b)


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
        assert phi == identity_endo(w.strands)


def wicket_map(rank):
    """x_{2j-1} -> x_{2j-1}, x_{2j} -> x_{2j-1}^-1."""
    return FreeEndo(rank, tuple(FreeWord(rank, (k if k % 2 else 1 - k,))
                                for k in range(1, rank + 1)))


def sphere_map(rank):
    """x_k -> x_k for k < rank, x_rank -> (x_1 ... x_{rank-1})^-1."""
    last = FreeWord(rank, tuple(range(1 - rank, 0)))
    return FreeEndo(rank, tuple(FreeWord(rank, (k,)) for k in range(1, rank)) + (last,))


@settings(max_examples=200, deadline=None)
@given(braid_words(), st.data())
def test_artin_action_after_is_composition(w, data):
    rank = w.strands
    letter = st.integers(-rank, rank).filter(bool)
    random_map = FreeEndo(rank, tuple(
        FreeWord(rank, tuple(data.draw(st.lists(letter, max_size=3)))) for _ in range(rank)
    ))
    phi = artin_action(w)
    for q in (wicket_map(rank), sphere_map(rank), random_map):
        assert artin_action(w, q) == compose_endo(q, phi)
    with pytest.raises(ValueError):
        artin_action(w, identity_endo(rank + 1))


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


@settings(max_examples=500, deadline=None)
@given(reduced_tuples(), reduced_tuples(), reduced_tuples(), reduced_tuples())
def test_three_part_join_is_free_cancellation(p, q, r, s):
    # u v = p r once q cancels, and w = r^-1 p^-1 s cancels through r into p.
    inv = lambda x: tuple(-y for y in reversed(x))
    u = _free_cancel(p + q)
    v = _free_cancel(inv(q) + r)
    w = _free_cancel(inv(r) + inv(p) + s)
    for parts in ((u, v, w), (p, q, r), (u, (), w), ((), v, w), (u, v, inv(v)), (q, r, s)):
        assert _join(*parts) == _free_cancel(sum(parts, ())), parts


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
    # With a starting map the cap counts its images, not the full ones.
    sphere = sphere_map(3)
    total = sum(len(image) for image in artin_action(w, sphere).images)
    monkeypatch.setattr(freegroup, "MAX_IMAGE_LETTERS", total)
    assert artin_action(w, sphere) == compose_endo(sphere, product_artin_action(w))
    with pytest.raises(ResourceExhausted):
        artin_action(w)
    monkeypatch.setattr(freegroup, "MAX_IMAGE_LETTERS", total - 1)
    with pytest.raises(ResourceExhausted):
        artin_action(w, sphere)


def test_over_cap_starting_images_are_never_built(monkeypatch):
    # The wicket quotient starts at 2n one-letter images, the sphere
    # quotient at 2(m-1) letters and the identity at one letter per strand;
    # each total is checked before any starting image is built.
    def unbuilt(*args):
        raise AssertionError("a starting FreeEndo was built")

    monkeypatch.setattr(freegroup, "MAX_IMAGE_LETTERS", 10)
    monkeypatch.setattr(wicket, "FreeEndo", unbuilt)
    monkeypatch.setattr(wordproblem, "FreeEndo", unbuilt)
    for call, length in (
        (lambda: wicket.member_sw_standard(BraidWord(12), 6), 0),
        (lambda: wordproblem.sphere_endo(BraidWord(7)), 0),
        (lambda: wordproblem.mcg_equal(BraidWord(7), braid(7, [1, 1])), 2),
        (lambda: artin_action(BraidWord(100_000)), 0),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceExhausted, match=f"Artin images exceeded 10 letters on a word of length {length}$"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
    # An empty core is the identity: equal, with no image built.
    assert wordproblem.mcg_equal(BraidWord(7), braid(7, [1, -1]))
    # The permutation is checked first: a non-pure word over the cap is distinct.
    assert not wordproblem.mcg_equal(braid(7, [1]), BraidWord(7))
