import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goeritz.lamination import LamCoords, act
from goeritz.wordproblem import braid_equal
from goeritz.words import (
    BraidWord,
    Permutation,
    _cancel_commuting,
    braid,
    compose,
    delta_j,
    entropy_family_word,
    exponent_sum,
    family_word,
    format_word,
    full_twist,
    half_twist,
    inverse,
    parse_word,
    permutation_of,
    s_plus,
    sphere_relator,
)
from sweep_words import forget_strand, sweep_word


def random_word(rng, strands, length):
    letters = [rng.choice([i for i in range(-(strands - 1), strands) if i != 0])
               for _ in range(length)]
    return braid(strands, letters)


def test_compose_examples():
    assert compose(braid(2, [1]), braid(2, [])).letters == (1,)
    assert compose(braid(2, [1]), braid(2, [-1])).letters == ()
    assert compose(braid(4, [2, 3]), braid(4, [2, 3, 2, 3])).letters == (2, 3, 2, 3, 2, 3)


def test_compose_strand_mismatch():
    with pytest.raises(ValueError):
        compose(braid(3, [1]), braid(4, [1]))


def test_inverse_examples():
    assert inverse(braid(4, [1, 2, -3])).letters == (3, -2, -1)
    assert inverse(braid(2, [])).letters == ()
    assert inverse(braid(3, [2, 2])).letters == (-2, -2)


def test_unchecked_results_are_valid_words():
    # compose, inverse and powers skip the range check of their inputs'
    # letters; their results still pass it, and input from outside is checked.
    rng = random.Random(29)
    for _ in range(200):
        strands = rng.randint(2, 7)
        a, b = random_word(rng, strands, rng.randint(0, 12)), random_word(rng, strands, rng.randint(0, 12))
        for result in (compose(a, b), inverse(a), a ** rng.randint(-3, 3)):
            assert result == BraidWord(result.strands, result.letters)
            assert type(result.letters) is tuple
    with pytest.raises(ValueError):
        BraidWord(3, (1, 3))


def test_compose_with_inverse_cancels():
    rng = random.Random(1)
    for _ in range(200):
        w = random_word(rng, rng.randint(2, 7), rng.randint(0, 12))
        assert compose(w, inverse(w)).letters == ()


def test_delta_j():
    assert delta_j(4, 2).letters == (1,)
    assert delta_j(4, 4).letters == (1, 2, 3)
    assert delta_j(3, 3).letters == (1, 2)
    with pytest.raises(ValueError):
        delta_j(4, 5)
    with pytest.raises(ValueError):
        delta_j(4, 1)


def test_half_twist():
    assert half_twist(2).letters == (1,)
    assert half_twist(3).letters == (1, 2, 1)
    assert half_twist(4).letters == (1, 2, 3, 1, 2, 1)
    assert exponent_sum(half_twist(4)) == 6
    assert permutation_of(half_twist(4)).images == (4, 3, 2, 1)


def test_full_twist():
    assert full_twist(2).letters == (1, 1)
    assert len(full_twist(3)) == 6
    assert exponent_sum(full_twist(4)) == 12
    for n in range(2, 13):
        assert exponent_sum(half_twist(n)) == n * (n - 1) // 2
        assert exponent_sum(full_twist(n)) == n * (n - 1)
        assert permutation_of(full_twist(n)).is_identity()
        rev = tuple(range(n, 0, -1))
        assert permutation_of(half_twist(n)).images == rev


def test_exponent_sum():
    assert exponent_sum(braid(4, [1, 2, -3])) == 1
    assert exponent_sum(half_twist(5)) == 10
    assert exponent_sum(braid(2, [])) == 0


def test_permutation_of_examples():
    assert permutation_of(braid(3, [1])).images == (2, 1, 3)
    assert permutation_of(full_twist(4)).is_identity()


def test_permutation_homomorphism_1000_pairs():
    rng = random.Random(7)
    for _ in range(1000):
        n = rng.randint(2, 7)
        a = random_word(rng, n, rng.randint(0, 10))
        b = random_word(rng, n, rng.randint(0, 10))
        assert permutation_of(compose(a, b)) == permutation_of(a) * permutation_of(b)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))


def test_s_plus():
    w = braid(5, [1, -2])
    assert s_plus(w).strands == 6
    assert isinstance(s_plus(w), BraidWord)
    assert s_plus(w).letters == (1, -2)
    assert s_plus(braid(2, [])).strands == 3


def test_family_words():
    assert family_word("X", 5).letters == (3, 3, 2, 3, 3, 2)
    assert family_word("Y", 6).letters == (1, 1, 2, 3, 4, 5, 1, 2, 3, 4)
    assert family_word("Z", 5).letters == (1, 1, 2, 3, 4, 1, 2, 3, 3, 4)
    with pytest.raises(ValueError):
        family_word("X", 4)
    with pytest.raises(ValueError):
        family_word("Y", 5)
    with pytest.raises(ValueError):
        family_word("Z", 6)


def test_entropy_family_words():
    w = entropy_family_word("unknot", 1)
    assert w.strands == 10
    assert len(w) == 6 + 3 * len(family_word("Y", 10))
    w = entropy_family_word("hopf", 1)
    assert w.strands == 11
    assert len(w) == 6 + 3 * len(family_word("Z", 11))
    w = entropy_family_word("unknot", 2)
    assert w.strands == 14
    assert len(w) == 6 + 5 * len(family_word("Y", 14))
    assert entropy_family_word("unknot", 1, squared=True).strands == 12
    assert entropy_family_word("hopf", 1, squared=True).strands == 13


@pytest.mark.parametrize("n", range(1, 9))
def test_forgetting_the_last_hopf_strand_leaves_the_unknot_braid(n):
    # Strand m = 4n+7 of the Hopf braid ends where it starts; deleting it
    # turns Z into Y letter for letter and leaves X alone, in the swept form
    # X Z^-2 as in X Z^(2n+1).  So the Hopf class maps to the unknot class
    # under forgetting a puncture (the Birman exact sequence), and
    # h(unknot_n) <= h(hopf_n).
    m = 4 * n + 7
    for hopf, unknot in ((sweep_word("hopf", n), sweep_word("unknot", n)),
                         (entropy_family_word("hopf", n), entropy_family_word("unknot", n))):
        assert hopf.strands == m
        assert forget_strand(hopf, m) == (unknot, m)


def test_sphere_relator_shape():
    assert sphere_relator(4).letters == (1, 2, 3, 3, 2, 1)


def test_letter_validation():
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(1, ())


def test_parse_and_format():
    w = parse_word("3 3 2 3 3 2", 5)
    assert w.letters == (3, 3, 2, 3, 3, 2)
    assert format_word(w) == "3 3 2 3 3 2"
    assert parse_word("", 4).letters == ()


@pytest.mark.parametrize("n", [2, 3, 4_000_000])
def test_parse_word_names_the_first_letter_out_of_range(n):
    top = n - 1
    assert parse_word(f"{top} {-top} {top}", n).letters == (top, -top, top)
    for bad in (0, n, -n, 12345678901234567890):
        with pytest.raises(ValueError, match=f"^letter {bad} out of range for {n} strands$"):
            parse_word(f"{top} {-top} {bad} 0 {n}", n)


def test_power_matches_repeated_composition():
    rng = random.Random(19)
    for _ in range(200):
        n = rng.randint(2, 6)
        w = random_word(rng, n, rng.randint(0, 10))
        exponent = rng.randint(-5, 5)
        base = w if exponent >= 0 else inverse(w)
        expected = braid(n, [])
        for _ in range(abs(exponent)):
            expected = compose(expected, base)
        assert (w ** exponent).letters == expected.letters


def _cancel_commuting_by_scan(letters):
    """Each letter scans the kept letters backwards for the last one within
    index distance 1, and cancels it when it is the letter's inverse."""
    kept = []
    for letter in letters:
        near = [j for j, x in enumerate(kept) if abs(abs(x) - abs(letter)) < 2]
        if near and kept[near[-1]] == -letter:
            del kept[near[-1]]
        else:
            kept.append(letter)
    return tuple(kept)


@st.composite
def words_with_commuting_cancellations(draw):
    """Words on 3-9 strands with pairs l ... -l inserted around runs of
    letters far from l, so that most draws have something to cancel."""
    strands = draw(st.integers(3, 9))
    letter = st.integers(1 - strands, strands - 1).filter(bool)
    letters = draw(st.lists(letter, max_size=20))
    for _ in range(draw(st.integers(0, 4))):
        l = draw(letter)
        far = [g for g in range(1 - strands, strands) if g and abs(abs(g) - abs(l)) >= 2]
        middle = draw(st.lists(st.sampled_from(far), max_size=4)) if far else []
        at = draw(st.integers(0, len(letters)))
        letters[at:at] = [l, *middle, -l]
    return braid(strands, letters)


@settings(max_examples=500, deadline=None)
@given(words_with_commuting_cancellations())
def test_cancel_commuting_matches_the_backward_scan(w):
    reduced = _cancel_commuting(w.letters)
    assert reduced == _cancel_commuting_by_scan(w.letters)
    assert len(reduced) <= len(w)
    assert _cancel_commuting(reduced) == reduced


@settings(max_examples=300, deadline=None)
@given(words_with_commuting_cancellations(), st.randoms(use_true_random=False))
def test_cancel_commuting_keeps_the_braid(w, rng):
    reduced = braid(w.strands, _cancel_commuting(w.letters))
    assert braid_equal(w, reduced)
    for _ in range(5):
        coords = [rng.randint(-30, 30) for _ in range(2 * w.strands - 4)]
        coords[rng.randrange(len(coords))] = rng.choice([-1, 1]) * rng.randint(1, 30)
        lam = LamCoords(w.strands, coords)
        assert act(reduced, lam) == act(w, lam)


def test_cancel_commuting_takes_linear_time():
    # 1 3 5 ... 2k+1 and then its inverse: every letter of the inverse meets
    # its own letter at the top of its stack, across no neighbour.
    up = list(range(1, 400_002, 2))
    start = time.monotonic()
    assert _cancel_commuting(up + [-x for x in reversed(up)]) == ()
    assert time.monotonic() - start < 2.0
