import random

import pytest

from goeritz.plat import (
    Pairing,
    PlatInvariants,
    component_count,
    conjugated_pairing,
    plat_invariants_of,
    plat_linking,
    standard_pairing,
)
from goeritz.wicket import BridgeDecomposition, plat_invariants, tangle_B, tangle_C
from goeritz.wordproblem import braid_equal
from goeritz.words import BraidWord, Permutation, braid, compose, family_word, full_twist


def random_word(rng, strands, length):
    letters = [rng.choice([i for i in range(-(strands - 1), strands) if i != 0])
               for _ in range(length)]
    return braid(strands, letters)


def test_pairing_validation():
    with pytest.raises(ValueError):
        Pairing((1, 2))
    with pytest.raises(ValueError):
        Pairing((2, 1, 3))


def test_plat_sizes_must_match():
    std2, std3 = standard_pairing(2), standard_pairing(3)
    for top, word, bottom in (
        (std2, braid(6, [5]), std3),
        (std3, braid(6, [5]), std2),
        (std3, braid(4, [3]), std3),
    ):
        for invariant in (component_count, plat_linking):
            with pytest.raises(ValueError, match="pairing sizes must match the strand count"):
                invariant(top, word, bottom)
    with pytest.raises(ValueError, match="size mismatch"):
        conjugated_pairing(std2, Permutation((1, 2, 3, 4, 5, 6)))
    assert isinstance(std2, Permutation)


def test_trivial_link_components():
    for n in (2, 3, 4):
        std = standard_pairing(n)
        assert component_count(std, BraidWord(2 * n), std) == n


def test_square_walk():
    top = Pairing((2, 1, 4, 3))
    bottom = Pairing((4, 3, 2, 1))
    assert component_count(top, BraidWord(4), bottom) == 1


def test_clasp_components():
    std = standard_pairing(2)
    assert component_count(std, braid(4, [2, 2]), std) == 2


def test_known_links():
    std = standard_pairing(2)
    trefoil = plat_invariants_of(std, braid(4, [2, 2, 2]), std)
    assert (trefoil.components, trefoil.linking, trefoil.crossings) == (1, None, 3)
    hopf = plat_invariants_of(std, braid(4, [2, 2]), std)
    assert (hopf.components, hopf.linking) == (2, 1)
    hopf_neg = plat_invariants_of(std, braid(4, [-2, -2]), std)
    assert (hopf_neg.components, hopf_neg.linking) == (2, 1)
    solomon = plat_invariants_of(std, braid(4, [2, 2, 2, 2]), std)
    assert (solomon.components, solomon.linking) == (2, 2)
    unlink = plat_invariants_of(std, BraidWord(4), std)
    assert (unlink.components, unlink.linking) == (2, 0)


def test_linking_none_unless_two_components():
    std = standard_pairing(3)
    assert plat_linking(std, BraidWord(6), std) is None


def test_relator_insertion_invariance():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(2, 4)
        std = standard_pairing(n)
        w = random_word(rng, 2 * n, rng.randint(0, 8))
        base = component_count(std, w, std)
        i = rng.randint(1, 2 * n - 2)
        relator = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
        pos = rng.randint(0, len(w.letters))
        w2 = braid(2 * n, list(w.letters[:pos]) + relator + list(w.letters[pos:]))
        assert component_count(std, w2, std) == base


def test_wicket_members_fix_the_plat():
    rng = random.Random(32)
    std = standard_pairing(3)
    members = [
        braid(6, family_word("X", 5).letters),
        braid(6, family_word("Y", 6).letters),
        braid(6, family_word("Z", 5).letters),
        braid(6, [1]),
        full_twist(6),
    ]
    for _ in range(60):
        w = random_word(rng, 6, rng.randint(0, 8))
        base = component_count(std, w, std)
        g = rng.choice(members)
        assert component_count(std, compose(w, g), std) == base


def test_hopf_linking_stable_under_index():
    for n in range(2, 7):
        dec = BridgeDecomposition(n, BraidWord(2 * n), tangle_C(n).conjugator)
        assert plat_invariants(dec).linking == 1


def test_unknot_family_is_knotted_trivially():
    # the B family closes to a single unknotted component; its plat braid is
    # planar-equivalent to a shift word, which the word problem confirms
    for n in range(2, 5):
        dec = BridgeDecomposition(n, BraidWord(2 * n), tangle_B(n).conjugator)
        assert plat_invariants(dec).components == 1
        assert braid_equal(dec.plat_braid(), tangle_B(n).conjugator)


def walking_plat_linking(top, braid, bottom):
    """Reference |lk|: walk each component down and up its strands, record
    (component, direction) at every crossing passed, keyed by the position
    above the crossing, then sum over crossings of distinct components."""
    letters = braid.letters
    visits = {}

    def descend(p, comp):
        x = p
        for t, letter in enumerate(letters):
            k = abs(letter)
            if x == k:
                visits.setdefault((t, k), []).append((comp, +1))
                x = k + 1
            elif x == k + 1:
                visits.setdefault((t, k + 1), []).append((comp, +1))
                x = k
        return x

    def ascend(p, comp):
        x = p
        for t in range(len(letters) - 1, -1, -1):
            k = abs(letters[t])
            if x == k:  # above the crossing this strand sits at k+1
                visits.setdefault((t, k + 1), []).append((comp, -1))
                x = k + 1
            elif x == k + 1:
                visits.setdefault((t, k), []).append((comp, -1))
                x = k
        return x

    started = set()
    comp = 0
    for start in range(1, top.size + 1):
        if start in started:
            continue
        comp += 1
        point = start
        while point not in started:
            started.add(point)
            up_top = ascend(bottom(descend(point, comp)), comp)
            started.add(up_top)
            point = top(up_top)
    if comp != 2:
        return None
    total = 0
    for t, letter in enumerate(letters):
        k = abs(letter)
        [(c1, d1)], [(c2, d2)] = visits[(t, k)], visits[(t, k + 1)]
        if c1 != c2:
            total += (1 if letter > 0 else -1) * d1 * d2
    return abs(total) // 2


def random_pairing(rng, size):
    points = list(range(1, size + 1))
    rng.shuffle(points)
    images = [0] * size
    for x, y in zip(points[0::2], points[1::2]):
        images[x - 1], images[y - 1] = y, x
    return Pairing(tuple(images))


def test_plat_linking_matches_walking_reference():
    rng = random.Random(33)
    two_components = 0
    for _ in range(3000):
        n = rng.randint(1, 5)
        w = random_word(rng, 2 * n, rng.randint(0, 24))
        top, bottom = (random_pairing(rng, 2 * n) if rng.random() < 0.5 else standard_pairing(n)
                       for _ in range(2))
        expected = walking_plat_linking(top, w, bottom)
        assert plat_linking(top, w, bottom) == expected
        assert plat_invariants_of(top, w, bottom) == PlatInvariants(
            component_count(top, w, bottom), expected, len(w))
        two_components += expected is not None
    assert two_components > 500
