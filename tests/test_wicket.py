import collections
import random

import pytest

from goeritz import freegroup, wicket
from goeritz.freegroup import FreeWord, artin_action
from goeritz.wicket import (
    BridgeDecomposition,
    MembershipReport,
    TrivialTangle,
    is_goeritz_element,
    member_sw,
    member_sw_pair,
    member_sw_standard,
    plat_invariants,
    standard_tangle,
    tangle_B,
    tangle_C,
)
from goeritz.words import (
    BraidWord,
    braid,
    compose,
    family_word,
    full_twist,
    half_twist,
    inverse,
    permutation_of,
    sphere_relator,
)


def xyz(two_n):
    x = braid(two_n, family_word("X", 5).letters)
    y = braid(two_n, family_word("Y", two_n).letters)
    z = braid(two_n, family_word("Z", two_n - 1).letters)
    return x, y, z


def random_word(rng, strands, length):
    letters = [rng.choice([i for i in range(-(strands - 1), strands) if i != 0])
               for _ in range(length)]
    return braid(strands, letters)


def test_xyz_in_sw6():
    x, y, z = xyz(6)
    assert member_sw_standard(x, 3).verdict
    assert member_sw_standard(y, 3).verdict
    assert member_sw_standard(z, 3).verdict


def test_sigma1_in_sw4():
    assert member_sw_standard(braid(4, [1]), 2).verdict


def test_sigma2_squared_witness():
    report = member_sw_standard(braid(4, [2, 2]), 2)
    assert not report.verdict
    assert report.witness_index == 1
    assert report.witness == FreeWord(2, (2, -1, -2, 1))


def test_full_twist_membership():
    for n in (2, 3, 4):
        assert member_sw_standard(full_twist(2 * n), n).verdict


def test_membership_wrong_strands():
    with pytest.raises(ValueError):
        member_sw_standard(braid(5, [1]), 2)


def test_negative_report_needs_witness():
    with pytest.raises(ValueError):
        MembershipReport(verdict=False)


def test_member_sw_standard_tangle_matches():
    rng = random.Random(21)
    t = standard_tangle(3)
    for _ in range(30):
        w = random_word(rng, 6, rng.randint(0, 8))
        assert member_sw(w, t).verdict == member_sw_standard(w, 3).verdict


def test_tangle_strand_validation():
    with pytest.raises(ValueError):
        TrivialTangle(2, BraidWord(6))


def test_tangle_pairings():
    assert standard_tangle(2).pairing().images == (2, 1, 4, 3)
    # B_2 conjugator shifts the pairing
    assert tangle_B(2).pairing().images == (4, 3, 2, 1)
    assert tangle_C(2).pairing().images == (2, 1, 4, 3)
    assert tangle_C(3).pairing().images == (4, 3, 2, 1, 6, 5)


def test_tangle_family_plats():
    for n in range(2, 7):
        dec = BridgeDecomposition(n, BraidWord(2 * n), tangle_B(n).conjugator)
        inv = plat_invariants(dec)
        assert inv.components == 1, f"B_{n} plat is a knot"
        dec = BridgeDecomposition(n, BraidWord(2 * n), tangle_C(n).conjugator)
        inv = plat_invariants(dec)
        assert inv.components == 2 and inv.linking == 1, f"C_{n} plat is the Hopf link"


def test_membership_lemma_n3():
    x, y, z = xyz(6)
    b3, c3 = tangle_B(3), tangle_C(3)
    assert member_sw(x, b3).verdict and member_sw(y, b3).verdict
    assert member_sw(x, c3).verdict and member_sw(z, c3).verdict


def test_membership_lemma_higher_n():
    for n in (4, 5):
        x, y, z = xyz(2 * n)
        a = standard_tangle(n)
        assert member_sw_pair(x, a, tangle_B(n)).verdict
        assert member_sw_pair(y, a, tangle_B(n)).verdict
        assert member_sw_pair(x, a, tangle_C(n)).verdict
        assert member_sw_pair(z, a, tangle_C(n)).verdict


def test_pair_uses_first_failing_side():
    report = member_sw_pair(braid(4, [2, 2]), standard_tangle(2), standard_tangle(2))
    assert not report.verdict
    assert report.witness is not None


def test_subgroup_closure():
    rng = random.Random(22)
    x, y, z = xyz(6)
    d2 = full_twist(6)
    a = standard_tangle(3)
    for gens, other in (((x, y, d2), tangle_B(3)), ((x, z, d2), tangle_C(3))):
        for _ in range(40):
            w = braid(6, [])
            for _ in range(rng.randint(1, 4)):
                g = rng.choice(gens)
                if rng.random() < 0.5:
                    g = inverse(g)
                w = compose(w, g)
            assert member_sw_pair(w, a, other).verdict
            assert member_sw_pair(inverse(w), a, other).verdict


def test_sphere_relator_invariance():
    rng = random.Random(23)
    for n in (2, 3):
        rel = sphere_relator(2 * n)
        for _ in range(50):
            w = random_word(rng, 2 * n, rng.randint(0, 8))
            assert member_sw_standard(w, n).verdict == member_sw_standard(compose(w, rel), n).verdict


def test_conjugation_coherence():
    rng = random.Random(24)
    for _ in range(60):
        n = rng.choice([2, 3])
        b = random_word(rng, 2 * n, rng.randint(0, 5))
        d = random_word(rng, 2 * n, rng.randint(0, 5))
        w = random_word(rng, 2 * n, rng.randint(0, 6))
        lhs = member_sw_pair(w, TrivialTangle(n, b), TrivialTangle(n, d)).verdict
        moved = compose(inverse(b), compose(w, b))
        rhs = member_sw_pair(
            moved, standard_tangle(n), TrivialTangle(n, compose(inverse(b), d))
        ).verdict
        assert lhs == rhs


def test_goeritz_trefoil_two_bridge():
    dec = BridgeDecomposition(2, BraidWord(4), braid(4, [2, 2, 2]))
    assert plat_invariants(dec).components == 1
    assert is_goeritz_element(dec, braid(4, [-1, 3])).verdict
    assert is_goeritz_element(dec, half_twist(4)).verdict
    assert not is_goeritz_element(dec, braid(4, [1, 2])).verdict


def test_goeritz_trivial_link():
    dec = BridgeDecomposition(3, BraidWord(6), BraidWord(6))
    x, _, _ = xyz(6)
    assert is_goeritz_element(dec, x).verdict


def test_goeritz_stabilized_full_twist():
    for n in (2, 3):
        m = 2 * n + 2
        dec = BridgeDecomposition(n + 1, BraidWord(m), tangle_B(n + 1).conjugator)
        w = braid(m, [2 * n, 2 * n + 1] * 3)
        assert is_goeritz_element(dec, w).verdict


def test_goeritz_kernel_absorption():
    decs = [
        BridgeDecomposition(2, BraidWord(4), braid(4, [2, 2, 2])),
        BridgeDecomposition(3, BraidWord(6), BraidWord(6)),
        BridgeDecomposition(3, BraidWord(6), tangle_B(3).conjugator),
        BridgeDecomposition(3, braid(6, [1, -2]), tangle_C(3).conjugator),
    ]
    for dec in decs:
        assert is_goeritz_element(dec, full_twist(2 * dec.bridges)).verdict


def wicket_quotient(word: FreeWord) -> FreeWord:
    """Oracle for the wicket quotient, applied to a finished word:
    x_{2j-1} -> g_j, x_{2j} -> g_j^-1; the target has half the rank."""
    letters = []
    for letter in word.letters:
        k = abs(letter)
        j = (k + 1) // 2
        out = j if k % 2 == 1 else -j
        letters.append(out if letter > 0 else -out)
    return FreeWord(word.rank // 2, tuple(letters))


def member_sw_standard_oracle(word, arcs):
    """The full Artin action, then each meridian's image, then the quotient:
    (verdict, witness index, witness letters)."""
    endo = artin_action(word)
    for i in range(1, arcs + 1):
        image = wicket_quotient(endo(FreeWord(2 * arcs, (2 * i - 1, 2 * i))))
        if not image.is_identity():
            return False, i, image.letters
    return True, None, None


def test_witness_recomputes():
    report = member_sw_standard(braid(4, [2, 2]), 2)
    assert not report.witness.is_identity()
    expected = member_sw_standard_oracle(braid(4, [2, 2]), 2)
    assert (report.verdict, report.witness_index, report.witness.letters) == expected
    assert report.witness.rank == 2


def test_quotient_first_agrees_with_full_action_oracle():
    rng = random.Random(22)
    members = 0
    for _ in range(1000):
        arcs = rng.randint(2, 4)
        if rng.random() < 0.5:
            w = random_word(rng, 2 * arcs, rng.randint(4, 40))
        else:
            # a product of members: arc twists and exchanges of adjacent arcs
            gens = [(2 * j - 1,) for j in range(1, arcs + 1)]
            gens += [(2 * j, 2 * j - 1, 2 * j + 1, 2 * j) for j in range(1, arcs)]
            letters, length = [], rng.randint(4, 37)
            while len(letters) < length:
                g = rng.choice(gens)
                letters += g if rng.random() < 0.5 else [-x for x in reversed(g)]
            w = braid(2 * arcs, letters)
        report = member_sw_standard(w, arcs)
        witness = None if report.witness is None else report.witness.letters
        got = (report.verdict, report.witness_index, witness)
        assert got == member_sw_standard_oracle(w, arcs)
        members += report.verdict
    assert 0 < members < 1000


def first_broken_arc(word, arcs):
    """The first arc whose endpoints the word's permutation sends to two
    different arcs, or None."""
    p = permutation_of(word).images
    return next((i for i in range(1, arcs + 1) if (p[2 * i - 2] + 1) // 2 != (p[2 * i - 1] + 1) // 2), None)


def test_pruned_loop_agrees_with_full_action_oracle():
    # A broken arc bounds the witness; the verdict applies only the letters
    # feeding the images up to it, on the conjugated word of any tangle.
    rng = random.Random(27)
    seen = collections.Counter()
    for _ in range(1500):
        arcs = rng.randint(2, 4)
        w = random_word(rng, 2 * arcs, rng.randint(0, 30))
        tangle = rng.choice([standard_tangle, tangle_B, tangle_C])(arcs)
        c = tangle.conjugator
        conjugated = compose(inverse(c), compose(w, c))
        report = member_sw(w, tangle)
        witness = None if report.witness is None else report.witness.letters
        assert (report.verdict, report.witness_index, witness) == member_sw_standard_oracle(conjugated, arcs)
        assert report.checked == (arcs if report.verdict else report.witness_index)
        broken = first_broken_arc(conjugated, arcs)
        if broken is not None:
            assert not report.verdict and report.witness_index <= broken
            seen[c.letters != (), broken > 1, report.witness_index == broken] += 1
    for conjugated_tangle in (False, True):
        # broken arc 2 or 3 with an earlier, unbroken witness; the witness
        # at the broken arc, also past arc 1
        assert seen[conjugated_tangle, True, False] and seen[conjugated_tangle, True, True]
        assert seen[conjugated_tangle, False, True]


def test_feeding_letters_give_the_needed_images():
    rng = random.Random(28)
    shorter = 0
    for _ in range(500):
        rank = 2 * rng.randint(2, 5)
        w = random_word(rng, rank, rng.randint(0, 30))
        needed = rng.randint(1, rank)
        pruned = wicket._feeding(w, needed)
        if needed == rank:  # the member path of the one loop
            assert pruned is w  # no backward scan, no copy
        rest = iter(w.letters)
        assert pruned.strands == rank
        assert all(letter in rest for letter in pruned.letters)  # a subsequence
        assert artin_action(pruned).images[:needed] == artin_action(w).images[:needed]
        shorter += len(pruned) < len(w)
    assert shorter > 100


def test_a_pruned_loop_never_reports_a_member(monkeypatch):
    # The quotient's starting images send every meridian to 1, so a loop
    # that returned them unchanged would find no witness.
    monkeypatch.setattr(wicket, "artin_action", lambda word, after: after)
    with pytest.raises(RuntimeError, match="arc 1 is broken"):
        member_sw_standard(braid(4, [2]), 2)
    with pytest.raises(RuntimeError, match="arc 2 is broken"):
        member_sw_standard(braid(6, [1, 4]), 3)
    # No arc broken: the full loop, whose verdict stands.
    assert member_sw_standard(braid(4, [2, 2]), 2).verdict


def test_a_pruned_loop_names_the_whole_word_at_the_cap(monkeypatch):
    # Arc 1 is broken and only -2 1 feeds its images; over the cap, the
    # message still names the word's 8 letters.
    w = braid(6, [-2, 5, 4, -3, 1, 5, 3, 5])
    assert first_broken_arc(w, 3) == 1 and wicket._feeding(w, 2).letters == (-2, 1)
    monkeypatch.setattr(freegroup, "MAX_IMAGE_LETTERS", 6)
    with pytest.raises(freegroup.ResourceExhausted, match="on a word of length 8$"):
        member_sw_standard(w, 3)


def test_a_pruned_loop_over_the_cap_answers_from_the_full_loop(monkeypatch):
    # At a cap of 40 the pruned loop passes the cap on images the full
    # loop replaces, and the full loop answers within it.
    w = braid(8, [6, -7, -6, -2, 4, -5, -7, 4, 1, 2, 3, -2, -7, -3, 5])
    loops = []

    def recording(word, after):
        loops.append("full" if word == w else "pruned")
        return artin_action(word, after)

    monkeypatch.setattr(freegroup, "MAX_IMAGE_LETTERS", 40)
    monkeypatch.setattr(wicket, "artin_action", recording)
    report = member_sw_standard(w, 4)
    assert loops == ["pruned", "full"]
    assert not report.verdict and report.witness_index == 1
    assert report.witness == FreeWord(4, (1, 3, 2, -4, -2, -3, 2, -1))
