"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import math
import random
import time

from artin_oracles import braid_equal_via_artin, compose_endo
from goeritz.constants import finiteness_constant, solve_m, solve_R
from goeritz.freegroup import FreeWord, artin_action
from goeritz.lamination import LamCoords, act, entropy_estimate, family_sweep
from goeritz.wicket import (
    BridgeDecomposition,
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
from goeritz.wordproblem import (
    braid_equal,
    is_trivial,
    mcg_equal,
)
from goeritz.words import (
    BraidWord,
    braid,
    compose,
    family_word,
    full_twist,
    half_twist,
    inverse,
    sphere_relator,
)

GOLDEN = math.log((3 + math.sqrt(5)) / 2)   # largest root of x^2 - 3x + 1
DOUBLED = math.log(2 + math.sqrt(3))        # largest root of x^2 - 4x + 1


def _report(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def random_word(rng, strands, length):
    letters = [rng.choice([i for i in range(-(strands - 1), strands) if i != 0])
               for _ in range(length)]
    return braid(strands, letters)


def test_criterion_1_word_problem_identities():
    start = time.monotonic()
    assert braid_equal(braid(5, [2, 3, 2, 3, 2, 3]), family_word("X", 5))
    first = time.monotonic() - start

    start = time.monotonic()
    alpha = compose(family_word("X", 5), family_word("Z", 5))
    alpha_dm2 = compose(alpha, inverse(full_twist(5)))
    eta = braid(5, [1, 2, 1, 3, 2, 1, 4,
                    1, 2, 1, 4, 3, 2, 1,
                    2, 3, 2, 1, 4, 3,
                    3, 4, 3, 2, 1])
    gamma = braid(5, [1, 2, -4, -3, -3, -4, -2, -3])
    word = compose(compose(compose(inverse(eta), alpha_dm2), eta), inverse(gamma))
    assert is_trivial(word)
    second = time.monotonic() - start
    assert first < 5.0 and second < 5.0
    _report(1, f"(s2 s3)^3 identity in {first:.3f}s; eta-conjugacy identity in {second:.3f}s")


def test_criterion_2_kernel_behavior():
    d2 = full_twist(4)
    assert not braid_equal(d2, BraidWord(4))
    assert mcg_equal(d2, BraidWord(4))
    assert mcg_equal(braid(4, [-1, -1, 3, 3]), BraidWord(4))
    _report(2, "Delta^2 nontrivial planar, trivial on the sphere; "
               "s1^-2 s3^2 trivial on the sphere")


def test_criterion_3_membership_suite():
    x6 = braid(6, family_word("X", 5).letters)
    y6 = braid(6, family_word("Y", 6).letters)
    z6 = braid(6, family_word("Z", 5).letters)
    assert member_sw_standard(x6, 3).verdict
    assert member_sw_standard(y6, 3).verdict
    assert member_sw_standard(z6, 3).verdict

    for n in (3, 4, 5):
        m = 2 * n
        x = braid(m, family_word("X", 5).letters)
        y = braid(m, family_word("Y", m).letters)
        z = braid(m, family_word("Z", m - 1).letters)
        a = standard_tangle(n)
        assert member_sw_pair(x, a, tangle_B(n)).verdict
        assert member_sw_pair(y, a, tangle_B(n)).verdict
        assert member_sw_pair(x, a, tangle_C(n)).verdict
        assert member_sw_pair(z, a, tangle_C(n)).verdict

    bad = member_sw_standard(braid(4, [2, 2]), 2)
    assert not bad.verdict
    assert bad.witness == FreeWord(2, (2, -1, -2, 1))

    for n in (2, 3, 4):
        assert member_sw_standard(full_twist(2 * n), n).verdict

    for n in (2, 3):
        m = 2 * n + 2
        dec = BridgeDecomposition(n + 1, BraidWord(m), tangle_B(n + 1).conjugator)
        w = braid(m, [2 * n, 2 * n + 1] * 3)
        assert is_goeritz_element(dec, w).verdict
    _report(3, "x,y,z wicket memberships, pair memberships n=3..5, "
               "witnessed negative, full twists, stabilized full twists")


def test_criterion_4_tangle_families():
    for n in range(2, 7):
        inv = plat_invariants(BridgeDecomposition(n, BraidWord(2 * n), tangle_B(n).conjugator))
        assert inv.components == 1
        inv = plat_invariants(BridgeDecomposition(n, BraidWord(2 * n), tangle_C(n).conjugator))
        assert inv.components == 2 and inv.linking == 1
    _report(4, "unknot family 1 component, Hopf family 2 components |lk| = 1, n = 2..6")


def test_criterion_5_dilatation_points():
    start = time.monotonic()
    r1 = entropy_estimate(braid(3, [1, -2]))
    t1 = time.monotonic() - start
    assert abs(r1.log_lambda - GOLDEN) < 1e-4 and t1 < 10.0

    start = time.monotonic()
    r2 = entropy_estimate(braid(3, [1, -2, -2]))
    t2 = time.monotonic() - start
    assert abs(r2.log_lambda - DOUBLED) < 1e-4 and t2 < 10.0
    _report(5, f"log lambda errors {abs(r1.log_lambda - GOLDEN):.2e}, "
               f"{abs(r2.log_lambda - DOUBLED):.2e}; {t1:.2f}s, {t2:.2f}s")


def test_criterion_6_family_asymptotics():
    start = time.monotonic()
    for which in ("unknot", "hopf"):
        records = family_sweep(which, range(2, 9))
        assert all(r.converged for r in records), f"{which}: non-converged row"
        for r in records:
            assert r.log_lambda >= r.penner_bound - 1e-6
        normalized = [r.normalized for r in records]
        band = max(normalized) / min(normalized)
        assert band < 3.0, f"{which}: band ratio {band}"
        print(f"   {which}: empirical P = {max(normalized):.4f}, band ratio {band:.3f}")
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report(6, f"both families n = 2..8 converged above the universal bound "
               f"in a tight band ({elapsed:.0f}s)")


def test_criterion_7_constants():
    report = solve_R(32)
    m = report.m
    assert abs(m - 2 * 32 * (6 + math.log2(m + 2))) < 1e-9
    assert report.ceil_R == 897
    assert report.two_R_plus_two <= 1796
    assert finiteness_constant(1796, 102) == 3796
    _report(7, f"ceil R(32) = 897, 2R+2 = {report.two_R_plus_two:.4f} <= 1796, N = 3796")


def test_criterion_8a_artin_properties():
    rng = random.Random(81)
    for _ in range(500):
        n = rng.randint(2, 6)
        a = random_word(rng, n, rng.randint(0, 8))
        b = random_word(rng, n, rng.randint(0, 8))
        assert artin_action(compose(a, b)) == compose_endo(artin_action(a), artin_action(b))
        prod = FreeWord(n, tuple(range(1, n + 1)))
        assert artin_action(a)(prod) == prod
    _report("8a", "Artin homomorphism + product preservation, 500 random pairs")


def test_criterion_8b_word_problem_oracle_agreement():
    rng = random.Random(82)
    for trial in range(500):
        n = rng.randint(2, 5)
        a = random_word(rng, n, rng.randint(0, 9))
        if trial % 2 == 0:
            b = random_word(rng, n, rng.randint(0, 9))
        else:
            # equal pair via an inserted relator
            i = rng.randint(1, n - 1) if n < 3 else rng.randint(1, n - 2)
            piece = [i, -i] if n < 3 or rng.random() < 0.3 else [i, i + 1, i, -(i + 1), -i, -(i + 1)]
            pos = rng.randint(0, len(a.letters))
            b = braid(n, list(a.letters[:pos]) + piece + list(a.letters[pos:]))
        assert braid_equal(a, b) == braid_equal_via_artin(a, b)
    _report("8b", "braid equality agrees with the Artin oracle, 500 pairs")


def test_criterion_8c_chart_relations():
    rng = random.Random(83)
    checked = 0
    for m in range(3, 9):
        for _ in range(1000):
            coords = tuple(rng.randint(-10, 10) for _ in range(2 * m - 4))
            if not any(coords):
                coords = (1,) + coords[1:]
            c = LamCoords(m, coords)
            i = rng.randint(1, m - 2) if m > 3 else 1
            if i + 1 <= m - 1:
                assert act(braid(m, [i, i + 1, i]), c) == act(braid(m, [i + 1, i, i + 1]), c)
            j = rng.randint(1, m - 1)
            assert act(braid(m, [-j]), act(braid(m, [j]), c)) == c
            if m >= 4:
                k = rng.randint(1, m - 3)
                l = rng.randint(k + 2, m - 1)
                assert act(braid(m, [k, l]), c) == act(braid(m, [l, k]), c)
            checked += 1
    _report("8c", f"chart braid relations, inverses, commutation on {checked} vectors")


def test_criterion_8d_wicket_invariance_and_closure():
    rng = random.Random(84)
    for _ in range(500):
        n = rng.choice([2, 3])
        rel = sphere_relator(2 * n)
        w = random_word(rng, 2 * n, rng.randint(0, 8))
        assert member_sw_standard(w, n).verdict == member_sw_standard(compose(w, rel), n).verdict

    x = braid(6, family_word("X", 5).letters)
    y = braid(6, family_word("Y", 6).letters)
    z = braid(6, family_word("Z", 5).letters)
    d2 = full_twist(6)
    a3 = standard_tangle(3)
    count = 0
    for gens, other in (((x, y, d2), tangle_B(3)), ((x, z, d2), tangle_C(3))):
        for _ in range(250):
            w = BraidWord(6)
            for _ in range(rng.randint(1, 4)):
                g = rng.choice(gens)
                if rng.random() < 0.5:
                    g = inverse(g)
                w = compose(w, g)
            assert member_sw_pair(w, a3, other).verdict
            assert member_sw_pair(inverse(w), a3, other).verdict
            count += 2
    _report("8d", f"sphere-relator invariance (500 words) and subgroup closure ({count} products)")


def test_criterion_8e_conjugation_coherence():
    rng = random.Random(85)
    for _ in range(500):
        n = rng.choice([2, 3])
        b = random_word(rng, 2 * n, rng.randint(0, 5))
        d = random_word(rng, 2 * n, rng.randint(0, 5))
        w = random_word(rng, 2 * n, rng.randint(0, 6))
        lhs = member_sw_pair(w, TrivialTangle(n, b), TrivialTangle(n, d)).verdict
        moved = compose(inverse(b), compose(w, b))
        rhs = member_sw_pair(moved, standard_tangle(n),
                             TrivialTangle(n, compose(inverse(b), d))).verdict
        assert lhs == rhs
    _report("8e", "conjugation coherence of pair membership, 500 random cases")


def test_criterion_9_two_bridge_goeritz_structure():
    dec = BridgeDecomposition(2, BraidWord(4), braid(4, [2, 2, 2]))
    assert plat_invariants(dec).components == 1
    r = braid(4, [-1, 3])
    delta = half_twist(4)
    assert is_goeritz_element(dec, r).verdict
    assert is_goeritz_element(dec, delta).verdict
    identity = BraidWord(4)
    assert mcg_equal(compose(r, r), identity)
    assert mcg_equal(compose(delta, delta), identity)
    # the two generators are distinct, nontrivial classes whose product is the
    # remaining involution: the Klein four-group pattern
    assert not mcg_equal(r, identity)
    assert not mcg_equal(delta, identity)
    assert not mcg_equal(r, delta)
    product = compose(r, delta)
    assert mcg_equal(compose(product, product), identity)
    _report(9, "trefoil generators certified; both square to the identity class "
               "(Klein four-group structure)")
