import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goeritz import lamination
from goeritz.lamination import (
    EntropyReport,
    LamCoords,
    _apply,
    _linear_tail,
    _prove_period,
    _Ray,
    _WallCrossing,
    act,
    entropy_estimate,
    family_sweep,
    penner_lower_bound,
)
from goeritz.words import (
    _cancel_commuting,
    braid,
    compose,
    entropy_family_word,
    full_twist,
    inverse,
)
from lamination_oracles import _compile, _restrict
from seed_curves import seed_curves, seed_multicurves
from sweep_words import sweep_word

GOLDEN = math.log((3 + math.sqrt(5)) / 2)
DOUBLED = math.log(2 + math.sqrt(3))


def random_coords(rng, m, lo=-12, hi=12):
    while True:
        coords = tuple(rng.randint(lo, hi) for _ in range(2 * m - 4))
        if any(coords):
            return LamCoords(m, coords)


def random_word(rng, strands, length):
    letters = [rng.choice([i for i in range(-(strands - 1), strands) if i != 0])
               for _ in range(length)]
    return braid(strands, letters)


def test_coords_validation():
    with pytest.raises(ValueError):
        LamCoords(3, (0, 0))
    with pytest.raises(ValueError):
        LamCoords(4, (1, 0, 0))
    with pytest.raises(ValueError):
        LamCoords(2, ())


def test_identity_action():
    c = LamCoords(4, (1, 2, 3, 4))
    assert act(braid(4, []), c) == c


def test_group_action_inverse():
    rng = random.Random(41)
    for _ in range(200):
        m = rng.randint(3, 8)
        c = random_coords(rng, m)
        w = random_word(rng, m, rng.randint(1, 10))
        assert act(w, act(inverse(w), c)) == c
        assert act(inverse(w), act(w, c)) == c


def test_braid_relation_on_coordinates():
    rng = random.Random(42)
    for m in range(3, 9):
        for _ in range(200):
            c = random_coords(rng, m)
            for i in range(1, m - 1):
                lhs = act(braid(m, [i, i + 1, i]), c)
                rhs = act(braid(m, [i + 1, i, i + 1]), c)
                assert lhs == rhs


def test_far_commutation_on_coordinates():
    rng = random.Random(43)
    for m in range(4, 9):
        for _ in range(100):
            c = random_coords(rng, m)
            for i in range(1, m - 1):
                for j in range(i + 2, m):
                    assert act(braid(m, [i, j]), c) == act(braid(m, [j, i]), c)


def test_strand_mismatch():
    with pytest.raises(ValueError):
        act(braid(4, [1]), LamCoords(5, (1, 0, 0, 0, 0, 0)))


def test_seed_curves_shape():
    seeds = seed_curves(5)
    assert len(seeds) == 4
    for s in seeds:
        assert any(s.coords)
    # the curve around punctures j, j+1 is preserved by sigma_j
    for j, s in enumerate(seeds, start=1):
        assert act(braid(5, [j]), s) == s


def test_entropy_point_values():
    r = entropy_estimate(braid(3, [1, -2]))
    assert abs(r.log_lambda - GOLDEN) < 1e-4
    assert r.classification == "exponential"
    assert r.converged
    r = entropy_estimate(braid(3, [1, -2, -2]))
    assert abs(r.log_lambda - DOUBLED) < 1e-4
    assert r.classification == "exponential"


def test_twist_subexponential():
    r = entropy_estimate(braid(3, [1, 1]))
    assert r.classification == "sub-exponential"
    assert r.log_lambda < 0.05


def test_entropy_inverse_symmetry():
    for letters in ([1, -2], [1, -2, -2]):
        fwd = entropy_estimate(braid(3, letters))
        bwd = entropy_estimate(inverse(braid(3, letters)))
        assert abs(fwd.log_lambda - bwd.log_lambda) < 1e-4


def test_entropy_conjugacy_invariance():
    rng = random.Random(44)
    base = entropy_estimate(braid(3, [1, -2, -2])).log_lambda
    for _ in range(5):
        u = random_word(rng, 3, rng.randint(1, 5))
        w = compose(compose(u, braid(3, [1, -2, -2])), inverse(u))
        assert abs(entropy_estimate(w).log_lambda - base) < 1e-4


def test_entropy_strand_padding():
    for letters in ([1, -2], [1, -2, -2]):
        base = entropy_estimate(braid(3, letters)).log_lambda
        padded = entropy_estimate(braid(4, letters)).log_lambda
        assert abs(base - padded) < 1e-4


def test_entropy_needs_three_strands():
    with pytest.raises(ValueError):
        entropy_estimate(braid(2, [1]))


def test_penner_bound_values():
    assert abs(penner_lower_bound(4) - math.log(2) / 4) < 1e-12
    assert abs(penner_lower_bound(6) - math.log(2) / 12) < 1e-12
    assert abs(penner_lower_bound(14) - math.log(2) / 44) < 1e-12
    with pytest.raises(ValueError):
        penner_lower_bound(3)


def test_family_sweep_small():
    records = family_sweep("unknot", [1], max_iterations=1500)
    assert records[0].strands == 10
    assert records[0].converged
    records = family_sweep("hopf", [1], max_iterations=1500)
    assert records[0].strands == 11
    assert records[0].converged
    assert records[0].normalized == records[0].strands * records[0].log_lambda


def test_full_twist_centrality_on_coordinates():
    rng = random.Random(45)
    from goeritz.words import full_twist
    for m in range(3, 8):
        d2 = full_twist(m)
        for _ in range(60):
            c = random_coords(rng, m)
            w = random_word(rng, m, 8)
            assert act(compose(d2, w), c) == act(compose(w, d2), c)


def test_relations_with_huge_coordinates():
    rng = random.Random(46)
    for m in (3, 5, 8):
        for _ in range(60):
            c = random_coords(rng, m, lo=-10**9, hi=10**9)
            i = rng.randint(1, m - 2) if m > 3 else 1
            assert act(braid(m, [i, i + 1, i]), c) == act(braid(m, [i + 1, i, i + 1]), c)
            j = rng.randint(1, m - 1)
            assert act(braid(m, [-j]), act(braid(m, [j]), c)) == c


def _act_letter_oracle(m, c, letter):
    """The per-letter rules in their original form, one generator at a time."""
    k = abs(letter)
    last = m - 2
    if letter > 0:
        if k == 1:
            a, b = c[0], c[1]
            c[0] = a - b
            c[1] = a - abs(a - b)
        elif k == m - 1:
            a, b = c[2 * last - 2], c[2 * last - 1]
            c[2 * last - 2] = a - 2 * min(b, 0)
            c[2 * last - 1] = a + abs(b)
        else:
            p = 2 * (k - 1) - 2
            q = 2 * k - 2
            ap, bp, aq, bq = c[p], c[p + 1], c[q], c[q + 1]
            na = ap + max(0, min(2 * (bq - bp), aq - bp))
            nq = ap + aq - bq
            nb = min(bq, 2 * aq - bq, bp + aq - bq)
            np_ = na + nq - nb - ap + bp - aq + bq
            c[p], c[p + 1], c[q], c[q + 1] = na, np_, nq, nb
    else:
        if k == 1:
            a, b = c[0], c[1]
            c[0] = b + abs(a)
            c[1] = b - 2 * min(a, 0)
        elif k == m - 1:
            a, b = c[2 * last - 2], c[2 * last - 1]
            c[2 * last - 2] = b - abs(a - b)
            c[2 * last - 1] = b - a
        else:
            p = 2 * (k - 1) - 2
            q = 2 * k - 2
            ap, bp, aq, bq = c[p], c[p + 1], c[q], c[q + 1]
            na = min(-ap + bp + aq, -ap + 2 * bp, ap)
            np_ = -ap + bp + bq
            nq = max(ap - aq + bq, ap - 2 * bp + aq + bq, -ap + aq + bq)
            nb = na + nq - np_ - ap + bp - aq + bq
            c[p], c[p + 1], c[q], c[q + 1] = na, np_, nq, nb


def test_compiled_action_matches_per_letter_rules():
    rng = random.Random(47)
    for _ in range(3000):
        m = rng.randint(3, 12)
        bound = rng.choice([3, 50, 10**30])
        c = random_coords(rng, m, lo=-bound, hi=bound)
        w = random_word(rng, m, rng.randint(0, 40))
        expected = list(c.coords)
        for letter in reversed(w.letters):
            _act_letter_oracle(m, expected, letter)
        assert act(w, c).coords == tuple(expected)


@pytest.mark.parametrize("m", [3, 4])
def test_single_letters_match_the_oracle_on_every_small_vector(m):
    # Random draws seldom land exactly on a tie between two pieces, where a
    # comparison form and an abs/min form could part; every vector of
    # {-2..2}^(2m-4) meets each rule's ties many times.
    letters = [k for k in range(1 - m, m) if k]
    for coords in itertools.product(range(-2, 3), repeat=2 * m - 4):
        for letter in letters:
            expected = list(coords)
            _act_letter_oracle(m, expected, letter)
            c = list(coords)
            _apply(c, _compile(m, [letter]))
            assert c == expected, (coords, letter)


def test_sphere_relator_acts_nontrivially_on_disk():
    from goeritz.words import sphere_relator
    c = LamCoords(4, (1, 2, -1, 3))
    assert act(sphere_relator(4), c) != c


def test_squared_family_variants():
    from goeritz.words import entropy_family_word
    plain = entropy_estimate(entropy_family_word("hopf", 1), max_iterations=1500)
    squared = entropy_estimate(entropy_family_word("hopf", 1, squared=True), max_iterations=1500)
    assert plain.converged and squared.converged
    # the squared word iterates the map twice per power, doubling the entropy
    assert abs(squared.log_lambda - 2 * plain.log_lambda) < 0.2 or squared.log_lambda > plain.log_lambda


def test_seed_braid_certification_chain():
    """The 5-strand product X Z is pseudo-Anosov with the same entropy as
    the 3-strand word it collapses to: the full conjugation chain
    X Z ~ X Z Delta^-2 ~ gamma ~ (strand-removed) s1 s2^-2 shares one
    dilatation."""
    from goeritz.words import family_word, full_twist
    alpha = compose(family_word("X", 5), family_word("Z", 5))
    gamma = braid(5, [1, 2, -4, -3, -3, -4, -2, -3])
    values = [
        entropy_estimate(w, max_iterations=400).log_lambda
        for w in (alpha, compose(alpha, inverse(full_twist(5))), gamma,
                  braid(3, [1, -2, -2]))
    ]
    for v in values:
        assert abs(v - DOUBLED) < 1e-4


def _burau_trace_at_minus_one(letters):
    """Trace of the reduced Burau image at t = -1 of a 3-strand word."""
    images = {1: ((1, 1), (0, 1)), 2: ((1, 0), (-1, 1))}
    images.update({-i: ((d, -b), (-c, a)) for i, ((a, b), (c, d)) in list(images.items())})
    (p, q), (r, s) = (1, 0), (0, 1)
    for letter in letters:
        (a, b), (c, d) = images[letter]
        (p, q), (r, s) = (p * a + q * c, p * b + q * d), (r * a + s * c, r * b + s * d)
    return p + s


def test_entropy_matches_burau_on_three_strands():
    # On 3 strands the Burau image at t = -1 is the action on the homology
    # of the branched double cover, a torus: a word with |trace| > 2 is
    # pseudo-Anosov with dilatation the spectral radius of that matrix.
    rng = random.Random(46)
    checked = 0
    for _ in range(400):
        w = random_word(rng, 3, rng.randint(1, 30))
        tr = _burau_trace_at_minus_one(w.letters)
        if abs(tr) <= 2:
            continue
        expected = math.log((abs(tr) + math.sqrt(tr * tr - 4)) / 2)
        report = entropy_estimate(w)
        assert report.converged, w.letters
        assert abs(report.log_lambda - expected) <= 1e-6 * expected, w.letters
        checked += 1
    assert checked >= 200


def test_seed_multicurves_shape():
    assert seed_multicurves(3) == seed_curves(3)
    # each multicurve is fixed by the half twists about its own components
    for m in range(4, 13):
        odd, even = seed_multicurves(m)
        for j in range(1, m):
            fixed = odd if j % 2 else even
            assert act(braid(m, [j]), fixed) == fixed


@st.composite
def words_on_3_to_12_strands(draw):
    strands = draw(st.integers(3, 12))
    letter = st.integers(-(strands - 1), strands - 1).filter(bool)
    return braid(strands, draw(st.lists(letter, max_size=40)))


@settings(max_examples=300, deadline=None)
@given(words_on_3_to_12_strands())
def test_multicurve_action_is_additive(w):
    # The components of each multicurve are disjoint, so the braid's image
    # of the multicurve is the sum of the images of its components.
    curves = seed_curves(w.strands)
    for multicurve, components in zip(seed_multicurves(w.strands),
                                      (curves[0::2], curves[1::2])):
        images = [act(w, c).coords for c in components]
        assert act(w, multicurve).coords == tuple(map(sum, zip(*images)))


@st.composite
def words_with_small_rays(draw):
    w = draw(words_on_3_to_12_strands())
    small = st.lists(st.integers(-5, 5), min_size=2 * w.strands - 4, max_size=2 * w.strands - 4)
    return w, draw(small), draw(small)


@settings(max_examples=500, deadline=None)
@given(words_with_small_rays())
@example((braid(5, [-1, 3, 4, 1, -3, -1, -2, 4]), [4, 0, 5, 4, 2, -5], [5, -3, 5, 1, 5, -1]))
def test_rays_agree_with_their_integer_points(case):
    # A ray that crosses no wall stays on one linear piece, so every point
    # c + t*d of it goes to the point r.c + t*r.d of the image ray.
    w, c, d = case
    ops = _compile(w.strands, reversed(w.letters))
    ray = [_Ray(x, s) for x, s in zip(c, d)]
    try:
        _apply(ray, ops)
    except _WallCrossing:
        return
    for t in (0, 1, 7, 10**6):
        point = [x + t * s for x, s in zip(c, d)]
        _apply(point, ops)
        assert point == [r.c + t * r.d for r in ray]


def test_unproved_rays_agree_with_the_integer_kernel():
    # The kernel-contract oracle: _apply on rays, with no period to prove,
    # against the integer kernel on points of the ray.  Wherever no
    # comparison crosses a wall, c + t*d goes to r.c + t*r.d.
    rng = random.Random(19)
    agreed = 0
    for _ in range(20000):
        m = rng.randint(3, 9)
        ops = _compile(m, random_word(rng, m, rng.randint(1, 12)).letters)
        c = [rng.randint(-20, 20) for _ in range(2 * m - 4)]
        d = [rng.randint(-3, 3) if rng.random() < 0.25 else 0 for _ in c]
        d[rng.randrange(len(d))] = rng.choice([-2, -1, 1, 2])  # a ray, never a point
        ray = [_Ray(x, s) for x, s in zip(c, d)]
        try:
            _apply(ray, ops)
        except _WallCrossing:
            continue
        agreed += 1
        for t in (0, 1, 2, 7):
            point = [x + t * s for x, s in zip(c, d)]
            _apply(point, ops)
            assert point == [r.c + t * r.d for r in ray], (m, ops, c, d, t)
    assert agreed >= 4000, agreed


def _whole_vector_report(word, max_iterations=200, seeds=seed_multicurves):
    """The report of _estimate_seed maximized over seeds(m), on the
    unreduced word compiled over the whole coordinate vectors."""
    ops = _compile(word.strands, reversed(word.letters))
    estimates, converged, iterations = zip(*(
        lamination._estimate_seed(ops, seed.coords, max_iterations)
        for seed in seeds(word.strands)
    ))
    log_lambda, converged = max(estimates), all(converged)
    return EntropyReport(len(word), word.strands, sum(iterations), log_lambda, converged,
                         lamination._classify(log_lambda, converged))


def test_multicurve_estimate_matches_per_seed_maximum():
    # The maximum over the m-1 seed curves is the oracle: on these words,
    # wherever it converges, the two multicurves converge to the same
    # growth rate.
    rng = random.Random(48)
    both = 0
    for _ in range(1500):
        m = rng.randint(3, 9)
        w = random_word(rng, m, rng.randint(5, 40))
        oracle = _whole_vector_report(w, seeds=seed_curves)
        if not oracle.converged:
            continue
        report = entropy_estimate(w)
        assert report.converged, w.letters
        assert report.classification == oracle.classification, w.letters
        # abs_tol absorbs rounding in the window means of a growth rate of
        # 0, which can read 2e-17 on one seed set and 0 on the other
        assert math.isclose(report.log_lambda, oracle.log_lambda,
                            rel_tol=1e-6, abs_tol=1e-12), w.letters
        both += 1
    assert both >= 1000


def test_multicurve_estimate_is_unchanged_on_three_strands():
    rng = random.Random(49)
    for _ in range(300):
        w = random_word(rng, 3, rng.randint(0, 30))
        assert entropy_estimate(w) == _whole_vector_report(w, seeds=seed_curves)


def _closed_form_log_lambda(n):
    """log of the largest root in (1, 2) of x^(2n+3) - 2x^(n+2) - 2x^(n+1) + 1,
    found by 50 exact bisection steps from T(1) = -2 < 0 < T(2)."""
    lo, hi = Fraction(1), Fraction(2)
    for _ in range(50):
        mid = (lo + hi) / 2
        if mid ** (2 * n + 3) - 2 * mid ** (n + 2) - 2 * mid ** (n + 1) + 1 < 0:
            lo = mid
        else:
            hi = mid
    return math.log(lo)


def test_family_sweep_pinned_rows():
    # Rows n = 1..6 as the per-seed maximum printed them, to 6 significant
    # digits.  At n = 8 both families give 0.13892: the mean log-norm
    # increment from iteration 1500 to 3000 is 0.138920007 on both.
    pinned = ["0.543535", "0.382245", "0.295442", "0.240965", "0.203526", "0.176191"]
    for which in ("unknot", "hopf"):
        records = family_sweep(which, [1, 2, 3, 4, 5, 6, 8])
        assert all(r.converged for r in records)
        assert [f"{r.log_lambda:.6g}" for r in records] == pinned + ["0.13892"]
        for r in records:
            assert abs(r.log_lambda - _closed_form_log_lambda(r.n)) < 1e-6, (which, r.n)


def _reference_estimate_seed(ops, start, max_iterations):
    """The window estimator as it was before linear tails: every iteration
    applied, every norm read, and lamination.TOLERANCE read at call time."""
    c = list(start)
    start_log = prev_log = cur_log = math.log(sum(abs(x) for x in c))
    windows = []
    converged = False
    iterations = 0
    for k in range(1, max_iterations + 1):
        _apply(c, ops)
        iterations = k
        prev_log, cur_log = cur_log, math.log(sum(abs(x) for x in c))
        if k % 10 == 0:
            windows.append((cur_log - start_log) / 10)
            start_log = cur_log
            if len(windows) >= 2:
                delta = abs(windows[-1] - windows[-2])
                if delta <= lamination.TOLERANCE * max(abs(windows[-1]), 1e-12):
                    converged = True
                    break
    estimate = windows[-1] if windows else cur_log - prev_log
    return max(estimate, 0.0), converged, iterations


def _reference_report(word, max_iterations):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lamination, "_estimate_seed", _reference_estimate_seed)
        return entropy_estimate(word, max_iterations)


def _orbit(ops, seed, n):
    c = list(seed.coords)
    orbit = [tuple(c)]
    for _ in range(n):
        _apply(c, ops)
        orbit.append(tuple(c))
    return orbit


def _proved_at(ops, seed, max_iterations):
    """The first k in (10, 20, 40), k <= max_iterations, at which
    _linear_tail proves the seed's plain orbit linear, or 0."""
    orbit = _orbit(ops, seed, 40)
    for k in (10, 20, 40):
        if k <= max_iterations and _linear_tail(ops, orbit[:k + 1]) is not None:
            return k
    return 0


def test_linear_tails_leave_reports_unchanged():
    # Where neither seed's orbit is proved linear, whole reports, iterations
    # included, are those of plain iteration; where both are, the report is
    # a converged 0.  The edge values of max_iterations sit on either side
    # of the window boundaries where tails are sought.
    # On 3 strands a word with a proved seed is not pseudo-Anosov, so its
    # Burau trace at t = -1 is at most 2 in absolute value.
    rng = random.Random(50)
    seen = {0: 0, 1: 0, 2: 0}
    for _ in range(2000):
        w = random_word(rng, rng.randint(3, 9), rng.randint(1, 16))
        max_iterations = rng.choice([0, 1, 5, 9, 10, 11, 19, 20, 21, 39, 40, 41, 57, 200, 400])
        ops = _compile(w.strands, reversed(w.letters))
        proved = [_proved_at(ops, seed, max_iterations) for seed in seed_multicurves(w.strands)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lamination, "TOLERANCE", rng.choice([1e-3, 1e-8, 1e-12]))
            report = entropy_estimate(w, max_iterations)
            if not any(proved):
                assert report == _reference_report(w, max_iterations), w.letters
            elif all(proved):
                assert report.log_lambda == 0.0, w.letters
                assert report.classification == "sub-exponential" and report.converged
                assert report.iterations == sum(proved)
            else:
                # the unproved seed iterates as plain iteration does and decides
                other = seed_multicurves(w.strands)[proved.index(0)]
                est, conv, iters = _reference_estimate_seed(ops, other.coords, max_iterations)
                assert (report.log_lambda, report.converged, report.iterations) == (
                    est, conv, sum(proved) + iters), w.letters
        if any(proved) and w.strands == 3:
            assert abs(_burau_trace_at_minus_one(w.letters)) <= 2, w.letters
        seen[sum(map(bool, proved))] += 1
    assert seen[0] >= 1000 and seen[2] >= 300 and seen[1], seen


def test_untouched_coordinates_leave_reports_unchanged():
    # entropy_estimate iterates only the coordinate pairs the word touches.
    # On few-letter words on many strands, scattered or clustered, at both
    # edges and empty, its reports are those of the whole vectors.
    rng = random.Random(51)
    words = [braid(200, [1, 2, -3]), braid(200, [199, -198]), braid(200, [1, -199]),
             braid(200, [100, -101, 100]), braid(40, [])]
    for _ in range(300):
        m = rng.randint(3, 60)
        if rng.random() < 0.5:
            words.append(random_word(rng, m, rng.randint(1, 6)))
        else:
            low = rng.randint(1, max(m - 3, 1))
            top = min(low + 2, m - 1)
            words.append(braid(m, [rng.choice([-1, 1]) * rng.randint(low, top)
                                   for _ in range(rng.randint(1, 8))]))
    for w in words:
        max_iterations = rng.choice([0, 1, 9, 10, 20, 41, 200])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lamination, "TOLERANCE", rng.choice([1e-3, 1e-8, 1e-12]))
            assert entropy_estimate(w, max_iterations) == _whole_vector_report(
                w, max_iterations), (w.strands, w.letters)


def _restrict_from_vectors(ops, seeds):
    """_restrict with each start cut from a whole seed vector: the touched
    pairs' entries and the 1-norm of the rest."""
    pairs = sorted({op[1] for op in ops} | {op[3] for op in ops if op[0] < 2})
    new = {p: 2 * i for i, p in enumerate(pairs)}
    ops = [
        (kind, new[p], new[p] + 1, new[q], new[q] + 1) if kind < 2
        else (kind, new[p], new[p] + 1, 0, 0)
        for kind, p, _, q, _ in ops
    ]
    starts = []
    for seed in seeds:
        kept = [x for p in pairs for x in seed.coords[p:p + 2]]
        starts.append(kept + [sum(map(abs, seed.coords)) - sum(map(abs, kept))])
    return ops, starts


def test_restricted_starts_are_cut_from_the_seed_multicurves():
    rng = random.Random(52)
    for m in range(3, 41):
        for _ in range(30):
            ops = _compile(m, random_word(rng, m, rng.randint(0, 10)).letters)
            assert _restrict(ops, m) == _restrict_from_vectors(
                ops, seed_multicurves(m)), (m, ops)


def _touched_words(rng):
    """Words on 3-200 strands: empty, sigma_1 or sigma_{m-1} alone, on 3
    strands, where sigma_1 and sigma_2 share pair 0, and with scattered,
    clustered and edge generators."""
    for m in (3, 4, 5, 6, 200):
        yield from (braid(m, []), braid(m, [1, 1, -1]), braid(m, [m - 1, -(m - 1), m - 1]))
    for _ in range(100):
        yield random_word(rng, 3, rng.randint(1, 12))
    for _ in range(3000):
        m = rng.randint(4, 200)
        shape = rng.randrange(3)
        if shape == 0:
            gens = rng.sample(range(1, m), min(m - 1, rng.randint(1, 6)))
        elif shape == 1:
            low = rng.randint(1, m - 1)
            gens = range(low, min(low + 3, m))
        else:
            gens = sorted({1, 2, m - 2, m - 1})
        yield braid(m, [rng.choice([-1, 1]) * rng.choice(gens) for _ in range(rng.randint(1, 12))])


def test_touched_compile_matches_the_whole_vector_oracle():
    # _compile_touched builds each distinct letter's op once, on the touched
    # pairs: the ops, pairs and starts of the whole-vector compile, cut down.
    rng = random.Random(54)
    for w in _touched_words(rng):
        ops = _compile(w.strands, reversed(w.letters))
        pairs = sorted({op[1] for op in ops} | {op[3] for op in ops if op[0] < 2})
        assert lamination._compile_touched(w.strands, w.letters) == (
            pairs, *_restrict(ops, w.strands)), (w.strands, w.letters)


def test_act_matches_the_whole_vector_kernel():
    # act gathers the touched pairs, applies the ops and scatters them back.
    rng = random.Random(55)
    for w in _touched_words(rng):
        c = random_coords(rng, w.strands, lo=-rng.choice([3, 10**20]), hi=rng.choice([3, 10**20]))
        expected = list(c.coords)
        _apply(expected, _compile(w.strands, reversed(w.letters)))
        assert act(w, c).coords == tuple(expected), (w.strands, w.letters)


def _unfiltered_linear_tail(ops, history):
    """_linear_tail without the coordinate-sum prefilter: every period's
    second differences are compared."""
    k = len(history) - 1
    last = history[k]
    for p in range(1, k // 2 + 1):
        mid = history[k - p]
        if all(x - y == y - z for x, y, z in zip(last, mid, history[k - 2 * p])):
            if _prove_period(ops, last, [x - y for x, y in zip(last, mid)], p):
                return p
    return None


def _with_cancellations(rng, w):
    """w with pairs l ... -l inserted around runs of letters far from l."""
    letters = list(w.letters)
    gens = [g for g in range(1 - w.strands, w.strands) if g]
    for _ in range(rng.randint(1, 3)):
        l = rng.choice(gens)
        far = [g for g in gens if abs(abs(g) - abs(l)) >= 2]
        middle = [rng.choice(far) for _ in range(rng.randint(0, 3))] if far else []
        at = rng.randint(0, len(letters))
        letters[at:at] = [l, *middle, -l]
    return braid(w.strands, letters)


def test_reduced_words_report_as_the_whole_words():
    # entropy_estimate iterates the word less its commuting cancellations.
    # That is the same map, so each seed's orbit is the same, and every
    # comparison _prove_period makes on the reduced word the unreduced word
    # makes too.  So per seed the result is that of the unreduced word on
    # the whole vector, or a zero proved at some k where the unreduced word
    # proves no tail.  On the histories of both, the prefilter of
    # _linear_tail drops no period the full scan proves.
    rng = random.Random(53)
    filtered = lamination._linear_tail
    periods = []

    def both_scans(ops, history):
        p = _unfiltered_linear_tail(ops, history)
        assert filtered(ops, history) == p, (ops, history)
        periods.append(p)
        return p

    shorter = 0
    for _ in range(2000):
        w = _with_cancellations(rng, random_word(rng, rng.randint(3, 9), rng.randint(0, 12)))
        max_iterations = rng.choice([0, 5, 10, 20, 21, 40, 57, 200, 200, 200])
        reduced = braid(w.strands, _cancel_commuting(w.letters))
        shorter += len(reduced) < len(w)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lamination, "_linear_tail", both_scans)
            want = _whole_vector_report(reduced, max_iterations)
            assert entropy_estimate(w, max_iterations) == EntropyReport(
                len(w), want.strands, want.iterations, want.log_lambda, want.converged,
                want.classification)
            ops = _compile(w.strands, reversed(w.letters))
            reduced_ops = _compile(w.strands, reversed(reduced.letters))
            for seed in seed_multicurves(w.strands):
                got = lamination._estimate_seed(reduced_ops, seed.coords, max_iterations)
                want = lamination._estimate_seed(ops, seed.coords, max_iterations)
                if got != want:
                    k = got[2]
                    assert got == (0.0, True, k) and k in (10, 20, 40) and want[2] >= k, w.letters
                    assert filtered(ops, _orbit(ops, seed, k)) is None, w.letters
    proved = sum(p is not None for p in periods)
    assert shorter >= 1800 and proved >= 2000 and len(periods) - proved >= 5000, (
        shorter, proved, len(periods))


def _pair(ray):
    return ray.c, ray.d


def test_ray_arithmetic():
    a, b = _Ray(3, 2), _Ray(-1, 5)
    assert [_pair(r) for r in (a + b, a - b, a - 4)] == [(2, 7), (4, -3), (-1, 2)]


def test_ray_signs_across_walls_raise():
    for ray in (_Ray(3, -1), _Ray(-3, 1)):
        with pytest.raises(_WallCrossing):
            ray < 0
        with pytest.raises(_WallCrossing):
            min(ray, 0)
    with pytest.raises(_WallCrossing):
        _Ray(5, 0) > _Ray(2, 1)


def test_ray_ties_at_zero_are_decided_by_the_slope():
    assert _Ray(0, 1) > 0 and not _Ray(0, 1) <= 0
    assert _Ray(0, -1) < 0
    assert _Ray(4, 1) > _Ray(4, 0) and _Ray(2, 3) > _Ray(2, -3)
    assert min(_Ray(0, 1), 0) == 0
    assert _pair(max(_Ray(0, 1), 0)) == (0, 1)
    # a difference that is 0 on the whole ray is neither sign
    zero = _Ray(7, 3) - _Ray(7, 3)
    assert not zero < 0 and not zero > 0 and zero <= 0


def test_twist_and_periodic_tails_are_proved_at_k_10():
    # sigma_1^2 on 4 strands is a Dehn twist: it fixes the odd multicurve
    # and shears the even one linearly.  sigma_1 sigma_2 on 3 strands has
    # order 3 on the disk's curves.
    for strands, letters, periods in ((4, [1, 1], [1, 1]), (3, [1, 2], [3, 3])):
        w = braid(strands, letters)
        ops = _compile(strands, reversed(w.letters))
        for seed, period in zip(seed_multicurves(strands), periods):
            orbit = _orbit(ops, seed, 40)
            assert _linear_tail(ops, orbit[:11]) == period
            step = [x - y for x, y in zip(orbit[10], orbit[10 - period])]
            for j in range(1, 30 // period + 1):
                assert orbit[10 + j * period] == tuple(x + j * s for x, s in zip(orbit[10], step))
        report = entropy_estimate(w)
        assert (report.log_lambda, report.classification, report.converged) == (
            0.0, "sub-exponential", True)
        assert report.iterations == 20
    # the twist shears: the even multicurve's orbit grows by a fixed step
    orbit = _orbit(_compile(4, [1, 1]), seed_multicurves(4)[1], 10)
    assert orbit[10] != orbit[9]


def test_rejected_candidate_matches_plain_iteration():
    # On the odd multicurve the last two 3-step differences agree at k = 10,
    # yet the ray crosses a wall or does not come back, so the seed iterates
    # on as plain iteration does; at k = 20 the tail is proved.
    w = braid(4, [-2, -2, 2, -2, 1, -3, -1, 2, -3, 2])
    ops = _compile(4, reversed(w.letters))
    seed = seed_multicurves(4)[0]
    orbit = _orbit(ops, seed, 80)
    last, mid, first = orbit[10], orbit[7], orbit[4]
    step = [x - y for x, y in zip(last, mid)]
    assert step == [x - y for x, y in zip(mid, first)]
    assert not _prove_period(ops, last, step, 3)
    assert _linear_tail(ops, orbit[:11]) is None
    p = _linear_tail(ops, orbit[:21])
    assert p is not None
    for k in range(20 + p, 81):
        assert orbit[k] == tuple(x + y - z for x, y, z in zip(orbit[k - p], orbit[20], orbit[20 - p]))
    for tolerance in (1e-3, 1e-8, 1e-12):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lamination, "TOLERANCE", tolerance)
            for max_iterations in (10, 19):
                expected = _reference_estimate_seed(ops, seed.coords, max_iterations)
                assert lamination._estimate_seed(ops, seed.coords, max_iterations) == expected
            for max_iterations in (20, 21, 30, 57, 200):
                assert lamination._estimate_seed(ops, seed.coords, max_iterations) == (0.0, True, 20)


def test_proof_needs_the_slope_to_come_back():
    # sigma_1 sigma_2^-1 is pseudo-Anosov: f(c_k) = c_k + d holds for
    # d = c_{k+1} - c_k, and the orbit stays in one cone, but the slope
    # comes back stretched, not as d.
    ops = _compile(3, reversed([1, -2]))
    orbit = _orbit(ops, seed_curves(3)[0], 8)
    for a, b in zip(orbit, orbit[1:]):
        assert not _prove_period(ops, a, [y - x for x, y in zip(a, b)], 1)


@st.composite
def short_words_on_3_to_9_strands(draw):
    strands = draw(st.integers(3, 9))
    letter = st.integers(-(strands - 1), strands - 1).filter(bool)
    return braid(strands, draw(st.lists(letter, min_size=1, max_size=16)))


@settings(max_examples=300, deadline=None)
@given(short_words_on_3_to_9_strands())
def test_proved_tails_predict_plain_iteration(w):
    # A proved period p means c_{K+jp} = c_K + j*d, d = c_K - c_{K-p}, for
    # every j; each iterate in between moves along a ray of its own, so the
    # second p-step differences vanish past K + 2p.
    ops = _compile(w.strands, reversed(w.letters))
    for seed in seed_multicurves(w.strands):
        for k in (10, 20, 40):
            p = _linear_tail(ops, _orbit(ops, seed, k))
            if p is None:
                continue
            orbit = _orbit(ops, seed, k + 4 * p)
            step = [x - y for x, y in zip(orbit[k], orbit[k - p])]
            for j in range(1, 5):
                assert orbit[k + j * p] == tuple(x + j * s for x, s in zip(orbit[k], step))
            for n in range(k + 2 * p, k + 4 * p + 1):
                assert all(x - 2 * y + z == 0
                           for x, y, z in zip(orbit[n], orbit[n - p], orbit[n - 2 * p]))


@st.composite
def nonzero_coords(draw):
    m = draw(st.integers(3, 12))
    coords = draw(st.lists(st.integers(-10**6, 10**6), min_size=2 * m - 4, max_size=2 * m - 4)
                  .filter(any))
    return LamCoords(m, coords)


@settings(max_examples=300, deadline=None)
@given(nonzero_coords())
def test_full_twist_fixes_every_lamination(lam):
    assert act(full_twist(lam.punctures), lam) == lam


@pytest.mark.parametrize("which", ["unknot", "hopf"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sweep_word_reports_as_the_family_word(which, n):
    word, short = entropy_family_word(which, n), sweep_word(which, n)
    for max_iterations in (0, 5, 9, 10, 25, 4000):
        report = entropy_estimate(word, max_iterations=max_iterations)
        assert entropy_estimate(short, max_iterations=max_iterations) == EntropyReport(
            len(short), report.strands, report.iterations, report.log_lambda, report.converged,
            report.classification)


def test_a_periodic_orbit_needs_no_ray_proof(monkeypatch):
    # (s1 s2)^3 is the central full twist, so s1 s2 moves each seed
    # multicurve of 3 strands with period 3 (or 1): c_K = c_{K-p}, a zero
    # step, and the orbit is periodic without a ray run.
    ops = _compile(3, reversed((1, 2)))
    periods = [_linear_tail(ops, _orbit(ops, seed, 10)) for seed in seed_multicurves(3)]
    assert set(periods) <= {1, 3} and 3 in periods

    def no_rays(*args):
        raise AssertionError("a ray proof ran")

    monkeypatch.setattr(lamination, "_prove_period", no_rays)
    assert [_linear_tail(ops, _orbit(ops, seed, 10)) for seed in seed_multicurves(3)] == periods
