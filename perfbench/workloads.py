"""Seeded query lists for the four workloads.

Each workload function takes the benchmark seed and returns the fixed list of
queries one pass sends: the argv given to `goeritz.cli.run` and the
expectation it is checked against.  Answers are known by construction
(see oracles.py), never by running goeritz.  The same seed gives the same
list, byte for byte; `random.Random` seeded with a string is stable across
processes and Python builds.
"""

from __future__ import annotations

import dataclasses
import random

from oracles import (
    Expect,
    burau3_log_radius,
    fmt,
    full_twist,
    half_twist,
    inverse,
    make_non_member,
    sphere_relator,
    tangle_conjugator,
    word_x,
    word_y,
    word_z,
)


@dataclasses.dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    expect: Expect


def random_word(rng: random.Random, strands: int, length: int) -> tuple[int, ...]:
    gens = [g for g in range(-(strands - 1), strands) if g]
    return tuple(rng.choice(gens) for _ in range(length))


def _insert_relator(rng: random.Random, word: tuple[int, ...], strands: int) -> tuple[int, ...]:
    """The word with a trivial piece inserted: a free pair, a far
    commutator or a braid relation."""
    kind = rng.randrange(3) if strands >= 4 else rng.choice((0, 2))
    if kind == 0:
        i = rng.randint(1, strands - 1)
        piece = (i, -i)
    elif kind == 1:
        i = rng.randint(1, strands - 3)
        j = rng.randint(i + 2, strands - 1)
        piece = (i, j, -i, -j)
    else:
        i = rng.randint(1, strands - 2)
        piece = (i, i + 1, i, -(i + 1), -i, -(i + 1))
    pos = rng.randint(0, len(word))
    return word[:pos] + piece + word[pos:]


# ------------------------------------------------------------- query kinds


def sweep_query(family: str, n: int) -> Query:
    argv = ("sweep", "--family", family, "--from", str(n), "--to", str(n))
    return Query(argv, Expect("sweep", (family, n)))


def goeritz_product_query(rng: random.Random, bridges: int, factors: int) -> Query:
    """A product of X, Y or Z and the full twist against the tangle-B or
    tangle-C bottom: certified by construction (criteria 3 and 8d)."""
    strands = 2 * bridges
    tangle = rng.choice("BC")
    third = word_y(strands) if tangle == "B" else word_z(strands)
    gens = (word_x(), third, full_twist(strands))
    word: tuple[int, ...] = ()
    for _ in range(factors):
        g = rng.choice(gens)
        word += inverse(g) if rng.random() < 0.5 else g
    argv = (
        "goeritz", "member", "--bridge", str(bridges), "--top", "",
        "--bottom", fmt(tangle_conjugator(tangle, bridges)), "--word", fmt(word), "--json",
    )
    return Query(argv, Expect("goeritz", (True,)))


def trefoil_query(rng: random.Random) -> Query:
    """Products of the trefoil's Goeritz generators s1^-1 s3 and the half
    twist against the bottom s2^3 (criterion 9)."""
    gens = ((-1, 3), half_twist(4))
    word: tuple[int, ...] = ()
    for _ in range(rng.randint(1, 3)):
        g = rng.choice(gens)
        word += inverse(g) if rng.random() < 0.5 else g
    argv = ("goeritz", "member", "--bridge", "2", "--top", "", "--bottom", "2 2 2",
            "--word", fmt(word), "--json")
    return Query(argv, Expect("goeritz", (True,)))


def wicket_member_query(rng: random.Random, factors: int) -> Query:
    """A product of wicket elements of tangle A, B or C on 6 strands."""
    tangle = rng.choice("ABC")
    gens = [word_x(), full_twist(6)]
    gens.append(word_z(6) if tangle == "C" else word_y(6))
    word: tuple[int, ...] = ()
    for _ in range(factors):
        g = rng.choice(gens)
        word += inverse(g) if rng.random() < 0.5 else g
    argv = ("wicket", "member", "-n", "3", "--word", fmt(word), "--tangle", tangle, "--json")
    return Query(argv, Expect("member", (True,)))


def wicket_non_member_query(rng: random.Random, arcs: int, length: int) -> Query:
    tangle = rng.choice("ABC")
    word = make_non_member(random_word(rng, 2 * arcs, length), tangle, arcs)
    argv = ("wicket", "member", "-n", str(arcs), "--word", fmt(word), "--tangle", tangle, "--json")
    return Query(argv, Expect("non_member", (arcs,)))


def mcg_query(rng: random.Random, strands: int, length: int) -> Query:
    """a against a times the sphere relator (equal), or against a s1^2 (a
    Dehn twist about an essential curve once strands >= 4: distinct)."""
    a = random_word(rng, strands, length)
    equal = rng.random() < 0.5
    b = a + (sphere_relator(strands) if equal else (1, 1))
    if rng.random() < 0.5:
        a, b = b, a
    argv = ("mcg", "-n", str(strands), fmt(a), fmt(b), "--json")
    return Query(argv, Expect("equal", (equal,)))


def normalize_query(rng: random.Random, strands: int, length: int) -> Query:
    """The commutator [a, full twist], which is trivial: the full twist is
    central."""
    a = random_word(rng, strands, length)
    d2 = full_twist(strands)
    word = a + d2 + inverse(a) + inverse(d2)
    argv = ("braid", "normalize", "-n", str(strands), fmt(word), "--json")
    return Query(argv, Expect("normalize_empty", (strands,)))


def braid_eq_query(rng: random.Random, strands: int, length: int) -> Query:
    """a against a with an inserted relator (equal), or against a s1^2
    (not equal: braid groups are torsion free)."""
    a = random_word(rng, strands, length)
    equal = rng.random() < 0.5
    b = _insert_relator(rng, a, strands) if equal else a + (1, 1)
    if rng.random() < 0.5:
        a, b = b, a
    argv = ("braid", "eq", "-n", str(strands), fmt(a), fmt(b), "--json")
    return Query(argv, Expect("equal", (equal,)))


def entropy_query(rng: random.Random, strands: int, length: int) -> Query:
    word = random_word(rng, strands, length)
    exact = burau3_log_radius(word) if strands == 3 else None
    argv = ("entropy", "-n", str(strands), "--word", fmt(word), "--json")
    return Query(argv, Expect("entropy", (strands, length, exact)))


def plat_query(rng: random.Random) -> Query:
    """Tangle-B plats are unknots; tangle-C plats are Hopf links."""
    bridges = rng.randint(2, 8)
    tangle = rng.choice("BC")
    bottom = tangle_conjugator(tangle, bridges)
    argv = ("plat", "info", "--bridge", str(bridges), "--bottom", fmt(bottom), "--json")
    params = (1, None, len(bottom)) if tangle == "B" else (2, 1, len(bottom))
    return Query(argv, Expect("plat", params))


def constants_query(rng: random.Random) -> Query:
    h = 32.0 if rng.random() < 0.5 else round(rng.uniform(0.5, 64.0), 3)
    return Query(("constants", "--h", repr(h), "--json"), Expect("constants", (h,)))


# ---------------------------------------------------------------- workloads


def family_sweep(seed: int) -> list[Query]:
    """The criterion-6 code path on n = 1..3; the rows are fixed."""
    del seed
    return [sweep_query(f, n) for f in ("unknot", "hopf") for n in range(1, 4)]


def ladder(lo: int, hi: int, count: int) -> list[int]:
    """count lengths spread evenly from lo to hi, so latencies have no gaps."""
    return [lo + (hi - lo) * i // (count - 1) for i in range(count)]


def artin_certify(seed: int) -> list[Query]:
    """Artin images: Goeritz certification, wicket membership, mapping
    classes.  Lengths follow a fixed ladder; only the letters are random.

    Image length grows exponentially with word length and its spread
    across random words is heavy-tailed (a 4-strand mapping-class query
    with |a| <= 16 reached 400 000 image letters on one seed), so the
    ladder stops where the largest image of a pass stays a few MB:
    6-strand words up to 36 letters, 8-strand words up to 46, and mapping
    classes up to 12, 16 and 20 letters on 4, 5 and 6 strands.  With
    6-strand words up to 45 and 8-strand up to 56, a single query added
    5-10 MB to the peak resident set on about one seed in six, and the
    peak spread 0.17 over ten seeds.
    """
    rng = random.Random(f"artin_certify:{seed}")
    queries = []
    for bridges in (3, 4):
        for factors in range(1, 9):
            queries += [goeritz_product_query(rng, bridges, factors) for _ in range(8)]
    queries += [wicket_non_member_query(rng, 3, n) for n in ladder(20, 36, 200)]
    queries += [wicket_non_member_query(rng, 4, n) for n in ladder(40, 46, 160)]
    for strands, top in ((4, 12), (5, 16), (6, 20)):
        queries += [mcg_query(rng, strands, n) for n in ladder(4, top, 100)]
    rng.shuffle(queries)
    return queries


def word_problem(seed: int) -> list[Query]:
    """Handle reduction: normalizing trivial commutators, and equality.

    Cost grows steeply with both strand count and length, and varies from
    word to word at one length.  The ladders therefore run along the
    diagonal, so that every query costs 5-70 ms and the many of them
    keep a pass steady from seed to seed: |a| from 50 to 200 on 4
    strands down to 25-45 on 10 for the commutators, and 50 up to 400
    letters on 3 strands down to 50-150 on 6 and 8 for equality.
    """
    rng = random.Random(f"word_problem:{seed}")
    queries = []
    for strands, lo, hi in ((4, 50, 200), (5, 50, 150), (6, 25, 100), (7, 25, 80),
                            (8, 25, 60), (9, 25, 50), (10, 25, 45)):
        queries += [normalize_query(rng, strands, n) for n in ladder(lo, hi, 40)]
    for strands, hi, count in ((3, 400, 60), (4, 250, 30), (5, 200, 20), (6, 150, 15), (8, 150, 15)):
        queries += [braid_eq_query(rng, strands, n) for n in ladder(50, hi, count)]
    rng.shuffle(queries)
    return queries


def cli_mix(seed: int) -> list[Query]:
    """Short queries across every verb, where per-call cost dominates."""
    rng = random.Random(f"cli_mix:{seed}")
    makers = [
        (30, lambda: entropy_query(rng, rng.randint(3, 7), rng.randint(2, 12))),
        (10, lambda: braid_eq_query(rng, rng.randint(3, 5), rng.randint(3, 12))),
        (5, lambda: normalize_query(rng, rng.randint(3, 4), rng.randint(1, 6))),
        (8, lambda: wicket_non_member_query(rng, rng.randint(2, 3), rng.randint(4, 12))),
        (7, lambda: wicket_member_query(rng, rng.randint(1, 2))),
        (5, lambda: goeritz_product_query(rng, 3, rng.randint(1, 2))),
        (5, lambda: trefoil_query(rng)),
        (10, lambda: mcg_query(rng, rng.randint(4, 5), rng.randint(2, 8))),
        (10, lambda: plat_query(rng)),
        (10, lambda: constants_query(rng)),
    ]
    weights = [w for w, _ in makers]
    return [rng.choices(makers, weights)[0][1]() for _ in range(3000)]


WORKLOADS = {
    "family_sweep": family_sweep,
    "artin_certify": artin_certify,
    "word_problem": word_problem,
    "cli_mix": cli_mix,
}
