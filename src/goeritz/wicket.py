"""Wicket-group membership and Goeritz-element certification.

A trivial n-tangle is presented by a conjugator braid acting on the
standard tangle; the wicket group of the standard tangle consists of the
spherical braids whose Artin automorphism sends each wicket meridian
x_{2i-1} x_{2i} to a word that dies in the quotient identifying x_{2j-1}
with g_j and x_{2j} with g_j^-1.  The quotient kills the sphere relator,
so the predicate is well defined on spherical braids, and conjugation
moves it to arbitrary trivial tangles.  The quotient is applied first: the
Artin loop starts at the quotient images of the generators, g_j and g_j^-1
written +-j inside F_2n, so only quotient images are built, only they count
against the image cap, and a joined meridian image is already its witness.

The first broken arc bounds the witness before any image is built.  The
Artin image of x_k is conjugate to x_{p(k)}, p the endpoint permutation of
the word (words.permutation_of), so in the abelianization of the
quotient, g_j -> e_j, the meridian of arc i maps to +-e_a +- e_b, where a
and b are the arcs of p(2i-1) and p(2i).  When a != b (arc i is broken)
that is nonzero, so some arc up to the first broken arc i* has a
nontrivial image.  The last arc is never the first broken one: if arcs
1..n-1 each end on a single arc, so does arc n.  One loop reads the arcs
up to the first broken arc, or else all of them, applying only the letters
that feed their images: scanning the word backwards, a letter is kept when
it touches a position already needed, and then both its positions are
needed.  The kept letters give the same images at those positions as the
full word, so the verdict and witness are the same; a loop stopped at a
broken arc never reports a member.  A pruned loop counts its own images
against the cap, also those past the needed positions that later letters
of the full loop would have replaced, so where it passes the cap the full
loop answers, or raises its own message; near the cap a pruned loop can
also answer where the full loop would raise.

A bridge decomposition with top conjugator d and bottom conjugator b has
Goeritz group carried by the intersection of the wicket groups of the
tangles with conjugators d^-1 and b; the full twist is always certified.
"""

from __future__ import annotations

from typing import Optional

from .freegroup import FreeEndo, FreeWord, ResourceExhausted, artin_action, check_image_total
from .plat import Pairing, PlatInvariants, conjugated_pairing, plat_invariants_of, standard_pairing
from .words import BraidWord, _Record, _join, _swap_along, compose, inverse, permutation_of


class TrivialTangle(_Record):
    """A trivial n-tangle presented as a conjugator acting on the standard one."""

    __slots__ = ("arcs", "conjugator")

    def __init__(self, arcs: int, conjugator: BraidWord) -> None:
        if conjugator.strands != 2 * arcs:
            raise ValueError(f"conjugator must have {2 * arcs} strands, got {conjugator.strands}")
        self._set(arcs, conjugator)

    def pairing(self) -> Pairing:
        """Endpoint pairing: the standard pairing pushed through the conjugator."""
        return conjugated_pairing(
            standard_pairing(self.arcs), permutation_of(self.conjugator)
        )


def standard_tangle(n: int) -> TrivialTangle:
    return TrivialTangle(n, BraidWord(2 * n))


class BridgeDecomposition(_Record):
    """A plat pair: top conjugator d, bottom conjugator b, both in 2n strands."""

    __slots__ = ("bridges", "top", "bottom")

    def __init__(self, bridges: int, top: BraidWord, bottom: BraidWord) -> None:
        if top.strands != 2 * bridges or bottom.strands != 2 * bridges:
            raise ValueError("conjugators must have 2n strands")
        self._set(bridges, top, bottom)

    def plat_braid(self) -> BraidWord:
        """The braid between the standard caps and cups."""
        return compose(self.top, self.bottom)


class MembershipReport(_Record):
    """Membership verdict, index and image of the first nontrivial wicket, and wickets read."""

    __slots__ = ("verdict", "witness_index", "witness", "checked")

    def __init__(self, verdict: bool, witness_index: Optional[int] = None,
                 witness: Optional[FreeWord] = None, checked: int = 0) -> None:
        if not verdict and (witness is None or witness.is_identity()):
            raise ValueError("negative verdicts carry a non-trivial witness")
        self._set(verdict, witness_index, witness, checked)

    def __bool__(self) -> bool:
        return self.verdict


def _feeding(word: BraidWord, needed: int) -> BraidWord:
    """The word of the letters that feed the Artin images at positions 1..needed.

    One backward scan: a letter of index i touches positions i and i + 1,
    so it is kept when i <= needed, and then positions up to i + 1 are
    needed.  Once all positions are, every earlier letter is kept; with all
    of them needed from the start, the word itself is returned.
    """
    rank, letters = word.strands, word.letters
    if needed == rank:
        return word
    kept = []
    for pos in range(len(letters) - 1, -1, -1):
        letter = letters[pos]
        i = abs(letter)
        if i <= needed:
            if i == needed:
                needed += 1
                if needed == rank:
                    return BraidWord._unchecked(rank, letters[: pos + 1] + tuple(reversed(kept)))
            kept.append(letter)
    return BraidWord._unchecked(rank, tuple(reversed(kept)))


def member_sw_standard(word: BraidWord, arcs: int) -> MembershipReport:
    """Membership in the wicket group of the standard tangle.

    The loop starts at x_{2j-1} -> g_j and x_{2j} -> g_j^-1, written +-j
    inside F_2n, so each joined meridian image is its witness in F_n as it
    stands.  A member has every arc checked even though one is redundant
    modulo the sphere relation; the redundancy doubles as a consistency
    check.  Only the arcs up to the first broken one, or else all arcs, are
    read (see the module docstring), and only the letters feeding their
    images are applied.
    """
    rank = 2 * arcs
    if word.strands != rank:
        raise ValueError(f"word must have {rank} strands, got {word.strands}")
    check_image_total(rank, word)  # one letter per starting image
    quotient = FreeEndo(rank, tuple(
        FreeWord._reduced(rank, (k,)) for j in range(1, arcs + 1) for k in (j, -j)
    ))
    # the arc of the endpoint at each position, carried along the word
    ends = _swap_along([k // 2 for k in range(rank)], word.letters)
    last = next((i for i in range(1, arcs) if ends[2 * i - 2] != ends[2 * i - 1]), arcs)
    pruned = _feeding(word, 2 * last)
    try:
        images = artin_action(pruned, quotient).images
    except ResourceExhausted:
        if len(pruned) == len(word):
            raise
        images = artin_action(word, quotient).images
    for i in range(1, last + 1):
        image = _join(images[2 * i - 2].letters, images[2 * i - 1].letters)
        if image:
            witness = FreeWord._reduced(arcs, image)
            return MembershipReport(verdict=False, witness_index=i, witness=witness, checked=i)
    if last < arcs:
        raise RuntimeError(f"arc {last} is broken, but no wicket up to it maps nontrivially")
    return MembershipReport(verdict=True, checked=arcs)


def member_sw(word: BraidWord, tangle: TrivialTangle) -> MembershipReport:
    """Membership in the wicket group of an arbitrary trivial tangle."""
    if word.strands != 2 * tangle.arcs:
        raise ValueError("strand count mismatch")
    conjugated = compose(inverse(tangle.conjugator), compose(word, tangle.conjugator))
    return member_sw_standard(conjugated, tangle.arcs)


def member_sw_pair(
    word: BraidWord, tangle: TrivialTangle, other: TrivialTangle
) -> MembershipReport:
    """Membership in the intersection of two wicket groups."""
    if tangle.arcs != other.arcs:
        raise ValueError("tangle sizes differ")
    first = member_sw(word, tangle)
    if not first:
        return first
    second = member_sw(word, other)
    if not second:
        return second
    return MembershipReport(verdict=True, checked=first.checked + second.checked)


def is_goeritz_element(dec: BridgeDecomposition, word: BraidWord) -> MembershipReport:
    """Certify the mapping class of the word as a Goeritz element.

    The certified object is the class modulo the full twist, which itself
    is always certified and acts trivially.
    """
    upper = TrivialTangle(dec.bridges, inverse(dec.top))
    lower = TrivialTangle(dec.bridges, dec.bottom)
    return member_sw_pair(word, upper, lower)


def plat_invariants(dec: BridgeDecomposition) -> PlatInvariants:
    """Component count and |linking| of the plat closure of the decomposition."""
    std = standard_pairing(dec.bridges)
    return plat_invariants_of(std, dec.plat_braid(), std)


# Validated conjugator presentations of the stabilized tangle families.
# The unknot-family tangle pairs into the shifted pattern; the Hopf-family
# tangle carries one clasp.  Both words were pinned by the validation
# suite in tests/test_wicket.py: plat invariants for n = 2..6 and the
# membership lemmas at n = 3, 4, 5.
def tangle_B(n: int) -> TrivialTangle:
    """The stabilized unknot tangle on n arcs: plat against the mirror
    standard tangle is the trivial knot."""
    if n < 2:
        raise ValueError("the unknot family starts at 2 arcs")
    word = BraidWord(2 * n, tuple(range(1, 2 * n)))
    return TrivialTangle(n, word)


def tangle_C(n: int) -> TrivialTangle:
    """The stabilized Hopf tangle on n arcs: plat against the mirror
    standard tangle is the Hopf link."""
    if n < 2:
        raise ValueError("the Hopf family starts at 2 arcs")
    word = BraidWord(
        2 * n, tuple(range(1, 2 * n - 3)) + (-(2 * n - 2), -(2 * n - 2))
    )
    return TrivialTangle(n, word)
