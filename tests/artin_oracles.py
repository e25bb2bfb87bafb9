"""Test-only free-group endomorphism helpers and the Artin word-problem oracles."""

from goeritz.freegroup import FreeEndo, FreeWord, artin_action, is_inner
from goeritz.wordproblem import sphere_endo
from goeritz.words import BraidWord, permutation_of


def identity_endo(rank: int) -> FreeEndo:
    return FreeEndo(rank, tuple(FreeWord(rank, (i,)) for i in range(1, rank + 1)))


def compose_endo(f: FreeEndo, g: FreeEndo) -> FreeEndo:
    """f after g: compose_endo(f, g)(w) = f(g(w))."""
    if f.rank != g.rank:
        raise ValueError("rank mismatch")
    return FreeEndo(f.rank, tuple(f(image) for image in g.images))


def braid_equal_via_artin(a: BraidWord, b: BraidWord) -> bool:
    """Independent oracle: the Artin representation is faithful."""
    if a.strands != b.strands:
        raise ValueError(f"strand count mismatch: {a.strands} != {b.strands}")
    return artin_action(a) == artin_action(b)


def mcg_trivial_unreduced(word: BraidWord) -> bool:
    """Mapping-class triviality on the word as given, with no free or cyclic
    reduction first: the permutation is the identity and the induced
    automorphism of the sphere group is inner."""
    return permutation_of(word).is_identity() and is_inner(sphere_endo(word)) is not None
