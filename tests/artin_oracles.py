"""Test-only free-group endomorphism helpers and the Artin word-problem oracle."""

from goeritz.freegroup import FreeEndo, FreeWord, artin_action
from goeritz.words import BraidWord


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
