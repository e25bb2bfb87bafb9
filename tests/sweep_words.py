"""Words of the entropy families as tests read them: the word
lamination.family_sweep iterates, read at its call to entropy_estimate, and
a braid with one strand forgotten."""

import pytest

from goeritz import lamination
from goeritz.words import BraidWord


def sweep_word(which: str, n: int) -> BraidWord:
    seen = []
    real = lamination.entropy_estimate

    def spy(word, **kwargs):
        seen.append(word)
        return real(word, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lamination, "entropy_estimate", spy)
        lamination.family_sweep(which, [n], max_iterations=0)
    (word,) = seen
    return word


def forget_strand(word: BraidWord, strand: int) -> tuple[BraidWord, int]:
    """Delete the strand that starts at position `strand`, reading the word
    left to right: drop every letter that crosses it and renumber the
    letters above it.  Returns the word on one strand fewer and the
    position at which the deleted strand ends."""
    pos = strand
    letters = []
    for letter in word.letters:
        i = abs(letter)  # crosses positions i and i + 1
        if pos in (i, i + 1):
            pos = 2 * i + 1 - pos
        elif i < pos:
            letters.append(letter)
        else:
            letters.append(letter - 1 if letter > 0 else letter + 1)
    return BraidWord(word.strands - 1, tuple(letters)), pos
