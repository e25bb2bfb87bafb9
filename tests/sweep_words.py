"""The word lamination.family_sweep iterates, read at its call to entropy_estimate."""

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
