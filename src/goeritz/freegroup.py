"""Reduced free-group words, endomorphisms, and the Artin action.

Free words use the same signed-integer letter encoding as braid words:
``k > 0`` is the generator with index k, ``k < 0`` its inverse.  Words are
always stored freely reduced, so equality is plain sequence comparison.

The Artin action builds its images on plain freely reduced letter tuples:
each braid letter joins three freely reduced tuples in one call, cancelling
only at the seams, and each final image is wrapped as a FreeWord without a
second reduction.  Each letter precomposes, so the loop started at the images of a
homomorphism q builds q after the action directly: the wicket and sphere
quotients are applied first, on the generators, and never to the full
images.  Images can grow exponentially in the word length, so their total
length (that of the quotient images, where a quotient is given) is capped at
MAX_IMAGE_LETTERS; past it the action raises ResourceExhausted (exit 3 on
the command line) instead of exhausting memory.
"""

from __future__ import annotations

from operator import neg
from typing import Optional

from .words import BraidWord, _Record, _cyclic_core, _free_cancel, _join

MAX_IMAGE_LETTERS = 10_000_000


class ResourceExhausted(RuntimeError):
    """Raised when a computation exceeds its cap; never a wrong answer."""


class FreeWord(_Record):
    """A freely reduced word in the free group of the given rank."""

    __slots__ = ("rank", "letters")

    def __init__(self, rank: int, letters: tuple[int, ...] = ()) -> None:
        reduced = _free_cancel(letters)
        for letter in reduced:
            if letter == 0 or abs(letter) > rank:
                raise ValueError(f"letter {letter} out of range for rank {rank}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "letters", reduced)

    @classmethod
    def _reduced(cls, rank: int, letters: tuple[int, ...]) -> "FreeWord":
        """Wrap letters known to be freely reduced and in range, unchecked."""
        word = object.__new__(cls)
        object.__setattr__(word, "rank", rank)
        object.__setattr__(word, "letters", letters)
        return word

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return FreeWord._reduced(self.rank, _join(self.letters, other.letters))

    def inverse(self) -> "FreeWord":
        return FreeWord._reduced(self.rank, tuple(map(neg, reversed(self.letters))))

    def is_identity(self) -> bool:
        return not self.letters

    def cyclic_reduce(self) -> tuple["FreeWord", "FreeWord"]:
        """Split self = u * core * u^-1 with core cyclically reduced."""
        core = _cyclic_core(self.letters)
        left = (len(self.letters) - len(core)) // 2
        return FreeWord._reduced(self.rank, self.letters[:left]), FreeWord._reduced(self.rank, core)


class FreeEndo(_Record):
    """An endomorphism of the free group, given by the generator images."""

    __slots__ = ("rank", "images")

    def __init__(self, rank: int, images: tuple[FreeWord, ...]) -> None:
        if len(images) != rank:
            raise ValueError(f"need {rank} images, got {len(images)}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "images", tuple(images))

    def __call__(self, word: FreeWord) -> FreeWord:
        letters: list[int] = []
        for letter in word.letters:
            image = self.images[abs(letter) - 1]
            if letter > 0:
                letters.extend(image.letters)
            else:
                letters.extend(-l for l in reversed(image.letters))
        return FreeWord(self.rank, tuple(letters))


def check_image_total(total: int, word: BraidWord) -> None:
    """Raise ResourceExhausted if Artin images of this total length on the
    word pass MAX_IMAGE_LETTERS, read at call time.

    Callers that build starting images check their closed-form total first,
    so an over-cap start builds nothing.
    """
    if total > MAX_IMAGE_LETTERS:
        raise ResourceExhausted(
            f"Artin images exceeded {MAX_IMAGE_LETTERS} letters on a word of length {len(word)}"
        )


def artin_action(word: BraidWord, after: Optional[FreeEndo] = None) -> FreeEndo:
    """The endomorphism ``after`` composed with the Artin automorphism of the word.

    The Artin automorphism acts on the free group of rank = strand count;
    ``after`` defaults to the identity.  The generator with index i maps
    x_i -> x_i x_{i+1} x_i^-1 and x_{i+1} -> x_i, and letters compose
    rightmost-first.  Each letter precomposes its automorphism with the
    stored images, so the loop starts at the images of ``after`` and needs
    only joins and inverses of them.  The product x_1 x_2 ... x_n is fixed.

    Each new image is one seam join of three freely reduced tuples, each
    sliced once.  Raises ResourceExhausted once the images' total
    length passes MAX_IMAGE_LETTERS, the starting images included; the
    message names the word's length.
    """
    rank = word.strands
    if after is None:
        check_image_total(rank, word)  # before the identity start is built
        images = [(i,) for i in range(1, rank + 1)]
    elif after.rank == rank:
        images = [image.letters for image in after.images]
    else:
        raise ValueError(f"need an endomorphism of rank {rank}, got rank {after.rank}")
    cap = MAX_IMAGE_LETTERS  # a local test spares a call per letter
    total = sum(map(len, images))
    check_image_total(total, word)
    for letter in word.letters:
        i = abs(letter) - 1
        a, b = images[i], images[i + 1]
        if letter > 0:
            images[i] = image = _join(a, b, tuple(map(neg, reversed(a))))
            images[i + 1] = a
            total += len(image) - len(b)
        else:
            images[i] = b
            images[i + 1] = image = _join(tuple(map(neg, reversed(b))), a, b)
            total += len(image) - len(a)
        if total > cap:
            check_image_total(total, word)
    return FreeEndo(rank, tuple(FreeWord._reduced(rank, image) for image in images))


def is_inner(endo: FreeEndo) -> Optional[FreeWord]:
    """Return u with endo(x_i) = u x_i u^-1 for all i, if one exists.

    The image of x_1 must cyclically reduce to the letter x_1 itself; that
    pins the conjugator up to a power of x_1, which the image of x_2 then
    determines.  The candidate is verified on every generator, so a wrong
    guess can only produce a (correct) negative answer.
    """
    rank = endo.rank
    if rank == 0:
        return FreeWord(0)
    first = endo.images[0]
    prefix, core = first.cyclic_reduce()
    if core.letters != (1,):
        return None
    if rank == 1:
        return FreeWord(1)
    # endo(x_1) = v x_1 v^-1, so any conjugator is v * x_1^k for some k,
    # which the leading x_1-run of v^-1 endo(x_2) v determines.
    v = prefix
    target = v.inverse() * endo.images[1] * v
    k = 0
    for letter in target.letters:
        if abs(letter) != 1:
            break
        k += 1 if letter > 0 else -1
    u = v * FreeWord(rank, (1,) * k if k >= 0 else (-1,) * (-k))
    u_inv = u.inverse().letters
    for i, image in enumerate(endo.images, start=1):
        if image.letters != _join(u.letters, (i,), u_inv):
            return None
    return u
