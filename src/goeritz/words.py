"""Braid words over the signed-integer letter encoding.

A word is a finite sequence of nonzero integers: the letter ``k > 0`` is the
generator with index ``k`` (strand ``k`` crossing over strand ``k+1``), and
``k < 0`` is its inverse.  The word ``l1 l2 ... lm`` denotes the product of
its letters in that order, and in every left action implemented here the
rightmost factor acts first.
"""

from __future__ import annotations

from operator import neg
from typing import Iterable, Sequence


class _Record:
    """An immutable record: its fields are the ``__slots__`` of its class and bases, in order,
    set by ``__init__``; equality (same class only), hashing, repr, copy and pickle use them."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields += cls.__dict__.get("__slots__", ())
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _set(self, *values: object) -> None:
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Permutation(_Record):
    """A permutation of {1, ..., size}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]) -> None:
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        object.__setattr__(self, "images", tuple(images))

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Function composition: (self * other)(x) = self(other(x))."""
        if self.size != other.size:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.images[i - 1] for i in other.images))

    def inverse(self) -> "Permutation":
        images = [0] * self.size
        for i, img in enumerate(self.images, start=1):
            images[img - 1] = i
        return Permutation(tuple(images))

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images, start=1))


def _free_cancel(letters: Iterable[int]) -> tuple[int, ...]:
    stack: list[int] = []
    for letter in letters:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def _cancel_commuting(letters: Sequence[int]) -> tuple[int, ...]:
    """The letters, in order, less each pair l ... -l whose kept letters in
    between all have index at least 2 away from |l|.

    Such a pair is trivial, because generators that far apart commute (the
    piling reduction of Crisp-Godelle-Wiest).  One pass: kept[i] is the
    stack of positions of the kept letters of index i, and a letter cancels
    the top of its own stack exactly when that is its inverse and lies after
    the tops of the stacks of i - 1 and i + 1.
    """
    out = list(letters)
    kept: dict[int, list[int]] = {}
    for pos, letter in enumerate(out):
        i = abs(letter)
        stack = kept.setdefault(i, [])
        if stack and out[stack[-1]] == -letter:
            top = stack[-1]
            below, above = kept.get(i - 1), kept.get(i + 1)
            if (not below or below[-1] < top) and (not above or above[-1] < top):
                out[stack.pop()] = out[pos] = 0
                continue
        stack.append(pos)
    return tuple(filter(None, out))


def _join(u: tuple[int, ...], v: tuple[int, ...], w: tuple[int, ...] = ()) -> tuple[int, ...]:
    """_free_cancel(u + v + w) for freely reduced u, v and w: cancel only at
    the seams, and slice each part once.

    The word so far is u[:p] + v[q:e]; each seam cancels its tail against
    the head of the next part, and the seam with w passes into u once it
    has cancelled all of v[q:e].
    """
    p, q, e, r = len(u), 0, len(v), 0
    while p and q < e and u[p - 1] == -v[q]:
        p -= 1
        q += 1
    end = len(w)
    while r < end and e > q and v[e - 1] == -w[r]:
        e -= 1
        r += 1
    if e == q:
        while r < end and p and u[p - 1] == -w[r]:
            p -= 1
            r += 1
    return u[:p] + v[q:e] + w[r:]


def _cyclic_core(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The w with letters = u w u^-1 for the longest such u; cyclically
    reduced when the letters are freely reduced."""
    left, right = 0, len(letters)
    while left < right and letters[left] == -letters[right - 1]:
        left += 1
        right -= 1
    return letters[left:right]


class BraidWord(_Record):
    """A word in the generators of the braid group on ``strands`` strands."""

    __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters: tuple[int, ...] = ()) -> None:
        if strands < 2:
            raise ValueError(f"strand count must be at least 2, got {strands}")
        letters = tuple(letters)
        for letter in letters:
            if letter == 0 or abs(letter) > strands - 1:
                raise ValueError(f"letter {letter} out of range for {strands} strands")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", letters)

    @classmethod
    def _unchecked(cls, strands: int, letters: tuple[int, ...]) -> "BraidWord":
        """Wrap letters known to be in range for the strand count, unchecked."""
        word = object.__new__(cls)
        object.__setattr__(word, "strands", strands)
        object.__setattr__(word, "letters", letters)
        return word

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        return compose(self, other)

    def __pow__(self, exponent: int) -> "BraidWord":
        base = self if exponent >= 0 else inverse(self)
        return BraidWord._unchecked(self.strands, _free_cancel(base.letters * abs(exponent)))


def braid(strands: int, letters: Sequence[int] = ()) -> BraidWord:
    return BraidWord(strands, tuple(letters))


def compose(a: BraidWord, b: BraidWord) -> BraidWord:
    """Product ab, with free cancellation applied to the concatenation."""
    if a.strands != b.strands:
        raise ValueError(f"strand count mismatch: {a.strands} != {b.strands}")
    return BraidWord._unchecked(a.strands, _free_cancel(a.letters + b.letters))


def inverse(a: BraidWord) -> BraidWord:
    return BraidWord._unchecked(a.strands, tuple(map(neg, reversed(a.letters))))


def exponent_sum(a: BraidWord) -> int:
    return sum(1 if letter > 0 else -1 for letter in a.letters)


def permutation_of(a: BraidWord) -> Permutation:
    """The induced permutation of endpoint labels.

    The generator with index i maps to the transposition (i, i+1), and
    permutation_of(compose(a, b)) = permutation_of(a) * permutation_of(b)
    under the rightmost-acts-first composition convention.
    """
    return Permutation(tuple(_swap_along(list(range(1, a.strands + 1)), a.letters)))


def _swap_along(labels: list | dict, letters: Iterable[int]) -> list | dict:
    """The labels at the endpoint positions, a list or a dict keyed by every
    0-based position the letters touch, carried along the letters: index i
    swaps the labels at positions i - 1 and i.  From the list 1..n this is
    the list of permutation_of."""
    for letter in letters:
        i = abs(letter) - 1
        labels[i], labels[i + 1] = labels[i + 1], labels[i]
    return labels


def delta_j(strands: int, j: int) -> BraidWord:
    """The ascending run with top index j - 1, defined for 2 <= j <= strands."""
    if not 2 <= j <= strands:
        raise ValueError(f"j must be in 2..{strands}, got {j}")
    return BraidWord(strands, tuple(range(1, j)))


def half_twist(strands: int) -> BraidWord:
    """Concatenation of the descending sequence of ascending runs.

    Its exponent sum is strands*(strands-1)/2 and its permutation is the
    order reversal i -> strands + 1 - i.
    """
    letters: list[int] = []
    for j in range(strands, 1, -1):
        letters.extend(range(1, j))
    return BraidWord(strands, tuple(letters))


def full_twist(strands: int) -> BraidWord:
    h = half_twist(strands)
    return compose(h, h)


def sphere_relator(strands: int) -> BraidWord:
    """The word 1 2 ... (m-1) (m-1) ... 2 1, trivial in the spherical group."""
    up = list(range(1, strands))
    return BraidWord(strands, tuple(up + up[::-1]))


def s_plus(a: BraidWord) -> BraidWord:
    """The word on one extra straight strand, read in the spherical group.

    The dilatation is unchanged by this stabilization, which is what makes
    the disk computations in lamination.py meaningful for spherical braids.
    """
    return BraidWord(a.strands + 1, a.letters)


def family_word(which: str, strands: int) -> BraidWord:
    """The three generator words used throughout the entropy families.

    X needs strands >= 5, Y an even strand count >= 6, Z an odd strand
    count >= 5.  The letters do not depend on the strand count beyond the
    range they must fit in.
    """
    if which == "X":
        if strands < 5:
            raise ValueError("X needs at least 5 strands")
        return BraidWord(strands, (3, 3, 2, 3, 3, 2))
    if which == "Y":
        if strands < 6 or strands % 2 != 0:
            raise ValueError("Y needs an even strand count of at least 6")
        # sigma_1^2 sigma_2 ... sigma_{2n-1} sigma_1 ... sigma_{2n-2)
        letters = [1] + list(range(1, strands)) + list(range(1, strands - 1))
        return BraidWord(strands, tuple(letters))
    if which == "Z":
        if strands < 5 or strands % 2 != 1:
            raise ValueError("Z needs an odd strand count of at least 5")
        # sigma_1^2 sigma_2 ... sigma_{2n-2} sigma_1 ... sigma_{2n-3} sigma_{2n-3} sigma_{2n-2}
        letters = (
            [1]
            + list(range(1, strands))
            + list(range(1, strands - 1))
            + [strands - 2, strands - 1]
        )
        return BraidWord(strands, tuple(letters))
    raise ValueError(f"unknown family word {which!r}")


def _family_factors(which: str, n: int, squared: bool = False) -> tuple[BraidWord, BraidWord]:
    """X and the second factor, Y (unknot) or Z (hopf), of the entropy
    family at index n >= 1, on the family's strand count."""
    if n < 1:
        raise ValueError(f"family index must be at least 1, got {n}")
    if which == "unknot":
        strands = 4 * n + (8 if squared else 6)
        second = family_word("Y", strands)
    elif which == "hopf":
        strands = 4 * n + (9 if squared else 7)
        second = family_word("Z", strands)
    else:
        raise ValueError(f"unknown entropy family {which!r}")
    return family_word("X", strands), second


def entropy_family_word(which: str, n: int, squared: bool = False) -> BraidWord:
    """The braid whose growth rate is swept at index n >= 1.

    unknot family: X Y^(2n+1) on 4n+6 strands (X Y X Y^(2n+1) on 4n+8 when
    squared); hopf family: X Z^(2n+1) on 4n+7 strands (X Z X Z^(2n+1) on
    4n+9 when squared).
    """
    x, second = _family_factors(which, n, squared)
    word = compose(x, second ** (2 * n + 1))
    if squared:
        word = compose(compose(x, second), word)
    return word


def parse_word(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated signed letter indices."""
    try:
        letters = tuple(map(int, text.split()))
    except ValueError as exc:
        raise ValueError(f"bad braid word {text!r}") from exc
    return BraidWord(strands, letters)


def format_word(a: BraidWord) -> str:
    return " ".join(str(letter) for letter in a.letters)
