"""Cheap exact invariants of plat closures: components and |linking|.

A plat diagram is a top row of caps, the braid, and a bottom row of cups.
Pairings are fixed-point-free involutions on the 2n endpoints; the
standard one joins 2j-1 with 2j.  Components come from the permutation
walk; for a 2-component link, |lk| is half the signed count of crossings
between strands of distinct components, with orientations induced by an
arbitrary traversal of each component.
"""

from __future__ import annotations

from typing import Optional

from .words import BraidWord, Permutation, _Record, permutation_of


class Pairing(Permutation):
    """A fixed-point-free involution on {1..2n}, as a permutation."""

    __slots__ = ()

    def __init__(self, images: tuple[int, ...]) -> None:
        size = len(images)
        if size % 2 != 0:
            raise ValueError("pairings need an even number of points")
        for i, img in enumerate(images, start=1):
            if img == i or not 1 <= img <= size or images[img - 1] != i:
                raise ValueError(f"not a fixed-point-free involution: {images}")
        object.__setattr__(self, "images", tuple(images))


def standard_pairing(n: int) -> Pairing:
    """(1 2)(3 4)...(2n-1 2n)."""
    images = []
    for j in range(1, n + 1):
        images.extend([2 * j, 2 * j - 1])
    return Pairing(tuple(images))


def conjugated_pairing(pairing: Pairing, perm: Permutation) -> Pairing:
    """The pairing pushed through a permutation."""
    return Pairing((perm * pairing * perm.inverse()).images)


def _walk(top: Pairing, braid: BraidWord, bottom: Pairing) -> tuple[list[int], list[int]]:
    """Component id and direction of each strand, indexed by its top endpoint.

    The walk goes down the strand at its start point, along a bottom cup, up
    the strand it reaches and along a top cap; the direction is +1 for a
    strand traversed downward and -1 for one traversed upward.
    """
    if top.size != braid.strands or bottom.size != braid.strands:
        raise ValueError("pairing sizes must match the strand count")
    pushed = conjugated_pairing(bottom, permutation_of(braid))
    label = [0] * top.size
    direction = [0] * top.size
    comp = 0
    for start in range(1, top.size + 1):
        if label[start - 1]:
            continue
        comp += 1
        point = start
        while not label[point - 1]:
            label[point - 1], direction[point - 1] = comp, 1
            point = pushed(point)
            label[point - 1], direction[point - 1] = comp, -1
            point = top(point)
    return label, direction


def component_count(top: Pairing, braid: BraidWord, bottom: Pairing) -> int:
    """Number of link components of the plat closure."""
    return max(_walk(top, braid, bottom)[0])


class PlatInvariants(_Record):
    """Component count, |lk| (exactly when there are two components) and crossings of a plat."""

    __slots__ = ("components", "linking", "crossings")

    def __init__(self, components: int, linking: Optional[int], crossings: int) -> None:
        self._set(components, linking, crossings)


def plat_invariants_of(top: Pairing, braid: BraidWord, bottom: Pairing) -> PlatInvariants:
    """Components, |lk| of a 2-component plat and crossings, from one walk.

    For |lk|, one pass over the letters tracks the strand at each position;
    a crossing of two components counts its sign times their directions.
    """
    labels, direction = _walk(top, braid, bottom)
    components = max(labels)
    linking = None
    if components == 2:
        at = list(range(top.size))
        total = 0
        for letter in braid.letters:
            k = abs(letter)
            left, right = at[k - 1], at[k]
            if labels[left] != labels[right]:
                total += (1 if letter > 0 else -1) * direction[left] * direction[right]
            at[k - 1], at[k] = right, left
        linking = abs(total) // 2
    return PlatInvariants(components=components, linking=linking, crossings=len(braid))


def plat_linking(top: Pairing, braid: BraidWord, bottom: Pairing) -> Optional[int]:
    """|lk| for a 2-component plat, else None."""
    return plat_invariants_of(top, braid, bottom).linking
