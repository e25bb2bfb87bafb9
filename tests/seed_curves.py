"""The adjacent-pair curves and the two seed multicurves, built as whole
coordinate vectors: the tests' oracles for the starts that
lamination._compile_touched writes down from the pair indices alone."""

from goeritz.lamination import LamCoords


def seed_curves(punctures: int) -> list[LamCoords]:
    """The m-1 adjacent-pair curves; together they fill the disk."""
    m = punctures
    curves = []
    for j in range(1, m):
        coords = [0] * (2 * m - 4)
        if j >= 2:
            coords[2 * (j - 1) - 1] = 1  # b_{j-1} = 1
        if j <= m - 2:
            coords[2 * j - 2] = 1        # a_j = 1
        curves.append(LamCoords(m, coords))
    return curves


def seed_multicurves(punctures: int) -> list[LamCoords]:
    """Two multicurves that together fill the disk.

    The first is the union of the odd-indexed seed curves, around punctures
    (1,2), (3,4), ...; the second the union of the even-indexed ones.  The
    curves of each union are pairwise disjoint, so its coordinates are the
    sum of theirs.  b_{j-1} and a_j belong to curve j alone, so the unions
    are complementary 0/1 vectors.  On 3 punctures these are the two seed
    curves.
    """
    odd = [1 if i % 4 in (0, 3) else 0 for i in range(2 * punctures - 4)]
    return [LamCoords(punctures, odd), LamCoords(punctures, [1 - x for x in odd])]
