"""The adjacent-pair curves, the tests' oracle for the two seed multicurves
of lamination.seed_multicurves."""

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
