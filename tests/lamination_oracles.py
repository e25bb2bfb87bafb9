"""The whole-vector compiler of the lamination action and its cut to the
touched coordinate pairs: the tests' oracles for the ops, pairs and starts
that lamination._compile_touched builds from the distinct generators."""

from typing import Iterable, Sequence


def _compile(m: int, letters: Iterable[int]) -> list[tuple[int, int, int, int, int]]:
    """Turn letters, in application order, into (kind, p, p + 1, q, q + 1) ops.

    kind is 0 for sigma_k and 1 for sigma_k^-1 with 1 < k < m-1, which touch
    the pairs starting at p = 2k - 4 and q = p + 2; 2 and 3 for sigma_1^+-1,
    p = 0; 4 and 5 for sigma_{m-1}^+-1, p = 2m - 6.  The edge ops touch one
    pair, and their q and q + 1 are 0.
    """
    ops = []
    for letter in letters:
        k = abs(letter)
        if k == 1:
            ops.append((2 if letter > 0 else 3, 0, 1, 0, 0))
        elif k == m - 1:
            ops.append((4 if letter > 0 else 5, 2 * m - 6, 2 * m - 5, 0, 0))
        else:
            p = 2 * k - 4
            ops.append((0 if letter > 0 else 1, p, p + 1, p + 2, p + 3))
    return ops


def _restrict(
    ops: Sequence[tuple[int, int, int, int, int]], punctures: int
) -> tuple[list[tuple[int, int, int, int, int]], list[list[int]]]:
    """Cut the compiled ops down to the coordinate pairs they touch,
    re-indexed in order, and write down both seed multicurves on them.

    The pair (a_i, b_i) at index p = 2i - 2 holds a_i of curve c_i and b_i
    of curve c_{i+1}, so the odd multicurve, the union of the odd-indexed
    adjacent-pair curves, is (1, 0) there when p % 4 == 0 and (0, 1) when
    p % 4 == 2, and the even multicurve is its complement.  The other
    coordinates stay constant, so each start keeps them as one last entry,
    their 1-norm punctures - 2 - len(pairs), which no op touches: every
    norm is that of the whole vector, while the work and the orbit history
    follow the word, not the strand count.
    """
    pairs = sorted({op[1] for op in ops} | {op[3] for op in ops if op[0] < 2})
    new = {p: 2 * i for i, p in enumerate(pairs)}
    ops = [
        (kind, new[p], new[p] + 1, new[q], new[q] + 1) if kind < 2
        else (kind, new[p], new[p] + 1, 0, 0)
        for kind, p, _, q, _ in ops
    ]
    odd = [x for p in pairs for x in ((1, 0) if p % 4 == 0 else (0, 1))]
    rest = punctures - 2 - len(pairs)
    return ops, [odd + [rest], [1 - x for x in odd] + [rest]]
