"""Answers known independently of the code under test, and output checks.

Nothing here imports goeritz.  Words are tuples of signed generator
indices, as on the command line.  Each check takes a query's expectation
and what `goeritz.cli.run` produced (exit code, stdout, stderr) and returns
None when the answer is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Optional

# ---------------------------------------------------------------- words


def fmt(word: tuple[int, ...]) -> str:
    return " ".join(str(letter) for letter in word)


def inverse(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-letter for letter in reversed(word))


def half_twist(strands: int) -> tuple[int, ...]:
    letters: list[int] = []
    for j in range(strands, 1, -1):
        letters.extend(range(1, j))
    return tuple(letters)


def full_twist(strands: int) -> tuple[int, ...]:
    return half_twist(strands) * 2


def sphere_relator(strands: int) -> tuple[int, ...]:
    up = tuple(range(1, strands))
    return up + up[::-1]


# The generator words of the paper's stabilized families, as the letters
# the README and the acceptance suite use on 2n strands: X = (s3 s3 s2)^2,
# Y = s1^2 s2..s_{2n-1} s1..s_{2n-2}, and Z the odd-strand word on 2n - 1
# strands read on 2n.
def word_x() -> tuple[int, ...]:
    return (3, 3, 2, 3, 3, 2)


def word_y(strands: int) -> tuple[int, ...]:
    return (1,) + tuple(range(1, strands)) + tuple(range(1, strands - 1))


def word_z(strands: int) -> tuple[int, ...]:
    k = strands - 1
    return (1,) + tuple(range(1, k)) + tuple(range(1, k - 1)) + (k - 2, k - 1)


# Conjugator presentations of the trivial tangles named on the command line.
def tangle_conjugator(name: str, arcs: int) -> tuple[int, ...]:
    if name == "A":
        return ()
    if name == "B":
        return tuple(range(1, 2 * arcs))
    if name == "C":
        return tuple(range(1, 2 * arcs - 3)) + (-(2 * arcs - 2), -(2 * arcs - 2))
    raise ValueError(f"unknown tangle {name!r}")


# ------------------------------------------------- permutations and pairings


def permutation(word: tuple[int, ...], strands: int) -> tuple[int, ...]:
    """Endpoint permutation: each letter swaps the labels at k and k+1."""
    images = list(range(1, strands + 1))
    for letter in word:
        i = abs(letter) - 1
        images[i], images[i + 1] = images[i + 1], images[i]
    return tuple(images)


def preserves_standard_pairing(perm: tuple[int, ...]) -> bool:
    """Does the permutation map each pair {2j-1, 2j} onto such a pair?

    A wicket-group element permutes the arcs of its tangle, so a word whose
    conjugated permutation breaks the standard pairing is a non-member.
    The test is the same for a permutation and its inverse, so it does not
    depend on the composition convention.
    """
    for j in range(0, len(perm), 2):
        a, b = perm[j], perm[j + 1]
        if (a + 1) // 2 != (b + 1) // 2:
            return False
    return True


def breaks_tangle_pairing(word: tuple[int, ...], tangle: str, arcs: int) -> bool:
    """The proof of non-membership used for every negative wicket query."""
    c = tangle_conjugator(tangle, arcs)
    conjugated = inverse(c) + word + c
    return not preserves_standard_pairing(permutation(conjugated, 2 * arcs))


def make_non_member(word: tuple[int, ...], tangle: str, arcs: int) -> tuple[int, ...]:
    """Append one generator when needed so the pairing is broken.

    If the permutation already breaks the pairing the word is returned as
    it is; otherwise the first generator whose conjugated transposition is
    not a pair of the tangle is appended (one exists for two or more arcs).
    """
    if breaks_tangle_pairing(word, tangle, arcs):
        return word
    for g in range(1, 2 * arcs):
        if breaks_tangle_pairing(word + (g,), tangle, arcs):
            return word + (g,)
    raise ValueError("no pairing-breaking generator")  # unreachable for arcs >= 2


def plat_components(bottom: tuple[int, ...], bridges: int) -> int:
    """Components of the plat closure of a braid between standard caps and cups."""
    strands = 2 * bridges
    perm = permutation(bottom, strands)
    where = {label: pos for pos, label in enumerate(perm, start=1)}
    seen: set[int] = set()
    components = 0
    for start in range(1, strands + 1):
        if start in seen:
            continue
        components += 1
        point = start
        while point not in seen:
            seen.add(point)
            partner = point + 1 if point % 2 else point - 1
            seen.add(partner)
            # through the cup at the bottom and back up the braid
            bottom_pos = where[partner]
            mate = bottom_pos + 1 if bottom_pos % 2 else bottom_pos - 1
            point = perm[mate - 1]
    return components


# ----------------------------------------------------------------- entropy


def burau3_log_radius(word: tuple[int, ...]) -> Optional[float]:
    """log of the spectral radius of reduced Burau at t = -1, 3 strands.

    The image lies in SL2(Z); the braid is pseudo-Anosov exactly when
    |trace| > 2, and then the radius is its dilatation.  Returns None for
    periodic and reducible braids, which have no exact growth rate to
    compare an estimate against.
    """
    gens = {
        1: ((1, 1), (0, 1)),
        -1: ((1, -1), (0, 1)),
        2: ((1, 0), (-1, 1)),
        -2: ((1, 0), (1, 1)),
    }
    a, b, c, d = 1, 0, 0, 1
    for letter in word:
        (p, q), (r, s) = gens[letter]
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    trace = abs(a + d)
    if trace <= 2:
        return None
    return math.log((trace + math.sqrt(trace * trace - 4)) / 2)


# Pinned at the seed commit for the criterion-6 code path: log lambda of the
# stabilized families at n = 1..4 (the same for both families).
SWEEP_LOG_LAMBDA = {1: 0.543535, 2: 0.382245, 3: 0.295442, 4: 0.240965}
SWEEP_HEADER = "family\tn\tstrands\tlogLambda\tnormalized\tpennerBound\tconverged"


def sweep_strands(family: str, n: int) -> int:
    return 4 * n + (6 if family == "unknot" else 7)


def penner_bound(punctures: int) -> float:
    return math.log(2.0) / (4 * punctures - 12)


def _close6(printed: float, exact: float) -> bool:
    """Equal to 6 significant digits, as the CLI prints."""
    return abs(printed - exact) <= 6e-6 * abs(exact) + 1e-12


# ----------------------------------------------------------------- checks


@dataclasses.dataclass(frozen=True)
class Expect:
    """What a query must produce: a kind and its parameters."""

    kind: str
    params: tuple = ()


def _json(out: str) -> dict:
    return json.loads(out)


def _witness_ok(payload: dict, arcs: int) -> Optional[str]:
    if payload.get("member", payload.get("goeritz")) is not False:
        return "expected a negative verdict"
    index = payload.get("witness_index")
    if not isinstance(index, int) or not 1 <= index <= arcs:
        return f"bad witness index {index!r}"
    letters = [int(x) for x in str(payload.get("witness", "")).split()]
    if not letters or any(x == 0 or abs(x) > arcs for x in letters):
        return f"bad witness {payload.get('witness')!r}"
    if any(a == -b for a, b in zip(letters, letters[1:])):
        return "witness not freely reduced"
    return None


def check(expect: Expect, code: Optional[int], out: str, err: str) -> Optional[str]:
    """None if the output is right, else a reason.  Exit 2 and resource
    errors are failures; exit 1 is a verdict."""
    if code is None:
        return "uncaught exception: " + err.strip().splitlines()[-1] if err.strip() else "uncaught exception"
    if code == 2:
        return "exit 2: " + err.strip()
    if code == 3 and "error:" in err:
        return "resource exhausted: " + err.strip()
    try:
        return _CHECKS[expect.kind](expect.params, code, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output ({exc.__class__.__name__}: {exc}): {out[:200]!r}"


def _check_sweep(params: tuple, code: int, out: str) -> Optional[str]:
    family, n = params
    lines = out.strip().split("\n")
    if code != 0 or len(lines) != 2 or lines[0] != SWEEP_HEADER:
        return f"exit {code}, output {out[:200]!r}"
    fam, n_s, strands, log_l, normalized, penner, converged = lines[1].split("\t")
    m = sweep_strands(family, n)
    if (fam, int(n_s), int(strands), converged) != (family, n, m, "True"):
        return f"bad row {lines[1]!r}"
    value = float(log_l)
    if not _close6(value, SWEEP_LOG_LAMBDA[n]):
        return f"logLambda {value} != pinned {SWEEP_LOG_LAMBDA[n]}"
    if not _close6(float(penner), penner_bound(m)) or value <= penner_bound(m):
        return f"Penner bound {penner} wrong or not below {value}"
    if not _close6(float(normalized), m * value):
        return f"normalized {normalized} != {m} * {value}"
    return None


def _check_flag(key: str):
    def check_flag(params: tuple, code: int, out: str) -> Optional[str]:
        (want,) = params
        got = _json(out)[key]
        if got is not want or code != (0 if want else 1):
            return f"{key}={got} exit {code}, expected {want}"
        return None

    return check_flag


def _check_non_member(params: tuple, code: int, out: str) -> Optional[str]:
    (arcs,) = params
    if code != 1:
        return f"exit {code}, expected 1 (non-member)"
    return _witness_ok(_json(out), arcs)


def _check_normalize(params: tuple, code: int, out: str) -> Optional[str]:
    (strands,) = params
    payload = _json(out)
    if code != 0 or payload != {"strands": strands, "word": ""}:
        return f"exit {code}, expected the empty word, got {out[:200]!r}"
    return None


_CLASSES = ("exponential", "sub-exponential", "inconclusive")


def _check_entropy(params: tuple, code: int, out: str) -> Optional[str]:
    strands, length, exact = params
    payload = _json(out)
    value = payload["logLambda"]
    if (payload["strands"], payload["length"]) != (strands, length):
        return f"strands/length {payload['strands']}/{payload['length']}"
    if not isinstance(value, float) or not math.isfinite(value) or value < 0:
        return f"bad logLambda {value!r}"
    if payload["classification"] not in _CLASSES or not isinstance(payload["converged"], bool):
        return f"bad classification {payload['classification']!r}"
    inconclusive = payload["classification"] == "inconclusive" and not payload["converged"]
    if code != (3 if inconclusive else 0):
        return f"exit {code} with classification {payload['classification']}"
    if exact is not None and not (payload["converged"] and _close6(value, exact)):
        return f"logLambda {value} != Burau {exact:.9g}"
    return None


def _check_plat(params: tuple, code: int, out: str) -> Optional[str]:
    components, linking, crossings = params
    payload = _json(out)
    got = (payload["components"], payload["linking"], payload["crossings"])
    if code != 0 or got != (components, linking, crossings):
        return f"plat {got}, expected {(components, linking, crossings)}"
    return None


def _check_constants(params: tuple, code: int, out: str) -> Optional[str]:
    (h,) = params
    p = _json(out)
    m = p["m"]
    if code != 0 or p["h"] != h or abs(m - 2 * h * (6 + math.log2(m + 2))) > 1e-9 * m:
        return f"m = {m} is not the fixed point for h = {h}"
    R = m - 4 * h
    if (p["R"], p["ceilR"], p["twoRplusTwo"]) != (R, math.ceil(R), 2 * R + 2):
        return f"R fields {p['R']}, {p['ceilR']}, {p['twoRplusTwo']} for m = {m}"
    if (p["quasiconvexityCap"], p["delta"], p["N"]) != (1796.0, 102.0, 3796.0):
        return "finiteness constants changed"
    if h == 32 and p["ceilR"] != 897:
        return f"ceil R(32) = {p['ceilR']}, expected 897"
    return None


_CHECKS = {
    "sweep": _check_sweep,
    "goeritz": _check_flag("goeritz"),
    "member": _check_flag("member"),
    "non_member": _check_non_member,
    "equal": _check_flag("equal"),
    "normalize_empty": _check_normalize,
    "entropy": _check_entropy,
    "plat": _check_plat,
    "constants": _check_constants,
}
