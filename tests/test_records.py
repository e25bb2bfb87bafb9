"""The value and report classes are immutable records: construction,
equality, hashing, repr, immutability, copying and validation."""

import copy
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from goeritz.constants import ConstantsReport
from goeritz.freegroup import FreeEndo, FreeWord
from goeritz.lamination import EntropyReport, LamCoords, SweepRecord
from goeritz.plat import Pairing, PlatInvariants
from goeritz.wicket import BridgeDecomposition, MembershipReport, TrivialTangle
from goeritz.words import BraidWord, Permutation

# Each record class with its field names, the values of one record and
# those of a second record that differs from it in one field.
CASES = [
    (Permutation, ("images",), ((2, 3, 1),), ((3, 1, 2),)),
    (Pairing, ("images",), ((2, 1, 4, 3),), ((3, 4, 1, 2),)),
    (BraidWord, ("strands", "letters"), (3, (1, -2)), (3, (1, 2))),
    (FreeWord, ("rank", "letters"), (2, (1, -2)), (3, (1, -2))),
    (FreeEndo, ("rank", "images"), (2, (FreeWord(2, (1,)), FreeWord(2, (2, 1)))),
     (2, (FreeWord(2, (1,)), FreeWord(2, (2,))))),
    (LamCoords, ("punctures", "coords"), (3, (1, 0)), (3, (0, 1))),
    (EntropyReport,
     ("word_length", "strands", "iterations", "log_lambda", "converged", "classification"),
     (2, 3, 40, 0.962424, True, "exponential"), (2, 3, 40, 0.962424, False, "exponential")),
    (SweepRecord,
     ("family", "n", "strands", "log_lambda", "normalized", "penner_bound", "converged"),
     ("hopf", 1, 11, 0.543535, 5.97889, 0.0216608, True),
     ("hopf", 2, 11, 0.543535, 5.97889, 0.0216608, True)),
    (PlatInvariants, ("components", "linking", "crossings"), (2, 1, 2), (1, None, 2)),
    (TrivialTangle, ("arcs", "conjugator"), (2, BraidWord(4, (1, 2, 3))), (2, BraidWord(4))),
    (BridgeDecomposition, ("bridges", "top", "bottom"),
     (2, BraidWord(4), BraidWord(4, (2, 2))), (2, BraidWord(4, (2, 2)), BraidWord(4))),
    (MembershipReport, ("verdict", "witness_index", "witness", "checked"),
     (False, 1, FreeWord(2, (2, -1)), 1), (False, 2, FreeWord(2, (2, -1)), 2)),
    (ConstantsReport,
     ("h", "m", "R", "ceil_R", "two_R_plus_two", "quasiconvexity_cap", "delta", "N"),
     (32.0, 1024.5, 896.5, 897, 1795.0, 1796.0, 102.0, 3796.0),
     (32.0, 1024.5, 896.5, 897, 1795.0, 1796.0, 102.0, 3797.0)),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, names, values, other", CASES, ids=IDS)
def test_construction_equality_hash_and_repr(cls, names, values, other):
    record = cls(*values)
    assert type(record) is cls
    assert tuple(getattr(record, name) for name in names) == values
    assert cls(**dict(zip(names, values))) == record
    assert cls(*values) == record and not cls(*values) != record
    assert cls(*other) != record and not cls(*other) == record
    assert record != values and record != object()
    assert hash(record) == hash(values) == hash(cls(*values))
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__qualname__}({fields})"


@pytest.mark.parametrize("cls, names, values, other", CASES, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(cls, names, values, other):
    record = cls(*values)
    for name in names + ("extra",):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values


@pytest.mark.parametrize("cls, names, values, other", CASES, ids=IDS)
def test_copies_and_pickles_are_equal_records(cls, names, values, other):
    record = cls(*values)
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol)) for protocol in (0, 2, 5)]
    for duplicate in copies:
        assert type(duplicate) is cls and duplicate == record
        assert hash(duplicate) == hash(record) and repr(duplicate) == repr(record)


def test_pinned_reprs_and_defaults():
    assert repr(BraidWord(3, (1, -2))) == "BraidWord(strands=3, letters=(1, -2))"
    assert repr(MembershipReport(False, 1, FreeWord(2, (2, -1)), 1)) == (
        "MembershipReport(verdict=False, witness_index=1, "
        "witness=FreeWord(rank=2, letters=(2, -1)), checked=1)"
    )
    assert BraidWord(3) == BraidWord(3, ())
    assert FreeWord(2) == FreeWord(2, ())
    assert MembershipReport(True) == MembershipReport(True, None, None, 0)


def test_constructors_normalize_their_sequences():
    assert BraidWord(3, [1, -2]).letters == (1, -2)
    assert FreeWord(2, [1, 2, -2, -1, 2]).letters == (2,)
    assert LamCoords(3, [1, 0]).coords == (1, 0)
    for cls in (Permutation, Pairing):
        record = cls([2, 1])
        assert record.images == (2, 1) and record == cls((2, 1))
        assert hash(record) == hash(((2, 1),))
    images = [FreeWord(1, (1,))]
    assert FreeEndo(1, images).images == tuple(images)
    assert hash(FreeEndo(1, images)) == hash((1, tuple(images)))


def test_a_pairing_never_equals_a_permutation():
    images = (2, 1, 4, 3)
    pairing, permutation = Pairing(images), Permutation(images)
    assert pairing != permutation and permutation != pairing
    assert not pairing == permutation
    assert hash(pairing) == hash(permutation) == hash((images,))
    assert repr(pairing) == "Pairing(images=(2, 1, 4, 3))"
    assert type(pairing * pairing) is Permutation


@pytest.mark.parametrize("build, message", [
    (lambda: Permutation((1, 1, 2)), "not a permutation of 1..3: (1, 1, 2)"),
    (lambda: Pairing((2, 1, 3)), "pairings need an even number of points"),
    (lambda: Pairing((1, 2)), "not a fixed-point-free involution: (1, 2)"),
    (lambda: Pairing((2, 3, 4, 1)), "not a fixed-point-free involution: (2, 3, 4, 1)"),
    (lambda: BraidWord(1), "strand count must be at least 2, got 1"),
    (lambda: BraidWord(3, (1, 0)), "letter 0 out of range for 3 strands"),
    (lambda: BraidWord(3, (-3,)), "letter -3 out of range for 3 strands"),
    (lambda: FreeWord(2, (1, 3)), "letter 3 out of range for rank 2"),
    (lambda: FreeEndo(2, (FreeWord(2),)), "need 2 images, got 1"),
    (lambda: LamCoords(2, (1,)), "lamination coordinates need at least 3 punctures"),
    (lambda: LamCoords(3, (1,)), "need 2 coordinates for 3 punctures, got 1"),
    (lambda: LamCoords(3, (0, 0)), "the zero vector does not encode a curve"),
    (lambda: TrivialTangle(2, BraidWord(3)), "conjugator must have 4 strands, got 3"),
    (lambda: BridgeDecomposition(2, BraidWord(4), BraidWord(3)),
     "conjugators must have 2n strands"),
    (lambda: MembershipReport(False), "negative verdicts carry a non-trivial witness"),
    (lambda: MembershipReport(False, 1, FreeWord(2)),
     "negative verdicts carry a non-trivial witness"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = "import sys, goeritz.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"
