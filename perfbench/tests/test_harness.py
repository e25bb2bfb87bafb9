"""Tests for the benchmark harness: inputs, oracles and span arithmetic.

    python3 -m pytest perfbench/tests
"""

import io
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
import goeritz.cli  # noqa: E402
from oracles import Expect, check  # noqa: E402
from tracer import Tracer, covered, layer_metrics, self_times  # noqa: E402

GOLDEN = math.log((3 + math.sqrt(5)) / 2)
DOUBLED = math.log(2 + math.sqrt(3))


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = goeritz.cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def serialized(name, seed):
    return repr(workloads.WORKLOADS[name](seed)).encode()


def test_same_seed_same_bytes_new_seed_new_inputs():
    for name in workloads.WORKLOADS:
        assert serialized(name, 3) == serialized(name, 3)
        if name != "family_sweep":  # fixed rows: the seed does not apply
            assert serialized(name, 3) != serialized(name, 4)


def test_burau_oracle_on_criterion_5():
    assert abs(oracles.burau3_log_radius((1, -2)) - GOLDEN) < 1e-12
    assert abs(oracles.burau3_log_radius((1, -2, -2)) - DOUBLED) < 1e-12
    assert oracles.burau3_log_radius((1, 2)) is None  # periodic
    for word, exact in (((1, -2), GOLDEN), ((1, -2, -2), DOUBLED)):
        argv = ("entropy", "-n", "3", "--word", oracles.fmt(word), "--json")
        assert check(Expect("entropy", (3, len(word), exact)), *cli(argv)) is None
    wrong = Expect("entropy", (3, 2, DOUBLED))
    assert check(wrong, *cli(("entropy", "-n", "3", "--word", "1 -2", "--json"))) is not None


def test_generator_words_match_criterion_3():
    from goeritz.words import family_word, full_twist, sphere_relator
    from goeritz.wicket import tangle_B, tangle_C

    for n in (3, 4, 5):
        m = 2 * n
        assert oracles.word_y(m) == family_word("Y", m).letters
        assert oracles.word_z(m) == family_word("Z", m - 1).letters
        assert oracles.full_twist(m) == full_twist(m).letters
        assert oracles.sphere_relator(m) == sphere_relator(m).letters
        assert oracles.tangle_conjugator("B", n) == tangle_B(n).conjugator.letters
        assert oracles.tangle_conjugator("C", n) == tangle_C(n).conjugator.letters
    assert oracles.word_x() == family_word("X", 5).letters


def test_membership_oracles_on_criterion_3():
    # x, y, z on 6 strands are standard wicket members; pair memberships
    # with the tangle-B and tangle-C bottoms are certified.
    for word in (oracles.word_x(), oracles.word_y(6), oracles.word_z(6)):
        argv = ("wicket", "member", "-n", "3", "--word", oracles.fmt(word), "--json")
        assert check(Expect("member", (True,)), *cli(argv)) is None
    for n in (3, 4):
        for tangle, third in (("B", oracles.word_y(2 * n)), ("C", oracles.word_z(2 * n))):
            for word in (oracles.word_x(), third, oracles.full_twist(2 * n)):
                argv = ("goeritz", "member", "--bridge", str(n), "--bottom",
                        oracles.fmt(oracles.tangle_conjugator(tangle, n)),
                        "--word", oracles.fmt(word), "--json")
                assert check(Expect("goeritz", (True,)), *cli(argv)) is None
    # s2 on 4 strands swaps 2 and 3: a pairing-breaking proof of non-membership
    assert oracles.breaks_tangle_pairing((2,), "A", 2)
    assert not oracles.breaks_tangle_pairing((2, 2), "A", 2)
    argv = ("wicket", "member", "-n", "2", "--word", "2", "--json")
    assert check(Expect("non_member", (2,)), *cli(argv)) is None
    # the witnessed negative of criterion 3 passes the well-formedness check
    argv = ("wicket", "member", "-n", "2", "--word", "2 2", "--json")
    assert check(Expect("non_member", (2,)), *cli(argv)) is None
    assert check(Expect("member", (True,)), *cli(argv)) is not None


def test_non_member_construction_agrees_with_program():
    import random

    rng = random.Random(5)
    for _ in range(60):
        q = workloads.wicket_non_member_query(rng, rng.randint(2, 4), rng.randint(1, 12))
        assert check(q.expect, *cli(q.argv)) is None


def test_oracles_on_criterion_9():
    # trefoil: bottom s2^3 has one component; s1^-1 s3 and the half twist
    # are certified Goeritz elements
    assert oracles.plat_components((2, 2, 2), 2) == 1
    for word in ((-1, 3), oracles.half_twist(4)):
        argv = ("goeritz", "member", "--bridge", "2", "--bottom", "2 2 2",
                "--word", oracles.fmt(word), "--json")
        assert check(Expect("goeritz", (True,)), *cli(argv)) is None
        # mapping classes: a = a * sphere relator, a != a * s1^2
        same = ("mcg", "-n", "4", oracles.fmt(word),
                oracles.fmt(word + oracles.sphere_relator(4)), "--json")
        other = ("mcg", "-n", "4", oracles.fmt(word), oracles.fmt(word + (1, 1)), "--json")
        assert check(Expect("equal", (True,)), *cli(same)) is None
        assert check(Expect("equal", (False,)), *cli(other)) is None


def test_plat_oracle_on_tangle_families():
    for n in range(2, 7):
        b = oracles.tangle_conjugator("B", n)
        c = oracles.tangle_conjugator("C", n)
        assert oracles.plat_components(b, n) == 1
        assert oracles.plat_components(c, n) == 2
        argv = ("plat", "info", "--bridge", str(n), "--bottom", oracles.fmt(c), "--json")
        assert check(Expect("plat", (2, 1, len(c))), *cli(argv)) is None


def test_sweep_and_constants_oracles():
    code, out, err = cli(("sweep", "--family", "hopf", "--from", "1", "--to", "1"))
    assert check(Expect("sweep", ("hopf", 1)), code, out, err) is None
    assert check(Expect("sweep", ("hopf", 2)), code, out, err) is not None
    code, out, err = cli(("constants", "--h", "32.0", "--json"))
    assert check(Expect("constants", (32.0,)), code, out, err) is None


def test_failures_are_counted():
    assert check(Expect("equal", (True,)), 2, "", "error: bad") is not None
    assert check(Expect("equal", (True,)), 3, "", "error: exceeded") is not None
    assert check(Expect("equal", (True,)), None, "", "Traceback\nKeyError: 1") is not None
    assert check(Expect("equal", (False,)), 1, '{"equal": false}', "") is None


def test_self_time_on_nested_spans():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping) and [8, 9];
    # the first child has its own child [2, 3].
    spans = [
        ("cli.run", 0.0, 10.0, -1, 0),
        ("words.compose", 1.0, 4.0, 0, 0),
        ("words.inverse", 2.0, 3.0, 1, 0),
        ("freegroup.artin_action", 3.0, 6.0, 0, 0),
        ("plat.component_count", 8.0, 9.0, 0, 0),
    ]
    assert covered([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]) == 6.0
    assert self_times(spans) == [4.0, 2.0, 1.0, 3.0, 1.0]
    metrics = layer_metrics(spans, Tracer().counters)
    assert metrics["cli.run.self_s"] == 4.0
    assert metrics["words.busy_s"] == 3.0  # the nested inverse adds nothing
    assert metrics["words.calls"] == 2
    assert metrics["plat.busy_s"] == 1.0


def test_tracer_wraps_every_binding_and_counts_exactly():
    import goeritz.wicket as wicket
    import goeritz.wordproblem as wordproblem
    from goeritz import freegroup

    original = freegroup.artin_action
    argv = ("wicket", "member", "-n", "3", "--word", "1 2 3 -1 4", "--tangle", "B", "--json")
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            assert wicket.artin_action is freegroup.artin_action is wordproblem.artin_action
            assert freegroup.artin_action is not original
            cli(argv)
        finally:
            tracer.uninstall()
        counts.append(dict(tracer.counters))
        names = {s[0] for s in tracer.spans}
        assert {"cli.run", "wicket.member_sw", "freegroup.artin_action"} <= names
    assert freegroup.artin_action is original and wicket.artin_action is original
    assert counts[0] == counts[1] and counts[0]["wicket.wickets_checked"] >= 1


def test_reference_kernel_is_fixed_and_scale_uses_neighbouring_samples():
    from reference import REF_S, Reference, kernel

    assert kernel() == kernel()
    ref = Reference()
    ref.samples = [1.0, 2.0, 4.0, 8.0, 16.0]
    # a time measured between samples 2 and 3 is scaled by the median of
    # samples 1..4; at the ends the window is cut short
    assert ref.scale(2) == REF_S / 6.0
    assert ref.scale(0) == REF_S / 2.0
    assert ref.scale(4) == REF_S / 12.0
    assert ref.due() == 5 and len(ref.samples) == 6  # no sample yet, so one is taken
    assert ref.due() == 5  # the last is fresh
