import contextlib
import io
import json
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goeritz import cli, freegroup, lamination, wordproblem
from goeritz.cli import run


def test_braid_eq_exit_codes(capsys):
    assert run(["braid", "eq", "-n", "5", "2 3 2 3 2 3", "3 3 2 3 3 2"]) == 0
    assert capsys.readouterr().out.strip() == "equal"
    assert run(["braid", "eq", "-n", "3", "1", "2"]) == 1


def test_braid_normalize(capsys):
    assert run(["braid", "normalize", "-n", "3", "1 -1 2"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_wicket_member(capsys):
    assert run(["wicket", "member", "-n", "3", "--word", "3 3 2 3 3 2"]) == 0
    assert run(["wicket", "member", "-n", "2", "--word", "2 2"]) == 1
    out = capsys.readouterr().out
    assert "witness" in out or "maps to" in out


def test_wicket_member_json_roundtrip(capsys):
    assert run(["wicket", "member", "-n", "2", "--word", "2 2", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["member"] is False
    assert payload["witness"] == "2 -1 -2 1"


def test_goeritz_member(capsys):
    code = run([
        "goeritz", "member", "--bridge", "3", "--top", "", "--bottom", "",
        "--word", "3 3 2 3 3 2",
    ])
    assert code == 0
    code = run([
        "goeritz", "member", "--bridge", "2", "--top", "", "--bottom", "2 2 2",
        "--word", "1 2",
    ])
    assert code == 1


MANY_REWRITES = (
    "1 -2 3 2 -1 -3 2 2 1 -3 1 2 3 1 2 1 1 2 3 1 2 1 3 -1 -2 -2 3 1 -2 -3 2 -1 "
    "-1 -2 -1 -3 -2 -1 -1 -2 -1 -3 -2 -1 1 1 -2 -2"
)


# Usage lines of the top-level parser and of one verb's, at 80 columns.
USAGE = (
    "usage: goeritz [-h]\n"
    "               {braid,wicket,goeritz,entropy,sweep,plat,mcg,constants} ...\n"
)
BRAID_USAGE = "usage: goeritz braid [-h] -n STRANDS [--json] {eq,normalize} words [words ...]\n"


@pytest.mark.parametrize("argv, code, out", [
    (["goeritz", "member", "--bridge", "2", "--bottom", "2 2 2", "--word", "1 2"], 1,
     "not a Goeritz element: wicket 1 maps to 2 -1\n"),
    (["goeritz", "member", "--bridge", "2", "--bottom", "2 2 2", "--word", "1 2", "--json"], 1,
     '{"goeritz": false, "witness": "2 -1", "witness_index": 1}\n'),
    (["wicket", "member", "-n", "2", "--word", "2 2"], 1,
     "not a member: wicket 1 maps to 2 -1 -2 1\n"),
    (["plat", "info", "--bridge", "3", "--top", "1 2 -4 -4 5", "--json"], 0,
     '{"components": 2, "crossings": 5, "linking": 1}\n'),
    (["plat", "info", "--bridge", "2", "--top", "1 2 3", "--json"], 0,
     '{"components": 1, "crossings": 3, "linking": null}\n'),
    (["sweep", "--family", "hopf", "--from", "1", "--to", "1", "--json"], 0,
     '[{"family": "hopf", "n": 1, "strands": 11, "logLambda": 0.543535, "normalized": 5.97889, '
     '"pennerBound": 0.0216608, "converged": true}]\n'),
    # 34 handle rewrites on a word that is not freely reduced
    (["braid", "normalize", "-n", "4", MANY_REWRITES], 0,
     "3 -2 1 -3 -2 -2 -2 3 3 3 1 -3 -3 2 3 1 -3 -2 3 -2 1 -3 2 3 1 1 -3 -2 -2 -2\n"),
    # both seed multicurves proved linear: a certified 0
    (["entropy", "-n", "6", "--word", "2 3"], 0, "log lambda = 0 [sub-exponential, converged=True]\n"),
    (["entropy", "-n", "3", "--word", "1 2"], 0, "log lambda = 0 [sub-exponential, converged=True]\n"),
    (["entropy", "-n", "7", "--word", "6 -6 3 4 1 2"], 0,
     "log lambda = 0 [sub-exponential, converged=True]\n"),
    # one seed is proved at k = 10 or 20, the other only at k = 40
    (["entropy", "-n", "7", "--word", "3 3 -1 1 -2 -5 3 2 -3 5 -5 -5"], 0,
     "log lambda = 0 [sub-exponential, converged=True]\n"),
    (["entropy", "-n", "8", "--word", "3 5 -2 6 7 -3 -1"], 0,
     "log lambda = 0 [sub-exponential, converged=True]\n"),
])
def test_output_bytes(capsys, argv, code, out):
    assert run(argv) == code
    assert capsys.readouterr() == (out, "")


def test_letter_out_of_range_is_a_usage_error(capsys):
    assert run(["braid", "eq", "-n", "3", "2 0 5", ""]) == 2
    assert capsys.readouterr() == ("", "error: letter 0 out of range for 3 strands\n")


def test_step_cap_one_short_of_many_rewrites(capsys, monkeypatch):
    monkeypatch.setattr(wordproblem, "MAX_HANDLE_STEPS", 33)
    assert run(["braid", "normalize", "-n", "4", MANY_REWRITES]) == 3
    assert capsys.readouterr() == (
        "", "error: handle reduction exceeded 33 steps on a word of length 48\n")


def test_console_script_exits_with_the_code_of_run(capsys, monkeypatch):
    # main calls run(), which reads sys.argv[1:]
    monkeypatch.setattr(sys, "argv", ["goeritz", "braid", "eq", "-n", "3", "1", "2"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 1
    assert capsys.readouterr().out == "not equal\n"
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "argv", ["goeritz", "constants", "--h", "32", "--bogus"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", USAGE + "goeritz: error: unrecognized arguments: --bogus\n")


def test_entropy_json(capsys):
    assert run(["entropy", "-n", "3", "--word", "1 -2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["logLambda"] - 0.962424) < 1e-5
    assert payload["classification"] == "exponential"


def test_plat_info(capsys):
    assert run(["plat", "info", "--bridge", "2", "--bottom", "2 2"]) == 0
    out = capsys.readouterr().out
    assert "components: 2" in out and "|lk|: 1" in out


def test_mcg_commands(capsys):
    full_twist_word = "1 2 3 1 2 1 1 2 3 1 2 1"
    assert run(["mcg", "-n", "4", full_twist_word, ""]) == 0
    assert run(["mcg", "-n", "3", "1", "2"]) == 1


def test_mcg_of_a_shared_prefix_costs_only_the_difference(capsys):
    # a (a r)^-1 = a r^-1 a^-1 is a conjugate of r^-1, for r the sphere
    # relator, so it is decided on a rotation of r^-1, 6 letters.  The Artin
    # loop over the whole freely reduced quotient builds images of more than
    # 10^7 letters.
    rng = random.Random(5)
    a = " ".join(str(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(200))
    start = time.monotonic()
    assert run(["mcg", "-n", "4", a, f"{a} 1 2 3 3 2 1"]) == 0
    elapsed = time.monotonic() - start
    assert capsys.readouterr().out == "equal mapping classes\n"
    assert elapsed < 0.5
    # sigma_1^2 is the Dehn twist about a curve around 2 of the 4 punctures.
    assert run(["mcg", "-n", "4", a, f"{a} 1 1"]) == 1
    assert capsys.readouterr().out == "distinct mapping classes\n"


def test_constants_json(capsys):
    assert run(["constants", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ceilR"] == 897
    assert payload["N"] == 3796.0


def test_sweep_tsv_columns(capsys):
    assert run(["sweep", "--family", "unknot", "--from", "1", "--to", "1",
                "--max-iter", "1500"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t") == [
        "family", "n", "strands", "logLambda", "normalized", "pennerBound", "converged",
    ]
    row = lines[1].split("\t")
    assert row[0] == "unknot" and row[1] == "1" and row[2] == "10"
    # normalized is recomputable from the row
    assert abs(float(row[4]) - 10 * float(row[3])) < 1e-4


def test_deterministic_output(capsys):
    run(["entropy", "-n", "3", "--word", "1 -2", "--json"])
    first = capsys.readouterr().out
    run(["entropy", "-n", "3", "--word", "1 -2", "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_usage_error_exit_code():
    assert run(["braid", "frobnicate", "-n", "3", "1"]) == 2
    assert run(["wicket", "member", "-n", "2", "--word", "oops"]) == 2


def test_sweep_json_roundtrip(capsys):
    assert run(["sweep", "--family", "hopf", "--from", "1", "--to", "1",
                "--max-iter", "1500", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["family"] == "hopf" and rows[0]["strands"] == 11
    assert rows[0]["converged"] is True
    assert abs(rows[0]["normalized"] - rows[0]["strands"] * rows[0]["logLambda"]) < 1e-3


def test_sweep_estimate_below_penner_bound(capsys, monkeypatch):
    def below_bound(word, **kwargs):
        return lamination.EntropyReport(
            word_length=len(word), strands=word.strands, iterations=10,
            log_lambda=0.0, converged=True,
            classification="sub-exponential",
        )

    monkeypatch.setattr(lamination, "entropy_estimate", below_bound)
    with pytest.raises(lamination.BoundViolation):
        lamination.family_sweep("hopf", [1])
    assert run(["sweep", "--family", "unknot", "--from", "1", "--to", "1"]) == 4
    assert capsys.readouterr().err.startswith("error: estimate 0.0 below")


def test_braid_takes_its_number_of_words(capsys):
    for argv in (
        ["braid", "eq", "-n", "3", "1"],
        ["braid", "eq", "-n", "3", "1", "2", "1"],
        ["braid", "normalize", "-n", "3", "1", "2"],
    ):
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: braid")


def test_constants_non_finite_h_is_a_usage_error(capsys):
    for h in ("nan", "inf", "1e306"):
        assert run(["constants", "--h", h]) == 2
        assert capsys.readouterr().err.startswith("error: h")


def test_step_cap_is_read_on_every_call(capsys, monkeypatch):
    default = wordproblem.MAX_HANDLE_STEPS
    normalize = ["braid", "normalize", "-n", "3", "1 2 -1"]
    entropy = ["entropy", "-n", "3", "--word", "1 -2"]
    assert run(normalize) == 0 and run(entropy) == 0
    monkeypatch.setattr(wordproblem, "MAX_HANDLE_STEPS", 0)
    assert run(normalize) == 3
    # The cap bounds handle reduction only: entropy keeps --max-iter.
    monkeypatch.setattr(wordproblem, "MAX_HANDLE_STEPS", 5)
    assert run(entropy) == 0
    assert run([*entropy, "--max-iter", "5"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["log lambda = 0.962424 [exponential, converged=True]",
                          "log lambda = 0.963438 [inconclusive, converged=False]"]
    monkeypatch.setattr(wordproblem, "MAX_HANDLE_STEPS", default)
    assert run(normalize) == 0 and run(entropy) == 0
    assert "converged=True" in capsys.readouterr().out.splitlines()[-1]


def test_step_cap_spares_trivial_words(capsys, monkeypatch):
    # Triviality is decided without handle reduction, so the cap applies to
    # normalizing nontrivial words only.
    monkeypatch.setattr(wordproblem, "MAX_HANDLE_STEPS", 0)
    assert run(["braid", "normalize", "-n", "3", "1 -1"]) == 0
    assert capsys.readouterr().out.strip() == "(empty word)"
    assert run(["braid", "eq", "-n", "5", "2 3 2 3 2 3", "3 3 2 3 3 2"]) == 0
    assert run(["braid", "eq", "-n", "3", "1 2 -1", "2"]) == 1
    assert run(["braid", "normalize", "-n", "3", "1 2 -1"]) == 3


def test_entropy_of_zero_growth_prints_zero(capsys):
    assert run(["entropy", "-n", "5", "--word", "-4 -3 -1 -2"]) == 0
    assert capsys.readouterr().out.strip() == "log lambda = 0 [sub-exponential, converged=True]"


def test_image_letter_cap_is_resource_exhaustion(capsys, monkeypatch):
    wicket = ["wicket", "member", "-n", "3", "--word", "3 3 2 3 3 2"]
    goeritz = ["goeritz", "member", "--bridge", "3", "--top", "", "--bottom", "",
               "--word", "3 3 2 3 3 2"]
    mcg = ["mcg", "-n", "4", "1 2 3 1 2 1 1 2 3 1 2 1", ""]
    assert run(wicket) == 0 and run(goeritz) == 0 and run(mcg) == 0
    capsys.readouterr()
    monkeypatch.setattr(freegroup, "MAX_IMAGE_LETTERS", 10)
    # The starting images count too, also when the word is empty; an empty
    # mcg core is the identity and builds none.
    assert run(["mcg", "-n", "20", "", ""]) == 0
    assert capsys.readouterr() == ("equal mapping classes\n", "")
    starts = (["mcg", "-n", "20", "1 1", ""], ["wicket", "member", "-n", "10", "--word", ""],
              ["wicket", "member", "-n", "10", "--word", "19 -19 1 1"])
    for argv in (wicket, goeritz, mcg, *starts):
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Artin images exceeded 10 letters")


def equal_pair(n):
    """delta sigma_1 and sigma_2 delta on n strands, delta = sigma_1 ... sigma_{n-1}:
    equal, since delta conjugates sigma_1 to sigma_2.  Their quotient
    delta sigma_1 delta^-1 sigma_2^-1 is cyclically reduced: 2n letters."""
    delta = " ".join(map(str, range(1, n)))
    return f"{delta} 1", f"2 {delta}"


def test_curve_step_cap_is_resource_exhaustion(capsys, monkeypatch):
    # On 3000 strands the quotient's 6000 letters cost 2 x 6000 multicurve
    # steps, under the cap.
    n = 3000
    a, b = equal_pair(n)
    assert run(["braid", "eq", "-n", str(n), a, b]) == 0
    assert capsys.readouterr().out.strip() == "equal"
    # Past the cap braid eq stops at once.
    monkeypatch.setattr(wordproblem, "MAX_CURVE_STEPS", 11_999)
    assert run(["braid", "eq", "-n", str(n), a, b]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: multicurve test needs 12000 steps, over the cap of 11999\n"
    # normalize falls back to handle reduction, which needs one step here.
    quotient = " ".join([a, *(str(-int(x)) for x in reversed(b.split()))])
    assert run(["braid", "normalize", "-n", str(n), quotient]) == 0
    assert capsys.readouterr().out.strip() == "(empty word)"


def test_braid_eq_on_many_strands_is_fast(capsys):
    # 2 multicurves x 4000 letters, where the 1999 seed curves cost 8 x 10^6 steps.
    n = 2000
    start = time.monotonic()
    assert run(["braid", "eq", "-n", str(n), *equal_pair(n)]) == 0
    elapsed = time.monotonic() - start
    assert capsys.readouterr().out.strip() == "equal"
    assert elapsed < 1.0


def test_mcg_on_many_strands_is_fast(capsys):
    # An empty core is the identity, and purity is checked on the strands
    # the core moves, so no answer pays for the strand count; "1 5999999"
    # moves positions far apart, which a mapping, not a list over the span
    # between them, carries.
    for words, code, out in ((["", ""], 0, "equal mapping classes\n"),
                             (["5999999", ""], 1, "distinct mapping classes\n"),
                             (["1 5999999", ""], 1, "distinct mapping classes\n")):
        start = time.monotonic()
        assert run(["mcg", "-n", "6000000", *words]) == code
        elapsed = time.monotonic() - start
        assert capsys.readouterr() == (out, "")
        assert elapsed < 1.0


def test_entropy_on_many_strands_is_fast(capsys):
    # The word moves 4 of the strands; the coordinates of the others stay
    # constant and are not iterated, nor kept in the orbit history (280 MB
    # at 400 000 strands when they were), nor built as seed vectors (260 MB
    # at 4 000 000).
    for strands in ("400000", "4000000"):
        argv = ["entropy", "-n", strands, "--word", "1 2 -3"]
        start = time.monotonic()
        assert run(argv) == 0
        elapsed = time.monotonic() - start
        assert capsys.readouterr() == ("log lambda = 0.831443 [exponential, converged=True]\n", "")
        assert elapsed < 1.0
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2 ** 20
        capsys.readouterr()


def test_estimate_parameters_are_usage_errors(capsys):
    entropy = ["entropy", "-n", "3", "--word", "1 -2"]
    sweep = ["sweep", "--family", "hopf", "--from", "1", "--to", "1"]
    for argv in (entropy, sweep):
        assert run([*argv, "--max-iter", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: max_iterations")
    assert run([*entropy, "--max-iter", "0"]) == 3
    assert "inconclusive" in capsys.readouterr().out


def test_tolerance_is_not_an_option(capsys):
    # The convergence tolerance is lamination.TOLERANCE, which no option sets.
    for argv in (["entropy", "-n", "3", "--word", "1 -2"],
                 ["sweep", "--family", "hopf", "--from", "1", "--to", "1"]):
        assert run([*argv, "--tol", "1e-8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("goeritz: error: unrecognized arguments: --tol 1e-8\n")
    assert run(["entropy", "--help"]) == 0
    assert "--tol" not in capsys.readouterr().out


def test_sweep_empty_range_is_a_usage_error(capsys):
    for start, end in (("3", "1"), ("1", "0")):
        assert run(["sweep", "--family", "hopf", "--from", start, "--to", end]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: empty range")


def test_no_state_carries_between_calls(capsys):
    assert run(["entropy", "--help"]) == 0
    help_text = capsys.readouterr().out
    assert run(["constants", "--json"]) == 0
    json.loads(capsys.readouterr().out)
    assert run(["constants"]) == 0
    assert capsys.readouterr().out.startswith("m = ")
    assert run(["entropy", "-n", "3", "--word", "1 -2", "--max-iter", "50", "--json"]) == 0
    capsys.readouterr()
    assert run(["entropy", "--help"]) == 0
    assert capsys.readouterr().out == help_text


JUNK = ["", "0", "99", "oops", "nan", "inf", "-1", "1e306", "-h"]


@st.composite
def cli_argvs(draw):
    """Argument lists for every verb: small strand counts, words of up to 8
    letters (mostly within the strand count), junk tokens, and sometimes one
    token dropped or inserted.  Sweeps always keep a small --max-iter."""
    junk = st.sampled_from(JUNK)

    def words(strands, count):
        top = max(strands - 1, 1) if draw(st.integers(0, 3)) else 6
        letters = st.lists(st.integers(-top, top).filter(bool), max_size=8)
        return [" ".join(map(str, draw(letters))) for _ in range(count)]

    def option(flag, values):
        return draw(st.sampled_from([[], [flag, draw(values)]]))

    verb = draw(st.sampled_from(
        ["braid", "wicket", "goeritz", "entropy", "sweep", "plat", "mcg", "constants", "oops"]
    ))
    n = draw(st.integers(0, 6))
    arcs = draw(st.integers(0, 3))
    if verb == "braid":
        action = draw(st.sampled_from(["eq", "normalize", "eq", "normalize", "oops"]))
        count = draw(st.sampled_from([1, 2, 1, 2, 0, 3]))
        argv = ["braid", action, "-n", str(n), *words(n, count)]
    elif verb == "wicket":
        word, conj = words(2 * arcs, 2)
        tangle = st.sampled_from(["A", "B", "C", "D", "conj:" + conj])
        argv = ["wicket", "member", "-n", str(arcs), "--word", word, *option("--tangle", tangle)]
    elif verb in ("goeritz", "plat"):
        top, bottom, word = words(2 * arcs, 3)
        argv = [verb, "member" if verb == "goeritz" else "info", "--bridge", str(arcs),
                *option("--top", st.just(top)), *option("--bottom", st.just(bottom))]
        if verb == "goeritz":
            argv += ["--word", word]
    elif verb == "entropy":
        argv = ["entropy", "-n", str(n), "--word", *words(n, 1),
                *option("--max-iter", st.one_of(st.integers(0, 50).map(str), junk))]
    elif verb == "sweep":
        bound = st.sampled_from(["-1", "0", "1"])
        argv = ["sweep", "--family", draw(st.sampled_from(["unknot", "hopf", "oops"])),
                "--from", draw(bound), "--to", draw(bound),
                "--max-iter", str(draw(st.integers(0, 50)))]
    elif verb == "mcg":
        argv = ["mcg", "-n", str(n), *words(n, draw(st.sampled_from([2, 2, 1, 3])))]
    elif verb == "constants":
        argv = ["constants", "--h", draw(st.sampled_from(JUNK + ["1", "0.25", "32"]))]
    else:
        argv = draw(st.lists(st.one_of(junk, st.integers(0, 6).map(str)), max_size=4))
    argv += draw(st.sampled_from([[], ["--json"]]))
    edit = draw(st.sampled_from(["none", "none", "none", "drop", "insert"]))
    if verb != "sweep" and argv and edit != "none":
        pos = draw(st.integers(0, len(argv) - (edit == "drop")))
        if edit == "drop":
            del argv[pos]
        else:
            argv.insert(pos, draw(junk))
    return argv


def _captured_run(argv, runner=run):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = runner(list(argv))
    return code, out.getvalue(), err.getvalue()


def _reference_run(argv):
    """run as it was before the verb dispatch: every argv through the
    top-level parser's parse_args, under run's exception mapping."""
    parser, _ = cli._parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return cli.EXIT_USAGE if exc.code not in (0, None) else cli.EXIT_OK
    except wordproblem.ResourceExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_RESOURCES
    except lamination.BoundViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_BOUND
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_USAGE


@settings(max_examples=500, deadline=None)
@given(cli_argvs())
def test_cli_parse_paths(argv):
    result = _captured_run(argv)
    assert result[0] in (0, 1, 2, 3, 4)
    assert _captured_run(argv, _reference_run) == result
    # One cache_clear rebuilds the top-level parser and the verb table.
    before = cli._parser()
    cli._parser.cache_clear()
    assert all(new is not old for new, old in zip(cli._parser(), before))
    assert _captured_run(argv) == result


# The top-level parser's paths, byte for byte: no verb, help, an unknown
# verb, an option before the verb, and arguments the verb leaves unread.
@pytest.mark.parametrize("argv, result", [
    ([], (2, "", USAGE + "goeritz: error: the following arguments are required: command\n")),
    (["-h"], (0, USAGE + (
        "\n"
        "Wicket-group certification, braid word problem, and dilatation estimates on\n"
        "lamination coordinates.\n"
        "\n"
        "positional arguments:\n"
        "  {braid,wicket,goeritz,entropy,sweep,plat,mcg,constants}\n"
        "    braid               word problem utilities\n"
        "    wicket              wicket group membership\n"
        "    goeritz             certify a Goeritz element\n"
        "    entropy             growth-rate estimate for one braid\n"
        "    sweep               normalized-entropy family sweep\n"
        "    plat                plat invariants of a decomposition\n"
        "    mcg                 mapping-class equality on the sphere\n"
        "    constants           the finiteness constants\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ), "")),
    (["bogus"], (2, "", USAGE + (
        "goeritz: error: argument command: invalid choice: 'bogus' (choose from 'braid', "
        "'wicket', 'goeritz', 'entropy', 'sweep', 'plat', 'mcg', 'constants')\n"
    ))),
    (["--json", "constants"], (2, "", USAGE + "goeritz: error: unrecognized arguments: --json\n")),
    (["braid"], (2, "", BRAID_USAGE + (
        "goeritz braid: error: the following arguments are required: action, -n/--strands, words\n"
    ))),
    (["braid", "-h"], (0, BRAID_USAGE + (
        "\n"
        "positional arguments:\n"
        "  {eq,normalize}\n"
        "  words\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  -n STRANDS, --strands STRANDS\n"
        "  --json\n"
    ), "")),
    (["constants", "--h", "32", "--bogus"],
     (2, "", USAGE + "goeritz: error: unrecognized arguments: --bogus\n")),
    (["mcg", "-n", "3", "1", "2", "3"], (2, "", USAGE + "goeritz: error: unrecognized arguments: 3\n")),
])
def test_top_level_parse_path_bytes(monkeypatch, argv, result):
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap at the terminal width
    assert _captured_run(argv) == result


# Whole sweep outputs of the family words X Y^(2n+1) and X Z^(2n+1), which
# the shorter X Y^-2 and X Z^-2 that family_sweep iterates must reproduce.
SWEEP_UNKNOT_1_3 = (
    'family\tn\tstrands\tlogLambda\tnormalized\tpennerBound\tconverged\n'
    'unknot\t1\t10\t0.543535\t5.43535\t0.0247553\tTrue\n'
    'unknot\t2\t14\t0.382245\t5.35143\t0.0157533\tTrue\n'
    'unknot\t3\t18\t0.295442\t5.31795\t0.0115525\tTrue\n'
)
SWEEP_HOPF_1_3_JSON = (
    '[{"family": "hopf", "n": 1, "strands": 11, "logLambda": 0.543535,'
    ' "normalized": 5.97889, "pennerBound": 0.0216608, "converged": true}, '
    '{"family": "hopf", "n": 2, "strands": 15, "logLambda": 0.382245,'
    ' "normalized": 5.73368, "pennerBound": 0.0144406, "converged": true}, '
    '{"family": "hopf", "n": 3, "strands": 19, "logLambda": 0.295442,'
    ' "normalized": 5.6134, "pennerBound": 0.0108304, "converged": true}]\n'
)
SWEEP_HOPF_2_25 = (
    'family\tn\tstrands\tlogLambda\tnormalized\tpennerBound\tconverged\n'
    'hopf\t2\t15\t0.392423\t5.88635\t0.0144406\tFalse\n'
)


@pytest.mark.parametrize("argv, result", [
    (["sweep", "--family", "unknot", "--from", "1", "--to", "3"], (0, SWEEP_UNKNOT_1_3, "")),
    (["sweep", "--family", "hopf", "--from", "1", "--to", "3", "--json"], (0, SWEEP_HOPF_1_3_JSON, "")),
    (["sweep", "--family", "hopf", "--from", "2", "--to", "2", "--max-iter", "25"], (3, SWEEP_HOPF_2_25, "")),
])
def test_sweep_output_bytes(argv, result):
    assert _captured_run(argv) == result
