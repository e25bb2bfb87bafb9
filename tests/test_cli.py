import json

import pytest

from goeritz import lamination
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


def test_malformed_step_cap_is_a_usage_error(capsys, monkeypatch):
    for value in ("abc", "-1"):
        monkeypatch.setenv("GOERITZ_MAX_STEPS", value)
        assert run(["braid", "normalize", "-n", "3", "1 -1 2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "GOERITZ_MAX_STEPS" in err


def test_sweep_estimate_below_penner_bound(capsys, monkeypatch):
    def below_bound(word, **kwargs):
        return lamination.EntropyReport(
            word_length=len(word), strands=word.strands, iterations=10,
            log_lambda=0.0, window_estimates=(0.0,), converged=True,
            classification="sub-exponential",
        )

    monkeypatch.setattr(lamination, "entropy_estimate", below_bound)
    with pytest.raises(lamination.BoundViolation):
        lamination.family_sweep("hopf", [1])
    assert run(["sweep", "--family", "unknot", "--from", "1", "--to", "1"]) == 4
    assert capsys.readouterr().err.startswith("error: estimate 0.0 below")
