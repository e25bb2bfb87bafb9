"""Command-line frontend.

Exit codes: 0 success, 1 mathematically negative verdict, 2 usage error
(including a negative --max-iter and a sweep with --from greater than --to),
3 resource exhaustion (the multicurve-step cap of `braid eq`, 2 steps per
letter; the handle-reduction step cap, which `braid normalize` meets only
on words it cannot show trivial by the seed multicurves; the Artin
image-letter cap; or an `entropy` or `sweep` run that did not converge
within --max-iter), 4 an estimate below a proven bound (a fault, never a
verdict).  Verdict-bearing commands accept --json; the sweep also emits
TSV with the pinned column order family, n, strands, logLambda,
normalized, pennerBound, converged.
Words are whitespace-separated signed integers; strand counts are always
passed separately.

`run` parses the arguments after the verb with that verb's parser, as the
top-level parser would.  When no verb leads (no arguments, `-h`, `--json`,
a typo) or some are left unread, it falls back to the top-level parser,
which reports them in its own words.  Both parsers are built once per
process, on the first call to `run`.
The three caps are module constants, read when a call meets them:
wordproblem.MAX_HANDLE_STEPS, wordproblem.MAX_CURVE_STEPS and
freegroup.MAX_IMAGE_LETTERS.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import constants, lamination, wicket, wordproblem
from .words import BraidWord, format_word, parse_word

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_RESOURCES = 3
EXIT_BOUND = 4

# The sweep's TSV header, the columns of its rows, and the keys of its JSON objects.
_SWEEP_COLUMNS = ("family", "n", "strands", "logLambda", "normalized", "pennerBound", "converged")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _parse_tangle(text: str, arcs: int) -> wicket.TrivialTangle:
    if text == "A":
        return wicket.standard_tangle(arcs)
    if text == "B":
        return wicket.tangle_B(arcs)
    if text == "C":
        return wicket.tangle_C(arcs)
    if text.startswith("conj:"):
        return wicket.TrivialTangle(arcs, parse_word(text[5:], 2 * arcs))
    raise ValueError(f"unknown tangle literal {text!r}")


def _emit(payload: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def cmd_braid(args: argparse.Namespace) -> int:
    n = args.strands
    expected = 2 if args.action == "eq" else 1
    if len(args.words) != expected:
        raise ValueError(f"braid {args.action} takes {expected} word(s), got {len(args.words)}")
    if args.action == "eq":
        a = parse_word(args.words[0], n)
        b = parse_word(args.words[1], n)
        equal = wordproblem.braid_equal(a, b)
        _emit({"equal": equal}, args.json, "equal" if equal else "not equal")
        return EXIT_OK if equal else EXIT_FALSE
    word = parse_word(args.words[0], n)
    try:
        trivial = wordproblem.is_trivial(word)
    except wordproblem.ResourceExhausted:
        # Past the multicurve-step cap, leave the word to handle reduction and its step cap.
        trivial = False
    reduced = BraidWord(n) if trivial else wordproblem.handle_reduce(word)
    _emit(
        {"strands": n, "word": format_word(reduced)},
        args.json,
        format_word(reduced) if reduced.letters else "(empty word)",
    )
    return EXIT_OK


def _membership(
    args: argparse.Namespace, report: wicket.MembershipReport, key: str, yes: str, no: str
) -> int:
    """Print a membership verdict; a negative one names its wicket and witness."""
    payload = {key: report.verdict}
    text = yes
    if not report.verdict:
        witness = " ".join(str(l) for l in report.witness.letters)
        payload.update({"witness_index": report.witness_index, "witness": witness})
        text = f"{no}: wicket {report.witness_index} maps to {witness}"
    _emit(payload, args.json, text)
    return EXIT_OK if report.verdict else EXIT_FALSE


def _decomposition(args: argparse.Namespace) -> wicket.BridgeDecomposition:
    n = args.bridge
    return wicket.BridgeDecomposition(n, parse_word(args.top, 2 * n), parse_word(args.bottom, 2 * n))


def cmd_wicket(args: argparse.Namespace) -> int:
    word = parse_word(args.word, 2 * args.arcs)
    tangle = _parse_tangle(args.tangle, args.arcs)
    report = wicket.member_sw(word, tangle)
    return _membership(args, report, "member", "member", "not a member")


def cmd_goeritz(args: argparse.Namespace) -> int:
    dec = _decomposition(args)
    word = parse_word(args.word, 2 * args.bridge)
    report = wicket.is_goeritz_element(dec, word)
    return _membership(args, report, "goeritz", "certified Goeritz element", "not a Goeritz element")


def cmd_entropy(args: argparse.Namespace) -> int:
    word = parse_word(args.word, args.strands)
    report = lamination.entropy_estimate(word, max_iterations=args.max_iter)
    payload = {
        "strands": report.strands,
        "length": report.word_length,
        "logLambda": float(_fmt(report.log_lambda)),
        "converged": report.converged,
        "classification": report.classification,
    }
    text = (
        f"log lambda = {_fmt(report.log_lambda)} "
        f"[{report.classification}, converged={report.converged}]"
    )
    _emit(payload, args.json, text)
    return EXIT_OK if report.converged else EXIT_RESOURCES


def cmd_sweep(args: argparse.Namespace) -> int:
    # Disk estimates: for small indices the spherical entropy may differ.
    if args.start > args.end:
        raise ValueError(f"empty range: --from {args.start} is greater than --to {args.end}")
    records = lamination.family_sweep(
        args.family, range(args.start, args.end + 1), max_iterations=args.max_iter
    )
    rows = [
        dict(zip(_SWEEP_COLUMNS, (
            r.family, r.n, r.strands,
            float(_fmt(r.log_lambda)), float(_fmt(r.normalized)), float(_fmt(r.penner_bound)),
            r.converged,
        )))
        for r in records
    ]
    if args.json:
        print(json.dumps(rows))
    else:
        print("\t".join(_SWEEP_COLUMNS))
        for row in rows:
            print("\t".join(_fmt(v) if isinstance(v, float) else str(v) for v in row.values()))
    return EXIT_OK if all(r.converged for r in records) else EXIT_RESOURCES


def cmd_plat(args: argparse.Namespace) -> int:
    inv = wicket.plat_invariants(_decomposition(args))
    linking = "-" if inv.linking is None else str(inv.linking)
    _emit(
        {
            "components": inv.components,
            "linking": inv.linking,
            "crossings": inv.crossings,
        },
        args.json,
        f"components: {inv.components}  |lk|: {linking}  crossings: {inv.crossings}",
    )
    return EXIT_OK


def cmd_mcg(args: argparse.Namespace) -> int:
    n = args.strands
    equal = wordproblem.mcg_equal(parse_word(args.words[0], n), parse_word(args.words[1], n))
    _emit({"equal": equal}, args.json, "equal mapping classes" if equal else "distinct mapping classes")
    return EXIT_OK if equal else EXIT_FALSE


def cmd_constants(args: argparse.Namespace) -> int:
    report = constants.solve_R(args.h)
    payload = {
        "h": report.h,
        "m": report.m,
        "R": report.R,
        "ceilR": report.ceil_R,
        "twoRplusTwo": report.two_R_plus_two,
        "quasiconvexityCap": report.quasiconvexity_cap,
        "delta": report.delta,
        "N": report.N,
    }
    text = (
        f"m = {_fmt(report.m)}  R = {_fmt(report.R)}  ceil(R) = {report.ceil_R}\n"
        f"2R+2 = {_fmt(report.two_R_plus_two)} (cap {_fmt(report.quasiconvexity_cap)})\n"
        f"N = max(2K+4, 2K+2*{_fmt(report.delta)}) = {_fmt(report.N)}"
    )
    _emit(payload, args.json, text)
    return EXIT_OK


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser of the `goeritz` command and its verbs' parsers by name,
    built on first use, not at import.

    Parsing leaves them unchanged.
    """
    parser = argparse.ArgumentParser(
        prog="goeritz",
        description="Wicket-group certification, braid word problem, and "
        "dilatation estimates on lamination coordinates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("braid", help="word problem utilities")
    p.add_argument("action", choices=["eq", "normalize"])
    p.add_argument("-n", "--strands", type=int, required=True)
    p.add_argument("words", nargs="+")
    p.set_defaults(func=cmd_braid)

    p = sub.add_parser("wicket", help="wicket group membership")
    p.add_argument("action", choices=["member"])
    p.add_argument("-n", "--arcs", dest="arcs", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--tangle", default="A")
    p.set_defaults(func=cmd_wicket)

    p = sub.add_parser("goeritz", help="certify a Goeritz element")
    p.add_argument("action", choices=["member"])
    p.add_argument("--bridge", type=int, required=True)
    p.add_argument("--top", default="")
    p.add_argument("--bottom", default="")
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_goeritz)

    p = sub.add_parser("entropy", help="growth-rate estimate for one braid")
    p.add_argument("-n", "--strands", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--max-iter", type=int, default=200)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("sweep", help="normalized-entropy family sweep")
    p.add_argument("--family", choices=["unknot", "hopf"], required=True)
    p.add_argument("--from", dest="start", type=int, default=1)
    p.add_argument("--to", dest="end", type=int, default=8)
    p.add_argument("--max-iter", type=int, default=4000)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plat", help="plat invariants of a decomposition")
    p.add_argument("action", choices=["info"])
    p.add_argument("--bridge", type=int, required=True)
    p.add_argument("--top", default="")
    p.add_argument("--bottom", default="")
    p.set_defaults(func=cmd_plat)

    p = sub.add_parser("mcg", help="mapping-class equality on the sphere")
    p.add_argument("-n", "--strands", type=int, required=True)
    p.add_argument("words", nargs=2)
    p.set_defaults(func=cmd_mcg)

    p = sub.add_parser("constants", help="the finiteness constants")
    p.add_argument("--h", type=float, default=constants.H_ZERO)
    p.set_defaults(func=cmd_constants)

    # Added last, so it is every verb's last option, also in --help.
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser, sub.choices


def run(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, verbs = _parser()
    try:
        verb = verbs.get(argv[0]) if argv else None
        args, extras = verb.parse_known_args(argv[1:]) if verb else (None, None)
        if args is None or extras:
            # The top-level parser reports these in its own words.
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except wordproblem.ResourceExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCES
    except lamination.BoundViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
