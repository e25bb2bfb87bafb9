"""Outside-in tracing of goeritz: wraps public functions, records spans.

The tracer never edits goeritz's source.  It replaces a public function in
every goeritz module namespace that binds it (`from .freegroup import
artin_action` copies the binding into `wicket` and `wordproblem`), and a
method on its class.  Each call records a span (name, start, end, parent
span index, query id) in memory; counters are derived from arguments and
return values only.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter
from typing import Callable, Iterable, Optional

# A span: (name, start, end, parent index or -1, query id).
Span = tuple[str, float, float, int, int]


def _count_handle_reduce(c: Counter, args: tuple, result) -> None:
    c["wordproblem.handle_reduce.letters_in"] += len(args[0].letters)
    c["wordproblem.handle_reduce.letters_out"] += len(result.letters)


def _count_artin(c: Counter, args: tuple, result) -> None:
    letters = sum(len(image.letters) for image in result.images)
    c["freegroup.image_letters"] += letters
    c["freegroup.image_letters_max"] = max(c["freegroup.image_letters_max"], letters)


def _count_member(c: Counter, args: tuple, result) -> None:
    c["wicket.wickets_checked"] += result.checked


def _count_entropy(c: Counter, args: tuple, result) -> None:
    c["lamination.iterations"] += result.iterations
    c["lamination.letter_steps"] += result.iterations * result.word_length


# (module, attribute, span name, counter).  An attribute with a dot is a
# method on a class in that module.
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("cli", "run", "cli.run", None),
    ("words", "parse_word", "words.parse_word", None),
    ("words", "compose", "words.compose", None),
    ("words", "inverse", "words.inverse", None),
    ("words", "entropy_family_word", "words.entropy_family_word", None),
    ("words", "BraidWord.__pow__", "words.BraidWord.__pow__", None),
    ("wordproblem", "handle_reduce", "wordproblem.handle_reduce", _count_handle_reduce),
    ("wordproblem", "mcg_equal", "wordproblem.mcg_equal", None),
    ("freegroup", "artin_action", "freegroup.artin_action", _count_artin),
    ("freegroup", "FreeEndo.__call__", "freegroup.endo_apply", None),
    ("freegroup", "is_inner", "freegroup.is_inner", None),
    ("wicket", "member_sw", "wicket.member_sw", _count_member),
    ("lamination", "entropy_estimate", "lamination.entropy_estimate", _count_entropy),
    ("plat", "standard_pairing", "plat.standard_pairing", None),
    ("plat", "conjugated_pairing", "plat.conjugated_pairing", None),
    ("plat", "component_count", "plat.component_count", None),
    ("plat", "plat_linking", "plat.plat_linking", None),
    ("plat", "plat_invariants_of", "plat.plat_invariants_of", None),
    ("constants", "solve_m", "constants.solve_m", None),
    ("constants", "finiteness_constant", "constants.finiteness_constant", None),
    ("constants", "solve_R", "constants.solve_R", None),
)


class Tracer:
    """Installs wrappers on the loaded goeritz modules; `uninstall` undoes it."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.counters: Counter = Counter()
        self.query_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.query_id)
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "goeritz" or n.startswith("goeritz."))]
        for module_name, attr, span_name, count in TARGETS:
            module = sys.modules[f"goeritz.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, method, self._wrap(span_name, getattr(cls, method), count))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span_name, original, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: str, header: dict) -> None:
        """Write the header and one JSON line per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


# ------------------------------------------------------------- arithmetic


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of the intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, _, _) in enumerate(spans):
        kids = [(max(s, start), min(e, end)) for s, e in children.get(index, ()) if e > start and s < end]
        out.append((end - start) - covered(kids))
    return out


def layer_metrics(spans: list[Span], counters: Counter) -> dict[str, float]:
    """Per-layer metrics from one traced pass, by the names in BENCHMARK.json."""
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    by_name: dict[str, list[tuple[float, float]]] = {}
    by_layer: dict[str, list[tuple[float, float]]] = {}
    for span, own in zip(spans, selfs):
        name, start, end = span[0], span[1], span[2]
        calls[name] += 1
        self_s[name] += own
        by_name.setdefault(name, []).append((start, end))
        by_layer.setdefault(name.split(".")[0], []).append((start, end))

    def busy(name: str) -> float:
        return covered(by_name.get(name, ()))

    def layer_busy(layer: str) -> float:
        return covered(by_layer.get(layer, ()))

    words_calls = sum(n for name, n in calls.items() if name.startswith("words."))
    lam_busy = busy("lamination.entropy_estimate")
    return {
        "cli.run.calls": calls["cli.run"],
        "cli.run.self_s": self_s["cli.run"],
        "cli.exit2": counters["cli.exit2"],
        "cli.resource_errors": counters["cli.resource_errors"],
        "words.calls": words_calls,
        "words.busy_s": layer_busy("words"),
        "wordproblem.handle_reduce.calls": calls["wordproblem.handle_reduce"],
        "wordproblem.handle_reduce.busy_s": busy("wordproblem.handle_reduce"),
        "wordproblem.handle_reduce.letters_in": counters["wordproblem.handle_reduce.letters_in"],
        "wordproblem.handle_reduce.letters_out": counters["wordproblem.handle_reduce.letters_out"],
        "wordproblem.mcg_equal.calls": calls["wordproblem.mcg_equal"],
        "wordproblem.mcg_equal.self_s": self_s["wordproblem.mcg_equal"],
        "freegroup.artin_action.calls": calls["freegroup.artin_action"],
        "freegroup.artin_action.busy_s": busy("freegroup.artin_action"),
        "freegroup.image_letters": counters["freegroup.image_letters"],
        "freegroup.image_letters_max": counters["freegroup.image_letters_max"],
        "freegroup.endo_apply.busy_s": busy("freegroup.endo_apply"),
        "freegroup.is_inner.busy_s": busy("freegroup.is_inner"),
        "wicket.member_sw.calls": calls["wicket.member_sw"],
        "wicket.member_sw.self_s": self_s["wicket.member_sw"],
        "wicket.wickets_checked": counters["wicket.wickets_checked"],
        "lamination.entropy_estimate.calls": calls["lamination.entropy_estimate"],
        "lamination.entropy_estimate.busy_s": lam_busy,
        "lamination.iterations": counters["lamination.iterations"],
        "lamination.letter_steps": counters["lamination.letter_steps"],
        "lamination.letter_steps_per_s": counters["lamination.letter_steps"] / lam_busy if lam_busy else 0.0,
        "plat.busy_s": layer_busy("plat"),
        "constants.busy_s": layer_busy("constants"),
    }
