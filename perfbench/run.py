"""The goeritz benchmark: seeded closed-loop workloads through the CLI.

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One client sends each query into
`goeritz.cli.run(argv)` in this process and waits for it to return before
sending the next.  A pass sends the workload's fixed query list once,
after two fresh set-ups; passes repeat while another fits in `--seconds`
(at least one runs).  Every answer is checked.  Times are scaled to a
nominal host speed by a reference kernel timed between queries
(reference.py).  The last line of stdout is one JSON object: the
end-to-end metrics with `--trace 0`, or the per-layer metrics of one
extra traced pass with `--trace 1`.  `--workload all` runs each workload
in its own process and prints one row per workload.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from oracles import check  # noqa: E402
from reference import Reference  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 2  # set-ups before each pass; the last one's inputs are used


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "GOERITZ_MAX_STEPS": os.environ.get("GOERITZ_MAX_STEPS"),
    }


def _purge_goeritz() -> None:
    for name in [n for n in sys.modules if n == "goeritz" or n.startswith("goeritz.")]:
        del sys.modules[name]


def setup(workload: str, seed: int):
    """Import goeritz afresh and build the inputs; return (cli, queries, s)."""
    _purge_goeritz()
    start = time.perf_counter()
    import goeritz  # noqa: F401
    import goeritz.cli as cli

    queries = WORKLOADS[workload](seed)
    return cli, queries, time.perf_counter() - start


def run_pass(cli, queries, ref: Reference, tracer=None):
    """Send every query once; return (latencies, failures).  A latency is
    (seconds, index of the reference sample taken before it)."""
    latencies = []
    failures = []
    for i, q in enumerate(queries):
        at = ref.due()
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.query_id = i
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.run(list(q.argv))
            except Exception:  # an uncaught exception is a failed query
                code = None
                traceback.print_exc()
            latencies.append((time.perf_counter() - start, at))
        reason = check(q.expect, code, out.getvalue(), err.getvalue())
        if tracer is not None:
            tracer.counters["cli.exit2"] += code == 2
            tracer.counters["cli.resource_errors"] += code == 3 and "error:" in err.getvalue()
        if reason is not None:
            failures.append((q.argv, reason))
    return latencies, failures


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Passes over the query list, each after SETUPS fresh set-ups, while
    another fits in `seconds`; at least one runs.  Times are scaled by the
    reference kernel sampled around them (reference.py)."""
    os.environ.pop("GOERITZ_MAX_STEPS", None)
    ref = Reference()
    setups: list[tuple[float, int]] = []
    passes: list[list[tuple[float, int]]] = []
    failures: list = []
    begin = time.perf_counter()
    while not passes or (
        (time.perf_counter() - begin)
        + statistics.median(sum(t for t, _ in lat) for lat in passes)
        + sum(t for t, _ in setups[-SETUPS:])
        <= seconds
    ):
        for _ in range(SETUPS):
            cli = queries = None
            gc.collect()  # each set-up starts from the same heap, not the last one's garbage
            at = ref.sample()
            cli, queries, took = setup(workload, seed)
            setups.append((took, at))
        lat, fail = run_pass(cli, queries, ref)
        passes.append(lat)
        failures += fail
        if len(passes) == 1:  # so that the peak does not grow with the number of passes
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref.sample()  # the sample after the last query

    def scaled(lat):
        return [t * ref.scale(at) for t, at in lat]

    pass_s = [math.fsum(scaled(lat)) for lat in passes]
    result = {
        "attempted": sum(map(len, passes)),
        "failures": failures,
        "queries": len(queries),
        "passes": [sum(t for t, _ in lat) for lat in passes],
        "reference_ms": 1e3 * statistics.median(ref.samples),
    }
    if not trace:
        # each query's latency is its median over the passes
        latencies = [statistics.median(ts) for ts in zip(*map(scaled, passes))]
        q = statistics.quantiles(latencies, n=100, method="inclusive")
        result["metrics"] = {
            "setup_s": statistics.median(t * ref.scale(at) for t, at in setups),
            "wall_s": statistics.median(pass_s),
            "query_p50_ms": 1e3 * statistics.median(latencies),
            "query_p90_ms": 1e3 * q[89],
            "peak_rss_mb": peak_mb,
        }
        return result

    tracer = Tracer()
    tracer.install()
    try:
        lat, fail = run_pass(cli, queries, ref, tracer)
    finally:
        tracer.uninstall()
    ref.sample()
    result["attempted"] += len(queries)
    result["failures"] += fail
    metrics = layer_metrics(tracer.spans, tracer.counters)
    metrics["trace.overhead_frac"] = math.fsum(scaled(lat)) / statistics.median(pass_s) - 1
    result["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    header = {"workload": workload, "seed": seed, "env": environment(), "metrics": metrics}
    tracer.write(str(OUT / f"spans-{workload}-seed{seed}.jsonl.gz"), header)
    return result


def units(trace: bool) -> dict:
    """Metric name to unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args) -> int:
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    failures = result["failures"]
    for argv, reason in failures[:10]:
        print(f"FAILED {' '.join(repr(a) for a in argv)}: {reason}", file=sys.stderr)
    unit = units(bool(args.trace))
    attempted = result["attempted"]
    print(json.dumps({"env": environment(), "queries_per_pass": result["queries"],
                      "unscaled_pass_s": result["passes"],
                      "reference_ms": result["reference_ms"]}, sort_keys=True))
    print(f"{args.workload}: fail_frac {len(failures) / attempted:.4g} "
          f"({len(failures)} of {attempted})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in result["metrics"].items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; one table row per workload."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    for name, res in rows:
        cells = [f"fail_frac={res['failed'] / res['attempted']:.4g} (of {res['attempted']})"]
        cells += [f"{k}={m['value'] if isinstance(m['value'], int) else format(m['value'], '.6g')} "
                  f"{m['unit']}" for k, m in res["metrics"].items()]
        print(f"{name:14s} " + "  ".join(cells))
    return 0 if all(res["correct"] for _, res in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "goeritz" / "__init__.py").is_file():
        print(f"error: no goeritz sources under {SRC}; run from a goeritz checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
