"""One workload in its own process: set up, time whole rounds, check.

    python3 perfbench/worker.py --workload classify-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/worker.py --workload classify-grid --seed 1 --setup-only

A round is the workload's fixed list of operations, run one at a time by
a single caller.  Rounds repeat until `--seconds` have passed and at
least MIN_OPS operations were timed, so every run attempts whole rounds.
The outputs of the first round are checked against answers computed
apart from the program; every later round must reproduce them exactly.
The last line of standard output is one JSON object.

Times are reported at a fixed host speed.  On a shared host the same
work runs 25-40% slower for stretches of seconds to minutes, as other
tenants load the machine.  So before every operation the worker times
`reference()`, a fixed loop of `fractions.Fraction` arithmetic that
never touches the program, and scales the operation's time by
REFERENCE_S / (mean of the reference times just before and just after
it).  A change to the program moves the
operation times and not the reference, so it shows in full; a slower
host moves both, and cancels.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
MIN_OPS = 100
API = ("classify-grid", "boost-scan")
# What one reference() takes at the speed all times are reported at:
# about its mean on a 2.1 GHz Xeon core shared with other tenants.
REFERENCE_S = 0.001
SETUP_REFERENCES = 20


def reference() -> float:
    """Seconds taken by a fixed loop of exact rational arithmetic."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    return time.perf_counter() - start


def host_scale(references) -> float:
    return REFERENCE_S / statistics.mean(references)


def _args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _api_setup(workload: str, seed: int):
    """import galinv plus building the inputs: the set-up a user pays."""
    start = time.perf_counter()
    import galinv
    import galinv.universe
    import grid

    if workload == "classify-grid":
        specs = grid.classify_grid_specs(seed)
    else:
        specs = grid.boost_scan_specs(seed)
    ops = grid.build_ops(galinv, specs)
    return time.perf_counter() - start, galinv, ops


def _cli_setup():
    """A cold `import galinv`, as each `galinv` process pays it."""
    start = time.perf_counter()
    import galinv  # noqa: F401

    return time.perf_counter() - start


def _rounds(ops, run_one, seconds: float):
    """Time whole rounds; return each op's seconds per round, the
    reference times taken just before and just after it, and the outputs."""
    samples: list[list[float]] = [[] for _ in ops]
    references: list[list[float]] = [[] for _ in ops]
    after: list[list[float]] = [[] for _ in ops]
    rounds = 0
    first: list = []
    mismatched: set[int] = set()
    clock = time.perf_counter
    begin = clock()
    while True:
        outputs = []
        for index, op in enumerate(ops):
            references[index].append(reference())
            t0 = clock()
            try:
                out = (run_one(index, op), None)
            except Exception as exc:  # an operation that raises counts as failed
                out = (None, f"{type(exc).__name__}: {exc}"[:300])
            samples[index].append(clock() - t0)
            outputs.append(out)
            if index:
                after[index - 1].append(references[index][-1])
        after[-1].append(reference())
        rounds += 1
        if not first:
            first = outputs
        else:
            for index, (out, ref) in enumerate(zip(outputs, first)):
                if out[1] != ref[1] or (out[1] is None and not out[0] == ref[0]):
                    mismatched.add(index)
        if clock() - begin >= seconds and rounds * len(ops) >= MIN_OPS:
            brackets = [
                [(a + b) / 2 for a, b in zip(before, behind)]
                for before, behind in zip(references, after)
            ]
            return samples, brackets, rounds, first, mismatched


def _failed(items, first, mismatched: set[int], check) -> set[int]:
    """Indices of operations that raised, changed between rounds, or whose
    first-round output fails its check."""
    failed = set()
    for index, (item, (out, error)) in enumerate(zip(items, first)):
        ok = error is None and index not in mismatched
        if ok:
            try:
                ok = bool(check(item, out))
            except Exception:  # a check that cannot complete fails its operation
                ok = False
        if not ok:
            failed.add(index)
    return failed


def _summary(samples, references, rounds: int, ops, failed: set[int], known: set[int]):
    """An operation's time is the median over the rounds of its time at
    the reference host speed.  A failed operation fails in every round,
    so `failed` counts whole rounds."""
    per_op = [
        statistics.median(t * REFERENCE_S / ref for t, ref in zip(times, refs))
        for times, refs in zip(samples, references)
    ]
    ms = sorted(t * 1000 for t in per_op)
    return {
        "wall_s": sum(per_op),
        "host_scale": host_scale([ref for refs in references for ref in refs]),
        "raw_wall_s": sum(statistics.mean(times) for times in samples),
        "case_p50_ms": statistics.median(ms),
        "case_p90_ms": statistics.quantiles(ms, n=10)[8],
        "rounds": rounds,
        "attempted": rounds * len(ops),
        "failed": rounds * len(failed),
        "failures": [ops[i].label for i in sorted(failed)],
        "correct": failed <= known,
    }


def run_api(args) -> dict:
    _, galinv, ops = _api_setup(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(galinv)
        run_one = lambda index, op: tracer.run_op(index, op.run)
    else:
        run_one = lambda index, op: op.run()
    samples, references, rounds, first, mismatched = _rounds(ops, run_one, args.seconds)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    aggregates = None
    if tracer is not None:
        aggregates = tracer.aggregates()
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
    failed = _failed(ops, first, mismatched, lambda op, out: op.check(out))
    result = _summary(samples, references, rounds, ops, failed, set())
    result.update(peak_rss_mib=peak, aggregates=aggregates)
    return result


def run_cli(args) -> dict:
    import session

    commands = session.commands(args.seed)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    trace_log = OUT / f"cli-{args.seed}.jsonl"
    if args.trace:
        trace_log.write_text("")
        prefix = [sys.executable, str(HERE / "tracer.py"), str(trace_log), "--"]
    else:
        prefix = [sys.executable, "-m", "galinv"]

    def run_one(index, command):
        proc = subprocess.run(
            prefix + command.argv, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=60,
        )
        return proc.returncode, proc.stdout

    samples, references, rounds, first, mismatched = _rounds(commands, run_one, args.seconds)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    failed = _failed(commands, first, mismatched, lambda command, out: command.check(*out))
    known = {i for i, c in enumerate(commands) if c.known_fault}
    result = _summary(samples, references, rounds, commands, failed, known)
    result.update(peak_rss_mib=peak, aggregates=None)
    if args.trace:
        from tracer import merge

        records = [json.loads(line) for line in trace_log.read_text().splitlines()]
        process_ms = [times[r] * 1000 for r in range(rounds) for times in samples]
        result["aggregates"] = merge(records)
        result["cli"] = {
            "import_ms": statistics.median(r["import_ms"] for r in records),
            "main_ms": statistics.median(r["main_ms"] for r in records),
            "process_overhead_ms": statistics.median(
                wall - r["import_ms"] - r["install_ms"] - r["main_ms"]
                for wall, r in zip(process_ms, records)
            ),
        }
        with open(OUT / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump({"processes": records}, fh)
    return result


def main(argv=None) -> int:
    args = _args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.setup_only:
        if args.workload in API:
            setup_s = _api_setup(args.workload, args.seed)[0]
        else:
            setup_s = _cli_setup()
        scale = host_scale([reference() for _ in range(SETUP_REFERENCES)])
        print(json.dumps({"setup_s": setup_s * scale, "raw_setup_s": setup_s}))
        return 0
    OUT.mkdir(exist_ok=True)
    result = run_api(args) if args.workload in API else run_cli(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
