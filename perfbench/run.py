"""galinv benchmark: three single-threaded, closed-loop workloads.

    python3 perfbench/run.py --workload classify-grid --seed 1 --seconds 25 --trace 0

Workloads: classify-grid, boost-scan, cli-session (see README.md).  Run
from the root of a source tree holding `src/galinv`; nothing is built
or installed.  Each workload runs in a worker process of its own, one
operation at a time.  `--trace 0` prints the end-to-end metrics of an
untraced worker.  `--trace 1` runs an untraced worker for a third of the
time and a traced one for the rest, and prints the per-layer metrics,
counted per round, plus the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classify-grid", "boost-scan", "cli-session")
SETUP_SAMPLES = 5
DEADLINE_S = 170

PF = "classify.classify_power_form"
C2 = "classify.classify_second_order"
ROTATION = "checks.check_rotation_invariance"
ROTATION_WITNESS = "checks._rotation_witness"
BOOST_WITNESS = "checks._boost_witness"


def _worker(argv: list[str], deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_layer(result: dict) -> dict[str, tuple[float, str]]:
    """Per-round layer figures from a traced worker's aggregates."""
    a = result["aggregates"]
    rounds = result["rounds"]

    def get(kind, name):
        return a[kind].get(name, 0.0)

    def ms(name):
        return get("incl", name) * 1000 / rounds

    def calls(name):
        return get("calls", name) / rounds

    def self_ms(prefix):
        return sum(v for k, v in a["self"].items() if k.startswith(prefix)) * 1000 / rounds

    def stage(child, parents=(PF, C2)):
        return sum(get("edges", f"{p}>{child}") for p in parents) * 1000 / rounds

    def ratio(found, attempts):
        return found / attempts if attempts else 0.0

    cli = result.get("cli") or {}
    rotation_attempts = (get("scoped", f"{ROTATION_WITNESS}>multipoly.substitute")
                         + get("probes", "checks.rotation.reflection_witnesses"))
    figures = {
        "checks.rotation.ms": (ms(ROTATION), "ms"),
        "checks.rotation.substitutions":
            (get("scoped", f"{ROTATION}>multipoly.substitute") / rounds, "count"),
        "checks.rotation.witness_yield":
            (ratio(get("calls", ROTATION_WITNESS), rotation_attempts), "ratio"),
        "matrices.orthogonal.built": (calls("matrices.OrthogonalMatrix.new"), "count"),
        "matrices.self_ms": (self_ms("matrices."), "ms"),
        "actions.rotation_symbol_bindings.calls":
            (calls("actions.rotation_symbol_bindings"), "count"),
        "actions.conj_boost_gauge.ms": (ms("actions.conj_boost_gauge"), "ms"),
        "checks.boost.ms": (ms("checks.check_boost_invariance_fixed_gauge"), "ms"),
        "checks.boost.residue_terms": (get("probes", "checks.boost.residue_terms") / rounds, "count"),
        "checks.boost.witness_yield": (ratio(get("calls", BOOST_WITNESS),
                                             get("scoped", f"{BOOST_WITNESS}>multipoly.evaluate")),
                                       "ratio"),
        "oracle.defect.ms": (ms("oracle.boost_commutator_defect"), "ms"),
        "waves.differentiate.calls": (calls("waves.differentiate"), "count"),
        "classify.power_form.ms": (ms(PF), "ms"),
        "classify.second_order.ms": (ms(C2), "ms"),
        "classify.stage.translation.ms": (stage("checks.check_translation_invariance"), "ms"),
        "classify.stage.rotation.ms": (stage(ROTATION), "ms"),
        "classify.stage.radial.ms": (stage("checks.radial_decompose", (C2,)), "ms"),
        "classify.stage.mu_rewrite.ms": (stage("classify._mu_rewrite", (PF,)), "ms"),
        "classify.stage.resynthesis.ms": (stage("classify.synthesize", (PF,)), "ms"),
        "classify.stage.boost.ms":
            (stage("checks.check_boost_invariance_fixed_gauge", (C2,)), "ms"),
        "lpdo.symbol_of.calls": (calls("lpdo.symbol_of"), "count"),
        "lpdo.symbol_of.ms": (ms("lpdo.symbol_of"), "ms"),
        "lpdo.compose_const.ms": (ms("lpdo.compose_const"), "ms"),
        "gaussrat.mul.calls": (calls("gaussrat.mul"), "count"),
        "gaussrat.new.calls": (calls("gaussrat.GaussianRational.new"), "count"),
        "gaussrat.self_ms": (self_ms("gaussrat."), "ms"),
        "multipoly.mul.calls": (calls("multipoly.mul"), "count"),
        "multipoly.partial.calls": (calls("multipoly.partial"), "count"),
        "multipoly.substitute.calls": (calls("multipoly.substitute"), "count"),
        "multipoly.substitute.ms": (ms("multipoly.substitute"), "ms"),
        "multipoly.evaluate.calls": (calls("multipoly.evaluate"), "count"),
        "multipoly.self_ms": (self_ms("multipoly."), "ms"),
        "multipoly.terms_out": (get("probes", "multipoly.terms_out") / rounds, "count"),
        "multipoly.max_terms": (get("probes", "multipoly.max_terms"), "count"),
        "opparse.parse.ms": (ms("opparse.parse_operator"), "ms"),
        "opparse.format.ms": (ms("opparse.format_operator"), "ms"),
        "cli.import_ms": (cli.get("import_ms", 0.0), "ms"),
        "cli.main.ms": (cli.get("main_ms", 0.0), "ms"),
        "cli.process_overhead_ms": (cli.get("process_overhead_ms", 0.0), "ms"),
    }
    return figures


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "galinv" / "__init__.py").is_file():
        print(f"error: no galinv source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    # The first import in a fresh tree compiles bytecode; keep it out of setup_s.
    _worker(common + ["--setup-only"], deadline)
    setup = [_worker(common + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]

    if not args.trace:
        result = _worker(common + ["--seconds", str(args.seconds), "--trace", "0"], deadline)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (result["wall_s"], "s"),
            "case_p50_ms": (result["case_p50_ms"], "ms"),
            "case_p90_ms": (result["case_p90_ms"], "ms"),
            "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
        }
        runs = [result]
    else:
        base = _worker(common + ["--seconds", str(args.seconds / 3), "--trace", "0"], deadline)
        traced = _worker(common + ["--seconds", str(args.seconds * 2 / 3), "--trace", "1"], deadline)
        metrics = per_layer(traced)
        metrics["trace.overhead_s"] = (traced["wall_s"] - base["wall_s"], "s")
        runs = [base, traced]

    for run in runs:
        print(f"# {args.workload} seed={args.seed} rounds={run['rounds']} "
              f"attempted={run['attempted']} failed={run['failed']} "
              f"failures={run['failures']} host_scale={run['host_scale']:.4f} "
              f"raw_wall_s={run['raw_wall_s']:.4f}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
