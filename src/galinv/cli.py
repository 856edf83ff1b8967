"""Command-line front end.

Subcommands: check-translation, check-rotation, check-boost, classify2,
classifym, synthesize, theta, oracle.  Results are printed as a report,
either human-readable lines (default) or machine-parseable ``key=value``
lines with ``--format kv``.  Exit status: 0 for accept/invariant, 1 for
reject/not-invariant, 2 for usage or parse errors, 3 for an internal
error (a failed cross-check or any other unexpected exception).  A
reader closing stdout early does not change the status.

All numbers are exact rationals, printed as ``p/q``; never decimals.
"""

from __future__ import annotations

# Every subcommand needs the largest module.  Loaded first: compiled after
# argparse and dataclasses it leaves each process's peak RSS 0.6-0.9 MiB higher.
from . import multipoly  # noqa: F401

import argparse
import os
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from . import _on_first_use
from .actions import GaugePhase, QUADRATIC, boost_phase_poly, gauge_phase
from .gaussrat import format_gaussian
from .lpdo import LPDO
from .universe import DEFAULT_SEED

if TYPE_CHECKING:
    from .checks import CheckReport

# What the subcommands call beyond building the parser and printing a
# report, imported on first use: a process loads only what its
# subcommand runs.  Calls read these as attributes of this module.
__getattr__ = _on_first_use(globals(), {name: home for home, names in (
    ("checks", "check_boost_invariance_fixed_gauge check_rotation_invariance "
               "check_translation_invariance"),
    ("classify", "classify_power_form classify_second_order synthesize"),
    ("opparse", "format_operator parse_gaussian_literal parse_operator"),
    ("oracle", "SamplePlan boost_commutator_defect random_rational"),
) for name in names.split()})

# Report fields whose kv key differs from the field name.
_RENAMED = {"lam": "lambda"}


@dataclass
class Report:
    """Structured command output with stable field names."""

    verdict: str | None = None
    stage: str | None = None
    alpha: str | None = None
    beta: str | None = None
    lam: str | None = None
    theta: str | None = None
    n: str | None = None
    m: str | None = None
    seed: str | None = None
    coeffs: str | None = None
    certificate: str | None = None
    witness: str | None = None
    operator: str | None = None

    def items(self) -> list[tuple[str, str]]:
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                out.append((_RENAMED.get(f.name, f.name), str(value)))
        return out

    def to_kv(self) -> str:
        return "\n".join(f"{key}={value}" for key, value in self.items())

    def to_text(self) -> str:
        return "\n".join(f"{key}: {value}" for key, value in self.items())

    @classmethod
    def from_kv(cls, text: str) -> "Report":
        by_key = {_RENAMED.get(f.name, f.name): f.name for f in fields(cls)}
        report = cls()
        for line in text.splitlines():
            if not line.strip():
                continue
            key, sep, value = line.partition("=")
            if not sep or key not in by_key:
                raise ValueError(f"not a report line: {line!r}")
            setattr(report, by_key[key], value)
        return report


def theta_text(phase: GaugePhase) -> str:
    """Render the gauge phase family, e.g. "c + v.x - (1/2)t|v|^2"."""
    if phase.kind != QUADRATIC:
        return "x-independent"

    def signed(coef: Fraction, symbol: str) -> str:
        if not coef:
            return ""
        sign = "+" if coef > 0 else "-"
        mag = abs(coef)
        body = symbol if mag == 1 else f"({mag}){symbol}"
        return f" {sign} {body}"

    return "c" + signed(phase.lam, "v.x") + signed(-phase.lam / 2, "t|v|^2")


def _witness_text(report: CheckReport) -> str | None:
    from .checks import BoostWitness, RotationWitness, TranslationWitness

    witness = report.witness
    if witness is None:
        return None
    if isinstance(witness, TranslationWitness):
        j, alpha = witness.key
        return (
            f"shift (s={witness.shift.s}, y={_vec(witness.shift.y)}) moves the "
            f"coefficient at dt^{j} dx^{alpha}"
        )
    if isinstance(witness, RotationWitness):
        return f"rotation {witness.rotation} does not fix the operator"
    if isinstance(witness, BoostWitness):
        return (
            f"boost v={_vec(witness.v)} breaks commutation at "
            f"tau={witness.tau}, xi={_vec(witness.xi)}"
        )
    return str(witness)


def _vec(values) -> str:
    return "(" + ",".join(str(v) for v in values) + ")"


def _check_report(result: CheckReport, op: LPDO) -> tuple[Report, int]:
    report = Report(
        verdict="invariant" if result.invariant else "not-invariant",
        n=str(op.n),
        m=str(op.order),
        certificate=result.certificate,
        witness=_witness_text(result),
    )
    return report, 0 if result.invariant else 1


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational p/q")


def _parse_vector(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(piece.strip()) for piece in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated vector")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galinv",
        description="Exact invariance checks and classification for linear "
        "partial differential operators under the Galilei group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, operator: bool = True):
        if operator:
            p.add_argument("operator", help="operator expression, e.g. '2i*Dt + Lap'")
            p.add_argument("--n", type=int, default=None, help="spatial dimension")
        p.add_argument(
            "--format", choices=("text", "kv"), default="text", dest="format_"
        )

    common(sub.add_parser("check-translation", help="translation invariance"))
    common(sub.add_parser("check-rotation", help="rotation invariance"))
    p = sub.add_parser("check-boost", help="boost invariance at a fixed gauge")
    common(p)
    p.add_argument("--lambda", dest="lam", type=_parse_fraction, required=True)
    common(sub.add_parser("classify2", help="second-order classification"))
    p = sub.add_parser("classifym", help="power-form classification at fixed lambda")
    common(p)
    p.add_argument("--lambda", dest="lam", type=_parse_fraction, required=True)
    p = sub.add_parser("synthesize", help="build sum a_j (2i*lambda*Dt + Lap)^j")
    common(p, operator=False)
    p.add_argument("--lambda", dest="lam", type=_parse_fraction, required=True)
    p.add_argument("--coeffs", required=True, help="comma list, e.g. '0,1' or '5,2i'")
    p.add_argument("--n", type=int, required=True)
    p = sub.add_parser("theta", help="the boost gauge phase")
    common(p, operator=False)
    p.add_argument("--lambda", dest="lam", type=_parse_fraction, required=True)
    p.add_argument("--c", type=_parse_fraction, default=Fraction(0))
    p.add_argument("--v", type=_parse_vector, default=None)
    p.add_argument("--n", type=int, default=None)
    p = sub.add_parser("oracle", help="boost commutation via direct differentiation")
    common(p)
    p.add_argument("--lambda", dest="lam", type=_parse_fraction, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--count", type=int, default=5)
    return parser


def _run(args) -> tuple[Report, int]:
    command, cli = args.command, sys.modules[__name__]
    if command in ("check-translation", "check-rotation", "check-boost",
                   "classify2", "classifym", "oracle"):
        op = cli.parse_operator(args.operator, args.n)
    if command == "check-translation":
        return _check_report(cli.check_translation_invariance(op), op)
    if command == "check-rotation":
        return _check_report(cli.check_rotation_invariance(op), op)
    if command == "check-boost":
        return _check_report(cli.check_boost_invariance_fixed_gauge(op, args.lam), op)
    if command == "classify2":
        verdict = cli.classify_second_order(op)
        if verdict.accepted:
            report = Report(
                verdict="accept",
                alpha=format_gaussian(verdict.alpha),
                beta=format_gaussian(verdict.beta),
                lam=str(verdict.lam),
                theta=theta_text(verdict.theta),
                n=str(op.n),
                m=str(op.order),
            )
            return report, 0
        report = Report(
            verdict="reject",
            stage=verdict.stage,
            lam=format_gaussian(verdict.lam_value) if verdict.lam_value else None,
            n=str(op.n),
            m=str(op.order),
            witness=_witness_text(verdict.report) if verdict.report else None,
        )
        return report, 1
    if command == "classifym":
        verdict = cli.classify_power_form(op, args.lam)
        if verdict.accepted:
            report = Report(
                verdict="accept",
                lam=str(verdict.lam),
                coeffs=",".join(format_gaussian(c) for c in verdict.coeffs),
                n=str(op.n),
                m=str(op.order),
            )
            return report, 0
        report = Report(
            verdict="reject",
            stage=verdict.stage,
            lam=str(verdict.lam),
            n=str(op.n),
            m=str(op.order),
            witness=_witness_text(verdict.report) if verdict.report else None,
        )
        return report, 1
    if command == "synthesize":
        coeffs = [cli.parse_gaussian_literal(piece) for piece in args.coeffs.split(",")]
        op = cli.synthesize(args.lam, coeffs, args.n)
        report = Report(
            verdict="ok",
            lam=str(args.lam),
            coeffs=",".join(format_gaussian(c) for c in coeffs),
            n=str(op.n),
            m=str(op.order),
            operator=cli.format_operator(op),
        )
        return report, 0
    if command == "theta":
        if args.n is not None and args.n < 1:
            raise ValueError("spatial dimension must be at least 1")
        if args.lam == 0:
            return Report(verdict="ok", lam="0", theta="x-independent"), 0
        if args.v is not None:
            n = args.n if args.n is not None else len(args.v)
            if len(args.v) != n:
                raise ValueError(f"v has {len(args.v)} components, n = {n}")
            poly = boost_phase_poly(args.lam, args.c, n, v=args.v)
            return Report(verdict="ok", lam=str(args.lam), theta=str(poly), n=str(n)), 0
        phase = gauge_phase(args.lam, args.c)
        return Report(verdict="ok", lam=str(args.lam), theta=theta_text(phase)), 0
    if command == "oracle":
        import random

        plan = cli.SamplePlan(seed=args.seed, count=args.count)
        rng = random.Random(plan.seed)
        for _ in range(plan.count):
            v = tuple(cli.random_rational(rng, 3) for _ in range(op.n))
            defect = cli.boost_commutator_defect(op, args.lam, v)
            if not defect.is_zero:
                report = Report(
                    verdict="not-invariant",
                    lam=str(args.lam),
                    seed=str(args.seed),
                    n=str(op.n),
                    m=str(op.order),
                    witness=f"defect at v={_vec(v)}: {defect}",
                )
                return report, 1
        report = Report(
            verdict="invariant",
            lam=str(args.lam),
            seed=str(args.seed),
            n=str(op.n),
            m=str(op.order),
            certificate=f"zero defect on {plan.count} sampled boosts",
        )
        return report, 0
    raise ValueError(f"unknown command {command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        report, status = _run(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Imported here: loading traceback adds about 2 ms to every run.
        import traceback

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3
    try:
        print(report.to_kv() if args.format_ == "kv" else report.to_text())
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early.  Point stdout at devnull so the flush
        # at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return status


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
