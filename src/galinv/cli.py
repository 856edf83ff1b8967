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
# argparse it leaves each process's peak RSS 0.5-1.0 MiB higher.
from . import multipoly  # noqa: F401

import argparse
import gc
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence

from . import _on_first_use
from .actions import GaugePhase, QUADRATIC, _check_components, boost_phase_poly, gauge_phase
from .gaussrat import format_gaussian
from .lpdo import _check_dimension
from .universe import DEFAULT_SEED, random_rational

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
    ("oracle", "SamplePlan boost_commutator_defect"),
) for name in names.split()})

# The report's keys, in the order they are printed.
_KEYS = ("verdict", "stage", "alpha", "beta", "lambda", "theta", "n", "m", "seed", "coeffs",
         "certificate", "witness", "operator")


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


def _option(read: Callable[[str], object], message: str) -> Callable[[str], object]:
    """An option's type: read(text), or argparse's error with the value put
    into `message`, cut to its first 20 characters and its length when it is
    longer than 40."""

    def parse(text: str):
        try:
            return read(text)
        except (ValueError, ZeroDivisionError):
            shown = repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"
            raise argparse.ArgumentTypeError(message.format(shown))

    return parse


_FRACTION = _option(Fraction, "{} is not a rational p/q")
_VECTOR = _option(lambda text: tuple(Fraction(piece.strip()) for piece in text.split(",")),
                  "{} is not a comma-separated vector")
_INT = _option(int, "invalid int value: {}")  # argparse's own words for type=int


# Subcommand -> (help, reads an operator, takes --lambda), in help order.
_COMMANDS = {
    "check-translation": ("translation invariance", True, False),
    "check-rotation": ("rotation invariance", True, False),
    "check-boost": ("boost invariance at a fixed gauge", True, True),
    "classify2": ("second-order classification", True, False),
    "classifym": ("power-form classification at fixed lambda", True, True),
    "synthesize": ("build sum a_j (2i*lambda*Dt + Lap)^j", False, True),
    "theta": ("the boost gauge phase", False, True),
    "oracle": ("boost commutation via direct differentiation", True, True),
}


# The options of each subcommand that take a value.
_VALUED = {name: ("--format", "--n") + ("--lambda",) * lam for name, (_, _, lam) in _COMMANDS.items()}
_VALUED["synthesize"] += ("--coeffs",)
_VALUED["theta"] += ("--c", "--v")
_VALUED["oracle"] += ("--seed", "--count")


def build_arg_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The galinv parser.  Every subcommand is registered with its help, so
    usage lines and errors name all eight; given a subcommand, only its
    subparser gets arguments, since parsing that command reads no other."""
    parser = argparse.ArgumentParser(
        prog="galinv",
        description="Exact invariance checks and classification for linear "
        "partial differential operators under the Galilei group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, operator, lam) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command not in (None, name):
            continue
        if operator:
            p.add_argument("operator", help="operator expression, e.g. '2i*Dt + Lap'")
            p.add_argument("--n", type=_INT, default=None, help="spatial dimension")
        p.add_argument("--format", choices=("text", "kv"), default="text", dest="format_")
        if lam:
            p.add_argument("--lambda", dest="lam", type=_FRACTION, required=True)
        if name == "synthesize":
            p.add_argument("--coeffs", required=True, help="comma list, e.g. '0,1' or '5,2i'")
            p.add_argument("--n", type=_INT, required=True)
        elif name == "theta":
            p.add_argument("--c", type=_FRACTION, default=Fraction(0))
            p.add_argument("--v", type=_VECTOR, default=None)
            p.add_argument("--n", type=_INT, default=None)
        elif name == "oracle":
            p.add_argument("--seed", type=_INT, default=DEFAULT_SEED)
            p.add_argument("--count", type=_INT, default=5)
    return parser


def _run(args) -> tuple[dict[str, str | None], int]:
    """The report, keyed as printed, and the exit status."""
    command, cli = args.command, sys.modules[__name__]
    if command == "synthesize":
        coeffs = [cli.parse_gaussian_literal(piece) for piece in args.coeffs.split(",")]
        op = cli.synthesize(args.lam, coeffs, args.n)
        text = ",".join(format_gaussian(c) for c in coeffs)
        return {"verdict": "ok", "lambda": str(args.lam), "coeffs": text, "n": str(op.n), "m": str(op.order),
                "operator": cli.format_operator(op)}, 0
    if command == "theta":
        n = args.n if args.n is not None or args.v is None else len(args.v)
        if n is not None:
            _check_dimension(n)
        _check_components("v", args.v, n)
        report = {"verdict": "ok", "lambda": str(args.lam)}
        if args.v is None or not args.lam:
            report["theta"] = theta_text(gauge_phase(args.lam, args.c))
        else:
            report["theta"], report["n"] = str(boost_phase_poly(args.lam, args.c, n, v=args.v)), str(n)
        return report, 0

    op = cli.parse_operator(args.operator, args.n)
    report = {"n": str(op.n), "m": str(op.order)}
    if command.startswith("check-"):
        if command == "check-translation":
            result = cli.check_translation_invariance(op)
        elif command == "check-rotation":
            result = cli.check_rotation_invariance(op)
        else:
            result = cli.check_boost_invariance_fixed_gauge(op, args.lam)
        report["verdict"] = "invariant" if result.invariant else "not-invariant"
        report["certificate"], report["witness"] = result.certificate, _witness_text(result)
        return report, 0 if result.invariant else 1
    if command in ("classify2", "classifym"):
        second = command == "classify2"
        verdict = cli.classify_second_order(op) if second else cli.classify_power_form(op, args.lam)
        if verdict.accepted or not second:
            report["lambda"] = str(verdict.lam)
        elif verdict.lam_value:
            report["lambda"] = format_gaussian(verdict.lam_value)
        if verdict.accepted:
            report["verdict"] = "accept"
            if second:
                report["alpha"], report["beta"] = format_gaussian(verdict.alpha), format_gaussian(verdict.beta)
                report["theta"] = theta_text(verdict.theta)
            else:
                report["coeffs"] = ",".join(format_gaussian(c) for c in verdict.coeffs)
            return report, 0
        report["verdict"], report["stage"] = "reject", verdict.stage
        report["witness"] = _witness_text(verdict.report) if verdict.report else None
        return report, 1
    if command == "oracle":
        import random

        plan = cli.SamplePlan(seed=args.seed, count=args.count)
        rng = random.Random(plan.seed)
        report["lambda"], report["seed"] = str(args.lam), str(args.seed)
        for _ in range(plan.count):
            v = ()
            while not any(v):  # the identity boost commutes with every operator: draw again
                v = tuple(random_rational(rng, 3) for _ in range(op.n))
            defect = cli.boost_commutator_defect(op, args.lam, v)
            if not defect.is_zero:
                report["verdict"], report["witness"] = "not-invariant", f"defect at v={_vec(v)}: {defect}"
                return report, 1
        report["verdict"] = "invariant"
        report["certificate"] = f"zero defect on {plan.count} sampled boosts"
        return report, 0
    raise ValueError(f"unknown command {command!r}")


def _dashed(argv: list[str]) -> list[str]:
    """argv with each value that begins with "-" marked as a value, which
    argparse would read as an option unless it looks like a negative number:
    after an option that takes one, it is joined to it as --opt=value, and an
    operator, the first operand, moves to the end, after "--".  "-h" and the
    tokens that begin with "--" stay options; argv that holds "--" already
    is left as it is."""
    if not argv or argv[0] not in _COMMANDS or "--" in argv:
        return argv

    def option(token: str) -> bool:
        return token == "-h" or token.startswith("--")

    valued, operator = _VALUED[argv[0]], _COMMANDS[argv[0]][1]
    out, moved, seen, i = argv[:1], [], not operator, 1
    while i < len(argv):
        token, i = argv[i], i + 1
        if i < len(argv) and not option(argv[i]) and option(token) and any(v.startswith(token) for v in valued):
            value, i = argv[i], i + 1
            out += [f"{token}={value}"] if value.startswith("-") else [token, value]
        elif token.startswith("-") and not option(token) and not seen:
            moved.append(token)
            seen = True
        else:
            seen = seen or not token.startswith("-")
            out.append(token)
    return out + ["--", *moved] if moved else out


def _render(report: dict[str, str | None], kv: bool) -> str:
    """The report's keys that hold a value, in `_KEYS` order, as key=value
    lines or as "key: value" lines."""
    sep = "=" if kv else ": "
    return "\n".join(f"{key}{sep}{report[key]}" for key in _KEYS if report.get(key) is not None)


def main(argv: Sequence[str] | None = None) -> int:
    argv = _dashed(list(sys.argv[1:] if argv is None else argv))
    parser = build_arg_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
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
        print(_render(report, args.format_ == "kv"))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early.  Point stdout at devnull so the flush
        # at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return status


def entry() -> None:
    status = main()
    # The process ends here.  Freezing moves every object it loaded into
    # the permanent generation, which the collections run at interpreter
    # shutdown skip; atexit handlers and the flush of stdout still run.
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    entry()
