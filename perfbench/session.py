"""The cli-session workload: one `python -m galinv` process at a time.

Each command carries the exit status and report fields it must produce.
The fixed commands are the paper's worked examples, bad input, and two
known faults; the seeded commands instantiate the same shapes with
coefficients drawn from the seed, and their answers follow from how the
operator text was written.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from algebra import cmul, literal, parse_complex, random_complex, random_fraction

LAMS = (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(-1))
THETA_1 = "c + v.x - (1/2)t|v|^2"
NESTED = "(" * 3000 + "Dt" + ")" * 3000


@dataclass
class Command:
    label: str
    argv: list[str]
    status: int
    fields: dict = field(default_factory=dict)
    kv: bool = True
    known_fault: bool = False

    def check(self, status: int, stdout: str) -> bool:
        if status != self.status:
            return False
        if self.status == 2:
            return stdout == ""
        report = read_report(stdout, self.kv)
        for key, want in self.fields.items():
            got = report.get(key)
            if got is None:
                return False
            if callable(want):
                if not want(got):
                    return False
            elif isinstance(want, tuple):
                if parse_complex(got) != want:
                    return False
            elif isinstance(want, list):
                if [parse_complex(x) for x in got.split(",")] != want:
                    return False
            elif got != want:
                return False
        return True


def read_report(stdout: str, kv: bool) -> dict[str, str]:
    sep = "=" if kv else ": "
    out = {}
    for line in stdout.splitlines():
        key, found, value = line.partition(sep)
        if found:
            out[key] = value
    return out


def read_linear(text: str) -> dict[str, Fraction]:
    """Coefficients of a printed linear form like "-37/8*t + 1/2*x1 - x2"."""
    out = {}
    for term in text.replace(" - ", " + -").split(" + "):
        coeff, star, name = term.rpartition("*")
        if not star:
            coeff, name = ("-1", term[1:]) if term.startswith("-") else ("1", term)
        out[name] = Fraction(coeff)
    return out


def _cmd(label, argv, status, fields=None, kv=True, known_fault=False) -> Command:
    argv = list(argv) + (["--format", "kv"] if kv else [])
    return Command(label + (" [kv]" if kv else ""), argv, status, fields or {}, kv, known_fault)


def fixed_commands() -> list[Command]:
    """Worked examples from the paper, bad input, and the known faults."""
    out = []
    for kv in (False, True):
        out += [
            _cmd("classify2 schrodinger", ["classify2", "2i*Dt + Lap", "--n", "3"], 0,
                 {"verdict": "accept", "alpha": "1", "beta": "0", "lambda": "1",
                  "theta": THETA_1, "n": "3", "m": "2"}, kv),
            _cmd("classify2 heat", ["classify2", "Dt - Lap", "--n", "2"], 1,
                 {"verdict": "reject", "stage": "lambda-not-real", "lambda": "1/2i"}, kv),
            _cmd("classifym square", ["classifym", "(2i*Dt + Lap)^2", "--lambda", "1", "--n", "2"],
                 0, {"verdict": "accept", "coeffs": "0,0,1", "m": "4"}, kv),
            _cmd("check-translation t*Dx1", ["check-translation", "t*Dx1"], 1,
                 {"verdict": "not-invariant", "witness": lambda w: w.startswith("shift (s=1")}, kv),
            _cmd("check-rotation Lap", ["check-rotation", "Lap", "--n", "2"], 0,
                 {"verdict": "invariant", "certificate": "generator-annihilation"}, kv),
            _cmd("check-boost schrodinger",
                 ["check-boost", "2i*Dt + Lap", "--n", "2", "--lambda", "1"], 0,
                 {"verdict": "invariant", "certificate": "zero-substitution-residue"}, kv),
            _cmd("synthesize 5,1", ["synthesize", "--lambda", "1", "--coeffs", "5,1", "--n", "2"],
                 0, {"verdict": "ok", "coeffs": "5,1",
                     "operator": lambda s: sorted(s.split(" + ")) == ["2i*Dt", "5", "Dx1^2", "Dx2^2"]},
                 kv),
            _cmd("theta", ["theta", "--lambda", "1"], 0, {"theta": THETA_1}, kv),
            _cmd("oracle schrodinger",
                 ["oracle", "2i*Dt + Lap", "--n", "2", "--lambda", "1", "--seed", "7", "--count", "5"],
                 0, {"verdict": "invariant", "certificate": "zero defect on 5 sampled boosts"}, kv),
        ]
    out += [
        _cmd("classify2 scaled", ["classify2", "Dt - (1/2)i*Lap", "--n", "3"], 0,
             {"alpha": (Fraction(0), Fraction(-1, 2)), "beta": "0", "lambda": "1"}),
        _cmd("check-boost Dt^2", ["check-boost", "Dt^2", "--lambda", "1", "--n", "2"], 1,
             {"verdict": "not-invariant", "witness": lambda w: w.startswith("boost v=")}),
        _cmd("oracle Dt^2", ["oracle", "Dt^2", "--n", "2", "--lambda", "1"], 1,
             {"verdict": "not-invariant"}),
        _cmd("check-rotation Dx1^2", ["check-rotation", "Dx1^2 + 2*Lap", "--n", "3"], 1,
             {"verdict": "not-invariant", "witness": lambda w: w.startswith("rotation ")}),
        _cmd("theta v", ["theta", "--lambda", "2", "--v", "1,2"], 0,
             {"theta": lambda s: sorted(s.replace(" - ", " + -").split(" + "))
              == ["-5*t", "2*x1", "4*x2"]}),
        _cmd("classifym cube n=3", ["classifym", "(2i*Dt+Lap)^3", "--lambda", "1", "--n", "3"], 0,
             {"coeffs": "0,0,0,1", "m": "6"}),
        _cmd("classify2 square n=3", ["classify2", "(2i*Dt+Lap)^2", "--n", "3"], 1,
             {"stage": "not-order-2", "m": "4"}),
        _cmd("check-boost cube n=2", ["check-boost", "(2i*Dt + Lap)^3", "--n", "2", "--lambda", "1"],
             0, {"verdict": "invariant"}),
        _cmd("bad: dangling plus", ["classify2", "Dt +"], 2),
        _cmd("bad: Lap without n", ["classify2", "Lap"], 2),
        _cmd("bad: missing lambda", ["check-boost", "Dt"], 2),
        _cmd("bad: lambda zero", ["classifym", "Lap", "--lambda", "0", "--n", "1"], 2),
        _cmd("bad: zero coeffs", ["synthesize", "--lambda", "1", "--coeffs", "0,0", "--n", "1"], 2),
        _cmd("bad: index above n", ["classify2", "Dx3", "--n", "2"], 2),
        _cmd("fault: oracle count 0",
             ["oracle", "Dt", "--n", "1", "--lambda", "1", "--count", "0"], 2, known_fault=True),
        _cmd("fault: 3000 nested parentheses", ["classify2", NESTED], 2, known_fault=True),
    ]
    return out


def _factor_text(lam: Fraction) -> str:
    return f"{literal((Fraction(0), 2 * lam))}*Dt + Lap"


def seeded_commands(seed: int) -> list[Command]:
    rng = random.Random(seed)
    out = []
    for r, n in enumerate((1, 2, 3, 2, 1, 3, 2, 1)):
        lam = LAMS[r % 4]
        n_tag = f"n={n} #{r}"
        kv = r % 2 == 0
        alpha = random_complex(rng)
        beta = random_complex(rng)
        a10 = cmul(alpha, (Fraction(0), 2 * lam))
        text = f"{literal(a10)}*Dt + {literal(alpha)}*Lap + {literal(beta)}"
        out.append(_cmd(f"classify2 accept {n_tag}", ["classify2", text, "--n", str(n)], 0,
                        {"verdict": "accept", "alpha": alpha, "beta": beta,
                         "lambda": str(lam)}, kv))
        text = f"{literal(cmul(alpha, (2 * lam, Fraction(0))))}*Dt + {literal(alpha)}*Lap"
        out.append(_cmd(f"classify2 lambda {n_tag}", ["classify2", text, "--n", str(n)], 1,
                        {"stage": "lambda-not-real", "lambda": (Fraction(0), -lam)}, kv))
        if n <= 2:
            coeffs = [random_complex(rng) for _ in range(2)] + [random_complex(rng)]
            f = _factor_text(lam)
            text = " + ".join(
                [literal(coeffs[0]), f"{literal(coeffs[1])}*({f})", f"{literal(coeffs[2])}*({f})^2"]
            )
            out.append(_cmd(f"classifym accept {n_tag}",
                            ["classifym", text, f"--lambda={lam}", "--n", str(n)], 0,
                            {"verdict": "accept", "coeffs": coeffs, "m": "4"}, kv))
            out.append(_cmd(f"synthesize {n_tag}",
                            ["synthesize", f"--lambda={lam}", "--coeffs",
                             ",".join(literal(c) for c in coeffs), "--n", str(n)], 0,
                            {"verdict": "ok", "coeffs": coeffs, "m": "4"}, kv))
        c = random_complex(rng)
        out.append(_cmd(f"classifym residual {n_tag}",
                        ["classifym", f"{literal(c)}*Dt^2 + Lap", f"--lambda={lam}",
                         "--n", str(n)], 1, {"stage": "residual-xi-dependence"}, kv))
        k = 1 + r % 4
        out.append(_cmd(f"check-boost Dt^{k} {n_tag}",
                        ["check-boost", f"{literal(c)}*Dt^{k}", f"--lambda={lam}",
                         "--n", str(n)], 1, {"verdict": "not-invariant"}, kv))
        out.append(_cmd(f"check-translation {n_tag}",
                        ["check-translation", f"{literal(c)}*x1*Dt + Lap", "--n", str(n)], 1,
                        {"verdict": "not-invariant"}, kv))
        out.append(_cmd(f"oracle seeded {n_tag}",
                        ["oracle", f"{literal(c)}*({_factor_text(lam)})", "--n", str(n),
                         f"--lambda={lam}", "--seed", str(rng.randint(1, 10**6)),
                         "--count", "3"], 0, {"verdict": "invariant"}, kv))
        v = [random_fraction(rng, 3) for _ in range(n)]
        phase = {f"x{a}": lam * va for a, va in enumerate(v, start=1)}
        phase["t"] = -lam / 2 * sum(va * va for va in v)
        out.append(_cmd(f"theta seeded {n_tag}",
                        ["theta", f"--lambda={lam}", "--v=" + ",".join(map(str, v))], 0,
                        {"verdict": "ok", "n": str(n),
                         "theta": lambda s, phase=phase: read_linear(s) == phase}, kv))
    return out


def commands(seed: int) -> list[Command]:
    return fixed_commands() + seeded_commands(seed)
