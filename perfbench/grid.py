"""The two API workloads: classify-grid and boost-scan.

`classify_grid_specs` and `boost_scan_specs` turn a seed into plain data:
operator tables built by `algebra`, the call to make, and the answer the
construction implies.  `build_ops` turns the specs into timed operations
on the program's objects, each paired with a check that runs after the
timed window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from algebra import (
    ZERO,
    Complex,
    Table,
    add_tables,
    cdiv,
    cmul,
    laplacian_power,
    monomial,
    mul_tables,
    order_of,
    power_form,
    random_complex,
    random_fraction,
    rotation_moves_symbol,
    shift_moves_coefficient,
    symbol_is_power_form,
    unit,
)

LAMS = (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(-1))
# Cells where one fully cross-checked rotation-invariant operator costs
# 0.5-2.5 s; they get no residual-xi case, so that a classify-grid round
# stays near 6 s and a run repeats every operation several times.
HEAVY = {(3, 8), (4, 4)}

NON_CONSTANT = "non-constant-coefficients"
ROTATION = "rotation-failure"
RESIDUAL_XI = "residual-xi-dependence"
A20 = "a20-nonzero"
LAMBDA = "lambda-not-real"
NOT_ORDER_2 = "not-order-2"


@dataclass
class Spec:
    """One operation: call `call` on the operator built from `table`.

    `moving` is an optional non-constant coefficient term
    (key, exponents over (t, x1..xn), value) added to the table.
    """

    label: str
    call: str
    n: int
    table: Table
    lam: Fraction | None = None
    expect: dict = field(default_factory=dict)
    moving: tuple | None = None
    velocity: tuple[Fraction, ...] | None = None


def _coeffs(rng: random.Random, k: int) -> list[Complex]:
    return [random_complex(rng) for _ in range(k + 1)]


def second_order_answer(table: Table, n: int) -> dict:
    """What the paper's second-order theorem says of a rotation-invariant
    constant table: alpha*(2i*lam*Dt + Lap) + beta with real lam, or the
    first condition that fails."""
    if order_of(table) != 2:
        return {"accepted": False, "stage": NOT_ORDER_2}
    zero = (0,) * n
    if table.get((2, zero), ZERO) != ZERO:
        return {"accepted": False, "stage": A20}
    alpha = table[(0, unit(n, 1, 2))]
    beta = table.get((0, zero), ZERO)
    a10 = table.get((1, zero), ZERO)
    lam = cdiv(cmul((Fraction(0), Fraction(-1)), a10), (2 * alpha[0], 2 * alpha[1]))
    if lam[1]:
        return {"accepted": False, "stage": LAMBDA, "lam_value": lam}
    return {"accepted": True, "alpha": alpha, "beta": beta, "lam": lam[0]}


def _both(out: list[Spec], label: str, n: int, table: Table, lam: Fraction,
          pf: dict, c2: dict | None, moving=None) -> None:
    out.append(Spec(f"{label} pf", "pf", n, table, lam, pf, moving))
    if c2 is not None:
        out.append(Spec(f"{label} c2", "c2", n, table, None, c2, moving))


def classify_grid_specs(seed: int) -> list[Spec]:
    """n = 1..3 at orders 2..8 and n = 4 at orders 2 and 4, accept and reject."""
    rng = random.Random(seed)
    out: list[Spec] = []
    cells = [(n, m) for n in (1, 2, 3) for m in range(2, 9)] + [(4, 2), (4, 4)]
    for n, m in cells:
        lam = LAMS[(m // 2 + n) % 4]
        tag = f"n={n} m={m}"
        reject = {"accepted": False, "stage": ROTATION, "witness": "rotation"}
        if m % 2 == 0:
            k = m // 2
            for lam_a in LAMS if n == 1 else (lam,):
                coeffs = _coeffs(rng, k)
                table = power_form(n, lam_a, coeffs)
                pf = {"accepted": True, "coeffs": coeffs, "lam": lam_a}
                c2 = None
                if m == 2:
                    c2 = {"accepted": True, "alpha": coeffs[1], "beta": coeffs[0], "lam": lam_a}
                elif m == 4 and n <= 3:
                    c2 = {"accepted": False, "stage": NOT_ORDER_2}
                _both(out, f"{tag} accept lam={lam_a}", n, table, lam_a, pf, c2)
            base = power_form(n, lam, _coeffs(rng, k))
            j = 1 + (n + m) % k
            extra = (laplacian_power(n, j, random_complex(rng))
                     if (n + k) % 2
                     else monomial(n, j, (0,) * n, random_complex(rng)))
            table = add_tables(base, extra)
            c2 = second_order_answer(table, n) if m == 2 else None
            if (n, m) not in HEAVY:
                _both(out, f"{tag} residual", n, table, lam,
                      {"accepted": False, "stage": RESIDUAL_XI}, c2)
            if n == 1:
                bad = monomial(n, 0, (m - 1,), random_complex(rng))
            else:
                bad = monomial(n, 0, unit(n, 1, 2), random_complex(rng))
            _both(out, f"{tag} rotation", n, add_tables(base, bad), lam, reject,
                  reject if m == 2 else None)
            moving_exps = tuple(1 if i == 1 else 0 for i in range(n + 1))
            moving = ((1, (0,) * n), moving_exps, random_complex(rng))
            translation = {"accepted": False, "stage": NON_CONSTANT, "witness": "translation"}
            _both(out, f"{tag} non-constant", n, base, lam, translation,
                  translation if m == 2 else None, moving)
        else:
            k = (m - 1) // 2
            base = power_form(n, lam, _coeffs(rng, k))
            b = (n + m) % (k + 1)
            odd = mul_tables(
                monomial(n, m - 2 * b, (0,) * n, random_complex(rng)),
                laplacian_power(n, b),
            )
            _both(out, f"{tag} odd", n, add_tables(base, odd), lam,
                  {"accepted": False, "stage": RESIDUAL_XI},
                  {"accepted": False, "stage": NOT_ORDER_2} if m == 3 else None)
            bad = monomial(n, 0, unit(n, 1, m), random_complex(rng))
            _both(out, f"{tag} odd rotation", n, add_tables(base, bad), lam, reject,
                  reject if m == 3 else None)
    for n in (1, 2, 3, 4):
        lam = LAMS[n % 4]
        base = power_form(n, lam, _coeffs(rng, 1))
        table = add_tables(base, monomial(n, 2, (0,) * n, random_complex(rng)))
        _both(out, f"n={n} a20", n, table, lam,
              {"accepted": False, "stage": RESIDUAL_XI}, second_order_answer(table, n))
        alpha = random_complex(rng)
        table = add_tables(
            laplacian_power(n, 1, alpha),
            monomial(n, 1, (0,) * n, cmul(alpha, (2 * lam, Fraction(0)))),
            monomial(n, 0, (0,) * n, random_complex(rng)),
        )
        _both(out, f"n={n} lambda", n, table, lam,
              {"accepted": False, "stage": RESIDUAL_XI}, second_order_answer(table, n))
    return out


def _velocity(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(random_fraction(rng, 3) for _ in range(n))


def _random_keys(n: int, r: int) -> list[tuple[int, tuple[int, ...]]]:
    """Derivative keys of order <= 4 other than Dx1, the same for every seed,
    so that the seed changes coefficients and not the amount of work."""
    shape = random.Random(1000 * n + r)
    keys = set()
    while len(keys) < 2 + r:
        j = shape.randint(0, 2)
        alpha = [0] * n
        for _ in range(shape.randint(0, 4 - j)):
            alpha[shape.randrange(n)] += 1
        if (j, tuple(alpha)) != (0, unit(n, 1, 1)):
            keys.add((j, tuple(alpha)))
    return sorted(keys)


def boost_scan_specs(seed: int) -> list[Spec]:
    """Constant operators at n = 1..3 whose boost invariance is known."""
    rng = random.Random(seed)
    out: list[Spec] = []

    def case(label, n, table, lam, invariant):
        expect = {"invariant": invariant}
        out.append(Spec(f"{label} boost", "boost", n, table, lam, expect))
        velocity = _velocity(rng, n) if invariant else None
        out.append(Spec(f"{label} oracle", "oracle", n, table, lam, expect, velocity=velocity))

    for n in (1, 2, 3):
        for k in (1, 2, 3, 4):
            lam = LAMS[(k + n) % 4]
            coeffs = _coeffs(rng, k)
            table = power_form(n, lam, coeffs)
            case(f"n={n} pf m={2 * k} lam={lam}", n, table, lam, True)
            if k <= 3:
                other = LAMS[(k + n + 1) % 4] if k < 3 else Fraction(0)
                case(f"n={n} pf m={2 * k} at lam={other}", n, table, other, False)
        for k in (1, 2, 3):
            table = {}
            for j, c in enumerate(_coeffs(rng, k)):
                table = add_tables(table, laplacian_power(n, j, c))
            case(f"n={n} lap-poly m={2 * k}", n, table, Fraction(0), True)
        for k in range(1, (8 if n <= 2 else 6) + 1):
            lam = ((Fraction(0),) + LAMS)[k % 5]
            table = monomial(n, k, (0,) * n, random_complex(rng))
            case(f"n={n} Dt^{k} lam={lam}", n, table, lam, False)
        for r in range(3):
            table = monomial(n, 0, unit(n, 1, 1), random_complex(rng))
            for key in _random_keys(n, r):
                table = add_tables(table, monomial(n, *key, random_complex(rng)))
            lam = LAMS[(r + n) % 4]
            case(f"n={n} random#{r} lam={lam}", n, table, lam, False)
    return out


# ----------------------------------------------------------------------
# building program objects and checking what comes back


def to_lpdo(g, spec: Spec):
    n = spec.n
    names = g.universe.coeff_vars(n)
    zero = (0,) * (n + 1)
    coeffs = {}
    for key, (re, im) in spec.table.items():
        coeffs[key] = {zero: g.GaussianRational(re, im)}
    if spec.moving is not None:
        key, exps, (re, im) = spec.moving
        coeffs.setdefault(key, {})[exps] = g.GaussianRational(re, im)
    return g.LPDO(n, {key: g.MultiPoly(names, terms) for key, terms in coeffs.items()})


def _pair(z) -> Complex:
    return (z.re, z.im)


def _coefficient_terms(spec: Spec, key) -> dict:
    zero = (0,) * (spec.n + 1)
    terms = {}
    if key in spec.table:
        terms[zero] = spec.table[key]
    if spec.moving is not None and spec.moving[0] == key:
        terms[spec.moving[1]] = spec.moving[2]
    return terms


def _witness_ok(g, spec: Spec, op, report) -> bool:
    witness = report.witness if report is not None else None
    kind = spec.expect.get("witness")
    if kind == "translation":
        if not isinstance(witness, g.TranslationWitness) or not witness.reverify(op):
            return False
        return shift_moves_coefficient(
            _coefficient_terms(spec, witness.key), witness.shift.s, witness.shift.y
        )
    if kind == "rotation":
        if not isinstance(witness, g.RotationWitness) or not witness.reverify(op):
            return False
        rows = [[witness.rotation.entry(i, j) for j in range(spec.n)] for i in range(spec.n)]
        return rotation_moves_symbol(spec.table, spec.n, rows)
    return witness is None


def check_classify(g, spec: Spec, op, verdict) -> bool:
    expect = spec.expect
    if verdict.accepted != expect["accepted"]:
        return False
    if not expect["accepted"]:
        if verdict.stage != expect["stage"]:
            return False
        if "lam_value" in expect and _pair(verdict.lam_value) != expect["lam_value"]:
            return False
        return _witness_ok(g, spec, op, verdict.report)
    if Fraction(verdict.lam) != expect["lam"]:
        return False
    if spec.call == "pf":
        coeffs = [_pair(c) for c in verdict.coeffs]
        if coeffs != expect["coeffs"]:
            return False
    else:
        coeffs = [_pair(verdict.beta), _pair(verdict.alpha)]
        if coeffs != [expect["beta"], expect["alpha"]]:
            return False
    return symbol_is_power_form(spec.table, spec.n, Fraction(verdict.lam), coeffs)


def check_boost(g, spec: Spec, op, report) -> bool:
    if report.invariant != spec.expect["invariant"]:
        return False
    if report.invariant:
        return report.certificate == "zero-substitution-residue" and report.witness is None
    return isinstance(report.witness, g.BoostWitness) and report.witness.reverify(op)


def check_oracle(g, spec: Spec, op, result) -> bool:
    defect, witness = result
    if spec.expect["invariant"]:
        return defect.is_zero
    point = {g.universe.TIME: 0, g.universe.FREQ_TIME: witness.tau}
    for a in range(1, spec.n + 1):
        point[g.universe.space(a)] = 0
        point[g.universe.freq_space(a)] = witness.xi[a - 1]
    return bool(defect.evaluate(point))


@dataclass
class Op:
    label: str
    run: object
    check: object


def build_ops(g, specs: list[Spec]) -> list[Op]:
    """Program objects for every spec, and the thunks the timed loop calls.

    An oracle operation on a non-invariant case runs at the velocity of
    the witness that the preceding boost operation returned.
    """
    ops: list[Op] = []
    last_report: dict = {}
    for spec in specs:
        op = to_lpdo(g, spec)
        if spec.call == "pf":
            run = (lambda op=op, lam=spec.lam: g.classify_power_form(op, lam))
            check = (lambda out, spec=spec, op=op: check_classify(g, spec, op, out))
        elif spec.call == "c2":
            run = (lambda op=op: g.classify_second_order(op))
            check = (lambda out, spec=spec, op=op: check_classify(g, spec, op, out))
        elif spec.call == "boost":
            def run(op=op, lam=spec.lam):
                report = g.check_boost_invariance_fixed_gauge(op, lam)
                last_report["report"] = report
                return report
            check = (lambda out, spec=spec, op=op: check_boost(g, spec, op, out))
        else:
            def run(op=op, spec=spec):
                witness = None
                velocity = spec.velocity
                if velocity is None:
                    witness = last_report["report"].witness
                    velocity = witness.v
                return g.boost_commutator_defect(op, spec.lam, velocity), witness
            check = (lambda out, spec=spec, op=op: check_oracle(g, spec, op, out))
        ops.append(Op(spec.label, run, check))
    return ops
