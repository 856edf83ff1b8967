"""The term-map routes of the accept path, kept as references.

The package converts between operators and symbols, composes
constant-coefficient operators, synthesizes power forms and rebuilds
radial decompositions with operations of the packed polynomial kernel.
The routes they replaced live here unchanged: `symbol_of` and
`operator_of` walk `.terms` and build each polynomial from a term map,
`compose_const` multiplies constant tables, `synthesize` composes
operators one power at a time, and the reconstruction raises |xi|^2 and
tau to a fresh power for every entry.  The tests require the two routes
to give the same values, held in any term and key order.

`radial_decompose` is the radial route the package replaced with one pass
over packed monomials: split the symbol into tau-slices and homogeneous
xi-parts on the tuple-keyed reference kernel, and compare each part with
its xi1^(2k) coefficient times |xi|^(2k), built by repeated products.
`odd_axis` is the reflection search it fed: the least a with a term odd
in xi_a.

`packed_symbol_of` and `packed_operator_of` are the packed routes that
the package replaced when operators came to hold their symbol: fold the
coefficients into the symbol with `embed_sum` on every call, and read a
symbol back into a coefficient dict with `split_trailing`, to be checked
and copied again by `LPDO(n, coeffs)`.  `embed_sum` is also the fold that
`LPDO(n, coeffs)` ran before it summed the coefficients times their
monomials with `product_sum`: each coefficient's packed keys are moved
into the symbol universe by byte arithmetic and added into one dict.

`add` and `conj_translation` are the coefficient routes the package
replaced with one operation on the held symbol: merge two coefficient
dicts and fold the sum again, and substitute the shift in every
coefficient and fold again.

`reference_power_form` is the power-form route the package replaced with
the boost generators: reduce the symbol to q(tau, s) with s = |xi|^2,
substitute tau -> (mu - s) / (2*lam), accept exactly when no s survives,
and read the coefficients off the mu^j terms with the sign (-1)^j.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from galinv import (
    LPDO,
    GaussianRational,
    MultiPoly,
    Symbol,
    Translation,
    check_rotation_invariance,
    check_translation_invariance,
    universe,
)
from galinv.checks import NotRadial, RadialDecomposition
from galinv.gaussrat import GaussianLike, as_gaussian, i_power
from galinv.lpdo import DerivKey
from galinv.multipoly import Exponents, _universe, split_trailing

import reference_multipoly


def symbol_of(op: LPDO) -> Symbol:
    """p = sum a_{j,alpha}(t,x) (i*tau)^j (i*xi)^alpha, exactly."""
    names = universe.symbol_vars(op.n)
    n = op.n
    terms = {}
    for (j, alpha), poly in op.coeffs.items():
        scale = i_power(j + sum(alpha))
        for exps, coeff in poly.terms.items():
            terms[exps + (j,) + alpha] = coeff * scale
    return Symbol(MultiPoly(names, terms), n, op.order)


def operator_of(symbol: Symbol) -> LPDO:
    """Inverse of `symbol_of`: read tau/xi monomials back into derivatives."""
    n = symbol.n
    names = universe.coeff_vars(n)
    buckets: dict[DerivKey, dict] = {}
    for exps, coeff in symbol.poly.terms.items():
        tx, j, alpha = exps[: n + 1], exps[n + 1], exps[n + 2 :]
        buckets.setdefault((j, alpha), {})[tx] = coeff * i_power(-(j + sum(alpha)))
    return LPDO(n, {key: MultiPoly(names, terms) for key, terms in buckets.items()})


def embed_sum(
    variables: Sequence[str], parts: Iterable[tuple[MultiPoly, Exponents, GaussianLike]]
) -> MultiPoly:
    """sum(scale * monomial * poly.extend(variables)) over one common
    denominator, for parts (poly, tail, scale) where poly's universe leads
    `variables` and tail is the monomial's exponents in the rest."""
    variables = _universe(variables)
    top, placed = 8 * len(variables), []
    for poly, tail, scale in parts:
        width = len(poly.variables)
        if variables[:width] != poly.variables or width + len(tail) != len(variables):
            raise ValueError(f"{poly.variables} and {len(tail)} exponents do not make {variables}")
        # The lead bytes stay; the degree byte moves up and gains the tail's degree.
        offset = int.from_bytes(bytes(width) + bytes(tail), "little") + (sum(tail) << top)
        placed.append((poly, 8 * width, offset, as_gaussian(scale)._t))
    den = lcm(*(poly._den * f for poly, _, _, (_, _, f) in placed))
    accum: dict[int, tuple[int, int]] = {}
    get = accum.get
    for poly, shift, offset, (c, e, f) in placed:
        low, m = (1 << shift) - 1, den // (poly._den * f)
        c, e = c * m, e * m
        for key, (re, im) in poly._num.items():
            key = (key & low) + (key >> shift << top) + offset
            a, b = get(key, (0, 0))
            accum[key] = (a + re * c - im * e, b + re * e + im * c)
    return MultiPoly._make(variables, den, accum)


def folded_symbol(n: int, coeffs: dict[DerivKey, MultiPoly]) -> MultiPoly:
    """The symbol that `LPDO(n, coeffs)` folded with `embed_sum`, from its
    checked coefficients: nonzero polynomials over `universe.coeff_vars(n)`."""
    parts = [(poly, (j, *alpha), i_power(j + sum(alpha))) for (j, alpha), poly in coeffs.items()]
    return embed_sum(universe.symbol_vars(n), parts)


def packed_symbol_of(op: LPDO) -> Symbol:
    """The symbol folded from `op.coeffs` with `embed_sum`."""
    return Symbol(folded_symbol(op.n, op.coeffs), op.n, op.order)


def packed_operator_of(symbol: Symbol) -> LPDO:
    """The coefficient dict split off a symbol with `split_trailing`, through `LPDO(n, coeffs)`."""
    parts = split_trailing(symbol.poly, symbol.n + 1, lambda tail: i_power(-sum(tail)))
    return LPDO(symbol.n, {(tail[0], tail[1:]): poly for tail, poly in parts.items()})


def add(first: LPDO, second: LPDO) -> LPDO:
    """first + second, coefficient by coefficient."""
    merged: dict[DerivKey, MultiPoly] = dict(first.coeffs)
    for key, poly in second.coeffs.items():
        merged[key] = merged[key] + poly if key in merged else poly
    return LPDO(first.n, merged)


def conj_translation(op: LPDO, shift: Translation) -> LPDO:
    """Every coefficient a(t, x) becomes a(t + s, x + y), one at a time."""
    names = universe.coeff_vars(op.n)
    bindings = {universe.TIME: MultiPoly.var(names, universe.TIME) + shift.s}
    for a, y in enumerate(shift.y, start=1):
        bindings[universe.space(a)] = MultiPoly.var(names, universe.space(a)) + y
    return LPDO(op.n, {key: poly.substitute(bindings) for key, poly in op.coeffs.items()})


def compose_const(first: LPDO, second: LPDO) -> LPDO:
    """Composition of constant-coefficient operators; symbols multiply."""
    if first.n != second.n:
        raise ValueError("operators live in different dimensions")
    if not (first.is_constant_coefficient and second.is_constant_coefficient):
        raise ValueError("composition requires constant coefficients")
    table: dict[DerivKey, GaussianRational] = {}
    for (j1, a1), c1 in first.constant_table().items():
        for (j2, a2), c2 in second.constant_table().items():
            key = (j1 + j2, tuple(x + y for x, y in zip(a1, a2)))
            table[key] = table.get(key, GaussianRational()) + c1 * c2
    return LPDO(first.n, table)


def synthesize(
    lam: Fraction | int, coeffs: Sequence[GaussianLike], n: int
) -> LPDO:
    """Build sum a_j * (2i*lam*dt + Lap)^j from its coefficient list."""
    values = [as_gaussian(c) for c in coeffs]
    if not values or not any(values):
        raise ValueError("all coefficients are zero; the operator class is empty")
    if not values[-1]:
        raise ValueError("the top coefficient a_K must be nonzero")
    factor = LPDO.schrodinger_factor(n, Fraction(lam))
    power = LPDO.identity(n)
    total: LPDO | None = None
    for j, value in enumerate(values):
        if j:
            power = compose_const(power, factor)
        if not value:
            continue
        piece = power.scaled(value)
        total = piece if total is None else total + piece
    assert total is not None
    return total


def reconstruction(radial: RadialDecomposition) -> MultiPoly:
    """`RadialDecomposition.reconstruction`, one power of each factor per entry."""
    names = universe.symbol_vars(radial.n)
    norm2 = _xi_norm2(names, radial.n)
    tau = MultiPoly.var(names, universe.FREQ_TIME)
    terms = (norm2**k * tau**j * (c * i_power(j)) for (j, k), c in radial.b.items())
    return sum(terms, MultiPoly.zero(names))


def _xi_norm2(names: tuple[str, ...], n: int) -> MultiPoly:
    """|xi|^2 = xi1^2 + ... + xin^2 over the given universe."""
    xis = (MultiPoly.var(names, universe.freq_space(a)) for a in range(1, n + 1))
    return sum((xi * xi for xi in xis), MultiPoly.zero(names))


def reference_symbol(op: LPDO) -> reference_multipoly.MultiPoly:
    """The symbol of op on the tuple-keyed reference kernel."""
    return reference_multipoly.MultiPoly(universe.symbol_vars(op.n), symbol_of(op).poly.terms)


def radial_decompose(op: LPDO) -> RadialDecomposition:
    """`checks.radial_decompose` by tau-slices, homogeneous parts and products."""
    if not op.is_constant_coefficient:
        raise ValueError("radial decomposition needs constant coefficients")
    sym = reference_symbol(op)
    n = op.n
    xi_names = [universe.freq_space(a) for a in range(1, n + 1)]
    names = sym.variables
    xi1 = names.index(xi_names[0])
    norm2 = reference_multipoly.MultiPoly(names, {
        tuple(2 if i == xi1 + a else 0 for i in range(len(names))): 1 for a in range(n)
    })
    powers = [reference_multipoly.MultiPoly.const(names, 1)]
    result = RadialDecomposition(n, op.order)
    for j, raw in sorted(sym.split_by(universe.FREQ_TIME).items()):
        slice_j = raw * i_power(-j)
        for degree, part in sorted(slice_j.homogeneous_parts(xi_names).items()):
            k, odd = divmod(degree, 2)
            while len(powers) <= k:
                powers.append(powers[-1] * norm2)
            b = part.coefficient(tuple(degree if i == xi1 else 0 for i in range(len(names))))
            if odd or part != powers[k] * b:
                raise NotRadial(
                    f"tau^{j} slice has a degree-{degree} part that is not a "
                    "multiple of a power of |xi|^2"
                )
            result.b[(j, k)] = b
    return result


def odd_axis(op: LPDO) -> int:
    """The least a such that some term of the symbol is odd in xi_a, or 0."""
    p = reference_symbol(op)
    tau = p.variables.index(universe.FREQ_TIME)
    for a in range(1, op.n + 1):
        if any(exps[tau + a] % 2 for exps in p.terms):
            return a
    return 0


# Universes of a reduced rotation-invariant symbol q(tau, s), s = |xi|^2,
# and of its rewrite in mu = 2*lam*tau + s.
MU, NORM2 = "mu", "s"
RADIAL_VARS = (universe.FREQ_TIME, NORM2)
POWER_VARS = (MU, NORM2)


def reduced(radial: RadialDecomposition) -> MultiPoly:
    """q(tau, s) over `RADIAL_VARS`, with p(tau, xi) = q(tau, |xi|^2)."""
    return MultiPoly(
        RADIAL_VARS, {(j, k): coeff * i_power(j) for (j, k), coeff in radial.b.items()}
    )


def reference_power_form(
    op: LPDO, lam: Fraction | int
) -> tuple[bool, str | None, tuple[GaussianRational, ...] | None]:
    """(accepted, stage, coeffs) of `classify_power_form` by the mu substitution."""
    lam = Fraction(lam)
    if not check_translation_invariance(op).invariant:
        return False, "non-constant-coefficients", None
    rotation = check_rotation_invariance(op)
    if not rotation.invariant:
        return False, "rotation-failure", None
    mu, s = (MultiPoly.var(POWER_VARS, name) for name in POWER_VARS)
    tau = (mu - s) * Fraction(1, 2 * lam)
    residual = reduced(rotation.radial).substitute({universe.FREQ_TIME: tau})
    if residual.degree_in(NORM2):
        return False, "residual-xi-dependence", None
    top = residual.degree_in(MU)
    assert 2 * top == op.order, "an s-free rewrite has even order 2*deg_mu"
    coeffs = tuple(residual.coefficient((j, 0)) * (-1) ** j for j in range(top + 1))
    assert coeffs[-1], "the top power-form coefficient vanished"
    return True, None, coeffs
