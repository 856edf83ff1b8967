"""Linear partial differential operators and their plane-wave symbols.

An `LPDO` is a finite sum  sum_{j,alpha} a_{j,alpha}(t,x) dt^j dx^alpha
with polynomial coefficients; its key invariant is that the effective
order is recomputed on construction, so some coefficient of top order is
always nonzero.  The symbol p(t,x,tau,xi) is what the operator produces
when applied to the plane wave exp(i(tau*t + xi.x)):

    L e = p * e,   p = sum a_{j,alpha} (i*tau)^j (i*xi)^alpha.

The symbol is the operator's canonical form, and every operator holds
its own.  `LPDO(n, coeffs)` builds it once from the coefficients; the
parser, sums, composition and the conjugations hand a symbol over as it
is, and `coeffs` is then read off p on first use, tau^j xi^alpha
monomials back into derivatives.  The two maps are exact inverses here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from . import universe
from .universe import _FrozenValue
from .gaussrat import GaussianLike, GaussianRational, as_gaussian, i_power
from .multipoly import MAX_DIMENSION, MultiPoly, _check_cap, product_sum, split_trailing

DerivKey = tuple[int, tuple[int, ...]]

_SCALARS = (int, Fraction, GaussianRational)


def _check_dimension(n: int) -> None:
    if n < 1:
        raise ValueError("spatial dimension must be at least 1")
    if n > MAX_DIMENSION:
        raise ValueError(f"spatial dimension {n} exceeds the cap of {MAX_DIMENSION}")


_ZERO_OPERATOR = "the zero operator is outside the class: no top-order coefficient"


class Symbol(_FrozenValue):
    """The plane-wave symbol of an operator, with its dimension and order."""

    _fields = ("poly", "n", "order")

    def __init__(self, poly: MultiPoly, n: int, order: int) -> None:
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "order", order)


class LPDO:
    __slots__ = ("n", "order", "_symbol", "_coeffs", "_constant")

    def __init__(self, n: int, coeffs: Mapping[DerivKey, MultiPoly | GaussianLike]):
        _check_dimension(n)
        names = universe.coeff_vars(n)
        cleaned: dict[DerivKey, MultiPoly] = {}
        for key, raw in coeffs.items():
            j, alpha = key
            alpha = tuple(alpha)
            if j < 0 or len(alpha) != n or any(a < 0 for a in alpha):
                raise ValueError(f"bad derivative key {key} for dimension {n}")
            poly = raw if isinstance(raw, MultiPoly) else MultiPoly.const(names, raw)
            if poly.variables != names:
                raise ValueError(
                    f"coefficient universe {poly.variables} is not {names}"
                )
            if poly.is_zero:
                continue
            _check_cap(poly.total_degree() + j + sum(alpha))
            cleaned[(j, alpha)] = poly
        if not cleaned:
            raise ValueError(_ZERO_OPERATOR)
        pairs = []
        for (j, alpha), poly in cleaned.items():
            # poly times i^k * tau^j * xi^alpha, k = j + |alpha|, packed: bytes
            # n + 1.. hold tau, xi1..xin and the degree byte, in that order.
            k = j + sum(alpha)
            key = int.from_bytes(bytes((j, *alpha, k)), "little") << 8 * (n + 1)
            pairs.append((poly, (1, {key: i_power(k)._t[:2]})))
        order = max(j + sum(alpha) for j, alpha in cleaned)
        _hold(self, Symbol(product_sum(universe.symbol_vars(n), pairs), n, order), cleaned)

    @classmethod
    def _of_symbol(cls, symbol: Symbol) -> "LPDO":
        """The operator of a symbol over `universe.symbol_vars(n)`, held as
        given, order included; refused where `__init__` would refuse its
        coefficients, with the same error."""
        n, poly = symbol.n, symbol.poly
        _check_dimension(n)
        names = universe.symbol_vars(n)
        if poly.variables != names:
            raise ValueError(f"symbol universe {poly.variables} is not {names}")
        _check_cap(poly.total_degree())
        if poly.is_zero:
            raise ValueError(_ZERO_OPERATOR)
        return _hold(object.__new__(cls), symbol, None)

    def __setattr__(self, name, value):
        raise AttributeError("LPDO is immutable")

    def __delattr__(self, name):
        raise AttributeError("LPDO is immutable")

    # ------------------------------------------------------------------
    # builders

    @classmethod
    def identity(cls, n: int) -> "LPDO":
        return cls(n, {(0, (0,) * n): 1})

    @classmethod
    def time_derivative(cls, n: int, j: int = 1) -> "LPDO":
        return cls(n, {(j, (0,) * n): 1})

    @classmethod
    def space_derivative(cls, n: int, a: int, k: int = 1) -> "LPDO":
        if not 1 <= a <= n:
            raise ValueError(f"spatial index {a} outside 1..{n}")
        alpha = tuple(k if b == a else 0 for b in range(1, n + 1))
        return cls(n, {(0, alpha): 1})

    @classmethod
    def laplacian(cls, n: int) -> "LPDO":
        return cls._of_symbol(Symbol(laplacian_symbol(n), n, 2))

    @classmethod
    def schrodinger_factor(cls, n: int, lam: Fraction | int) -> "LPDO":
        """2i*lam*dt + Laplacian, the factor the classification singles out."""
        return cls._of_symbol(Symbol(schrodinger_symbol(n, lam), n, 2))

    # ------------------------------------------------------------------
    # accessors

    @property
    def coeffs(self) -> dict[DerivKey, MultiPoly]:
        """(j, alpha) -> nonzero coefficient polynomial, read off the symbol once."""
        if self._coeffs is None:
            parts = split_trailing(self._symbol.poly, self.n + 1, lambda tail: i_power(-sum(tail)))
            object.__setattr__(self, "_coeffs", {(tail[0], tail[1:]): poly for tail, poly in parts.items()})
        return self._coeffs

    @property
    def is_constant_coefficient(self) -> bool:
        """The symbol has degree 0 in (t, x); scanned once, on first read."""
        if self._constant is None:
            poly = self._symbol.poly
            object.__setattr__(self, "_constant", not poly.degree_in(*poly.variables[: self.n + 1]))
        return self._constant

    def coefficient(self, j: int, alpha: Sequence[int]) -> MultiPoly:
        key = (j, tuple(alpha))
        poly = self.coeffs.get(key)
        if poly is None:
            return MultiPoly.zero(universe.coeff_vars(self.n))
        return poly

    def constant_table(self) -> dict[DerivKey, GaussianRational]:
        """The (j, alpha) -> constant map of a constant-coefficient operator."""
        if not self.is_constant_coefficient:
            raise ValueError("operator has variable coefficients")
        return {key: poly.constant_value() for key, poly in self.coeffs.items()}

    # ------------------------------------------------------------------
    # algebra

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LPDO):
            return NotImplemented
        return self.n == other.n and self._symbol.poly == other._symbol.poly

    __hash__ = None

    def __add__(self, other: "LPDO") -> "LPDO":
        if not isinstance(other, LPDO):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("operators live in different dimensions")
        return operator_of(Symbol(self._symbol.poly + other._symbol.poly, self.n, self.order))

    def scaled(self, factor: GaussianLike) -> "LPDO":
        return LPDO._of_symbol(Symbol(self._symbol.poly * as_gaussian(factor), self.n, self.order))

    def __rmul__(self, factor):
        if isinstance(factor, _SCALARS):
            return self.scaled(factor)
        return NotImplemented

    def __repr__(self) -> str:
        parts = ", ".join(
            f"dt^{j} dx^{alpha}: {poly}" for (j, alpha), poly in sorted(self.coeffs.items())
        )
        return f"LPDO(n={self.n}, order={self.order}, {{{parts}}})"


def _hold(op: LPDO, symbol: Symbol, coeffs: dict[DerivKey, MultiPoly] | None) -> LPDO:
    for name, value in (("n", symbol.n), ("order", symbol.order), ("_symbol", symbol),
                        ("_coeffs", coeffs), ("_constant", None)):
        object.__setattr__(op, name, value)
    return op


def laplacian_symbol(n: int) -> MultiPoly:
    """-(xi1^2 + ... + xin^2), the symbol of Lap, over `universe.symbol_vars(n)`."""
    _check_dimension(n)  # before the n exponent vectors of 2n + 2 entries are built
    names = universe.symbol_vars(n)
    return MultiPoly(names, {
        tuple(2 if i == n + 1 + a else 0 for i in range(len(names))): -1 for a in range(1, n + 1)
    })


def schrodinger_symbol(n: int, lam: Fraction | int) -> MultiPoly:
    """-(2*lam*tau + |xi|^2), the symbol of 2i*lam*dt + Lap."""
    lap, lam = laplacian_symbol(n), Fraction(lam)
    return lap - MultiPoly.var(lap.variables, universe.FREQ_TIME) * (2 * lam) if lam else lap


def symbol_of(op: LPDO) -> Symbol:
    """p = sum a_{j,alpha}(t,x) (i*tau)^j (i*xi)^alpha, held by the operator."""
    return op._symbol


def operator_of(symbol: Symbol) -> LPDO:
    """The operator with this symbol; its order is read off the polynomial."""
    poly = symbol.poly
    order = poly.degree_in(*poly.variables[symbol.n + 1 :])
    return LPDO._of_symbol(Symbol(poly, symbol.n, order))


def compose_const(first: LPDO, second: LPDO) -> LPDO:
    """Composition of constant-coefficient operators; symbols multiply."""
    if first.n != second.n:
        raise ValueError("operators live in different dimensions")
    if not (first.is_constant_coefficient and second.is_constant_coefficient):
        raise ValueError("composition requires constant coefficients")
    product = symbol_of(first).poly * symbol_of(second).poly
    return LPDO._of_symbol(Symbol(product, first.n, first.order + second.order))


def linear_phase(
    n: int,
    constant: GaussianLike = 0,
    time_coeff: GaussianLike = 0,
    space_coeffs: Sequence[GaussianLike] = (),
) -> MultiPoly:
    """The degree-one phase  constant + time_coeff*t + sum space_coeffs.x."""
    names = universe.coeff_vars(n)
    phi = MultiPoly.const(names, constant)
    phi = phi + MultiPoly.var(names, universe.TIME) * as_gaussian(time_coeff)
    for a, b in enumerate(space_coeffs, start=1):
        phi = phi + MultiPoly.var(names, universe.space(a)) * as_gaussian(b)
    return phi


def conjugate_linear_phase(op: LPDO, phi: MultiPoly) -> LPDO:
    """exp(i*phi) L exp(-i*phi) for a degree-one phase phi(t, x).

    At the symbol level the conjugation shifts frequencies:
    tau -> tau - gamma and xi_a -> xi_a - b_a where
    phi = c0 + gamma*t + b.x.  The constant c0 cancels and is ignored.
    Quadratic or higher phases are rejected; those are handled only by the
    boost machinery.
    """
    if not op.is_constant_coefficient:
        raise ValueError("phase conjugation is defined for constant coefficients")
    names = universe.coeff_vars(op.n)
    if phi.variables != names:
        raise ValueError(f"phase universe {phi.variables} is not {names}")
    if phi.total_degree() > 1:
        raise ValueError("phase must have degree at most 1 in (t, x)")
    gamma = GaussianRational()
    b = [GaussianRational()] * op.n
    for exps, coeff in phi.terms.items():
        if not any(exps):
            continue
        if exps[0] == 1:
            gamma = coeff
        else:
            b[exps.index(1) - 1] = coeff
    sym = symbol_of(op)
    sym_names = sym.poly.variables
    bindings: dict[str, MultiPoly] = {
        universe.FREQ_TIME: MultiPoly.var(sym_names, universe.FREQ_TIME) - gamma
    }
    for a in range(1, op.n + 1):
        name = universe.freq_space(a)
        bindings[name] = MultiPoly.var(sym_names, name) - b[a - 1]
    shifted = sym.poly.substitute(bindings)
    return LPDO._of_symbol(Symbol(shifted, op.n, op.order))
