"""The tuple-keyed `MultiPoly` kernel, kept as a reference.

The package holds a polynomial as one positive integer denominator over
a map from packed monomial keys to Gaussian-integer numerator pairs.
The representation it replaced lives here unchanged: a map from
exponent tuples to `GaussianRational` coefficients, each operation
built from coefficient arithmetic.  The tests require the two kernels
to agree exactly on every operation, accessor, string and error.

`double_loop_mul` is the packed kernel's product before a one-term
factor took a key shift; the tests require the two products to give
identical internals and errors.

`evaluate` is the packed evaluator before it summed every term in one
integer pair over the point's denominators: it takes each power as a
`GaussianRational` once and sums the terms in integers per denominator.
The tests require the two evaluators to return equal values and to raise
the same error for a missing variable, which names the first one in
universe order that a term uses.

`per_term_substitute` is the packed `substitute` before it grouped terms
by their bound exponents: one image per term, each a product of cached
powers, and, when a product might pass the cap, every power multiplied
in, unbound ones too, so that the first failing term raises.  The tests
require the grouped route to give the same value and packed internals
wherever this one does not raise.

`radial_parts` is the packed radial scan before it halved an even xi
pattern with one shift and read a term's degree off its degree byte: it
splits every term's xi pattern into bytes, weights it by a generator of
factorials and sums the bytes.  The tests require the two scans to
return equal parts, in the same order, of the same types, and the same
odd axis.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod
from operator import add
from typing import Iterator, Mapping, Sequence

from galinv.gaussrat import GaussianLike, GaussianRational, _normal, as_gaussian, format_gaussian
from galinv.multipoly import MAX_TOTAL_DEGREE, product_sum

import reference_gaussrat as rg

Exponents = tuple[int, ...]

_SCALARS = (int, Fraction, GaussianRational)


class MultiPoly:
    __slots__ = ("variables", "terms")

    def __init__(
        self,
        variables: Sequence[str],
        terms: Mapping[Exponents, GaussianLike] | None = None,
    ):
        variables = tuple(variables)
        if not variables:
            raise ValueError("a polynomial needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names in {variables}")
        canonical: dict[Exponents, GaussianRational] = {}
        width = len(variables)
        for exps, raw in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != width:
                raise ValueError(
                    f"exponent vector {exps} does not match universe of size {width}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if sum(exps) > MAX_TOTAL_DEGREE:
                raise ValueError(
                    f"term degree {sum(exps)} exceeds the cap of {MAX_TOTAL_DEGREE}"
                )
            coeff = as_gaussian(raw)
            if coeff:
                canonical[exps] = coeff
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", canonical)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def _make(
        cls,
        variables: tuple[str, ...],
        terms: dict[Exponents, GaussianRational],
    ) -> "MultiPoly":
        """Internal fast path: exponents and coefficients already canonical
        in shape; only zero-dropping and the degree cap are enforced.  Past
        the cap, the error names the largest degree of a nonzero term."""
        poly = object.__new__(cls)
        kept = {exps: coeff for exps, coeff in terms.items() if coeff}
        degree = max((sum(exps) for exps in kept), default=0)
        if degree > MAX_TOTAL_DEGREE:
            raise ValueError(f"term degree {degree} exceeds the cap of {MAX_TOTAL_DEGREE}")
        object.__setattr__(poly, "variables", variables)
        object.__setattr__(poly, "terms", kept)
        return poly

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables: Sequence[str], value: GaussianLike) -> "MultiPoly":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "MultiPoly":
        variables = tuple(variables)
        try:
            idx = variables.index(name)
        except ValueError:
            raise ValueError(f"variable {name!r} is not in universe {variables}")
        exps = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(variables, {exps: 1})

    # ------------------------------------------------------------------
    # predicates and accessors

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(not any(exps) for exps in self.terms)

    def constant_value(self) -> GaussianRational:
        """The value of a constant polynomial (error if non-constant)."""
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        zero_key = (0,) * len(self.variables)
        return self.terms.get(zero_key, GaussianRational())

    def coefficient(self, exps: Exponents) -> GaussianRational:
        return self.terms.get(tuple(exps), GaussianRational())

    def total_degree(self) -> int:
        """Largest term degree; 0 for the zero polynomial."""
        return max((sum(exps) for exps in self.terms), default=0)

    def degree_in(self, name: str) -> int:
        idx = self._index(name)
        return max((exps[idx] for exps in self.terms), default=0)

    def _index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ValueError(f"variable {name!r} is not in universe {self.variables}")

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            if other.variables != self.variables:
                raise ValueError(
                    f"universe mismatch: {self.variables} vs {other.variables}"
                )
            return other
        if isinstance(other, _SCALARS):
            return MultiPoly.const(self.variables, other)
        return None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _SCALARS):
            return self.is_constant and self.constant_value() == other
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    __hash__ = None  # mutable-looking container; never used as a key

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        merged = dict(self.terms)
        for exps, coeff in other.terms.items():
            current = merged.get(exps)
            merged[exps] = coeff if current is None else rg.held(rg.as_gaussian(current) + coeff)
        return MultiPoly._make(self.variables, merged)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._make(
            self.variables, {exps: -coeff for exps, coeff in self.terms.items()}
        )

    def __sub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        product: dict[Exponents, GaussianRational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(map(add, e1, e2))
                value = rg.as_gaussian(c1) * c2
                current = product.get(exps)
                product[exps] = rg.held(value if current is None else value + current)
        return MultiPoly._make(self.variables, product)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take a nonnegative integer exponent")
        result = MultiPoly.const(self.variables, 1)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            if k > 1:
                base = base * base
            k >>= 1
        return result

    # ------------------------------------------------------------------
    # calculus and structure

    def partial(self, name: str) -> "MultiPoly":
        """Formal partial derivative with respect to one variable."""
        idx = self._index(name)
        out: dict[Exponents, GaussianRational] = {}
        for exps, coeff in self.terms.items():
            e = exps[idx]
            if not e:
                continue
            dropped = exps[:idx] + (e - 1,) + exps[idx + 1 :]
            out[dropped] = rg.held(rg.as_gaussian(coeff) * e)
        return MultiPoly._make(self.variables, out)

    def substitute(self, bindings: Mapping[str, "MultiPoly | int | Fraction | GaussianRational"]) -> "MultiPoly":
        """Substitute polynomials (or scalars) for variables.

        All polynomial binding values must share one universe; that becomes
        the universe of the result.  Unbound variables of this polynomial
        pass through unchanged and must therefore exist in the target
        universe.  With no polynomial bindings the universe is unchanged.
        """
        if not bindings:
            return self
        target: tuple[str, ...] | None = None
        for value in bindings.values():
            if isinstance(value, MultiPoly):
                if target is None:
                    target = value.variables
                elif value.variables != target:
                    raise ValueError(
                        f"bindings mix universes {target} and {value.variables}"
                    )
        if target is None:
            target = self.variables
        resolved: dict[str, MultiPoly] = {}
        for name, value in bindings.items():
            self._index(name)  # unknown binding target -> error
            if isinstance(value, MultiPoly):
                resolved[name] = value
            else:
                resolved[name] = MultiPoly.const(target, value)
        powers: dict[tuple[str, int], MultiPoly] = {}
        accum: dict[Exponents, GaussianRational] = {}
        zero_key = (0,) * len(target)
        for exps, coeff in self.terms.items():
            term: MultiPoly | None = None
            for name, e in zip(self.variables, exps):
                if not e:
                    continue
                power = powers.get((name, e))
                if power is None:
                    base = resolved.get(name)
                    if base is None:
                        base = MultiPoly.var(target, name)
                    power = base**e
                    powers[(name, e)] = power
                term = power if term is None else term * power
            if term is None:
                current = accum.get(zero_key)
                accum[zero_key] = coeff if current is None else rg.held(rg.as_gaussian(current) + coeff)
                continue
            for texps, tcoeff in term.terms.items():
                value = rg.as_gaussian(coeff) * tcoeff
                current = accum.get(texps)
                accum[texps] = rg.held(value if current is None else value + current)
        return MultiPoly._make(target, accum)

    def evaluate(self, assignment: Mapping[str, GaussianLike]) -> GaussianRational:
        """Exact value at a point; every variable that appears needs a value.

        Each value is coerced, and each power taken, once per call."""
        values: dict[str, GaussianRational] = {}
        powers: dict[tuple[str, int], GaussianRational] = {}
        total = rg.ZERO
        for exps, coeff in self.terms.items():
            term = rg.as_gaussian(coeff)
            for name, e in zip(self.variables, exps):
                if not e:
                    continue
                power = powers.get((name, e))
                if power is None:
                    value = values.get(name)
                    if value is None:
                        if name not in assignment:
                            raise ValueError(f"no value supplied for variable {name!r}")
                        value = values[name] = rg.as_gaussian(assignment[name])
                    power = powers[(name, e)] = value**e
                term = term * power
            total = total + term
        return rg.held(total)

    def extend(self, variables: Sequence[str]) -> "MultiPoly":
        """Embed into a larger universe containing all current variables."""
        variables = tuple(variables)
        if variables == self.variables:
            return self
        try:
            positions = [variables.index(name) for name in self.variables]
        except ValueError:
            missing = set(self.variables) - set(variables)
            raise ValueError(f"target universe is missing {sorted(missing)}")
        width = len(variables)
        out: dict[Exponents, GaussianRational] = {}
        for exps, coeff in self.terms.items():
            new = [0] * width
            for pos, e in zip(positions, exps):
                new[pos] = e
            out[tuple(new)] = coeff
        return MultiPoly(variables, out)

    def split_by(self, name: str) -> dict[int, "MultiPoly"]:
        """Group terms by the exponent of one variable, zeroing it out.

        p == sum(var**k * part for k, part in p.split_by(var).items()).
        """
        idx = self._index(name)
        groups: dict[int, dict[Exponents, GaussianRational]] = {}
        for exps, coeff in self.terms.items():
            k = exps[idx]
            stripped = exps[:idx] + (0,) + exps[idx + 1 :]
            groups.setdefault(k, {})[stripped] = coeff
        return {k: MultiPoly(self.variables, part) for k, part in groups.items()}

    def homogeneous_parts(self, grading_vars: Sequence[str]) -> dict[int, "MultiPoly"]:
        """Split into parts homogeneous in the given variables."""
        idx = [self._index(name) for name in grading_vars]
        parts: dict[int, dict[Exponents, GaussianRational]] = {}
        for exps, coeff in self.terms.items():
            d = sum(exps[i] for i in idx)
            parts.setdefault(d, {})[exps] = coeff
        return {d: MultiPoly(self.variables, part) for d, part in parts.items()}

    # ------------------------------------------------------------------
    # presentation

    def ordered_terms(self) -> Iterator[tuple[Exponents, GaussianRational]]:
        """Terms in graded-lexicographic order over the declared variables."""
        return iter(
            sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        rendered = []
        for exps, coeff in self.ordered_terms():
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.variables, exps)
                if e
            )
            rendered.append(_signed_term(coeff, mono))
        sign, body = rendered[0]
        out = body if sign == "+" else f"-{body}"
        for sign, body in rendered[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"MultiPoly({self.variables!r}, {dict(self.ordered_terms())!r})"


def _signed_term(coeff: GaussianRational, mono: str) -> tuple[str, str]:
    """Render one term as a (sign, body) pair ready for joining."""
    if coeff.im == 0:
        sign = "-" if coeff.re < 0 else "+"
        mag = abs(coeff.re)
        if mono and mag == 1:
            return sign, mono
        body = str(mag)
    elif coeff.re == 0:
        sign = "-" if coeff.im < 0 else "+"
        mag = abs(coeff.im)
        body = "i" if mag == 1 else f"{mag}i"
    else:
        return "+", f"({format_gaussian(coeff)})" + (f"*{mono}" if mono else "")
    return sign, body + (f"*{mono}" if mono else "")


def double_loop_mul(p, q):
    """The package's product of two `galinv.MultiPoly`s before a one-term
    factor took the key-shift path: every pair of packed terms is added
    into one dict, looking each key up."""
    if p.variables != q.variables:
        raise ValueError(f"universe mismatch: {p.variables} vs {q.variables}")
    product: dict[int, tuple[int, int]] = {}
    get = product.get
    right = list(q._num.items())
    for k1, (a, b) in p._num.items():
        for k2, (c, e) in right:
            key = k1 + k2
            re, im = get(key, (0, 0))
            product[key] = (re + a * c - b * e, im + a * e + b * c)
    return type(p)._make(p.variables, p._den * q._den, product)


def radial_parts(poly, n: int):
    """`multipoly._radial_parts` on a packed polynomial, term by term."""
    width = len(poly.variables)
    tau_shift, xi_shift, xi_mask = 8 * (width - n - 1), 8 * (width - n), (1 << 8 * n) - 1
    ones = xi_mask // 255  # the low bit of each xi byte
    odd_axes, groups = 0, {}
    for key, (re, im) in poly._num.items():
        xi = key >> xi_shift & xi_mask
        exps = xi.to_bytes(n, "little")
        odd = xi & ones
        odd_axes |= odd
        weight = prod(factorial(e >> 1) for e in exps if e)
        value = None if odd else (re * weight, im * weight)
        part = (key >> tau_shift & 255, sum(exps))
        count, first = groups.get(part, (0, value))
        groups[part] = (count + 1, first if first == value else None)
    parts = {}
    for (j, d), (count, value) in sorted(groups.items()):
        full = value is not None and count == comb(d // 2 + n - 1, n - 1)
        parts[(j, d)] = _normal(*value, poly._den * factorial(d // 2)) if full else None
    return parts, (odd_axes & -odd_axes).bit_length() + 7 >> 3


def evaluate(poly, assignment):
    """`MultiPoly.evaluate` on a packed polynomial, each power taken once
    and the terms summed in integers per denominator."""
    width = len(poly.variables)
    for i, name in enumerate(poly.variables):
        if name not in assignment and any(key >> 8 * i & 255 for key in poly._num):
            raise ValueError(f"no value supplied for variable {name!r}")
    powers: dict[tuple[int, int], tuple[int, int, int]] = {}
    sums: dict[int, tuple[int, int]] = {}
    for key, (re, im) in poly._num.items():
        den = 1
        for i, e in enumerate(key.to_bytes(width + 1, "little")[:width]):
            if not e:
                continue
            power = powers.get((i, e))
            if power is None:
                power = powers[(i, e)] = rg.held(rg.as_gaussian(assignment[poly.variables[i]]) ** e)._t
            a, b, d = power
            re, im, den = re * a - im * b, re * b + im * a, den * d
        a, b = sums.get(den, (0, 0))
        sums[den] = (a + re, b + im)
    parts = (_normal(re, im, d * poly._den) for d, (re, im) in sums.items())
    return rg.held(sum(parts, rg.ZERO))


def per_term_substitute(poly, bindings):
    """`MultiPoly.substitute` on a packed polynomial, one image per term, summed
    by `product_sum`.  An unbound power var**e is the key offset e*step, unless
    a product may pass the cap: then every power is multiplied in, to raise at
    the first term, in the order the polynomial holds them, whose image fails."""
    if not bindings:
        return poly
    cls = type(poly)
    target = None
    for value in bindings.values():
        if isinstance(value, cls):
            if target is None:
                target = value.variables
            elif value.variables != target:
                raise ValueError(f"bindings mix universes {target} and {value.variables}")
    if target is None:
        target = poly.variables
    resolved = {}
    for name, value in bindings.items():
        poly._index(name)  # unknown binding target -> error
        resolved[name] = value if isinstance(value, cls) else cls.const(target, value)
    if target == poly.variables and not poly.degree_in(*resolved):
        return poly  # no term uses a bound variable
    width, one = len(poly.variables), cls.const(target, 1)
    literal = poly.total_degree() * max(1, *(v.total_degree() for v in resolved.values())) > MAX_TOTAL_DEGREE
    powers, steps, images = {}, {}, []
    for key, pair in poly._num.items():
        term, offset = None, 0
        for i, e in enumerate(key.to_bytes(width + 1, "little")[:width]):
            if not e:
                continue
            name = poly.variables[i]
            if literal or name in resolved:
                power = powers.get((i, e))
                if power is None:
                    base = resolved.get(name) or cls.var(target, name)
                    power = powers[(i, e)] = base**e if e > 1 else base
                term = power if term is None else term * power
                continue
            if i not in steps:  # placed only once a term uses it
                steps[i] = (1 << 8 * one._index(name)) + (1 << 8 * len(target))
            offset += e * steps[i]
        images.append((one if term is None else term, (poly._den, {offset: pair})))
    return product_sum(target, images)
