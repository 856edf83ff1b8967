"""Sparse multivariate polynomials over the Gaussian rationals.

A polynomial carries an explicit, ordered tuple of variable names (its
universe) and is held as one positive integer denominator d over a map
from packed monomials to Gaussian-integer numerators (re, im), as in
FLINT's fmpq_mpoly:

    t*x1^2 + 3/2   over (t, x1)   ->   d = 2, {t*x1^2: (2, 0), 1: (3, 0)}

A monomial is one integer, 8 bits per exponent and the total degree in
the byte above: sum(e_i << 8*i) + (deg << 8*w) for w variables, so adding
keys multiplies monomials, without carry as capped degrees are at most 64.
Each operation drops zero numerators and divides out gcd(d, numerators),
so equal polynomials hold equal (d, map).  `.terms` is the map from
exponent tuples to `GaussianRational`, built once on demand.  Values are
immutable and exact.  The order in which `.terms` lists the terms is not
specified; `str` and `repr` list them by `ordered_terms`, graded-lex.  The
total degree of any term is capped (`MAX_TOTAL_DEGREE`, unchanged by the
packed layout) so that a runaway composition fails fast with a clear error.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import comb, factorial, gcd, lcm, prod
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .gaussrat import GaussianLike, GaussianRational, _normal, as_gaussian, format_gaussian

Exponents = tuple[int, ...]

MAX_TOTAL_DEGREE = 64
# Largest spatial dimension `LPDO` and `opparse` accept: the symbol
# universe has 2n + 2 variables, and work grows about quadratically in n.
MAX_DIMENSION = 1000
# Deepest parenthesis nesting `opparse` accepts: the parser recurses per
# level, so deeper input would exhaust Python's recursion limit.
MAX_NESTING_DEPTH = 100

_SCALARS = (int, Fraction, GaussianRational)


class MultiPoly:
    __slots__ = ("variables", "_den", "_num", "_terms")

    def __init__(
        self,
        variables: Sequence[str],
        terms: Mapping[Exponents, GaussianLike] | None = None,
    ):
        variables = _universe(variables)
        canonical: dict[Exponents, GaussianRational] = {}
        width = len(variables)
        for exps, raw in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != width:
                raise ValueError(
                    f"exponent vector {exps} does not match universe of size {width}"
                )
            if min(exps) < 0:
                raise ValueError(f"negative exponent in {exps}")
            _check_cap(sum(exps))
            coeff = as_gaussian(raw)
            if coeff:
                canonical[exps] = coeff
        # Over the lcm of reduced denominators the content is already 1.
        den = lcm(*(coeff._t[2] for coeff in canonical.values()))
        num = {}
        for exps, coeff in canonical.items():
            a, b, d = coeff._t
            num[int.from_bytes(bytes((*exps, sum(exps))), "little")] = (a * den // d, b * den // d)
        _build(variables, den, num, canonical, self)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def __delattr__(self, name):
        raise AttributeError("MultiPoly is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def _make(cls, variables: tuple[str, ...], den: int, num: dict) -> "MultiPoly":
        """Fast path from packed keys: drop zeros, check the cap, divide out the content."""
        num = _nonzero(variables, num)
        if not num:
            return _build(variables, 1, num)
        g = den
        for re, im in num.values():
            g = gcd(g, re, im)
            if g == 1:
                return _build(variables, den, num)
        num = {key: (re // g, im // g) for key, (re, im) in num.items()}
        return _build(variables, den // g, num)

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables: Sequence[str], value: GaussianLike) -> "MultiPoly":
        return _const(_universe(variables), value)

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "MultiPoly":
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"variable {name!r} is not in universe {variables}")
        return _var(_universe(variables), variables.index(name))

    # ------------------------------------------------------------------
    # predicates and accessors

    @property
    def terms(self) -> dict[Exponents, GaussianRational]:
        """Exponent tuple -> nonzero coefficient, in no specified order (built once)."""
        if self._terms is None:
            width, den = len(self.variables), self._den
            _set_terms(self, {
                tuple(key.to_bytes(width + 1, "little")[:width]): _normal(re, im, den)
                for key, (re, im) in self._num.items()
            })
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_constant(self) -> bool:
        return not any(self._num)

    @property
    def is_real(self) -> bool:
        """Every coefficient has a zero imaginary part."""
        return not any(im for _, im in self._num.values())

    def constant_value(self) -> GaussianRational:
        """The value of a constant polynomial (error if non-constant)."""
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        re, im = self._num.get(0, (0, 0))
        return _normal(re, im, self._den)

    def coefficient(self, exps: Exponents) -> GaussianRational:
        """Coefficient of one monomial; zero for any vector that names none."""
        exps = tuple(exps)
        if len(exps) != len(self.variables) or min(exps) < 0 or sum(exps) > MAX_TOTAL_DEGREE:
            return GaussianRational()
        re, im = self._num.get(int.from_bytes(bytes((*exps, sum(exps))), "little"), (0, 0))
        return _normal(re, im, self._den)

    def total_degree(self) -> int:
        """Largest term degree; 0 for the zero polynomial."""
        return max(self._num, default=0) >> 8 * len(self.variables)

    def degree_in(self, *names: str) -> int:
        """Largest degree of a term in the given variables together."""
        position = {name: i for i, name in enumerate(self.variables)}
        mask, width = 0, len(self.variables)
        for name in names:
            if name not in position:
                self._index(name)  # raises the unknown-variable error
            mask |= 255 << 8 * position[name]
        # Times 0x0101..01, byte width-1 sums the masked bytes; the cap stops carries.
        ones, shift = (1 << 8 * width) // 255, 8 * (width - 1)
        return max(((key & mask) * ones >> shift & 255 for key in self._num), default=0)

    def _index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ValueError(f"variable {name!r} is not in universe {self.variables}")

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            if other.variables is not self.variables and other.variables != self.variables:
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
        return (self.variables, self._den, self._num) == (other.variables, other._den, other._num)

    __hash__ = None  # mutable-looking container; never used as a key

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        return NotImplemented if other is None else _merge(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        num = {key: (-re, -im) for key, (re, im) in self._num.items()}
        return _build(self.variables, self._den, num)

    def __sub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        return NotImplemented if other is None else _merge(self, other, -1)

    def __rsub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        return NotImplemented if other is None else _merge(other, self, -1)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, _SCALARS):
            c, e, f = as_gaussian(other)._t
            num = {key: (a * c - b * e, a * e + b * c) for key, (a, b) in self._num.items()}
            return MultiPoly._make(self.variables, self._den * f, num)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = self._den * other._den
        return MultiPoly._make(self.variables, *_add_product(den, {}, den, self._num, other._num))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        """k successive products by the base, from 1, which beat repeated
        squaring on sparse powers.  Degrees add exactly under products, so
        the cap is checked before the first one; a constant, whose exponent
        no degree bounds, squares its numerator pair in integers over den**k."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take a nonnegative integer exponent")
        if self.is_constant:
            (a, b), re, im, k = self._num.get(0, (0, 0)), 1, 0, exponent
            while k:
                if k & 1:
                    re, im = re * a - im * b, re * b + im * a
                a, b, k = a * a - b * b, 2 * a * b, k >> 1
            return MultiPoly._make(self.variables, self._den ** exponent, {0: (re, im)})
        _check_cap(exponent * self.total_degree())
        result = _const(self.variables, 1)
        for _ in range(exponent):
            result = result * self
        return result

    # ------------------------------------------------------------------
    # calculus and structure

    def partial(self, name: str) -> "MultiPoly":
        """Formal partial derivative with respect to one variable."""
        return MultiPoly._make(self.variables, self._den, _partial(self.variables, self._index(name), self._num))

    def substitute(self, bindings: Mapping[str, "MultiPoly | int | Fraction | GaussianRational"]) -> "MultiPoly":
        """Substitute polynomials (or scalars) for variables.

        All polynomial binding values must share one universe; that becomes
        the universe of the result.  Unbound variables that a term uses pass
        through unchanged and must therefore exist in the target universe;
        else the first in universe order raises.  With no polynomial bindings
        the universe is unchanged.  A term that uses a variable bound to 0
        has no image.  The others are grouped by their bound exponents, and
        `product_sum` takes one pair per group: a product of bound powers and
        q, the group's unbound parts moved into the target.  Degrees add
        exactly under products, so the largest image degree is checked
        against the cap first, before any power or product is taken.
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
        images: dict[int, MultiPoly] = {}
        for name, value in bindings.items():  # an unknown binding target raises
            images[self._index(name)] = value if isinstance(value, MultiPoly) else MultiPoly.const(target, value)
        images, used = {i: images[i] for i in sorted(images)}, 0
        for key in self._num:
            used |= key
        bound = sum(255 << 8 * i for i in images)
        if target == self.variables and not used & bound:
            return self  # no term uses a bound variable
        one, top = MultiPoly.const(target, 1), 8 * len(target)
        # The key step in the target of each unbound variable that a term uses.
        steps = [(8 * i, (1 << 8 * one._index(name)) + (1 << top))
                 for i, name in enumerate(self.variables) if i not in images and used >> 8 * i & 255]
        zero = sum(255 << 8 * i for i, image in images.items() if image.is_zero)
        groups: dict[int, dict] = {}
        for key, pair in self._num.items():
            if not key & zero:
                offset = 0
                for shift, step in steps:
                    offset += (key >> shift & 255) * step
                groups.setdefault(key & bound, {})[offset] = pair
        factors = {b: [(i, b >> 8 * i & 255) for i in images if b >> 8 * i & 255] for b in groups}
        degrees = {i: image.total_degree() for i, image in images.items()}
        _check_cap(max((sum(e * degrees[i] for i, e in factors[b]) + (max(q) >> top)
                        for b, q in groups.items()), default=0))
        powers = {(i, e): images[i] ** e for i, e in {f for fs in factors.values() for f in fs}}
        return product_sum(target, [(prod((powers[f] for f in factors[b]), start=one), (self._den, q))
                                    for b, q in groups.items()])

    def evaluate(self, assignment: Mapping[str, GaussianLike]) -> GaussianRational:
        """Exact value at a point; every variable that appears needs a value,
        and the first in universe order that has none raises."""
        plan = _plan(self, assignment)
        return _normal(*_plan_value(plan, {name: as_gaussian(assignment[name])._t for name, _ in plan[1]}))

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
        width, new_width = len(self.variables), len(_universe(variables))
        if not any(self._num):  # a constant keeps its one key, 0
            return _build(variables, self._den, self._num)
        positions.append(new_width)  # the degree byte
        out: dict[int, tuple[int, int]] = {}
        for key, pair in self._num.items():
            new = bytearray(new_width + 1)
            for pos, e in zip(positions, key.to_bytes(width + 1, "little")):
                new[pos] = e
            out[int.from_bytes(new, "little")] = pair
        return _build(variables, self._den, out)

    # ------------------------------------------------------------------
    # presentation

    def ordered_terms(self) -> Iterator[tuple[Exponents, GaussianRational]]:
        """Terms in graded-lexicographic order over the declared variables."""
        return iter(
            sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
        )

    def __str__(self) -> str:
        if not self._num:
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


_new = object.__new__
_set_variables, _set_den, _set_num, _set_terms = (
    getattr(MultiPoly, slot).__set__ for slot in MultiPoly.__slots__
)


def _build(variables, den, num, terms=None, poly=None) -> MultiPoly:
    """Fill in a new (or the given) polynomial from fields already canonical."""
    poly = _new(MultiPoly) if poly is None else poly
    _set_variables(poly, variables)
    _set_den(poly, den)
    _set_num(poly, num)
    _set_terms(poly, terms)
    return poly


def _const(variables: tuple[str, ...], value: GaussianLike) -> MultiPoly:
    """A constant over a universe that `_universe` has accepted."""
    a, b, d = as_gaussian(value)._t
    return _build(variables, d, {0: (a, b)} if a or b else {})


def _var(variables: tuple[str, ...], index: int) -> MultiPoly:
    """The index-th variable of a universe that `_universe` has accepted."""
    return _build(variables, 1, {(1 << 8 * index) + (1 << 8 * len(variables)): (1, 0)})


def _rational_terms(variables: tuple[str, ...], terms: Iterable[tuple[Sequence[int], Fraction | int]]) -> MultiPoly:
    """sum(value * product of variables[i] for i in indices) over (indices,
    value) pairs with distinct index multisets, zero values dropped, over a
    universe that `_universe` has accepted."""
    terms = [(indices, Fraction(value)) for indices, value in terms]
    den = lcm(*(value.denominator for _, value in terms))
    return _integer_terms(variables, den, [(indices, value.numerator * (den // value.denominator))
                                           for indices, value in terms])


def _integer_terms(variables: tuple[str, ...], den: int, terms: Iterable[tuple[Sequence[int], int]]) -> MultiPoly:
    """`_rational_terms` of integer numerators over one denominator, packed in one pass."""
    top = 8 * len(variables)
    num = {sum(1 << 8 * i for i in indices) + (len(indices) << top): (value, 0) for indices, value in terms}
    return MultiPoly._make(variables, den, num)


def _universe(variables: Sequence[str]) -> tuple[str, ...]:
    variables = tuple(variables)
    if not variables:
        raise ValueError("a polynomial needs at least one variable")
    if len(set(variables)) != len(variables):
        raise ValueError(f"duplicate variable names in {variables}")
    return variables


def _merge(p: MultiPoly, q: MultiPoly, sign: int) -> MultiPoly:
    """p + sign*q over the lcm of the two denominators."""
    if not q._num or not p._num and sign == 1:  # both are canonical already
        return q if q._num else p
    return MultiPoly._make(p.variables, *_add_product(p._den, dict(p._num), q._den, q._num, {0: (sign, 0)}))


def _check_cap(degree: int) -> None:
    """The degree cap, applied to one term's degree."""
    if degree > MAX_TOTAL_DEGREE:
        raise ValueError(f"term degree {degree} exceeds the cap of {MAX_TOTAL_DEGREE}")


def _nonzero(variables: tuple[str, ...], num: dict) -> dict:
    """Packed numerators without their zeros, once no term passes the cap;
    else the error names the largest degree, which no term order changes."""
    if (0, 0) in num.values():
        num = {key: pair for key, pair in num.items() if pair != (0, 0)}
    if num:
        _check_cap(max(num) >> 8 * len(variables))
    return num


def _plan(poly: MultiPoly, names: Iterable[str]) -> tuple[int, list[tuple[str, int]], list[tuple]]:
    """What evaluating poly needs of poly alone: its denominator, (name, top degree)
    of each variable a term uses, in universe order, and each term's exponents of
    those with its numerator pair.  The first such variable `names` lacks raises."""
    width = len(poly.variables)
    packed = b"".join(key.to_bytes(width + 1, "little") for key in poly._num)
    columns, used = [], []
    for i, name in enumerate(poly.variables):
        column = packed[i :: width + 1]
        if max(column, default=0):
            if name not in names:
                raise ValueError(f"no value supplied for variable {name!r}")
            columns.append(column)
            used.append((name, max(column)))
    return poly._den, used, [(exps, re, im) for *exps, (re, im) in zip(*columns, poly._num.values())]


def _plan_value(plan: tuple, values: Mapping[str, tuple[int, int, int]]) -> tuple[int, int, int]:
    """A planned polynomial's value as an unnormalised triple (re, im, den), given
    (a + b*i)/d as (a, b, d), in any terms, for each variable it uses.  For one of
    top degree D at z/d, a table holds z^e * d^(D-e) for e = 0..D, so each term is
    an integer pair over den * d^D, summed once."""
    den, used, terms = plan
    tables = []
    for name, top in used:
        a, b, d = values[name]
        g = gcd(a, b, d)  # lowest terms keep the table's entries small
        a, b, d = a // g, b // g, d // g
        x, y, table = d**top, 0, []
        den *= x
        for _ in range(top + 1):  # each entry is the last times z/d, exactly while e < D
            table.append((x, y))
            x, y = (x * a - y * b) // d, (x * b + y * a) // d
        tables.append(table)
    total_re = total_im = 0
    for exps, re, im in terms:
        for e, table in zip(exps, tables):
            x, y = table[e]
            re, im = re * x - im * y, re * y + im * x
        total_re += re
        total_im += im
    return total_re, total_im, den


def _partial(variables: tuple[str, ...], index: int, num: dict) -> dict:
    """The packed numerators of d/dx, x the index-th variable."""
    shift = 8 * index
    step = (1 << shift) + (1 << 8 * len(variables))
    out: dict[int, tuple[int, int]] = {}
    for key, (re, im) in num.items():
        e = key >> shift & 255
        if e:
            out[key - step] = (re * e, im * e)
    return out


def product_sum(variables: Sequence[str], pairs: Iterable[tuple[MultiPoly, tuple[int, dict]]]) -> MultiPoly:
    """sum(p.extend(variables) * q for p, (den, num) in pairs), where q = num/den is
    packed over `variables` with no zero term, its content not necessarily
    divided out.  Each product is added up key by key into one dict as the
    pairs come, and `_make` drops the zeros and checks the cap once, on the
    sum.  Each caller bounds every product's degree, deg p + deg q, before
    the call: past degree 255 the packed keys would carry."""
    variables = _universe(variables)
    den, accum, lead = 1, {}, None  # lead: a universe that begins `variables`
    for p, (d, terms) in pairs:
        if p.variables is not lead and p.variables == variables[: len(p.variables)]:
            lead = p.variables
        if not (p.variables is lead and len(p._num) == 1 and 0 in p._num):
            p = p.extend(variables)  # q times a constant needs no embedding
        den, accum = _add_product(den, accum, d * p._den, p._num, terms)
    return MultiPoly._make(variables, den, accum)


def _add_product(den: int, num: dict, d: int, left: dict, right: dict) -> tuple[int, dict]:
    """num/den + left*right/d over lcm(den, d), added by key into num, a dict
    no polynomial holds (a new one when den grows): the one fold that
    multiplies packed terms, with no check of the cap.  Into an empty sum a
    factor of one term shifts the other's keys, which keeps them distinct, so
    there are no lookups; else right's terms, the fewer as callers pass them,
    times each of left's in turn are looked up and added."""
    if den % d:
        common = lcm(den, d)
        scale, den = common // den, common
        num = {key: (re * scale, im * scale) for key, (re, im) in num.items()} if num else {}
    m = den // d
    if not num and (len(left) == 1 or len(right) == 1):
        one, many = (left, right) if len(left) == 1 else (right, left)
        ((k1, (c, e)),) = one.items()
        c, e = c * m, e * m
        for k2, (a, b) in many.items():
            num[k1 + k2] = (a * c - b * e, a * e + b * c)
        return den, num
    get = num.get
    for k2, (c, e) in right.items():
        c, e = c * m, e * m
        for k1, (a, b) in left.items():
            key = k1 + k2
            re, im = get(key, (0, 0))
            num[key] = (re + a * c - b * e, im + a * e + b * c)
    return den, num


def split_trailing(
    poly: MultiPoly, width: int, scale: Callable[[Exponents], GaussianLike]
) -> dict[Exponents, MultiPoly]:
    """Tail exponents -> scale(tail) * the terms with that tail, over the
    first `width` variables."""
    lead = _universe(poly.variables[:width])
    shift, top = 8 * width, 8 * len(poly.variables)
    low, tails = (1 << shift) - 1, (1 << top - shift) - 1
    groups: dict[int, tuple] = {}
    for key, (re, im) in poly._num.items():
        tail = key >> shift & tails
        group = groups.get(tail)
        if group is None:
            exps = tuple(tail.to_bytes(len(poly.variables) - width, "little"))
            group = groups[tail] = (exps, sum(exps), as_gaussian(scale(exps))._t, {})
        _, degree, (c, e, _), num = group
        # The lead bytes stay; the degree byte drops the tail's degree.
        num[(key & low) + ((key >> top) - degree << shift)] = (re * c - im * e, re * e + im * c)
    return {exps: MultiPoly._make(lead, poly._den * f, num)
            for exps, _, (_, _, f), num in groups.values()}


def _radial_parts(poly: MultiPoly, n: int) -> tuple[dict[tuple[int, int], GaussianRational | None], int]:
    """One pass over a polynomial in (tau, xi1..xin), the last n + 1
    variables of its universe, with every other exponent zero.

    Returns each part of tau-degree j and xi-degree d, ascending in (j, d),
    mapped to b when it equals b*tau^j*|xi|^d and to None otherwise, and
    the least a with a term odd in xi_a (0 if none).  By the multinomial
    theorem a part is b*tau^j*|xi|^(2k) exactly when every xi exponent is
    even, 2*beta, it has all C(k+n-1, n-1) terms, and every numerator
    times beta_1!...beta_n! is the same, b*k! over the shared denominator.
    """
    width = len(poly.variables)
    tau_shift, xi_shift, xi_mask = 8 * (width - n - 1), 8 * (width - n), (1 << 8 * n) - 1
    ones, top = xi_mask // 255, 8 * width  # the low bit of each xi byte; the degree byte
    odd_axes, groups = 0, {}
    for key, (re, im) in poly._num.items():
        xi, j = key >> xi_shift & xi_mask, key >> tau_shift & 255
        odd = xi & ones
        if odd:
            odd_axes |= odd
            value = None
        else:  # even bytes halve without borrows, so xi >> 1 holds beta_1..beta_n
            weight = prod(map(factorial, (xi >> 1).to_bytes(n, "little")))
            value = (re * weight, im * weight)
        part = (j, (key >> top) - j)
        count, first = groups.get(part, (0, value))
        groups[part] = (count + 1, first if first == value else None)
    parts: dict[tuple[int, int], GaussianRational | None] = {}
    for (j, d), (count, value) in sorted(groups.items()):
        full = value is not None and count == comb(d // 2 + n - 1, n - 1)
        parts[(j, d)] = _normal(*value, poly._den * factorial(d // 2)) if full else None
    # Bit 8*(a-1) marks axis a, so the lowest set bit names the least odd axis.
    return parts, (odd_axes & -odd_axes).bit_length() + 7 >> 3


def _relabelling_moves(poly: MultiPoly, perm: Sequence[int]) -> bool:
    """Whether giving the a-th of the last len(perm) variables the exponent
    of the perm[a]-th (1-based) changes the polynomial.

    Relabelling permutes the monomials, so it fixes the polynomial exactly
    when every key's image holds the key's numerator."""
    first = 8 * (len(poly.variables) - len(perm) - 1)
    moved = [(first + 8 * a, first + 8 * b) for a, b in enumerate(perm, 1) if a != b]
    num = poly._num
    for key, pair in num.items():
        image = key
        for dst, src in moved:
            image += ((key >> src & 255) - (key >> dst & 255)) << dst
        if num.get(image) != pair:
            return True
    return False


def _symmetric(poly: MultiPoly, n: int) -> bool:
    """Whether every permutation of the last n variables fixes the polynomial.

    Permuting those exponents keeps a key in its orbit: the same other
    exponents and the same sorted last n.  So the polynomial is symmetric
    exactly when every orbit it meets is full, n!/(m_1!...m_r!) keys for
    exponent multiplicities m, and holds one numerator."""
    shift, mask = 8 * (len(poly.variables) - n), (1 << 8 * n) - 1
    orbits: dict[tuple[int, bytes], tuple[int, tuple[int, int]]] = {}
    for key, pair in poly._num.items():
        orbit = (key & ~(mask << shift), bytes(sorted((key >> shift & mask).to_bytes(n, "little"))))
        count, first = orbits.get(orbit, (0, pair))
        if first != pair:
            return False
        orbits[orbit] = (count + 1, pair)
    whole = factorial(n)
    return all(
        count * prod(factorial(len(list(run))) for _, run in groupby(exps)) == whole
        for (_, exps), (count, _) in orbits.items()
    )


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
