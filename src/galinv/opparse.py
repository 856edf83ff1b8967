"""Parser and printer for the operator description language.

Grammar (whitespace between tokens is ignored)::

    expr   :=  ['-'] term (('+' | '-') term)*
    term   :=  factor (('*' factor) | imaginary-unit)*
    factor :=  atom ['^' integer]
    atom   :=  number | 'i' | 'I' | 't' | 'x<k>' | 'Dt' | 'Dx<k>'
             | 'Lap' | '(' expr ')'

Numbers are nonnegative rationals written as ``p`` or ``p/q``; the
imaginary unit ``i`` may follow a number or a parenthesised group with
no ``*``, so ``2i`` and ``(1/2)i`` work.  ``Dt`` and ``Dx<k>`` are the
time and space derivatives, ``Lap`` the Laplacian, ``I`` the identity,
``t``/``x<k>`` polynomial coefficient variables.

Products combine a coefficient polynomial with a derivative monomial.
Polynomial factors must come before derivative atoms in a term (the
composition dx o t is not what ``Dx1*t`` would suggest, so it is
rejected); a parenthesised group raised to a power composes the group
with itself, which requires constant coefficients.

Parentheses nest at most `MAX_NESTING_DEPTH` levels; deeper is an error.

Dimension: unless given, n is inferred as the highest spatial index
mentioned; ``Lap`` with no spatial index anywhere needs an explicit n.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import universe
from .gaussrat import GaussianRational, I_UNIT, format_gaussian
from .lpdo import DerivKey, LPDO
from .multipoly import MAX_NESTING_DEPTH, MultiPoly


class ParseError(ValueError):
    """Syntax or semantic error, with a 1-based line and column."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass
class _Token:
    kind: str  # number | name | op | end
    text: str
    line: int
    column: int


_TOKEN_RE = re.compile(r"\d+(?:/\d+)?|[A-Za-z][A-Za-z0-9]*|[-+*^()]|\S")
_NAME_RE = re.compile(r"(Dt|Dx(\d+)|Lap|I|i|t|x(\d+))\Z")


def _tokenize(text: str) -> list[_Token]:
    line_starts = [0]
    for m in re.finditer("\n", text):
        line_starts.append(m.end())

    def position(offset: int) -> tuple[int, int]:
        row = next(
            i for i in range(len(line_starts) - 1, -1, -1) if line_starts[i] <= offset
        )
        return row + 1, offset - line_starts[row] + 1

    tokens = []
    for m in _TOKEN_RE.finditer(text):
        piece = m.group()
        if piece.isspace():
            continue
        line, column = position(m.start())
        if piece[0].isdigit():
            kind = "number"
        elif piece[0].isalpha():
            kind = "name"
        elif piece in "+-*^()":
            kind = "op"
        else:
            raise ParseError(f"unexpected character {piece!r}", line, column)
        tokens.append(_Token(kind, piece, line, column))
    end_line, end_column = position(len(text))
    tokens.append(_Token("end", "", end_line, end_column))
    return tokens


class _OpValue:
    """Partially built operator: a (j, alpha) -> coefficient-poly map.

    The zero map is allowed here (terms may cancel while parsing); only
    the final conversion to an LPDO rejects it.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: dict[DerivKey, MultiPoly]):
        self.n = n
        self.coeffs = {key: poly for key, poly in coeffs.items() if not poly.is_zero}

    @classmethod
    def scalar(cls, n: int, value) -> "_OpValue":
        names = universe.coeff_vars(n)
        return cls(n, {(0, (0,) * n): MultiPoly.const(names, value)})

    @classmethod
    def poly(cls, n: int, poly: MultiPoly) -> "_OpValue":
        return cls(n, {(0, (0,) * n): poly})

    @classmethod
    def derivative(cls, n: int, key: DerivKey) -> "_OpValue":
        names = universe.coeff_vars(n)
        return cls(n, {key: MultiPoly.const(names, 1)})

    @property
    def zero_key(self) -> DerivKey:
        return (0, (0,) * self.n)

    @property
    def is_pure_poly(self) -> bool:
        return set(self.coeffs) <= {self.zero_key}

    @property
    def is_constant_scalar(self) -> bool:
        return self.is_pure_poly and all(p.is_constant for p in self.coeffs.values())

    @property
    def is_constant_op(self) -> bool:
        return all(p.is_constant for p in self.coeffs.values())

    def __add__(self, other: "_OpValue") -> "_OpValue":
        merged = dict(self.coeffs)
        for key, poly in other.coeffs.items():
            merged[key] = merged[key] + poly if key in merged else poly
        return _OpValue(self.n, merged)

    def __neg__(self) -> "_OpValue":
        return _OpValue(self.n, {key: -poly for key, poly in self.coeffs.items()})

    def __mul__(self, other: "_OpValue") -> "_OpValue":
        if self.is_pure_poly:
            factor = self.coeffs.get(self.zero_key)
            if factor is None:
                return _OpValue(self.n, {})
            return _OpValue(
                self.n, {key: factor * poly for key, poly in other.coeffs.items()}
            )
        if other.is_constant_scalar:
            value = other.coeffs.get(other.zero_key)
            if value is None:
                return _OpValue(self.n, {})
            scalar = value.constant_value()
            return _OpValue(
                self.n, {key: poly * scalar for key, poly in self.coeffs.items()}
            )
        if other.is_constant_op:
            out: dict[DerivKey, MultiPoly] = {}
            for (j1, a1), p1 in self.coeffs.items():
                for (j2, a2), p2 in other.coeffs.items():
                    key = (j1 + j2, tuple(x + y for x, y in zip(a1, a2)))
                    piece = p1 * p2.constant_value()
                    out[key] = out[key] + piece if key in out else piece
            return _OpValue(self.n, out)
        raise ValueError(
            "cannot multiply by a variable-coefficient operator on the right; "
            "write coefficients before derivative atoms"
        )

    def __pow__(self, k: int) -> "_OpValue":
        result = _OpValue.scalar(self.n, 1)
        for _ in range(k):
            result = result * self
        return result

    def to_lpdo(self) -> LPDO:
        if not self.coeffs:
            raise ValueError(
                "the expression is the zero operator, which is outside the class"
            )
        return LPDO(self.n, self.coeffs)


class _Parser:
    def __init__(self, tokens: list[_Token], n: int):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.n = n
        self.names = universe.coeff_vars(n)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, message: str, token: _Token | None = None):
        token = token or self.peek()
        raise ParseError(message, token.line, token.column)

    def parse(self) -> _OpValue:
        value = self.expr()
        if self.peek().kind != "end":
            self.fail(f"unexpected trailing input {self.peek().text!r}")
        return value

    def expr(self) -> _OpValue:
        negate = False
        if self.peek().text == "-":
            self.advance()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            rhs = self.term()
            value = value + (-rhs if op == "-" else rhs)
        return value

    def term(self) -> _OpValue:
        value = self.factor()
        while True:
            look = self.peek()
            if look.text == "*":
                self.advance()
                value = self._mul(value, self.factor(), look)
            elif look.kind == "name" and look.text == "i":
                # juxtaposed imaginary unit, as in 2i or (1/2)i
                self.advance()
                value = self._mul(value, _OpValue.scalar(self.n, I_UNIT), look)
            else:
                return value

    def _mul(self, left: _OpValue, right: _OpValue, token: _Token) -> _OpValue:
        try:
            return left * right
        except ValueError as exc:
            self.fail(str(exc), token)

    def factor(self) -> _OpValue:
        value = self.atom()
        if self.peek().text == "^":
            caret = self.advance()
            exponent = self.peek()
            if exponent.kind != "number" or "/" in exponent.text:
                self.fail("'^' needs a nonnegative integer exponent")
            self.advance()
            try:
                return value ** int(exponent.text)
            except ValueError as exc:
                self.fail(str(exc), caret)
        return value

    def atom(self) -> _OpValue:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            return _OpValue.scalar(self.n, Fraction(token.text))
        if token.text == "(":
            if self.depth == MAX_NESTING_DEPTH:
                self.fail(f"parentheses nest deeper than {MAX_NESTING_DEPTH} levels")
            self.advance()
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            if self.peek().text != ")":
                self.fail("expected ')'")
            self.advance()
            return value
        if token.kind == "name":
            self.advance()
            return self.named_atom(token)
        self.fail(f"expected a coefficient, variable, or derivative, got {token.text!r}")

    def named_atom(self, token: _Token) -> _OpValue:
        m = _NAME_RE.match(token.text)
        if not m:
            self.fail(f"unknown name {token.text!r}", token)
        text = token.text
        if text == "i":
            return _OpValue.scalar(self.n, I_UNIT)
        if text == "I":
            return _OpValue.scalar(self.n, 1)
        if text == "t":
            return _OpValue.poly(self.n, MultiPoly.var(self.names, universe.TIME))
        if text == "Dt":
            return _OpValue.derivative(self.n, (1, (0,) * self.n))
        if text == "Lap":
            value = _OpValue(self.n, {})
            for a in range(1, self.n + 1):
                alpha = tuple(2 if b == a else 0 for b in range(1, self.n + 1))
                value = value + _OpValue.derivative(self.n, (0, alpha))
            return value
        index = int(m.group(2) or m.group(3))
        if not 1 <= index <= self.n:
            self.fail(
                f"spatial index {index} exceeds the dimension n = {self.n}", token
            )
        if text.startswith("Dx"):
            alpha = tuple(1 if b == index else 0 for b in range(1, self.n + 1))
            return _OpValue.derivative(self.n, (0, alpha))
        return _OpValue.poly(
            self.n, MultiPoly.var(self.names, universe.space(index))
        )


def _scan_dimension(tokens: list[_Token]) -> tuple[int, bool]:
    """Highest spatial index mentioned, and whether Lap occurs."""
    highest = 0
    saw_lap = False
    for token in tokens:
        if token.kind != "name":
            continue
        if token.text == "Lap":
            saw_lap = True
            continue
        m = _NAME_RE.match(token.text)
        if m and (m.group(2) or m.group(3)):
            highest = max(highest, int(m.group(2) or m.group(3)))
    return highest, saw_lap


def parse_operator(text: str, n: int | None = None) -> LPDO:
    """Parse the operator language into an exact LPDO."""
    if n is not None and n < 1:
        raise ParseError(f"dimension n must be at least 1, got {n}")
    tokens = _tokenize(text)
    highest, saw_lap = _scan_dimension(tokens)
    if n is None:
        if highest:
            n = highest
        elif saw_lap:
            raise ParseError("Lap with no spatial index needs an explicit dimension n")
        else:
            n = 1
    elif highest > n:
        raise ParseError(f"spatial index {highest} exceeds the declared n = {n}")
    value = _Parser(tokens, n).parse()
    try:
        return value.to_lpdo()
    except ValueError as exc:
        raise ParseError(str(exc))


_SIMPLE_COEFF_RE = re.compile(r"(\d+(/\d+)?)?i?\Z")


def _coeff_text(value: GaussianRational) -> str:
    """A coefficient factor, parenthesised unless it is a bare literal."""
    text = format_gaussian(value)
    if _SIMPLE_COEFF_RE.match(text):
        return text
    return f"({text})"


def _poly_factor(poly: MultiPoly) -> str | None:
    """Coefficient factor for one term; None when the coefficient is 1."""
    if poly.is_constant:
        value = poly.constant_value()
        if value == 1:
            return None
        return _coeff_text(value)
    return f"({poly})"


def format_operator(op: LPDO) -> str:
    """Print an operator in the grammar; parse(format(L)) == L exactly."""
    keys = sorted(
        op.coeffs,
        key=lambda key: (
            -(key[0] + sum(key[1])),
            -key[0],
            tuple(-a for a in key[1]),
        ),
    )
    pieces = []
    for j, alpha in keys:
        atoms = []
        if j:
            atoms.append("Dt" if j == 1 else f"Dt^{j}")
        for a, e in enumerate(alpha, start=1):
            if e:
                atoms.append(f"Dx{a}" if e == 1 else f"Dx{a}^{e}")
        factor = _poly_factor(op.coeffs[(j, alpha)])
        if not atoms:
            pieces.append(factor if factor is not None else "1")
        elif factor is None:
            pieces.append("*".join(atoms))
        else:
            pieces.append(factor + "*" + "*".join(atoms))
    return " + ".join(pieces)


def parse_gaussian_literal(text: str) -> GaussianRational:
    """Parse a scalar like "3/2+1/2i" through the operator grammar."""
    value = _Parser(_tokenize(text), 1).parse()
    if not value.coeffs:
        return GaussianRational()
    only = value.coeffs.get((0, (0,)))
    if set(value.coeffs) != {(0, (0,))} or only is None or not only.is_constant:
        raise ParseError(f"{text!r} is not a scalar")
    return only.constant_value()
