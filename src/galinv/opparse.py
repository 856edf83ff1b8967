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

Every sub-expression evaluates to its plane-wave symbol over
``universe.symbol_vars(n)``: numbers, ``i``, ``I``, ``t`` and ``x<k>``
stand for themselves, and ``Dt``, ``Dx<k>`` and ``Lap`` for ``i*tau``,
``i*xi<k>`` and ``-|xi|^2``, built in that ring.  Sums are symbol sums,
and a product is the symbol product, which is the composition unless a
derivative stands left of a variable coefficient (dx o t is not what
``Dx1*t`` would suggest).  That product is rejected, so coefficients
come before derivative atoms, and a group mixing the two cannot be
raised to a power above 1.

Exponents are at most `MAX_TOTAL_DEGREE`, and so is the degree of every
symbol; parentheses nest at most `MAX_NESTING_DEPTH` levels, and the
dimension n is at most `MAX_DIMENSION`.  Anything beyond these bounds is
a parse error.

Dimension: unless given, n is inferred as the highest spatial index
mentioned; ``Lap`` with no spatial index anywhere needs an explicit n.

The operator holds the symbol of the whole expression as it is; its
coefficients are read off only when something asks for them.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_right
from fractions import Fraction
from typing import Iterator

from . import universe
from .universe import _Value
from .gaussrat import GaussianRational, I_UNIT, format_gaussian
from .lpdo import LPDO, Symbol, laplacian_symbol
from .multipoly import (
    MAX_DIMENSION, MAX_NESTING_DEPTH, MAX_TOTAL_DEGREE, MultiPoly, _const, _universe, _var, product_sum,
)


class ParseError(ValueError):
    """Syntax or semantic error, with a 1-based line and column."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class _Token(_Value):
    _fields = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int) -> None:
        self.kind = kind  # number | name | op | end
        self.text = text
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(r"\d+(?:/\d+)?|[A-Za-z][A-Za-z0-9]*|[-+*^()]|\S")
_NAME_RE = re.compile(r"(Dt|Dx(\d+)|Lap|I|i|t|x(\d+))\Z")


def _tokenize(text: str) -> list[_Token]:
    line_starts = [0]
    for m in re.finditer("\n", text):
        line_starts.append(m.end())

    def position(offset: int) -> tuple[int, int]:
        row = bisect_right(line_starts, offset) - 1
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


def _read(kind: type, text: str, token: _Token):
    """kind(text), or a ParseError at the token if kind cannot read the number."""
    try:
        return kind(text)
    except ZeroDivisionError:
        message = f"the number {text!r} has a zero denominator"
    except ValueError:
        message = f"the number has more than {sys.get_int_max_str_digits()} digits"
    raise ParseError(message, token.line, token.column)


_ORDER_MESSAGE = (
    "cannot multiply by a variable-coefficient operator on the right; "
    "write coefficients before derivative atoms"
)


class _Parser:
    """Evaluates each sub-expression to its symbol over `universe.symbol_vars`."""

    def __init__(self, tokens: list[_Token], n: int):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.n = n
        # Validated once; every atom is built over this one tuple.
        self.names = _universe(universe.symbol_vars(n))
        # Variable i sits at byte i of a packed monomial: (t, x) fill the
        # low n + 1 bytes and (tau, xi) the next n + 1.
        self.coord_mask = (1 << 8 * (n + 1)) - 1
        self.freq_mask = self.coord_mask << 8 * (n + 1)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, message: str, token: _Token | None = None):
        token = token or self.peek()
        raise ParseError(message, token.line, token.column)

    def parse(self) -> MultiPoly:
        value = self.expr()
        if self.peek().kind != "end":
            self.fail(f"unexpected trailing input {self.peek().text!r}")
        return value

    def expr(self) -> MultiPoly:
        negate = self.peek().text == "-"
        if negate:
            self.advance()
        value = self.term()
        if self.peek().text not in ("+", "-"):
            return -value if negate else value
        return product_sum(self.names, self._signed_terms(value, negate))

    def _signed_terms(self, first: MultiPoly, negate: bool) -> Iterator[tuple[MultiPoly, tuple[int, dict]]]:
        """(sign, packed term) pairs of a sum, parsed as `product_sum` asks for them."""
        one = _const(self.names, 1)
        yield (-one if negate else one), (first._den, first._num)
        while self.peek().text in ("+", "-"):
            sign = -one if self.advance().text == "-" else one
            term = self.term()
            yield sign, (term._den, term._num)

    def term(self) -> MultiPoly:
        value = self.factor()
        while True:
            look = self.peek()
            if look.text == "*":
                self.advance()
                value = self._mul(value, self.factor(), look)
            elif look.kind == "name" and look.text == "i":
                # juxtaposed imaginary unit, as in 2i or (1/2)i
                self.advance()
                value = self._mul(value, _const(self.names, I_UNIT), look)
            else:
                return value

    def _refused(self, left: MultiPoly, right: MultiPoly) -> bool:
        """A derivative left of a variable coefficient: the one product
        whose composition is not the symbol product."""
        return (any(key & self.freq_mask for key in left._num)
                and any(key & self.coord_mask for key in right._num))

    def _mul(self, left: MultiPoly, right: MultiPoly, token: _Token) -> MultiPoly:
        if self._refused(left, right):
            self.fail(_ORDER_MESSAGE, token)
        try:
            return left * right
        except ValueError as exc:
            self.fail(str(exc), token)

    def factor(self) -> MultiPoly:
        value = self.atom()
        if self.peek().text != "^":
            return value
        caret = self.advance()
        exponent = self.peek()
        if exponent.kind != "number" or "/" in exponent.text:
            self.fail("'^' needs a nonnegative integer exponent")
        k = _read(int, exponent.text, exponent)
        if k > MAX_TOTAL_DEGREE:
            self.fail(f"exponent {k} exceeds the degree cap of {MAX_TOTAL_DEGREE}")
        self.advance()
        if k > 1 and self._refused(value, value):
            self.fail(_ORDER_MESSAGE, caret)
        try:
            return value**k
        except ValueError as exc:
            self.fail(str(exc), caret)

    def atom(self) -> MultiPoly:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            return _const(self.names, _read(Fraction, token.text, token))
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

    def named_atom(self, token: _Token) -> MultiPoly:
        m = _NAME_RE.match(token.text)
        if not m:
            self.fail(f"unknown name {token.text!r}", token)
        text = token.text
        # Variable i of the universe: t is 0, x<k> is k, tau is n + 1, xi<k> is n + 1 + k.
        if text in ("i", "I"):
            return _const(self.names, I_UNIT if text == "i" else 1)
        if text == "t":
            return _var(self.names, 0)
        if text == "Dt":
            return _var(self.names, self.n + 1) * I_UNIT
        if text == "Lap":
            return laplacian_symbol(self.n)
        index = _read(int, m.group(2) or m.group(3), token)
        if index == 0:
            self.fail("spatial indices start at 1", token)
        if index > self.n:
            self.fail(f"spatial index {index} exceeds the dimension n = {self.n}", token)
        if text.startswith("Dx"):
            return _var(self.names, self.n + 1 + index) * I_UNIT
        return _var(self.names, index)


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
            highest = max(highest, _read(int, m.group(2) or m.group(3), token))
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
            _Parser(tokens, 1).parse()  # errors the parser can place, such as Dx0, come first
            raise ParseError("Lap with no spatial index needs an explicit dimension n")
        else:
            n = 1
    elif highest > n:
        raise ParseError(f"spatial index {highest} exceeds the declared n = {n}")
    if n > MAX_DIMENSION:
        raise ParseError(f"dimension n = {n} exceeds the cap of {MAX_DIMENSION}")
    poly = _Parser(tokens, n).parse()
    if poly.is_zero:
        raise ParseError(
            "the expression is the zero operator, which is outside the class"
        )
    order = poly.degree_in(*poly.variables[n + 1 :])  # degree in (tau, xi)
    return LPDO._of_symbol(Symbol(poly, n, order))


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
    if not value.is_constant:
        raise ParseError(f"{text!r} is not a scalar")
    return value.constant_value()
