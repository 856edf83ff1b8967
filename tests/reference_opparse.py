"""The tokenizer's old line lookup, kept as a reference.

`galinv.opparse._tokenize` finds the line of each token by bisecting the
list of line starts.  The route it replaced lives here unchanged: scan
the line starts backwards from the last one for every token, which costs
time linear in the number of lines per token.  The tests require both to
give the same tokens, and the same `ParseError` text, line and column.
"""

from __future__ import annotations

import re

from galinv.opparse import _TOKEN_RE, ParseError, _Token


def tokenize(text: str) -> list[_Token]:
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
