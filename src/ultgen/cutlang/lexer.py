"""Tokenizer for the CUT-lang class subset.

Comments (``//``, ``/* */``) and preprocessor-style ``#`` lines (a ``#`` in
column 1) are skipped as trivia; they are the only place where non-ASCII
text is allowed. Each token is one match of ``_TOKEN_RE`` and its column is
its offset from the start of its line. Numbers are unsigned here; the
parser folds a leading ``-`` into negative literals where the grammar
allows it. A float literal that rounds to infinity is an error here, so
every float in the AST is finite.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional, Union

from ..errors import ParseError

KEYWORDS = frozenset(
    [
        "class",
        "extern",
        "public",
        "private",
        "protected",
        "virtual",
        "if",
        "else",
        "while",
        "return",
        "assert",
        "true",
        "false",
        "int",
        "bool",
        "float",
        "void",
    ]
)

# Longest first so "<=" wins over "<" and "->" over "-".
PUNCT = [
    "->",
    "::",
    "&&",
    "||",
    "==",
    "!=",
    "<=",
    ">=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "!",
    "=",
    "{",
    "}",
    "(",
    ")",
    ";",
    ",",
    ":",
]


class Token(NamedTuple):
    """One token. A NamedTuple rather than a frozen dataclass: the lexer
    builds one per token, and a frozen dataclass's ``__init__`` (one
    ``object.__setattr__`` per field) took about half of ``tokenize``."""

    kind: str  # "ident", "keyword", "int", "float", "punct", "eof"
    text: str
    pos: int
    line: int
    column: int
    value: Optional[Union[int, float]] = None

    def is_punct(self, text: str) -> bool:
        return self.kind == "punct" and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind == "keyword" and self.text == text


# One alternative per token class, each a single capturing group whose
# number is the match's ``lastindex``. Comment openers come before the "/"
# of PUNCT, which keeps its longest-first order. Identifiers and numbers are
# ASCII only, as docs/cutlang.md defines them.
_TOKEN_RE = re.compile(
    "|".join(
        [
            r"(\n)",
            r"([ \t\r]+)",
            r"(//[^\n]*)",
            r"(/\*)",
            r"([A-Za-z_][A-Za-z0-9_]*)",
            r"([0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)",
            r"(#[^\n]*)",
            "(" + "|".join(map(re.escape, PUNCT)) + ")",
        ]
    )
)
(_NEWLINE, _BLANK, _LINE_COMMENT, _BLOCK_COMMENT,
 _WORD, _NUMBER, _HASH_LINE, _PUNCT) = range(1, 9)
_INF = float("inf")
# A number may not run straight into an identifier or a second point.
_NUMBER_TAIL = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_.")


def tokenize(source: str, path: str = "<string>") -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    pos = 0
    line = 1
    line_start = 0
    n = len(source)
    while pos < n:
        m = match(source, pos)
        group = m.lastindex if m is not None else None
        if group == _WORD:
            end = m.end()
            text = source[pos:end]
            kind = "keyword" if text in KEYWORDS else "ident"
            append(Token(kind, text, pos, line, pos - line_start + 1))
        elif group == _BLANK:
            end = m.end()
        elif group == _PUNCT:
            end = m.end()
            append(Token("punct", m.group(), pos, line, pos - line_start + 1))
        elif group == _NEWLINE:
            end = pos + 1
            line += 1
            line_start = end
        elif group == _NUMBER:
            end = m.end()
            text = source[pos:end]
            column = pos - line_start + 1
            if end < n and source[end] in _NUMBER_TAIL:
                message = f"malformed number {text + source[end]!r}"
                raise ParseError(message, line=line, column=column, path=path)
            if text.isdigit():
                append(Token("int", text, pos, line, column, int(text)))
            else:
                value = float(text)
                if value == _INF:
                    raise ParseError(
                        "float literal out of double range",
                        line=line, column=column, path=path,
                    )
                append(Token("float", text, pos, line, column, value))
        elif group == _LINE_COMMENT or (group == _HASH_LINE and pos == line_start):
            end = m.end()
        elif group == _BLOCK_COMMENT:
            close = source.find("*/", pos + 2)
            if close < 0:
                raise ParseError(
                    "unterminated block comment",
                    line=line, column=pos - line_start + 1, path=path,
                )
            end = close + 2
            newlines = source.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", pos, end) + 1
        else:
            # No token starts here, or a '#' that does not open its line.
            raise ParseError(
                f"unexpected character {source[pos]!r}",
                line=line, column=pos - line_start + 1, path=path,
            )
        pos = end

    tokens.append(Token("eof", "", n, line, n - line_start + 1))
    return tokens
