"""Tokenizer for the CUT-lang class subset.

Comments (``//``, ``/* */``) and preprocessor-style ``#`` lines (a ``#`` in
column 1) are skipped as trivia; they are the only place where non-ASCII
text is allowed. Numbers are unsigned here; the parser folds a leading
``-`` into negative literals where the grammar allows it. A float literal
that rounds to infinity is an error here, so every float in the AST is
finite.

`tokenize` is one loop over the matches of ``_TOKEN_RE``. A match is the
blanks of the current line plus one token, one comment, or one run of
line breaks with the blanks around them, so a token costs one match and
a line one more. Only a line-break run or a block comment moves ``line``
and ``line_start``; a token's column is its offset from ``line_start``.
A character that starts no token is a match of its own, which the loop
reports as an error at its position.

A token is a plain tuple ``(kind, text, pos, line, column, value)``:
kind "ident", "keyword", "int", "float", "punct" or "eof", the offset and
1-based line and column of ``text``, and the number of an "int" or
"float" token, else None. CPython's garbage collector stops tracking such
a tuple at the first collection that sees it, but never a NamedTuple.
"""

from __future__ import annotations

import re

from ..errors import ParseError

KEYWORDS = frozenset(
    "class extern public private protected virtual if else while return"
    " assert true false int bool float void".split()
)

# Longest first so "<=" wins over "<" and "->" over "-".
PUNCT = "-> :: && || == != <= >= < > + - * / % ! = { } ( ) ; , :".split()

Token = tuple[str, str, int, int, int, int | float | None]  # see above

# Blanks of the line, then one alternative per token class, each a single
# capturing group whose number is the match's ``lastindex``. The most
# frequent classes are tried first; comment openers come before the "/"
# of PUNCT, which keeps its longest-first order. Identifiers and numbers
# are ASCII only, as docs/cutlang.md defines them. The last alternative
# takes any other character but a blank, so the matches of a source
# follow one another up to its trailing blanks.
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?:"
    + "|".join(
        [
            r"([A-Za-z_][A-Za-z0-9_]*)",
            r"(\n[ \t\r\n]*)",
            r"([0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)",
            r"(//[^\n]*)",
            r"(/\*[\s\S]*?\*/)",
            r"(/\*)",
            "(" + "|".join(map(re.escape, PUNCT)) + ")",
            r"(#[^\n]*)",
            r"([^ \t\r\n])",
        ]
    )
    + ")"
)
(_WORD, _NEWLINES, _NUMBER, _LINE_COMMENT, _BLOCK_COMMENT, _UNTERMINATED,
 _PUNCT, _HASH_LINE) = range(1, 9)  # 9: any other character
_INF = float("inf")
# A number may not run straight into an identifier or a second point.
_NUMBER_TAIL = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_.")


def tokenize(source: str, path: str = "<string>") -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0
    n = len(source)
    # Trailing blanks are left out: no match can start there, and finditer
    # would try again at each later position, in time quadratic in them.
    for m in _TOKEN_RE.finditer(source, 0, len(source.rstrip(" \t\r"))):
        group = m.lastindex
        if group == _WORD:
            text = m[group]
            pos = m.start(group)
            kind = "keyword" if text in KEYWORDS else "ident"
            append((kind, text, pos, line, pos - line_start + 1, None))
        elif group == _PUNCT:
            pos = m.start(group)
            append(("punct", m[group], pos, line, pos - line_start + 1, None))
        elif group == _NEWLINES:
            pos, end = m.span(group)
            line += source.count("\n", pos, end)
            line_start = source.rfind("\n", pos, end) + 1
        elif group == _NUMBER:
            text = m[group]
            pos = m.start(group)
            end = pos + len(text)
            column = pos - line_start + 1
            if end < n and source[end] in _NUMBER_TAIL:
                message = f"malformed number {text + source[end]!r}"
                raise ParseError(message, line=line, column=column, path=path)
            if text.isdigit():
                append(("int", text, pos, line, column, int(text)))
            else:
                value = float(text)
                if value == _INF:
                    raise ParseError(
                        "float literal out of double range",
                        line=line, column=column, path=path,
                    )
                append(("float", text, pos, line, column, value))
        elif group == _LINE_COMMENT or (
            group == _HASH_LINE and m.start(group) == line_start
        ):
            continue
        elif group == _BLOCK_COMMENT:
            pos, end = m.span(group)
            newlines = source.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", pos, end) + 1
        elif group == _UNTERMINATED:
            raise ParseError(
                "unterminated block comment",
                line=line, column=m.start(group) - line_start + 1, path=path,
            )
        else:
            # No token starts here, or a '#' that does not open its line.
            pos = m.start(group)
            raise ParseError(
                f"unexpected character {source[pos]!r}",
                line=line, column=pos - line_start + 1, path=path,
            )

    append(("eof", "", n, line, n - line_start + 1, None))
    return tokens
