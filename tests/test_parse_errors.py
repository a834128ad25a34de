"""Every front-end error on damaged corpus sources, pinned to the byte.

`tests/golden/parse_errors.jsonl` holds one record per damaged source:
each corpus file cut off just before a token ("prefix"), or with one token
deleted ("delete"), for every STRIDE-th token. A record keeps the cut
(`lo`, `hi` as character offsets into the file), the error type and the
exact `str(error)`, or null for both when the damaged source still
parses. The test generates every file's records again and compares them
with the golden ones, so it pins both the messages and the damage the
generator makes.

Regenerate the golden file only when a message is meant to change:

    PYTHONPATH=src python tests/test_parse_errors.py
"""

import itertools
import json
import pathlib

import pytest

from ultgen.cutlang.lexer import tokenize
from ultgen.cutlang.parser import parse_source
from ultgen.errors import CutlangError

TESTS_DIR = pathlib.Path(__file__).parent
CORPUS = sorted((TESTS_DIR / "corpus").glob("*.cut"))
GOLDEN = TESTS_DIR / "golden" / "parse_errors.jsonl"

# Prefixes cut before tokens 0, STRIDE, 2*STRIDE, ...; deletions remove
# tokens DELETE_OFFSET, DELETE_OFFSET + STRIDE, ..., so the two operations
# damage different tokens.
STRIDE = 5
DELETE_OFFSET = 2


def damaged(text: str, op: str, lo: int, hi: int) -> str:
    return text[:lo] + (text[hi:] if op == "delete" else "")


def outcome(source: str, name: str) -> tuple:
    try:
        parse_source(source, path=name)
    except CutlangError as e:
        return type(e).__name__, str(e)
    return None, None


def generate(paths: list[pathlib.Path] = CORPUS) -> list[dict]:
    records = []
    for path in paths:
        text = path.read_text(encoding="utf-8")
        tokens = tokenize(text, path.name)
        for i, (kind, token_text, lo, *_) in enumerate(tokens):
            hi = lo + len(token_text)
            ops = []
            if i % STRIDE == 0:
                ops.append("prefix")
            if i % STRIDE == DELETE_OFFSET and kind != "eof":
                ops.append("delete")
            for op in ops:
                error, message = outcome(damaged(text, op, lo, hi), path.name)
                records.append(
                    {"file": path.name, "op": op, "lo": lo, "hi": hi,
                     "error": error, "message": message}
                )
    return records


def _golden() -> list[dict]:
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines]


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_parse_errors_match_golden(path):
    """`generate` yields exactly the file's golden records: the same cuts,
    in order, with the same errors."""
    records = [r for r in _golden() if r["file"] == path.name]
    assert records
    assert generate([path]) == records


def test_golden_file_is_generated_file_by_file():
    """The golden records come file by file in corpus order, so with the
    test above they are exactly what `generate()` yields."""
    files = [name for name, _ in itertools.groupby(r["file"] for r in _golden())]
    assert files == [path.name for path in CORPUS]


if __name__ == "__main__":
    with GOLDEN.open("w", encoding="utf-8") as out:
        for record in generate():
            out.write(json.dumps(record, ensure_ascii=False) + "\n")
