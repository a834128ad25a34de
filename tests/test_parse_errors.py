"""Every front-end error on damaged corpus sources, pinned to the byte.

`tests/golden/parse_errors.jsonl` holds one record per damaged source:
each corpus file cut off just before a token ("prefix"), or with one token
deleted ("delete"), for every STRIDE-th token. A record keeps the cut
(`lo`, `hi` as character offsets into the file), the error type and the
exact `str(error)`, or null for both when the damaged source still
parses. The test re-parses every record and compares.

Regenerate the golden file only when a message is meant to change:

    PYTHONPATH=src python tests/test_parse_errors.py
"""

import json
import pathlib

import pytest

from ultgen.cutlang import parse_source, tokenize
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


def generate() -> list[dict]:
    records = []
    for path in CORPUS:
        text = path.read_text(encoding="utf-8")
        tokens = tokenize(text, path.name)
        for i, tok in enumerate(tokens):
            lo, hi = tok.pos, tok.pos + len(tok.text)
            ops = []
            if i % STRIDE == 0:
                ops.append("prefix")
            if i % STRIDE == DELETE_OFFSET and tok.kind != "eof":
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
    text = path.read_text(encoding="utf-8")
    records = [r for r in _golden() if r["file"] == path.name]
    assert records
    mismatches = []
    for r in records:
        got = outcome(damaged(text, r["op"], r["lo"], r["hi"]), path.name)
        if got != (r["error"], r["message"]):
            mismatches.append((r, got))
    assert mismatches == []


if __name__ == "__main__":
    with GOLDEN.open("w", encoding="utf-8") as out:
        for record in generate():
            out.write(json.dumps(record, ensure_ascii=False) + "\n")
