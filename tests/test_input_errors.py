"""Every JSON input error on damaged records, pinned to the byte.

`tests/golden/input_errors.jsonl` holds one record per damaged input. Each
kind of record (a case-file record, a class, method, case or pool of the
case configuration, a bug, a commit, a commit's path entry, a coverage
snapshot and a component-map rule) is damaged in turn: the whole record
or one of its values (an array's first item) replaced by a value of
another type, one key dropped, one unknown key added, its first key
given a second time, the record renamed to an unknown name where a name
keys it, and a few damages particular to the kind. A golden record keeps
the kind, the damage, the error type, the exact message and the exit
code of the command that reads the input, or a null type and message
when the damaged input is still accepted. The test runs every damaged
input through the CLI again and compares.

Regenerate the golden file only when a message is meant to change:

    PYTHONPATH=src python tests/test_input_errors.py
"""

import contextlib
import io
import json
import os
import pathlib
import shutil
import tempfile

import jsonschema
import pytest

from ultgen.cli import build_parser, main
from ultgen.errors import UltgenError
from ultgen.schemas import CASE_SCHEMA

TESTS_DIR = pathlib.Path(__file__).parent
FIXTURE = TESTS_DIR / "fixtures" / "project"
GOLDEN = TESTS_DIR / "golden" / "input_errors.jsonl"

HISTORY = ("bugs.jsonl", "commits.jsonl", "coverage.jsonl", "map.json")
GOOD_CASE = {"id": "manual-1", "target": ["Turnstile", "push"], "origin": "Configured",
             "params": {"coins": 2}, "fields": {}, "mocks": {}}
FUZZED_CASE = {"id": "fz-Turnstile.audit-0001", "target": ["Turnstile", "audit"],
               "params": {}, "fields": {"passes": 3}, "mocks": {"counter.value": [4]},
               "origin": "Fuzzed", "seed": 42, "candidate_index": 1,
               "diagnostics": ["a note"]}

# The command that reads each input file, run in a directory that holds
# the file, the other inputs and `turnstile.cut`.
COMMANDS = {
    "cases.jsonl": ["coverage", "turnstile.cut", "--cases", "cases.jsonl",
                    "--threshold", "0"],
    "cases.json": ["cases", "turnstile.cut", "--class", "Turnstile", "--method", "push",
                   "--config", "cases.json", "--budget", "1", "-o", "kept.jsonl"],
    **{name: ["advise", "--bugs", "bugs.jsonl", "--commits", "commits.jsonl",
              "--coverage", "coverage.jsonl", "--map", "map.json"] for name in HISTORY},
}

_CONFIG_METHOD = ("classes", "Turnstile", "methods", "push")

# (kind, input file, path of the damaged record in the file's document, and
# the kind's own damages: label, path below the record, new value). A JSONL
# file's document is the list of its records; record 1 is on line 2.
KINDS = [
    ("case record", "cases.jsonl", (1,), [
        ("unknown target", ("target", 1), "zz"),
        ("unknown class", ("target", 0), "Zz"),
        ("unknown parameter", ("params", "zz"), 1),
        ("field value rejected", ("fields", "passes"), "x"),
        ("mock value rejected", ("mocks", "counter.value", 0), "x"),
        ("candidate_index below 0", ("candidate_index",), -5),
    ]),
    ("config class", "cases.json", ("classes", "Turnstile"), []),
    ("config method", "cases.json", _CONFIG_METHOD, []),
    ("config case", "cases.json", (*_CONFIG_METHOD, "cases", "exact_fare"), [
        ("unknown parameter", ("params", "zz"), 1),
        ("parameter value rejected", ("params", "coins"), "x"),
    ]),
    ("config pool", "cases.json", (*_CONFIG_METHOD, "pools", "coins"), [
        ("empty", (), []),
    ]),
    ("bug", "bugs.jsonl", (1,), [("period not YYYY-MM", ("period",), "2025-13")]),
    ("commit", "commits.jsonl", (1,), []),
    ("commit path entry", "commits.jsonl", (1, "paths", 0), [
        ("lines below 0", ("lines",), -1),
    ]),
    ("coverage snapshot", "coverage.jsonl", (1,), [
        ("percentage above 100", ("conditional_pct",), 100.5),
    ]),
    ("map rule", "map.json", ("rules", 0), []),
]

_DROP = object()
# A key ending in this is written as the same key without it (see `_text`),
# so an object can give one key twice.
_REPEAT = "\0"


def _documents() -> dict[str, object]:
    """Each input file's undamaged document, by name."""
    docs = {
        "cases.jsonl": [GOOD_CASE, FUZZED_CASE],
        "cases.json": json.loads((FIXTURE / "cases.json").read_text(encoding="utf-8")),
    }
    for name in HISTORY:
        text = (FIXTURE / "history" / name).read_text(encoding="utf-8")
        docs[name] = (
            [json.loads(line) for line in text.splitlines()]
            if name.endswith(".jsonl") else json.loads(text)
        )
    return docs


def _text(name: str, doc: object) -> str:
    if name.endswith(".jsonl"):
        text = "".join(json.dumps(record) + "\n" for record in doc)
    else:
        text = json.dumps(doc)
    return text.replace(json.dumps(_REPEAT)[1:], '"')


def _wrong(value: object) -> object:
    """A JSON value of a type other than `value`'s."""
    if isinstance(value, str):
        return 7
    if isinstance(value, list):
        return {}
    if isinstance(value, dict):
        return []
    return "x"


def _edited(doc: object, path: tuple, value: object, rename: bool = False) -> object:
    """A copy of `doc` with the value at `path` replaced by `value`, dropped
    (`_DROP`), or, with `rename`, moved to the key `value`."""
    copy = json.loads(json.dumps(doc))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    if rename:
        parent[value] = parent.pop(path[-1])
    elif value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return copy


def damaged(doc: object, path: tuple, extra: list) -> list[tuple[str, object]]:
    """(damage, damaged copy of `doc`) for each damage to the record at `path`."""
    record = doc
    for key in path:
        record = record[key]
    out = [("record of a wrong type", _edited(doc, path, _wrong(record)))]
    keys = list(record) if isinstance(record, dict) else [0]  # an array's first item
    for key in keys:
        if isinstance(record, dict):
            out.append((f"drop {key}", _edited(doc, path + (key,), _DROP)))
        out.append((f"{key} of a wrong type", _edited(doc, path + (key,), _wrong(record[key]))))
    if isinstance(record, dict):
        out.append(("unknown key", _edited(doc, path + ("zz",), 1)))
        first = keys[0]
        out.append(("repeated key", _edited(doc, path + (first + _REPEAT,), record[first])))
    if isinstance(path[-1], str):
        out.append(("unknown name", _edited(doc, path, "zz", rename=True)))
    for label, below, value in extra:
        out.append((label, _edited(doc, path + below, value)))
    return out


def probes(kind_name: str) -> list[tuple[str, dict[str, str], list[str]]]:
    """(damage, the files to write by name, the command) of each damaged
    input of one kind of record."""
    docs = _documents()
    for kind, name, path, extra in KINDS:
        if kind == kind_name:
            others = HISTORY if name in HISTORY else (name,)
            base = {other: _text(other, docs[other]) for other in others}
            return [
                (damage, {**base, name: _text(name, doc)}, COMMANDS[name])
                for damage, doc in damaged(docs[name], path, extra)
            ]
    raise KeyError(kind_name)


def outcome(files: dict[str, str], argv: list[str]) -> tuple:
    """(error type, message, exit code, what `main` printed) of `ultgen argv`
    run in the current directory after writing `files` there; the type and
    message are None when the command succeeds."""
    for name, text in files.items():
        pathlib.Path(name).write_text(text, encoding="utf-8")
    shutil.copy(FIXTURE / "src" / "turnstile.cut", "turnstile.cut")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        code = main(argv)
        args = build_parser().parse_args(argv)
        try:
            args.func(args)
        except UltgenError as e:
            return type(e).__name__, str(e), code, printed.getvalue()
    return None, None, code, printed.getvalue()


def generate() -> list[dict]:
    records = []
    with tempfile.TemporaryDirectory() as work:
        cwd = os.getcwd()
        os.chdir(work)
        try:
            for kind, *_ in KINDS:
                for damage, files, argv in probes(kind):
                    error, message, code, _ = outcome(files, argv)
                    records.append({"kind": kind, "damage": damage, "error": error,
                                    "message": message, "exit": code})
        finally:
            os.chdir(cwd)
    return records


def _golden() -> list[dict]:
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines]


@pytest.mark.parametrize("kind", [k[0] for k in KINDS])
def test_input_errors_match_golden(kind, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = {r["damage"]: r for r in _golden() if r["kind"] == kind}
    mismatches = []
    for damage, files, argv in probes(kind):
        error, message, code, printed = outcome(files, argv)
        r = golden.pop(damage, None)
        if r is None or (error, message, code) != (r["error"], r["message"], r["exit"]):
            mismatches.append((damage, r, (error, message, code)))
        elif message is not None and not (
            code == 1 and printed.endswith(f"ultgen: error: {message}\n")
        ):
            mismatches.append((damage, r, printed))
    assert mismatches == []
    assert golden == {}  # every golden record was probed


# Case-record damages a schema cannot judge: names checked against the
# method, and a key given twice, which decoding has already merged.
_BEYOND_SCHEMA = {"unknown target", "unknown class", "unknown parameter", "repeated key"}


def test_case_schema_and_reader_disagree_only_on_optional_keys():
    """CASE_SCHEMA describes the records ultgen writes, which always hold
    params, fields, mocks and origin; the reader also accepts records
    without them. On every other shape damage of the sweep the two agree."""
    validator = jsonschema.Draft202012Validator(CASE_SCHEMA)
    accepted = {r["damage"]: r["error"] is None
                for r in _golden() if r["kind"] == "case record"}
    disagree = []
    for damage, files, _ in probes("case record"):
        if damage in _BEYOND_SCHEMA:
            continue
        record = json.loads(files["cases.jsonl"].splitlines()[1])
        if validator.is_valid(record) != accepted[damage]:
            disagree.append(damage)
    assert disagree == ["drop params", "drop fields", "drop mocks", "drop origin"]
    assert all(accepted[damage] for damage in disagree)


if __name__ == "__main__":
    with GOLDEN.open("w", encoding="utf-8") as out:
        for record in generate():
            out.write(json.dumps(record, ensure_ascii=False) + "\n")
