"""End-to-end CLI tests: every subcommand, exit codes, and determinism."""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, strategies as st
from jsonschema import validate

from ultgen.cases import case_from_json, fuzz_candidates, fuzzed_case
from ultgen.cli import main
from ultgen.cutlang.parser import MAX_BLOCK_DEPTH, MAX_EXPR_DEPTH, parse_source
from ultgen.interp import CaseEvaluator
from ultgen.scaffold import ANCHOR_START
from ultgen.schemas import (
    ADVISE_SCHEMA,
    CASE_SCHEMA,
    CASES_SUMMARY_SCHEMA,
    COVERAGE_REPORT_SCHEMA,
    DECISIONS_SCHEMA,
    MANIFEST_SCHEMA,
    SCAFFOLD_SCHEMA,
)

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"


def _history_args(hist, flag="--coverage"):
    return [
        "--bugs", hist / "bugs.jsonl",
        "--commits", hist / "commits.jsonl",
        flag, hist / "coverage.jsonl",
        "--map", hist / "map.json",
    ]


def _gap_history(tmp_path, history_dir):
    """Project history with core's latest coverage dropped to 60.

    Training data is untouched (the final period never feeds a sample), so
    the model is unchanged; only core's current level moves, which opens a
    10-point gap against the 70 floor.
    """
    hist = tmp_path / "history"
    shutil.copytree(history_dir, hist)
    rows = []
    for raw in (hist / "coverage.jsonl").read_text().splitlines():
        row = json.loads(raw)
        if row["component"] == "core" and row["period"] == "2025-12":
            row["conditional_pct"] = 60.0
        rows.append(json.dumps(row))
    (hist / "coverage.jsonl").write_text("\n".join(rows) + "\n")
    return hist


def _count_evaluators(monkeypatch):
    """The (class, method) of every CaseEvaluator built from now on."""
    built = []
    init = CaseEvaluator.__init__

    def counting_init(self, unit, class_name, method_name):
        built.append((class_name, method_name))
        init(self, unit, class_name, method_name)

    monkeypatch.setattr(CaseEvaluator, "__init__", counting_init)
    return built


# --- parser plumbing --------------------------------------------------------

def test_no_subcommand_is_usage_error(invoke):
    code, _, err = invoke()
    assert code == 1
    assert "usage" in err


def test_unknown_subcommand_is_usage_error(invoke):
    code, _, err = invoke("frobnicate")
    assert code == 1
    assert "invalid choice" in err


def test_missing_required_flag(invoke, project_dir):
    code, _, err = invoke("decisions", project_dir / "src" / "turnstile.cut")
    assert code == 1
    assert "--class" in err


def test_version_flag(invoke):
    code, out, _ = invoke("--version")
    assert code == 0
    assert out.startswith("ultgen ")


# --- decisions --------------------------------------------------------------

@pytest.fixture
def turnstile(project_dir):
    return project_dir / "src" / "turnstile.cut"


def test_decisions_json(invoke, turnstile):
    code, out, _ = invoke("decisions", turnstile, "--class", "Turnstile", "--json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, DECISIONS_SCHEMA)
    assert payload["class"] == "Turnstile"
    assert [m["method"] for m in payload["methods"]] == ["push", "audit", "unjam"]
    push = payload["methods"][0]["decisions"]
    assert push[0]["id"] == "Turnstile.push:D1"
    assert push[0]["kind"] == "if"
    assert push[0]["expr"] == "coins <= 0"
    audit = payload["methods"][1]["decisions"][0]
    assert audit["conditions"][0]["driver"] == "CallDriven"
    assert audit["conditions"][0]["calls"] == ["counter->value"]


def test_decisions_text(invoke, turnstile):
    code, out, _ = invoke("decisions", turnstile, "--class", "Turnstile")
    assert code == 0
    assert "Turnstile.push:D1" in out
    assert "coins <= 0" in out
    assert "(no decisions)" in out  # unjam is straight-line


def test_decisions_single_method(invoke, turnstile):
    code, out, _ = invoke(
        "decisions", turnstile, "--class", "Turnstile", "--method", "push", "--json"
    )
    assert code == 0
    assert [m["method"] for m in json.loads(out)["methods"]] == ["push"]


def test_decisions_unknown_class_and_method(invoke, turnstile):
    code, _, err = invoke("decisions", turnstile, "--class", "Gate")
    assert code == 1
    assert "Gate" in err
    code, _, err = invoke(
        "decisions", turnstile, "--class", "Turnstile", "--method", "pull"
    )
    assert code == 1
    assert "Turnstile.pull" in err


def test_decisions_of_an_inherited_method(invoke, tmp_path):
    """`decisions --method` finds a method the class inherits, as `cases`
    does, and ids its decisions by the class asked for."""
    src = tmp_path / "sub.cut"
    src.write_text(
        "class Base {\npublic:\n    int f(int x) { if (x > 0) { return 1; } return 0; }\n};\n"
        "class Sub : public Base {\npublic:\n    int g() { return 2; }\n};\n"
    )
    code, out, err = invoke("decisions", src, "--class", "Sub", "--method", "f", "--json")
    assert (code, err) == (0, "")
    [method] = json.loads(out)["methods"]
    assert method["method"] == "f"
    assert [d["id"] for d in method["decisions"]] == ["Sub.f:D1"]
    code, _, _ = invoke("cases", src, "--class", "Sub", "--method", "f", "-o", tmp_path / "f.jsonl")
    assert code == 0


def test_decisions_missing_file(invoke):
    code, _, err = invoke("decisions", "no/such.cut", "--class", "A")
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize(
    "entry",
    [
        "decisions", "scaffold", "scaffold -o", "cases", "cases --config",
        "coverage", "coverage --cases", "run", "run --config", "run --map",
        "run -o/scaffold", "advise --bugs", "advise --commits", "advise --coverage",
        "advise --map",
    ],
)
def test_non_utf8_input_is_an_error_naming_the_file(
    invoke, turnstile, project_dir, history_dir, golden_dir, tmp_path, entry
):
    """An earlier output file that a scaffold write would carry regions
    from is an input too; `run` reads it in its scaffold stage."""
    hist = tmp_path / "history"
    shutil.copytree(history_dir, hist)
    out = tmp_path / "out"
    bad = {
        "--bugs": hist / "bugs.jsonl", "--commits": hist / "commits.jsonl",
        "--coverage": hist / "coverage.jsonl", "--map": hist / "map.json",
        "-o": out / "a_test_fixture.h",  # old output files
        "-o/scaffold": out / "scaffold" / "turnstile_test_fixture.h",
    }.get(entry.split(" ")[-1], tmp_path / "src" / "bad.cut")
    bad.parent.mkdir(parents=True, exist_ok=True)
    data = b"class A { };\n// \xff\n"
    bad.write_bytes(data)
    args = {
        "decisions": ("decisions", bad, "--class", "A"),
        "scaffold": ("scaffold", bad, "--class", "A", "-o", out),
        "scaffold -o": ("scaffold", golden_dir / "class_a.cut", "--class", "A", "-o", out),
        "cases": ("cases", bad, "--class", "A", "--method", "f", "-o", out / "c.jsonl"),
        "cases --config": ("cases", turnstile, "--class", "Turnstile", "--method",
                           "push", "--config", bad, "-o", out / "c.jsonl"),
        "coverage": ("coverage", bad, "--cases", bad),
        "coverage --cases": ("coverage", turnstile, "--cases", bad),
        "run": ("run", bad.parent, "-o", out),
        "run --config": ("run", project_dir / "src", "-o", out, "--config", bad),
        "run --map": ("run", project_dir / "src", "-o", out,
                      *_history_args(hist, flag="--coverage-history")),
        "run -o/scaffold": ("run", project_dir / "src", "-o", out),
    }.get(entry, ("advise", *_history_args(hist)))
    before = sorted(out.rglob("*"))
    code, stdout, err = invoke(*args)
    assert (code, stdout) == (1, "")
    stage = "stage 'scaffold': " if entry == "run -o/scaffold" else ""
    assert err == (
        f"ultgen: error: {stage}{bad}: not UTF-8 text (invalid start byte at byte 16)\n"
    )
    assert (sorted(out.rglob("*")), bad.read_bytes()) == (before, data)


@pytest.mark.parametrize(
    "entry",
    [
        "decisions", "scaffold", "cases", "cases --config", "coverage",
        "coverage --cases", "run --config", "run --map",
        "advise --bugs", "advise --commits", "advise --coverage", "advise --map",
    ],
)
def test_missing_input_is_an_error_naming_the_file(
    invoke, turnstile, project_dir, history_dir, tmp_path, entry
):
    """Every entry point reads its files with the same reader and message;
    a scaffold write reads only the earlier files that exist, and `run`
    takes a directory."""
    hist = tmp_path / "history"
    shutil.copytree(history_dir, hist)
    out = tmp_path / "out"
    missing = {
        "--bugs": hist / "bugs.jsonl", "--commits": hist / "commits.jsonl",
        "--coverage": hist / "coverage.jsonl", "--map": hist / "map.json",
    }.get(entry.split(" ")[-1], tmp_path / "missing.cut")
    missing.unlink(missing_ok=True)
    args = {
        "decisions": ("decisions", missing, "--class", "A"),
        "scaffold": ("scaffold", missing, "--class", "A", "-o", out),
        "cases": ("cases", missing, "--class", "A", "--method", "f", "-o", out / "c.jsonl"),
        "cases --config": ("cases", turnstile, "--class", "Turnstile", "--method",
                           "push", "--config", missing, "-o", out / "c.jsonl"),
        "coverage": ("coverage", missing, "--cases", missing),
        "coverage --cases": ("coverage", turnstile, "--cases", missing),
        "run --config": ("run", project_dir / "src", "-o", out, "--config", missing),
        "run --map": ("run", project_dir / "src", "-o", out,
                      *_history_args(hist, flag="--coverage-history")),
    }.get(entry, ("advise", *_history_args(hist)))
    code, stdout, err = invoke(*args)
    assert (code, stdout) == (1, "")
    assert err == f"ultgen: error: cannot read {missing}: No such file or directory\n"


@pytest.mark.parametrize("entry", ["cases --config", "advise --bugs", "advise --map"])
def test_integer_past_the_digit_limit_is_an_error_naming_the_file(
    invoke, turnstile, project_dir, history_dir, tmp_path, entry
):
    """`json.loads` refuses an integer of more than 4300 digits with a plain
    ValueError; each JSON reader reports it as invalid JSON in its file, at
    its line where the file is JSONL."""
    hist = tmp_path / "history"
    shutil.copytree(history_dir, hist)
    huge = "9" * 5000
    first_bug = (history_dir / "bugs.jsonl").read_text().split("\n")[0]
    bad, where, text = {
        "cases --config": (tmp_path / "cases.json", "", f'{{"classes": {huge}}}'),
        "advise --bugs": (hist / "bugs.jsonl", ":2",
                          f'{first_bug}\n{{"id": {huge}, "period": "2025-08"}}\n'),
        "advise --map": (hist / "map.json", "", f'{{"rules": [{huge}]}}'),
    }[entry]
    bad.write_text(text)
    args = ("advise", *_history_args(hist))
    if entry == "cases --config":
        args = ("cases", turnstile, "--class", "Turnstile", "--method", "push",
                "--config", bad, "-o", tmp_path / "c.jsonl")
    code, stdout, err = invoke(*args)
    assert (code, stdout) == (1, "")
    assert err == (
        f"ultgen: error: {bad}{where}: invalid JSON: an integer has too many digits\n"
    )


def test_case_file_integer_past_the_digit_limit_is_a_bad_record(invoke, turnstile, tmp_path):
    """A case file words it as the other JSON readers do, at the record's
    line."""
    case_file = tmp_path / "cases.jsonl"
    good = json.dumps(_manual_case(["Turnstile", "push"], {"coins": 1}))
    case_file.write_text(
        good + '\n{"id": "x", "target": ["Turnstile", "push"], "params": {"coins": '
        + "9" * 5000 + "}}\n"
    )
    code, stdout, err = invoke("coverage", turnstile, "--cases", case_file)
    assert (code, stdout) == (1, "")
    assert err == (
        f"ultgen: error: {case_file}:2: invalid JSON: an integer has too many digits\n"
    )


@pytest.mark.parametrize(
    "entry", ["cases --config", "coverage --cases", "advise --bugs", "advise --map"]
)
def test_deeply_nested_json_is_an_error_naming_the_file(
    invoke, turnstile, history_dir, tmp_path, entry
):
    """`json.loads` gives up on deep nesting with a RecursionError; each
    JSON reader reports it as invalid JSON in its file, at its line where
    the file is JSONL."""
    hist = tmp_path / "history"
    shutil.copytree(history_dir, hist)
    deep = "[" * 100_000
    first_bug = (history_dir / "bugs.jsonl").read_text().split("\n")[0]
    bad, where, text = {
        "cases --config": (tmp_path / "cases.json", "", deep),
        "coverage --cases": (tmp_path / "cases.jsonl", ":1", deep + "\n"),
        "advise --bugs": (hist / "bugs.jsonl", ":2", f"{first_bug}\n{deep}\n"),
        "advise --map": (hist / "map.json", "", f'{{"rules": {deep}}}'),
    }[entry]
    bad.write_text(text)
    args = {
        "cases --config": ("cases", turnstile, "--class", "Turnstile", "--method", "push",
                           "--config", bad, "-o", tmp_path / "c.jsonl"),
        "coverage --cases": ("coverage", turnstile, "--cases", bad),
    }.get(entry, ("advise", *_history_args(hist)))
    code, stdout, err = invoke(*args)
    assert (code, stdout) == (1, "")
    assert err == (
        f"ultgen: error: {bad}{where}: invalid JSON: arrays or objects nested too deeply\n"
    )


# --- nesting limits ---------------------------------------------------------

# Per shape: the return type and body of `f` nested `depth` deep, and the
# deepest the parser accepts. Parentheses and `!` wrap a 1-deep operand; a
# `+` chain of n terms is n deep.
_NESTINGS = {
    "parens": ("int", lambda d: "return " + "(" * d + "n" + ")" * d + ";", MAX_EXPR_DEPTH - 1),
    "plus": ("int", lambda d: "return " + " + ".join(["n"] * d) + ";", MAX_EXPR_DEPTH),
    "bangs": ("bool", lambda d: "return " + "!" * d + "b;", MAX_EXPR_DEPTH - 1),
    "while": ("void", lambda d: "while (b) { " * d + "n = 0; " + "} " * d, MAX_BLOCK_DEPTH),
    "if": ("void", lambda d: "if (b) { " * d + "n = 0; " + "} " * d, MAX_BLOCK_DEPTH),
}


def _nested_class(shape, depth, above=""):
    """Class A whose method `f` nests `depth` deep on the fourth line after
    `above`."""
    ret, body, _ = _NESTINGS[shape]
    return (
        f"{above}class A {{\npublic:\n    {ret} f(int n, bool b) {{\n"
        f"        {body(depth)}\n    }}\n}};\n"
    )


@pytest.mark.parametrize(
    "shape, depth, column",
    [
        ("parens", 150, 16 + MAX_EXPR_DEPTH - 1),  # the 64th '('
        ("plus", 1500, 18 + 4 * (MAX_EXPR_DEPTH - 1)),  # the 64th '+'
        ("bangs", 1500, 16 + MAX_EXPR_DEPTH - 1),  # the 64th '!'
    ],
)
def test_decisions_rejects_deep_expression_without_traceback(
    invoke, tmp_path, shape, depth, column
):
    path = tmp_path / "deep.cut"
    path.write_text(_nested_class(shape, depth))
    code, out, err = invoke("decisions", path, "--class", "A")
    assert code == 1
    assert out == ""
    assert err == (
        f"ultgen: error: {path}:4:{column}: "
        f"expression nested more than {MAX_EXPR_DEPTH} levels deep\n"
    )


def test_run_names_the_file_of_a_too_deep_method(invoke, corpus_dir, tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    shutil.copy(corpus_dir / "billing.cut", src / "a.cut")
    deep = _nested_class("while", MAX_BLOCK_DEPTH + 1, above="// deep\n\n")
    (src / "b.cut").write_text(deep)
    code, _, err = invoke("run", src, "-o", tmp_path / "out")
    assert code == 1
    column = 9 + len("while (b) { ") * MAX_BLOCK_DEPTH
    assert err == (
        f"ultgen: error: stage 'parse': {src / 'b.cut'}:6:{column}: "
        f"if/while statements nested more than {MAX_BLOCK_DEPTH} deep\n"
    )


@pytest.mark.parametrize("literal, column", [("1e999", 24), ("-1.5e400", 25)])
def test_overflowing_float_literal_is_a_parse_error(invoke, tmp_path, literal, column):
    """A literal that rounds to infinity is rejected where it stands, by
    every subcommand that parses, and `run` writes nothing."""
    src = tmp_path / "src"
    src.mkdir()
    path = src / "big.cut"
    path.write_text(f"class A {{\npublic:\n    float f() {{ return {literal}; }}\n}};\n")
    out_dir = tmp_path / "out"
    message = f"{path}:3:{column}: float literal out of double range\n"
    for args, prefix in [
        (("decisions", path, "--class", "A"), ""),
        (("cases", path, "--class", "A", "--method", "f", "-o", tmp_path / "c.jsonl"), ""),
        (("run", src, "-o", out_dir), "stage 'parse': "),
    ]:
        code, out, err = invoke(*args)
        assert (code, out, err) == (1, "", f"ultgen: error: {prefix}{message}")
    assert not out_dir.exists()


@given(st.sampled_from(sorted(_NESTINGS)), st.integers(min_value=1, max_value=300))
def test_decisions_accepts_nesting_up_to_the_limit(tmp_path_factory, shape, depth):
    path = tmp_path_factory.mktemp("nest") / "deep.cut"
    path.write_text(_nested_class(shape, depth))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["decisions", str(path), "--class", "A"])
    if depth <= _NESTINGS[shape][2]:
        assert (code, err.getvalue()) == (0, "")
    else:
        what = "if/while statements" if shape in ("while", "if") else "expression"
        assert code == 1
        assert re.fullmatch(
            rf"ultgen: error: {re.escape(str(path))}:4:\d+: {what} nested more than .*\n",
            err.getvalue(),
        )


# --- scaffold ---------------------------------------------------------------

def test_scaffold_writes_golden_files(invoke, golden_dir, tmp_path):
    out_dir = tmp_path / "gen"
    code, out, _ = invoke(
        "scaffold", golden_dir / "class_a.cut", "--class", "A", "-o", out_dir
    )
    assert code == 0
    for name in ("a_test_fixture.h", "test_a.h", "mock_c.h"):
        generated = (out_dir / name).read_text()
        assert generated == (golden_dir / "expected" / name).read_text()
        assert f"wrote {out_dir / name}" in out
    assert "ratio" in out


def test_scaffold_json_payload(invoke, golden_dir, tmp_path):
    code, out, _ = invoke(
        "scaffold", golden_dir / "class_a.cut", "--class", "A",
        "-o", tmp_path / "gen", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload, SCAFFOLD_SCHEMA)
    assert payload["class"] == "A"
    assert sorted(payload["files"]) == ["a_test_fixture.h", "mock_c.h", "test_a.h"]
    assert 0.8 < payload["generation_ratio"] < 1.0
    assert payload["warnings"] == []


def test_scaffold_merge_preserves_anchor_edits(invoke, golden_dir, tmp_path):
    out_dir = tmp_path / "gen"
    src = golden_dir / "class_a.cut"
    assert invoke("scaffold", src, "--class", "A", "-o", out_dir)[0] == 0
    fixture = out_dir / "a_test_fixture.h"
    text = fixture.read_text()
    marker = "// ULTGEN-ANCHOR: SetUpBody\n"
    edited = text.replace(marker, marker + "        warmCache();\n")
    assert edited != text
    fixture.write_text(edited)

    for _ in range(2):  # every regeneration keeps the region
        assert invoke("scaffold", src, "--class", "A", "-o", out_dir)[0] == 0
        assert fixture.read_text() == edited


def test_scaffold_merge_keeps_form_feed_line_verbatim(invoke, golden_dir, tmp_path):
    # Only "\n" ends a line: a form feed inside a kept line stays in it.
    out_dir = tmp_path / "gen"
    src = golden_dir / "class_a.cut"
    assert invoke("scaffold", src, "--class", "A", "-o", out_dir)[0] == 0
    test_file = out_dir / "test_a.h"
    marker = "// ULTGEN-ANCHOR: TestBody(func1)\n"
    kept = "        int a = 1;\f// page\n"
    text = test_file.read_text()
    assert marker in text
    test_file.write_text(text.replace(marker, marker + kept))

    assert invoke("scaffold", src, "--class", "A", "-o", out_dir)[0] == 0
    assert marker + kept in test_file.read_text()


def _invoke_noting_syslog_once(invoke, *args):
    """Run the CLI and check that the extern note on Syslog reached the user
    once, as a `warning:` line on stderr."""
    code, out, err = invoke(*args)
    assert err.count("dependency 'Syslog' is extern") == 1
    assert "warning: dependency 'Syslog' is extern" in err
    return code, out, err


def test_scaffold_extern_dependency_warns(invoke, corpus_dir, tmp_path):
    code, _, _ = _invoke_noting_syslog_once(
        invoke, "scaffold", corpus_dir / "cache.cut", "--class", "Prefetcher",
        "-o", tmp_path / "gen",
    )
    assert code == 0
    assert (tmp_path / "gen" / "mock_syslog.h").exists()


def test_scaffold_unknown_class(invoke, golden_dir, tmp_path):
    code, _, err = invoke(
        "scaffold", golden_dir / "class_a.cut", "--class", "Zed",
        "-o", tmp_path / "gen",
    )
    assert code == 1
    assert "Zed" in err


# --- cases ------------------------------------------------------------------

def test_cases_writes_file_and_summary(invoke, turnstile, tmp_path):
    out_file = tmp_path / "push.jsonl"
    code, out, _ = invoke(
        "cases", turnstile, "--class", "Turnstile", "--method", "push",
        "--seed", "7", "-o", out_file, "--json",
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload, CASES_SUMMARY_SCHEMA)
    assert payload["target"] == "Turnstile.push"
    assert payload["seed"] == 7
    assert payload["budget"] == 256
    assert payload["configured"] == 0
    assert payload["conditional_pct"] == 100.0
    lines = out_file.read_text().splitlines()
    assert len(lines) == payload["kept"] > 0
    for line in lines:
        case = json.loads(line)
        validate(case, CASE_SCHEMA)
        assert case["origin"] == "Fuzzed"
        assert case["target"] == ["Turnstile", "push"]


def test_cases_records_the_seed_and_index_of_each_fuzzed_case(invoke, turnstile, tmp_path):
    """Each fuzzed case names the seed of its stream and its index there:
    drawing the stream again gives the case back."""
    out_file = tmp_path / "push.jsonl"
    code, _, _ = invoke(
        "cases", turnstile, "--class", "Turnstile", "--method", "push",
        "--seed", "7", "-o", out_file,
    )
    assert code == 0
    evaluator = CaseEvaluator(parse_source(turnstile.read_text(), path="<t>"), "Turnstile", "push")
    stream = list(fuzz_candidates(evaluator, 256, 7))
    cases = [case_from_json(json.loads(line)) for line in out_file.read_text().splitlines()]
    assert len(cases) > 1
    for case in cases:
        seed, index = case.seed_info
        assert seed == 7
        assert case == fuzzed_case(evaluator, stream[index], 7, index)


def test_cases_deterministic_per_seed(invoke, turnstile, tmp_path):
    files = []
    for name in ("a.jsonl", "b.jsonl"):
        path = tmp_path / name
        code, _, _ = invoke(
            "cases", turnstile, "--class", "Turnstile", "--method", "push",
            "--seed", "5", "-o", path,
        )
        assert code == 0
        files.append(path.read_bytes())
    assert files[0] == files[1]


def test_cases_seed_precedence(invoke, turnstile, tmp_path, monkeypatch):
    def summary(*extra):
        code, out, _ = invoke(
            "cases", turnstile, "--class", "Turnstile", "--method", "push",
            "-o", tmp_path / "c.jsonl", "--json", *extra,
        )
        assert code == 0
        return json.loads(out)["seed"]

    assert summary() == 42  # library default
    monkeypatch.setenv("ULTGEN_SEED", "9")
    assert summary() == 9
    assert summary("--seed", "7") == 7  # flag beats environment


def test_cases_bad_seed_env(invoke, turnstile, tmp_path, monkeypatch):
    monkeypatch.setenv("ULTGEN_SEED", "many")
    code, _, err = invoke(
        "cases", turnstile, "--class", "Turnstile", "--method", "push",
        "-o", tmp_path / "c.jsonl",
    )
    assert code == 1
    assert "ULTGEN_SEED" in err


def test_cases_config_preseeds(invoke, project_dir, tmp_path):
    out_file = tmp_path / "push.jsonl"
    code, out, _ = invoke(
        "cases", project_dir / "src" / "turnstile.cut",
        "--class", "Turnstile", "--method", "push",
        "--config", project_dir / "cases.json", "-o", out_file, "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["configured"] == 1
    lines = [json.loads(l) for l in out_file.read_text().splitlines()]
    assert lines[0]["origin"] == "Configured"
    assert "exact_fare" in lines[0]["id"]
    assert all(l["origin"] == "Fuzzed" for l in lines[1:])


def test_cases_decisionless_method_writes_empty_file(invoke, turnstile, tmp_path):
    out_file = tmp_path / "tick.jsonl"
    code, out, _ = invoke(
        "cases", turnstile, "--class", "Counter", "--method", "tick",
        "-o", out_file, "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kept"] == 0
    assert payload["candidates_run"] == 0
    assert payload["conditional_pct"] == 100.0  # vacuous
    assert out_file.read_text() == ""


def test_cases_unknown_method(invoke, turnstile, tmp_path):
    code, _, err = invoke(
        "cases", turnstile, "--class", "Turnstile", "--method", "pull",
        "-o", tmp_path / "c.jsonl",
    )
    assert code == 1
    assert "pull" in err


def test_cases_rejects_budget_zero(invoke, turnstile, tmp_path):
    code, _, err = invoke(
        "cases", turnstile, "--class", "Turnstile", "--method", "push",
        "--budget", "0", "-o", tmp_path / "c.jsonl",
    )
    assert code == 1
    assert "budget" in err


# --- coverage ---------------------------------------------------------------

def _write_cases(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


def _manual_case(target, params, id="manual-1"):
    return {"id": id, "target": target, "origin": "Configured",
            "params": params, "fields": {}, "mocks": {}}


def test_coverage_report_and_exit_codes(invoke, turnstile, tmp_path):
    case_file = _write_cases(
        tmp_path / "cases.jsonl", [_manual_case(["Turnstile", "push"], {"coins": 2})]
    )
    code, out, _ = invoke("coverage", turnstile, "--cases", case_file, "--json")
    assert code == 1  # 25% aggregate sits under the default 70% threshold
    payload = json.loads(out)
    validate(payload, COVERAGE_REPORT_SCHEMA)
    rows = {r["method"]: r for r in payload["methods"]}
    push = rows["Turnstile.push"]
    assert push["conditional_pct"] == 50.0
    assert push["has_passing_case"] is True
    assert push["uncovered"] == ["Turnstile.push:D1.c1:T", "Turnstile.push:D1:T"]
    audit = rows["Turnstile.audit"]
    assert audit["conditional_pct"] == 0.0
    assert rows["Counter.tick"]["conditional_pct"] == 100.0  # vacuous
    assert payload["functional_pct"] == 20.0
    assert payload["conditional_pct"] == 25.0

    code, _, _ = invoke(
        "coverage", turnstile, "--cases", case_file, "--threshold", "25"
    )
    assert code == 0  # meeting the threshold exactly passes


def test_coverage_text_table(invoke, turnstile, tmp_path):
    case_file = _write_cases(
        tmp_path / "cases.jsonl", [_manual_case(["Turnstile", "push"], {"coins": 2})]
    )
    code, out, _ = invoke(
        "coverage", turnstile, "--cases", case_file, "--threshold", "10"
    )
    assert code == 0
    push_row = next(l for l in out.splitlines() if "Turnstile.push" in l)
    assert "passing: pass" in push_row
    assert "threshold 10%" in out


def test_coverage_reports_inherited_case_target(
    invoke, corpus_dir, tmp_path, monkeypatch
):
    built = _count_evaluators(monkeypatch)
    case_file = _write_cases(
        tmp_path / "cases.jsonl", [_manual_case(["HotEntry", "touch"], {})]
    )
    code, out, _ = invoke(
        "coverage", corpus_dir / "cache.cut", "--cases", case_file,
        "--threshold", "0", "--json",
    )
    assert code == 0
    rows = {r["method"]: r for r in json.loads(out)["methods"]}
    # touch is declared on the base class; the case names the subclass
    assert rows["HotEntry.touch"]["has_passing_case"] is True
    # one evaluator per reported target, the case-named one included
    assert sorted(f"{c}.{m}" for c, m in built) == sorted(rows)


def test_coverage_bad_case_file(invoke, turnstile, tmp_path):
    case_file = tmp_path / "cases.jsonl"
    case_file.write_text('{"id": "ok"}\n{broken\n')
    code, out, err = invoke("coverage", turnstile, "--cases", case_file)
    assert (code, out) == (1, "")
    assert err == f"ultgen: error: {case_file}:1: missing key 'target'\n"
    # Records of the wrong shape, each after a good one, as CASE_SCHEMA has it.
    good = json.dumps(_manual_case(["Turnstile", "push"], {"coins": 1}))
    for record, reason in [
        ("[1]", "must be an object"),
        (
            '{"id": "x", "target": ["Turnstile", "push", 5]}',
            "target: must be [class, method]",
        ),
        ('{"id": "x", "target": "Af"}', "target: must be [class, method]"),
        ('{"id": "x", "target": ["Turnstile", "push"], "mocks": [1]}',
         "mocks: must be an object"),
        ('{"id": 5, "target": ["Turnstile", "push"]}', "id: must be a string"),
        ('{"id": "x", "target": ["Turnstile", "push"], "origin": "Bogus"}',
         "origin: must be 'Configured' or 'Fuzzed'"),
        ('{"id": "x", "target": ["Turnstile", "push"], "origin": null}',
         "origin: must be 'Configured' or 'Fuzzed'"),
        ('{"id": "x", "target": ["Turnstile", "push"], "params": {"coins": 1}, "bogus": 1}',
         "unknown key 'bogus'"),
        ('{"id": "x", "target": ["Turnstile", "push"], "params": {"coins": 1}, '
         '"seed": 1, "candidate_index": -5}',
         "candidate_index: must be an integer >= 0"),
        ('{"id": "x", "target": ["Turnstile", "push"], "params": {"coins": 1}, '
         '"candidate_index": "zz"}',
         "missing key 'seed'"),
    ]:
        case_file.write_text(good + "\n" + record + "\n")
        code, out, err = invoke("coverage", turnstile, "--cases", case_file, "--threshold", "0")
        assert (code, out) == (1, "")
        assert err == f"ultgen: error: {case_file}:2: {reason}\n"


def test_coverage_case_id_with_unicode_line_separator(invoke, turnstile, tmp_path):
    # JSON allows U+2028, U+2029 and U+0085 raw inside a string; only "\n"
    # ends a record.
    case = _manual_case(
        ["Turnstile", "push"], {"coins": 2}, id="a\u2028b\u2029c\x85d"
    )
    case_file = tmp_path / "sep.jsonl"
    case_file.write_text(json.dumps(case, ensure_ascii=False) + "\n", encoding="utf-8")
    code, out, err = invoke(
        "coverage", turnstile, "--cases", case_file, "--threshold", "0", "--json"
    )
    assert (code, err) == (0, "")
    rows = {r["method"]: r for r in json.loads(out)["methods"]}
    assert rows["Turnstile.push"]["has_passing_case"] is True


@pytest.mark.parametrize("threshold", ["150", "-1", "nan", "inf"])
def test_threshold_must_be_a_percentage(invoke, turnstile, corpus_dir, tmp_path, threshold):
    """Checked before any work: the case file is never read, and `run`
    writes nothing."""
    out_dir = tmp_path / "out"
    for args in [
        ("coverage", turnstile, "--cases", tmp_path / "missing.jsonl"),
        ("run", corpus_dir, "-o", out_dir),
    ]:
        code, out, err = invoke(*args, f"--threshold={threshold}")
        assert (code, out) == (1, "")
        assert err == (
            "ultgen: error: --threshold must be a finite number in [0, 100], "
            f"got {float(threshold)}\n"
        )
    assert not out_dir.exists()


@pytest.mark.parametrize("tau", ["nan", "inf", "-1", "5"])
def test_tau_must_be_a_probability(invoke, project_dir, history_dir, tmp_path, tau):
    """Checked before any work: `advise` gives no advice, and `run` writes
    nothing."""
    out_dir = tmp_path / "out"
    for args in [
        ("advise", *_history_args(history_dir)),
        ("run", project_dir / "src", "-o", out_dir,
         *_history_args(history_dir, "--coverage-history")),
    ]:
        code, out, err = invoke(*args, f"--tau={tau}")
        assert (code, out) == (1, "")
        assert err == (
            f"ultgen: error: --tau must be a finite number in [0, 1], got {float(tau)}\n"
        )
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "command, budget",
    [("run", "0"), ("run", "-3"), ("cases", "0"), ("cases", "-3")],
    ids=["0", "-3", "cases-0", "cases--3"],
)
def test_run_rejects_budget_below_one_before_writing(
    invoke, project_dir, history_dir, tmp_path, command, budget
):
    """`cases` checks the budget first too, also for a decision-free method
    that would run no candidate."""
    out_dir = tmp_path / "out"
    args = {
        "run": ("run", project_dir / "src", "-o", out_dir,
                *_history_args(history_dir, "--coverage-history")),
        "cases": ("cases", project_dir / "src" / "turnstile.cut", "--class", "Counter",
                  "--method", "tick", "-o", out_dir / "tick.jsonl"),
    }[command]
    code, out, err = invoke(*args, "--budget", budget)
    assert (code, out) == (1, "")
    assert err == f"ultgen: error: --budget must be >= 1, got {budget}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("fault", [
    "partial history", "grid", "missing history file",
    "config class", "bug record", "scaffold collision",
])
def test_run_rejects_bad_inputs_before_writing(
    invoke, project_dir, history_dir, tmp_path, fault
):
    out_dir = tmp_path / "out"
    history = _history_args(history_dir, "--coverage-history")
    missing = tmp_path / "no-bugs.jsonl"
    config = tmp_path / "cases.json"
    config.write_text('{"classes": {"Nope": {}}}')
    bugs = tmp_path / "bugs.jsonl"
    bugs_text = (history_dir / "bugs.jsonl").read_text()
    bugs.write_text(bugs_text + '{"id": 1}\n')
    bad_line = bugs_text.count("\n") + 1
    twins = tmp_path / "twins"
    twins.mkdir()
    (twins / "a.cut").write_text(
        "class Foo {\npublic:\n    int f() { return 1; }\n};\n"
        "class FOO {\npublic:\n    int g() { return 2; }\n};\n"
    )
    src, extra, message = {
        "partial history": (
            project_dir / "src", history[:2],
            "advise stage needs --bugs, --commits, --coverage-history, and --map together",
        ),
        "grid": (
            project_dir / "src", [*history, "--grid", "9,1"],
            "--grid must be ascending and nonempty",
        ),
        "missing history file": (
            project_dir / "src", ["--bugs", missing, *history[2:]],
            f"cannot read {missing}: No such file or directory",
        ),
        "config class": (
            project_dir / "src", ["--config", config, *history],
            f"stage 'cases': {config}: unknown target 'Nope'",
        ),
        "bug record": (
            project_dir / "src", ["--bugs", bugs, *history[2:]],
            f"stage 'advise': {bugs}:{bad_line}: missing key 'culprit'",
        ),
        "scaffold collision": (
            twins, [], "stage 'scaffold': conflicting content for foo_test_fixture.h",
        ),
    }[fault]
    code, out, err = invoke("run", src, "-o", out_dir, *extra)
    assert (code, out) == (1, "")
    assert err == f"ultgen: error: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "target, params, mocks, message",
    [
        ("push", {"coins": 1.5}, {}, "parameter 'coins' must be int, got 1.5"),
        ("push", {"coins": 1, "extra": 2}, {}, "unknown parameters: ['extra']"),
        ("audit", {}, {"counter.value": []}, "empty mock script for ('counter', 'value')"),
    ],
)
def test_coverage_rejects_malformed_case(
    invoke, turnstile, tmp_path, target, params, mocks, message
):
    """A case file is checked where it enters, with the evaluator's
    ContractViolation messages at the record's line."""
    record = _manual_case(["Turnstile", target], params)
    record["mocks"] = mocks
    case_file = _write_cases(tmp_path / "cases.jsonl", [record])
    code, out, err = invoke("coverage", turnstile, "--cases", case_file)
    assert code == 1
    assert out == ""
    assert err == f"ultgen: error: {case_file}:1: {message}\n"


# --- advise -----------------------------------------------------------------

def test_advise_clean_history(invoke, history_dir):
    code, out, _ = invoke("advise", *_history_args(history_dir), "--json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, ADVISE_SCHEMA)
    assert payload["gap_count"] == 0
    assert payload["warnings"] == []
    assert [c["component"] for c in payload["components"]] == [
        "core", "net", "tools", "ui"
    ]
    assert all(c["recommended_conditional_pct"] == 95 for c in payload["components"])

    code, out, _ = invoke("advise", *_history_args(history_dir))
    assert code == 0
    assert "No coverage gaps" in out
    assert "<-- raise" not in out


def test_advise_gap_exits_two(invoke, history_dir, tmp_path):
    hist = _gap_history(tmp_path, history_dir)
    code, out, _ = invoke("advise", *_history_args(hist), "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["gap_count"] == 1
    gap = payload["gaps"][0]
    assert gap["component"] == "core"
    assert gap["recommended_conditional_pct"] == 70
    assert gap["gap"] == pytest.approx(10.0)

    code, out, _ = invoke("advise", *_history_args(hist))
    assert code == 2
    assert "<-- raise" in out
    assert "core" in out


def test_advise_schema_error_names_file_and_line(invoke, history_dir, tmp_path):
    hist = tmp_path / "history"
    shutil.copytree(history_dir, hist)
    lines = (hist / "bugs.jsonl").read_text().splitlines()
    row = json.loads(lines[1])
    row["severity"] = "high"
    lines[1] = json.dumps(row)
    (hist / "bugs.jsonl").write_text("\n".join(lines) + "\n")
    code, _, err = invoke("advise", *_history_args(hist))
    assert code == 1
    assert "bugs.jsonl:2" in err


def test_advise_rejects_bad_grid(invoke, history_dir):
    code, _, err = invoke("advise", *_history_args(history_dir), "--grid", "95,70")
    assert code == 1
    assert "ascending" in err
    code, _, err = invoke("advise", *_history_args(history_dir), "--grid", "a,b")
    assert code == 1
    assert "comma-separated" in err


def test_advise_grid_and_tau_flags_flow_through(invoke, history_dir):
    code, out, _ = invoke(
        "advise", *_history_args(history_dir), "--grid", "70,95", "--json"
    )
    assert code == 0
    assert json.loads(out)["gap_count"] == 0
    code, _, _ = invoke("advise", *_history_args(history_dir), "--tau", "1.0")
    assert code == 0


def test_advise_insufficient_history(invoke, tmp_path):
    (tmp_path / "bugs.jsonl").write_text(
        json.dumps({"id": "B1", "period": "2025-01", "culprit": "c1"}) + "\n"
    )
    (tmp_path / "commits.jsonl").write_text(
        json.dumps({"id": "c1", "paths": [{"path": "src/a.c", "lines": 3}]}) + "\n"
    )
    (tmp_path / "coverage.jsonl").write_text("".join(
        json.dumps({"period": p, "component": "a",
                    "functional_pct": 90.0, "conditional_pct": 90.0}) + "\n"
        for p in ("2025-01", "2025-02")
    ))
    (tmp_path / "map.json").write_text(
        json.dumps({"rules": [{"prefix": "src/", "component": "a"}]})
    )
    code, _, err = invoke("advise", *_history_args(tmp_path))
    assert code == 1
    assert "need >= 20" in err


def test_advise_watch_requires_directory(invoke, history_dir, tmp_path):
    code, out, err = invoke(
        "advise", *_history_args(history_dir), "--watch", tmp_path / "missing"
    )
    assert (code, out) == (1, "")  # rejected before any advice is printed
    assert "not a directory" in err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--watch-interval", "-0.5"),
        ("--watch-interval", "nan"),
        ("--watch-interval", "inf"),
        ("--watch-count", "-1"),
    ],
)
def test_advise_rejects_bad_watch_settings_before_advising(
    invoke, history_dir, tmp_path, flag, value
):
    code, out, err = invoke(
        "advise", *_history_args(history_dir), "--watch", tmp_path, flag, value
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"ultgen: error: {flag} must be ")
    assert err.count("\n") == 1


def test_advise_watch_rereads_after_change(invoke, history_dir, tmp_path):
    hist = tmp_path / "history"
    shutil.copytree(history_dir, hist)
    gap_rows = []
    for raw in (hist / "coverage.jsonl").read_text().splitlines():
        row = json.loads(raw)
        if row["component"] == "core" and row["period"] == "2025-12":
            row["conditional_pct"] = 60.0
        gap_rows.append(json.dumps(row))
    gap_text = "\n".join(gap_rows) + "\n"

    stop = threading.Event()

    def mutate():
        # keep rewriting (atomically, growing) until the watcher exits, so
        # the change cannot slip in before the first directory snapshot
        pad = 0
        while not stop.is_set():
            pad += 1
            tmp = hist / "coverage.jsonl.tmp"
            tmp.write_text(gap_text + "\n" * pad)
            os.replace(tmp, hist / "coverage.jsonl")
            time.sleep(0.1)

    thread = threading.Thread(target=mutate)
    thread.start()
    try:
        code, out, _ = invoke(
            "advise", *_history_args(hist), "--watch", hist,
            "--watch-count", "1", "--watch-interval", "0.05",
        )
    finally:
        stop.set()
        thread.join()
    assert code == 2
    assert "<-- raise" in out


# --- run --------------------------------------------------------------------

def _run_project(invoke, project_dir, history_dir, out_dir, *extra):
    return invoke(
        "run", project_dir / "src", "-o", out_dir,
        "--config", project_dir / "cases.json",
        *_history_args(history_dir, flag="--coverage-history"),
        *extra,
    )


def test_run_full_pipeline(invoke, project_dir, history_dir, tmp_path):
    out_dir = tmp_path / "out"
    code, out, _ = _run_project(invoke, project_dir, history_dir, out_dir, "--json")
    assert code == 0
    manifest = json.loads(out)
    validate(manifest, MANIFEST_SCHEMA)
    assert manifest == json.loads((out_dir / "manifest.json").read_text())
    assert manifest["exit_code"] == 0
    assert manifest["seed"] == 42
    assert set(manifest["inputs"]) == {
        "display.cut", "turnstile.cut", "cases.json",
        "bugs.jsonl", "commits.jsonl", "coverage.jsonl", "map.json",
    }
    stages = manifest["stages"]
    assert stages["scaffold"]["classes"] == ["Counter", "Display", "Turnstile"]
    assert stages["advise"]["gap_count"] == 0
    assert stages["cases"]["configured"] == 2
    assert stages["coverage"]["conditional_pct"] == 100.0

    for name in ("cases.jsonl", "coverage.json", "advise.json", "manifest.json"):
        assert (out_dir / name).is_file()
    scaffold_files = {p.name for p in (out_dir / "scaffold").iterdir()}
    assert "turnstile_test_fixture.h" in scaffold_files
    assert "mock_counter.h" in scaffold_files
    validate(
        json.loads((out_dir / "coverage.json").read_text()), COVERAGE_REPORT_SCHEMA
    )
    validate(json.loads((out_dir / "advise.json").read_text()), ADVISE_SCHEMA)


def test_run_reads_each_input_file_once(
    invoke, project_dir, history_dir, tmp_path, monkeypatch
):
    """Every stage uses the text that was hashed for the manifest, so a
    file replaced during the run cannot give advice its hash does not
    match."""
    reads = []
    read_text = pathlib.Path.read_text

    def counting_read_text(self, *args, **kwargs):
        reads.append(self.name)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "read_text", counting_read_text)
    code, out, _ = _run_project(invoke, project_dir, history_dir, tmp_path / "out", "--json")
    monkeypatch.undo()
    assert code == 0
    assert sorted(reads) == sorted(json.loads(out)["inputs"])


def test_run_is_reproducible(invoke, project_dir, history_dir, tmp_path):
    outputs = []
    for name in ("one", "two"):
        out_dir = tmp_path / name
        code, _, _ = _run_project(invoke, project_dir, history_dir, out_dir)
        assert code == 0
        tree = {}
        for path in sorted(out_dir.rglob("*")):
            if path.is_file():
                tree[path.relative_to(out_dir).as_posix()] = path.read_bytes()
        outputs.append(tree)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("out", ["out", "."])
def test_run_again_into_the_source_tree(invoke, project_dir, history_dir, tmp_path, out):
    """A second run into an `-o` inside the source tree, or equal to it,
    does not read the first run's scaffold headers as source."""
    src = tmp_path / "src"
    shutil.copytree(project_dir / "src", src)
    out_dir = src / out
    runs = []
    for _ in range(2):
        code, _, err = invoke(
            "run", src, "-o", out_dir, "--config", project_dir / "cases.json",
            *_history_args(history_dir, flag="--coverage-history"),
        )
        tree = {
            path.relative_to(out_dir).as_posix(): path.read_bytes()
            for path in sorted(out_dir.rglob("*")) if path.is_file()
        }
        runs.append((code, err, tree))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
    manifest = json.loads(runs[0][2]["manifest.json"])
    assert set(manifest["inputs"]) == {
        "display.cut", "turnstile.cut", "cases.json",
        "bugs.jsonl", "commits.jsonl", "coverage.jsonl", "map.json",
    }


def _tree(out_dir):
    return {
        path.relative_to(out_dir).as_posix(): path.read_bytes()
        for path in sorted(out_dir.rglob("*")) if path.is_file()
    }


def test_run_again_keeps_anchored_edits(invoke, corpus_dir, tmp_path):
    """A second `run` carries the user lines of the first one's scaffold
    over byte for byte, and the manifest records the file they came from as
    an input. Nothing else in the tree moves."""
    out_dir = tmp_path / "out"
    args = ("run", corpus_dir, "-o", out_dir, "--threshold", "0", "--json")
    assert invoke(*args)[0] == 0
    first = _tree(out_dir)
    fixture = out_dir / "scaffold" / "account_test_fixture.h"
    marker = "// ULTGEN-ANCHOR: SetUpBody\n"
    edited = fixture.read_text().replace(marker, marker + "        ledger.open();\t// kept\n")
    fixture.write_text(edited)

    code, out, _ = invoke(*args)
    assert code == 0
    second = _tree(out_dir)
    assert second.pop("scaffold/account_test_fixture.h") == edited.encode()
    del first["scaffold/account_test_fixture.h"]
    before, after = (json.loads(tree.pop("manifest.json")) for tree in (first, second))
    assert second == first
    assert after["inputs"] == {
        **before["inputs"],
        "scaffold/account_test_fixture.h": hashlib.sha256(edited.encode()).hexdigest(),
    }
    counts = before["stages"]["scaffold"]
    assert after["stages"]["scaffold"]["anchor_line_count"] == counts["anchor_line_count"] + 1


def test_run_again_hashes_each_earlier_scaffold_text_as_read(
    invoke, project_dir, history_dir, tmp_path, monkeypatch
):
    """A second run reads each earlier scaffold file once, and the manifest
    holds the digest of the text it carried regions from, of only the file
    that gave user lines."""
    out_dir = tmp_path / "out"
    assert _run_project(invoke, project_dir, history_dir, out_dir)[0] == 0
    test_file = out_dir / "scaffold" / "test_turnstile.h"
    marker = "// ULTGEN-ANCHOR: TestBody(push)\n"
    test_file.write_text(test_file.read_text().replace(marker, marker + "        push(1);\n"))
    reads = []
    read_text = pathlib.Path.read_text

    def recording_read_text(self, *args, **kwargs):
        text = read_text(self, *args, **kwargs)
        reads.append((self, text))
        return text

    monkeypatch.setattr(pathlib.Path, "read_text", recording_read_text)
    code, out, _ = _run_project(invoke, project_dir, history_dir, out_dir, "--json")
    monkeypatch.undo()
    assert code == 0
    earlier = [(path.name, text) for path, text in reads if path.parent == out_dir / "scaffold"]
    names = [name for name, _ in earlier]
    assert sorted(names) == sorted(path.name for path in test_file.parent.iterdir())
    inputs = json.loads(out)["inputs"]
    assert {key: digest for key, digest in inputs.items() if key.startswith("scaffold/")} == {
        "scaffold/test_turnstile.h": hashlib.sha256(
            dict(earlier)["test_turnstile.h"].encode()
        ).hexdigest()
    }
    assert "        push(1);\n" in dict(earlier)["test_turnstile.h"]


def test_run_with_an_unclosed_region_writes_nothing(invoke, corpus_dir, tmp_path):
    out_dir = tmp_path / "out"
    args = ("run", corpus_dir, "-o", out_dir, "--threshold", "0")
    assert invoke(*args)[0] == 0
    fixture = out_dir / "scaffold" / "account_test_fixture.h"
    text = fixture.read_text()
    line = text.split("\n").index("        // ULTGEN-ANCHOR: SetUpBody") + 1
    fixture.write_text(text.replace("// ULTGEN-END", "// END", 1))
    (out_dir / "cases.jsonl").unlink()  # a run that got through would write it
    before = _tree(out_dir)
    code, out, err = invoke(*args)
    assert (code, out) == (1, "")
    assert err == (
        f"ultgen: error: stage 'scaffold': account_test_fixture.h:{line}: anchor "
        "'SetUpBody' has no '// ULTGEN-END' before the next anchor\n"
    )
    assert _tree(out_dir) == before


def test_run_counts_each_written_scaffold_line_once(invoke, corpus_dir, tmp_path):
    """Classes that share a dependency share its mock header, which is
    written once and counted once."""
    out_dir = tmp_path / "out"
    code, out, _ = invoke("run", corpus_dir, "-o", out_dir, "--threshold", "0", "--json")
    assert code == 0
    scaffold = json.loads(out)["stages"]["scaffold"]
    written = sum(p.read_text().count("\n") for p in (out_dir / "scaffold").iterdir())
    assert scaffold["auto_line_count"] + scaffold["anchor_line_count"] == written
    assert scaffold["anchor_line_count"] == 2 * sum(
        p.read_text().count(ANCHOR_START) for p in (out_dir / "scaffold").iterdir()
    )


def test_run_exits_two_on_advisor_gap(invoke, project_dir, history_dir, tmp_path):
    hist = _gap_history(tmp_path, history_dir)
    out_dir = tmp_path / "out"
    code, _, _ = _run_project(invoke, project_dir, hist, out_dir)
    assert code == 2
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["exit_code"] == 2
    assert manifest["stages"]["advise"]["highlighted"] == ["core"]


def test_run_exits_two_below_threshold(invoke, corpus_dir, tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    shutil.copy(corpus_dir / "cache.cut", src / "cache.cut")
    out_dir = tmp_path / "out"
    code, out, _ = _invoke_noting_syslog_once(
        invoke, "run", src, "-o", out_dir, "--threshold", "95", "--json"
    )
    assert code == 2
    manifest = json.loads(out)
    # one method's False branch is unreachable at default fields, so the
    # aggregate tops out below 95
    assert manifest["stages"]["coverage"]["conditional_pct"] == 93.75
    assert manifest["exit_code"] == 2


def test_run_uncovered_matches_coverage_subcommand(invoke, corpus_dir, tmp_path):
    out_dir = tmp_path / "out"
    code, _, _ = _invoke_noting_syslog_once(
        invoke, "run", corpus_dir, "-o", out_dir, "--threshold", "0"
    )
    assert code == 0
    run_rows = json.loads((out_dir / "coverage.json").read_text())["methods"]
    # `run` parses the sorted sources joined by newlines as one unit
    joined = tmp_path / "corpus.cut"
    joined.write_text(
        "\n".join(p.read_text() for p in sorted(corpus_dir.glob("*.cut")))
    )
    code, out, _ = invoke(
        "coverage", joined, "--cases", out_dir / "cases.jsonl",
        "--threshold", "0", "--json",
    )
    assert code == 0
    replayed = {r["method"]: r["uncovered"] for r in json.loads(out)["methods"]}
    assert {r["method"]: r["uncovered"] for r in run_rows} == replayed
    assert any(replayed.values())  # LruCache.admit:D2:F is out of reach


# Three methods whose streams reach the random phase (an unset field keeps a
# pair out of reach, so each spends its budget): `open` and `shut` take the
# same pool draws and so read the seed's outputs from one position, `turn`
# takes three more for its fourth int and reads from another.
_RANDOM_PHASE_SRC = """
class Left {
public:
    bool armed;

    int open(int a, int b, int c) {
        if (armed) {
            return 9;
        }
        if (b > 5 && c > 5) {
            return 1;
        }
        return a;
    }
};

class Right {
public:
    bool armed;

    int shut(int a, int b, int c) {
        if (armed || c < -5 && b < -5) {
            return 2;
        }
        return 0;
    }

    int turn(int a, int b, int c, int d) {
        if (armed) {
            return 3;
        }
        if (c > 5 && d < -5) {
            return 4;
        }
        return 0;
    }
};
"""
_RANDOM_PHASE_METHODS = (("Left", "open"), ("Right", "shut"), ("Right", "turn"))


def test_run_fuzzes_each_method_as_cases_does_alone(invoke, tmp_path):
    """`run` draws every method's random phase in one process from one
    table of the seed's outputs; each method keeps the cases that `cases`
    keeps for it alone in a fresh process."""
    budget, seed = 64, 3
    src = tmp_path / "src"
    src.mkdir()
    source = src / "gates.cut"
    source.write_text(_RANDOM_PHASE_SRC)
    out_dir = tmp_path / "out"
    code, _, err = invoke(
        "run", src, "-o", out_dir, "--budget", budget, "--seed", seed, "--threshold", "0"
    )
    assert code == 0, err
    by_target: dict = {}
    for line in (out_dir / "cases.jsonl").read_text().splitlines():
        by_target.setdefault(tuple(json.loads(line)["target"]), []).append(line)
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    for cls, method in _RANDOM_PHASE_METHODS:
        alone = tmp_path / f"{method}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "ultgen.cli", "cases", source, "--class", cls,
             "--method", method, "--budget", str(budget), "--seed", str(seed),
             "-o", alone],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        kept = by_target[(cls, method)]
        assert kept == alone.read_text().splitlines()
        # The premise: the method keeps a case from its random phase, which
        # starts at index 55 (open, shut) or 56 (turn).
        assert max(json.loads(line)["candidate_index"] for line in kept) >= 56


def test_random_phase_does_not_depend_on_method_order():
    """The streams match the reference whether they are drawn one after
    another or a candidate of each in turn, in either method order."""
    from test_cases import _reference_candidates, _stream_record

    unit = parse_source(_RANDOM_PHASE_SRC, path="<gates>")
    budget, seed = 64, 3
    evaluators = [CaseEvaluator(unit, cls, method) for cls, method in _RANDOM_PHASE_METHODS]

    def one_after_another(order):
        return {e: list(fuzz_candidates(e, budget, seed)) for e in order}

    def in_turn(order):
        rounds = list(zip(*(fuzz_candidates(e, budget, seed) for e in order)))
        return {e: [candidates[i] for candidates in rounds] for i, e in enumerate(order)}

    for draw, order in ((one_after_another, evaluators), (in_turn, evaluators[::-1])):
        for evaluator, stream in draw(order).items():
            got = [fuzzed_case(evaluator, c, seed, i) for i, c in enumerate(stream)]
            want = _reference_candidates(evaluator, budget, seed, None)
            assert _stream_record(got) == _stream_record(want)


def test_run_expands_configured_cases_once(invoke, project_dir, tmp_path, monkeypatch):
    built = _count_evaluators(monkeypatch)
    out_dir = tmp_path / "out"
    code, out, _ = invoke(
        "run", project_dir / "src", "-o", out_dir,
        "--config", project_dir / "cases.json", "--json",
    )
    assert code == 0
    configured = json.loads(out)["stages"]["cases"]["configured"]
    methods = json.loads((out_dir / "coverage.json").read_text())["methods"]
    config = json.loads((project_dir / "cases.json").read_text())
    configured_methods = [
        (class_name, method)
        for class_name, entry in config["classes"].items()
        for method in entry["methods"]
    ]
    assert (len(methods), configured, len(configured_methods)) == (7, 2, 2)
    # one per public method, plus one to read each configured method
    assert len(built) == len(methods) + len(configured_methods)


def test_run_seed_flag_lands_in_manifest(invoke, project_dir, history_dir, tmp_path):
    out_dir = tmp_path / "out"
    code, out, _ = _run_project(
        invoke, project_dir, history_dir, out_dir, "--seed", "11", "--json"
    )
    assert code == 0
    assert json.loads(out)["seed"] == 11


def test_run_partial_advisor_flags_rejected(invoke, project_dir, history_dir, tmp_path):
    code, _, err = invoke(
        "run", project_dir / "src", "-o", tmp_path / "out",
        "--bugs", history_dir / "bugs.jsonl",
    )
    assert code == 1
    assert "together" in err


def test_run_src_must_be_directory(invoke, turnstile, tmp_path):
    code, _, err = invoke("run", turnstile, "-o", tmp_path / "out")
    assert code == 1
    assert "not a directory" in err


def test_run_empty_source_dir(invoke, tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    code, _, err = invoke("run", src, "-o", tmp_path / "out")
    assert code == 1
    assert "stage 'parse'" in err
    assert "no classes" in err


def test_run_parse_error_names_file_and_line(invoke, corpus_dir, tmp_path):
    src = tmp_path / "corpus"
    shutil.copytree(corpus_dir, src)
    lines = (src / "cache.cut").read_text().split("\n")
    lines[3] += " @@@"
    (src / "cache.cut").write_text("\n".join(lines))
    code, _, err = invoke("run", src, "-o", tmp_path / "out")
    assert code == 1
    assert f"stage 'parse': {src / 'cache.cut'}:4:22: " in err


def test_run_duplicate_class_names_second_file(invoke, tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.cut").write_text("class A {\npublic:\n    int f() { return 1; }\n};\n")
    (src / "b.cut").write_text("// again\n\nclass A {\npublic:\n    int g() { return 2; }\n};\n")
    code, _, err = invoke("run", src, "-o", tmp_path / "out")
    assert code == 1
    assert f"{src / 'b.cut'}:3:1: duplicate class name 'A'" in err


def test_run_keeps_configured_cases_of_private_and_inherited_methods(invoke, tmp_path):
    """`run` fuzzes the public methods, then every other method the config
    names, as `cases` and `coverage` do; no configured case is dropped."""
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.cut").write_text(
        "class A {\npublic:\n    int f(int x) { return x; }\n"
        "private:\n    int g(int y) { if (y > 3) { return 1; } return 0; }\n};\n"
        "class B : public A {\npublic:\n    int h() { return 2; }\n};\n"
    )
    config = tmp_path / "cases.json"
    config.write_text(json.dumps({"classes": {
        "A": {"methods": {"g": {"cases": {"big": {"params": {"y": 9}}}}}},
        "B": {"methods": {"f": {"cases": {"seven": {"params": {"x": 7}}}}}},
    }}))
    out_dir = tmp_path / "out"
    code, out, _ = invoke("run", src, "-o", out_dir, "--config", config, "--json")
    assert code == 0
    assert json.loads(out)["stages"]["cases"]["configured"] == 2
    records = [json.loads(line) for line in (out_dir / "cases.jsonl").read_text().splitlines()]
    configured = [(r["target"], r["params"]) for r in records if r["origin"] == "Configured"]
    assert configured == [(["A", "g"], {"y": 9}), (["B", "f"], {"x": 7})]
    rows = json.loads((out_dir / "coverage.json").read_text())["methods"]
    assert [r["method"] for r in rows] == ["A.f", "B.h", "A.g", "B.f"]


def test_run_prints_a_shared_extern_note_once(invoke, tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.cut").write_text(
        "extern class Log;\n"
        "class Base {\npublic:\n    Log* log;\n    int f() { return 1; }\n};\n"
        "class Other {\npublic:\n    Log* log;\n    int g() { return 2; }\n};\n"
    )
    out_dir = tmp_path / "out"
    code, _, err = invoke("run", src, "-o", out_dir)
    assert code == 0
    assert err == (
        "warning: dependency 'Log' is extern; mock generated from the "
        "declaration only (no setters, no scripted returns)\n"
    )
    assert (out_dir / "scaffold" / "mock_log.h").is_file()


@pytest.mark.parametrize("clash", ["history", "source"])
def test_run_rejects_inputs_sharing_a_manifest_key(
    invoke, project_dir, history_dir, tmp_path, clash
):
    """The manifest keys a config or history file by its base name; two
    inputs under one key would keep one hash for both, so `run` stops
    before it writes anything and names both files."""
    src = project_dir / "src"
    history = _history_args(history_dir, "--coverage-history")
    if clash == "history":
        first, second = tmp_path / "d1" / "h.jsonl", tmp_path / "d2" / "h.jsonl"
        for path, name in ((first, "bugs.jsonl"), (second, "commits.jsonl")):
            path.parent.mkdir()
            shutil.copy(history_dir / name, path)
        extra = ["--bugs", first, "--commits", second, *history[4:]]
    else:
        first, second = src / "turnstile.cut", tmp_path / "turnstile.cut"
        shutil.copy(project_dir / "cases.json", second)
        extra = ["--config", second, *history]
    out_dir = tmp_path / "out"
    code, out, err = invoke("run", src, "-o", out_dir, *extra)
    assert (code, out) == (1, "")
    assert err == (
        f"ultgen: error: {first} and {second} share the manifest key {first.name!r}\n"
    )
    assert not out_dir.exists()


def test_run_tree_does_not_depend_on_the_hash_seed(project_dir, history_dir, tmp_path):
    """Two processes under different string-hash seeds write the same tree.
    Runs inside one process share one hash seed, so they cannot show output
    that follows the iteration order of a set of strings."""
    trees = []
    for hash_seed in ("0", "1"):
        out_dir = tmp_path / f"out{hash_seed}"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC_DIR)}
        proc = subprocess.run(
            [sys.executable, "-m", "ultgen.cli", "run", project_dir / "src", "-o", out_dir,
             "--config", project_dir / "cases.json",
             *_history_args(history_dir, "--coverage-history")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        trees.append({
            path.relative_to(out_dir).as_posix(): path.read_bytes()
            for path in sorted(out_dir.rglob("*")) if path.is_file()
        })
    assert len(trees[0]) == 11
    assert trees[0] == trees[1]


def test_start_up_loads_no_code_generating_modules():
    """Every CLI call first imports the CLI and builds its parser. That
    loads neither `dataclasses`, which compiles generated methods for each
    class, nor `inspect`, which it pulls in, nor `statistics`, which pulls in
    `fractions`, `decimal` and `random`."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import ultgen.cli\n"
        "ultgen.cli.build_parser()\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "ultgen.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "statistics"} == set()


# --- damaged inputs ---------------------------------------------------------

_DAMAGE = (None, [], {}, "x", 1.5, True, -1, 10**400)
_DROP = object()

# What a message from inside Python looks like, rather than one of ours: a
# failed conversion or iteration, or a KeyError's bare key.
_INTERNAL = re.compile(r"could not convert|not iterable|object is not|has no attribute"
                       r"|unhashable|Exceeds the limit|: '\w*'$")


def _damaged(doc):
    """(label, copy of `doc` with one change, whether the change put a string
    where a number was): every value below the root replaced by each of
    _DAMAGE, and every object key dropped."""
    def paths(node, path):
        if isinstance(node, (dict, list)):
            for key, child in node.items() if isinstance(node, dict) else enumerate(node):
                yield path + (key,), child
                yield from paths(child, path + (key,))

    for path, old in list(paths(doc, ())):
        for new in _DAMAGE + (_DROP,):
            copy = json.loads(json.dumps(doc))
            parent = copy
            for key in path[:-1]:
                parent = parent[key]
            if new is not _DROP:
                parent[path[-1]] = new
            elif isinstance(parent, dict):
                del parent[path[-1]]
            else:
                continue
            label = f"{list(path)} {'dropped' if new is _DROP else json.dumps(new)[:8]}"
            yield label, copy, type(old) in (int, float) and new == "x"


def _probe(invoke, args, string_for_number):
    """Why one run on a damaged input did not end cleanly, or None. Clean
    is exit 1 with one `ultgen: error:` line of our own, or success (2 is
    `advise`'s highlighted-gap exit) that took no string for a number."""
    try:
        code, _, err = invoke(*args)
    except Exception as e:  # a traceback on the user's terminal
        return f"raised {type(e).__name__}: {e}"
    lines = err.splitlines()
    if code == 1:
        if len(lines) != 1 or not lines[0].startswith("ultgen: error: "):
            return f"exit 1 with {err!r}"
        if _INTERNAL.search(lines[0]):
            return f"internal message {lines[0]!r}"
        return None
    if code not in (0, 2):
        return f"exit {code}"
    return "accepted a string for a number" if string_for_number else None


def test_damaged_config_fails_cleanly(invoke, turnstile, project_dir, tmp_path):
    config = json.loads((project_dir / "cases.json").read_text())
    path = tmp_path / "cases.json"
    failures = []
    for label, doc, string_for_number in _damaged(config):
        path.write_text(json.dumps(doc))
        why = _probe(invoke, ("cases", turnstile, "--class", "Turnstile", "--method", "push",
                              "--config", path, "--budget", "1", "-o", tmp_path / "c.jsonl"),
                     string_for_number)
        if why:
            failures.append(f"{label}: {why}")
    assert failures == []


def test_damaged_case_records_fail_cleanly(invoke, turnstile, project_dir, tmp_path):
    """Each record of a kept case file per Turnstile target, configured
    cases included, damaged in turn."""
    path = tmp_path / "damaged.jsonl"
    failures = []
    for method in ("push", "audit", "unjam"):
        kept = tmp_path / f"{method}.jsonl"
        code, _, _ = invoke("cases", turnstile, "--class", "Turnstile", "--method", method,
                            "--config", project_dir / "cases.json", "-o", kept)
        assert code == 0
        records = [json.loads(line) for line in kept.read_text().splitlines()]
        for i, record in enumerate(records):
            for label, doc, string_for_number in _damaged(record):
                rows = [*records[:i], doc, *records[i + 1:]]
                path.write_text("".join(json.dumps(r) + "\n" for r in rows))
                why = _probe(invoke, ("coverage", turnstile, "--cases", path,
                                      "--threshold", "0"), string_for_number)
                if why:
                    failures.append(f"{method}.jsonl:{i + 1} {label}: {why}")
    assert failures == []


def test_damaged_history_fails_cleanly(invoke, history_dir, tmp_path):
    """The first record of each JSONL history file, and the component map."""
    hist = tmp_path / "history"
    shutil.copytree(history_dir, hist)
    failures = []
    for name in ("bugs.jsonl", "commits.jsonl", "coverage.jsonl", "map.json"):
        text = (history_dir / name).read_text()
        first, rest = text.split("\n", 1) if name.endswith(".jsonl") else (text, "")
        for label, doc, string_for_number in _damaged(json.loads(first)):
            (hist / name).write_text(json.dumps(doc) + "\n" + rest)
            why = _probe(invoke, ("advise", *_history_args(hist)), string_for_number)
            if why:
                failures.append(f"{name} {label}: {why}")
        (hist / name).write_text(text)
    assert failures == []
