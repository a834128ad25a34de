"""Metamorphic relations between whole `ultgen run`s.

*split:* each source file run alone gives the same case records and
coverage rows as the whole tree. Methods of one shape share one compiled
runner per process (`interp._MAKERS`, keyed by `CaseEvaluator._walk`), so
a shape key that misses a feature binds a method to another shape's
runner in the whole tree, where the other method compiled first, but not
in its own file. The cache is cleared before each run, or the entries of
the run before would hide such a fault.

Trees come from `gen_programs.py`: random methods and their siblings one
node apart, several classes per file and repeated across files with other
literals, so that shapes repeat; and the pairs of `SHAPE_NEAR_MISSES`,
one shape feature apart, each side in its own file.

*print:* the tree printed by `print_unit` gives a byte-identical
`cases.jsonl` and an equal `coverage.json`, on the corpus and on one
generated class of many conditions: printing keeps every decision, id and
value that the cases and pairs are made of.

*budget:* on the corpus, budgets 8, 16, 32 and 64 in turn never lose a
covered pair or a crash key; the crash keys come from replaying the kept
cases.
"""

import contextlib
import copy
import io
import json
import pathlib
import tempfile

from hypothesis import given, settings, strategies as st

from gen_programs import (
    SHAPE_NEAR_MISSES,
    file_text,
    gen_siblings,
    many_conditions_text,
    method_text,
)
from ultgen import interp
from ultgen.cases import case_from_json
from ultgen.cli import main
from ultgen.coverage import compute_coverage
from ultgen.cutlang.nodes import IntLit, walk
from ultgen.cutlang.parser import parse_source
from ultgen.cutlang.printer import print_method, print_unit

BUDGET = 24


def _run(src, out, budget=BUDGET):
    """`ultgen run` over `src` into `out`, from a process with no compiled
    shape."""
    interp._MAKERS.clear()
    argv = ["run", str(src), "-o", str(out), "--seed", "21", "--budget", str(budget),
            "--threshold", "0"]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        assert main(argv) == 0, printed.getvalue()


def _records(src, out):
    """The case records and coverage rows of `ultgen run` over `src`, by
    class."""
    _run(src, out)
    records = {}
    for line in (out / "cases.jsonl").read_text().splitlines():
        records.setdefault(json.loads(line)["target"][0], []).append(line)
    for row in json.loads((out / "coverage.json").read_text())["methods"]:
        records.setdefault(row["method"].split(".")[0], []).append(row)
    return records


def _assert_split(files):
    """Each of `files` ({name: text}) run alone gives the case records and
    coverage rows of its classes in the whole tree."""
    with tempfile.TemporaryDirectory() as work:
        root = pathlib.Path(work)
        for name, text in files.items():
            for tree in ("tree", f"alone-{name}"):
                (root / tree).mkdir(exist_ok=True)
                (root / tree / f"{name}.cut").write_text(text)
        whole = _records(root / "tree", root / "whole")
        for name in files:
            alone = _records(root / f"alone-{name}", root / f"out-{name}")
            assert alone == {c: whole[c] for c in alone}, name


def _halved(method):
    """A copy of `method` with each int literal halved: the same signs, so
    mostly the same shape, with other values."""
    method = copy.deepcopy(method)
    for node in walk(method.body):
        if isinstance(node, IntLit):
            node.value //= 2
    return method


@settings(max_examples=10)
@given(st.lists(gen_siblings(), min_size=1, max_size=2), st.data())
def test_split_on_generated_trees(siblings, data):
    """Three files of two classes each, every class holding one of the drawn
    methods and their siblings (`gen_siblings`), as drawn or with its
    literals halved."""
    methods = [method for pair in siblings for method in pair]
    files = {}
    for f in range(3):
        classes = {}
        for c in range(2):
            method = data.draw(st.sampled_from(methods))
            if data.draw(st.booleans()):
                method = _halved(method)
            classes[f"G{f}{c}"] = [print_method(method, indent=1) + "\n"]
        files[f"f{f}"] = file_text(classes, dep=f"Dep{f}")
    _assert_split(files)


def test_split_on_shape_near_misses():
    """Each side of every near-miss pair in a file of its own."""
    files = {}
    for side in range(2):
        methods = [method_text(name.replace("-", "_"), pair[side])
                   for name, pair in SHAPE_NEAR_MISSES.items()]
        files[f"side{side}"] = file_text({f"Near{side}": methods}, dep=f"Dep{side}")
    _assert_split(files)


def _assert_print(files):
    """The tree of `files` ({file name: text}) and the same tree with each
    file printed by `print_unit` give the same case file, byte for byte,
    and equal coverage reports."""
    with tempfile.TemporaryDirectory() as work:
        root = pathlib.Path(work)
        for tree in ("tree", "printed"):
            (root / tree).mkdir()
        for name, text in files.items():
            (root / "tree" / name).write_text(text)
            (root / "printed" / name).write_text(print_unit(parse_source(text, path=name)))
        outputs = []
        for tree in ("tree", "printed"):
            _run(root / tree, root / f"out-{tree}")
            outputs.append((
                (root / f"out-{tree}" / "cases.jsonl").read_bytes(),
                json.loads((root / f"out-{tree}" / "coverage.json").read_text()),
            ))
        assert outputs[0] == outputs[1]


def test_print_on_the_corpus(corpus_dir):
    _assert_print({p.name: p.read_text() for p in sorted(corpus_dir.glob("*.cut"))})


def test_print_on_a_generated_tree():
    _assert_print({"many.cut": many_conditions_text(3)})


def _findings(src, out):
    """The covered pairs and the crash keys of the cases that `out`, a
    `run` over `src`, kept, each under its method."""
    unit = parse_source(
        "\n".join(p.read_text() for p in sorted(src.glob("*.cut"))), path=str(src)
    )
    traces = {}
    for line in (out / "cases.jsonl").read_text().splitlines():
        case = case_from_json(json.loads(line))
        evaluator, runs = traces.setdefault(
            case.target, (interp.CaseEvaluator(unit, *case.target), [])
        )
        runs.append(evaluator.run(case))
    found = set()
    for target, (evaluator, runs) in traces.items():
        found.update((target, pair) for pair in compute_coverage(runs, evaluator).pairs_covered)
        found.update((target, t.crash.key) for t in runs if t.crash is not None)
    return found


def test_budget_doubling_loses_no_pair_or_crash_key(corpus_dir):
    with tempfile.TemporaryDirectory() as work:
        root = pathlib.Path(work)
        before = set()
        for budget in (8, 16, 32, 64):
            _run(corpus_dir, root / f"b{budget}", budget)
            found = _findings(corpus_dir, root / f"b{budget}")
            assert before <= found, (budget, sorted(before - found))
            before = found
