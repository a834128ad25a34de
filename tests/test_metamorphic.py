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
    method_text,
)
from ultgen import interp
from ultgen.cli import main
from ultgen.cutlang.nodes import IntLit, walk
from ultgen.cutlang.printer import print_method

BUDGET = 24


def _records(src, out):
    """The case records and coverage rows of `ultgen run` over `src`, by
    class, from a process with no compiled shape."""
    interp._MAKERS.clear()
    argv = ["run", str(src), "-o", str(out), "--seed", "21", "--budget", str(BUDGET),
            "--threshold", "0"]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        assert main(argv) == 0, printed.getvalue()
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
