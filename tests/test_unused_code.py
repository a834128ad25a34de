"""Every function, method, class and module-level constant in src/ultgen
has a use somewhere.

A use is a name or an attribute that is read, or a string literal equal to
the name (the benchmark patches call sites by attribute name), in any
module under src/, tests/ or perfbench/, outside the definition itself.
Assignments, imports and `__all__` entries are not uses: a constant that is
only written, or a re-export alone, keeps nothing alive.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ultgen"
SEARCHED = ("src", "tests", "perfbench")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class _Uses(ast.NodeVisitor):
    def __init__(self):
        self.lines: dict[str, list[int]] = {}

    def _add(self, name: str, node: ast.AST) -> None:
        self.lines.setdefault(name, []).append(node.lineno)

    def visit_Assign(self, node: ast.Assign) -> None:
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._add(node.id, node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self._add(node.attr, node)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str):
            self._add(node.value, node)


def _uses_by_file() -> dict[pathlib.Path, dict[str, list[int]]]:
    uses = {}
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            visitor = _Uses()
            visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
            uses[path] = visitor.lines
    return uses


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _constants(module: ast.Module):
    """(name, assignment) for every name a module-level statement assigns."""
    for node in module.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, node


def _definitions():
    """(file, name, first line, last line) of every non-dunder def, class
    and module-level constant."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(module):
            if isinstance(node, _DEFS) and not _dunder(node.name):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield path, node.name, first, node.end_lineno
        for name, node in _constants(module):
            if not _dunder(name):
                yield path, name, node.lineno, node.end_lineno


def test_every_definition_has_a_use():
    uses = _uses_by_file()
    unused = []
    for path, name, first, last in _definitions():
        used = any(
            not (other == path and first <= line <= last)
            for other, names in uses.items()
            for line in names.get(name, ())
        )
        if not used:
            unused.append(f"{path.relative_to(ROOT)}:{first}: {name}")
    assert unused == []
