"""Every function, method, class and module-level constant in src/ultgen
has a use somewhere.

A use is a name or an attribute that is read, or a string literal equal to
the name (the benchmark patches call sites by attribute name), in any
module under src/, tests/ or perfbench/, outside the definition itself.
Assignments, imports and `__all__` entries are not uses: a constant that is
only written, or a re-export alone, keeps nothing alive.

Every name imported into a src/ultgen module has a use too: the module
reads it (by the rule above, so a quoted annotation counts), lists it in
its `__all__`, or a module under src/, tests/ or perfbench/ imports it
from that module.
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


def _module_name(path: pathlib.Path) -> str:
    """Dotted name of a module under src/."""
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _from_module(node: ast.ImportFrom, path: pathlib.Path) -> str:
    """The module a `from ... import` names; a relative one is resolved
    against `path`, which is then under src/."""
    if not node.level:
        return node.module
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    base = package[: len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _imports(module: ast.Module):
    """(bound name, line) of every import in a module, `__future__` aside."""
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


def _exported(module: ast.Module) -> set[str]:
    """The names in a module's `__all__`."""
    for node in module.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_import_has_a_use():
    uses = _uses_by_file()
    imported_from: set[tuple[str, str]] = set()
    for path in uses:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                source = _from_module(node, path)
                imported_from.update((source, alias.name) for alias in node.names)
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        exported = _exported(module)
        name_of = _module_name(path)
        for name, line in _imports(module):
            if name in uses[path] or name in exported:
                continue
            if (name_of, name) not in imported_from:
                unused.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert unused == []


_DECODERS = ("load", "loads", "JSONDecoder")


def _json_decodes(node: ast.AST, scope: str):
    """The scope, a dotted class and def name, of every read of `json.load`,
    `json.loads` or `json.JSONDecoder` under `node`, and of every import of
    one of these names."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, _DEFS):
            inner = f"{scope}.{child.name}" if scope else child.name
        if (
            isinstance(child, ast.Attribute) and child.attr in _DECODERS
            and isinstance(child.value, ast.Name) and child.value.id == "json"
        ) or (
            isinstance(child, ast.ImportFrom) and child.module == "json"
            and any(alias.name in _DECODERS for alias in child.names)
        ):
            yield scope
        yield from _json_decodes(child, inner)


def test_json_is_decoded_in_one_place():
    """Every JSON input goes through `errors.JsonReader`, so each one's
    errors name the file, line and path alike."""
    found = [
        (path.relative_to(PACKAGE).as_posix(), scope)
        for path in sorted(PACKAGE.rglob("*.py"))
        for scope in _json_decodes(ast.parse(path.read_text(encoding="utf-8")), "")
    ]
    assert found == [("errors.py", "JsonReader")]


def test_gc_is_never_imported():
    """The program leaves the garbage collector as Python sets it: it makes
    its data cheap to collect instead of pausing or tuning collection."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            if any(m.split(".")[0] == "gc" for m in modules):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert found == []
