"""The modules of `ultgen` import each other without a cycle.

Every relative import counts, at any depth (a function-level import
included), except those under `if TYPE_CHECKING:`, which never run.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _type_checking(node: ast.AST) -> bool:
    test = getattr(node, "test", None)
    return isinstance(node, ast.If) and (
        (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
        or (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")
    )


def _imports(nodes):
    """Every relative `from ... import` in `nodes` and below them, outside
    `if TYPE_CHECKING:`."""
    for node in nodes:
        if _type_checking(node):
            yield from _imports(node.orelse)
            continue
        if isinstance(node, ast.ImportFrom) and node.level:
            yield node
        yield from _imports(ast.iter_child_nodes(node))


def _edges(name: str, is_package: bool, tree: ast.AST, modules: set[str]) -> set[str]:
    """The modules of `modules` that module `name` imports at run time."""
    package = name.split(".") if is_package else name.split(".")[:-1]
    targets = set()
    for node in _imports([tree]):
        base = ".".join(package[: len(package) - node.level + 1])
        if node.module:
            targets.add(f"{base}.{node.module}")
        else:  # `from . import x`: a submodule x, or a name of the package
            targets.update(
                f"{base}.{a.name}" if f"{base}.{a.name}" in modules else base
                for a in node.names
            )
    return targets & modules


def import_graph(root: pathlib.Path = SRC) -> dict[str, set[str]]:
    """Module name -> the modules it imports, for every module under `root`."""
    files = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        is_package = parts[-1] == "__init__"
        files[".".join(parts[:-1] if is_package else parts)] = (path, is_package)
    return {
        name: _edges(name, is_package, ast.parse(path.read_text(encoding="utf-8")), set(files))
        for name, (path, is_package) in files.items()
    }


def find_cycle(graph: dict[str, set[str]]):
    """One import cycle as a list of modules (first == last), or None."""
    state: dict[str, int] = {}  # 1 on the current path, 2 done
    path: list[str] = []

    def visit(name):
        state[name] = 1
        path.append(name)
        for target in sorted(graph[name]):
            if state.get(target) == 1:
                return path[path.index(target):] + [target]
            if target not in state:
                cycle = visit(target)
                if cycle:
                    return cycle
        path.pop()
        state[name] = 2
        return None

    for name in sorted(graph):
        if name not in state:
            cycle = visit(name)
            if cycle:
                return cycle
    return None


def test_ultgen_modules_import_no_cycle():
    graph = import_graph()
    assert "ultgen.cases" in graph["ultgen.cli"]
    assert find_cycle(graph) is None


def test_scanner_reads_nested_imports_and_skips_type_checking():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .b import B\n"
        "else:\n"
        "    from .c import C\n"
        "def f():\n"
        "    from ..d import D\n"
        "    from . import e, g\n"
    )
    modules = {"p.q.a", "p.q.b", "p.q.c", "p.d", "p.q.e", "p.q"}
    assert _edges("p.q.a", False, tree, modules) == {"p.q.c", "p.d", "p.q.e", "p.q"}
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]


def test_no_ultgen_module_imports_schemas():
    """`ultgen.schemas` serves the tests and the bench; no module of the
    package imports it, relatively or by its full name, so start-up does not
    build its dicts."""
    graph = import_graph()
    assert "ultgen.schemas" in graph
    assert [name for name, targets in graph.items() if "ultgen.schemas" in targets] == []
    for path in sorted((SRC / "ultgen").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [f"{node.module}.{a.name}" for a in node.names] + [node.module]
            else:
                continue
            assert "ultgen.schemas" not in names, path
