"""No code in src/ultgen reads another object's private attributes.

An attribute named with one leading underscore belongs to the class that
defines it, so only `self._name` and `cls._name` may read it. Other
modules go through public names (for a method's inputs: the evaluator's
`param_types`, `field_types`, `mock_types`, `mock_type` and `pairs`).
Writes are not reads, and dunder names are protocol, not private state.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ultgen"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(tree: ast.AST):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and _is_private(node.attr)
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
        ):
            yield node


def test_no_private_attribute_read_outside_self():
    reads = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {ast.unparse(node)}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in _private_reads(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert reads == []
