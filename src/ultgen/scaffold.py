"""Test scaffolding generator: fixture, test class, and mock sources.

For a class under test A with dependency C this emits three kinds of file:
  - `a_test_fixture.h`: `A_TestCase : public testing::Test` with anchored
    SetUp/TearDown bodies, a `Test_A* testA;` member, and one TEST_F block
    per method delegating to the test class;
  - `test_a.h`: `Test_A : public A` with one anchored `<m>Test()` member
    per method (inheriting the class under test gives access to internals);
  - `mock_c.h`: `MOCK_C : public C` with one setter per scalar field, and
    per value-returning method a scripted-return slot, its registration
    method, and an override returning the slot (the fake return lives in
    the mock).

Output is deterministic: no timestamps, iteration in declaration order.
The only lines meant for manual edits sit between `// ULTGEN-ANCHOR: <kind>`
and `// ULTGEN-END` markers. Given the earlier text of its files,
`generate_scaffold` writes each region's earlier lines back between the
markers, and counts generated and anchored lines, as it emits them.
"""

from __future__ import annotations

import itertools
import re
from typing import Callable, NamedTuple, Optional

from .cutlang.nodes import ClassDecl, MethodDecl, RefType, SourceUnit
from .errors import UltgenError, UnknownClass

ANCHOR_START = "// ULTGEN-ANCHOR:"
ANCHOR_END = "// ULTGEN-END"

_BANNER = (
    "// Auto-generated unit test scaffolding. Edit only between",
    "// ULTGEN-ANCHOR markers; regeneration keeps those regions.",
)


class Anchor(NamedTuple):
    file: str
    line: int  # 1-based line number of the ULTGEN-ANCHOR marker
    kind: str


class ScaffoldBundle(NamedTuple):
    files: tuple[tuple[str, str], ...]  # (file name, text), emission order
    anchors: tuple[Anchor, ...]
    auto_line_count: int
    anchor_line_count: int
    warnings: tuple[str, ...] = ()
    kept_from: tuple[str, ...] = ()  # files whose earlier text gave user lines


def fixture_file_name(class_name: str) -> str:
    return f"{class_name.lower()}_test_fixture.h"

def test_file_name(class_name: str) -> str:
    return f"test_{class_name.lower()}.h"

def mock_file_name(dep_name: str) -> str:
    return f"mock_{dep_name.lower()}.h"


# previous(name) -> the earlier text of the file `name`, or None
Reader = Callable[[str], Optional[str]]


def _no_previous(name: str) -> None:
    return None


def _guard(file_name: str) -> str:
    return "ULTGEN_" + re.sub(r"[^A-Za-z0-9]", "_", file_name).upper()


def _cap(name: str) -> str:
    return name[0].upper() + name[1:] if name else name


class _File:
    """One emitted file. Each anchor carries that kind's user lines from
    the file's earlier text; the file counts its anchored lines (markers
    plus carried lines) as it writes them."""

    def __init__(self, name: str, previous: Reader):
        self.name = name
        self.lines: list[str] = []
        self.anchors: list[Anchor] = []
        self.anchor_line_count = 0
        self._kept = _region_map(name, previous(name))

    def add(self, *lines: str) -> None:
        self.lines.extend(lines)

    def anchor(self, kind: str, indent: str) -> None:
        user = self._kept.get(kind, ())
        self.lines.append(f"{indent}{ANCHOR_START} {kind}")
        self.anchors.append(Anchor(self.name, len(self.lines), kind))
        self.lines.extend(user)
        self.lines.append(f"{indent}{ANCHOR_END}")
        self.anchor_line_count += len(user) + 2

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _region_map(name: str, text: str | None) -> dict[str, list[str]]:
    """kind -> user lines between that kind's markers in `text`, the
    earlier text of file `name`. A kind marked twice keeps its last region.
    A region that reaches the next marker or the end of the file before
    its `// ULTGEN-END` is an error, so no generated line is carried."""
    regions: dict[str, list[str]] = {}
    kind = None
    opened = 0
    for number, line in enumerate((text or "").split("\n"), start=1):
        stripped = line.strip()
        if stripped.startswith(ANCHOR_START):
            if kind is not None:
                raise _unclosed(name, opened, kind, "the next anchor")
            kind = stripped[len(ANCHOR_START) :].strip()
            opened = number
            regions[kind] = []
        elif stripped == ANCHOR_END:
            kind = None
        elif kind is not None:
            regions[kind].append(line)
    if kind is not None:
        raise _unclosed(name, opened, kind, "the end of the file")
    return regions


def _unclosed(name: str, line: int, kind: str, before: str) -> UltgenError:
    return UltgenError(
        f"{name}:{line}: anchor {kind!r} has no {ANCHOR_END!r} before {before}"
    )


def _open_header(f: _File) -> None:
    g = _guard(f.name)
    f.add(*_BANNER, f"#ifndef {g}", f"#define {g}", "")


def _close_header(f: _File) -> None:
    f.add("", "#endif")


def public_methods(cls: ClassDecl) -> list[MethodDecl]:
    """Declared public methods, the surface the fixture exercises."""
    return [m for m in cls.methods if m.access == "public"]


def _emit_fixture(cls: ClassDecl, previous: Reader) -> _File:
    f = _File(fixture_file_name(cls.name), previous)
    _open_header(f)
    f.add(f'#include "{test_file_name(cls.name)}"')
    for dep in cls.dependencies:
        f.add(f'#include "{mock_file_name(dep)}"')
    f.add("")
    member = f"test{cls.name}"
    f.add(f"class {cls.name}_TestCase : public testing::Test", "{", "public:")
    f.add("    virtual void SetUp()", "    {")
    f.anchor("SetUpBody", "        ")
    f.add("    }")
    f.add("    virtual void TearDown()", "    {")
    f.anchor("TearDownBody", "        ")
    f.add("    }")
    f.add(f"    Test_{cls.name}* {member};")
    f.add("};")
    for m in public_methods(cls):
        f.add("")
        f.add(f"TEST_F({cls.name}_TestCase, {m.name})", "{")
        f.add(f"    {member}->{m.name}Test();")
        f.add("}")
    _close_header(f)
    return f


def _emit_test_class(cls: ClassDecl, previous: Reader) -> _File:
    f = _File(test_file_name(cls.name), previous)
    _open_header(f)
    f.add(f"class Test_{cls.name} : public {cls.name}", "{", "public:")
    for m in public_methods(cls):
        f.add(f"    void {m.name}Test()", "    {")
        f.anchor(f"TestBody({m.name})", "        ")
        f.add("    }")
    f.add("};")
    _close_header(f)
    return f


def _emit_mock(dep_name: str, dep: ClassDecl | None, previous: Reader) -> _File:
    f = _File(mock_file_name(dep_name), previous)
    _open_header(f)
    f.add(f"class MOCK_{dep_name} : public {dep_name}", "{", "public:")
    if dep is not None:
        for field in dep.fields:
            if isinstance(field.type, RefType):
                continue  # reference state is mocked, not set
            f.add(
                f"    void Set{_cap(field.name)}({field.type} value)",
                "    {",
                f"        {field.name} = value;",
                "    }",
            )
        for m in dep.methods:
            if m.return_type == "void":
                continue  # nothing to script
            slot = f"{m.name}_return"
            f.add(
                f"    void Script{_cap(m.name)}Return({m.return_type} value)",
                "    {",
                f"        {slot} = value;",
                "    }",
                f"    {m.return_type} {m.name}()",
                "    {",
                f"        return {slot};",
                "    }",
                f"    {m.return_type} {slot};",
            )
    f.add("};")
    _close_header(f)
    return f


def generate_scaffold(
    unit: SourceUnit, *class_names: str, previous: Reader = _no_previous
) -> ScaffoldBundle:
    """Build one scaffold bundle for the classes under test: each class's
    fixture and test class, then one mock per dependency of any of them, in
    first-reference order. Two files of one name raise UltgenError.

    `previous(name)` gives the earlier text of a file the bundle writes, or
    None. Regions carry over by (file name, anchor kind): the last region of
    a kind wins, kinds the new scaffold lacks are dropped, and everything
    outside the markers is regenerated. A region without its END marker
    raises UltgenError. `kept_from` names, in emission order, the files
    whose earlier text supplied at least one carried line. Byte-identical
    output for identical input. Each extern dependency gets an
    empty-bodied mock and one note in `warnings`.
    """
    classes = [unit.class_named(name) for name in class_names]
    for name, cls in zip(class_names, classes):
        if cls is None:
            raise UnknownClass(f"class {name!r} not found in {unit.path}")
    deps = {name: unit.class_named(name) for cls in classes for name in cls.dependencies}
    # Each file is rendered as it is emitted, so only one file's lines are
    # alive at a time, however many classes the bundle holds.
    emitted = itertools.chain(
        (emit(cls, previous) for cls in classes
         for emit in (_emit_fixture, _emit_test_class)),
        (_emit_mock(name, dep, previous) for name, dep in deps.items()),
    )
    texts: dict[str, str] = {}
    anchors: list[Anchor] = []
    kept_from: list[str] = []
    lines = anchored = 0
    for f in emitted:
        if f.name in texts:
            raise UltgenError(f"conflicting content for {f.name}")
        texts[f.name] = f.text()
        anchors.extend(f.anchors)
        lines += len(f.lines)
        anchored += f.anchor_line_count
        if f.anchor_line_count > 2 * len(f.anchors):  # more than the markers
            kept_from.append(f.name)
    return ScaffoldBundle(
        files=tuple(texts.items()),
        anchors=tuple(anchors),
        auto_line_count=lines - anchored,
        anchor_line_count=anchored,
        warnings=tuple(
            f"dependency {name!r} is extern; mock generated from the "
            "declaration only (no setters, no scripted returns)"
            for name, dep in deps.items() if dep is None
        ),
        kept_from=tuple(kept_from),
    )


def measure_generation_ratio(auto_lines: int, anchor_lines: int) -> float:
    """Share of scaffold lines that are generated, not anchored."""
    total = auto_lines + anchor_lines
    return auto_lines / total if total else 1.0
