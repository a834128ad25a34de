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
and `// ULTGEN-END` markers; regeneration can preserve those regions.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

from .cutlang.nodes import ClassDecl, MethodDecl, RefType, SourceUnit
from .errors import UnknownClass

ANCHOR_START = "// ULTGEN-ANCHOR:"
ANCHOR_END = "// ULTGEN-END"

_BANNER = (
    "// Auto-generated unit test scaffolding. Edit only between",
    "// ULTGEN-ANCHOR markers; regeneration with --merge keeps those regions.",
)


class ExternDependencyWarning(UserWarning):
    """Mock generated for an extern dependency: surface unknown, body empty."""


@dataclass(frozen=True)
class Anchor:
    file: str
    line: int  # 1-based line number of the ULTGEN-ANCHOR marker
    kind: str


@dataclass(frozen=True)
class ScaffoldBundle:
    class_name: str
    files: tuple[tuple[str, str], ...]  # (file name, text), emission order
    anchors: tuple[Anchor, ...]
    auto_line_count: int
    anchor_line_count: int
    warnings: tuple[str, ...] = ()


def fixture_file_name(class_name: str) -> str:
    return f"{class_name.lower()}_test_fixture.h"

def test_file_name(class_name: str) -> str:
    return f"test_{class_name.lower()}.h"

def mock_file_name(dep_name: str) -> str:
    return f"mock_{dep_name.lower()}.h"


def _guard(file_name: str) -> str:
    return "ULTGEN_" + re.sub(r"[^A-Za-z0-9]", "_", file_name).upper()


def _cap(name: str) -> str:
    return name[0].upper() + name[1:] if name else name


class _File:
    def __init__(self, name: str):
        self.name = name
        self.lines: list[str] = []
        self.anchors: list[Anchor] = []

    def add(self, *lines: str) -> None:
        self.lines.extend(lines)

    def anchor(self, kind: str, indent: str) -> None:
        self.lines.append(f"{indent}{ANCHOR_START} {kind}")
        self.anchors.append(Anchor(self.name, len(self.lines), kind))
        self.lines.append(f"{indent}{ANCHOR_END}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _open_header(f: _File) -> None:
    g = _guard(f.name)
    f.add(*_BANNER, f"#ifndef {g}", f"#define {g}", "")


def _close_header(f: _File) -> None:
    f.add("", "#endif")


def public_methods(cls: ClassDecl) -> list[MethodDecl]:
    """Declared public methods, the surface the fixture exercises."""
    return [m for m in cls.methods if m.access == "public"]


def _emit_fixture(cls: ClassDecl) -> _File:
    f = _File(fixture_file_name(cls.name))
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


def _emit_test_class(cls: ClassDecl) -> _File:
    f = _File(test_file_name(cls.name))
    _open_header(f)
    f.add(f"class Test_{cls.name} : public {cls.name}", "{", "public:")
    for m in public_methods(cls):
        f.add(f"    void {m.name}Test()", "    {")
        f.anchor(f"TestBody({m.name})", "        ")
        f.add("    }")
    f.add("};")
    _close_header(f)
    return f


def _emit_mock(dep_name: str, dep: ClassDecl | None) -> _File:
    f = _File(mock_file_name(dep_name))
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


def generate_scaffold(unit: SourceUnit, class_name: str) -> ScaffoldBundle:
    """Build the scaffold bundle for one class under test.

    Byte-identical output for identical input. Extern dependencies produce
    an empty-bodied mock plus an ExternDependencyWarning.
    """
    cls = unit.class_named(class_name)
    if cls is None:
        raise UnknownClass(f"class {class_name!r} not found in {unit.path}")
    files = [_emit_fixture(cls), _emit_test_class(cls)]
    notes: list[str] = []
    for dep_name in cls.dependencies:
        dep = unit.class_named(dep_name)
        if dep is None:
            note = (
                f"dependency {dep_name!r} is extern; mock generated from the "
                "declaration only (no setters, no scripted returns)"
            )
            notes.append(note)
            warnings.warn(note, ExternDependencyWarning, stacklevel=2)
        files.append(_emit_mock(dep_name, dep))
    anchors: list[Anchor] = []
    for f in files:
        anchors.extend(f.anchors)
    texts = tuple((f.name, f.text()) for f in files)
    auto, anchor = count_lines(texts)
    return ScaffoldBundle(
        class_name=class_name,
        files=texts,
        anchors=tuple(anchors),
        auto_line_count=auto,
        anchor_line_count=anchor,
        warnings=tuple(notes),
    )


def count_lines(files: tuple[tuple[str, str], ...]) -> tuple[int, int]:
    """(auto, anchor) line counts. Anchor lines are the marker lines plus
    everything between a marker pair; all other lines are auto lines."""
    auto = 0
    anchor = 0
    for _, text in files:
        in_region = False
        for line in text.splitlines():
            stripped = line.strip()
            if stripped.startswith(ANCHOR_START):
                in_region = True
                anchor += 1
                continue
            if stripped == ANCHOR_END:
                in_region = False
                anchor += 1
                continue
            if in_region:
                anchor += 1
            else:
                auto += 1
    return auto, anchor


def measure_generation_ratio(auto_lines: int, anchor_lines: int) -> float:
    """Share of scaffold lines that are generated, not anchored."""
    total = auto_lines + anchor_lines
    return auto_lines / total if total else 1.0


def _region_map(text: str) -> dict[str, list[str]]:
    """kind -> user lines between that kind's markers."""
    regions: dict[str, list[str]] = {}
    kind = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith(ANCHOR_START):
            kind = stripped[len(ANCHOR_START) :].strip()
            regions[kind] = []
            continue
        if stripped == ANCHOR_END:
            kind = None
            continue
        if kind is not None:
            regions[kind].append(line)
    return regions


def merge_bundle(
    bundle: ScaffoldBundle, previous: dict[str, str]
) -> ScaffoldBundle:
    """Carry user-edited anchor regions from previous file texts into a
    freshly generated bundle. Regions match by (file name, anchor kind);
    anything outside markers in the previous text is discarded."""
    new_files: list[tuple[str, str]] = []
    for name, text in bundle.files:
        old = previous.get(name)
        if old is None:
            new_files.append((name, text))
            continue
        keep = _region_map(old)
        out: list[str] = []
        skipping = False
        for line in text.splitlines():
            stripped = line.strip()
            if stripped.startswith(ANCHOR_START):
                out.append(line)
                kind = stripped[len(ANCHOR_START) :].strip()
                user = keep.get(kind)
                if user:
                    out.extend(user)
                    skipping = True  # drop the freshly generated empties
                continue
            if stripped == ANCHOR_END:
                out.append(line)
                skipping = False
                continue
            if not skipping:
                out.append(line)
        new_files.append((name, "\n".join(out) + "\n"))
    texts = tuple(new_files)
    anchors: list[Anchor] = []
    for name, text in texts:
        for i, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if stripped.startswith(ANCHOR_START):
                anchors.append(
                    Anchor(name, i, stripped[len(ANCHOR_START) :].strip())
                )
    auto, anchor = count_lines(texts)
    return ScaffoldBundle(
        class_name=bundle.class_name,
        files=texts,
        anchors=tuple(anchors),
        auto_line_count=auto,
        anchor_line_count=anchor,
        warnings=bundle.warnings,
    )
