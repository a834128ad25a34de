"""Scaffold emission, golden comparison, line accounting, merge."""

import json

import pytest

from ultgen.cutlang import parse_source
from ultgen.errors import UltgenError, UnknownClass
from ultgen.scaffold import (
    fixture_file_name,
    generate_scaffold,
    measure_generation_ratio,
    mock_file_name,
    public_methods,
    test_file_name as _test_file_name,
)


@pytest.fixture(scope="module")
def golden_unit(golden_dir):
    text = (golden_dir / "class_a.cut").read_text()
    return parse_source(text, path="class_a.cut")


def test_file_names():
    assert fixture_file_name("A") == "a_test_fixture.h"
    assert _test_file_name("LruCache") == "test_lrucache.h"
    assert mock_file_name("CharFeed") == "mock_charfeed.h"


def test_golden_files_byte_exact(golden_unit, golden_dir):
    bundle = generate_scaffold(golden_unit, "A")
    expected_dir = golden_dir / "expected"
    assert sorted(name for name, _ in bundle.files) == sorted(
        p.name for p in expected_dir.glob("*.h")
    )
    for name, text in bundle.files:
        assert text == (expected_dir / name).read_text(), name


def test_fixture_structure(golden_unit):
    bundle = generate_scaffold(golden_unit, "A")
    fixture = dict(bundle.files)["a_test_fixture.h"]
    assert "class A_TestCase : public testing::Test" in fixture
    assert "virtual void SetUp()" in fixture
    assert "virtual void TearDown()" in fixture
    assert fixture.count("TEST_F(A_TestCase,") == 2
    assert "testA->func1Test();" in fixture
    assert "Test_A* testA;" in fixture


def test_test_class_inherits_cut(golden_unit):
    bundle = generate_scaffold(golden_unit, "A")
    text = dict(bundle.files)["test_a.h"]
    assert "class Test_A : public A" in text
    assert "void func1Test()" in text
    assert "void func2Test()" in text


def test_mock_has_setters_per_field(golden_unit):
    bundle = generate_scaffold(golden_unit, "A")
    text = dict(bundle.files)["mock_c.h"]
    assert "class MOCK_C : public C" in text
    assert "void SetVariable1(int value)" in text
    assert "void SetVariable2(int value)" in text
    assert "variable1 = value;" in text


def test_unknown_class_rejected(golden_unit):
    with pytest.raises(UnknownClass):
        generate_scaffold(golden_unit, "Zed")


def test_public_methods_only():
    unit = parse_source(
        """
        class S {
        public:
            int visible() { return 1; }
        private:
            int hidden() { return 2; }
        };
        """,
        path="<t>",
    )
    cls = unit.class_named("S")
    assert [m.name for m in public_methods(cls)] == ["visible"]
    bundle = generate_scaffold(unit, "S")
    fixture = dict(bundle.files)[fixture_file_name("S")]
    assert "visible" in fixture
    assert "hidden" not in fixture


def test_one_mock_per_dependency_class():
    unit = parse_source(
        """
        class Probe { public: int ping() { return 0; } };
        class Twin {
        public:
            Probe* left;
            Probe* right;
            int read() { return left->ping() + right->ping(); }
        };
        """,
        path="<t>",
    )
    bundle = generate_scaffold(unit, "Twin")
    names = [name for name, _ in bundle.files]
    assert names.count("mock_probe.h") == 1


def test_bundle_of_classes_sharing_a_mock_counts_its_lines_once(tmp_path):
    """One bundle for two classes that hold the same dependency writes its
    mock once, and counts every line it writes exactly once."""
    unit = parse_source(
        """
        class Probe { public: int level; int ping() { return 0; } };
        class A { public: Probe* p; int f() { return p->ping(); } };
        class B { public: Probe* q; int g() { return q->ping(); } };
        """,
        path="<t>",
    )
    bundle = generate_scaffold(unit, "A", "B")
    names = [name for name, _ in bundle.files]
    assert names == [
        "a_test_fixture.h", "test_a.h", "b_test_fixture.h", "test_b.h", "mock_probe.h",
    ]
    for name, text in bundle.files:
        (tmp_path / name).write_text(text)
    written = sum(len(path.read_text().splitlines()) for path in tmp_path.iterdir())
    assert bundle.auto_line_count + bundle.anchor_line_count == written
    assert bundle.anchor_line_count == 2 * len(bundle.anchors)


def test_bundle_rejects_two_files_of_one_name():
    unit = parse_source(
        "class Foo { public: int f() { return 1; } };"
        " class FOO { public: int g() { return 2; } };",
        path="<t>",
    )
    with pytest.raises(UltgenError, match="^conflicting content for foo_test_fixture.h$"):
        generate_scaffold(unit, "Foo", "FOO")


def test_extern_dependency_mocked_with_warning():
    unit = parse_source(
        "extern class Relay; class A { public: Relay* r;"
        " int f() { return r->fire(); } };",
        path="<t>",
    )
    bundle = generate_scaffold(unit, "A")
    assert bundle.warnings == (
        "dependency 'Relay' is extern; mock generated from the declaration "
        "only (no setters, no scripted returns)",
    )
    text = dict(bundle.files)["mock_relay.h"]
    assert "class MOCK_Relay" in text


def test_line_accounting(golden_unit):
    bundle = generate_scaffold(golden_unit, "A")
    auto, anchor = bundle.auto_line_count, bundle.anchor_line_count
    assert anchor == 2 * len(bundle.anchors)  # empty regions: markers only
    total = sum(len(text.splitlines()) for _, text in bundle.files)
    assert auto + anchor == total
    assert 0.0 < measure_generation_ratio(auto, anchor) < 1.0


def test_anchor_positions_recorded(golden_unit):
    bundle = generate_scaffold(golden_unit, "A")
    kinds = sorted(a.kind for a in bundle.anchors)
    assert kinds == [
        "SetUpBody",
        "TearDownBody",
        "TestBody(func1)",
        "TestBody(func2)",
    ]
    by_file = {(a.file, a.kind) for a in bundle.anchors}
    assert ("a_test_fixture.h", "SetUpBody") in by_file
    assert ("test_a.h", "TestBody(func1)") in by_file


def test_merge_preserves_user_regions(golden_unit):
    bundle = generate_scaffold(golden_unit, "A")
    edited = dict(bundle.files)
    edited["test_a.h"] = edited["test_a.h"].replace(
        "// ULTGEN-ANCHOR: TestBody(func1)\n",
        "// ULTGEN-ANCHOR: TestBody(func1)\n        func1();\n",
    )
    merged = generate_scaffold(golden_unit, "A", previous=edited.get)
    text = dict(merged.files)["test_a.h"]
    assert "        func1();" in text
    # the untouched region stays empty
    assert "TestBody(func2)\n        // ULTGEN-END" in text


def test_merge_without_edits_is_identity(golden_unit):
    bundle = generate_scaffold(golden_unit, "A")
    merged = generate_scaffold(golden_unit, "A", previous=dict(bundle.files).get)
    assert merged.files == bundle.files
    assert merged.auto_line_count == bundle.auto_line_count
    assert merged.anchor_line_count == bundle.anchor_line_count


def test_merge_counts_user_lines_as_anchor_lines(golden_unit):
    bundle = generate_scaffold(golden_unit, "A")
    edited = dict(bundle.files)
    edited["a_test_fixture.h"] = edited["a_test_fixture.h"].replace(
        "// ULTGEN-ANCHOR: SetUpBody\n",
        "// ULTGEN-ANCHOR: SetUpBody\n        testA = new Test_A();\n",
    )
    merged = generate_scaffold(golden_unit, "A", previous=edited.get)
    assert merged.anchor_line_count == bundle.anchor_line_count + 1
    assert merged.auto_line_count == bundle.auto_line_count
    # markers after the carried line move down by one
    lines = {(a.file, a.kind): a.line for a in bundle.anchors}
    assert {(a.file, a.kind): a.line for a in merged.anchors} == {
        **lines,
        ("a_test_fixture.h", "TearDownBody"): lines[("a_test_fixture.h", "TearDownBody")] + 1,
    }


@pytest.mark.parametrize(
    "name, kind, before",
    [
        ("a_test_fixture.h", "SetUpBody", "the next anchor"),
        ("test_a.h", "TestBody(func2)", "the end of the file"),
    ],
)
def test_merge_rejects_an_unclosed_region(golden_unit, name, kind, before):
    """A region whose END marker was deleted would carry the generated lines
    after it (and declare TearDown twice); the merge refuses it instead,
    at the line of the unclosed marker."""
    bundle = generate_scaffold(golden_unit, "A")
    line = {(a.file, a.kind): a.line for a in bundle.anchors}[(name, kind)]
    lines = dict(bundle.files)[name].split("\n")
    assert lines[line].strip() == "// ULTGEN-END"
    lines[line] = "        // the END marker was here"
    edited = {**dict(bundle.files), name: "\n".join(lines)}
    with pytest.raises(UltgenError) as info:
        generate_scaffold(golden_unit, "A", previous=edited.get)
    assert str(info.value) == (
        f"{name}:{line}: anchor {kind!r} has no '// ULTGEN-END' before {before}"
    )


def test_corpus_scaffolds_generate_cleanly(corpus_unit):
    for cls in corpus_unit.classes:
        bundle = generate_scaffold(corpus_unit, cls.name)
        ratio = measure_generation_ratio(
            bundle.auto_line_count, bundle.anchor_line_count
        )
        assert 0.5 < ratio <= 1.0, cls.name


def test_merge_rules_through_the_cli(invoke, golden_dir, tmp_path):
    """`scaffold --merge` matches regions by file and kind: the last copy of
    a duplicated kind wins, a kind the new scaffold lacks is dropped, blank
    user lines are kept, and a file with no earlier text is written fresh.
    The --json line counts include the carried lines."""
    src = golden_dir / "class_a.cut"
    out_dir = tmp_path / "gen"
    code, out, _ = invoke("scaffold", src, "--class", "A", "-o", out_dir, "--json")
    assert code == 0
    fresh = json.loads(out)
    golden = (golden_dir / "expected" / "test_a.h").read_text()
    func1 = "        // ULTGEN-ANCHOR: TestBody(func1)\n"
    func2 = "        // ULTGEN-ANCHOR: TestBody(func2)\n"
    end = "        // ULTGEN-END\n"
    edited = golden.replace(func1, func1 + "        first();\n\n        second();\n")
    edited = edited.replace(func2, func2 + "        early();\n")
    edited = edited.replace(
        "};\n",
        "};\n// stray edit outside the markers\n"
        + func2 + "        late();\n" + end
        + "        // ULTGEN-ANCHOR: TestBody(gone)\n        stale();\n" + end,
    )
    (out_dir / "test_a.h").write_text(edited)
    (out_dir / "mock_c.h").unlink()

    code, out, _ = invoke(
        "scaffold", src, "--class", "A", "-o", out_dir, "--merge", "--json"
    )
    assert code == 0
    merged = json.loads(out)
    expected = golden.replace(
        func1, func1 + "        first();\n\n        second();\n"
    ).replace(func2, func2 + "        late();\n")
    assert (out_dir / "test_a.h").read_text() == expected
    for name in ("a_test_fixture.h", "mock_c.h"):
        assert (out_dir / name).read_text() == (golden_dir / "expected" / name).read_text()
    assert merged["auto_line_count"] == fresh["auto_line_count"]
    assert merged["anchor_line_count"] == fresh["anchor_line_count"] + 4
    total = sum(len((out_dir / name).read_text().splitlines()) for name in merged["files"])
    assert merged["auto_line_count"] + merged["anchor_line_count"] == total


def test_merge_with_an_unclosed_region_writes_nothing(invoke, golden_dir, tmp_path):
    src = golden_dir / "class_a.cut"
    out_dir = tmp_path / "gen"
    assert invoke("scaffold", src, "--class", "A", "-o", out_dir)[0] == 0
    fixture = out_dir / "a_test_fixture.h"
    broken = fixture.read_text().replace("// ULTGEN-END", "// END", 1)
    fixture.write_text(broken)
    (out_dir / "mock_c.h").unlink()
    code, _, err = invoke("scaffold", src, "--class", "A", "-o", out_dir, "--merge")
    assert code == 1
    assert "a_test_fixture.h:14: anchor 'SetUpBody' has no '// ULTGEN-END'" in err
    assert fixture.read_text() == broken
    assert not (out_dir / "mock_c.h").exists()
