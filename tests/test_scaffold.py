"""Scaffold emission, golden comparison, line accounting, merge."""

import warnings

import pytest

from ultgen.cutlang import parse_source
from ultgen.errors import UnknownClass
from ultgen.scaffold import (
    ExternDependencyWarning,
    count_lines,
    fixture_file_name,
    generate_scaffold,
    measure_generation_ratio,
    merge_bundle,
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


def test_extern_dependency_mocked_with_warning():
    unit = parse_source(
        "extern class Relay; class A { public: Relay* r;"
        " int f() { return r->fire(); } };",
        path="<t>",
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bundle = generate_scaffold(unit, "A")
    assert any(issubclass(w.category, ExternDependencyWarning) for w in caught)
    text = dict(bundle.files)["mock_relay.h"]
    assert "class MOCK_Relay" in text


def test_line_accounting(golden_unit):
    bundle = generate_scaffold(golden_unit, "A")
    auto, anchor = count_lines(bundle.files)
    assert auto == bundle.auto_line_count
    assert anchor == bundle.anchor_line_count
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
    merged = merge_bundle(generate_scaffold(golden_unit, "A"), edited)
    text = dict(merged.files)["test_a.h"]
    assert "        func1();" in text
    # the untouched region stays empty
    assert "TestBody(func2)\n        // ULTGEN-END" in text


def test_merge_without_edits_is_identity(golden_unit):
    bundle = generate_scaffold(golden_unit, "A")
    merged = merge_bundle(generate_scaffold(golden_unit, "A"), dict(bundle.files))
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
    merged = merge_bundle(generate_scaffold(golden_unit, "A"), edited)
    assert merged.anchor_line_count == bundle.anchor_line_count + 1
    assert merged.auto_line_count == bundle.auto_line_count


def test_corpus_scaffolds_generate_cleanly(corpus_unit):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExternDependencyWarning)
        for cls in corpus_unit.classes:
            bundle = generate_scaffold(corpus_unit, cls.name)
            ratio = measure_generation_ratio(
                bundle.auto_line_count, bundle.anchor_line_count
            )
            assert 0.5 < ratio <= 1.0, cls.name
