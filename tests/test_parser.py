"""Front-end behavior: lexing, parsing, static checks, printing."""

import pytest
from hypothesis import given, strategies as st

from gen_programs import gen_method, program_text
from ultgen.cutlang import (
    INT_MAX,
    INT_MIN,
    ClassDecl,
    FieldRef,
    IntLit,
    ParamRef,
    RefType,
    SourceUnit,
    Unary,
    parse_source,
    print_unit,
    tokenize,
)
from ultgen.cutlang.lexer import KEYWORDS, PUNCT
from ultgen.errors import (
    CutlangError,
    DuplicateName,
    ParseError,
    TypeCheckError,
)


def parse(src: str) -> SourceUnit:
    return parse_source(src, path="<test>")


# --- lexer ----------------------------------------------------------------

def test_tokenize_skips_comments_and_trivia():
    toks = tokenize("int x; // line\n/* block\n还 */ bool\n#pragma once\nfloat")
    kinds = [(t.kind, t.text) for t in toks if t.kind != "eof"]
    assert kinds == [
        ("keyword", "int"),
        ("ident", "x"),
        ("punct", ";"),
        ("keyword", "bool"),
        ("keyword", "float"),
    ]


def test_tokenize_reports_position():
    toks = tokenize("class A {\n  int x;\n};")
    x = [t for t in toks if t.text == "x"][0]
    assert (x.line, x.column) == (2, 7)


def test_unterminated_block_comment_rejected():
    with pytest.raises(ParseError):
        tokenize("int x; /* never closed")


def test_eof_column_after_trailing_comment():
    source = "class A { int f() { return 1; } // tail"
    assert tokenize(source)[-1].column == len(source) + 1
    with pytest.raises(ParseError) as info:
        parse_source(source, path="t.cut")
    assert str(info.value) == (
        "t.cut:1:40: expected a member declaration, found end of input"
    )
    assert tokenize("int x;\n#pragma once")[-1].column == 13


@pytest.mark.parametrize(
    "source, message",
    [
        ("int \u00e9;", "t.cut:1:5: unexpected character '\u00e9'"),
        ("int x = \u0663;", "t.cut:1:9: unexpected character '\u0663'"),
        ("x = \u00b2;", "t.cut:1:5: unexpected character '\u00b2'"),
        ("x1\u0663 = 0;", "t.cut:1:3: unexpected character '\u0663'"),
        ("int x; #pragma", "t.cut:1:8: unexpected character '#'"),
    ],
)
def test_tokenize_rejects_characters_outside_the_grammar(source, message):
    with pytest.raises(ParseError) as info:
        tokenize(source, "t.cut")
    assert str(info.value) == message


_IDENT_START = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"
_DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=4)
_EXPONENT = st.tuples(
    st.sampled_from(["e", "E"]), st.sampled_from(["", "+", "-"]), _DIGITS
).map("".join)
_TOKEN_TEXT = st.one_of(
    st.tuples(
        st.sampled_from(_IDENT_START),
        st.text(alphabet=_IDENT_START + "0123456789", max_size=5),
    )
    .map("".join)
    .filter(lambda text: text not in KEYWORDS)
    .map(lambda text: ("ident", text)),
    st.sampled_from(sorted(KEYWORDS)).map(lambda text: ("keyword", text)),
    _DIGITS.map(lambda text: ("int", text)),
    st.one_of(
        st.tuples(_DIGITS, _DIGITS, st.just("") | _EXPONENT).map(
            lambda parts: parts[0] + "." + parts[1] + parts[2]
        ),
        st.tuples(_DIGITS, _EXPONENT).map("".join),
    ).map(lambda text: ("float", text)),
    st.sampled_from(PUNCT).map(lambda text: ("punct", text)),
)
# Every separator starts with a blank or a newline, so no two tokens merge
# and a "/" token never runs into a comment opener.
_COMMENT_TEXT = st.text(alphabet="ab */#\u8fd8", max_size=6).filter(
    lambda text: "*/" not in text
)
_SEPARATOR_PART = st.one_of(
    st.sampled_from([" ", "\t", "\r", "\n", "  "]),
    _COMMENT_TEXT.map(lambda text: " //" + text + "\n"),
    st.tuples(_COMMENT_TEXT, _COMMENT_TEXT).map(
        lambda pair: " /*" + pair[0] + "\n" + pair[1] + " */"
    ),
    _COMMENT_TEXT.map(lambda text: "\n#" + text + "\n"),
)
_SEPARATOR = st.lists(_SEPARATOR_PART, min_size=1, max_size=3).map("".join)
_TRAILER = st.sampled_from(["", "\n", " // tail", "\n#tail", " /* x\n */ "])


@given(
    drawn=st.lists(st.tuples(_TOKEN_TEXT, _SEPARATOR), max_size=25),
    lead=st.sampled_from(["", "#lead\n", "\n ", "/* x */"]),
    trailer=_TRAILER,
)
def test_tokenize_positions_match_source(drawn, lead, trailer):
    parts = [lead]
    for i, ((_, text), separator) in enumerate(drawn):
        parts.append(text)
        parts.append(separator if i + 1 < len(drawn) else trailer)
    source = "".join(parts)
    tokens = tokenize(source)
    expected = [token for token, _ in drawn] + [("eof", "")]
    assert [(t.kind, t.text) for t in tokens] == expected
    for t in tokens:
        assert source[t.pos : t.pos + len(t.text)] == t.text
        assert t.line == source.count("\n", 0, t.pos) + 1
        assert t.column == t.pos - (source.rfind("\n", 0, t.pos) + 1) + 1
    assert tokens[-1].pos == len(source)


# --- basic declarations ---------------------------------------------------

def test_class_fields_methods_and_base():
    unit = parse(
        """
        class Base { public: int v; };
        class Kid : public Base {
        public:
            Dep* link;
            bool live;
            int poke(int n) { return n; }
        private:
            void hidden() {}
        };
        extern class Dep;
        """
    )
    kid = unit.class_named("Kid")
    assert kid.base == "Base"
    assert [f.name for f in kid.fields] == ["link", "live"]
    assert kid.fields[0].type == RefType("Dep")
    assert [m.name for m in kid.methods] == ["poke", "hidden"]
    assert kid.methods[1].access == "private"
    assert [e.name for e in unit.externs] == ["Dep"]


def test_methods_require_bodies():
    with pytest.raises(ParseError, match="bodies are required"):
        parse("class A { public: int f(); };")


def test_negative_literals_fold():
    unit = parse("class A { public: int f() { return -7; } };")
    ret = unit.classes[0].methods[0].body.stmts[0]
    assert ret.value == IntLit(-7)


def test_int_min_literal_accepted():
    unit = parse(f"class A {{ public: int f() {{ return {INT_MIN}; }} }};")
    assert unit.classes[0].methods[0].body.stmts[0].value == IntLit(INT_MIN)


def test_int_literal_overflow_rejected():
    with pytest.raises(ParseError):
        parse(f"class A {{ public: int f() {{ return {INT_MAX + 1}; }} }};")


def test_modulo_rejected():
    with pytest.raises(ParseError):
        parse("class A { public: int f(int x) { return x % 2; } };")


def test_else_requires_block():
    with pytest.raises(ParseError):
        parse(
            "class A { public: int f(bool b) {"
            " if (b) { return 1; } else return 2; } };"
        )


def test_precedence_and_over_or():
    unit = parse(
        "class A { public: bool f(bool a, bool b, bool c) {"
        " return a && b || c; } };"
    )
    expr = unit.classes[0].methods[0].body.stmts[0].value
    assert expr.op == "||"
    assert expr.left.op == "&&"


def test_unary_not_binds_tighter_than_and():
    unit = parse(
        "class A { public: bool f(bool a, bool b) { return !a && b; } };"
    )
    expr = unit.classes[0].methods[0].body.stmts[0].value
    assert expr.op == "&&"
    assert isinstance(expr.left, Unary)


def test_param_shadows_field():
    unit = parse(
        "class A { public: int x; int f(int x) { return x; } };"
    )
    ret = unit.classes[0].methods[0].body.stmts[0]
    assert isinstance(ret.value, ParamRef)


def test_field_reference_resolution():
    unit = parse(
        "class A { public: int x; int f() { return x; } };"
    )
    ret = unit.classes[0].methods[0].body.stmts[0]
    assert isinstance(ret.value, FieldRef)


def test_spans_point_into_source():
    src = "class A {\npublic:\n    int f(int n) { return n; }\n};"
    unit = parse(src)
    m = unit.classes[0].methods[0]
    assert m.span.line == 3
    assert src[m.span.lo:m.span.hi].startswith("int f")


# --- static checks --------------------------------------------------------

def test_duplicate_class_rejected():
    with pytest.raises(DuplicateName):
        parse("class A { public: int x; }; class A { public: int y; };")


def test_int_condition_rejected():
    with pytest.raises(TypeCheckError):
        parse("class A { public: int f(int x) { if (x) { return 1; } return 0; } };")


def test_mixed_arithmetic_rejected():
    with pytest.raises(TypeCheckError):
        parse(
            "class A { public: float f(int x, float y) { return x + y; } };"
        )


def test_unknown_reference_class_rejected():
    with pytest.raises(TypeCheckError):
        parse("class A { public: Ghost* g; };")


def test_extern_base_rejected():
    with pytest.raises(TypeCheckError):
        parse("extern class E; class A : public E { public: int x; };")


@pytest.mark.parametrize(
    "source, error, message",
    [
        ("class A { };\nclass B : public ns::A { };", ParseError,
         "t.cut:2:20: qualified names are not supported here"),
        ("class A { };\nTEST_F(A, t) { }", ParseError,
         "t.cut:2:1: expected a class declaration, found 'TEST_F'"),
        ("extern class E;\nclass B : public E { };", TypeCheckError,
         "t.cut:2:1: cannot inherit from extern class 'E'"),
        ("class A { Q* q; };", TypeCheckError, "t.cut:1:11: unknown class 'Q'"),
    ],
)
def test_grammar_boundary_errors(source, error, message):
    with pytest.raises(CutlangError) as info:
        parse_source(source, path="t.cut")
    assert type(info.value) is error
    assert str(info.value) == message


def test_call_requires_ref_field_receiver():
    with pytest.raises(TypeCheckError):
        parse(
            "class A { public: int x; int f() { return x->get(); } };"
        )


def test_extern_calls_type_as_int():
    unit = parse(
        "extern class Log; class A { public: Log* log;"
        " int f() { return log->flush() + 1; } };"
    )
    assert unit.class_named("A") is not None


def test_class_named_first_wins():
    first = ClassDecl("A", None, [], [])
    unit = SourceUnit("<t>", [first, ClassDecl("A", None, [], [])])
    assert unit.class_named("A") is first
    assert unit.class_named("B") is None


def test_dependency_call_must_exist():
    with pytest.raises(TypeCheckError):
        parse(
            "class D { public: int ok() { return 1; } };"
            "class A { public: D* d; int f() { return d->nope(); } };"
        )


def test_override_must_match_signature():
    with pytest.raises(TypeCheckError):
        parse(
            "class B { public: int f(int x) { return x; } };"
            "class K : public B { public: bool f(int x) { return true; } };"
        )


# --- printer round-trip ---------------------------------------------------

def test_round_trip_corpus_files(corpus_dir):
    for path in sorted(corpus_dir.glob("*.cut")):
        unit = parse_source(path.read_text(), path=str(path))
        again = parse_source(print_unit(unit), path=str(path))
        assert again.decls == unit.decls, path.name


def test_round_trip_golden(golden_dir):
    text = (golden_dir / "class_a.cut").read_text()
    unit = parse_source(text, path="golden")
    assert parse_source(print_unit(unit), path="golden").decls == unit.decls


@given(gen_method())
def test_print_parse_round_trip(method):
    """Printing a well-typed method and parsing it back gives the same tree,
    and so does a second print/parse of the whole unit."""
    unit = parse_source(program_text(method), path="<gen>")
    assert unit.class_named("G").method_named("m") == method
    assert parse_source(print_unit(unit), path="<gen>").decls == unit.decls
