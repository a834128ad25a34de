"""Front-end behavior: lexing, parsing, static checks, printing."""

import gc
import math
import time

import pytest
from hypothesis import example, given, strategies as st

from gen_programs import gen_method, program_text
import ultgen.cutlang.parser as parser_module
from ultgen.cutlang.lexer import KEYWORDS, PUNCT, tokenize
from ultgen.cutlang.nodes import (
    INT_MAX,
    INT_MIN,
    ClassDecl,
    FieldRef,
    IntLit,
    ParamRef,
    RefType,
    SourceUnit,
    Unary,
    walk,
)
from ultgen.cutlang.parser import parse_source
from ultgen.cutlang.printer import print_unit
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
    kinds = [(t[0], t[1]) for t in toks if t[0] != "eof"]
    assert kinds == [
        ("keyword", "int"),
        ("ident", "x"),
        ("punct", ";"),
        ("keyword", "bool"),
        ("keyword", "float"),
    ]


def test_tokenize_reports_position():
    toks = tokenize("class A {\n  int x;\n};")
    x = [t for t in toks if t[1] == "x"][0]
    assert (x[3], x[4]) == (2, 7)


def test_unterminated_block_comment_rejected():
    with pytest.raises(ParseError):
        tokenize("int x; /* never closed")


def test_eof_column_after_trailing_comment():
    source = "class A { int f() { return 1; } // tail"
    assert tokenize(source)[-1][4] == len(source) + 1
    with pytest.raises(ParseError) as info:
        parse_source(source, path="t.cut")
    assert str(info.value) == (
        "t.cut:1:40: expected a member declaration, found end of input"
    )
    assert tokenize("int x;\n#pragma once")[-1][4] == 13


def test_trailing_blanks_take_linear_time():
    source = "int x;" + " \t" * 10_000
    start = time.perf_counter()
    eof = tokenize(source)[-1]
    assert time.perf_counter() - start < 1.0
    assert eof[2:5] == (len(source), 1, len(source) + 1)


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
    )
    .filter(lambda text: math.isfinite(float(text)))  # "1e999" is an error
    .map(lambda text: ("float", text)),
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


# A fault starts where a token could: the text to insert, the offset of
# the error within it and the message. It comes after blanks or line
# breaks that the lexer skips before it reports the error.
_FAULT_TEXT = st.one_of(
    st.sampled_from(["\u00e9", "\u8fd8", "\u0663"]).map(
        lambda ch: (ch, 0, f"unexpected character {ch!r}")
    ),
    st.sampled_from([" ", "\t", "  "]).map(
        lambda blanks: (blanks + "#x", len(blanks), "unexpected character '#'")
    ),
    st.sampled_from([("1a", "'1a'"), ("1.2.3", "'1.2.'"), ("7_", "'7_'")]).map(
        lambda pair: (pair[0], 0, f"malformed number {pair[1]}")
    ),
    st.just(("/*", 0, "unterminated block comment")),
)


def _behind(pair):
    blanks, (text, offset, message) = pair
    return blanks + text, len(blanks) + offset, message


_FAULT = st.tuples(st.sampled_from(["", " ", "\t", "\n", "\n\n  "]), _FAULT_TEXT).map(
    _behind
)


@given(
    drawn=st.lists(st.tuples(_TOKEN_TEXT, _SEPARATOR), max_size=25),
    lead=st.sampled_from(["", "#lead\n", "\n ", "/* x */"]),
    trailer=_TRAILER,
    fault=st.none() | st.tuples(st.integers(min_value=0), _FAULT),
)
@example(
    drawn=[(("ident", "x"), " ")] * 2,
    lead="",
    trailer="",
    fault=(1, ("\n /*", 2, "unterminated block comment")),
)
@example(
    drawn=[(("ident", "x"), "\n")] * 2,
    lead="",
    trailer="",
    fault=(1, ("\n\t\u00e9", 2, "unexpected character '\u00e9'")),
)
def test_tokenize_positions_match_source(drawn, lead, trailer, fault):
    parts = [lead]
    for i, ((_, text), separator) in enumerate(drawn):
        parts.append(text)
        parts.append(separator if i + 1 < len(drawn) else trailer)
    if fault is not None:
        # After the lead or after a separator between two tokens, so that
        # everything before the fault lexes and the fault is the first error.
        index, (text, offset, message) = fault
        k = 1 + 2 * (index % len(drawn)) if drawn else 1
        head, rest = "".join(parts[:k]), "".join(parts[k:])
        if text.endswith("/*"):
            rest = rest.replace("*/", "")  # keep the comment unterminated
        source = head + text + rest
        at = len(head) + offset
        with pytest.raises(ParseError) as info:
            tokenize(source, "t.cut")
        line = source.count("\n", 0, at) + 1
        column = at - (source.rfind("\n", 0, at) + 1) + 1
        assert str(info.value) == f"t.cut:{line}:{column}: {message}"
        return
    source = "".join(parts)
    tokens = tokenize(source)
    expected = [token for token, _ in drawn] + [("eof", "")]
    assert [(t[0], t[1]) for t in tokens] == expected
    for _, text, pos, line, column, _ in tokens:
        assert source[pos : pos + len(text)] == text
        assert line == source.count("\n", 0, pos) + 1
        assert column == pos - (source.rfind("\n", 0, pos) + 1) + 1
    assert tokens[-1][2] == len(source)


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
    lo, hi, line, _ = m.span
    assert line == 3
    assert src[lo:hi].startswith("int f")


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

def test_corpus_token_and_node_counts(corpus_dir, corpus_unit):
    """The counts perfbench reports as cutlang.lexer.tokens and
    cutlang.parser.nodes, on the corpus joined as `run` joins it."""
    texts = [p.read_text() for p in sorted(corpus_dir.glob("*.cut"))]
    assert len(tokenize("\n".join(texts))) == 1790
    assert sum(1 for _ in walk(corpus_unit)) == 906


def test_parse_source_lexes_once_through_the_module_name(corpus_dir, monkeypatch):
    """perfbench times the lexer by wrapping `parser.tokenize` and counts
    `len()` of its result as the token count."""
    text = "\n".join(p.read_text() for p in sorted(corpus_dir.glob("*.cut")))
    results = []

    def counted(*args):
        results.append(tokenize(*args))
        return results[-1]

    monkeypatch.setattr(parser_module, "tokenize", counted)
    parse_source(text, path="<corpus>")
    assert [len(r) for r in results] == [1790]


def test_tokens_and_spans_are_not_tracked_by_the_garbage_collector(corpus_dir):
    """Tokens and spans are exact tuples of atoms, which a collection stops
    tracking, so a large tree does not make every later collection slower."""
    text = "\n".join(p.read_text() for p in sorted(corpus_dir.glob("*.cut")))
    tokens = tokenize(text)
    unit = parse_source(text)
    gc.collect()
    assert [t for t in tokens if gc.is_tracked(t)] == []
    spans = [node.span for node in walk(unit) if hasattr(node, "span")]
    assert len(spans) == 906 - 1  # every node but the unit
    assert [s for s in spans if gc.is_tracked(s)] == []


def test_round_trip_corpus_files(corpus_dir):
    for path in sorted(corpus_dir.glob("*.cut")):
        unit = parse_source(path.read_text(), path=str(path))
        again = parse_source(print_unit(unit), path=str(path))
        assert again.decls == unit.decls, path.name


def test_round_trip_golden(golden_dir):
    text = (golden_dir / "class_a.cut").read_text()
    unit = parse_source(text, path="golden")
    assert parse_source(print_unit(unit), path="golden").decls == unit.decls


def test_round_trip_keeps_access_labels():
    """A label is printed where a member's access differs from the one
    before it; the class body opens public."""
    text = """class B {
public:
    int get() { return 1; }
};

class A : public B {
private:
    int n;
    B* dep;
protected:
    bool on;
public:
    float level;
private:
    int twice(int x) { return x + x; }
protected:
    void reset() { n = 0; }
public:
    int f(int x) { return x; }
};
"""
    unit = parse_source(text)
    printed = print_unit(unit)
    assert parse_source(printed).decls == unit.decls
    assert [line for line in printed.splitlines() if line.endswith(":")] == [
        "private:", "protected:", "public:", "private:", "protected:", "public:",
    ]


@given(gen_method())
def test_print_parse_round_trip(method):
    """Printing a well-typed method and parsing it back gives the same tree,
    and so does a second print/parse of the whole unit."""
    unit = parse_source(program_text(method), path="<gen>")
    assert unit.class_named("G").all_methods["m"] == method
    assert parse_source(print_unit(unit), path="<gen>").decls == unit.decls
