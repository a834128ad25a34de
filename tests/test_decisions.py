"""Decision/condition extraction and classification."""

import jsonschema
import pytest
from hypothesis import given, strategies as st

from oracle_eval import atoms_of
from ultgen.cutlang import Binary, BoolLit, ParamRef, Unary, parse_source
from ultgen.decisions import (
    CALL_DRIVEN,
    FIELD_DRIVEN,
    MIXED,
    PARAMETER_DRIVEN,
    classify_atom,
    decisions_table,
    extract_decisions,
    split_conditions,
)
from ultgen.schemas import DECISIONS_SCHEMA


def method_of(src: str, cls: str = "A", name: str = "f"):
    unit = parse_source(src, path="<test>")
    return unit.class_named(cls).all_methods[name]


def decisions_of(src: str, cls: str = "A", name: str = "f"):
    return extract_decisions(method_of(src, cls, name), cls)


SRC_NESTED = """
class D { public: int get() { return 0; } };
class A {
public:
    D* d;
    int total;
    int f(int x, bool go) {
        if (x > 0 && go) {
            while (x > 1) {
                x = x / 2;
            }
        } else {
            assert(x == 0 || d->get() < total);
        }
        return x;
    }
};
"""


def test_ids_follow_statement_preorder():
    decs = decisions_of(SRC_NESTED)
    assert [d.id for d in decs] == ["A.f:D1", "A.f:D2", "A.f:D3"]
    assert [d.kind for d in decs] == ["if", "while", "assert"]


def test_condition_ids_and_count():
    decs = decisions_of(SRC_NESTED)
    assert [c.id for c in decs[0].conditions] == ["A.f:D1.c1", "A.f:D1.c2"]
    assert len(decs[1].conditions) == 1
    assert len(decs[2].conditions) == 2


def test_split_single_comparison_is_whole_expr():
    decs = decisions_of(
        "class A { public: int f(int x) { if (x > 3) { return 1; } return 0; } };"
    )
    (d,) = decs
    assert len(d.conditions) == 1
    assert d.conditions[0].atom is d.expr


def test_split_descends_through_not():
    atoms = split_conditions(Unary("!", Unary("!", ParamRef("p"))))
    assert atoms == [ParamRef("p")]


def test_split_descends_into_nonlogical_binary_containing_logic():
    # a == !b is one comparison, but the logic inside forces a split
    expr = Binary("==", ParamRef("a"), Unary("!", ParamRef("b")))
    atoms = split_conditions(expr)
    assert atoms == [ParamRef("a"), ParamRef("b")]


def test_drivers():
    decs = decisions_of(SRC_NESTED)
    c1, c2 = decs[0].conditions
    assert c1.driver == PARAMETER_DRIVEN
    assert c2.driver == PARAMETER_DRIVEN
    a1, a2 = decs[2].conditions
    assert a1.driver == PARAMETER_DRIVEN
    # fields do not promote: call + field reads stay call-driven
    assert a2.driver == CALL_DRIVEN
    assert a2.referenced_calls == frozenset({("d", "get")})


def test_mixed_driver_needs_param_and_call():
    decs = decisions_of(
        "class D { public: int get() { return 0; } };"
        "class A { public: D* d;"
        " int f(int x) { if (x < d->get()) { return 1; } return 0; } };"
    )
    assert decs[0].conditions[0].driver == MIXED


def test_field_driver():
    decs = decisions_of(
        "class A { public: int n;"
        " int f() { if (n > 0) { return 1; } return 0; } };"
    )
    assert decs[0].conditions[0].driver == FIELD_DRIVEN


def test_call_driver():
    decs = decisions_of(
        "class D { public: bool on() { return true; } };"
        "class A { public: D* d;"
        " int f() { if (d->on()) { return 1; } return 0; } };"
    )
    assert decs[0].conditions[0].driver == CALL_DRIVEN


def test_compared_literals_keep_type_tags():
    decs = decisions_of(
        "class A { public: int f(int x, float y) {"
        " if (x == 1) { return 1; }"
        " if (y == 1.0) { return 2; }"
        " return 0; } };"
    )
    assert decs[0].conditions[0].compared_literals == frozenset({("int", 1)})
    assert decs[1].conditions[0].compared_literals == frozenset({("float", 1.0)})


def test_call_sites_preorder_with_duplicates():
    m = method_of(
        "class D { public: int get() { return 0; } int put() { return 0; } };"
        "class A { public: D* d;"
        " int f() { if (d->get() > d->put()) { return d->get(); } return 0; } };"
    )
    assert list(m.call_types) == [("d", "get"), ("d", "put")]


def test_table_matches_schema():
    import json

    decs = decisions_of(SRC_NESTED)
    table = decisions_table(decs)
    payload = {
        "class": "A",
        "methods": [{"method": "A.f", "decisions": table}],
    }
    # validate the wire form; in memory the literal pairs are tuples
    jsonschema.validate(json.loads(json.dumps(payload)), DECISIONS_SCHEMA)


def test_no_decisions_for_straight_line_method():
    assert decisions_of(
        "class A { public: int f(int x) { return x + 1; } };"
    ) == []


_bool_exprs = st.recursive(
    st.one_of(
        st.booleans().map(BoolLit),
        st.builds(Binary, st.just(">"), st.sampled_from(["p", "q"]).map(ParamRef),
                  st.sampled_from(["p", "q"]).map(ParamRef)),
    ),
    lambda kids: st.one_of(
        st.builds(Binary, st.sampled_from(["&&", "||", "==", "!="]), kids, kids),
        st.builds(Unary, st.just("!"), kids),
    ),
    max_leaves=8,
)


@given(_bool_exprs)
def test_split_yields_logic_free_atoms(expr):
    """The same atom objects, in the same order, as the oracle's split;
    `==` and `!=` over bool subtrees split where an operand holds logic."""
    atoms = split_conditions(expr)
    assert atoms, "every decision has at least one condition"
    assert [id(a) for a in atoms] == [id(a) for a in atoms_of(expr)]
    for atom in atoms:
        assert not isinstance(atom, Unary)
