"""Equality, hashing and immutability of the AST nodes and records.

Nodes compare by class and structure: spans and checker-derived types are
ignored, everything else counts. They are mutable and so unhashable.
Records are immutable tuples: equal records hash equal, to the hash of
their field tuple, so sets and dicts of them keep their order.
"""

import pytest

from ultgen.coverage import MethodCoverage
from ultgen.cutlang import (
    Binary,
    Block,
    BoolLit,
    FieldRef,
    IntLit,
    ParamRef,
    RefType,
    Return,
    parse_source,
)
from ultgen.interp import Event
from ultgen.scaffold import Anchor

SOURCE = """class A {
public:
    int f(int x) {
        if (x > 1 && x != 7) { return x + 2; }
        return 0;
    }
};
"""

RESHAPED = """class A
{
  public:
    int f(int x)
    {
        if (x > 1
            && x != 7)
        {
            return x + 2;
        }
        return 0;
    }
};
"""


def _method(source):
    return parse_source(source).classes[0].methods[0]


def test_nodes_differing_only_in_span_compare_equal():
    a, b = _method(SOURCE), _method(RESHAPED)
    assert a.span != b.span
    assert a.body.stmts[0].cond.span != b.body.stmts[0].cond.span
    assert a == b


def test_nodes_differing_only_in_type_compare_equal():
    assert IntLit(1, (0, 1, 1, 1), "int") == IntLit(1)
    assert ParamRef("x", type_="int") == ParamRef("x", type_="float")
    assert FieldRef("r", type_=RefType("B")) == FieldRef("r")


@pytest.mark.parametrize("old, new", [
    ("x + 2", "x + 3"),  # literal
    ("x > 1", "x >= 1"),  # operator
    ("&&", "||"),  # logical operator
    ("int f(", "int g("),  # method name
    ("x", "y"),  # parameter name, and every reference to it
    ("x > 1 && x != 7", "x != 7 && x > 1"),  # child order
    ("return 0;", "return 0; return 1;"),  # one more statement
])
def test_a_structural_change_compares_unequal(old, new):
    assert _method(SOURCE.replace(old, new)) != _method(SOURCE)


def test_node_class_counts_in_equality():
    assert IntLit(1) != BoolLit(True)
    assert ParamRef("x") != FieldRef("x")
    assert Block([Return(IntLit(1)), Return(IntLit(2))]) != Block(
        [Return(IntLit(2)), Return(IntLit(1))]
    )


def test_nodes_are_unhashable():
    method = _method(SOURCE)
    for node in (method, method.body, IntLit(1), Binary("+", IntLit(1), IntLit(2))):
        with pytest.raises(TypeError):
            hash(node)


def test_node_repr_names_fields_but_not_tables():
    assert repr(IntLit(1)) == (
        "IntLit(value=1, span=(0, 0, 0, 0), type_=None)"
    )
    method = _method(SOURCE)
    assert method.call_types == {}
    assert repr(method).startswith("MethodDecl(name='f', params=[Param(name='x', ")
    assert "call_types" not in repr(method)
    assert "all_fields" not in repr(parse_source(SOURCE).classes[0])


def _coverage():
    return MethodCoverage(
        method="A.f",
        conditions_total=2,
        decisions_total=1,
        pairs_covered=frozenset({("A.f:D1", True)}),
        uncovered=frozenset({("A.f:D1", False)}),
        has_passing_case=True,
    )


@pytest.mark.parametrize("record, field", [
    (Event("AssertFailure", (1, 2, 3, 4)), "kind"),
    (Event("FuelExhausted"), "site"),
    (_coverage(), "pairs_covered"),
    (Anchor("a.h", 3, "test"), "line"),
])
def test_record_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.unknown = 1


def test_equal_records_hash_equal():
    site = (1, 2, 3, 4)
    cov = _coverage()
    cases = [
        (Event("DivByZero", site), Event("DivByZero", site), ("DivByZero", site)),
        (cov, _coverage(), (
            "A.f", 2, 1, cov.pairs_covered, cov.uncovered, True, None,
        )),
        (Anchor("a.h", 3, "test"), Anchor(file="a.h", line=3, kind="test"),
         ("a.h", 3, "test")),
        (RefType("B"), RefType("B"), ("B",)),
    ]
    for a, b, fields in cases:
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash(fields)
    assert len({Event("DivByZero", site), Event("DivByZero", site)}) == 1
    assert cov.denominator == 6
