"""Hypothesis strategies for random well-typed CUT-lang methods and cases.

Random methods of one class G: params a, b (int), p (bool) and x (float),
fields n (int), on (bool) and level (float), and a dependency with int,
bool, float and void methods. Extreme literals make int64 wrap and float
overflow likely, and `/` meets zero divisors from the cases. While
conditions are random, so loops that never end run into a fuel limit drawn
small. Programs are printed and re-parsed, so the evaluators see
checker-typed trees with real spans.
"""

import math
import random

from hypothesis import strategies as st

from ultgen.cases import TestCase
from ultgen.cutlang import INT_MAX, INT_MIN, print_method
from ultgen.cutlang.nodes import (
    Assert,
    Assign,
    Binary,
    Block,
    BoolLit,
    CallExpr,
    ExprStmt,
    FieldRef,
    FloatLit,
    If,
    IntLit,
    MethodDecl,
    Param,
    ParamRef,
    Return,
    Unary,
    While,
)

ints = st.one_of(
    st.integers(min_value=INT_MIN, max_value=INT_MAX),
    st.sampled_from([0, 1, -1, 2, -2, INT_MIN, INT_MAX]),
)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf]),
)


def value_for(type_name, draw):
    if type_name == "int":
        return draw(ints)
    if type_name == "float":
        return draw(floats)
    return draw(st.booleans())


_GEN_HEAD = """
class Dep {
public:
    int get() { return 0; }
    bool ok() { return true; }
    float temp() { return 0.0; }
    void nudge() {}
};

class G {
public:
    Dep* d;
    int n;
    bool on;
    float level;
"""

_GEN_PARAMS = {"a": "int", "b": "int", "p": "bool", "x": "float"}

_CMP_OPS = ["==", "!=", "<", "<=", ">", ">="]


def _dep_call(method):
    return CallExpr(FieldRef("d"), method)


def _gen_assign(name, value):
    target = FieldRef(name) if name in ("n", "on", "level") else ParamRef(name)
    return Assign(target, value)


_gen_int = st.recursive(
    st.one_of(
        st.integers(min_value=-9, max_value=9).map(IntLit),
        st.sampled_from([INT_MAX, INT_MIN, 1 << 62, 3037000500]).map(IntLit),
        st.sampled_from(["a", "b"]).map(ParamRef),
        st.builds(FieldRef, st.just("n")),
        st.builds(_dep_call, st.just("get")),
    ),
    lambda kids: st.builds(Binary, st.sampled_from(["+", "-", "*", "/"]), kids, kids),
    max_leaves=4,
)

_gen_float = st.recursive(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False, width=64).map(FloatLit),
        st.sampled_from([0.0, -0.0, 1e308]).map(FloatLit),
        st.builds(ParamRef, st.just("x")),
        st.builds(FieldRef, st.just("level")),
        st.builds(_dep_call, st.just("temp")),
    ),
    lambda kids: st.builds(Binary, st.sampled_from(["+", "-", "*", "/"]), kids, kids),
    max_leaves=3,
)

_gen_bool = st.recursive(
    st.one_of(
        st.booleans().map(BoolLit),
        st.builds(ParamRef, st.just("p")),
        st.builds(FieldRef, st.just("on")),
        st.builds(_dep_call, st.just("ok")),
        st.builds(Binary, st.sampled_from(_CMP_OPS), _gen_int, _gen_int),
        st.builds(Binary, st.sampled_from(_CMP_OPS), _gen_float, _gen_float),
    ),
    lambda kids: st.one_of(
        st.builds(Binary, st.sampled_from(["&&", "||", "==", "!="]), kids, kids),
        st.builds(Unary, st.just("!"), kids),
    ),
    max_leaves=6,
)

_gen_stmt = st.deferred(
    lambda: st.one_of(
        st.builds(_gen_assign, st.sampled_from(["a", "b", "n"]), _gen_int),
        st.builds(_gen_assign, st.sampled_from(["p", "on"]), _gen_bool),
        st.builds(_gen_assign, st.sampled_from(["x", "level"]), _gen_float),
        st.builds(If, _gen_bool, _gen_block, st.none() | _gen_block),
        st.builds(While, _gen_bool, _gen_block),
        st.builds(Assert, _gen_bool),
        st.builds(ExprStmt, st.sampled_from(["nudge", "get"]).map(_dep_call)),
        st.builds(Return, _gen_int),
    )
)

_gen_block = st.lists(_gen_stmt, max_size=3).map(Block)


@st.composite
def gen_method(draw):
    """One method G.m: one to four statements, then a return."""
    stmts = draw(st.lists(_gen_stmt, min_size=1, max_size=4))
    stmts.append(Return(draw(_gen_int)))
    params = [Param(name, t) for name, t in _GEN_PARAMS.items()]
    return MethodDecl("m", params, "int", Block(stmts))


def program_text(method):
    """The source of class G (and Dep) holding `method`."""
    return _GEN_HEAD + print_method(method, indent=1) + "\n};\n"


@st.composite
def _gen_case(draw):
    params = {
        "a": draw(ints), "b": draw(ints), "p": draw(st.booleans()), "x": draw(floats),
    }
    fields = {
        name: value_for(t, draw)
        for name, t in (("n", "int"), ("on", "bool"), ("level", "float"))
        if draw(st.booleans())
    }
    mocks = {}
    for method, t in (("get", "int"), ("ok", "bool"), ("temp", "float")):
        if draw(st.integers(min_value=0, max_value=3)):  # 1 in 4 unmocked
            n = draw(st.integers(min_value=1, max_value=3))
            mocks[("d", method)] = [value_for(t, draw) for _ in range(n)]
    return TestCase(
        id="gen",
        target=("G", "m"),
        param_values=params,
        field_values=fields,
        mock_plan=mocks,
        origin="Configured",
    )


@st.composite
def gen_program(draw):
    """(source text, fuel, cases) for one generated method G.m."""
    text = program_text(draw(gen_method()))
    fuel = draw(st.one_of(st.integers(min_value=1, max_value=20), st.just(300)))
    cases = draw(st.lists(_gen_case(), min_size=1, max_size=3))
    return text, fuel, cases


_ATOMS = [
    lambda r: f"a {r.choice(_CMP_OPS)} {r.randint(-3, 3)}",
    lambda r: f"b {r.choice(_CMP_OPS)} {r.randint(-3, 3)}",
    lambda r: "p",
    lambda r: f"x {r.choice(_CMP_OPS)} {r.choice(['0.5', '-1.0', '2.0'])}",
    lambda r: f"d->get() {r.choice(_CMP_OPS)} {r.randint(-3, 3)}",
    lambda r: "d->ok()",
    lambda r: f"d->temp() < {r.choice(['0.5', '-1.0'])}",
    lambda r: f"n == {r.randint(-3, 3)}",
]


def many_conditions_text(seed):
    """Class G with a method m drawn from `seed`: 12 ifs, then 4 more
    inside a `while` of at most 20 passes. Each if has three conditions
    over the parameters, the mocks and a field, so the method has 50
    conditions and 134 outcome pairs."""
    r = random.Random(seed)

    def cond():
        atoms = [r.choice(_ATOMS)(r) for _ in range(3)]
        atoms = [f"!({atom})" if r.random() < 0.2 else atom for atom in atoms]
        ops = [r.choice(["&&", "||"]) for _ in range(2)]
        return f"{atoms[0]} {ops[0]} {atoms[1]} {ops[1]} {atoms[2]}"

    loop = " ".join(f"if ({cond()}) {{ n = n - 1; }}" for _ in range(4))
    body = [
        "    int m(int a, int b, bool p, float x) {",
        *(f"        if ({cond()}) {{ n = n + {i + 1}; }}" for i in range(12)),
        f"        while (a > 0 && a < 20) {{ a = a - 1; {loop} }}",
        "        return n;",
        "    }",
    ]
    return _GEN_HEAD + "\n".join(body) + "\n};\n"
