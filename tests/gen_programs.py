"""Hypothesis strategies for random well-typed CUT-lang methods and cases.

Random methods of one class G: params a, b (int), p (bool) and x (float),
fields n (int), on (bool, private) and level (float, protected), and a
dependency with int, bool, float and void methods. Extreme literals make int64 wrap and float
overflow likely, and `/` meets zero divisors from the cases. While
conditions are random, so loops that never end run into a fuel limit drawn
small. `gen_program` builds half its methods around a counting loop
instead (`gen_counting_method`), with fuel up to 10,000. Programs are
printed and re-parsed, so the evaluators see checker-typed trees with real
spans. `file_text` lays classes like G out in one source file, and
`SHAPE_NEAR_MISSES` and `gen_siblings` give methods one feature of shape
(or one value) apart.
"""

import copy
import math
import operator
import random

from hypothesis import strategies as st

from oracle_eval import wrap64
from ultgen.cases import TestCase
from ultgen.cutlang.nodes import (
    INT_MAX,
    INT_MIN,
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
    walk,
)
from ultgen.cutlang.printer import print_method

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


_DEP_TEXT = """
class Dep {
public:
    int get() { return 0; }
    int num() { return 0; }
    bool ok() { return true; }
    float temp() { return 0.0; }
    void nudge() {}
};
"""

_CLASS_HEAD = """
class G {
public:
    Dep* d;
    int n;
private:
    bool on;
protected:
    float level;
public:
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
    return file_text({"G": [print_method(method, indent=1) + "\n"]})


def file_text(classes, dep="Dep"):
    """A source file: class Dep named `dep`, then per entry of `classes` a
    class like G, named by its key, holding the method texts of its value."""
    text = _DEP_TEXT.replace("Dep", dep)
    for name, methods in classes.items():
        head = _CLASS_HEAD.replace("class G", f"class {name}").replace("Dep*", f"{dep}*")
        text += head + "".join(methods) + "};\n"
    return text


def method_text(name, body):
    """Method `name` of a class like G, with G.m's parameters, over `body`."""
    return f"    int {name}(int a, int b, bool p, float x) {{ {body} }}\n"


# Pairs of method bodies one shape feature apart (interp.CaseEvaluator._walk
# keeps each apart), each ending in a branch that the difference moves.
SHAPE_NEAR_MISSES = {
    "while-operator": (
        "while (a < 3) { a = a + 1; } if (a == 3) { return 1; } return 0;",
        "while (a <= 3) { a = a + 1; } if (a == 3) { return 1; } return 0;",
    ),
    "plus-sign": (
        "n = a + 5; if (n < 0) { return 1; } return 0;",
        "n = a + -5; if (n < 0) { return 1; } return 0;",
    ),
    "mock-keys": (
        "if (d->get() > 0 && d->num() < d->get()) { return 1; } return 0;",
        "if (d->get() > 0 && d->num() < d->num()) { return 1; } return 0;",
    ),
    "locals": (
        "n = a - b; if (n > 0) { return 1; } return 0;",
        "n = a - a; if (n > 0) { return 1; } return 0;",
    ),
    "void-call": (
        "d->nudge(); if (a > 0) { return 1; } return 0;",
        "d->get(); if (a > 0) { return 1; } return 0;",
    ),
    "param-field": (
        "if (a > 0) { return 1; } return 0;",
        "if (n > 0) { return 1; } return 0;",
    ),
    "int-float": (
        "if (a * a > a) { return 1; } return 0;",
        "if (x * x > x) { return 1; } return 0;",
    ),
    "counting-loop": (
        "while (a > 0) { a = a - 1; n = n + b; } if (n > 100) { return 1; } return 0;",
        "while (a > 0) { a = a - 1; n = n + a; } if (n > 100) { return 1; } return 0;",
    ),
}


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


# Counting loops (interp._Emitter.fast_forward) and near misses. The int
# locals a, b and n count; each starts at a case value or at a literal of
# _MARKS, and conditions compare them with _MARKS too, so loops run out of
# fuel from the extremes, end after a few passes or wrap on the way.
_COUNTERS = ["a", "b", "n"]
_MARKS = [INT_MIN, INT_MIN + 2, -1, 0, 3, 20, INT_MAX - 2, INT_MAX]


def _counter(name):
    return FieldRef(name) if name == "n" else ParamRef(name)


# A step: 0, +-1, a large literal, a mock call or a local (which the body
# may also assign: a near miss).
_gen_step = st.one_of(
    st.sampled_from([0, 1, -1, 2, -3]).map(IntLit),
    st.sampled_from([1 << 62, INT_MAX, INT_MIN]).map(IntLit),
    st.builds(_dep_call, st.just("get")),
    st.sampled_from(_COUNTERS).map(_counter),
)

_gen_operand = st.one_of(
    st.sampled_from(_MARKS).map(IntLit),
    st.sampled_from(_COUNTERS).map(_counter),
    st.builds(_dep_call, st.just("get")),
)

MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}

_HOLDS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": operator.eq, "!=": operator.ne,
}

_BOOL_LEAVES = [ParamRef("p"), FieldRef("on"), _dep_call("ok"), BoolLit(True)]


def _step_assign(name, form, step):
    """`x = x + e`, `x = x - e` or `x = e + x`, as `form` reads, for counter
    `name` and step `e`."""
    x = _counter(name)
    if form == "e + x":
        return Assign(x, Binary("+", step, x))
    return Assign(x, Binary(form[2], x, step))


# Statements that make a loop no counting loop.
_NEAR_MISSES = [
    Assign(ParamRef("a"), Binary("-", ParamRef("a"), IntLit(1))),  # a local assigned twice
    Assign(ParamRef("b"), Binary("/", ParamRef("b"), IntLit(2))),  # an int `/`
    Assign(ParamRef("b"), Binary("*", ParamRef("b"), IntLit(-1))),  # an int `*`
    Assign(ParamRef("x"), Binary("+", ParamRef("x"), FloatLit(1.0))),  # a float local
    If(ParamRef("p"), Block([Assign(FieldRef("n"), IntLit(0))]), None),  # an `if`
    Assert(Binary("!=", ParamRef("a"), IntLit(7))),  # an `assert`
    Assign(ParamRef("a"), Binary("-", IntLit(5), ParamRef("a"))),  # x = e - x
]


@st.composite
def gen_counting_method(draw):
    """One method G.m around a counting `while` loop or a near miss: start
    values, the loop, then a return. Most loops whose body counts open
    their condition with a test of the first counter that turns after a few
    passes (or never, for some operators and steps)."""
    names = draw(st.lists(st.sampled_from(_COUNTERS), max_size=3, unique=True))
    starts = {name: draw(st.sampled_from(_MARKS)) for name in names if draw(st.integers(0, 3))}
    steps = {name: draw(_gen_step) for name in names}
    forms = {name: draw(st.sampled_from(["x + e", "x - e", "e + x"])) for name in names}
    ops = st.sampled_from(_CMP_OPS)
    counters = st.sampled_from(names or _COUNTERS).map(_counter)
    condition = st.one_of(
        st.builds(Binary, ops, counters, _gen_operand),
        st.builds(Binary, ops, _gen_operand, _gen_operand),
        st.sampled_from(_BOOL_LEAVES),
    )
    atoms = draw(st.lists(condition, min_size=1, max_size=2))
    if names and draw(st.integers(0, 3)):
        x = names[0]
        start, step = draw(st.sampled_from(_MARKS)), draw(st.sampled_from([1, -1, 2, -3]))
        starts[x], steps[x], forms[x] = start, IntLit(step), "x + e"
        j = draw(st.integers(0, 30) | st.integers(31, 10_000))
        turn = wrap64(start + step * j)
        # mostly an operator that holds from the start until the turn (or
        # for its first 64 passes); across a wrap only `!=` does, and such
        # a loop may run out of fuel on the far side
        seen = [wrap64(start + step * i) for i in range(min(j, 64))]
        holding = [op for op in _CMP_OPS if all(_HOLDS[op](v, turn) for v in seen)]
        op = draw(st.sampled_from(holding) | ops)
        if draw(st.booleans()):
            atoms[0] = Binary(op, _counter(x), IntLit(turn))
        else:
            atoms[0] = Binary(MIRRORED[op], IntLit(turn), _counter(x))
    body = [_step_assign(name, forms[name], steps[name]) for name in names]
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        at = draw(st.integers(min_value=0, max_value=len(body)))
        body.insert(at, draw(st.sampled_from(_NEAR_MISSES)))
    cond = atoms[0]
    for atom in atoms[1:]:
        cond = Binary(draw(st.sampled_from(["&&", "&&", "&&", "||"])), cond, atom)
    stmts = [
        *(_gen_assign(name, IntLit(value)) for name, value in starts.items()),
        While(cond, Block(body)),
        Return(draw(_gen_int)),
    ]
    params = [Param(name, t) for name, t in _GEN_PARAMS.items()]
    return MethodDecl("m", params, "int", Block(stmts))


_ORDERINGS = ["<", "<=", ">", ">="]


def _mutable(node):
    """Whether `_mutate` can change `node`."""
    return (
        (isinstance(node, Binary) and node.op in _CMP_OPS)
        or isinstance(node, IntLit)
        or (isinstance(node, ParamRef) and node.name in ("a", "b"))
        or (isinstance(node, CallExpr) and node.method == "get")
    )


def _mutate(node, draw):
    """Change one feature of `node` and keep the method well typed: a
    comparison's operator, an int literal's sign or magnitude, parameter a
    for b or back, a `get` call for `num`."""
    if isinstance(node, Binary):
        group = ["==", "!="] if node.op in ("==", "!=") else _ORDERINGS
        node.op = draw(st.sampled_from([op for op in group if op != node.op]))
    elif isinstance(node, IntLit):
        node.value = draw(st.sampled_from([-node.value - 1, node.value // 2]))
    elif isinstance(node, ParamRef):
        node.name = "b" if node.name == "a" else "a"
    else:
        node.method = "num"


@st.composite
def gen_siblings(draw):
    """(method, sibling): a method as `gen_program` draws them, counting
    loops included, and a copy of it with one node changed (`_mutate`),
    which may or may not change its shape."""
    method = draw(gen_counting_method() if draw(st.booleans()) else gen_method())
    sibling = copy.deepcopy(method)
    nodes = [node for node in walk(sibling.body) if _mutable(node)]
    if nodes:
        _mutate(draw(st.sampled_from(nodes)), draw)
    return method, sibling


@st.composite
def gen_program(draw):
    """(source text, fuel, cases) for one generated method G.m: a random
    method, or one around a counting loop, whose fuel may reach the default
    of 10,000."""
    if draw(st.booleans()):
        method = draw(gen_counting_method())
        fuel = draw(st.integers(1, 40) | st.integers(100, 10_000))
    else:
        method = draw(gen_method())
        fuel = draw(st.one_of(st.integers(min_value=1, max_value=20), st.just(300)))
    cases = draw(st.lists(_gen_case(), min_size=1, max_size=3))
    return program_text(method), fuel, cases


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
    return file_text({"G": ["\n".join(body) + "\n"]})
