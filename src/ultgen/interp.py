"""Deterministic big-step interpreter for CUT-lang method bodies.

Runs one test case against one method: parameters and scalar fields come
from the case, dependency calls return scripted mock values, and every
evaluated decision/condition contributes an outcome pair. Crashes (failed
assert, integer division by zero, unscripted call, fuel exhaustion)
terminate the run and are data on the trace, not Python errors.

A CaseEvaluator runs its method on one of two compiled tiers. Everything a
node's behaviour depends on is resolved while compiling, in both: the
`(id, True)`/`(id, False)` outcome pairs a decision or condition records,
the operator, whether arithmetic is on int or float, void call sites and
the crash event (kind and source span) of each assert, division and call
site.
  - Cold tier: on its first run the evaluator compiles the body into nested
    Python closures, one per AST node. This is cheap to build, so methods
    that run a few short cases pay little.
  - Generated tier: once the method's cases have taken HOT_STEPS steps in
    total, the evaluator writes the body as the source of one Python
    function, compiles it, and runs every later case through it. A case
    that reaches HOT_STEPS midway stops there and runs again from the start
    on the new tier, so no method runs more than HOT_STEPS steps cold. Variables,
    mock cursors and fuel are its locals, and no step makes a call to
    dispatch a node. The source holds no text from the input: every value
    is an argument of the function that builds it, so methods of the same
    shape share one source, and it is compiled once per process. An
    outcome pair recorded inside a `while` is added once per run, guarded
    by a local flag. A body nested deeper than CPython compiles stays on
    the cold tier.
Both tiers give the same trace for every case, steps included.

`run` trusts its case: callers pass cases that `check` accepted or that
were built from checked values (configured cases, fuzz pools).

Semantics pinned here and mirrored by the independent test oracle:
  - int is 64-bit two's complement; arithmetic wraps, division truncates
    toward zero, and only integer division by zero is a DivByZero crash.
  - float follows IEEE-754 doubles; division by zero yields +/-inf or nan.
  - `&&`/`||` short-circuit; skipped conditions record no outcome.
  - Fuel: executing any statement costs 1, each while-condition evaluation
    costs 1 more; an unpayable charge stops the run with FuelExhausted.
  - Falling off the end of a method returns no value.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional, Union

from .cutlang.nodes import (
    INT_MAX,
    INT_MIN,
    Assert,
    Assign,
    Binary,
    Block,
    BoolLit,
    CallExpr,
    ClassDecl,
    Expr,
    ExprStmt,
    FieldRef,
    FloatLit,
    If,
    IntLit,
    MethodDecl,
    ParamRef,
    RefType,
    Return,
    SourceUnit,
    Span,
    Stmt,
    Unary,
    While,
)
from .cutlang.printer import print_method
from .decisions import Decision, all_pairs, extract_decisions, method_call_sites
from .errors import ContractViolation, UnknownClass, UnknownTarget

if TYPE_CHECKING:
    from .cases import TestCase

Scalar = Union[int, float, bool]

DEFAULT_FUEL = 10000

# Cumulative steps after which a method's later cases run generated code.
# Promoting once the steps run cold would have paid for the compile keeps
# the total within about twice the cost of the best choice made in
# hindsight (the ski-rental argument). Measured on the benchmark's fuzz
# trees (CPython 3.11): promotion costs 470-750 us per method and saves
# 0.29-0.71 us per step, a break-even of 1,000-1,700 steps. Nearly all of
# that cost is compile(), which a method whose source is already cached
# skips; the threshold is still set for the first method of each shape.
HOT_STEPS = 2048

TYPE_DEFAULTS: dict[str, Scalar] = {"int": 0, "bool": False, "float": 0.0}

ASSERT_FAILURE = "AssertFailure"
DIV_BY_ZERO = "DivByZero"
UNMOCKED_CALL = "UnmockedCall"
FUEL_EXHAUSTED = "FuelExhausted"


@dataclass(frozen=True)
class Event:
    kind: str
    site: Optional[Span] = None  # FuelExhausted carries no site

    @property
    def key(self) -> tuple:
        """Identity used for "new finding" bookkeeping: kind + location."""
        if self.site is None:
            return (self.kind,)
        return (self.kind, self.site.line, self.site.column)


class ExecutionTrace(NamedTuple):
    case_id: str
    outcomes: frozenset[tuple[str, bool]]  # (decision or condition id, value)
    crash: Optional[Event]
    steps: int
    return_value: Optional[Scalar]  # None after a crash
    fingerprint: str

    @property
    def terminal(self) -> str:
        return "Normal" if self.crash is None else "Crashed"

    @property
    def passed(self) -> bool:
        return self.crash is None


_OUT_OF_FUEL = Event(FUEL_EXHAUSTED)


class _Crash(Exception):
    def __init__(self, event: Event):
        self.event = event


class _ReturnSignal(Exception):
    def __init__(self, value: Optional[Scalar]):
        self.value = value


class _State:
    """What one run mutates: variables, mock cursors, fuel and outcomes."""

    __slots__ = ("params", "fields", "scripts", "call_counts", "fuel", "outcomes")

    def __init__(
        self,
        params: dict[str, Scalar],
        fields: dict[str, Scalar],
        scripts: dict[tuple[str, str], list[Scalar]],
        fuel: int,
        outcomes: set[tuple[str, bool]],
    ):
        self.params = params
        self.fields = fields
        self.scripts = scripts
        self.call_counts: dict[tuple[str, str], int] = {}
        self.fuel = fuel
        self.outcomes = outcomes


_Code = Callable[[_State], object]

# What both tiers compile a method to: (params, fields, scripts, outcomes,
# fuel) -> (crash, return value, fuel left). `fields` holds only the case's
# field values, and the run adds its outcome pairs to `outcomes`.
_Runner = Callable[
    [dict, dict, dict, set, int], tuple[Optional[Event], Optional[Scalar], int]
]


def method_fingerprint(class_name: str, method: MethodDecl) -> str:
    text = f"{class_name}\n{print_method(method)}\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_SIGN = 1 << 63
_MASK = (1 << 64) - 1


def _wrap_int(v: int) -> int:
    return ((v + _SIGN) & _MASK) - _SIGN


def _int_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return _wrap_int(q)


def _checked_int_div(a: int, b: int, div_by_zero: Event) -> int:
    if b == 0:
        raise _Crash(div_by_zero)
    return _int_div(a, b)


def _float_div(a: float, b: float) -> float:
    if b == 0.0:
        if math.isnan(a) or a == 0.0:
            return math.nan
        sign = math.copysign(1.0, a) * math.copysign(1.0, b)
        return math.copysign(math.inf, sign)
    return a / b


def _fits(type_name: str, value: Scalar) -> bool:
    if type_name == "int":
        return type(value) is int and INT_MIN <= value <= INT_MAX
    if type_name == "bool":
        return type(value) is bool
    if type_name == "float":
        return type(value) is float
    return False


def _type_error(type_name: str, value: Scalar, what: str) -> ContractViolation:
    return ContractViolation(f"{what} must be {type_name}, got {value!r}")


def check_values(type_name: str, values: Iterable[Scalar], what: str) -> None:
    """Raise ContractViolation at the first value that is not a `type_name`."""
    for value in values:
        if not _fits(type_name, value):
            raise _type_error(type_name, value, what)


# Operator -> closure factory over the compiled operands. Operands run left
# to right, so mock scripts are consumed in source order.
_COMPARE: dict[str, Callable[[_Code, _Code], _Code]] = {
    "==": lambda a, b: lambda st: a(st) == b(st),
    "!=": lambda a, b: lambda st: a(st) != b(st),
    "<": lambda a, b: lambda st: a(st) < b(st),
    "<=": lambda a, b: lambda st: a(st) <= b(st),
    ">": lambda a, b: lambda st: a(st) > b(st),
    ">=": lambda a, b: lambda st: a(st) >= b(st),
}
_INT_ARITH: dict[str, Callable[[_Code, _Code], _Code]] = {
    "+": lambda a, b: lambda st: ((a(st) + b(st) + _SIGN) & _MASK) - _SIGN,
    "-": lambda a, b: lambda st: ((a(st) - b(st) + _SIGN) & _MASK) - _SIGN,
    "*": lambda a, b: lambda st: ((a(st) * b(st) + _SIGN) & _MASK) - _SIGN,
}
_FLOAT_ARITH: dict[str, Callable[[_Code, _Code], _Code]] = {
    "+": lambda a, b: lambda st: a(st) + b(st),
    "-": lambda a, b: lambda st: a(st) - b(st),
    "*": lambda a, b: lambda st: a(st) * b(st),
    "/": lambda a, b: lambda st: _float_div(a(st), b(st)),
}


def _nothing(st: _State) -> None:
    """A void call site, or the value of a bare `return;`."""
    return None


def _recorder(code: _Code, outcome_id: str) -> _Code:
    """Wrap a bool-valued closure so it records its outcome pair."""
    true_pair, false_pair = (outcome_id, True), (outcome_id, False)

    def record(st: _State) -> bool:
        if code(st):
            st.outcomes.add(true_pair)
            return True
        st.outcomes.add(false_pair)
        return False

    return record


def _outcome_ids(decisions: list[Decision]) -> tuple[dict[int, str], dict[int, str]]:
    """Decision ids and condition ids keyed by the id() of their AST node."""
    return (
        {id(d.expr): d.id for d in decisions},
        {id(c.atom): c.id for d in decisions for c in d.conditions},
    )


def _cold_runner(body: _Code, field_defaults: dict[str, Scalar]) -> _Runner:
    """The closure-compiled body behind the runner signature."""

    def run_cold(params, fields, scripts, outcomes, fuel):
        env = dict(field_defaults)
        env.update(fields)
        st = _State(dict(params), env, scripts, fuel, outcomes)
        try:
            body(st)
        except _ReturnSignal as r:
            return None, r.value, st.fuel
        except _Crash as c:
            return c.event, None, st.fuel
        return None, None, st.fuel

    return run_cold


class _Compiler:
    """Compiles one method body into closures over a _State."""

    def __init__(
        self, decisions: list[Decision], site_types: dict[tuple[str, str], str]
    ):
        self.decision_ids, self.atom_ids = _outcome_ids(decisions)
        self.site_types = site_types

    def block(self, block: Block) -> _Code:
        steps = tuple(self.stmt(s) for s in block.stmts)

        def run_block(st: _State) -> None:
            for step in steps:
                if st.fuel <= 0:
                    raise _Crash(_OUT_OF_FUEL)
                st.fuel -= 1
                step(st)

        return run_block

    def stmt(self, s: Stmt) -> _Code:
        """A statement's closure; its block charges the statement's fuel."""
        if isinstance(s, If):
            cond = self.decision(s.cond)
            then = self.block(s.then)
            els = self.block(s.els) if s.els is not None else None

            def run_if(st: _State) -> None:
                if cond(st):
                    then(st)
                elif els is not None:
                    els(st)

            return run_if
        if isinstance(s, While):
            cond = self.decision(s.cond)
            body = self.block(s.body)

            def run_while(st: _State) -> None:
                while True:
                    if st.fuel <= 0:
                        raise _Crash(_OUT_OF_FUEL)
                    st.fuel -= 1
                    if not cond(st):
                        return
                    body(st)

            return run_while
        if isinstance(s, Assert):
            cond = self.decision(s.cond)
            failure = Event(ASSERT_FAILURE, s.span)

            def run_assert(st: _State) -> None:
                if not cond(st):
                    raise _Crash(failure)

            return run_assert
        if isinstance(s, Return):
            value = self.expr(s.value) if s.value is not None else _nothing

            def run_return(st: _State) -> None:
                raise _ReturnSignal(value(st))

            return run_return
        if isinstance(s, Assign):
            name = s.target.name
            rhs = self.expr(s.value)
            if isinstance(s.target, ParamRef):

                def assign_param(st: _State) -> None:
                    st.params[name] = rhs(st)

                return assign_param

            def assign_field(st: _State) -> None:
                st.fields[name] = rhs(st)

            return assign_field
        if isinstance(s, ExprStmt):
            return self.expr(s.expr)
        raise AssertionError(f"unhandled statement {s!r}")

    def decision(self, cond: Expr) -> _Code:
        return _recorder(self.expr(cond), self.decision_ids[id(cond)])

    def expr(self, e: Expr) -> _Code:
        code = self._expr(e)
        cond_id = self.atom_ids.get(id(e))
        return code if cond_id is None else _recorder(code, cond_id)

    def _expr(self, e: Expr) -> _Code:
        if isinstance(e, (IntLit, FloatLit, BoolLit)):
            value = e.value
            return lambda st: value
        if isinstance(e, ParamRef):
            name = e.name
            return lambda st: st.params[name]
        if isinstance(e, FieldRef):
            name = e.name
            return lambda st: st.fields[name]
        if isinstance(e, CallExpr):
            return self._call(e)
        if isinstance(e, Unary):
            operand = self.expr(e.operand)
            return lambda st: not operand(st)
        if isinstance(e, Binary):
            return self._binary(e)
        raise AssertionError(f"unhandled expression {e!r}")

    def _call(self, e: CallExpr) -> _Code:
        key = (e.receiver.name, e.method)
        if self.site_types.get(key) == "void":
            return _nothing
        unmocked = Event(UNMOCKED_CALL, e.span)

        def call(st: _State) -> Scalar:
            script = st.scripts.get(key)
            if not script:
                raise _Crash(unmocked)
            n = st.call_counts.get(key, 0)
            st.call_counts[key] = n + 1
            return script[min(n, len(script) - 1)]

        return call

    def _binary(self, e: Binary) -> _Code:
        left = self.expr(e.left)
        right = self.expr(e.right)
        op = e.op
        if op == "&&":
            return lambda st: bool(right(st)) if left(st) else False
        if op == "||":
            return lambda st: True if left(st) else bool(right(st))
        if op in _COMPARE:
            return _COMPARE[op](left, right)
        if e.type_ == "float":
            return _FLOAT_ARITH[op](left, right)
        if e.type_ != "int":
            raise AssertionError(f"arithmetic on {e.type_} slipped past the checker")
        if op in _INT_ARITH:
            return _INT_ARITH[op](left, right)
        div_by_zero = Event(DIV_BY_ZERO, e.span)
        return lambda st: _checked_int_div(left(st), right(st), div_by_zero)


# -- generated tier ----------------------------------------------------------


def _unmocked(event: Event) -> Scalar:
    raise _Crash(event)


# The only names generated source reads besides its own numbered ones.
_GENERATED_GLOBALS = {
    "_Crash": _Crash,
    "_OUT_OF_FUEL": _OUT_OF_FUEL,
    "_div": _checked_int_div,
    "_fdiv": _float_div,
    "_unmocked": _unmocked,
}

# Operators are looked up here, never copied from the AST, so the source
# holds only fixed text.
_PY_COMPARE = {op: op for op in ("==", "!=", "<", "<=", ">", ">=")}
_PY_ARITH = {"+": "+", "-": "-", "*": "*"}
# In-range results skip the mask; `t` is read right after each assignment.
_WRAP = (
    "(t if -9223372036854775808 <= (t := {}) <= 9223372036854775807"
    " else ((t + 9223372036854775808) & 18446744073709551615)"
    " - 9223372036854775808)"
)
_CHARGE = ("if fuel <= 0: return _OUT_OF_FUEL, None, 0", "fuel -= 1")


class _Emitter:
    """Writes one method body as the source of a single Python function.

    The source is `def _make(k0, k1, ...): def _run(params, fields, scripts,
    outcomes, fuel): ...; return _run`. Every value taken from the method
    (literal, outcome pair, crash event, parameter or field name, mock key,
    field default) is one of the `k<i>` arguments, in the order the emitter
    meets it, so the text holds only fixed keywords, operators and numbered
    names. Parameters and fields live in locals `v<i>`, each mock key in a
    cursor `c<i>` with its last value `l<i>`. A branch that records outcome
    pairs inside a `while` has a flag `f<i>`, true until the branch first
    adds its pairs in the run.
    """

    def __init__(
        self,
        decisions: list[Decision],
        site_types: dict[tuple[str, str], str],
        field_defaults: dict[str, Scalar],
    ):
        self.decision_ids, self.atom_ids = _outcome_ids(decisions)
        self.site_types = site_types
        self.field_defaults = field_defaults
        self.consts: list[object] = []
        self.prologue: list[str] = []
        self.lines: list[str] = []
        self.vars: dict[tuple[type, str], str] = {}
        self.cursors: dict[tuple[str, str], str] = {}
        self.flags = 0
        self.looped = False  # emitting a while's condition or body

    def generate(self, body: Block) -> tuple[str, list[object]]:
        """The source of `_make` for a body and the values of its k<i>."""
        self.block(body, 3)
        if self.flags:
            flags = " = ".join(f"f{i}" for i in range(self.flags))
            self.prologue.append(f"{flags} = True")
        pad = " " * 8
        source = "\n".join(
            [
                f"def _make({', '.join(f'k{i}' for i in range(len(self.consts)))}):",
                "    def _run(params, fields, scripts, outcomes, fuel):",
                pad + "add = outcomes.add",
                *(pad + line for line in self.prologue),
                pad + "try:",
                *self.lines,
                pad + "except _Crash as e:",
                pad + "    return e.event, None, fuel",
                pad + "return None, None, fuel",
                "    return _run",
                "",
            ]
        )
        return source, self.consts

    def const(self, value: object) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def flag(self) -> str:
        self.flags += 1
        return f"f{self.flags - 1}"

    # -- statements --------------------------------------------------------

    def block(self, block: Block, depth: int) -> None:
        if not block.stmts:
            self.emit(depth, "pass")
        for s in block.stmts:
            for line in _CHARGE:
                self.emit(depth, line)
            self.stmt(s, depth)

    def stmt(self, s: Stmt, depth: int) -> None:
        if isinstance(s, If):
            test, yes, no = self.decision(s.cond)
            self.emit(depth, f"if {test}:")
            self.emit(depth + 1, yes)
            self.block(s.then, depth + 1)
            self.emit(depth, "else:")
            self.emit(depth + 1, no)
            if s.els is not None:
                self.block(s.els, depth + 1)
        elif isinstance(s, While):
            outer, self.looped = self.looped, True
            test, yes, no = self.decision(s.cond)
            self.emit(depth, "while True:")
            for line in _CHARGE:
                self.emit(depth + 1, line)
            self.emit(depth + 1, f"if not {test}:")
            self.emit(depth + 2, no)
            self.emit(depth + 2, "break")
            self.emit(depth + 1, yes)
            self.block(s.body, depth + 1)
            self.looped = outer
        elif isinstance(s, Assert):
            test, yes, no = self.decision(s.cond)
            failure = self.const(Event(ASSERT_FAILURE, s.span))
            self.emit(depth, f"if not {test}:")
            self.emit(depth + 1, no)
            self.emit(depth + 1, f"return {failure}, None, fuel")
            self.emit(depth, yes)
        elif isinstance(s, Return):
            value = self.expr(s.value) if s.value is not None else "None"
            self.emit(depth, f"return None, {value}, fuel")
        elif isinstance(s, Assign):
            self.emit(depth, f"{self.var(s.target)} = {self.expr(s.value)}")
        elif isinstance(s, ExprStmt):
            self.emit(depth, self.expr(s.expr))
        else:
            raise AssertionError(f"unhandled statement {s!r}")

    def decision(self, cond: Expr) -> tuple[str, str, str]:
        """(test, statement on true, statement on false) of a predicate."""
        did = self.decision_ids[id(cond)]
        cond_id = self.atom_ids.get(id(cond))
        if cond_id is None:
            test, ids = self.expr(cond), [did]
        else:  # a one-condition decision records both pairs in the branch
            test, ids = self._expr(cond), [cond_id, did]
        yes = self.record([self.const((i, True)) for i in ids])
        no = self.record([self.const((i, False)) for i in ids])
        return test, yes, no

    def record(self, pairs: list[str]) -> str:
        """The statement that adds a branch's outcome pairs. Outside loops
        a branch runs at most once per run; inside, its flag makes every
        later pass skip the adds."""
        adds = "; ".join(f"add({p})" for p in pairs)
        if not self.looped:
            return adds
        flag = self.flag()
        return f"if {flag}: {flag} = None; {adds}"

    # -- expressions -------------------------------------------------------

    def var(self, ref: Union[ParamRef, FieldRef]) -> str:
        key = (type(ref), ref.name)
        name = self.vars.get(key)
        if name is None:
            name = self.vars[key] = f"v{len(self.vars)}"
            if isinstance(ref, ParamRef):
                self.prologue.append(f"{name} = params[{self.const(ref.name)}]")
            else:
                default = self.const(self.field_defaults[ref.name])
                self.prologue.append(
                    f"{name} = fields.get({self.const(ref.name)}, {default})"
                )
        return name

    def expr(self, e: Expr) -> str:
        code = self._expr(e)
        cond_id = self.atom_ids.get(id(e))
        if cond_id is None:
            return code
        t, f = self.const((cond_id, True)), self.const((cond_id, False))
        if not self.looped:
            return f"((add({t}) or True) if {code} else (add({f}) or False))"
        # `add` returns None, so each arm keeps its value whatever its flag.
        ft, ff = self.flag(), self.flag()
        return (
            f"((({ft} and ({ft} := add({t}))) or True) if {code}"
            f" else (({ff} and ({ff} := add({f}))) or False))"
        )

    def _expr(self, e: Expr) -> str:
        if isinstance(e, (IntLit, FloatLit, BoolLit)):
            return self.const(e.value)
        if isinstance(e, (ParamRef, FieldRef)):
            return self.var(e)
        if isinstance(e, CallExpr):
            return self._call(e)
        if isinstance(e, Unary):
            return f"(not {self.expr(e.operand)})"
        if isinstance(e, Binary):
            return self._binary(e)
        raise AssertionError(f"unhandled expression {e!r}")

    def _call(self, e: CallExpr) -> str:
        key = (e.receiver.name, e.method)
        if self.site_types.get(key) == "void":
            return "None"
        cursor = self.cursors.get(key)
        if cursor is None:
            cursor = self.cursors[key] = str(len(self.cursors))
            self.prologue += [
                f"c{cursor} = scripts.get({self.const(key)})",
                f"if c{cursor}: l{cursor} = c{cursor}[-1]; c{cursor} = iter(c{cursor})",
                f"else: c{cursor} = l{cursor} = None",
            ]
        unmocked = self.const(Event(UNMOCKED_CALL, e.span))
        return (
            f"(next(c{cursor}, l{cursor}) if c{cursor} is not None"
            f" else _unmocked({unmocked}))"
        )

    def _binary(self, e: Binary) -> str:
        left = self.expr(e.left)
        right = self.expr(e.right)
        op = e.op
        if op == "&&":
            return f"({left} and {right})"
        if op == "||":
            return f"({left} or {right})"
        if op in _PY_COMPARE:
            return f"({left} {_PY_COMPARE[op]} {right})"
        if e.type_ == "float":
            if op == "/":
                return f"_fdiv({left}, {right})"
            return f"({left} {_PY_ARITH[op]} {right})"
        if e.type_ != "int":
            raise AssertionError(f"arithmetic on {e.type_} slipped past the checker")
        if op in _PY_ARITH:
            return _WRAP.format(f"{left} {_PY_ARITH[op]} {right}")
        return f"_div({left}, {right}, {self.const(Event(DIV_BY_ZERO, e.span))})"


def _maker(source: str) -> Optional[Callable[..., _Runner]]:
    """The `_make` function a generated source defines, or None for a body
    nested deeper than CPython compiles (20 blocks, or a parser stack
    overflow)."""
    try:
        code = compile(source, "<ultgen generated>", "exec")
    except (SyntaxError, MemoryError, RecursionError):
        return None
    namespace = dict(_GENERATED_GLOBALS)
    exec(code, namespace)
    return namespace["_make"]


# `_make` per generated source. A source holds no input text, so methods of
# the same shape share one entry, each binding its own values to it.
_MAKERS: dict[str, Optional[Callable[..., _Runner]]] = {}


class CaseEvaluator:
    """Prepared executor for one (class, method): parse once, run many cases.

    Exposes the method's decisions and an AST fingerprint so traces can be
    checked for consistency before coverage aggregation. The body is
    compiled on the first `run`, so evaluators that never run a case (such
    as those of decision-free methods) pay nothing for it.
    """

    def __init__(
        self,
        unit: SourceUnit,
        class_name: str,
        method_name: str,
        fuel: int = DEFAULT_FUEL,
    ):
        cls = unit.class_named(class_name)
        if cls is None:
            raise UnknownClass(f"class {class_name!r} not found in {unit.path}")
        method = self._find_method(unit, cls, method_name)
        if method is None:
            raise UnknownTarget(f"{class_name}.{method_name}")
        if fuel < 1:
            raise ContractViolation("fuel must be >= 1")
        self.unit = unit
        self.class_name = class_name
        self.cls = cls
        self.method = method
        self.fuel = fuel
        self.decisions: list[Decision] = extract_decisions(method, class_name)
        # Outcome pairs the method has: both values of every decision and
        # condition, the syntactic coverage denominator.
        self.pairs = all_pairs(self.decisions)
        self.fingerprint = method_fingerprint(class_name, method)
        # What a case may set: parameters in declaration order, and scalar
        # fields (inherited ones included) by name.
        self.param_types = {p.name: p.type for p in method.params}
        self.field_types, self._ref_fields = self._effective_fields(unit, cls)
        self._runner: Optional[_Runner] = None  # set by _compile on the first run
        # Steps the cold tier may still take; None once the method is promoted.
        self._cold_left: Optional[int] = HOT_STEPS

    @staticmethod
    def _find_method(
        unit: SourceUnit, cls: ClassDecl, name: str
    ) -> Optional[MethodDecl]:
        cur: Optional[ClassDecl] = cls
        while cur is not None:
            m = cur.method_named(name)
            if m is not None:
                return m
            cur = unit.class_named(cur.base) if cur.base else None
        return None

    @staticmethod
    def _effective_fields(
        unit: SourceUnit, cls: ClassDecl
    ) -> tuple[dict[str, str], dict[str, str]]:
        """(scalar fields name->type, ref fields name->class) incl. inherited."""
        chain: list[ClassDecl] = []
        cur: Optional[ClassDecl] = cls
        while cur is not None:
            chain.append(cur)
            cur = unit.class_named(cur.base) if cur.base else None
        scalars: dict[str, str] = {}
        refs: dict[str, str] = {}
        for c in reversed(chain):
            for f in c.fields:
                if isinstance(f.type, RefType):
                    refs[f.name] = f.type.class_name
                else:
                    scalars[f.name] = f.type
        return scalars, refs

    @cached_property
    def _site_types(self) -> dict[tuple[str, str], str]:
        """Static return type per (field, method) call key in the body, in
        pre-order of first use. Built on first use, so evaluators that never
        run or build a case skip the walk."""
        return {key: node.type_ or "int" for key, node in method_call_sites(self.method)}

    @cached_property
    def mock_types(self) -> dict[tuple[str, str], str]:
        """Value type per value-returning call site, in the order of
        `_site_types`: the mock scripts a case of the method may need."""
        return {k: t for k, t in self._site_types.items() if t != "void"}

    def mock_type(self, key: tuple[str, str]) -> str:
        """The scripted type of mock key (field, method), which must name a
        value-returning method of a reference field's class."""
        f_name, m_name = key
        if f_name not in self._ref_fields:
            raise ContractViolation(f"mock key {key} names no reference field")
        dep = self.unit.class_named(self._ref_fields[f_name])
        if dep is None:
            return "int"  # extern dependency: documented assumption
        m = self._find_method(self.unit, dep, m_name)
        if m is None or m.return_type == "void":
            raise ContractViolation(f"no scriptable method for mock key {key}")
        return m.return_type

    def _compile(self) -> _Runner:
        """Compile the cold tier and the field defaults both tiers start from."""
        self._field_defaults = {
            name: TYPE_DEFAULTS[t] for name, t in self.field_types.items()
        }
        body = _Compiler(self.decisions, self._site_types).block(self.method.body)
        self._runner = _cold_runner(body, self._field_defaults)
        return self._runner

    def _promote(self) -> None:
        """Run every later case through one generated function for the body.
        Reads the invariants that _compile sets."""
        self._cold_left = None
        emitter = _Emitter(self.decisions, self._site_types, self._field_defaults)
        source, consts = emitter.generate(self.method.body)
        if source not in _MAKERS:
            _MAKERS[source] = _maker(source)
        make = _MAKERS[source]
        if make is not None:  # else the cold tier keeps running the method
            self._runner = make(*consts)

    # -- case validation ---------------------------------------------------

    def check(self, case: "TestCase") -> None:
        """Raise ContractViolation unless the case gives every parameter and
        only declared ones, and every value fits its declared type: scalar
        fields by name, and each mock script is nonempty and names a
        value-returning method of a reference field. `run` assumes this."""
        declared = self.param_types
        given = case.param_values
        if given.keys() != declared.keys():
            missing = sorted(declared.keys() - given.keys())
            if missing:
                raise ContractViolation(f"missing parameter values: {missing}")
            extra = sorted(given.keys() - declared.keys())
            raise ContractViolation(f"unknown parameters: {extra}")
        for name, value in given.items():
            if not _fits(declared[name], value):
                raise _type_error(declared[name], value, f"parameter {name!r}")
        fields = self.field_types
        for name, value in case.field_values.items():
            if name not in fields:
                raise ContractViolation(f"unknown scalar field {name!r}")
            if not _fits(fields[name], value):
                raise _type_error(fields[name], value, f"field {name!r}")
        for key, script in case.mock_plan.items():
            expect = self.mock_types.get(key)
            if expect is None:
                expect = self._checked_mock_type(key, script)
            elif not script:
                raise ContractViolation(f"empty mock script for {key}")
            check_values(expect, script, f"mock {key[0]}->{key[1]}()")

    def _checked_mock_type(self, key: tuple[str, str], script: list[Scalar]) -> str:
        """The scripted type of a mock key with no value-returning call site
        in the body, after every check on the key, in order: reference
        field, void call site, empty script, scriptable method."""
        if key[0] in self._ref_fields:
            if self._site_types.get(key) == "void":
                raise ContractViolation(f"call {key[0]}->{key[1]}() returns void")
            if not script:
                raise ContractViolation(f"empty mock script for {key}")
        return self.mock_type(key)

    # -- execution ---------------------------------------------------------

    def run(self, case: "TestCase") -> ExecutionTrace:
        """The trace of one case, which must be one that `check` accepts:
        run does not check it."""
        runner = self._runner if self._runner is not None else self._compile()
        fuel = self.fuel
        cold_left = self._cold_left
        if cold_left is not None and cold_left < fuel:
            fuel = cold_left  # the cold tier stops where HOT_STEPS is reached
        outcomes: set[tuple[str, bool]] = set()
        crash, ret, left = runner(
            case.param_values, case.field_values, case.mock_plan, outcomes, fuel
        )
        if cold_left is not None:
            self._cold_left = cold_left - (fuel - left)
            if self._cold_left <= 0:
                self._promote()
                if crash is _OUT_OF_FUEL and fuel < self.fuel:
                    # The cap cut this case short: run all of it again.
                    outcomes = set()
                    fuel = self.fuel
                    crash, ret, left = self._runner(
                        case.param_values, case.field_values, case.mock_plan,
                        outcomes, fuel,
                    )
        return ExecutionTrace(
            case.id, frozenset(outcomes), crash, fuel - left, ret, self.fingerprint
        )
