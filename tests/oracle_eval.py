"""Independent evaluation oracle for differential testing.

This reimplements CUT-lang runtime semantics from the documented contract
(docs/cutlang.md). Like the shipped evaluator it compiles each method to
Python closures, so that alone makes it no independent witness. What stays
deliberately different is the machinery behind the semantics:
  - 64-bit wrapping goes through struct packing, not mask arithmetic;
  - truncating division is derived from floor division by post-correction,
    not from the quotient of absolute values;
  - condition splitting is its own recursion (`atoms_of`), not
    `ultgen.decisions.split_conditions`, and decision ids are numbered
    here, not taken from `extract_decisions`;
  - fuel is a separate counter, charged by each statement closure itself
    rather than by the enclosing block;
  - arithmetic picks int or float from the runtime value, not from the
    checker's static type, and void call sites come from the dependency
    class, not from the call node's type.
Agreement between the two implementations on outcome sets, terminal state,
crash kind, return value and fuel consumed is the equivalence oracle.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Optional

from ultgen.cutlang.nodes import (
    Assert,
    Assign,
    Binary,
    Block,
    CallExpr,
    ClassDecl,
    Expr,
    FieldRef,
    If,
    IntLit,
    BoolLit,
    FloatLit,
    MethodDecl,
    ParamRef,
    RefType,
    Return,
    SourceUnit,
    Unary,
    While,
)

U64 = struct.Struct("<Q")
I64 = struct.Struct("<q")


class OracleCrash(Exception):
    def __init__(self, kind: str):
        self.kind = kind


class OracleReturn(Exception):
    def __init__(self, value):
        self.value = value


def wrap64(v: int) -> int:
    return I64.unpack(U64.pack(v & 0xFFFFFFFFFFFFFFFF))[0]


def trunc_div(a: int, b: int) -> int:
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return wrap64(q)


def ieee_div(a: float, b: float) -> float:
    try:
        return a / b
    except ZeroDivisionError:
        if math.isnan(a) or a == 0.0:
            return math.nan
        sign = math.copysign(1.0, a) * math.copysign(1.0, b)
        return math.copysign(math.inf, sign)


def has_logic(e: Expr) -> bool:
    if isinstance(e, Unary):
        return True
    if isinstance(e, Binary):
        return e.op in ("&&", "||") or has_logic(e.left) or has_logic(e.right)
    return False


def atoms_of(e: Expr) -> list[Expr]:
    """Maximal logic-free subexpressions, left to right."""
    if isinstance(e, Unary):
        return atoms_of(e.operand)
    if isinstance(e, Binary) and (
        e.op in ("&&", "||") or has_logic(e.left) or has_logic(e.right)
    ):
        return atoms_of(e.left) + atoms_of(e.right)
    return [e]


def decision_exprs(method: MethodDecl) -> list[Expr]:
    """if/while/assert predicates in statement pre-order."""
    found: list[Expr] = []

    def walk(block: Block) -> None:
        for s in block.stmts:
            if isinstance(s, If):
                found.append(s.cond)
                walk(s.then)
                if s.els is not None:
                    walk(s.els)
            elif isinstance(s, While):
                found.append(s.cond)
                walk(s.body)
            elif isinstance(s, Assert):
                found.append(s.cond)

    walk(method.body)
    return found


@dataclass
class _Env:
    params: dict
    fields: dict
    scripts: dict
    counts: dict
    fuel: list  # single-cell mutable counter
    outcomes: set

    def charge(self) -> None:
        if self.fuel[0] <= 0:
            raise OracleCrash("FuelExhausted")
        self.fuel[0] -= 1


@dataclass(frozen=True)
class OracleResult:
    outcomes: frozenset
    terminal: str
    crash_kind: Optional[str]
    return_value: object
    steps: int  # fuel consumed


def scalars_equal(a, b) -> bool:
    """Equality with NaN reflexive and zero signs significant."""
    if a is None or b is None:
        return a is None and b is None
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


class OracleEvaluator:
    def __init__(
        self,
        unit: SourceUnit,
        class_name: str,
        method_name: str,
        fuel: int = 10000,
    ):
        self.unit = unit
        self.fuel = fuel
        cls = unit.class_named(class_name)
        assert cls is not None, class_name
        method = None
        cursor: Optional[ClassDecl] = cls
        while cursor is not None and method is None:
            for m in cursor.methods:
                if m.name == method_name:
                    method = m
                    break
            cursor = unit.class_named(cursor.base) if cursor.base else None
        assert method is not None, method_name
        self.method = method

        self.scalar_fields: dict[str, str] = {}
        self.ref_fields: dict[str, str] = {}
        chain: list[ClassDecl] = []
        cursor = cls
        while cursor is not None:
            chain.append(cursor)
            cursor = unit.class_named(cursor.base) if cursor.base else None
        for owner in reversed(chain):  # base first, like object layout
            for f in owner.fields:
                if isinstance(f.type, RefType):
                    self.ref_fields[f.name] = f.type.class_name
                else:
                    self.scalar_fields[f.name] = f.type

        decision_ids: dict[int, str] = {}
        atom_ids: dict[int, str] = {}
        prefix = f"{class_name}.{method_name}"
        for n, cond in enumerate(decision_exprs(method), start=1):
            decision_ids[id(cond)] = f"{prefix}:D{n}"
            for i, atom in enumerate(atoms_of(cond), start=1):
                atom_ids[id(atom)] = f"{prefix}:D{n}.c{i}"
        self._decision_ids = decision_ids
        self._atom_ids = atom_ids
        self._body = self._compile_block(method.body)

    # -- compilation -------------------------------------------------------

    def _site_is_void(self, key: tuple[str, str]) -> bool:
        dep_class = self.ref_fields[key[0]]
        dep = self.unit.class_named(dep_class)
        if dep is None:
            return False  # extern calls type as int
        cursor: Optional[ClassDecl] = dep
        while cursor is not None:
            for m in cursor.methods:
                if m.name == key[1]:
                    return m.return_type == "void"
            cursor = self.unit.class_named(cursor.base) if cursor.base else None
        return False

    def _compile_expr(self, e: Expr) -> Callable[[_Env], object]:
        if isinstance(e, (IntLit, FloatLit, BoolLit)):
            v = e.value
            inner = lambda env: v
        elif isinstance(e, ParamRef):
            name = e.name
            inner = lambda env: env.params[name]
        elif isinstance(e, FieldRef):
            name = e.name
            inner = lambda env: env.fields[name]
        elif isinstance(e, CallExpr):
            key = (e.receiver.name, e.method)
            if self._site_is_void(key):
                inner = lambda env: None
            else:
                def inner(env, key=key):
                    script = env.scripts.get(key)
                    if not script:
                        raise OracleCrash("UnmockedCall")
                    n = env.counts.get(key, 0)
                    env.counts[key] = n + 1
                    return script[min(n, len(script) - 1)]
        elif isinstance(e, Unary):
            operand = self._compile_expr(e.operand)
            inner = lambda env: not operand(env)
        elif isinstance(e, Binary):
            inner = self._compile_binary(e)
        else:
            raise AssertionError(f"unhandled expr {e!r}")

        cond_id = self._atom_ids.get(id(e))
        if cond_id is None:
            return inner

        def recording(env, inner=inner, cond_id=cond_id):
            value = inner(env)
            env.outcomes.add((cond_id, value))
            return value

        return recording

    def _compile_binary(self, e: Binary) -> Callable[[_Env], object]:
        left = self._compile_expr(e.left)
        right = self._compile_expr(e.right)
        op = e.op
        if op == "&&":
            return lambda env: bool(right(env)) if left(env) else False
        if op == "||":
            return lambda env: True if left(env) else bool(right(env))
        if op in ("==", "!=", "<", "<=", ">", ">="):
            import operator

            table = {
                "==": operator.eq, "!=": operator.ne,
                "<": operator.lt, "<=": operator.le,
                ">": operator.gt, ">=": operator.ge,
            }
            fn = table[op]
            return lambda env: fn(left(env), right(env))

        def arith(env, op=op):
            a = left(env)
            b = right(env)
            if isinstance(a, int):
                if op == "+":
                    return wrap64(a + b)
                if op == "-":
                    return wrap64(a - b)
                if op == "*":
                    return wrap64(a * b)
                if b == 0:
                    raise OracleCrash("DivByZero")
                return trunc_div(a, b)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            return ieee_div(a, b)

        return arith

    def _compile_decision(self, cond: Expr) -> Callable[[_Env], bool]:
        fn = self._compile_expr(cond)
        decision_id = self._decision_ids[id(cond)]

        def decide(env):
            value = fn(env)
            env.outcomes.add((decision_id, value))
            return value

        return decide

    def _compile_block(self, block: Block) -> Callable[[_Env], None]:
        steps = [self._compile_stmt(s) for s in block.stmts]

        def run(env):
            for step in steps:
                step(env)

        return run

    def _compile_stmt(self, s) -> Callable[[_Env], None]:
        if isinstance(s, If):
            cond = self._compile_decision(s.cond)
            then = self._compile_block(s.then)
            els = self._compile_block(s.els) if s.els is not None else None

            def step(env):
                env.charge()
                if cond(env):
                    then(env)
                elif els is not None:
                    els(env)

            return step
        if isinstance(s, While):
            cond = self._compile_decision(s.cond)
            body = self._compile_block(s.body)

            def step(env):
                env.charge()
                while True:
                    env.charge()
                    if not cond(env):
                        return
                    body(env)

            return step
        if isinstance(s, Assert):
            cond = self._compile_decision(s.cond)

            def step(env):
                env.charge()
                if not cond(env):
                    raise OracleCrash("AssertFailure")

            return step
        if isinstance(s, Return):
            value = self._compile_expr(s.value) if s.value is not None else None

            def step(env):
                env.charge()
                raise OracleReturn(value(env) if value is not None else None)

            return step
        if isinstance(s, Assign):
            rhs = self._compile_expr(s.value)
            if isinstance(s.target, ParamRef):
                name = s.target.name

                def step(env):
                    env.charge()
                    env.params[name] = rhs(env)
            else:
                name = s.target.name

                def step(env):
                    env.charge()
                    env.fields[name] = rhs(env)

            return step
        # ExprStmt
        rhs = self._compile_expr(s.expr)

        def step(env):
            env.charge()
            rhs(env)

        return step

    # -- entry -------------------------------------------------------------

    def run(self, case) -> OracleResult:
        defaults = {"int": 0, "bool": False, "float": 0.0}
        fields = {n: defaults[t] for n, t in self.scalar_fields.items()}
        fields.update(case.field_values)
        env = _Env(
            params=dict(case.param_values),
            fields=fields,
            scripts={k: list(v) for k, v in case.mock_plan.items()},
            counts={},
            fuel=[self.fuel],
            outcomes=set(),
        )
        crash_kind: Optional[str] = None
        ret = None
        try:
            self._body(env)
        except OracleReturn as r:
            ret = r.value
        except OracleCrash as c:
            crash_kind = c.kind
        return OracleResult(
            outcomes=frozenset(env.outcomes),
            terminal="Crashed" if crash_kind is not None else "Normal",
            crash_kind=crash_kind,
            return_value=None if crash_kind is not None else ret,
            steps=self.fuel - env.fuel[0],
        )
