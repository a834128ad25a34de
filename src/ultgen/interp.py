"""Deterministic big-step interpreter for CUT-lang method bodies.

Runs one test case against one method: parameters and scalar fields come
from the case, dependency calls return scripted mock values, and every
evaluated decision/condition contributes an outcome pair. Crashes (failed
assert, integer division by zero, unscripted call, fuel exhaustion)
terminate the run and are data on the trace, not Python errors. A trace
holds only what the run produced: outcome pairs, crash, steps and return
value. Each pair id names its method, so coverage can tell a trace of
another method by its pairs alone.

A CaseEvaluator compiles its method into the source of one Python
function the first time its `runner` is read, and every case runs through
that function: `run` calls it for a TestCase, and greedy selection and
the brute-force oracle call it straight on each input vector. The
function takes one flat input vector: the parameter values in
declaration order, then one mock script (or None) per value-returning
call site; and a field vector, a value per scalar field with defaults
filled in, which greedy selection and the oracle build once per method.
Both are read by position, and a one-value script, such as every fuzz
candidate's, is read as a value, with no iterator made per run and no
`next` per call. It returns the run's outcome pairs as a bit mask, one
bit per pair of `pairs_by_bit`, which `outcomes` decodes; so a run that
greedy selection drops builds no set. Variables, mock cursors, fuel and
the mask are the function's locals, and no step makes a call to dispatch
a node. Fuel is checked once per run of quiet statements (assignments
and expression statements with no value-returning call and no int `/`)
together with the statement or loop condition check after it, so a loop
whose body is quiet pays one check per pass.

A method is a shape and values, which one walk of the body gives
(`CaseEvaluator._walk`): a key for the shape and the values in walk
order. The shape is the statement and expression tree with its
arithmetic operators, its comparison operators inside a `while`, its
int/float and void choices, which locals and mock keys are the same, and
the side of the int64 range that each int `+` or `-` with a literal
operand tests (`_wrap_form`). It fixes the decisions and the bits of
their outcome pairs, so the source writes pair masks as literals. The
values are literals, input and field positions, crash events (kind and
span) and the comparison operators outside every loop: such a comparison
runs at most once per case, so a call to its bound operator function
(`operator.lt`, ...) costs a bounded amount, while inside a `while` it
could run thousands of times and stays inline. Each value is an argument
of the function that builds the runner, so the source holds no text from
the input, and methods of one shape share one source, written and
compiled once per process (`_MAKERS`). Branches inside a `while` record
once per run (`_Emitter.record`, `_Emitter.conjunction`). The parser
bounds how deeply a method nests, so every body it accepts compiles.

A counting `while` (`_Emitter.fast_forward`: bool invariants and int
comparisons in its condition, a body that adds a fixed step to each of some
int locals) ends each pass with a call of `_fast_forward` while a flag set
on entry holds. With one-value mock scripts its passes differ only in those
locals, which move linearly, so the helper finds in closed form how many
more passes keep every condition true, leave fuel for one more and let no
condition read a wrapped local; the runner adds that many steps to each
local and takes that many passes' fuel. Those passes record no pair the
first pass did not, cannot crash and pay whole charges, so the trace is the
one that running them gives. When the int64 range limited a skip, its last
pass wrapped a local that a condition reads; the flag stays set, and the
next pass may skip again.

`run` and `runner` trust their inputs: callers pass cases that `check`
accepted or inputs built from checked values (configured cases, fuzz
pools).

Nothing here resolves a name again. A CaseEvaluator reads what the
parser's resolver left on the tree: the class's `all_methods` (to find the
method, inherited or overriding) and `all_fields` (the scalar fields a case
may set, the reference fields a mock key may name), a dependency class's
`all_methods` (the return type of a mock key), and the method's
`call_types` (its mock types and which call sites are void).

Semantics pinned here and mirrored by the independent test oracle:
  - int is 64-bit two's complement; arithmetic wraps, division truncates
    toward zero, and only integer division by zero is a DivByZero crash.
  - float follows IEEE-754 doubles; division by zero yields +/-inf or nan.
  - `&&`/`||` short-circuit; skipped conditions record no outcome.
  - Fuel: executing any statement costs 1, each while-condition evaluation
    costs 1 more; an unpayable charge stops the run with FuelExhausted,
    having used all the fuel. The generated code pays consecutive charges
    in one check where nothing observable happens between them, so the
    trace is the one that one check per charge gives.
  - Falling off the end of a method returns no value.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .cutlang.nodes import (
    EXTERN_CALL_TYPE,
    INT_MAX,
    INT_MIN,
    Assert,
    Assign,
    Binary,
    Block,
    BoolLit,
    CallExpr,
    Expr,
    ExprStmt,
    FieldRef,
    FloatLit,
    If,
    IntLit,
    ParamRef,
    RefType,
    Return,
    SourceUnit,
    Span,
    Stmt,
    Unary,
    While,
    walk,
)
from .decisions import Decision, all_pairs, extract_decisions
from .errors import ContractViolation, UnknownClass, UnknownTarget

if TYPE_CHECKING:
    from .cases import TestCase

Scalar = Union[int, float, bool]

DEFAULT_FUEL = 10000

TYPE_DEFAULTS: dict[str, Scalar] = {"int": 0, "bool": False, "float": 0.0}

ASSERT_FAILURE = "AssertFailure"
DIV_BY_ZERO = "DivByZero"
UNMOCKED_CALL = "UnmockedCall"
FUEL_EXHAUSTED = "FuelExhausted"


class Event(NamedTuple):
    kind: str
    site: Optional[Span] = None  # FuelExhausted carries no site

    @property
    def key(self) -> tuple:
        """Identity used for "new finding" bookkeeping: kind, line, column."""
        if self.site is None:
            return (self.kind,)
        return (self.kind, self.site[2], self.site[3])


class ExecutionTrace(NamedTuple):
    outcomes: frozenset[tuple[str, bool]]  # (decision or condition id, value)
    crash: Optional[Event]
    steps: int
    return_value: Optional[Scalar]  # None after a crash

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


# What a method compiles to: (inputs, fields, fuel) -> (crash, return
# value, fuel left, outcome mask). `inputs` is one flat sequence: the
# parameter values in declaration order, then one mock script (a nonempty
# sequence, or None for no script) per `mock_types` key. `fields` is a
# value per scalar field, in `field_types` order, defaults included
# (`CaseEvaluator.fields`). Bit i of the mask is set when the run covers
# the evaluator's `pairs_by_bit[i]`.
_Runner = Callable[
    [Sequence, Sequence, int], tuple[Optional[Event], Optional[Scalar], int, int]
]


def _int_div(a: int, b: int, div_by_zero: Event) -> int:
    """C division: truncated toward zero and wrapped to 64 bits (only
    INT_MIN / -1 wraps); a zero divisor crashes with `div_by_zero`."""
    if b == 0:
        raise _Crash(div_by_zero)
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return q if q <= INT_MAX else INT_MIN


def _float_div(a: float, b: float) -> float:
    if b == 0.0:
        if math.isnan(a) or a == 0.0:
            return math.nan
        sign = math.copysign(1.0, a) * math.copysign(1.0, b)
        return math.copysign(math.inf, sign)
    return a / b


def fit(type_name: str, value: object, what: str) -> Scalar:
    """`value` as an input of type `type_name` holds it: the value itself,
    or, for a float input, an int as that float (JSON writes 3.0 as 3).
    ContractViolation if it is neither."""
    if type_name == "float" and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ContractViolation(f"{what} must be float, got an int out of range") from None
    if type(value) is not type(TYPE_DEFAULTS[type_name]) or (
        type_name == "int" and not INT_MIN <= value <= INT_MAX
    ):
        raise ContractViolation(f"{what} must be {type_name}, got {value!r}")
    return value


def check_values(type_name: str, values: Iterable[object], what: str) -> list[Scalar]:
    """`values` as inputs of type `type_name` hold them (see `fit`)."""
    return [fit(type_name, value, what) for value in values]


def _unmocked(event: Event) -> Scalar:
    raise _Crash(event)


# The cursor of a mock key with no script.
_UNSCRIPTED = object()


def _fast_forward(fuel, cost, cursors, tests, steps):
    """A counting loop (`_Emitter.fast_forward`) at the end of a pass of
    `cost` fuel: (again, fuel, *locals) after the largest k more passes that
    leave fuel for one more, whose conditions hold and read no wrapped
    local. A test is `(op, a, a's step, b, b's step)`, a local `(value,
    step)`, wrapped in closed form. A cursor that is not None (a script of
    several values) makes passes differ: k = 0. `again` is whether the int64
    range limited k, so that a skip may follow the wrap; a step of 2**58 or
    more leaves at most 64 passes between wraps, too few to pay for another
    call, so then it stays False."""
    k = fuel // cost - 1 if all(c is None for c in cursors) else 0
    for op, a, da, b, db in tests:
        d, s = a - b, da - db  # pass j tests (d + j * s) op 0
        if op == "==":
            k = 0 if d or s else k  # false now or on the next pass
        elif op == "!=":
            k = 0 if d == 0 else min(k, -d // s) if d * s < 0 and d % s == 0 else k
        else:
            if op[0] == "<":
                d, s = -d, -s
            if len(op) == 1:
                d -= 1  # now pass j needs d + j * s >= 0
            k = 0 if d < 0 else k if s >= 0 else min(k, d // -s + 1)
    again = False
    for x, dx in [side for test in tests for side in (test[1:3], test[3:])]:
        if dx:
            room = 1 + ((INT_MAX - x) // dx if dx > 0 else (x - INT_MIN) // -dx)
            if room <= k:
                k, again = room, abs(dx) < 2**58
    k = max(k, 0)
    wrapped = [(x + k * dx - INT_MIN) % 2**64 + INT_MIN for x, dx in steps]
    return (again, fuel - k * cost, *wrapped)


# The only names generated source reads besides its own numbered ones.
_GENERATED_GLOBALS = {
    "_Crash": _Crash,
    "_OUT_OF_FUEL": _OUT_OF_FUEL,
    "_div": _int_div,
    "_fdiv": _float_div,
    "_unmocked": _unmocked,
    "_UNSCRIPTED": _UNSCRIPTED,
    "_ff": _fast_forward,
}

# Operators are looked up here, never copied from the AST, so the source
# holds only fixed text. A comparison inside a `while` is written inline
# from `_PY_COMPARE`. Elsewhere it runs at most once per case and calls its
# `_COMPARE_FN` entry, bound as a value, so its operator is not part of
# the shape.
_PY_COMPARE = {op: op for op in ("==", "!=", "<", "<=", ">", ">=")}
_COMPARE_FN = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_PY_ARITH = {"+": "+", "-": "-", "*": "*"}
# The int64 wrap of `*` and of a `+` or `-` of two non-literals: in-range
# results skip the mask; `t` is read right after each assignment. A `+` or
# `-` with a literal operand can leave the range on one side only, which
# the literal's sign fixes (`_wrap_form`), so it tests that side and
# corrects by 2**64 once.
_WRAP = (
    "(t if -9223372036854775808 <= (t := {}) <= 9223372036854775807"
    " else ((t + 9223372036854775808) & 18446744073709551615)"
    " - 9223372036854775808)"
)
_WRAP_ABOVE = "(t if (t := {}) <= 9223372036854775807 else t - 18446744073709551616)"
_WRAP_BELOW = "(t if (t := {}) >= -9223372036854775808 else t + 18446744073709551616)"


def _wrap_form(e: Binary) -> str:
    """The wrap of int `e`: one-sided for a `+` or `-` with a literal
    operand L, whose other operand x lies in the int64 range. x + L and
    L + x leave it above for L >= 0 and below for L < 0; x - L the other
    way round; L - x above for L >= 0 and below for L <= -1."""
    if e.op != "*":
        if isinstance(e.right, IntLit):
            above = (e.right.value >= 0) == (e.op == "+")
            return _WRAP_ABOVE if above else _WRAP_BELOW
        if isinstance(e.left, IntLit):
            return _WRAP_ABOVE if e.left.value >= 0 else _WRAP_BELOW
    return _WRAP


def _conjuncts(e: Expr) -> list[Expr]:
    """The operands of an `&&` chain, left to right; [e] if `e` is no `&&`."""
    if isinstance(e, Binary) and e.op == "&&":
        return _conjuncts(e.left) + _conjuncts(e.right)
    return [e]


def _local(e: Expr) -> Optional[tuple[type, str]]:
    """The key of a parameter or field, None for any other expression."""
    return (type(e), e.name) if isinstance(e, (ParamRef, FieldRef)) else None


def _int_division(node: object) -> bool:
    """Whether `node` is an int `/`, which can crash with DivByZero."""
    return isinstance(node, Binary) and node.op == "/" and node.type_ != "float"


class _Emitter:
    """Writes one method body as the source of a single Python function.

    The source is `def _make(k0, k1, ...): def _run(inputs, fields, fuel):
    ...; return _run`. Each value of the method is the argument `k<i>` of
    its slot i (`CaseEvaluator._walk`), so the text holds only fixed
    keywords, operators, numbered names and pair masks. A comparison
    outside every `while` is a call `k<i>(left, right)` to its bound
    operator function. Inside a `while` condition or body (`looped`) it is
    written inline, because there it can run many times per case.
    Parameters and fields live in locals `v<i>`, read from `inputs` (a
    parameter) or `fields` (a field) at the position bound at slot i. Each
    mock key's script, at its position in `inputs`, gives a value `l<i>`
    and a cursor `c<i>`: for a one-value script its value and None, so a
    call reads `l<i>` and calls nothing; for a longer one its last value
    and an iterator over it; for no script, `_UNSCRIPTED`. Every outcome
    pair has a bit of the local mask `m` (`bits`), and each branch sets its
    pairs' bits with one `m |= <mask>`, a walrus inside a condition. A
    branch inside a `while` has a flag `f<i>`, true until the branch first
    sets its bits in the run; the conditions of a `while`'s `&&` chain have
    none (`conjunction`).
    """

    def __init__(
        self,
        decisions: list[Decision],
        call_types: dict[tuple[str, str], str],
        slots: dict[object, int],
        bits: dict[tuple[str, bool], int],
    ):
        # Decision and condition ids keyed by the id() of their AST node.
        self.decision_ids = {id(d.expr): d.id for d in decisions}
        self.atom_ids = {id(c.atom): c.id for d in decisions for c in d.conditions}
        self.call_types = call_types
        self.slots = slots  # where `CaseEvaluator._walk` bound each value
        self.bits = bits  # outcome pair -> its bit of the mask
        self.prologue: list[str] = []
        self.lines: list[str] = []
        self.named: set[int] = set()  # slots of the locals and cursors read
        self.flags = 0
        self.looped = False  # emitting a while's condition or body
        # True pairs an unmocked call's crash sets: those of the conditions
        # before it in a `while`'s `&&` chain (see `conjunction`).
        self.passed: list[tuple[str, bool]] = []

    def generate(self, body: Block) -> str:
        """The source of `_make` for a body."""
        self.block(body, 3)
        if self.flags:
            flags = " = ".join(f"f{i}" for i in range(self.flags))
            self.prologue.append(f"{flags} = True")
        pad = " " * 8
        source = "\n".join(
            [
                f"def _make({', '.join(f'k{i}' for i in range(len(self.slots)))}):",
                "    def _run(inputs, fields, fuel):",
                pad + "m = 0",
                *(pad + line for line in self.prologue),
                pad + "try:",
                *self.lines,
                pad + "except _Crash as e:",
                pad + "    return e.event, None, fuel, m",
                pad + "return None, None, fuel, m",
                "    return _run",
                "",
            ]
        )
        return source

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def flag(self) -> str:
        self.flags += 1
        return f"f{self.flags - 1}"

    # -- statements --------------------------------------------------------

    def block(self, block: Block, depth: int, then: int = 0) -> None:
        """Emit a block. Each run of quiet statements is paid in one check
        together with the statement after it (a `while` adds its first
        condition check). `then` is a charge due right after the block (a
        `while` body's next condition check), paid with its trailing run.
        No charge moves across a predicate, a crash site, a `return` or the
        join after an `if`."""
        stmts = block.stmts
        start = 0  # the first statement not yet paid for
        for i, s in enumerate(stmts):
            if self.quiet(s):
                continue
            self.charge(depth, i - start + (2 if isinstance(s, While) else 1))
            for paid in stmts[start : i + 1]:
                self.stmt(paid, depth)
            start = i + 1
        tail = len(stmts) - start + then
        if tail:
            self.charge(depth, tail)
            for paid in stmts[start:]:
                self.stmt(paid, depth)
        elif not stmts:
            self.emit(depth, "pass")

    def charge(self, depth: int, n: int) -> None:
        """Pay `n` fuel in one check. A run that cannot pay it all would
        have stopped within it, where the trace reads the same."""
        test = "fuel <= 0" if n == 1 else f"fuel < {n}"
        self.emit(depth, f"if {test}: return _OUT_OF_FUEL, None, 0, m")
        self.emit(depth, f"fuel -= {n}")

    def quiet(self, s: Stmt) -> bool:
        """Whether a statement has no observable effect before its end: an
        assignment or expression statement with no value-returning call and
        no int `/`. It records no pair (only predicates do), cannot crash
        and cannot return, so its charge may join the next one."""
        if isinstance(s, Assign):
            e = s.value
        elif isinstance(s, ExprStmt):
            e = s.expr
        else:
            return False
        for node in walk(e):
            if isinstance(node, CallExpr):
                if self.call_types.get((node.receiver.name, node.method)) != "void":
                    return False
            elif _int_division(node):
                return False
        return True

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
            test, yes, no = self.conjunction(s.cond) or self.decision(s.cond)
            # The statement's charge paid for the first check; the body
            # pays for each later one.
            start = len(self.lines)
            self.emit(depth, "while True:")
            self.emit(depth + 1, f"if not {test}:")
            if no:
                self.emit(depth + 2, no)
            self.emit(depth + 2, "break")
            self.emit(depth + 1, yes)
            self.block(s.body, depth + 1, then=1)
            self.fast_forward(s, depth, start)
            self.looped = outer
        elif isinstance(s, Assert):
            test, yes, no = self.decision(s.cond)
            failure = f"k{self.slots[id(s)]}"
            self.emit(depth, f"if not {test}:")
            self.emit(depth + 1, no)
            self.emit(depth + 1, f"return {failure}, None, fuel, m")
            self.emit(depth, yes)
        elif isinstance(s, Return):
            value = self.expr(s.value) if s.value is not None else "None"
            self.emit(depth, f"return None, {value}, fuel, m")
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
        yes = self.record([(i, True) for i in ids])
        no = self.record([(i, False) for i in ids])
        return test, yes, no

    def conjunction(self, cond: Expr) -> Optional[tuple[str, str, str]]:
        """(test, statement on true, no statement on false) of a `while`
        condition that is an `&&` chain of two or more conditions, none
        after the first holding an int `/`; None for any other predicate.
        Each condition is written `(A or ((m := m | K) and False))`: when A
        is false, one update sets its false pair, the true pairs of the
        conditions before it and the decision's false pair, so an exit
        needs no flag. Entering the body sets every true pair, once per
        run. A value-returning call after the first condition sets the
        true pairs before it as it crashes unmocked (`passed`), so a crash
        inside the condition records what per-condition updates would. An
        int `/` there could crash where no update reaches, so such a chain
        keeps the per-condition form."""
        atoms = _conjuncts(cond)
        if (
            len(atoms) < 2
            or not all(id(atom) in self.atom_ids for atom in atoms)
            or any(_int_division(node) for atom in atoms[1:] for node in walk(atom))
        ):
            return None
        did = self.decision_ids[id(cond)]
        ids = [self.atom_ids[id(atom)] for atom in atoms]
        tests = []
        for i, atom in enumerate(atoms):
            self.passed = [(c, True) for c in ids[:i]]
            code = self._expr(atom)
            exit_ = self.mask([*self.passed, (ids[i], False), (did, False)])
            tests.append(f"({code} or ((m := m | {exit_}) and False))")
        self.passed = []
        yes = self.record([*((c, True) for c in ids), (did, True)])
        return f"({' and '.join(tests)})", yes, ""

    def fast_forward(self, loop: While, depth: int, start: int) -> None:
        """Make a counting loop, emitted at depth `depth` from line `start`
        on, end each pass with a call of `_fast_forward` while the flag
        `skip`, set on entry, holds. Its condition is one condition or an
        `&&` chain, each a bool literal, local or call, or an int comparison
        of int literals, locals and calls. Its body assigns each of some int
        locals once, `x = x + e`, `x = x - e` or `x = e + x`, where `e` is an
        int literal, a call or a local the body does not assign. A call is
        read as its one-value script's value, which the helper checks."""
        leaves = (IntLit, BoolLit, ParamRef, FieldRef, CallExpr)
        steps: dict[tuple[type, str], tuple[str, Expr]] = {}
        for s in loop.body.stmts:
            e = s.value if isinstance(s, Assign) else None
            if not (isinstance(e, Binary) and e.op in ("+", "-") and e.type_ == "int"):
                return
            x = s.target
            step = e.right if e.left == x else e.left if e.right == x and e.op == "+" else None
            if not isinstance(step, leaves) or _local(x) in steps:
                return
            steps[_local(x)] = ("-" if e.op == "-" else "", step)
        if any(_local(e) in steps for _, e in steps.values()):
            return
        tests = []
        for atom in _conjuncts(loop.cond):
            if atom.type_ == "bool" and isinstance(atom, leaves):
                continue  # the body assigns no bool
            if not (
                isinstance(atom, Binary)
                and atom.op in _PY_COMPARE
                and atom.left.type_ == "int"
                and isinstance(atom.left, leaves)
                and isinstance(atom.right, leaves)
            ):
                return
            if _local(atom.left) in steps or _local(atom.right) in steps:
                tests.append(atom)

        def value(e: Expr) -> str:
            if isinstance(e, CallExpr):
                return f"l{self.slots[(e.receiver.name, e.method)]}"
            return self._expr(e)

        deltas = {key: sign + value(e) for key, (sign, e) in steps.items()}

        def side(e: Expr) -> str:
            return f"{value(e)}, {deltas.get(_local(e), 0)}"

        cursors = dict.fromkeys(
            f"c{self.slots[(e.receiver.name, e.method)]}, "
            for e in walk(loop)
            if isinstance(e, CallExpr)
        )
        tested = [f"({t.op!r}, {side(t.left)}, {side(t.right)}), " for t in tests]
        pairs = [f"(v{self.slots[key]}, {delta}), " for key, delta in deltas.items()]
        names = ", ".join(["skip", "fuel", *(f"v{self.slots[key]}" for key in steps)])
        self.lines.insert(start, "    " * depth + "skip = True")
        self.emit(
            depth + 1,
            f"if skip: {names} = _ff(fuel, {len(loop.body.stmts) + 1}, ({''.join(cursors)}),"
            f" ({''.join(tested)}), ({''.join(pairs)}))",
        )

    def mask(self, pairs: list[tuple[str, bool]]) -> str:
        """The mask of `pairs`' bits, as a literal."""
        return str(sum(1 << self.bits[p] for p in pairs))

    def record(self, pairs: list[tuple[str, bool]]) -> str:
        """The statement that sets a branch's outcome pairs' bits. Outside
        loops a branch runs at most once per run; inside, its flag makes
        every later pass skip the update."""
        update = f"m |= {self.mask(pairs)}"
        if not self.looped:
            return update
        flag = self.flag()
        return f"if {flag}: {flag} = None; {update}"

    # -- expressions -------------------------------------------------------

    def var(self, ref: Union[ParamRef, FieldRef]) -> str:
        n = self.slots[(type(ref), ref.name)]
        if n not in self.named:
            self.named.add(n)
            source = "inputs" if isinstance(ref, ParamRef) else "fields"
            self.prologue.append(f"v{n} = {source}[k{n}]")
        return f"v{n}"

    def expr(self, e: Expr) -> str:
        code = self._expr(e)
        cond_id = self.atom_ids.get(id(e))
        if cond_id is None:
            return code
        t, f = self.mask([(cond_id, True)]), self.mask([(cond_id, False)])
        if not self.looped:
            # A pair's mask is nonzero, so each arm keeps its value.
            return f"(((m := m | {t}) and True) if {code} else ((m := m | {f}) and False))"
        # The flag's walrus yields None, so each arm keeps its value
        # whatever its flag.
        ft, ff = self.flag(), self.flag()
        return (
            f"((({ft} and ((m := m | {t}) and ({ft} := None))) or True) if {code}"
            f" else (({ff} and ((m := m | {f}) and ({ff} := None))) or False))"
        )

    def _expr(self, e: Expr) -> str:
        if isinstance(e, (IntLit, FloatLit, BoolLit)):
            return f"k{self.slots[id(e)]}"
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
        if self.call_types.get(key) == "void":
            return "None"
        n = self.slots[key]
        if n not in self.named:
            self.named.add(n)
            self.prologue += [
                f"c{n} = inputs[k{n}]",
                f"if c{n} is None: c{n} = _UNSCRIPTED",
                f"elif len(c{n}) == 1: l{n} = c{n}[0]; c{n} = None",
                f"else: l{n} = c{n}[-1]; c{n} = iter(c{n})",
            ]
        crash = f"_unmocked(k{self.slots[id(e)]})"
        if self.passed:
            crash = f"((m := m | {self.mask(self.passed)}) and {crash})"
        return (
            f"(l{n} if c{n} is None else next(c{n}, l{n}) if c{n} is not _UNSCRIPTED"
            f" else {crash})"
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
            if self.looped:
                return f"({left} {_PY_COMPARE[op]} {right})"
            return f"k{self.slots[id(e)]}({left}, {right})"
        if e.type_ == "float":
            if op == "/":
                return f"_fdiv({left}, {right})"
            return f"({left} {_PY_ARITH[op]} {right})"
        if e.type_ != "int":
            raise AssertionError(f"arithmetic on {e.type_} slipped past the checker")
        if op in _PY_ARITH:
            return _wrap_form(e).format(f"{left} {_PY_ARITH[op]} {right}")
        return f"_div({left}, {right}, k{self.slots[id(e)]})"


# `_make` per shape key (`CaseEvaluator._walk`) and per source, so keys that
# write one text share one compiled function, each method binding its own
# values to it. A key finer than the shape costs one more text pass; a
# coarser one would bind a method to another shape's runner.
_MAKERS: dict[Union[tuple, str], Callable[..., _Runner]] = {}


class CaseEvaluator:
    """Prepared executor for one (class, method): parse once, run many cases.

    Exposes the method's decisions and their outcome pairs, which coverage
    checks every trace's outcomes against. The body is compiled on the
    first read of `runner`, so evaluators that never run a case (such as
    those of decision-free methods) pay nothing for it.
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
        method = cls.all_methods.get(method_name)
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
        # What a case may set: parameters in declaration order, and scalar
        # fields (`field_types`).
        self.param_types = {p.name: p.type for p in method.params}

    @cached_property
    def field_types(self) -> dict[str, str]:
        """The scalar fields a case may set, inherited ones included, by name."""
        fields = self.cls.all_fields.values()
        return {f.name: f.type for f in fields if type(f.type) is str}

    @cached_property
    def mock_types(self) -> dict[tuple[str, str], str]:
        """Value type per value-returning call site, in `call_types` order:
        the mock scripts a case of the method may need."""
        return {k: t for k, t in self.method.call_types.items() if t != "void"}

    def mock_type(self, key: tuple[str, str]) -> str:
        """The scripted type of mock key (field, method), which must name a
        value-returning method of a reference field's class."""
        f_name, m_name = key
        ref = self.cls.all_fields.get(f_name)
        if ref is None or not isinstance(ref.type, RefType):
            raise ContractViolation(f"mock key {key} names no reference field")
        dep = self.unit.class_named(ref.type.class_name)
        if dep is None:
            return EXTERN_CALL_TYPE
        m = dep.all_methods.get(m_name)
        if m is None or m.return_type == "void":
            raise ContractViolation(f"no scriptable method for mock key {key}")
        return m.return_type

    @cached_property
    def pairs_by_bit(self) -> tuple[tuple[str, bool], ...]:
        """Every pair of `pairs` once, in decision order: bit i of a
        `runner` mask stands for pair i. Built on first use."""
        ids = [i for d in self.decisions for i in (d.id, *(c.id for c in d.conditions))]
        return tuple((i, value) for i in ids for value in (True, False))

    def _walk(self) -> tuple[tuple, list[object], dict[object, int]]:
        """One pre-order walk of the body: its shape key, its values in walk
        order and each value's slot (index) by the id() of its node or, for
        a position, by its local or mock key. The key holds each node's
        class and `type_`, block lengths, None for a missing `else` or
        return value, each `Binary`'s operator (None for a comparison outside
        every `while`) and int wrap form, and each local's and mock key's
        slot (None for a void call). It fixes the text `_source` writes."""
        inputs = [*[(ParamRef, name) for name in self.param_types], *self.mock_types]
        positions = {key: i for i, key in enumerate(inputs)}
        positions.update({(FieldRef, name): i for i, name in enumerate(self.field_types)})
        call_types = self.method.call_types
        key: list[object] = []
        values: list[object] = []
        slots: dict[object, int] = {}
        add = key.append

        def bind(at: object, value: object) -> None:
            if at not in slots:  # a local or mock key binds at first use
                slots[at] = len(values)
                values.append(value)

        def expr(e: Expr, looped: bool) -> None:
            cls = type(e)
            add(cls)
            add(e.type_)
            if cls is Binary:
                if e.op in _COMPARE_FN and not looped:
                    add(None)
                    bind(id(e), _COMPARE_FN[e.op])
                else:
                    add(e.op)
                    if e.type_ == "int" and e.op == "/":
                        bind(id(e), Event(DIV_BY_ZERO, e.span))
                    elif e.type_ == "int":
                        add(_wrap_form(e))
                expr(e.left, looped)
                expr(e.right, looped)
            elif cls is Unary:
                expr(e.operand, looped)
            elif cls is CallExpr:
                site = (e.receiver.name, e.method)
                if call_types.get(site) != "void":
                    bind(site, positions[site])
                    bind(id(e), Event(UNMOCKED_CALL, e.span))
                add(slots.get(site))
            elif cls is ParamRef or cls is FieldRef:
                bind((cls, e.name), positions[(cls, e.name)])
                add(slots[(cls, e.name)])
            else:  # a literal
                bind(id(e), e.value)

        def block(b: Block, looped: bool) -> None:
            add(len(b.stmts))
            for s in b.stmts:
                cls = type(s)
                add(cls)
                if cls is Assert:
                    bind(id(s), Event(ASSERT_FAILURE, s.span))
                inner = looped or cls is While
                for name in cls.__slots__[:-1]:  # its fields before `span`
                    part = getattr(s, name)
                    if part is None:  # no `else`, or no return value
                        add(None)
                    elif type(part) is Block:
                        block(part, inner)
                    else:
                        expr(part, inner)

        block(self.method.body, False)
        return tuple(key), values, slots

    def _source(self, slots: dict[object, int]) -> str:
        """The source of the method's `_make`, whose arguments are the values
        that `_walk` bound at `slots`."""
        bits = {pair: i for i, pair in enumerate(self.pairs_by_bit)}
        emitter = _Emitter(self.decisions, self.method.call_types, slots, bits)
        return emitter.generate(self.method.body)

    @cached_property
    def runner(self) -> _Runner:
        """The method compiled (see `_Runner`): its values bound to its
        shape's `_make`, writing and compiling the shape's source if no
        method has yet. Like `run`, it trusts its inputs."""
        key, values, slots = self._walk()
        make = _MAKERS.get(key)
        if make is None:
            source = self._source(slots)
            if source not in _MAKERS:
                namespace = dict(_GENERATED_GLOBALS)
                exec(compile(source, "<ultgen generated>", "exec"), namespace)
                _MAKERS[source] = namespace["_make"]
            make = _MAKERS[key] = _MAKERS[source]
        return make(*values)

    # -- case validation ---------------------------------------------------

    def check(self, case: "TestCase") -> None:
        """Raise ContractViolation unless the case gives every parameter and
        only declared ones, and every value fits its declared type: scalar
        fields by name, and each mock script is nonempty and names a
        value-returning method of a reference field. An int given for a
        float input is stored back as that float (see `fit`). `run` assumes
        all this; every case read from a file passes here first."""
        declared = self.param_types
        given = case.param_values
        if given.keys() != declared.keys():
            missing = sorted(declared.keys() - given.keys())
            if missing:
                raise ContractViolation(f"missing parameter values: {missing}")
            extra = sorted(given.keys() - declared.keys())
            raise ContractViolation(f"unknown parameters: {extra}")
        for name, value in given.items():
            given[name] = fit(declared[name], value, f"parameter {name!r}")
        fields = self.field_types
        for name, value in case.field_values.items():
            if name not in fields:
                raise ContractViolation(f"unknown scalar field {name!r}")
            case.field_values[name] = fit(fields[name], value, f"field {name!r}")
        for key, script in case.mock_plan.items():
            expect = self.mock_types.get(key)
            if expect is None:
                expect = self._checked_mock_type(key, script)
            elif not script:
                raise ContractViolation(f"empty mock script for {key}")
            script[:] = check_values(expect, script, f"mock {key[0]}->{key[1]}()")

    def _checked_mock_type(self, key: tuple[str, str], script: list[Scalar]) -> str:
        """The scripted type of a mock key with no value-returning call site
        in the body, after every check on the key, in order: reference
        field, void call site, empty script, scriptable method."""
        ref = self.cls.all_fields.get(key[0])
        if ref is not None and isinstance(ref.type, RefType):
            if self.method.call_types.get(key) == "void":
                raise ContractViolation(f"call {key[0]}->{key[1]}() returns void")
            if not script:
                raise ContractViolation(f"empty mock script for {key}")
        return self.mock_type(key)

    # -- execution ---------------------------------------------------------

    def inputs(self, case: "TestCase") -> tuple:
        """The runner's input vector of a case (see `_Runner`)."""
        params, scripts = case.param_values, case.mock_plan
        return (
            *[params[name] for name in self.param_types],
            *[scripts.get(key) for key in self.mock_types],
        )

    def fields(self, values: dict[str, Scalar]) -> list[Scalar]:
        """The runner's field vector (see `_Runner`): each scalar field's
        value in `values`, or its type default."""
        types = self.field_types
        return list(map(values.get, types, map(TYPE_DEFAULTS.__getitem__, types.values())))

    def outcomes(self, mask: int) -> frozenset[tuple[str, bool]]:
        """The outcome pairs of a mask that `runner` returned."""
        pairs = self.pairs_by_bit
        return frozenset(pairs[i] for i in range(mask.bit_length()) if mask >> i & 1)

    def run(self, case: "TestCase") -> ExecutionTrace:
        """The trace of one case, which must be one that `check` accepts:
        run does not check it."""
        fields = self.fields(case.field_values)
        crash, ret, left, mask = self.runner(self.inputs(case), fields, self.fuel)
        return ExecutionTrace(self.outcomes(mask), crash, self.fuel - left, ret)
