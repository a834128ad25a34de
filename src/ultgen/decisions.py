"""Decision and condition extraction from method bodies.

A decision is a full branch predicate (if/while/assert). Its conditions are
the maximal subexpressions containing no `&&`, `||`, or `!`; negation and
the logical connectives are decision structure, not conditions. Each
condition is classified by what drives it: input parameters, dependency
call returns, both, or neither (fields/constants only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

from .cutlang.nodes import (
    Assert,
    Binary,
    Block,
    BoolLit,
    CallExpr,
    Expr,
    FloatLit,
    If,
    IntLit,
    MethodDecl,
    ParamRef,
    Unary,
    While,
    walk,
)

PARAMETER_DRIVEN = "ParameterDriven"
CALL_DRIVEN = "CallDriven"
FIELD_DRIVEN = "FieldDriven"
MIXED = "Mixed"

# (type name, value) pairs; the type tag keeps int 1 and float 1.0 distinct
# inside one set, which plain Python equality would collapse.
Literal = tuple[str, Union[int, float, bool]]
CallSite = tuple[str, str]  # (receiver field, method)


@dataclass(frozen=True)
class Condition:
    id: str  # "<Class>.<method>:D<n>.c<i>"
    atom: Expr
    driver: str
    referenced_params: frozenset[str]
    referenced_calls: frozenset[CallSite]
    compared_literals: frozenset[Literal]


@dataclass(frozen=True)
class Decision:
    id: str  # "<Class>.<method>:D<n>"
    kind: str  # "if" | "while" | "assert"
    expr: Expr
    conditions: tuple[Condition, ...]


def _split(e: Expr) -> Optional[list[Expr]]:
    """The conditions of `e`, left to right, or None when `e` holds no
    logical operator and so is one condition itself. Only `!` (the one
    unary operator) and binary operators can hold one: calls take no
    arguments."""
    if isinstance(e, Unary):
        inner = _split(e.operand)
        return [e.operand] if inner is None else inner
    if isinstance(e, Binary):
        left, right = _split(e.left), _split(e.right)
        # Covers && and ||, and also non-logical operators (e.g. ==)
        # whose operands contain logical subtrees.
        if left is None and right is None and e.op not in ("&&", "||"):
            return None
        return ([e.left] if left is None else left) + (
            [e.right] if right is None else right
        )
    return None


def split_conditions(expr: Expr) -> list[Expr]:
    """Maximal logical-operator-free subexpressions, left to right."""
    atoms = _split(expr)
    return [expr] if atoms is None else atoms


def classify_atom(atom: Expr) -> tuple[str, frozenset[str], frozenset[CallSite], frozenset[Literal]]:
    """Driver class plus the referenced params/calls and literal constants."""
    params: set[str] = set()
    calls: set[CallSite] = set()
    literals: set[Literal] = set()
    for node in walk(atom):
        if isinstance(node, ParamRef):
            params.add(node.name)
        elif isinstance(node, CallExpr):
            calls.add((node.receiver.name, node.method))
        elif isinstance(node, IntLit):
            literals.add(("int", node.value))
        elif isinstance(node, FloatLit):
            literals.add(("float", node.value))
        elif isinstance(node, BoolLit):
            literals.add(("bool", node.value))
    if params and calls:
        driver = MIXED
    elif params:
        driver = PARAMETER_DRIVEN
    elif calls:
        driver = CALL_DRIVEN
    else:
        # Only fields or constants decide this atom; constant-only atoms
        # land here too since neither policy bucket can apply to them.
        driver = FIELD_DRIVEN
    return driver, frozenset(params), frozenset(calls), frozenset(literals)


def _predicates(block: Block) -> Iterator[tuple[str, Expr]]:
    """(kind, predicate) in statement pre-order."""
    for stmt in block.stmts:
        if isinstance(stmt, If):
            yield "if", stmt.cond
            yield from _predicates(stmt.then)
            if stmt.els is not None:
                yield from _predicates(stmt.els)
        elif isinstance(stmt, While):
            yield "while", stmt.cond
            yield from _predicates(stmt.body)
        elif isinstance(stmt, Assert):
            yield "assert", stmt.cond


def extract_decisions(method: MethodDecl, class_name: str) -> list[Decision]:
    """One Decision per if/while/assert predicate, dense pre-order ordinals.

    The returned expressions alias the method's AST nodes, so identity-based
    lookups built from this list work against the same tree.
    """
    out: list[Decision] = []
    prefix = f"{class_name}.{method.name}"
    for n, (kind, expr) in enumerate(_predicates(method.body), start=1):
        did = f"{prefix}:D{n}"
        conditions = []
        for i, atom in enumerate(split_conditions(expr), start=1):
            driver, params, calls, literals = classify_atom(atom)
            conditions.append(
                Condition(
                    id=f"{did}.c{i}",
                    atom=atom,
                    driver=driver,
                    referenced_params=params,
                    referenced_calls=calls,
                    compared_literals=literals,
                )
            )
        out.append(Decision(did, kind, expr, tuple(conditions)))
    return out


def all_pairs(decisions: Sequence[Decision]) -> frozenset[tuple[str, bool]]:
    """Both outcomes of every decision and condition."""
    pairs: set[tuple[str, bool]] = set()
    for d in decisions:
        pairs.add((d.id, True))
        pairs.add((d.id, False))
        for c in d.conditions:
            pairs.add((c.id, True))
            pairs.add((c.id, False))
    return frozenset(pairs)


def decisions_table(decisions: list[Decision]) -> list[dict]:
    """JSON-friendly rendering used by the CLI and reports."""
    from .cutlang.printer import print_expr

    rows = []
    for d in decisions:
        rows.append(
            {
                "id": d.id,
                "kind": d.kind,
                "expr": print_expr(d.expr),
                "conditions": [
                    {
                        "id": c.id,
                        "atom": print_expr(c.atom),
                        "driver": c.driver,
                        "params": sorted(c.referenced_params),
                        "calls": sorted(f"{f}->{m}" for f, m in c.referenced_calls),
                        "literals": sorted(
                            (t, repr(v)) for t, v in c.compared_literals
                        ),
                    }
                    for c in d.conditions
                ],
            }
        )
    return rows
