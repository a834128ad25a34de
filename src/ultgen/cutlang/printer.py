"""Canonical pretty-printer for CUT-lang ASTs.

The output re-parses to a structurally equal tree (round-trip stability) and
is byte-stable for identical trees. The decisions table renders expressions
with it. Style: 4-space indent, braces on their own lines.
"""

from __future__ import annotations

from .nodes import (
    Assert,
    Assign,
    Binary,
    Block,
    BoolLit,
    CallExpr,
    ClassDecl,
    Expr,
    ExternDecl,
    FieldRef,
    FloatLit,
    If,
    IntLit,
    MethodDecl,
    ParamRef,
    RefType,
    Return,
    SourceUnit,
    Stmt,
    Unary,
    While,
)

_PREC = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
}
_UNARY_PREC = 7


def print_expr(e: Expr) -> str:
    return _expr(e, 0)


def _expr(e: Expr, parent_prec: int, right_of_same: bool = False) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, FloatLit):
        return _float_text(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, (ParamRef, FieldRef)):
        return e.name
    if isinstance(e, CallExpr):
        return f"{e.receiver.name}->{e.method}()"
    if isinstance(e, Unary):
        inner = _expr(e.operand, _UNARY_PREC)
        return f"!{inner}"
    if isinstance(e, Binary):
        prec = _PREC[e.op]
        left = _expr(e.left, prec)
        right = _expr(e.right, prec, right_of_same=True)
        text = f"{left} {e.op} {right}"
        if prec < parent_prec or (prec == parent_prec and right_of_same):
            return f"({text})"
        return text
    raise AssertionError(f"unhandled expression {e!r}")


def _float_text(value: float) -> str:
    """Floats in a form the lexer accepts (no bare '1e999', no 'inf')."""
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError("non-finite float literals cannot be printed")
    text = repr(value)
    if "e" not in text and "E" not in text and "." not in text:
        text += ".0"
    return text


def _stmt(s: Stmt, indent: int, out: list[str]) -> None:
    pad = "    " * indent
    if isinstance(s, If):
        out.append(f"{pad}if ({print_expr(s.cond)})")
        _block(s.then, indent, out)
        if s.els is not None:
            out.append(f"{pad}else")
            _block(s.els, indent, out)
        return
    if isinstance(s, While):
        out.append(f"{pad}while ({print_expr(s.cond)})")
        _block(s.body, indent, out)
        return
    if isinstance(s, Return):
        if s.value is None:
            out.append(f"{pad}return;")
        else:
            out.append(f"{pad}return {print_expr(s.value)};")
        return
    if isinstance(s, Assign):
        out.append(f"{pad}{s.target.name} = {print_expr(s.value)};")
        return
    if isinstance(s, Assert):
        out.append(f"{pad}assert({print_expr(s.cond)});")
        return
    out.append(f"{pad}{print_expr(s.expr)};")


def _block(b: Block, indent: int, out: list[str]) -> None:
    pad = "    " * indent
    out.append(f"{pad}{{")
    for s in b.stmts:
        _stmt(s, indent + 1, out)
    out.append(f"{pad}}}")


def print_method(m: MethodDecl, indent: int = 0) -> str:
    out: list[str] = []
    pad = "    " * indent
    params = ", ".join(f"{p.type} {p.name}" for p in m.params)
    out.append(f"{pad}{m.return_type} {m.name}({params})")
    _block(m.body, indent, out)
    return "\n".join(out)


def print_class(c: ClassDecl) -> str:
    out: list[str] = []
    head = f"class {c.name}"
    if c.base is not None:
        head += f" : public {c.base}"
    out.append(head)
    out.append("{")
    for f in c.fields:
        if isinstance(f.type, RefType):
            out.append(f"    {f.type.class_name}* {f.name};")
        else:
            out.append(f"    {f.type} {f.name};")
    for m in c.methods:
        out.append(print_method(m, indent=1))
    out.append("};")
    return "\n".join(out)


def print_unit(unit: SourceUnit) -> str:
    parts: list[str] = []
    for decl in unit.decls:
        if isinstance(decl, ExternDecl):
            parts.append(f"extern class {decl.name};")
        else:
            parts.append(print_class(decl))
    return "\n\n".join(parts) + ("\n" if parts else "")
