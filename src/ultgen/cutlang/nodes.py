"""AST node types for the CUT-lang class subset.

Nodes are plain dataclasses. Source spans and checker-derived types are
excluded from equality so structural comparison ignores layout: two parses
of differently formatted but identical programs compare equal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from typing import Iterator, Optional, Union

INT_MIN = -(1 << 63)
INT_MAX = (1 << 63) - 1

SCALAR_TYPES = ("int", "bool", "float")


@dataclass(frozen=True)
class Span:
    """Half-open byte range [lo, hi) plus the 1-based line/column of lo."""

    lo: int
    hi: int
    line: int
    column: int


NO_SPAN = Span(0, 0, 0, 0)


@dataclass(frozen=True)
class RefType:
    """Type of a reference field, ``ClassName* name;``."""

    class_name: str

    def __str__(self) -> str:
        return f"{self.class_name}*"


FieldType = Union[str, RefType]


# --- Expressions -----------------------------------------------------------

@dataclass
class IntLit:
    value: int
    span: Span = field(default=NO_SPAN, compare=False)
    type_: Optional[FieldType] = field(default=None, compare=False)


@dataclass
class BoolLit:
    value: bool
    span: Span = field(default=NO_SPAN, compare=False)
    type_: Optional[FieldType] = field(default=None, compare=False)


@dataclass
class FloatLit:
    value: float
    span: Span = field(default=NO_SPAN, compare=False)
    type_: Optional[FieldType] = field(default=None, compare=False)


@dataclass
class ParamRef:
    name: str
    span: Span = field(default=NO_SPAN, compare=False)
    type_: Optional[FieldType] = field(default=None, compare=False)


@dataclass
class FieldRef:
    name: str
    span: Span = field(default=NO_SPAN, compare=False)
    type_: Optional[FieldType] = field(default=None, compare=False)


@dataclass
class CallExpr:
    """Zero-argument call through a reference field: ``recv->method()``."""

    receiver: FieldRef
    method: str
    span: Span = field(default=NO_SPAN, compare=False)
    type_: Optional[FieldType] = field(default=None, compare=False)


@dataclass
class Unary:
    op: str  # only "!"
    operand: "Expr"
    span: Span = field(default=NO_SPAN, compare=False)
    type_: Optional[FieldType] = field(default=None, compare=False)


@dataclass
class Binary:
    op: str
    left: "Expr"
    right: "Expr"
    span: Span = field(default=NO_SPAN, compare=False)
    type_: Optional[FieldType] = field(default=None, compare=False)


Expr = Union[IntLit, BoolLit, FloatLit, ParamRef, FieldRef, CallExpr, Unary, Binary]


# --- Statements ------------------------------------------------------------

@dataclass
class Block:
    stmts: list["Stmt"]
    span: Span = field(default=NO_SPAN, compare=False)


@dataclass
class If:
    cond: Expr
    then: Block
    els: Optional[Block]
    span: Span = field(default=NO_SPAN, compare=False)


@dataclass
class While:
    cond: Expr
    body: Block
    span: Span = field(default=NO_SPAN, compare=False)


@dataclass
class Return:
    value: Optional[Expr]
    span: Span = field(default=NO_SPAN, compare=False)


@dataclass
class Assign:
    target: Union[ParamRef, FieldRef]
    value: Expr
    span: Span = field(default=NO_SPAN, compare=False)


@dataclass
class ExprStmt:
    expr: Expr
    span: Span = field(default=NO_SPAN, compare=False)


@dataclass
class Assert:
    cond: Expr
    span: Span = field(default=NO_SPAN, compare=False)


Stmt = Union[If, While, Return, Assign, ExprStmt, Assert]


# --- Declarations ----------------------------------------------------------

@dataclass
class FieldDecl:
    name: str
    type: FieldType
    access: str = "public"
    span: Span = field(default=NO_SPAN, compare=False)


@dataclass
class Param:
    name: str
    type: str  # scalar type name
    span: Span = field(default=NO_SPAN, compare=False)


@dataclass
class MethodDecl:
    name: str
    params: list[Param]
    return_type: str  # scalar type name or "void"
    body: Block
    access: str = "public"
    span: Span = field(default=NO_SPAN, compare=False)


@dataclass
class ClassDecl:
    name: str
    base: Optional[str]
    fields: list[FieldDecl]
    methods: list[MethodDecl]
    span: Span = field(default=NO_SPAN, compare=False)

    @property
    def dependencies(self) -> frozenset[str]:
        """Class names referenced by this class's own reference fields."""
        return frozenset(
            f.type.class_name for f in self.fields if isinstance(f.type, RefType)
        )

    def method_named(self, name: str) -> Optional[MethodDecl]:
        for m in self.methods:
            if m.name == name:
                return m
        return None


@dataclass
class ExternDecl:
    """``extern class Name;`` -- a name-only declaration with no known surface."""

    name: str
    span: Span = field(default=NO_SPAN, compare=False)


Decl = Union[ClassDecl, ExternDecl]


@dataclass
class SourceUnit:
    path: str
    decls: list[Decl]

    def __post_init__(self) -> None:
        # name -> first ClassDecl of that name among decls[:_indexed]. Not a
        # dataclass field, so equality, repr and walk() ignore it.
        self._class_index: dict[str, ClassDecl] = {}
        self._indexed = 0

    @property
    def classes(self) -> list[ClassDecl]:
        return [d for d in self.decls if isinstance(d, ClassDecl)]

    @property
    def externs(self) -> list[ExternDecl]:
        return [d for d in self.decls if isinstance(d, ExternDecl)]

    def class_named(self, name: str) -> Optional[ClassDecl]:
        """The first class declared with this name, or None.

        ``decls`` is append-only (the parser appends while it reads), so
        the index only has to take in declarations added since last time.
        """
        if self._indexed < len(self.decls):
            for d in self.decls[self._indexed :]:
                if isinstance(d, ClassDecl):
                    self._class_index.setdefault(d.name, d)
            self._indexed = len(self.decls)
        return self._class_index.get(name)


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    """Field names of a node class; dataclasses.fields() is too slow to call
    once per visited node."""
    return tuple(f.name for f in fields(cls))


def walk(node: object) -> Iterator[object]:
    """Yield ``node`` and every AST node reachable from it, pre-order."""
    yield node
    if not hasattr(node, "__dataclass_fields__"):
        return
    for name in _field_names(type(node)):
        value = getattr(node, name)
        if isinstance(value, (Span, RefType)):
            continue
        if isinstance(value, list):
            for item in value:
                if hasattr(item, "__dataclass_fields__"):
                    yield from walk(item)
        elif hasattr(value, "__dataclass_fields__"):
            yield from walk(value)
