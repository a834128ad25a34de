"""AST node types for the CUT-lang class subset.

Nodes are plain classes with `__slots__`, so a node is one object rather
than one plus a `__dict__`, and `walk` reads its fields from `__slots__`.
Each class lists its fields there in declaration order: the constructor's
fields, then the resolver's tables. Source spans and checker-derived
types are excluded from equality so structural comparison ignores layout:
two parses of differently formatted but identical programs compare equal.

A `Span` is a plain tuple `(lo, hi, line, column)`: the node's source
text is [lo, hi), and lo is at the 1-based line and column. Like a token
(lexer.py), it is an exact tuple, which the garbage collector stops
tracking; a NamedTuple would stay tracked as long as its node lives.

The parser's resolver fills in what name resolution finds, once, and later
stages read it instead of walking the tree again: each expression's
`type_`, each class's `all_fields`/`all_methods` (own members plus
inherited ones, which the evaluator reads for a method's inputs and mock
keys), and each method's `call_types` (the evaluator's mock types and
emitted call sites). `SourceUnit.class_named` answers from an index built
when the unit is made. The tables are dicts kept out of the constructor,
equality and repr, and `walk` does not enter them.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Union

INT_MIN = -(1 << 63)
INT_MAX = (1 << 63) - 1

SCALAR_TYPES = ("int", "bool", "float")

# The type of every call on an extern dependency, whose surface is unknown.
EXTERN_CALL_TYPE = "int"

Span = tuple[int, int, int, int]  # (lo, hi, line, column)
NO_SPAN = (0, 0, 0, 0)


class RefType(NamedTuple):
    """Type of a reference field, ``ClassName* name;``."""

    class_name: str

    def __str__(self) -> str:
        return f"{self.class_name}*"


FieldType = Union[str, RefType]

# The resolver's tables, left out of equality and repr.
_TABLES = frozenset({"call_types", "all_fields", "all_methods", "_class_index"})
_UNCOMPARED = _TABLES | {"span", "type_"}


class Node:
    """Base of every AST node. Two nodes are equal when they are of the same
    class and their fields other than `span`, `type_` and the tables are
    equal. Nodes are mutable, so they are unhashable."""

    __slots__ = ()
    __hash__ = None
    _compared: tuple[str, ...] = ()
    _shown: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._compared = tuple(n for n in cls.__slots__ if n not in _UNCOMPARED)
        cls._shown = tuple(n for n in cls.__slots__ if n not in _TABLES)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self._compared
        return tuple([getattr(self, n) for n in names]) == tuple(
            [getattr(other, n) for n in names]
        )

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._shown)
        return f"{self.__class__.__qualname__}({shown})"


# --- Expressions -----------------------------------------------------------

class IntLit(Node):
    __slots__ = ("value", "span", "type_")

    def __init__(
        self, value: int, span: Span = NO_SPAN, type_: Optional[FieldType] = None
    ) -> None:
        self.value = value
        self.span = span
        self.type_ = type_


class BoolLit(Node):
    __slots__ = ("value", "span", "type_")

    def __init__(
        self, value: bool, span: Span = NO_SPAN, type_: Optional[FieldType] = None
    ) -> None:
        self.value = value
        self.span = span
        self.type_ = type_


class FloatLit(Node):
    __slots__ = ("value", "span", "type_")

    def __init__(
        self, value: float, span: Span = NO_SPAN, type_: Optional[FieldType] = None
    ) -> None:
        self.value = value
        self.span = span
        self.type_ = type_


class ParamRef(Node):
    __slots__ = ("name", "span", "type_")

    def __init__(
        self, name: str, span: Span = NO_SPAN, type_: Optional[FieldType] = None
    ) -> None:
        self.name = name
        self.span = span
        self.type_ = type_


class FieldRef(Node):
    __slots__ = ("name", "span", "type_")

    def __init__(
        self, name: str, span: Span = NO_SPAN, type_: Optional[FieldType] = None
    ) -> None:
        self.name = name
        self.span = span
        self.type_ = type_


class CallExpr(Node):
    """Zero-argument call through a reference field: ``recv->method()``."""

    __slots__ = ("receiver", "method", "span", "type_")

    def __init__(
        self,
        receiver: FieldRef,
        method: str,
        span: Span = NO_SPAN,
        type_: Optional[FieldType] = None,
    ) -> None:
        self.receiver = receiver
        self.method = method
        self.span = span
        self.type_ = type_


class Unary(Node):
    __slots__ = ("op", "operand", "span", "type_")

    def __init__(
        self,
        op: str,  # only "!"
        operand: Expr,
        span: Span = NO_SPAN,
        type_: Optional[FieldType] = None,
    ) -> None:
        self.op = op
        self.operand = operand
        self.span = span
        self.type_ = type_


class Binary(Node):
    __slots__ = ("op", "left", "right", "span", "type_")

    def __init__(
        self,
        op: str,
        left: Expr,
        right: Expr,
        span: Span = NO_SPAN,
        type_: Optional[FieldType] = None,
    ) -> None:
        self.op = op
        self.left = left
        self.right = right
        self.span = span
        self.type_ = type_


Expr = Union[IntLit, BoolLit, FloatLit, ParamRef, FieldRef, CallExpr, Unary, Binary]


# --- Statements ------------------------------------------------------------

class Block(Node):
    __slots__ = ("stmts", "span")

    def __init__(self, stmts: list[Stmt], span: Span = NO_SPAN) -> None:
        self.stmts = stmts
        self.span = span


class If(Node):
    __slots__ = ("cond", "then", "els", "span")

    def __init__(
        self, cond: Expr, then: Block, els: Optional[Block], span: Span = NO_SPAN
    ) -> None:
        self.cond = cond
        self.then = then
        self.els = els
        self.span = span


class While(Node):
    __slots__ = ("cond", "body", "span")

    def __init__(self, cond: Expr, body: Block, span: Span = NO_SPAN) -> None:
        self.cond = cond
        self.body = body
        self.span = span


class Return(Node):
    __slots__ = ("value", "span")

    def __init__(self, value: Optional[Expr], span: Span = NO_SPAN) -> None:
        self.value = value
        self.span = span


class Assign(Node):
    __slots__ = ("target", "value", "span")

    def __init__(
        self, target: Union[ParamRef, FieldRef], value: Expr, span: Span = NO_SPAN
    ) -> None:
        self.target = target
        self.value = value
        self.span = span


class ExprStmt(Node):
    __slots__ = ("expr", "span")

    def __init__(self, expr: Expr, span: Span = NO_SPAN) -> None:
        self.expr = expr
        self.span = span


class Assert(Node):
    __slots__ = ("cond", "span")

    def __init__(self, cond: Expr, span: Span = NO_SPAN) -> None:
        self.cond = cond
        self.span = span


Stmt = Union[If, While, Return, Assign, ExprStmt, Assert]


# --- Declarations ----------------------------------------------------------

class FieldDecl(Node):
    __slots__ = ("name", "type", "access", "span")

    def __init__(
        self, name: str, type: FieldType, access: str = "public", span: Span = NO_SPAN
    ) -> None:
        self.name = name
        self.type = type
        self.access = access
        self.span = span


class Param(Node):
    __slots__ = ("name", "type", "span")

    def __init__(self, name: str, type: str, span: Span = NO_SPAN) -> None:
        self.name = name
        self.type = type  # scalar type name
        self.span = span


class MethodDecl(Node):
    __slots__ = (
        "name", "params", "return_type", "body", "access", "span", "call_types",
    )

    def __init__(
        self,
        name: str,
        params: list[Param],
        return_type: str,  # scalar type name or "void"
        body: Block,
        access: str = "public",
        span: Span = NO_SPAN,
    ) -> None:
        self.name = name
        self.params = params
        self.return_type = return_type
        self.body = body
        self.access = access
        self.span = span
        # Set by the checker: the type of each (field, method) call key of
        # the body, in pre-order of first use.
        self.call_types: dict[tuple[str, str], str] = {}


class ClassDecl(Node):
    __slots__ = (
        "name", "base", "fields", "methods", "span", "all_fields", "all_methods",
    )

    def __init__(
        self,
        name: str,
        base: Optional[str],
        fields: list[FieldDecl],
        methods: list[MethodDecl],
        span: Span = NO_SPAN,
    ) -> None:
        self.name = name
        self.base = base
        self.fields = fields
        self.methods = methods
        self.span = span
        # Set by the resolver: members by name, inherited ones first, each
        # override in place of the method it overrides.
        self.all_fields: dict[str, FieldDecl] = {}
        self.all_methods: dict[str, MethodDecl] = {}

    @property
    def dependencies(self) -> list[str]:
        """Class names referenced by this class's own reference fields, in
        first-reference order, each once."""
        refs = (f.type for f in self.fields if isinstance(f.type, RefType))
        return list(dict.fromkeys(ref.class_name for ref in refs))


class ExternDecl(Node):
    """``extern class Name;`` -- a name-only declaration with no known surface."""

    __slots__ = ("name", "span")

    def __init__(self, name: str, span: Span = NO_SPAN) -> None:
        self.name = name
        self.span = span


Decl = Union[ClassDecl, ExternDecl]


class SourceUnit(Node):
    __slots__ = ("path", "decls", "_class_index")

    def __init__(self, path: str, decls: list[Decl]) -> None:
        self.path = path
        self.decls = decls
        # name -> first ClassDecl of that name, built once decls is complete.
        self._class_index: dict[str, ClassDecl] = {}
        for d in decls:
            if isinstance(d, ClassDecl):
                self._class_index.setdefault(d.name, d)

    @property
    def classes(self) -> list[ClassDecl]:
        return [d for d in self.decls if isinstance(d, ClassDecl)]

    @property
    def externs(self) -> list[ExternDecl]:
        return [d for d in self.decls if isinstance(d, ExternDecl)]

    def class_named(self, name: str) -> Optional[ClassDecl]:
        """The first class declared with this name, or None."""
        return self._class_index.get(name)


def walk(node: object) -> Iterator[object]:
    """Yield ``node`` and every AST node reachable from it, pre-order."""
    yield node
    if not isinstance(node, Node):
        return
    # A node's fields in declaration order. Spans and types are not nodes,
    # and the tables are dicts, so neither is entered.
    for name in node.__slots__:
        value = getattr(node, name)
        if isinstance(value, list):
            for item in value:
                if isinstance(item, Node):
                    yield from walk(item)
        elif isinstance(value, Node):
            yield from walk(value)
