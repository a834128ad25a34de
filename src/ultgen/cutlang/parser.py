"""Recursive-descent parser and type checker for CUT-lang.

`parse_source` runs two passes: a syntax pass producing an untyped tree,
then a resolution pass that binds names (parameter vs field), checks types,
and enforces unit-level invariants. Grammar reference: docs/cutlang.md.

The syntax pass reads the token list through a cursor: `_Parser.cur` is
a plain attribute that `advance` moves on. Token texts of different
kinds never coincide (no identifier spells a keyword, no punctuation is
alphanumeric), so a keyword or punctuation token is matched by its text
alone, and each node's span is a NamedTuple built positionally.

The resolution pass is the one place that resolves names, and it keeps
what it finds on the tree: every expression's `type_`, each class's
`all_fields`/`all_methods` (inherited members included) and each method's
`call_types` (the type of each dependency call key, `int` for an extern
dependency). The case evaluator, and the case builder through it, reads
these instead of resolving again.
"""

from __future__ import annotations

from typing import Optional, Union

from ..errors import DuplicateName, ParseError, TypeCheckError
from .lexer import Token, tokenize
from .nodes import (
    INT_MAX,
    INT_MIN,
    SCALAR_TYPES,
    Assert,
    Assign,
    Binary,
    Block,
    BoolLit,
    CallExpr,
    ClassDecl,
    Decl,
    Expr,
    ExprStmt,
    ExternDecl,
    FieldDecl,
    FieldRef,
    FloatLit,
    If,
    IntLit,
    MethodDecl,
    Param,
    ParamRef,
    RefType,
    Return,
    SourceUnit,
    Span,
    Stmt,
    Unary,
    While,
)

_new = tuple.__new__  # builds a NamedTuple positionally, without its __new__

_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")

# How deeply a method may nest, set so that every method the parser accepts
# compiles to the generated code the evaluator runs (interp.py). CPython
# compiles at most 20 nested blocks, and expressions about 96 deep.
MAX_BLOCK_DEPTH = 16  # if/while statements nested in one another
MAX_EXPR_DEPTH = 64  # counted as in _Parser.too_deep

# Binding strength of each binary operator, loosest first; all associate
# left. '%' is lexed, and rejected where it would bind.
_PRECEDENCE = {
    "||": 0, "&&": 1, "==": 2, "!=": 2, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4, "*": 5, "/": 5, "%": 5,
}
_ACCESS = ("public", "private", "protected")
_MEMBER_TYPES = SCALAR_TYPES + ("void",)
_NUMBER_KINDS = ("int", "float")


class _Parser:
    """The syntax pass. A caller advances only past a token it has checked,
    so the cursor never moves past the eof token."""

    def __init__(self, tokens: list[Token], path: str):
        self.tokens = tokens
        self.path = path
        self.i = 0
        self.cur = tokens[0]

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[min(self.i + 1, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.cur
        self.i += 1
        self.cur = self.tokens[self.i]
        return tok

    def error(self, message: str, tok: Optional[Token] = None) -> ParseError:
        tok = tok or self.cur
        return ParseError(message, line=tok.line, column=tok.column, path=self.path)

    def expect_punct(self, text: str) -> Token:
        if self.cur.text != text:
            raise self.error(f"expected {text!r}, found {self._describe(self.cur)}")
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> Token:
        if self.cur.kind != "ident":
            raise self.error(f"expected {what}, found {self._describe(self.cur)}")
        return self.advance()

    @staticmethod
    def _describe(tok: Token) -> str:
        if tok.kind == "eof":
            return "end of input"
        return repr(tok.text)

    def span_from(self, start: Token) -> Span:
        """From `start` to the last token consumed."""
        end = self.tokens[self.i - 1]
        return _new(Span, (start.pos, end.pos + len(end.text), start.line, start.column))

    # -- declarations ------------------------------------------------------

    def parse_unit(self) -> SourceUnit:
        decls: list[Decl] = []
        while self.cur.kind != "eof":
            if self.cur.text == "extern":
                decls.append(self.parse_extern())
            elif self.cur.text == "class":
                decls.append(self.parse_class())
            else:
                raise self.error(
                    f"expected a class declaration, found {self._describe(self.cur)}"
                )
        return SourceUnit(self.path, decls)

    def parse_extern(self) -> ExternDecl:
        start = self.advance()  # extern
        if self.cur.text != "class":
            raise self.error("expected 'class' after 'extern'")
        self.advance()
        name = self.parse_class_name()
        self.expect_punct(";")
        return ExternDecl(name, self.span_from(start))

    def parse_class_name(self) -> str:
        name = self.expect_ident("class name").text
        if self.cur.text == "::":
            raise self.error("qualified names are not supported here")
        return name

    def parse_class(self) -> ClassDecl:
        start = self.advance()  # class
        name = self.expect_ident("class name").text
        base: Optional[str] = None
        if self.cur.text == ":":
            self.advance()
            if self.cur.text == "public":
                self.advance()
            base = self.parse_class_name()
        self.expect_punct("{")
        fields: list[FieldDecl] = []
        methods: list[MethodDecl] = []
        access = "public"
        while self.cur.text != "}":
            if self.cur.text in _ACCESS:
                if self.peek().text != ":":
                    raise self.error("expected ':' after access label", self.peek())
                access = self.advance().text
                self.advance()
                continue
            self.parse_member(fields, methods, access)
        self.advance()
        self.expect_punct(";")
        return ClassDecl(name, base, fields, methods, self.span_from(start))

    def parse_member(
        self, fields: list[FieldDecl], methods: list[MethodDecl], access: str
    ) -> None:
        start = self.cur
        if start.text == "virtual":
            self.advance()
            start = self.cur
        if start.text in _MEMBER_TYPES:
            type_name = self.advance().text
            name_tok = self.expect_ident("member name")
            if self.cur.text == "(":
                methods.append(self.parse_method(start, type_name, name_tok, access))
                return
            if type_name == "void":
                raise self.error("fields cannot have type void", name_tok)
            self.expect_punct(";")
            fields.append(
                FieldDecl(name_tok.text, type_name, access, self.span_from(start))
            )
            return
        if start.kind == "ident":
            class_name = self.parse_class_name()
            self.expect_punct("*")
            name_tok = self.expect_ident("field name")
            if self.cur.text == "(":
                raise self.error("methods must return a scalar type or void", name_tok)
            self.expect_punct(";")
            fields.append(
                FieldDecl(
                    name_tok.text, RefType(class_name), access, self.span_from(start)
                )
            )
            return
        raise self.error(f"expected a member declaration, found {self._describe(start)}")

    def parse_method(
        self, start: Token, return_type: str, name_tok: Token, access: str
    ) -> MethodDecl:
        self.advance()  # (
        params: list[Param] = []
        if self.cur.text != ")":
            while True:
                p_start = self.cur
                if p_start.text not in SCALAR_TYPES:
                    raise self.error("expected a scalar parameter type")
                p_type = self.advance().text
                p_name = self.expect_ident("parameter name")
                params.append(Param(p_name.text, p_type, self.span_from(p_start)))
                if self.cur.text == ",":
                    self.advance()
                    continue
                break
        self.expect_punct(")")
        if self.cur.text == ";":
            raise self.error("method bodies are required (use '{}' for an empty body)")
        body = self.parse_block()
        return MethodDecl(
            name_tok.text, params, return_type, body, access, self.span_from(start)
        )

    # -- statements --------------------------------------------------------

    def parse_block(self, inside: int = 0) -> Block:
        """A block `inside` if/while statements deep."""
        start = self.expect_punct("{")
        stmts: list[Stmt] = []
        while self.cur.text != "}":
            stmts.append(self.parse_stmt(inside))
        self.advance()
        return Block(stmts, self.span_from(start))

    def parse_stmt(self, inside: int) -> Stmt:
        tok = self.cur
        text = tok.text
        if text == "return":
            self.advance()
            value = None
            if self.cur.text != ";":
                value = self.parse_expr()
            self.expect_punct(";")
            return Return(value, self.span_from(tok))
        if text == "if" or text == "while":
            if inside == MAX_BLOCK_DEPTH:
                raise self.error(
                    f"if/while statements nested more than {MAX_BLOCK_DEPTH} deep"
                )
            self.advance()
            self.expect_punct("(")
            cond = self.parse_expr()
            self.expect_punct(")")
            body = self.parse_block(inside + 1)
            if text == "while":
                return While(cond, body, self.span_from(tok))
            els = None
            if self.cur.text == "else":
                self.advance()
                if self.cur.text != "{":
                    raise self.error("'else' requires a braced block")
                els = self.parse_block(inside + 1)
            return If(cond, body, els, self.span_from(tok))
        if text == "assert":
            self.advance()
            self.expect_punct("(")
            cond = self.parse_expr()
            self.expect_punct(")")
            self.expect_punct(";")
            return Assert(cond, self.span_from(tok))
        if text == "{":
            raise self.error("bare blocks are not statements")
        expr = self.parse_expr()
        if self.cur.text == "=":
            if not isinstance(expr, FieldRef):
                raise self.error("assignment target must be a name", tok)
            self.advance()
            value = self.parse_expr()
            self.expect_punct(";")
            return Assign(expr, value, self.span_from(tok))
        self.expect_punct(";")
        return ExprStmt(expr, self.span_from(tok))

    # -- expressions -------------------------------------------------------
    # Precedence climbing over _PRECEDENCE; `around` is how many levels
    # enclose the expression being parsed, so a node `d` deep in it sits
    # `around + d` deep in its statement's expression.

    def parse_expr(self) -> Expr:
        """A whole expression: a statement's condition, value or target."""
        return self.parse_binary(0, 0)[0]

    def too_deep(self, tok: Token) -> ParseError:
        """The error for a node opened at `tok` that lies more than
        MAX_EXPR_DEPTH deep in its statement's expression. A literal, name
        or call is 1 deep, and each operator, `!` or pair of parentheses
        adds 1. A node is checked with the least depth it can have, before
        its operands are parsed, so the parser's own recursion stays within
        the limit."""
        return self.error(
            f"expression nested more than {MAX_EXPR_DEPTH} levels deep", tok
        )

    def parse_binary(self, around: int, min_level: int) -> tuple[Expr, int]:
        """The expression and its depth, up to the first operator that
        binds more loosely than `min_level`."""
        start = self.cur
        left, depth = self.parse_unary(around)
        level = _PRECEDENCE.get(self.cur.text)
        while level is not None and level >= min_level:
            op = self.cur
            if op.text == "%":
                raise self.error("operator '%' is not supported")
            if around + depth >= MAX_EXPR_DEPTH:
                raise self.too_deep(op)
            self.advance()
            right, right_depth = self.parse_binary(around + 1, level + 1)
            left = Binary(op.text, left, right, self.span_from(start))
            depth = 1 + max(depth, right_depth)
            level = _PRECEDENCE.get(self.cur.text)
        return left, depth

    def parse_unary(self, around: int) -> tuple[Expr, int]:
        """An operand: a unary expression or a primary, and its depth."""
        tok = self.cur
        kind = tok.kind
        if kind == "ident":
            self.advance()
            ref = FieldRef(tok.text, self.span_from(tok))
            if self.cur.text == "->":
                self.advance()
                method = self.expect_ident("method name").text
                self.expect_punct("(")
                self.expect_punct(")")
                return CallExpr(ref, method, self.span_from(tok)), 1
            if self.cur.text == "(":
                raise self.error("free function calls are not supported", tok)
            return ref, 1
        if kind == "int":
            self.advance()
            if tok.value > INT_MAX:
                raise self.error("integer literal out of 64-bit range", tok)
            return IntLit(tok.value, self.span_from(tok)), 1
        text = tok.text
        if text == "(":
            if around + 2 > MAX_EXPR_DEPTH:
                raise self.too_deep(tok)
            self.advance()
            expr, depth = self.parse_binary(around + 1, 0)
            self.expect_punct(")")
            return expr, depth + 1
        if text == "-" and self.peek().kind in _NUMBER_KINDS:
            self.advance()
            lit = self.advance()
            span = self.span_from(tok)
            if lit.kind == "int":
                value = -lit.value
                if value < INT_MIN:
                    raise self.error("integer literal out of 64-bit range", lit)
                return IntLit(value, span), 1
            return FloatLit(-lit.value, span), 1
        if text == "!":
            if around + 2 > MAX_EXPR_DEPTH:
                raise self.too_deep(tok)
            self.advance()
            operand, depth = self.parse_unary(around + 1)
            return Unary("!", operand, self.span_from(tok)), depth + 1
        if kind == "float":
            self.advance()
            return FloatLit(tok.value, self.span_from(tok)), 1
        if text == "true" or text == "false":
            self.advance()
            return BoolLit(text == "true", self.span_from(tok)), 1
        raise self.error(f"expected an expression, found {self._describe(tok)}")


class _Resolver:
    """Second pass: name binding, inheritance linearization, type checking.

    Looks classes up through the unit's own index (`class_named`) and
    stores each class's member tables on the class itself."""

    def __init__(self, unit: SourceUnit, path: str):
        self.unit = unit
        self.path = path
        self.extern_names: set[str] = set()

    def err(self, cls: type, message: str, span: Span) -> Exception:
        return cls(message, line=span.line, column=span.column, path=self.path)

    def run(self) -> None:
        self.collect_names()
        for cls in self.linearize():
            self.build_member_tables(cls)
        for cls in self.unit.classes:
            for method in cls.methods:
                _MethodChecker(self, cls, method).check()

    def collect_names(self) -> None:
        for decl in self.unit.decls:
            if isinstance(decl, ExternDecl):
                self.extern_names.add(decl.name)
            elif self.unit.class_named(decl.name) is not decl:
                raise self.err(
                    DuplicateName, f"duplicate class name {decl.name!r}", decl.span
                )

    def known_class(self, name: str) -> bool:
        return self.unit.class_named(name) is not None or name in self.extern_names

    def require_class(self, name: str, span: Span) -> None:
        if not self.known_class(name):
            raise self.err(TypeCheckError, f"unknown class {name!r}", span)

    def linearize(self) -> list[ClassDecl]:
        """Topological order of classes, bases first; detects cycles."""
        order: list[ClassDecl] = []
        state: dict[str, int] = {}  # 1 = in progress, 2 = done

        def visit(cls: ClassDecl, chain: list[str]) -> None:
            if state.get(cls.name) == 2:
                return
            if state.get(cls.name) == 1:
                raise self.err(
                    TypeCheckError,
                    "inheritance cycle: " + " -> ".join(chain + [cls.name]),
                    cls.span,
                )
            state[cls.name] = 1
            if cls.base is not None:
                base = self.unit.class_named(cls.base)
                if base is not None:
                    visit(base, chain + [cls.name])
                else:
                    self.require_class(cls.base, cls.span)
                    raise self.err(
                        TypeCheckError,
                        f"cannot inherit from extern class {cls.base!r}",
                        cls.span,
                    )
            state[cls.name] = 2
            order.append(cls)

        for cls in self.unit.classes:
            visit(cls, [])
        return order

    def build_member_tables(self, cls: ClassDecl) -> None:
        fields: dict[str, FieldDecl] = {}
        methods: dict[str, MethodDecl] = {}
        if cls.base is not None:  # a class, built earlier by linearize order
            base = self.unit.class_named(cls.base)
            fields.update(base.all_fields)
            methods.update(base.all_methods)
        for f in cls.fields:
            if f.name in fields:
                raise self.err(
                    DuplicateName,
                    f"field {f.name!r} already declared in {cls.name!r} or a base",
                    f.span,
                )
            if f.name in {m.name for m in cls.methods} or f.name in methods:
                raise self.err(
                    DuplicateName,
                    f"name {f.name!r} used for both a field and a method",
                    f.span,
                )
            if isinstance(f.type, RefType):
                self.require_class(f.type.class_name, f.span)
            fields[f.name] = f
        seen_methods: set[str] = set()
        for m in cls.methods:
            if m.name in seen_methods:
                raise self.err(
                    DuplicateName,
                    f"duplicate method {m.name!r} in class {cls.name!r}",
                    m.span,
                )
            seen_methods.add(m.name)
            if m.name in fields:
                raise self.err(
                    DuplicateName,
                    f"name {m.name!r} used for both a field and a method",
                    m.span,
                )
            if m.name in methods:
                base_m = methods[m.name]
                same = base_m.return_type == m.return_type and [
                    p.type for p in base_m.params
                ] == [p.type for p in m.params]
                if not same:
                    raise self.err(
                        TypeCheckError,
                        f"override of {m.name!r} changes the signature",
                        m.span,
                    )
            methods[m.name] = m
            seen_params: set[str] = set()
            for p in m.params:
                if p.name in seen_params:
                    raise self.err(
                        DuplicateName, f"duplicate parameter {p.name!r}", p.span
                    )
                seen_params.add(p.name)
        cls.all_fields = fields
        cls.all_methods = methods


class _MethodChecker:
    """Types one method body, rewriting name nodes to ParamRef/FieldRef."""

    def __init__(self, resolver: _Resolver, cls: ClassDecl, method: MethodDecl):
        self.r = resolver
        self.cls = cls
        self.method = method
        self.params = {p.name: p.type for p in method.params}
        self.fields = cls.all_fields

    def err(self, message: str, span: Span) -> Exception:
        return self.r.err(TypeCheckError, message, span)

    def check(self) -> None:
        self.check_block(self.method.body)

    def check_block(self, block: Block) -> None:
        for i, stmt in enumerate(block.stmts):
            block.stmts[i] = self.check_stmt(stmt)

    def check_stmt(self, stmt: Stmt) -> Stmt:
        if isinstance(stmt, If):
            stmt.cond = self.expr(stmt.cond, want="bool", ctx="if condition")
            self.check_block(stmt.then)
            if stmt.els is not None:
                self.check_block(stmt.els)
            return stmt
        if isinstance(stmt, While):
            stmt.cond = self.expr(stmt.cond, want="bool", ctx="while condition")
            self.check_block(stmt.body)
            return stmt
        if isinstance(stmt, Assert):
            stmt.cond = self.expr(stmt.cond, want="bool", ctx="assert condition")
            return stmt
        if isinstance(stmt, Return):
            rt = self.method.return_type
            if stmt.value is None:
                if rt != "void":
                    raise self.err(
                        f"return without value in {rt} method {self.method.name!r}",
                        stmt.span,
                    )
                return stmt
            if rt == "void":
                raise self.err(
                    f"void method {self.method.name!r} cannot return a value",
                    stmt.span,
                )
            stmt.value = self.expr(stmt.value, want=rt, ctx="return value")
            return stmt
        if isinstance(stmt, Assign):
            target = self.resolve_name(stmt.target)
            t_type = target.type_
            if isinstance(t_type, RefType):
                raise self.err("reference fields cannot be assigned", stmt.span)
            stmt.target = target
            stmt.value = self.expr(stmt.value, want=t_type, ctx="assignment")
            return stmt
        if isinstance(stmt, ExprStmt):
            stmt.expr = self.expr(stmt.expr, want=None, ctx="statement")
            return stmt
        raise AssertionError(f"unhandled statement {stmt!r}")

    def resolve_name(self, ref: FieldRef) -> Union[ParamRef, FieldRef]:
        # Parameter shadows field, matching the source language's scoping.
        if ref.name in self.params:
            out = ParamRef(ref.name, span=ref.span)
            out.type_ = self.params[ref.name]
            return out
        if ref.name in self.fields:
            ref.type_ = self.fields[ref.name].type
            return ref
        raise self.err(
            f"unknown name {ref.name!r} in {self.cls.name}.{self.method.name}",
            ref.span,
        )

    def expr(self, e: Expr, want: Optional[str], ctx: str) -> Expr:
        e = self.type_expr(e)
        if want is not None and e.type_ != want:
            raise self.err(f"{ctx} must be {want}, got {self.show(e.type_)}", e.span)
        if want is None and e.type_ == "void" and not isinstance(e, CallExpr):
            raise self.err("void value used in expression", e.span)
        return e

    @staticmethod
    def show(t: object) -> str:
        return str(t) if t is not None else "<untyped>"

    def type_expr(self, e: Expr) -> Expr:
        if isinstance(e, IntLit):
            e.type_ = "int"
            return e
        if isinstance(e, FloatLit):
            e.type_ = "float"
            return e
        if isinstance(e, BoolLit):
            e.type_ = "bool"
            return e
        if isinstance(e, FieldRef):
            out = self.resolve_name(e)
            if isinstance(out.type_, RefType):
                raise self.err(
                    f"reference field {e.name!r} used as a value (only calls allowed)",
                    e.span,
                )
            return out
        if isinstance(e, CallExpr):
            return self.type_call(e)
        if isinstance(e, Unary):
            e.operand = self.type_expr(e.operand)
            if e.operand.type_ != "bool":
                raise self.err("operator '!' needs a bool operand", e.span)
            e.type_ = "bool"
            return e
        if isinstance(e, Binary):
            return self.type_binary(e)
        raise AssertionError(f"unhandled expression {e!r}")

    def type_call(self, e: CallExpr) -> CallExpr:
        name = e.receiver.name
        if name in self.params:
            raise self.err(f"{name!r} is a scalar parameter, not a dependency", e.span)
        if name not in self.fields:
            raise self.err(f"unknown field {name!r}", e.span)
        f_type = self.fields[name].type
        if not isinstance(f_type, RefType):
            raise self.err(f"field {name!r} is not a reference, cannot call", e.span)
        e.receiver.type_ = f_type
        target = f_type.class_name
        target_cls = self.r.unit.class_named(target)
        if target_cls is not None:
            m = target_cls.all_methods.get(e.method)
            if m is None:
                raise self.err(f"class {target!r} has no method {e.method!r}", e.span)
            if m.params:
                raise self.err(
                    f"dependency calls take no arguments ({target}.{e.method})",
                    e.span,
                )
            e.type_ = m.return_type
        else:
            # Extern surface is unknown; int is the documented assumption.
            e.type_ = "int"
        self.method.call_types.setdefault((name, e.method), e.type_)
        return e

    def type_binary(self, e: Binary) -> Binary:
        e.left = self.type_expr(e.left)
        e.right = self.type_expr(e.right)
        lt, rt = e.left.type_, e.right.type_
        if e.op in ("&&", "||"):
            if lt != "bool" or rt != "bool":
                raise self.err(f"operator {e.op!r} needs bool operands", e.span)
            e.type_ = "bool"
            return e
        if "void" in (lt, rt):
            raise self.err("void value used in expression", e.span)
        if lt != rt:
            raise self.err(
                f"operands of {e.op!r} must have the same type, got "
                f"{self.show(lt)} and {self.show(rt)}",
                e.span,
            )
        if e.op in _CMP_OPS:
            if lt == "bool" and e.op not in ("==", "!="):
                raise self.err(f"bool supports only ==/!=, not {e.op!r}", e.span)
            e.type_ = "bool"
            return e
        # arithmetic
        if lt == "bool":
            raise self.err(f"operator {e.op!r} needs numeric operands", e.span)
        e.type_ = lt
        return e


def parse_source(text: str, path: str = "<string>") -> SourceUnit:
    """Parse and type-check CUT-lang source, returning a resolved SourceUnit.

    Raises ParseError on syntax violations, TypeCheckError on ill-typed
    expressions or unresolved names, DuplicateName on name clashes. Every
    returned node carries a source span.
    """
    tokens = tokenize(text, path)
    unit = _Parser(tokens, path).parse_unit()
    _Resolver(unit, path).run()
    return unit
