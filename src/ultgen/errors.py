"""Exception types shared across the toolchain.

Everything raised on purpose derives from UltgenError so CLI entry points
can catch one base class and map it to exit code 1.
"""

from __future__ import annotations


class UltgenError(Exception):
    """Base class for all tool-raised errors."""


class CutlangError(UltgenError):
    """Base for errors produced while parsing or checking CUT-lang source."""

    def __init__(self, message: str, line: int = 0, column: int = 0, path: str = "<memory>"):
        super().__init__(f"{path}:{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.path = path


class ParseError(CutlangError):
    """Syntax violation, reported at the offending token."""


class TypeCheckError(CutlangError):
    """Ill-typed expression or unresolved reference in otherwise valid syntax."""


class DuplicateName(CutlangError):
    """Name clash: class, method, field, or parameter declared twice."""


class UnknownClass(UltgenError):
    """A requested class does not exist in the source unit."""


class UnknownTarget(UltgenError):
    """A configuration entry references a class/method/member that does not exist.

    ``path`` is the dotted location of the offending reference, e.g. ``A.nope``.
    """

    def __init__(self, path: str, message: str = ""):
        detail = f": {message}" if message else ""
        super().__init__(f"unknown target {path!r}{detail}")
        self.path = path


class SchemaError(UltgenError):
    """A data file does not match its documented schema."""

    def __init__(self, message: str, file: str = "<data>", line: int = 0):
        where = f"{file}:{line}: " if line else f"{file}: "
        super().__init__(where + message)
        self.file = file
        self.line = line


class ContractViolation(UltgenError):
    """A test case is malformed for the method it targets.

    Distinct from in-language crashes (division by zero, failed asserts),
    which are recorded as data in the execution trace.
    """


class MixedTargets(UltgenError):
    """Traces passed to coverage aggregation cover pairs their method lacks."""


class DomainTooLarge(UltgenError):
    """Brute-force enumeration would exceed the combination budget."""


class EmptyDomain(UltgenError):
    """A declared value domain for brute-force enumeration is empty."""


class InsufficientData(UltgenError):
    """Not enough labelled history samples to train the advisor model."""


class UntrainedModel(UltgenError):
    """A recommendation was requested before a model was trained."""
