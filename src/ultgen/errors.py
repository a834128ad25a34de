"""Exception types shared across the toolchain, and the readers of every
input file, so each file error reads the same from every command.

Everything raised on purpose derives from UltgenError so CLI entry points
can catch one base class and map it to exit code 1.
"""

from __future__ import annotations

import json
from pathlib import Path


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

    def __init__(self, message: str, file: str, line: int = 0):
        where = f"{file}:{line}: " if line else f"{file}: "
        super().__init__(where + message)
        self.message = message
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


def read_text(path: str) -> str:
    """The UTF-8 text of the file at `path`; UltgenError naming the file if
    it cannot be read or is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise UltgenError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise UltgenError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def parse_json(text: str, file: str, line: int = 0) -> object:
    """`text`, all of `file` or its line `line`, as JSON; SchemaError naming
    the file, and the line where there is one, if it is not valid JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid JSON: {e.msg}", file, line or e.lineno) from None
    except ValueError:  # an integer longer than the int-to-str digit limit
        raise SchemaError("invalid JSON: an integer has too many digits", file, line) from None
    except RecursionError:
        raise SchemaError(
            "invalid JSON: arrays or objects nested too deeply", file, line
        ) from None
