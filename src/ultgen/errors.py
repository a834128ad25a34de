"""Exception types shared across the toolchain, and the readers of every
input file, so each file error reads the same from every command.

Everything raised on purpose derives from UltgenError so CLI entry points
can catch one base class and map it to exit code 1.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterator, NoReturn, Optional


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

    def __init__(self, path: str):
        super().__init__(f"unknown target {path!r}")
        self.path = path


class SchemaError(UltgenError):
    """A data file does not match its documented schema."""

    def __init__(self, message: str, file: str, line: int = 0):
        super().__init__(_where(file, line) + message)
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


def _where(file: str, line: int) -> str:
    return f"{file}:{line}: " if line else f"{file}: "


class JsonReader:
    """Decodes the JSON of one input file and checks its shape in place.

    Each failure is a SchemaError `file:line: json.path: message`. The
    line is that of the JSONL record being read; a whole document has
    none. The path runs from the root of the record or document, which has
    none itself, and is a key or a tuple of object keys and array indexes:
    `("paths", 1, "lines")` reads `paths[1].lines`. Each check returns the
    value it passed.
    """

    def __init__(self, file: str):
        self.file = file
        self.line = 0

    def document(self, text: str) -> object:
        """`text`, the whole file or its record at `line`, as JSON."""
        try:
            return json.loads(text)
        except json.JSONDecodeError as e:
            message, line = f"invalid JSON: {e.msg}", self.line or e.lineno
        except ValueError:  # an integer longer than the int-to-str digit limit
            message, line = "invalid JSON: an integer has too many digits", self.line
        except RecursionError:
            message, line = "invalid JSON: arrays or objects nested too deeply", self.line
        raise SchemaError(message, self.file, line)

    def records(self, text: str) -> Iterator[object]:
        """Each nonblank line of JSONL `text` as JSON, with `line` set to
        its number. Only a line feed ends a line."""
        for n, raw in enumerate(text.split("\n"), start=1):
            if raw.strip():
                self.line = n
                yield self.document(raw)

    def fail(self, path: str | tuple, message: str) -> NoReturn:
        """Raise SchemaError: the value at `path` is not as `message` says."""
        raise SchemaError(_dotted(path) + message, self.file, self.line)

    def locate(self, error: UltgenError, path: str | tuple = "") -> UltgenError:
        """`error`, raised on the value at `path` of the record being read,
        its type kept and its message prefixed as a SchemaError's is."""
        error.args = (_where(self.file, self.line) + _dotted(path) + str(error),)
        return error

    def object(
        self, value: object, path: str | tuple, keys: Optional[set] = None, optional=()
    ) -> dict:
        """`value`, a JSON object. With `keys`, it has each of them, and no
        key outside them and `optional`."""
        if type(value) is not dict:
            self.fail(path, "must be an object")
        if keys is not None and value.keys() != keys:
            for key in sorted(keys):
                if key not in value:
                    self.fail(path, f"missing key {key!r}")
            for key in value:
                if key not in keys and key not in optional:
                    self.fail(path, f"unknown key {key!r}")
        return value

    def string(
        self,
        value: object,
        path: str | tuple,
        pattern: Optional[re.Pattern] = None,
        form: str = "a nonempty string",
    ) -> str:
        """`value`, a nonempty string, which `pattern` matches if given."""
        if type(value) is not str or not (pattern.match(value) if pattern else value):
            self.fail(path, f"must be {form}")
        return value

    def count(self, value: object, path: str | tuple) -> int:
        """`value`, an integer >= 0."""
        if type(value) is not int or value < 0:
            self.fail(path, "must be an integer >= 0")
        return value

    def number(self, value: object, path: str | tuple, low: float, high: float) -> float:
        """`value`, an integer or a float in [low, high], as a float."""
        if type(value) not in (int, float) or not low <= value <= high:
            self.fail(path, f"must be a number in [{low}, {high}]")
        return float(value)

    def array(self, value: object, path: str | tuple, nonempty: bool = True) -> list:
        """`value`, an array, and a nonempty one unless `nonempty` is false."""
        if type(value) is not list or nonempty and not value:
            self.fail(path, "must be a nonempty array" if nonempty else "must be an array")
        return value


def _dotted(path: str | tuple) -> str:
    """`path` as the prefix of a message: `paths[1].lines: `, or nothing
    for the root."""
    if type(path) is str:
        return f"{path}: " if path else ""
    text = ""
    for i, key in enumerate(path):
        text += f"[{key}]" if type(key) is int else f".{key}" if i else key
    return f"{text}: " if text else ""
