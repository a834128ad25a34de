import json
import pathlib

import pytest
from hypothesis import HealthCheck, settings

from ultgen.cases import TestCase
from ultgen.cutlang import parse_source

TestCase.__test__ = False  # a case record, not a pytest class

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

TESTS_DIR = pathlib.Path(__file__).parent


@pytest.fixture(scope="session")
def golden_dir() -> pathlib.Path:
    return TESTS_DIR / "golden"


@pytest.fixture(scope="session")
def corpus_dir() -> pathlib.Path:
    return TESTS_DIR / "corpus"


@pytest.fixture(scope="session")
def project_dir() -> pathlib.Path:
    return TESTS_DIR / "fixtures" / "project"


@pytest.fixture(scope="session")
def history_dir() -> pathlib.Path:
    return TESTS_DIR / "fixtures" / "project" / "history"


@pytest.fixture(scope="session")
def corpus_unit(corpus_dir):
    """All corpus classes parsed as one unit, in sorted file order."""
    parts = []
    for path in sorted(corpus_dir.glob("*.cut")):
        parts.append(path.read_text())
    return parse_source("\n".join(parts), path="<corpus>")


@pytest.fixture(scope="session")
def planted(corpus_dir):
    """Planted-fault registry: which corpus targets must crash and how."""
    return json.loads((corpus_dir / "planted.json").read_text())


@pytest.fixture
def invoke(capsys):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""

    def _run(*args):
        from ultgen.cli import main

        argv = [str(a) for a in args]
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run
