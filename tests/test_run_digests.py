"""The bytes of `ultgen run`, pinned by digest.

`tests/golden/run_digests.jsonl` holds one record per output file of
`ultgen run` on `tests/corpus` and on the fixture project with its
configured cases and history, each at seeds 21 and 1234: the input, the
seed, the file's path under `-o` and the sha256 of its bytes. The test
runs every input again and compares, so a change that moves any output
byte (a kept case, a coverage figure, a scaffold line, a manifest hash)
fails it. A second test compares the same records made under every
other interpreter >= 3.10 it can start, since float results may differ
between Python versions (`sum` is compensated from 3.12 on).

Regenerate the golden file only when the output is meant to change:

    PYTHONPATH=src python tests/test_run_digests.py
"""

import contextlib
import glob
import hashlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

from ultgen.cli import main

TESTS_DIR = pathlib.Path(__file__).parent
SRC_DIR = TESTS_DIR.parent / "src"
PROJECT = TESTS_DIR / "fixtures" / "project"
HISTORY = PROJECT / "history"
GOLDEN = TESTS_DIR / "golden" / "run_digests.jsonl"

SEEDS = (21, 1234)
INPUTS = {
    "corpus": [TESTS_DIR / "corpus"],
    "project": [
        PROJECT / "src", "--config", PROJECT / "cases.json",
        "--bugs", HISTORY / "bugs.jsonl", "--commits", HISTORY / "commits.jsonl",
        "--coverage-history", HISTORY / "coverage.jsonl", "--map", HISTORY / "map.json",
    ],
}


def generate() -> list[dict]:
    records = []
    for name, args in INPUTS.items():
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as work:
                out = pathlib.Path(work) / "out"
                argv = ["run", *map(str, args), "-o", str(out), "--seed", str(seed),
                        "--threshold", "0"]
                printed = io.StringIO()
                with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
                    code = main(argv)
                assert code == 0, printed.getvalue()
                for path in sorted(out.rglob("*")):
                    if path.is_file():
                        records.append({
                            "input": name, "seed": seed,
                            "file": path.relative_to(out).as_posix(),
                            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                        })
    return records


def _golden() -> list[dict]:
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines]


def test_run_output_matches_golden_digests():
    assert generate() == _golden()


# Prints "<at least 3.10: 0 or 1> <version> <real path>"; Python 2 runs it too.
_PROBE = (
    "import os, sys; sys.stdout.write('%d %s %s' % (sys.version_info >= (3, 10), "
    "sys.version.split()[0], os.path.realpath(sys.executable)))"
)
# Prints the records of `generate()` as JSON; paths to import from follow.
_GENERATE = (
    "import json, sys; sys.path[:0] = sys.argv[1:]; "
    "from test_run_digests import generate; print(json.dumps(generate()))"
)


def _candidate_interpreters() -> list[str]:
    """The pyenv builds under `$(pyenv root)/versions`, then `python3.1x`
    on PATH."""
    found = []
    pyenv = shutil.which("pyenv")
    if pyenv:
        root = subprocess.run([pyenv, "root"], capture_output=True, text=True).stdout.strip()
        if root:
            found += sorted(glob.glob(os.path.join(root, "versions", "*", "bin", "python")))
    found += filter(None, (shutil.which(f"python3.{minor}") for minor in range(10, 20)))
    return found


def _other_interpreters() -> dict[str, str]:
    """Real path -> version of each candidate that starts, is 3.10 or later
    and is not the interpreter running the tests."""
    others = {}
    for exe in _candidate_interpreters():
        try:
            probe = subprocess.run(
                [exe, "-I", "-c", _PROBE], capture_output=True, text=True, timeout=60
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0 and probe.stdout.startswith("1 "):
            _, version, path = probe.stdout.split(" ", 2)
            others[path] = version
    others.pop(os.path.realpath(sys.executable), None)
    return others


def test_run_digests_agree_across_interpreters():
    import pytest  # here, as the other interpreters import this module without it

    others = _other_interpreters()
    if not others:
        pytest.skip("no other interpreter >= 3.10 starts here")
    golden = _golden()
    ran = []
    for path, version in sorted(others.items(), key=lambda item: item[1]):
        child = subprocess.run(  # -B: the imports write no bytecode into the repo
            [path, "-I", "-B", "-c", _GENERATE, str(SRC_DIR), str(TESTS_DIR)],
            capture_output=True, text=True, timeout=600,
        )
        assert child.returncode == 0, f"{version} ({path}):\n{child.stderr}"
        assert json.loads(child.stdout) == golden, f"{version} ({path})"
        ran.append(f"{version} ({path})")
    print("ran under:", ", ".join(ran))


if __name__ == "__main__":
    with GOLDEN.open("w", encoding="utf-8") as out:
        for record in generate():
            out.write(json.dumps(record) + "\n")
