"""The bytes of `ultgen run`, pinned by digest.

`tests/golden/run_digests.jsonl` holds one record per output file of
`ultgen run` on `tests/corpus` and on the fixture project with its
configured cases and history, each at seeds 21 and 1234: the input, the
seed, the file's path under `-o` and the sha256 of its bytes. The test
runs every input again and compares, so a change that moves any output
byte (a kept case, a coverage figure, a scaffold line, a manifest hash)
fails it.

Regenerate the golden file only when the output is meant to change:

    PYTHONPATH=src python tests/test_run_digests.py
"""

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

from ultgen.cli import main

TESTS_DIR = pathlib.Path(__file__).parent
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


if __name__ == "__main__":
    with GOLDEN.open("w", encoding="utf-8") as out:
        for record in generate():
            out.write(json.dumps(record) + "\n")
