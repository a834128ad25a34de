"""Correctness checks on the artifacts of `ultgen run`, outside any timing.

Checks are against independent references, never golden digests, so a
change that legitimately alters the outputs still passes:
  - every artifact validates against its JSON Schema in `ultgen.schemas`;
  - every kept case replays through `CaseEvaluator` and the independent
    oracle in `tests/oracle_eval.py` with the same outcomes, terminal state,
    crash kind and return value;
  - each method's reported `pairs_covered` equals the pairs its kept cases
    reach under the oracle;
  - the manifest's counts and coverage agree with the other artifacts.
Byte-identity across repeated invocations is checked by the runner.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import jsonschema
from oracle_eval import OracleEvaluator, scalars_equal
from ultgen import schemas
from ultgen.cases import case_from_json
from ultgen.coverage import all_pairs
from ultgen.cutlang.parser import parse_source
from ultgen.interp import CaseEvaluator


def digest_tree(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under `out_dir`, by relative path."""
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def _validate(schema: dict, doc: object, what: str, errors: list[str]) -> None:
    for err in jsonschema.Draft202012Validator(schema).iter_errors(doc):
        errors.append(f"{what}: schema: {err.message}")
        return


def check_artifacts(src_dir: Path, out_dir: Path, exit_code: int) -> tuple[list[str], dict]:
    """Return (errors, facts); facts hold numbers the metrics are read from."""
    errors: list[str] = []
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    coverage = json.loads((out_dir / "coverage.json").read_text(encoding="utf-8"))
    advise_path = out_dir / "advise.json"
    _validate(schemas.MANIFEST_SCHEMA, manifest, "manifest.json", errors)
    _validate(schemas.COVERAGE_REPORT_SCHEMA, coverage, "coverage.json", errors)
    if advise_path.exists():
        advise = json.loads(advise_path.read_text(encoding="utf-8"))
        _validate(schemas.ADVISE_SCHEMA, advise, "advise.json", errors)
    else:
        errors.append("advise.json missing")
    case_validator = jsonschema.Draft202012Validator(schemas.CASE_SCHEMA)
    records = []
    for n, line in enumerate((out_dir / "cases.jsonl").read_text(encoding="utf-8").splitlines(), 1):
        record = json.loads(line)
        for err in case_validator.iter_errors(record):
            errors.append(f"cases.jsonl:{n}: schema: {err.message}")
            break
        records.append(record)
    if manifest.get("exit_code") != exit_code:
        errors.append(f"exit code {exit_code} but manifest says {manifest.get('exit_code')}")
    stages = manifest.get("stages", {})
    if stages.get("cases", {}).get("fuzzed_kept") != len(records):
        errors.append("manifest fuzzed_kept disagrees with cases.jsonl")
    for key in ("conditional_pct", "functional_pct"):
        if stages.get("coverage", {}).get(key) != coverage.get(key):
            errors.append(f"manifest {key} disagrees with coverage.json")
    if errors:
        return errors, {}

    texts = [p.read_text(encoding="utf-8") for p in sorted(src_dir.rglob("*.cut"))]
    unit = parse_source("\n".join(texts), path=str(src_dir))
    evaluators: dict[tuple, tuple] = {}
    reached: dict[str, set] = {}
    crash_keys: set = set()
    for record in records:
        case = case_from_json(record)
        target = case.target
        if target not in evaluators:
            ev = CaseEvaluator(unit, *target)
            evaluators[target] = (ev, OracleEvaluator(unit, *target), all_pairs(ev.decisions))
        ev, oracle, valid = evaluators[target]
        trace = ev.run(case)
        want = oracle.run(case)
        same = (
            trace.outcomes == want.outcomes
            and trace.terminal == want.terminal
            and (trace.crash.kind if trace.crash else None) == want.crash_kind
            and scalars_equal(trace.return_value, want.return_value)
        )
        if not same:
            errors.append(f"case {case.id}: evaluator and oracle disagree")
        reached.setdefault(".".join(target), set()).update(want.outcomes & valid)
        if trace.crash is not None:
            crash_keys.add(trace.crash.key)
    for row in coverage["methods"]:
        got = len(reached.get(row["method"], ()))
        if row["pairs_covered"] != got:
            errors.append(
                f"{row['method']}: reports {row['pairs_covered']} pairs covered, "
                f"kept cases reach {got}"
            )
    facts = {
        "methods": len(coverage["methods"]),
        "candidates": stages["cases"]["candidates_run"],
        "conditional_pct": coverage["conditional_pct"],
        "functional_pct": coverage["functional_pct"],
        "crash_keys": len(crash_keys),
    }
    return errors, facts
