"""Command line entry point.

Subcommands mirror the pipeline stages: `decisions` prints the
condition/decision table for a class, `scaffold` writes the fixture, test
class, and mock headers, `cases` fuzzes and selects robustness cases for
one method, `coverage` replays a case file and reports condition/decision
coverage, `advise` turns bug/commit/coverage history into per-component
coverage recommendations, and `run` chains everything over a source tree
and writes a reproducible manifest.

Every subcommand takes `--json` for machine-readable output on stdout.
Artifacts only ever go under `-o` paths. Exit codes: 0 success, 1 error
(also: coverage below threshold for `coverage`), 2 highlighted gaps for
`advise` and `run`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import __version__
from .advisor import (
    COVERAGE_GRID,
    DEFAULT_TAU,
    build_trends,
    gap_report,
    ingest,
    recommend_all,
    render_gap_table,
    train_model,
)
from .cases import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    MethodConfig,
    TestCase,
    case_from_json,
    case_to_json,
    fuzz_candidates,
    greedy_select,
    load_case_config,
)
from .coverage import MethodCoverage, aggregate_report, compute_coverage
from .cutlang.nodes import ClassDecl, SourceUnit
from .cutlang.parser import parse_source
from .decisions import decisions_table, extract_decisions
from .errors import (
    CutlangError,
    SchemaError,
    UltgenError,
    UnknownClass,
    UnknownTarget,
    parse_json,
    read_text,
)
from .interp import CaseEvaluator
from .scaffold import (
    generate_scaffold,
    measure_generation_ratio,
    public_methods,
)

DEFAULT_THRESHOLD = 70.0
SOURCE_SUFFIXES = (".cut", ".h")


def _parse_file(path: str) -> SourceUnit:
    return parse_source(read_text(path), path=path)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _print_json(obj: object) -> None:
    print(json.dumps(obj, indent=2))


def _json_text(obj: object) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _write_files(out_dir: Path, files: dict[str, str]) -> None:
    """Write each text at its path under `out_dir`, making each directory once."""
    for parent in dict.fromkeys((out_dir / name).parent for name in files):
        parent.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).write_text(text, encoding="utf-8")


def _check_threshold(threshold: float) -> None:
    if not 0 <= threshold <= 100:  # also false for nan
        raise UltgenError(
            f"--threshold must be a finite number in [0, 100], got {threshold}"
        )


def _check_tau(tau: float) -> None:
    if not 0 <= tau <= 1:  # also false for nan
        raise UltgenError(f"--tau must be a finite number in [0, 1], got {tau}")


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise UltgenError(f"--budget must be >= 1, got {budget}")


def _resolve_seed(flag: Optional[int]) -> int:
    if flag is not None:
        return flag
    env = os.environ.get("ULTGEN_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UltgenError(f"ULTGEN_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _parse_grid(text: str) -> tuple[int, ...]:
    try:
        grid = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UltgenError(f"--grid must be comma-separated integers, got {text!r}") from None
    if not grid or list(grid) != sorted(grid):
        raise UltgenError("--grid must be ascending and nonempty")
    return grid


# --- decisions --------------------------------------------------------------

def cmd_decisions(args: argparse.Namespace) -> int:
    unit = _parse_file(args.file)
    cls = unit.class_named(args.class_name)
    if cls is None:
        raise UnknownClass(f"class {args.class_name!r} not found in {args.file}")
    if args.method is not None:
        method = cls.all_methods.get(args.method)
        if method is None:
            raise UnknownTarget(f"{args.class_name}.{args.method}")
        methods = [method]
    else:
        methods = list(cls.methods)
    payload = {
        "class": cls.name,
        "methods": [
            {
                "method": m.name,
                "decisions": decisions_table(extract_decisions(m, cls.name)),
            }
            for m in methods
        ],
    }
    if args.json:
        _print_json(payload)
        return 0
    for entry in payload["methods"]:
        print(f"{cls.name}.{entry['method']}:")
        if not entry["decisions"]:
            print("  (no decisions)")
        for row in entry["decisions"]:
            print(f"  {row['id']} [{row['kind']}] {row['expr']}")
            for cond in row["conditions"]:
                extras = []
                if cond["params"]:
                    extras.append("params=" + ",".join(cond["params"]))
                if cond["calls"]:
                    extras.append("calls=" + ",".join(cond["calls"]))
                suffix = ("  " + " ".join(extras)) if extras else ""
                print(f"    {cond['id']} [{cond['driver']}] {cond['atom']}{suffix}")
    return 0


# --- scaffold ---------------------------------------------------------------

def cmd_scaffold(args: argparse.Namespace) -> int:
    unit = _parse_file(args.src)
    out_dir = Path(args.out)

    def previous(name: str) -> Optional[str]:
        path = out_dir / name
        return read_text(str(path)) if args.merge and path.exists() else None

    bundle = generate_scaffold(unit, args.class_name, previous=previous)
    files = dict(bundle.files)
    _write_files(out_dir, files)
    payload = {
        "class": args.class_name,
        "files": list(files),
        "auto_line_count": bundle.auto_line_count,
        "anchor_line_count": bundle.anchor_line_count,
        "generation_ratio": measure_generation_ratio(
            bundle.auto_line_count, bundle.anchor_line_count
        ),
        "warnings": list(bundle.warnings),
    }
    for warning in bundle.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.json:
        _print_json(payload)
    else:
        for name in files:
            print(f"wrote {out_dir / name}")
        print(
            f"generated {payload['auto_line_count']} lines, "
            f"{payload['anchor_line_count']} anchored for edits "
            f"(ratio {payload['generation_ratio']:.4f})"
        )
    return 0


# --- cases ------------------------------------------------------------------

def _select_cases(
    unit: SourceUnit,
    class_name: str,
    method_name: str,
    entry: MethodConfig,
    budget: int,
    seed: int,
):
    """Shared by `cases` and `run`: configured preseed, fuzz, greedy keep."""
    evaluator = CaseEvaluator(unit, class_name, method_name)
    preseed = tuple(evaluator.run(case) for case in entry.cases)
    candidates = fuzz_candidates(
        evaluator, budget=budget, seed=seed, pool_overrides=entry.pools
    )
    return greedy_select(candidates, evaluator, preseed=preseed)


def cmd_cases(args: argparse.Namespace) -> int:
    _check_budget(args.budget)
    unit = _parse_file(args.src)
    seed = _resolve_seed(args.seed)
    config = {}
    if args.config is not None:
        config = load_case_config(read_text(args.config), unit, args.config)
    entry = config.get((args.class_name, args.method), MethodConfig((), {}))
    result = _select_cases(
        unit, args.class_name, args.method, entry, args.budget, seed
    )
    out_path = Path(args.out)
    _write_files(
        out_path.parent, {out_path.name: _case_file_text([*entry.cases, *result.kept])}
    )
    target = f"{args.class_name}.{args.method}"
    payload = {
        "target": target,
        "budget": args.budget,
        "seed": seed,
        "configured": len(entry.cases),
        "kept": len(result.kept),
        "candidates_run": result.candidates_run,
        "conditional_pct": result.coverage.percent,
        "case_file": str(out_path),
    }
    if args.json:
        _print_json(payload)
    else:
        print(
            f"{target}: kept {payload['kept']} of {payload['candidates_run']} "
            f"fuzzed candidates (+{payload['configured']} configured); "
            f"conditional coverage {payload['conditional_pct']:.1f}%"
        )
        print(f"wrote {out_path}")
    return 0


def _case_file_text(cases: Sequence[TestCase]) -> str:
    """A case file: one JSON record per line."""
    return "".join(json.dumps(case_to_json(case)) + "\n" for case in cases)


# --- coverage ---------------------------------------------------------------

def _target_methods(classes: Sequence[ClassDecl], named: Iterable) -> list[tuple[str, str]]:
    """What `coverage` and `run` report: the public methods of `classes`, then
    every other (class, method) that `named` lists, in its order."""
    targets = dict.fromkeys((c.name, m.name) for c in classes for m in public_methods(c))
    targets.update(dict.fromkeys(named))
    return list(targets)


def _load_case_file(path: str) -> list[TestCase]:
    cases = []
    for n, raw in enumerate(read_text(path).split("\n"), start=1):
        if not raw.strip():
            continue
        try:
            cases.append(case_from_json(parse_json(raw, path, n)))
        except SchemaError as e:
            raise UltgenError(f"{path}:{n}: bad case record: {e.message}") from None
        except TypeError as e:
            raise UltgenError(f"{path}:{n}: bad case record: {e}") from None
    return cases


def _method_row(mc: MethodCoverage) -> dict:
    """One method's row of a coverage report."""
    return {
        "method": mc.method,
        "conditions": mc.conditions_total,
        "decisions": mc.decisions_total,
        "pairs_covered": len(mc.pairs_covered),
        "pairs_total": mc.denominator,
        "conditional_pct": mc.percent,
        "has_passing_case": mc.has_passing_case,
        "uncovered": sorted(_pair_label(p) for p in mc.uncovered),
    }


def _pair_label(pair: tuple[str, bool]) -> str:
    entity, outcome = pair
    return f"{entity}:{'T' if outcome else 'F'}"


def _coverage_payload(methods: Sequence[MethodCoverage], threshold: float) -> dict:
    """The coverage report `coverage --json` prints and `run` writes."""
    report = aggregate_report(methods)
    return {
        "methods": [_method_row(mc) for mc in methods],
        "functional_pct": report.functional_pct,
        "conditional_pct": report.conditional_pct,
        "threshold": threshold,
    }


def cmd_coverage(args: argparse.Namespace) -> int:
    _check_threshold(args.threshold)
    unit = _parse_file(args.src)
    cases = _load_case_file(args.cases)
    by_target: dict[tuple[str, str], list[TestCase]] = {}
    for case in cases:
        by_target.setdefault(case.target, []).append(case)

    evaluators = {  # an unknown target raises here
        target: CaseEvaluator(unit, *target)
        for target in _target_methods(unit.classes, by_target)
    }

    methods: list[MethodCoverage] = []
    for target, evaluator in evaluators.items():
        traces = []
        for case in by_target.get(target, []):
            evaluator.check(case)  # a case file may hold anything
            traces.append(evaluator.run(case))
        methods.append(compute_coverage(traces, evaluator))

    payload = _coverage_payload(methods, args.threshold)
    rows = payload["methods"]
    if args.json:
        _print_json(payload)
    else:
        width = max((len(r["method"]) for r in rows), default=6)
        for r in rows:
            flag = "pass" if r["has_passing_case"] else "none"
            print(
                f"{r['method']:<{width}}  {r['pairs_covered']:>3}/{r['pairs_total']:<3}"
                f"  {r['conditional_pct']:6.1f}%  passing: {flag}"
            )
        print(
            f"functional {payload['functional_pct']:.1f}%  "
            f"conditional {payload['conditional_pct']:.1f}%  "
            f"(threshold {args.threshold:.0f}%)"
        )
    return 1 if payload["conditional_pct"] < args.threshold else 0


# --- advise -----------------------------------------------------------------

def _advise_payload(
    bugs_path: str,
    commits_path: str,
    coverage_path: str,
    map_path: str,
    tau: float,
    grid: Sequence[int],
) -> dict:
    bugs, commits, snapshots, cmap, warnings = ingest(
        bugs_path, commits_path, coverage_path, map_path
    )
    trends, trend_warnings = build_trends(bugs, commits, snapshots, cmap)
    model = train_model(trends)
    recs = recommend_all(model, trends, tau=tau, grid=grid)
    report = gap_report(recs)
    return {
        "components": [
            {
                "component": r.component,
                "current_conditional_pct": r.current_conditional_pct,
                "recommended_conditional_pct": r.recommended_conditional_pct,
                "highlight": r.highlight,
                "risk_at_current": r.risk_at_current,
                "risk_at_recommended": r.risk_at_recommended,
                "fallback_used": r.fallback_used,
            }
            for r in recs
        ],
        "gaps": report["gaps"],
        "gap_count": report["gap_count"],
        "model": {
            "weights": list(model.weights),
            "bias": model.bias,
            "churn_max": model.churn_max,
            "n_samples": model.n_samples,
            "final_loss": model.loss_history[-1],
        },
        "warnings": warnings + trend_warnings,
    }


def _advise_once(args: argparse.Namespace, grid: Sequence[int]) -> int:
    payload = _advise_payload(
        args.bugs, args.commits, args.coverage, args.map, args.tau, grid
    )
    if args.json:
        _print_json(payload)
    else:
        for warning in payload["warnings"]:
            print(f"warning: {warning}", file=sys.stderr)
        for row in payload["components"]:
            mark = " <-- raise" if row["highlight"] else ""
            print(
                f"{row['component']}: current {row['current_conditional_pct']:.1f}% "
                f"-> recommended {row['recommended_conditional_pct']}%"
                f" (risk {row['risk_at_current']:.3f} -> {row['risk_at_recommended']:.3f})"
                f"{mark}"
            )
        print()
        print(render_gap_table({"gaps": payload["gaps"]}), end="")
    return 2 if payload["gap_count"] > 0 else 0


def _dir_snapshot(path: Path) -> dict[str, tuple[float, int]]:
    snap = {}
    for p in sorted(path.rglob("*")):
        if p.is_file():
            st = p.stat()
            snap[str(p)] = (st.st_mtime, st.st_size)
    return snap


def cmd_advise(args: argparse.Namespace) -> int:
    _check_tau(args.tau)
    if not (math.isfinite(args.watch_interval) and args.watch_interval >= 0):
        raise UltgenError(
            f"--watch-interval must be a finite number >= 0, got {args.watch_interval}"
        )
    if args.watch_count is not None and args.watch_count < 0:
        raise UltgenError(f"--watch-count must be >= 0, got {args.watch_count}")
    if args.watch is not None and not Path(args.watch).is_dir():
        raise UltgenError(f"--watch {args.watch}: not a directory")
    grid = _parse_grid(args.grid)
    code = _advise_once(args, grid)
    if args.watch is None:
        return code
    watch_dir = Path(args.watch)
    remaining = args.watch_count
    snapshot = _dir_snapshot(watch_dir)
    while remaining is None or remaining > 0:
        time.sleep(args.watch_interval)
        current = _dir_snapshot(watch_dir)
        if current == snapshot:
            continue
        snapshot = current
        code = _advise_once(args, grid)
        if remaining is not None:
            remaining -= 1
    return code


# --- run --------------------------------------------------------------------

class _StageError(UltgenError):
    pass


@contextlib.contextmanager
def _stage(name: str):
    """Report a tool error raised inside as an error of stage `name`."""
    try:
        yield
    except _StageError:
        raise
    except UltgenError as e:
        raise _StageError(f"stage {name!r}: {e}") from None


def _collect_sources(src_dir: Path, skip: Path) -> list[Path]:
    """The source files under `src_dir`, leaving out those under `skip`."""
    skip = skip.resolve()
    return sorted(
        p for p in src_dir.rglob("*")
        if p.suffix in SOURCE_SUFFIXES and p.is_file()
        and not p.resolve().is_relative_to(skip)
    )


def _parse_tree(src_dir: Path, sources: list[Path], texts: list[str]) -> SourceUnit:
    """Parse the files as one unit, joined with newlines. A front-end error
    is raised again at the file and line it is on; its column is kept."""
    try:
        return parse_source("\n".join(texts), path=str(src_dir))
    except CutlangError as e:
        start = 1  # line of the joined text where the file begins
        for path, text in zip(sources, texts):
            end = start + text.count("\n") + 1
            if e.line < end:
                raise type(e)(e.message, e.line - start + 1, e.column, str(path)) from None
            start = end
        raise


def _add_input(inputs: dict[str, tuple[str, str]], key: str, path: str, text: str) -> str:
    """Record `text`, read from `path`, as manifest input `key`, and return it.
    A key taken already is an error: one file would hide the other."""
    if key in inputs:
        raise UltgenError(f"{inputs[key][0]} and {path} share the manifest key {key!r}")
    inputs[key] = (path, _sha256(text))
    return text


def cmd_run(args: argparse.Namespace) -> int:
    _check_threshold(args.threshold)
    _check_tau(args.tau)
    _check_budget(args.budget)
    src_dir = Path(args.src)
    if not src_dir.is_dir():
        raise UltgenError(f"{args.src}: not a directory")
    advisor_flags = [args.bugs, args.commits, args.coverage_history, args.map]
    if any(advisor_flags) and not all(advisor_flags):
        raise UltgenError(
            "advise stage needs --bugs, --commits, --coverage-history, "
            "and --map together"
        )
    grid = _parse_grid(args.grid)
    seed = _resolve_seed(args.seed)
    out_dir = Path(args.out)

    # A scaffold written by an earlier run into the source tree is output,
    # not source.
    sources = _collect_sources(src_dir, out_dir / "scaffold")
    inputs: dict[str, tuple[str, str]] = {}  # manifest key -> (path, sha256)
    texts = [
        _add_input(inputs, p.relative_to(src_dir).as_posix(), str(p), read_text(str(p)))
        for p in sources
    ]
    with _stage("parse"):
        unit = _parse_tree(src_dir, sources, texts)
        if not unit.classes:
            raise UltgenError(f"no classes found in {args.src}")
    flag_texts = {
        flag: _add_input(inputs, Path(flag).name, flag, read_text(flag))
        for flag in [args.config, *advisor_flags] if flag
    }

    # Artifacts are built as text, and written once every stage succeeded.
    with _stage("cases"):
        config = {}
        if args.config:
            config = load_case_config(flag_texts[args.config], unit, args.config)
    files: dict[str, str] = {}  # path under `out_dir` -> text
    stages: dict[str, dict] = {}
    gap_count = 0
    if all(advisor_flags):
        with _stage("advise"):
            advise = _advise_payload(
                args.bugs, args.commits, args.coverage_history, args.map,
                args.tau, grid,
            )
        files["advise.json"] = _json_text(advise)
        gap_count = advise["gap_count"]
        stages["advise"] = {
            "gap_count": gap_count,
            "highlighted": [row["component"] for row in advise["gaps"]],
            "report": "advise.json",
        }

    classes = sorted(unit.classes, key=lambda cls: cls.name)
    with _stage("scaffold"):
        bundle = generate_scaffold(unit, *(cls.name for cls in classes))
    for warning in bundle.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    scaffold_files = {f"scaffold/{name}": text for name, text in sorted(bundle.files)}
    files.update(scaffold_files)
    stages["scaffold"] = {
        "classes": [cls.name for cls in classes],
        "files": list(scaffold_files),
        "auto_line_count": bundle.auto_line_count,
        "anchor_line_count": bundle.anchor_line_count,
        "generation_ratio": measure_generation_ratio(
            bundle.auto_line_count, bundle.anchor_line_count
        ),
    }

    with _stage("cases"):
        all_cases: list[TestCase] = []
        methods: list[MethodCoverage] = []
        candidates_total = 0
        for cls_name, method_name in _target_methods(classes, config):
            entry = config.get((cls_name, method_name), MethodConfig((), {}))
            result = _select_cases(
                unit, cls_name, method_name, entry, args.budget, seed
            )
            all_cases.extend(entry.cases)
            all_cases.extend(result.kept)
            candidates_total += result.candidates_run
            methods.append(result.coverage)
    files["cases.jsonl"] = _case_file_text(all_cases)
    # every configured method is a target, so each configured case is written
    configured = sum(len(entry.cases) for entry in config.values())
    stages["cases"] = {
        "configured": configured,
        "fuzzed_kept": len(all_cases) - configured,
        "candidates_run": candidates_total,
        "case_file": "cases.jsonl",
    }

    with _stage("coverage"):
        coverage = _coverage_payload(methods, args.threshold)
    files["coverage.json"] = _json_text(coverage)
    stages["coverage"] = {
        "functional_pct": coverage["functional_pct"],
        "conditional_pct": coverage["conditional_pct"],
        "report": "coverage.json",
    }

    exit_code = 2 if (gap_count > 0 or coverage["conditional_pct"] < args.threshold) else 0
    manifest = {
        "tool_version": __version__,
        "seed": seed,
        "budget": args.budget,
        "inputs": {key: digest for key, (_, digest) in sorted(inputs.items())},
        "stages": stages,
        "exit_code": exit_code,
    }
    files["manifest.json"] = _json_text(manifest)
    _write_files(out_dir, files)
    if args.json:
        _print_json(manifest)
    else:
        print(f"classes: {len(classes)}  cases: {len(all_cases)}")
        print(
            f"generation ratio {stages['scaffold']['generation_ratio']:.4f}  "
            f"functional {coverage['functional_pct']:.1f}%  "
            f"conditional {coverage['conditional_pct']:.1f}%"
        )
        if "advise" in stages:
            print(f"highlighted gaps: {gap_count}")
        print(f"manifest: {out_dir / 'manifest.json'}")
    return exit_code


# --- parser -----------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    # usage problems are caller errors, not highlighted-gap exits
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ultgen",
        description="Unit test scaffolding, robustness cases, and coverage advice.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decisions", help="print the condition/decision table")
    p.add_argument("file")
    p.add_argument("--class", dest="class_name", required=True)
    p.add_argument("--method")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decisions)

    p = sub.add_parser("scaffold", help="write fixture, test class, and mocks")
    p.add_argument("src")
    p.add_argument("--class", dest="class_name", required=True)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--merge", action="store_true",
                   help="carry anchored edits over from existing files")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_scaffold)

    p = sub.add_parser("cases", help="fuzz and select robustness cases")
    p.add_argument("src")
    p.add_argument("--class", dest="class_name", required=True)
    p.add_argument("--method", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", help="configured cases and pool overrides (JSON)")
    p.add_argument("-o", "--out", required=True, help="case file to write (JSONL)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cases)

    p = sub.add_parser("coverage", help="replay a case file and measure coverage")
    p.add_argument("src")
    p.add_argument("--cases", required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("advise", help="recommend per-component coverage targets")
    p.add_argument("--bugs", required=True)
    p.add_argument("--commits", required=True)
    p.add_argument("--coverage", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--tau", type=float, default=DEFAULT_TAU)
    p.add_argument("--grid", default=",".join(str(g) for g in COVERAGE_GRID))
    p.add_argument("--watch", help="directory to watch; re-advise on change")
    p.add_argument("--watch-count", type=int, default=None,
                   help="stop after this many re-runs (default: forever)")
    p.add_argument("--watch-interval", type=float, default=0.25)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_advise)

    p = sub.add_parser("run", help="full pipeline over a source directory")
    p.add_argument("src")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--config")
    p.add_argument("--bugs")
    p.add_argument("--commits")
    p.add_argument("--coverage-history", dest="coverage_history")
    p.add_argument("--map")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tau", type=float, default=DEFAULT_TAU)
    p.add_argument("--grid", default=",".join(str(g) for g in COVERAGE_GRID))
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UltgenError as e:
        print(f"ultgen: error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"ultgen: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
