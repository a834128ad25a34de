"""Run one `ultgen run` in this fresh process and report how it went.

    python3 perfbench/invoke.py RESULT.json [--spans SPANS.jsonl] -- ARGS...

ARGS are the arguments of `ultgen` itself (starting with `run`). The wall
time covers `ultgen.cli.main(ARGS)` only; interpreter start-up and the
import of `ultgen.cli` are measured separately as `setup_s`. With --spans
the run is traced: public functions are wrapped at the names `ultgen.cli`,
`ultgen.cases`, `ultgen.interp` and `ultgen.cutlang.parser` call them
through, each call records a span (name, start, end, parent) in memory, and
the spans are written to SPANS.jsonl after the run. Nothing under `src/`
changes. Host speed is sampled during the run (hostspeed.py). RESULT.json
receives the exit code, the raw wall time, the host slowdown, the wall time
corrected for it, peak RSS and, when traced, the per-layer metrics, whose
times are corrected the same way.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402

import ultgen.cli as cli  # noqa: E402
import ultgen.cases as cases_mod  # noqa: E402
import ultgen.cutlang.parser as parser_mod  # noqa: E402
import ultgen.interp as interp_mod  # noqa: E402
from ultgen.cutlang.nodes import walk  # noqa: E402
from ultgen.errors import ContractViolation  # noqa: E402


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent index];
    the parent is the span open on the stack when the call began."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.units: list = []  # parsed units; nodes are counted after the run
        self.select_runs: list[int] = []  # candidates run per greedy_select
        self.select_no_decisions = 0

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(result)
            return result
        return traced

    def wrap_iter(self, name: str, fn):
        """Each step of the returned iterator is one span."""
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def steps():
                while True:
                    idx = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item
            return steps()
        return traced

    # -- per-layer counters ------------------------------------------------

    def _on_run(self, trace) -> None:
        self.add("steps", trace.steps)
        if trace.crash is not None and trace.crash.kind == interp_mod.FUEL_EXHAUSTED:
            self.add("fuel_exhausted")

    def _on_select(self, result) -> None:
        self.add("candidates", result.candidates_run)
        self.add("kept", len(result.kept))
        self.select_runs.append(result.candidates_run)
        if result.coverage.denominator == 0:
            self.select_no_decisions += 1

    def install(self) -> None:
        """Patch the call-site names. A missing name raises AttributeError:
        the trace must not silently lose a layer."""
        t = self
        patches = [
            (cli, "parse_source", "cutlang.parser.parse", t.units.append),
            (parser_mod, "tokenize", "cutlang.lexer.tokenize",
             lambda toks: t.add("tokens", len(toks))),
            (interp_mod, "extract_decisions", "decisions.extract",
             lambda ds: t.add("conditions", sum(len(d.conditions) for d in ds))),
            (cli, "greedy_select", "cases.greedy", t._on_select),
            (cases_mod, "compute_coverage", "coverage.compute", None),
            (cli, "aggregate_report", "coverage.aggregate", None),
            (cli, "generate_scaffold", "scaffold.generate",
             lambda b: t.add("scaffold_lines", sum(text.count("\n") for _, text in b.files))),
            (cli, "ingest", "advisor.ingest", None),
            (cli, "build_trends", "advisor.trends", None),
            (cli, "train_model", "advisor.train",
             lambda model: t.add("samples", model.n_samples)),
            (cli, "recommend_all", "advisor.recommend", None),
        ]
        for module, attr, name, after in patches:
            setattr(module, attr, t.wrap(name, getattr(module, attr), after))
        cli.fuzz_candidates = t.wrap_iter("cases.fuzz", cli.fuzz_candidates)

        evaluator = interp_mod.CaseEvaluator
        evaluator.__init__ = t.wrap("interp.init", evaluator.__init__)
        run = evaluator.run

        def counted_run(self, case):
            t.add("cases")
            try:
                trace = run(self, case)
            except ContractViolation:
                t.add("invalid")
                raise
            t._on_run(trace)
            return trace
        evaluator.run = t.wrap("interp.run", counted_run)

    # -- reduction -----------------------------------------------------------

    def metrics(self, wall: float) -> dict[str, float]:
        total: dict[str, float] = {}
        child: dict[str, float] = {}
        durations: dict[str, list[float]] = {}
        root = 0.0
        for name, start, end, parent in self.spans:
            d = end - start
            total[name] = total.get(name, 0.0) + d
            durations.setdefault(name, []).append(d)
            if parent < 0:
                root += d
            else:
                pname = self.spans[parent][0]
                child[pname] = child.get(pname, 0.0) + d

        def self_s(name: str) -> float:
            return total.get(name, 0.0) - child.get(name, 0.0)

        def ratio(a: float, b: float) -> float:
            return a / b if b > 0 else 0.0

        c = self.counts.get
        selects = sorted(durations.get("cases.greedy", [0.0]))
        nodes = sum(1 for unit in self.units for _ in walk(unit))
        return {
            "cutlang.lexer.tokenize_s": self_s("cutlang.lexer.tokenize"),
            "cutlang.lexer.tokens": c("tokens", 0),
            "cutlang.lexer.tokens_per_s": ratio(c("tokens", 0), self_s("cutlang.lexer.tokenize")),
            "cutlang.parser.parse_s": self_s("cutlang.parser.parse"),
            "cutlang.parser.nodes": nodes,
            "decisions.extract_s": self_s("decisions.extract"),
            "decisions.conditions": c("conditions", 0),
            "interp.init_s": self_s("interp.init"),
            "interp.run_s": self_s("interp.run"),
            "interp.cases": c("cases", 0),
            "interp.steps": c("steps", 0),
            "interp.steps_per_s": ratio(c("steps", 0), self_s("interp.run")),
            "interp.cases_per_s": ratio(c("cases", 0), self_s("interp.run")),
            "interp.fuel_exhausted": c("fuel_exhausted", 0),
            "interp.invalid": c("invalid", 0),
            "cases.fuzz_s": total.get("cases.fuzz", 0.0),
            "cases.greedy_self_s": self_s("cases.greedy"),
            "cases.candidates": c("candidates", 0),
            "cases.kept": c("kept", 0),
            "cases.keep_ratio": ratio(c("kept", 0), c("candidates", 0)),
            "cases.select_p50_s": statistics.median(selects),
            "cases.select_p95_s": selects[min(len(selects) - 1, int(0.95 * len(selects)))],
            "coverage.compute_s": self_s("coverage.compute"),
            "coverage.aggregate_s": self_s("coverage.aggregate"),
            "scaffold.generate_s": self_s("scaffold.generate"),
            "scaffold.lines": c("scaffold_lines", 0),
            "advisor.ingest_s": self_s("advisor.ingest"),
            "advisor.trends_s": self_s("advisor.trends"),
            "advisor.train_s": self_s("advisor.train"),
            "advisor.samples": c("samples", 0),
            "advisor.recommend_s": self_s("advisor.recommend"),
            "cli.self_s": wall - root,
        }

    def shape(self, budget: int) -> dict[str, float]:
        """The properties the workloads are chosen for (see README)."""
        methods = len(self.select_runs)
        cases = self.counts.get("cases", 0)
        return {
            "steps_per_case": self.counts.get("steps", 0) / cases if cases else 0.0,
            "fuel_exhausted_share": self.counts.get("fuel_exhausted", 0) / cases if cases else 0.0,
            "no_decision_method_share": self.select_no_decisions / methods if methods else 0.0,
            "full_budget_method_share": (
                sum(1 for n in self.select_runs if n >= budget) / methods if methods else 0.0
            ),
            "advisor_samples": self.counts.get("samples", 0),
        }

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def _corrected(name: str, value: float, slowdown: float) -> float:
    """A layer metric at quiet-host speed: times shrink by the slowdown,
    rates grow by it, counts stay."""
    if name.endswith("_per_s"):
        return value * slowdown
    if name.endswith("_s"):
        return value / slowdown
    return value


def main(argv: list[str]) -> int:
    result_path = Path(argv[0])
    rest = argv[1:]
    spans_path = None
    if rest[:1] == ["--spans"]:
        spans_path = Path(rest[1])
        rest = rest[2:]
    if rest[:1] != ["--"]:
        print("usage: invoke.py RESULT.json [--spans SPANS.jsonl] -- ARGS...", file=sys.stderr)
        return 1
    args = rest[1:]
    tracer = None
    if spans_path is not None:
        tracer = Tracer()
        tracer.install()
    sampler = hostspeed.Sampler()
    sampler.start()
    start = time.perf_counter()
    code = cli.main(args)
    wall = time.perf_counter() - start
    sampler.stop()
    slowdown = sampler.slowdown()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "exit_code": code,
        "raw_wall_s": wall,
        "slowdown": slowdown,
        "wall_s": (wall - sampler.spent_s()) / slowdown,
        "peak_rss_mb": rss_mb,
    }
    if tracer is not None:
        result["layers"] = {
            name: _corrected(name, value, slowdown)
            for name, value in tracer.metrics(wall).items()
        }
        result["shape"] = tracer.shape(cli.build_parser().parse_args(args).budget)
        tracer.write_spans(spans_path)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
