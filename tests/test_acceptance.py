"""Acceptance gate: one test per shipping criterion.

Each test prints a single `ACn PASS/FAIL: ...` line directly to the
terminal (bypassing capture) so a full `pytest` run always shows the
scorecard, then asserts the same condition.
"""

import hashlib
import json
import time

import pytest

import test_advisor
from oracle_eval import OracleEvaluator, scalars_equal
from ultgen.advisor import (
    ComponentTrend,
    ModelParams,
    Recommendation,
    TrendPoint,
    gap_report,
    loss_gradient_hessian,
    recommend,
    recommend_all,
    train_model,
)
from ultgen.cases import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    TestCase,
    _scalar_from_json,
    fuzz_candidates,
    greedy_select,
)
from ultgen.cli import _advise_payload
from ultgen.coverage import brute_force_max_coverage
from ultgen.cutlang.parser import parse_source
from ultgen.interp import ASSERT_FAILURE, DIV_BY_ZERO, CaseEvaluator
from ultgen.rng import SplitMix64
from ultgen.scaffold import generate_scaffold

INT_MIN = -(2 ** 63)
INT_MAX = 2 ** 63 - 1

GOLDEN_FILES = ("a_test_fixture.h", "test_a.h", "mock_c.h")


@pytest.fixture
def announce(capsys):
    def _line(n, ok, detail):
        text = f"AC{n} {'PASS' if ok else 'FAIL'}: {detail}"
        with capsys.disabled():
            print(text)
        assert ok, text

    return _line


# --- 1. golden scaffold -----------------------------------------------------

def test_ac1_golden_scaffold(golden_dir, announce):
    start = time.monotonic()
    unit = parse_source(
        (golden_dir / "class_a.cut").read_text(), path="<golden>"
    )
    bundle = generate_scaffold(unit, "A")
    files = dict(bundle.files)
    byte_exact = all(
        files.get(name) == (golden_dir / "expected" / name).read_text()
        for name in GOLDEN_FILES
    )
    fixture = files["a_test_fixture.h"]
    structure = all([
        "class A_TestCase : public testing::Test" in fixture,
        "virtual void SetUp()" in fixture,
        "virtual void TearDown()" in fixture,
        "TEST_F(A_TestCase, func1)" in fixture,
        "TEST_F(A_TestCase, func2)" in fixture,
        "testA->func1Test();" in fixture,
        "testA->func2Test();" in fixture,
        "class Test_A : public A" in files["test_a.h"],
        "class MOCK_C : public C" in files["mock_c.h"],
        "void SetVariable1(int value)" in files["mock_c.h"],
        "void SetVariable2(int value)" in files["mock_c.h"],
    ])
    elapsed = time.monotonic() - start
    announce(
        1, byte_exact and structure and elapsed < 1.0,
        f"golden scaffold byte-exact with fixture/test/mock structure "
        f"(byte_exact={byte_exact} structure={structure} {elapsed:.2f}s < 1s)",
    )


# --- 2. generation ratio ----------------------------------------------------

def test_ac2_generation_ratio(corpus_unit, announce):
    start = time.monotonic()
    auto = anchored = 0
    shape_ok = True
    for cls in corpus_unit.classes:
        if not 2 <= len(cls.methods) <= 8:
            shape_ok = False
        if not 0 <= len(cls.dependencies) <= 3:
            shape_ok = False
        bundle = generate_scaffold(corpus_unit, cls.name)
        auto += bundle.auto_line_count
        anchored += bundle.anchor_line_count
    ratio = auto / (auto + anchored)
    n = len(corpus_unit.classes)
    elapsed = time.monotonic() - start
    announce(
        2, n >= 20 and shape_ok and ratio >= 0.80 and elapsed < 5.0,
        f"aggregate generated-line ratio {ratio:.4f} >= 0.80 over {n} classes "
        f"(2-8 methods, 0-3 deps each; {elapsed:.2f}s < 5s)",
    )


# --- 3. coverage targets ----------------------------------------------------

def test_ac3_fuzz_reaches_brute_force_targets(corpus_unit, corpus_dir, announce):
    start = time.monotonic()
    domains = json.loads((corpus_dir / "domains.json").read_text())
    below_floor = []
    off_max = []
    checked = exempt = 0
    for cls in corpus_unit.classes:
        for m in cls.methods:
            evaluator = CaseEvaluator(corpus_unit, cls.name, m.name)
            n_conditions = sum(len(d.conditions) for d in evaluator.decisions)
            if n_conditions > 6:
                exempt += 1
                continue
            checked += 1
            result = greedy_select(
                fuzz_candidates(
                    evaluator,
                    budget=256, seed=42,
                ),
                evaluator,
            )
            fuzz_pct = result.coverage.percent
            if fuzz_pct < 70.0:
                below_floor.append(f"{cls.name}.{m.name}={fuzz_pct:.0f}%")
            entry = domains[f"{cls.name}.{m.name}"]
            brute = brute_force_max_coverage(
                evaluator,
                {k: [_scalar_from_json(v) for v in vs]
                 for k, vs in entry["params"].items()},
                {tuple(k.split(".", 1)): [_scalar_from_json(v) for v in vs]
                 for k, vs in entry["mocks"].items()},
            )
            if fuzz_pct != brute.percent:
                off_max.append(f"{cls.name}.{m.name}")
    parity = (checked - len(off_max)) / checked
    elapsed = time.monotonic() - start
    announce(
        3,
        not below_floor and parity >= 0.95 and elapsed < 30.0,
        f"budget 256 seed 42: {checked} methods all >= 70% conditional "
        f"(low: {below_floor or 'none'}), {parity:.1%} match the brute-force "
        f"maximum (off: {off_max or 'none'}; {exempt} exempt >6 conditions; "
        f"{elapsed:.2f}s < 30s)",
    )


# --- 4. oracle equivalence --------------------------------------------------

def _random_value(type_, rng):
    if type_ == "bool":
        return rng.coin()
    if type_ == "int":
        pool = (0, 1, -1, 2, 7, -100, INT_MIN, INT_MAX)
        r = rng.below(10)
        return pool[r] if r < len(pool) else rng.signed64()
    pool = (0.0, -0.0, 1.0, -1.0, 2.5, -2.5,
            float("inf"), float("-inf"), float("nan"))
    r = rng.below(12)
    return pool[r] if r < len(pool) else rng.float01() * 200.0 - 100.0


def _random_case(target, evaluator, rng, index):
    params = {
        p.name: _random_value(p.type, rng) for p in evaluator.method.params
    }
    mocks = {}
    for key, ret in evaluator.mock_types.items():
        if rng.below(8) == 0:
            continue  # leave some sites unmocked to exercise UnmockedCall
        mocks[key] = [_random_value(ret, rng) for _ in range(1 + rng.below(3))]
    fields = {}
    for fname, ftype in evaluator.field_types.items():
        if rng.coin():
            fields[fname] = _random_value(ftype, rng)
    return TestCase(
        id=f"ac4-{index}", target=target, param_values=params,
        field_values=fields, mock_plan=mocks, origin="Fuzzed",
    )


def test_ac4_oracle_equivalence(corpus_unit, announce):
    start = time.monotonic()
    targets = [
        (cls.name, m.name) for cls in corpus_unit.classes for m in cls.methods
    ]
    evaluators = {t: CaseEvaluator(corpus_unit, *t) for t in targets}
    oracles = {t: OracleEvaluator(corpus_unit, *t) for t in targets}
    rng = SplitMix64(4242)
    disagreements = []
    for i in range(10_000):
        target = targets[rng.below(len(targets))]
        case = _random_case(target, evaluators[target], rng, i)
        trace = evaluators[target].run(case)
        result = oracles[target].run(case)
        same = (
            trace.outcomes == result.outcomes
            and trace.terminal == result.terminal
            and (trace.crash.kind if trace.crash else None) == result.crash_kind
            and scalars_equal(trace.return_value, result.return_value)
        )
        if not same and len(disagreements) < 3:
            disagreements.append(f"{target} case {i}")
    elapsed = time.monotonic() - start
    announce(
        4, not disagreements,
        f"10000 random cases across {len(targets)} methods, evaluator vs "
        f"oracle: {len(disagreements)} disagreements "
        f"({disagreements or 'none'}; {elapsed:.2f}s)",
    )


# --- 5. planted faults ------------------------------------------------------

def test_ac5_planted_faults_found(corpus_unit, planted, announce):
    wanted_kind = {"div_by_zero": DIV_BY_ZERO, "assert_failure": ASSERT_FAILURE}
    missed = []
    total = 0
    for label, targets in planted.items():
        kind = wanted_kind[label]
        for cls_name, method_name in targets:
            total += 1
            evaluator = CaseEvaluator(corpus_unit, cls_name, method_name)
            result = greedy_select(
                fuzz_candidates(
                    evaluator,
                    budget=DEFAULT_BUDGET, seed=DEFAULT_SEED,
                ),
                evaluator,
            )
            if not any(t.crash and t.crash.kind == kind for t in result.traces):
                missed.append(f"{cls_name}.{method_name}:{kind}")
    announce(
        5, not missed,
        f"{total - len(missed)}/{total} planted faults surface in kept cases "
        f"at default budget/seed (missed: {missed or 'none'})",
    )


# --- 6. determinism ---------------------------------------------------------

def test_ac6_run_determinism(invoke, project_dir, history_dir, tmp_path, announce):
    trees = []
    codes = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        code, _, _ = invoke(
            "run", project_dir / "src", "-o", out_dir,
            "--config", project_dir / "cases.json",
            "--bugs", history_dir / "bugs.jsonl",
            "--commits", history_dir / "commits.jsonl",
            "--coverage-history", history_dir / "coverage.jsonl",
            "--map", history_dir / "map.json",
        )
        codes.append(code)
        tree = {}
        for path in sorted(out_dir.rglob("*")):
            if path.is_file():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                tree[path.relative_to(out_dir).as_posix()] = digest
        trees.append(tree)
    announce(
        6, codes == [0, 0] and trees[0] == trees[1] and len(trees[0]) >= 5,
        f"two pipeline runs: exit codes {codes}, {len(trees[0])} artifacts, "
        f"hashes {'identical' if trees[0] == trees[1] else 'DIFFER'}",
    )


# --- 7. advisor recovery ----------------------------------------------------

def _max_gradient_error(points=10):
    rng = SplitMix64(777)
    h = 1e-6
    worst = 0.0
    for _ in range(points):
        samples = []
        for _ in range(8):
            features = (rng.float01(), rng.float01(), rng.float01())
            samples.append((features, rng.below(2)))
        w = [rng.float01() * 4.0 - 2.0 for _ in range(3)]
        b = rng.float01() * 4.0 - 2.0
        _, grad_w, grad_b = loss_gradient_hessian(w, b, samples)[:3]
        analytic = list(grad_w) + [grad_b]
        for j in range(4):
            wp, wm, bp, bm = list(w), list(w), b, b
            if j < 3:
                wp[j] += h
                wm[j] -= h
            else:
                bp += h
                bm -= h
            lp, _, _ = loss_gradient_hessian(wp, bp, samples)[:3]
            lm, _, _ = loss_gradient_hessian(wm, bm, samples)[:3]
            numeric = (lp - lm) / (2 * h)
            worst = max(
                worst, abs(numeric - analytic[j]) / max(1.0, abs(numeric))
            )
    return worst


def test_ac7_advisor_recovery(announce):
    start = time.monotonic()
    model = test_advisor.learned_model()
    sign_ok = model.weights[0] < 0.0
    history = model.loss_history
    loss_ok = all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
    closed = recommend(
        test_advisor.PLANTED_MODEL,
        ComponentTrend("pay", (TrendPoint("2025-01", 0, 50.0, 0),)),
    )
    closed_ok = closed.recommended_conditional_pct == 85
    grad_err = _max_gradient_error()
    elapsed = time.monotonic() - start
    announce(
        7,
        sign_ok and loss_ok and closed_ok and grad_err <= 1e-4
        and elapsed < 10.0,
        f"learned w_cov={model.weights[0]:.3f} < 0, loss non-increasing, "
        f"closed-form coverage-50 recommendation "
        f"{closed.recommended_conditional_pct} == 85, max gradient error "
        f"{grad_err:.2e} <= 1e-4 ({elapsed:.2f}s < 10s)",
    )


# --- 8. recommendation floor ------------------------------------------------

def _degenerate(weights, bias):
    return ModelParams(
        weights=weights, bias=bias, churn_max=0, n_samples=0,
        loss_history=(),
    )


def test_ac8_recommendation_floor(history_dir, tmp_path, announce):
    seen = []

    def collect(values):
        seen.extend(values)

    clean = _advise_payload(
        str(history_dir / "bugs.jsonl"), str(history_dir / "commits.jsonl"),
        str(history_dir / "coverage.jsonl"), str(history_dir / "map.json"),
        tau=0.3, grid=(70, 75, 80, 85, 90, 95),
    )
    collect(c["recommended_conditional_pct"] for c in clean["components"])

    import test_cli
    gap_hist = test_cli._gap_history(tmp_path, history_dir)
    gappy = _advise_payload(
        str(gap_hist / "bugs.jsonl"), str(gap_hist / "commits.jsonl"),
        str(gap_hist / "coverage.jsonl"), str(gap_hist / "map.json"),
        tau=0.3, grid=(70, 75, 80, 85, 90, 95),
    )
    collect(c["recommended_conditional_pct"] for c in gappy["components"])

    learned = test_advisor.learned_model()
    recs = recommend_all(learned, test_advisor.learned_fixture_trends())
    collect(r.recommended_conditional_pct for r in recs)

    for cov in range(0, 101, 5):
        trend = ComponentTrend(
            "sweep", (TrendPoint("2025-01", 0, float(cov), 0),)
        )
        for model in (
            test_advisor.PLANTED_MODEL,
            _degenerate((5.0, 0.0, 0.0), 0.0),    # fallback path
            _degenerate((-0.5, 0.0, 0.0), 50.0),  # nothing acceptable
            _degenerate((-50.0, 0.0, 0.0), -10.0),  # everything acceptable
        ):
            collect([recommend(model, trend).recommended_conditional_pct])

    low = min(seen)
    high = max(seen)
    announce(
        8, low >= 70 and high <= 95,
        f"{len(seen)} recommendations across suite inputs, all within "
        f"[70, 95] (min {low}, max {high})",
    )


# --- 9. highlight semantics -------------------------------------------------

def _rec(component, current, recommended):
    return Recommendation(
        component=component,
        recommended_conditional_pct=recommended,
        current_conditional_pct=current,
        highlight=recommended > current + 1,
        risk_at_current=0.5,
        risk_at_recommended=0.2,
        fallback_used=False,
    )


def test_ac9_gap_highlight_semantics(announce):
    fixtures = {
        "no-gap": ([_rec("a", 95.0, 95), _rec("b", 94.5, 95)], []),
        "one-gap": (
            [_rec("a", 95.0, 95), _rec("b", 70.0, 85), _rec("c", 89.5, 90)],
            ["b"],
        ),
        "tie": (
            [
                _rec("beta", 75.0, 85),   # gap 10
                _rec("alfa", 80.0, 90),   # gap 10, name breaks the tie
                _rec("gamma", 60.0, 90),  # gap 30 sorts first
                _rec("delta", 95.0, 95),
            ],
            ["gamma", "alfa", "beta"],
        ),
    }
    problems = []
    for name, (recs, expected) in fixtures.items():
        report = gap_report(recs)
        got = [row["component"] for row in report["gaps"]]
        wanted = {
            r.component for r in recs
            if r.recommended_conditional_pct > r.current_conditional_pct + 1
        }
        if got != expected or set(got) != wanted:
            problems.append(f"{name}: got {got}, expected {expected}")
        if report["gap_count"] != len(expected):
            problems.append(f"{name}: gap_count {report['gap_count']}")
    announce(
        9, not problems,
        "gap report lists exactly the components with recommended > "
        f"current + 1, ordered by gap then name, on no-gap/one-gap/tie "
        f"fixtures ({problems or 'all three match'})",
    )
