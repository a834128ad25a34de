"""Pair accounting, aggregation, and the exhaustive-domain oracle."""

import pytest

from ultgen.cases import TestCase, fuzz_candidates, greedy_select
from ultgen.coverage import (
    aggregate_report,
    all_pairs,
    brute_force_max_coverage,
    compute_coverage,
    percent_of,
)
from ultgen.cutlang import parse_source
from ultgen.errors import DomainTooLarge, EmptyDomain, MixedTargets
from ultgen.interp import CaseEvaluator

SRC = """
class D { public: int get() { return 0; } };
class A {
public:
    D* d;
    int n;

    int pick(int x, bool go) {
        if (x > 0 && go) {
            return 1;
        }
        return 0;
    }

    int plain(int x) {
        return x + 1;
    }
};
"""


@pytest.fixture(scope="module")
def unit():
    return parse_source(SRC, path="<cov>")


def run_cases(evaluator, cases):
    return [evaluator.run(c) for c in cases]


def mk(cid, method, params, fields=None, mocks=None):
    return TestCase(cid, ("A", method), params, fields or {}, mocks or {}, "Configured")


def test_all_pairs_enumerates_entities(unit):
    evaluator = CaseEvaluator(unit, "A", "pick")
    pairs = all_pairs(evaluator.decisions)
    ids = {p[0] for p in pairs}
    assert ids == {"A.pick:D1", "A.pick:D1.c1", "A.pick:D1.c2"}
    assert len(pairs) == 6


def test_percent_vacuous_is_100():
    assert percent_of(0, 0) == 100.0


def test_compute_coverage_unions_traces(unit):
    evaluator = CaseEvaluator(unit, "A", "pick")
    traces = run_cases(
        evaluator,
        [
            mk("t", "pick", {"x": 1, "go": True}),
            mk("f", "pick", {"x": 0, "go": True}),
        ],
    )
    cov = compute_coverage(traces, evaluator)
    assert ("A.pick:D1", True) in cov.pairs_covered
    assert ("A.pick:D1", False) in cov.pairs_covered
    # go=True never saw c2 False, x=0 short-circuited it
    assert ("A.pick:D1.c2", False) not in cov.pairs_covered
    assert cov.uncovered == {("A.pick:D1.c2", False)}
    assert cov.percent == pytest.approx(100.0 * 5 / 6)
    assert cov.denominator == 6


def test_zero_decision_method_is_vacuously_covered(unit):
    evaluator = CaseEvaluator(unit, "A", "plain")
    cov = compute_coverage([], evaluator)
    assert cov.percent == 100.0
    assert cov.denominator == 0
    assert not cov.has_passing_case
    # one shared empty set, so decision-free methods allocate none
    assert cov.pairs_covered is cov.uncovered == frozenset()


def test_mixed_fingerprints_rejected(unit):
    other = parse_source(SRC.replace("x + 1", "x + 2"), path="<cov2>")
    e1 = CaseEvaluator(unit, "A", "plain")
    e2 = CaseEvaluator(other, "A", "plain")
    t1 = e1.run(mk("a", "plain", {"x": 1}))
    t2 = e2.run(mk("b", "plain", {"x": 1}))
    with pytest.raises(MixedTargets):
        compute_coverage([t1, t2], e1)
    # a lone trace is checked against the evaluator's own body too
    with pytest.raises(MixedTargets):
        compute_coverage([t2], e1)


def test_aggregate_weights_by_pairs(unit):
    e_pick = CaseEvaluator(unit, "A", "pick")
    e_plain = CaseEvaluator(unit, "A", "plain")
    cov_pick = compute_coverage(
        run_cases(e_pick, [mk("t", "pick", {"x": 1, "go": True})]), e_pick
    )
    cov_plain = compute_coverage(
        run_cases(e_plain, [mk("p", "plain", {"x": 1})]), e_plain
    )
    report = aggregate_report([cov_pick, cov_plain])
    # plain contributes no pairs; aggregate is pick's 3/6
    assert report.conditional_pct == pytest.approx(50.0)
    assert report.functional_pct == pytest.approx(100.0)


def test_aggregate_empty_is_vacuous():
    report = aggregate_report([])
    assert report.conditional_pct == 100.0
    assert report.functional_pct == 100.0


# --- brute force ----------------------------------------------------------

def test_brute_force_reports_unreachable(unit):
    evaluator = CaseEvaluator(unit, "A", "pick")
    cov = brute_force_max_coverage(
        evaluator,
        {"x": [0, 1], "go": [False]},
        {},
    )
    # go locked False: c2 never True, D never True
    assert ("A.pick:D1", True) in cov.uncovered
    assert ("A.pick:D1.c2", True) in cov.uncovered
    assert cov.combos == 2
    assert cov.percent == pytest.approx(100.0 * 4 / 6)


def test_brute_force_full_domain_reaches_max(unit):
    evaluator = CaseEvaluator(unit, "A", "pick")
    cov = brute_force_max_coverage(
        evaluator,
        {"x": [0, 1], "go": [False, True]},
        {},
    )
    assert cov.percent == 100.0
    assert cov.uncovered == frozenset()


def test_brute_force_requires_domains(unit):
    evaluator = CaseEvaluator(unit, "A", "pick")
    with pytest.raises(EmptyDomain):
        brute_force_max_coverage(evaluator, {"x": [1]}, {})


def test_brute_force_cap(unit):
    evaluator = CaseEvaluator(unit, "A", "pick")
    with pytest.raises(DomainTooLarge):
        brute_force_max_coverage(
            evaluator,
            {"x": list(range(2000)), "go": [False, True]},
            {},
            cap=1000,
        )


def test_fuzzer_matches_brute_force_on_small_product(unit):
    evaluator = CaseEvaluator(unit, "A", "pick")
    result = greedy_select(
        fuzz_candidates(evaluator, 256, 42),
        evaluator,
    )
    brute = brute_force_max_coverage(
        evaluator,
        {"x": [0, 1], "go": [False, True]},
        {},
    )
    assert result.coverage.percent == brute.percent == 100.0
