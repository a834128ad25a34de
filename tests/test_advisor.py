"""Advisor tests: ingestion, trend assembly, training, recommendations."""

import json
import math
import pathlib

import pytest
from hypothesis import given, strategies as st

from ultgen import advisor
from ultgen.advisor import (
    COVERAGE_CEIL,
    COVERAGE_FLOOR,
    COVERAGE_GRID,
    DEFAULT_TAU,
    NEWTON_MAX_STEPS,
    PERIOD_RE,
    UNMAPPED,
    BugRecord,
    CommitRecord,
    ComponentMap,
    ComponentTrend,
    CoverageSnapshot,
    ModelParams,
    Recommendation,
    TrendPoint,
    build_trends,
    component_matcher,
    gap_report,
    ingest,
    load_bugs,
    load_commits,
    load_component_map,
    load_coverage,
    loss_gradient_hessian,
    make_samples,
    map_commit_to_components,
    newton_step,
    predict_risk,
    recommend,
    recommend_all,
    render_gap_table,
    sigmoid,
    train_model,
    zero_bug_median_coverage,
)
from ultgen.errors import InsufficientData, SchemaError, UntrainedModel
from ultgen.rng import SplitMix64


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def _read(path):
    """A history file as the loaders take it: (text, path)."""
    return pathlib.Path(path).read_text(encoding="utf-8"), path


def _jsonl(rows):
    return "".join(json.dumps(r) + "\n" for r in rows)


def _bug(id="BUG-1", period="2025-03", culprit="c1"):
    return {"id": id, "period": period, "culprit": culprit}


def _commit(id="c1", paths=None):
    return {"id": id, "paths": paths or [{"path": "src/core/a.c", "lines": 12}]}


def _snap(period="2025-03", component="core", functional=80.0, conditional=75.0):
    return {
        "period": period,
        "component": component,
        "functional_pct": functional,
        "conditional_pct": conditional,
    }


# --- period grammar ---------------------------------------------------------

@pytest.mark.parametrize("period", ["2025-01", "2025-12", "1999-06", "0001-09"])
def test_period_re_accepts_calendar_months(period):
    assert PERIOD_RE.match(period)


@pytest.mark.parametrize(
    "period", ["2025-00", "2025-13", "2025-1", "25-01", "2025/01", "2025-011", ""]
)
def test_period_re_rejects_malformed(period):
    assert not PERIOD_RE.match(period)


# --- loaders ----------------------------------------------------------------

def test_load_bugs_happy(tmp_path):
    path = _write(tmp_path, "bugs.jsonl", _jsonl([
        _bug("BUG-1", "2025-03", "c9"),
        _bug("BUG-2", "2025-04", "c7"),
    ]))
    records, warnings = load_bugs(*_read(path))
    assert warnings == []
    assert records == [
        BugRecord("BUG-1", "2025-03", "c9"),
        BugRecord("BUG-2", "2025-04", "c7"),
    ]


def test_load_bugs_skips_blank_lines(tmp_path):
    text = json.dumps(_bug("BUG-1")) + "\n\n   \n" + json.dumps(_bug("BUG-2")) + "\n"
    records, warnings = load_bugs(*_read(_write(tmp_path, "bugs.jsonl", text)))
    assert [r.id for r in records] == ["BUG-1", "BUG-2"]
    assert warnings == []


def test_load_bugs_duplicate_id_keeps_first(tmp_path):
    path = _write(tmp_path, "bugs.jsonl", _jsonl([
        _bug("BUG-1", culprit="first"),
        _bug("BUG-1", culprit="second"),
    ]))
    records, warnings = load_bugs(*_read(path))
    assert [r.culprit for r in records] == ["first"]
    assert len(warnings) == 1
    assert "BUG-1" in warnings[0]
    assert f"{path}:2" in warnings[0]


def test_load_bugs_rejects_extra_key(tmp_path):
    row = _bug()
    row["severity"] = "high"
    path = _write(tmp_path, "bugs.jsonl", _jsonl([row]))
    with pytest.raises(SchemaError) as exc:
        load_bugs(*_read(path))
    assert exc.value.file == path
    assert exc.value.line == 1


def test_load_bugs_rejects_missing_key(tmp_path):
    path = _write(tmp_path, "bugs.jsonl", _jsonl([{"id": "B", "period": "2025-01"}]))
    with pytest.raises(SchemaError, match="bugs.jsonl:1: missing key 'culprit'"):
        load_bugs(*_read(path))


def test_load_bugs_rejects_bad_period(tmp_path):
    path = _write(tmp_path, "bugs.jsonl", _jsonl([_bug(period="2025-13")]))
    with pytest.raises(SchemaError, match="YYYY-MM"):
        load_bugs(*_read(path))


def test_invalid_json_reports_line(tmp_path):
    text = json.dumps(_bug("BUG-1")) + "\n" + json.dumps(_bug("BUG-2")) + "\n{oops\n"
    with pytest.raises(SchemaError) as exc:
        load_bugs(*_read(_write(tmp_path, "bugs.jsonl", text)))
    assert exc.value.line == 3
    assert "invalid JSON" in str(exc.value)


def test_non_object_record_rejected(tmp_path):
    with pytest.raises(SchemaError, match="must be an object"):
        load_bugs(*_read(_write(tmp_path, "bugs.jsonl", "[1, 2]\n")))


def test_load_commits_happy(tmp_path):
    path = _write(tmp_path, "commits.jsonl", _jsonl([
        _commit("c1", [{"path": "src/a.c", "lines": 3},
                       {"path": "src/b.c", "lines": 0}]),
    ]))
    records, warnings = load_commits(*_read(path))
    assert warnings == []
    assert records == [CommitRecord("c1", (("src/a.c", 3), ("src/b.c", 0)))]


def test_load_commits_duplicate_id_keeps_first(tmp_path):
    path = _write(tmp_path, "commits.jsonl", _jsonl([
        _commit("c1", [{"path": "a", "lines": 1}]),
        _commit("c1", [{"path": "b", "lines": 2}]),
    ]))
    records, warnings = load_commits(*_read(path))
    assert records[0].paths == (("a", 1),)
    assert len(warnings) == 1 and "c1" in warnings[0]


def test_load_commits_rejects_empty_paths(tmp_path):
    path = _write(tmp_path, "commits.jsonl", _jsonl([{"id": "c1", "paths": []}]))
    with pytest.raises(SchemaError, match="nonempty array"):
        load_commits(*_read(path))


@pytest.mark.parametrize("lines", [-1, 2.5, True, "3"])
def test_load_commits_rejects_bad_lines(tmp_path, lines):
    # bool is an int subclass; the loader must still refuse it
    path = _write(
        tmp_path, "commits.jsonl",
        _jsonl([_commit("c1", [{"path": "a", "lines": lines}])]),
    )
    with pytest.raises(SchemaError, match=r"paths\[0\]\.lines: must be an integer >= 0"):
        load_commits(*_read(path))


def test_load_coverage_happy_and_duplicate(tmp_path):
    path = _write(tmp_path, "coverage.jsonl", _jsonl([
        _snap(conditional=75.5),
        _snap(conditional=99.0),  # same (period, component): ignored
        _snap(period="2025-04", conditional=80.0),
    ]))
    records, warnings = load_coverage(*_read(path))
    assert [r.conditional_pct for r in records] == [75.5, 80.0]
    assert len(warnings) == 1 and "2025-03" in warnings[0]


@pytest.mark.parametrize("value", [-0.1, 100.5, "90", None, True])
def test_load_coverage_rejects_bad_pct(tmp_path, value):
    row = _snap()
    row["conditional_pct"] = value
    path = _write(tmp_path, "coverage.jsonl", _jsonl([row]))
    with pytest.raises(SchemaError, match="conditional_pct"):
        load_coverage(*_read(path))


def test_load_component_map_happy(tmp_path):
    path = _write(tmp_path, "map.json", json.dumps({
        "rules": [{"prefix": "src/core/", "component": "core"},
                  {"prefix": "src/", "component": "misc"}],
    }))
    cmap = load_component_map(*_read(path))
    assert cmap.rules == (("src/core/", "core"), ("src/", "misc"))


@pytest.mark.parametrize("payload", [
    {"rules": []},
    {"rules": [{"prefix": "src/"}]},
    {"rules": [{"prefix": "src/", "component": "x", "extra": 1}]},
    {"maps": []},
    [],
])
def test_load_component_map_rejects_bad_shapes(tmp_path, payload):
    path = _write(tmp_path, "map.json", json.dumps(payload))
    with pytest.raises(SchemaError):
        load_component_map(*_read(path))


def test_ingest_concatenates_warnings(tmp_path):
    bugs = _write(tmp_path, "bugs.jsonl", _jsonl([_bug("B"), _bug("B")]))
    commits = _write(tmp_path, "commits.jsonl", _jsonl([_commit("c1")]))
    coverage = _write(tmp_path, "coverage.jsonl", _jsonl([_snap(), _snap()]))
    cmap = _write(tmp_path, "map.json", json.dumps(
        {"rules": [{"prefix": "src/", "component": "core"}]}
    ))
    b, c, cov, m, warnings = ingest(*map(_read, (bugs, commits, coverage, cmap)))
    assert (len(b), len(c), len(cov)) == (1, 1, 1)
    assert len(warnings) == 2
    assert "bug" in warnings[0] and "coverage" in warnings[1]


def test_ingest_project_fixture_clean(history_dir):
    b, c, cov, m, warnings = ingest(*(
        _read(str(history_dir / name))
        for name in ("bugs.jsonl", "commits.jsonl", "coverage.jsonl", "map.json")
    ))
    assert warnings == []
    assert len(b) == 8
    assert len(c) == 48
    assert len(cov) == 48
    assert len(m.rules) == 4


# --- commit mapping ---------------------------------------------------------

def test_map_commit_first_rule_wins_and_sums():
    cmap = ComponentMap((("src/", "wide"), ("src/core/", "core")))
    commit = CommitRecord("c1", (
        ("src/core/a.c", 5),
        ("src/net/b.c", 7),
        ("docs/readme.md", 2),
    ))
    assert map_commit_to_components(commit, cmap) == {"wide": 12, UNMAPPED: 2}


def test_map_commit_groups_by_component():
    cmap = ComponentMap((("src/core/", "core"), ("src/net/", "net")))
    commit = CommitRecord("c1", (
        ("src/core/a.c", 5),
        ("src/core/b.c", 6),
        ("src/net/c.c", 7),
    ))
    assert map_commit_to_components(commit, cmap) == {"core": 11, "net": 7}


# Prefixes and paths over a small alphabet overlap often; "" and regex
# metacharacters are among them.
_PATH_TEXT = st.text("ab/.*", max_size=4)


@given(
    rules=st.lists(st.tuples(_PATH_TEXT, st.sampled_from(["x", "y", "z"])), max_size=6),
    paths=st.lists(_PATH_TEXT, max_size=8),
)
def test_component_matcher_matches_the_linear_scan(rules, paths):
    component_of = component_matcher(ComponentMap(tuple(rules)))
    for path in paths:
        expected = next((name for prefix, name in rules if path.startswith(prefix)), UNMAPPED)
        assert component_of(path) == expected


# --- trend assembly ---------------------------------------------------------

CMAP = ComponentMap((("src/a/", "a"), ("src/b/", "b")))


def _trend_for(trends, name):
    return next(t for t in trends if t.component == name)


def test_trends_carry_forward_and_start_at_first_snapshot():
    coverage = [
        CoverageSnapshot("2025-02", "a", 90.0, 80.0),
        CoverageSnapshot("2025-04", "a", 95.0, 90.0),
        CoverageSnapshot("2025-01", "b", 50.0, 50.0),
    ]
    bugs = [BugRecord("B1", "2025-03", "c1")]
    commits = [CommitRecord("c1", (("src/a/x.c", 40),))]
    trends, warnings = build_trends(bugs, commits, coverage, CMAP)
    assert warnings == []
    a = _trend_for(trends, "a")
    # periods before the first snapshot are not fabricated
    assert [p.period for p in a.series] == ["2025-02", "2025-03", "2025-04"]
    assert [p.conditional_pct for p in a.series] == [80.0, 80.0, 90.0]
    assert [p.bug_count for p in a.series] == [0, 1, 0]
    assert [p.churn_lines for p in a.series] == [0, 40, 0]
    b = _trend_for(trends, "b")
    assert [p.period for p in b.series] == ["2025-01", "2025-02", "2025-03", "2025-04"]
    assert all(p.conditional_pct == 50.0 for p in b.series)


def test_trends_churn_counts_distinct_culprits_once():
    coverage = [CoverageSnapshot("2025-01", "a", 90.0, 90.0)]
    commits = [
        CommitRecord("c1", (("src/a/x.c", 10),)),
        CommitRecord("c2", (("src/a/y.c", 3),)),
    ]
    bugs = [
        BugRecord("B1", "2025-01", "c1"),
        BugRecord("B2", "2025-01", "c1"),  # same culprit: churn once, bugs twice
        BugRecord("B3", "2025-01", "c2"),
    ]
    trends, warnings = build_trends(bugs, commits, coverage, CMAP)
    assert warnings == []
    point = _trend_for(trends, "a").series[0]
    assert point.bug_count == 3
    assert point.churn_lines == 13


def test_trends_unknown_culprit_excluded_with_warning():
    coverage = [CoverageSnapshot("2025-01", "a", 90.0, 90.0)]
    bugs = [BugRecord("B1", "2025-01", "ghost")]
    trends, warnings = build_trends(bugs, [], coverage, CMAP)
    assert len(warnings) == 1
    assert "B1" in warnings[0] and "ghost" in warnings[0]
    assert _trend_for(trends, "a").series[0].bug_count == 0


def test_trends_component_without_snapshot_warned_and_dropped():
    coverage = [CoverageSnapshot("2025-01", "a", 90.0, 90.0)]
    commits = [CommitRecord("c1", (("src/b/x.c", 5),))]
    bugs = [BugRecord("B1", "2025-01", "c1")]
    trends, warnings = build_trends(bugs, commits, coverage, CMAP)
    assert [t.component for t in trends] == ["a"]
    assert any("'b'" in w and "no coverage snapshot" in w for w in warnings)


def test_trends_sorted_by_component():
    coverage = [
        CoverageSnapshot("2025-01", "b", 1.0, 1.0),
        CoverageSnapshot("2025-01", "a", 2.0, 2.0),
    ]
    trends, _ = build_trends([], [], coverage, CMAP)
    assert [t.component for t in trends] == ["a", "b"]


# --- model math -------------------------------------------------------------

def test_sigmoid_stable_at_extremes():
    assert sigmoid(1000.0) == pytest.approx(1.0)
    assert sigmoid(-1000.0) == pytest.approx(0.0, abs=1e-12)
    assert sigmoid(0.0) == 0.5
    for z in (-5.0, -0.3, 0.0, 0.7, 4.0):
        assert sigmoid(-z) == pytest.approx(1.0 - sigmoid(z), rel=1e-12)
    values = [sigmoid(z) for z in (-3.0, -1.0, 0.0, 1.0, 3.0)]
    assert values == sorted(values)


def test_make_samples_labels_prior_and_cap():
    series = (
        TrendPoint("2025-01", 7, 50.0, 10),
        TrendPoint("2025-02", 0, 60.0, 0),
        TrendPoint("2025-03", 1, 70.0, 5),
    )
    samples = make_samples([ComponentTrend("a", series)], churn_max=10)
    # one sample per consecutive pair; last point has no successor
    assert len(samples) == 2
    features0, label0 = samples[0]
    assert features0 == (0.5, 1.0, 0.0)  # no period before the first
    assert label0 == 0
    features1, label1 = samples[1]
    assert features1 == (0.6, 0.0, 1.0)  # prior 7 capped at 5
    assert label1 == 1


def test_make_samples_zero_churn_max():
    series = (
        TrendPoint("2025-01", 0, 50.0, 0),
        TrendPoint("2025-02", 1, 50.0, 0),
    )
    ((features, label),) = make_samples([ComponentTrend("a", series)], churn_max=0)
    assert features[1] == 0.0
    assert label == 1


def _random_samples(rng, n):
    out = []
    for _ in range(n):
        features = (rng.float01(), rng.float01(), rng.float01())
        out.append((features, rng.below(2)))
    return out


def test_gradient_matches_finite_differences():
    rng = SplitMix64(99)
    h = 1e-6
    for _ in range(20):
        samples = _random_samples(rng, 8)
        w = [rng.float01() * 4.0 - 2.0 for _ in range(3)]
        b = rng.float01() * 4.0 - 2.0
        _, grad_w, grad_b = loss_gradient_hessian(w, b, samples)[:3]
        for j in range(3):
            wp = list(w)
            wm = list(w)
            wp[j] += h
            wm[j] -= h
            lp, _, _ = loss_gradient_hessian(wp, b, samples)[:3]
            lm, _, _ = loss_gradient_hessian(wm, b, samples)[:3]
            numeric = (lp - lm) / (2 * h)
            assert abs(numeric - grad_w[j]) <= 1e-4 * max(1.0, abs(numeric))
        lp, _, _ = loss_gradient_hessian(w, b + h, samples)[:3]
        lm, _, _ = loss_gradient_hessian(w, b - h, samples)[:3]
        numeric = (lp - lm) / (2 * h)
        assert abs(numeric - grad_b) <= 1e-4 * max(1.0, abs(numeric))


def _reference_loss_and_gradient(weights, bias, samples, l2=advisor.L2_PENALTY):
    """The generic formula the fused loop must reproduce bit for bit."""
    n = len(samples)
    grad_w = [0.0, 0.0, 0.0]
    grad_b = 0.0
    loss = 0.0
    eps = 1e-12
    for features, label in samples:
        z = bias
        for w, x in zip(weights, features):
            z += w * x
        p = sigmoid(z)
        q = min(max(p, eps), 1.0 - eps)
        loss -= label * math.log(q) + (1 - label) * math.log(1.0 - q)
        diff = p - label
        for j, x in enumerate(features):
            grad_w[j] += diff * x
        grad_b += diff
    loss /= n
    for j in range(3):
        grad_w[j] = grad_w[j] / n + l2 * weights[j]
        loss += 0.5 * l2 * weights[j] * weights[j]
    grad_b /= n
    return loss, (grad_w[0], grad_w[1], grad_w[2]), grad_b


def _reference_hessian(weights, bias, samples, l2=advisor.L2_PENALTY):
    """The generic Hessian upper triangle the fused loop must reproduce bit
    for bit, over (w_cov, w_churn, w_prior, b); the bias multiplies 1.0."""
    n = len(samples)
    h = [[0.0] * 4 for _ in range(4)]
    for features, _ in samples:
        z = bias
        for w, x in zip(weights, features):
            z += w * x
        e = math.exp(-abs(z))
        s = e / ((1.0 + e) * (1.0 + e))
        x = (*features, 1.0)
        for j in range(4):
            sj = s * x[j]
            for k in range(j, 4):
                h[j][k] += sj * x[k]
    for j in range(3):
        h[j][j] = h[j][j] / n + l2
    return tuple(
        h[j][k] if j == k and j < 3 else h[j][k] / n
        for j in range(4)
        for k in range(j, 4)
    )


def _reference_pass(weights, bias, samples, l2=advisor.L2_PENALTY):
    loss, grad_w, grad_b = _reference_loss_and_gradient(weights, bias, samples, l2)
    return loss, grad_w, grad_b, _reference_hessian(weights, bias, samples, l2)


_unit = st.floats(0.0, 1.0)
_coef = st.floats(-60.0, 60.0)


@given(
    samples=st.lists(
        st.tuples(st.tuples(_unit, _unit, _unit), st.integers(0, 1)),
        min_size=1,
        max_size=12,
    ),
    weights=st.tuples(_coef, _coef, _coef),
    bias=_coef,
)
def test_loss_and_gradient_bit_exact_against_reference(samples, weights, bias):
    # Coefficients up to 60 saturate the sigmoid, so the clamp is hit too.
    loss, grad_w, grad_b, hessian = loss_gradient_hessian(weights, bias, samples)
    assert (loss, grad_w, grad_b) == _reference_loss_and_gradient(
        weights, bias, samples
    )
    assert hessian == _reference_hessian(weights, bias, samples)


def _max_hessian_error(points=10):
    """Worst relative gap between the analytic Hessian and central
    differences of the analytic gradient, in the shape of AC7's check."""
    rng = SplitMix64(778)
    h = 1e-6
    worst = 0.0
    for _ in range(points):
        samples = _random_samples(rng, 8)
        theta = [rng.float01() * 4.0 - 2.0 for _ in range(4)]
        *_, upper = loss_gradient_hessian(theta[:3], theta[3], samples)
        full = [[0.0] * 4 for _ in range(4)]
        it = iter(upper)
        for j in range(4):
            for k in range(j, 4):
                full[j][k] = full[k][j] = next(it)
        for k in range(4):
            plus, minus = list(theta), list(theta)
            plus[k] += h
            minus[k] -= h
            _, gwp, gbp, _ = loss_gradient_hessian(plus[:3], plus[3], samples)
            _, gwm, gbm, _ = loss_gradient_hessian(minus[:3], minus[3], samples)
            for j, (gp, gm) in enumerate(zip((*gwp, gbp), (*gwm, gbm))):
                numeric = (gp - gm) / (2 * h)
                worst = max(
                    worst, abs(numeric - full[j][k]) / max(1.0, abs(numeric))
                )
    return worst


def test_hessian_matches_finite_differences():
    assert _max_hessian_error() <= 1e-4


def test_newton_step_refuses_non_positive_pivot():
    gradient = (0.1, 0.2, 0.3, 0.4)
    assert newton_step((0.0,) * 10, gradient) is None
    # Positive diagonal, but the bias row repeats the coverage row.
    singular = (1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0)
    assert newton_step(singular, gradient) is None
    diagonal = (2.0, 0.0, 0.0, 0.0, 4.0, 0.0, 0.0, 5.0, 0.0, 8.0)
    d, decrement = newton_step(diagonal, gradient)
    assert d == pytest.approx([0.05, 0.05, 0.06, 0.05])
    assert decrement == pytest.approx(0.053)


def test_l2_hits_weights_not_bias():
    samples = _random_samples(SplitMix64(7), 6)
    w = [2.0, -1.0, 0.5]
    loss0, gw0, gb0 = loss_gradient_hessian(w, 3.0, samples, l2=0.0)[:3]
    loss1, gw1, gb1 = loss_gradient_hessian(w, 3.0, samples, l2=0.01)[:3]
    penalty = 0.5 * 0.01 * sum(x * x for x in w)
    assert loss1 == pytest.approx(loss0 + penalty)
    assert gb1 == gb0
    for j in range(3):
        assert gw1[j] == pytest.approx(gw0[j] + 0.01 * w[j])


# --- training ---------------------------------------------------------------

COVERAGE_LEVELS = (10.0, 65.0, 90.0)
PLANTED_BOUNDARY = 2.0 / 3.0  # risk crosses one half at this coverage fraction


def learned_fixture_trends():
    """Synthetic history with a planted coverage-risk rule.

    50 components, 12 periods, zero churn. Each component sits at one of
    three coverage levels; its per-period bug probability follows the same
    logistic curve the closed-form tests plant, sigmoid(4 - 6c). Given
    coverage, the prior-bug feature carries no extra signal, so the fitted
    boundary should sit near 2/3.
    """
    rng = SplitMix64(15)
    periods = [f"2025-{m:02d}" for m in range(1, 13)]
    trends = []
    for k in range(50):
        cov = COVERAGE_LEVELS[rng.below(3)]
        p_bug = sigmoid(4.0 - 6.0 * cov / 100.0)
        series = tuple(
            TrendPoint(period, 1 if rng.float01() < p_bug else 0, cov, 0)
            for period in periods
        )
        trends.append(ComponentTrend(f"comp{k:02d}", series))
    return trends


def learned_model():
    global _LEARNED_MODEL
    if _LEARNED_MODEL is None:
        _LEARNED_MODEL = train_model(learned_fixture_trends())
    return _LEARNED_MODEL


_LEARNED_MODEL = None


def _max_gradient(model, samples):
    _, grad_w, grad_b, _ = loss_gradient_hessian(model.weights, model.bias, samples)
    return max(abs(g) for g in (*grad_w, grad_b))


def test_train_converges_on_learned_fixture():
    model = learned_model()
    assert model.n_samples == 50 * 11
    samples = make_samples(learned_fixture_trends(), model.churn_max)
    assert _max_gradient(model, samples) <= 1e-9
    history = model.loss_history
    assert 2 <= len(history) <= NEWTON_MAX_STEPS + 1
    assert all(b <= a for a, b in zip(history, history[1:]))


def test_learned_fixture_recommends_85_or_90():
    # Gradient descent stopped short of the optimum recommended 95 for all.
    recs = recommend_all(learned_model(), learned_fixture_trends())
    assert len(recs) == 50
    assert {r.recommended_conditional_pct for r in recs} <= {85, 90}
    assert not any(r.fallback_used for r in recs)


def test_train_loss_never_increases():
    history = learned_model().loss_history
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
    assert history[-1] < history[0]


def test_train_insufficient_data():
    trends = learned_fixture_trends()[:1]  # 11 samples
    with pytest.raises(InsufficientData, match="11"):
        train_model(trends)


def test_train_is_deterministic():
    assert train_model(learned_fixture_trends()) == learned_model()


def test_train_model_bit_exact_against_reference(monkeypatch):
    expected = learned_model()
    calls = []

    def reference(*args):
        calls.append(args)
        return _reference_pass(*args)

    monkeypatch.setattr(advisor, "loss_gradient_hessian", reference)
    assert train_model(learned_fixture_trends()) == expected
    assert len(calls) == len(expected.loss_history)


def _uniform_label_trends(bug_count):
    """30 components x 3 periods whose bug counts are all `bug_count`, with
    coverage, churn and prior bugs varying: 60 samples, every label equal."""
    rng = SplitMix64(31)
    trends = []
    for k in range(30):
        series = tuple(
            TrendPoint(period, bug_count, rng.float01() * 100.0, rng.below(50))
            for period in ("2025-01", "2025-02", "2025-03")
        )
        trends.append(ComponentTrend(f"comp{k:02d}", series))
    return trends


@pytest.mark.parametrize("bug_count", [0, 3])
def test_train_with_all_labels_equal(bug_count):
    # The bias runs off towards infinity until the decrement reaches float
    # noise near |b| = 37, where p * (1 - p) would already round to a zero
    # curvature and a singular Hessian.
    trends = _uniform_label_trends(bug_count)
    model = train_model(trends)
    assert model.n_samples == 60
    assert len(model.loss_history) <= NEWTON_MAX_STEPS + 1
    assert all(math.isfinite(v) for v in (*model.weights, model.bias))
    assert abs(model.bias) > 30.0
    for rec in recommend_all(model, trends):
        assert COVERAGE_FLOOR <= rec.recommended_conditional_pct <= COVERAGE_CEIL


def _count_passes(samples):
    """Train on `samples` as they are; returns (model, fused passes)."""
    passes = []

    def counted(*args):
        passes.append(1)
        return loss_gradient_hessian(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(advisor, "make_samples", lambda trends, churn_max: samples)
        mp.setattr(advisor, "loss_gradient_hessian", counted)
        return train_model([]), len(passes)


def test_training_stops_at_rounding_noise():
    # A constant prior column duplicates the bias. After three steps, half
    # the decrement is between 1e-16 and 1e-12 and the loss can no longer
    # show the gain: trying only the full step stops in 4 passes, where
    # halving takes 27 and ends on noise-accepted steps.
    rng = SplitMix64(2)
    prior = rng.float01()
    samples = [
        ((float(rng.below(2)), float(rng.below(2)), prior), rng.below(2))
        for _ in range(100)
    ]
    model, passes = _count_passes(samples)
    assert passes <= 5
    assert _max_gradient(model, samples) <= 1e-6


# All-equal labels take the most passes: the bias walks about one unit per
# Newton step until exp(-|b|) reaches float noise, near |b| = 37.
PASS_BOUND = 40


@st.composite
def _training_sets(draw):
    rows = draw(
        st.lists(
            st.tuples(st.tuples(_unit, _unit, _unit), st.integers(0, 1)),
            min_size=20,
            max_size=300,
        )
    )
    labels = draw(st.sampled_from(["drawn", "all 0", "all 1"]))
    constant = draw(st.sampled_from([None, 0, 1, 2]))
    value = draw(_unit)
    samples = []
    for features, label in rows:
        if constant is not None:
            features = features[:constant] + (value,) + features[constant + 1:]
        if labels != "drawn":
            label = int(labels == "all 1")
        samples.append((features, label))
    return samples


@given(samples=_training_sets())
def test_training_terminates_on_any_sample_set(samples):
    model, passes = _count_passes(samples)
    assert passes <= PASS_BOUND
    assert _count_passes(samples) == (model, passes)
    history = model.loss_history
    assert all(b <= a for a, b in zip(history, history[1:]))
    assert all(math.isfinite(v) for v in (*model.weights, model.bias))


def test_learned_model_recovers_planted_rule():
    model = learned_model()
    w_cov, w_churn, _ = model.weights
    assert w_cov < 0.0
    assert w_churn == 0.0  # feature is identically zero; L2 pins the weight
    boundary = -model.bias / w_cov
    assert abs(boundary - PLANTED_BOUNDARY) <= 0.10


# --- recommendations --------------------------------------------------------

# risk(c) = sigmoid(4 - 6 * c / 100); crosses tau = 0.3 near c = 80.8
PLANTED_MODEL = ModelParams(
    weights=(-6.0, 0.0, 0.0),
    bias=4.0,
    churn_max=0,
    n_samples=0,
    loss_history=(),
)


def _trend_at(coverage, component="pay", churn=0, bugs=0):
    return ComponentTrend(
        component, (TrendPoint("2025-01", bugs, coverage, churn),)
    )


def test_recommend_picks_first_acceptable_grid_level():
    rec = recommend(PLANTED_MODEL, _trend_at(50.0))
    assert rec.recommended_conditional_pct == 85
    assert not rec.fallback_used
    assert rec.highlight
    assert rec.risk_at_recommended <= DEFAULT_TAU
    assert rec.risk_at_current > DEFAULT_TAU
    assert rec.gap == pytest.approx(35.0)
    # 80 sits just above tau, so the walk must not stop there
    assert predict_risk(PLANTED_MODEL, 80.0, 0, 0) > DEFAULT_TAU


def test_recommend_skips_grid_below_current():
    rec = recommend(PLANTED_MODEL, _trend_at(86.0))
    assert rec.recommended_conditional_pct == 90
    assert not rec.highlight or rec.gap > 1  # 90 > 87 so highlighted
    assert rec.highlight


def test_recommend_floor_when_risk_is_everywhere_low():
    model = ModelParams(
        weights=(-50.0, 0.0, 0.0), bias=-10.0, churn_max=0, n_samples=0,
        loss_history=(),
    )
    rec = recommend(model, _trend_at(10.0))
    assert rec.recommended_conditional_pct == COVERAGE_FLOOR


def test_recommend_ceiling_when_no_level_is_acceptable():
    model = ModelParams(
        weights=(-0.001, 0.0, 0.0), bias=10.0, churn_max=0, n_samples=0,
        loss_history=(),
    )
    rec = recommend(model, _trend_at(50.0))
    assert rec.recommended_conditional_pct == COVERAGE_CEIL
    assert not rec.fallback_used


def test_recommend_fallback_on_degenerate_model():
    model = ModelParams(
        weights=(1.0, 0.0, 0.0), bias=0.0, churn_max=0, n_samples=0,
        loss_history=(),
    )
    rec = recommend(model, _trend_at(72.4), zero_bug_median=88.0)
    assert rec.fallback_used
    assert rec.recommended_conditional_pct == 88
    assert rec.highlight

    rec = recommend(model, _trend_at(97.0), zero_bug_median=60.0)
    assert rec.recommended_conditional_pct == COVERAGE_CEIL
    assert not rec.highlight


# (bug_count, churn_lines) per period of three components that all sit at
# 80 % coverage in every period.
_FLAT_COVERAGE_ROWS = (
    ((0, 5), (0, 23), (0, 47), (2, 19), (1, 38), (0, 38), (0, 37), (2, 10), (1, 40)),
    ((1, 46), (2, 23), (2, 28), (2, 17), (0, 1), (1, 29), (1, 24), (1, 33), (0, 35)),
    ((0, 15), (0, 1), (0, 20), (0, 8), (2, 32), (1, 32), (2, 35), (0, 28), (1, 47)),
)


def test_recommend_falls_back_when_coverage_never_varies():
    """With one coverage value the coverage weight's optimum is 0; the fit
    lands a rounding error below it, which must not pick the model path
    (it would recommend 95 on a weight of -6e-15)."""
    trends = [
        ComponentTrend(
            f"c{i}",
            tuple(
                TrendPoint(f"2025-{m + 1:02d}", bugs, 80.0, churn)
                for m, (bugs, churn) in enumerate(rows)
            ),
        )
        for i, rows in enumerate(_FLAT_COVERAGE_ROWS)
    ]
    model = train_model(trends)
    assert -1e-12 < model.weights[0] < 0.0
    assert not model.coverage_varies
    rec = recommend(model, trends[0])
    assert rec.fallback_used
    assert rec.recommended_conditional_pct == 80


def test_recommend_highlight_needs_more_than_one_point():
    rec = recommend(PLANTED_MODEL, _trend_at(84.0))
    assert rec.recommended_conditional_pct == 85
    assert not rec.highlight
    rec = recommend(PLANTED_MODEL, _trend_at(83.5))
    assert rec.recommended_conditional_pct == 85
    assert rec.highlight


def test_recommend_requires_model_and_data():
    with pytest.raises(UntrainedModel):
        recommend(None, _trend_at(50.0))
    with pytest.raises(UntrainedModel, match="pay"):
        recommend(PLANTED_MODEL, ComponentTrend("pay", ()))


@given(
    w_cov=st.floats(-10.0, 10.0, allow_nan=False),
    bias=st.floats(-5.0, 5.0, allow_nan=False),
    current=st.floats(0.0, 100.0, allow_nan=False),
)
def test_recommend_stays_in_bounds(w_cov, bias, current):
    model = ModelParams(
        weights=(w_cov, 0.0, 0.0), bias=bias, churn_max=0, n_samples=0,
        loss_history=(),
    )
    rec = recommend(model, _trend_at(current))
    assert isinstance(rec.recommended_conditional_pct, int)
    assert COVERAGE_FLOOR <= rec.recommended_conditional_pct <= COVERAGE_CEIL


def test_zero_bug_median_ignores_buggy_components():
    clean1 = ComponentTrend("a", (TrendPoint("2025-01", 0, 80.0, 0),))
    clean2 = ComponentTrend("b", (TrendPoint("2025-01", 0, 90.0, 0),))
    dirty = ComponentTrend("c", (
        TrendPoint("2025-01", 1, 99.0, 0),
        TrendPoint("2025-02", 0, 99.0, 0),
    ))
    assert zero_bug_median_coverage([clean1, clean2, dirty]) == 85.0
    assert zero_bug_median_coverage([dirty]) == float(COVERAGE_FLOOR)
    assert zero_bug_median_coverage([]) == float(COVERAGE_FLOOR)


def test_recommend_all_sorted_by_component():
    trends = [_trend_at(50.0, "zeta"), _trend_at(90.0, "alpha")]
    recs = recommend_all(PLANTED_MODEL, trends)
    assert [r.component for r in recs] == ["alpha", "zeta"]


# --- gap report -------------------------------------------------------------

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


def test_gap_report_empty():
    report = gap_report([_rec("a", 95.0, 95)])
    assert report == {"gaps": [], "gap_count": 0}
    assert "No coverage gaps" in render_gap_table(report)


def test_gap_report_orders_by_gap_then_name():
    recs = [
        _rec("delta", 75.0, 85),   # gap 10
        _rec("alpha", 70.0, 90),   # gap 20
        _rec("carol", 80.0, 90),   # gap 10, ties with delta on gap
        _rec("early", 94.5, 95),   # not highlighted
    ]
    report = gap_report(recs)
    assert report["gap_count"] == 3
    assert [row["component"] for row in report["gaps"]] == ["alpha", "carol", "delta"]
    top = report["gaps"][0]
    assert top["gap"] == pytest.approx(20.0)
    assert top["recommended_conditional_pct"] == 90
    assert top["current_conditional_pct"] == 70.0


def test_render_gap_table_lists_components():
    report = gap_report([_rec("billing", 70.0, 90)])
    table = render_gap_table(report)
    assert "component" in table and "recommended" in table
    assert "billing" in table
    assert table.endswith("\n")
    row = next(line for line in table.splitlines() if "billing" in line)
    assert "70.0" in row and "90" in row and "20.0" in row
