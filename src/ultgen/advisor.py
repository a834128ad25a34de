"""Coverage advisor: bug/commit/coverage history in, recommendations out.

Pipeline: ingest JSONL history files, map culprit commits to components by
path-prefix rules, build per-component (period, bug count, coverage, churn)
trends, train a small logistic model of next-period bug risk, and emit a
per-component recommended coverage with a highlight flag when it exceeds
the current level.

The model is L2-penalised logistic regression, fitted to its optimum by
damped Newton (iteratively reweighted least squares) in pure Python, in
4-7 passes over the samples on typical histories. Staying off BLAS keeps
training bitwise reproducible across machines, which the determinism
contract requires. ``loss_gradient_hessian`` is the hot loop: one fused
pass gives the loss, the gradient and the 4x4 Hessian with the three
features unrolled, and every float operation keeps the same per-sample
order: reordering, ``sum`` (compensated on 3.12+) or ``math.fsum`` would
change the trained bits.
"""

from __future__ import annotations

import math
import re
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InsufficientData, SchemaError, UntrainedModel, parse_json, read_text

PERIOD_RE = re.compile(r"^\d{4}-(0[1-9]|1[0-2])$")

UNMAPPED = "UNMAPPED"

DEFAULT_TAU = 0.3
COVERAGE_GRID = (70, 75, 80, 85, 90, 95)
COVERAGE_FLOOR = 70
COVERAGE_CEIL = 95

L2_PENALTY = 1e-3
NEWTON_TOLERANCE = 1e-16  # on half the squared Newton decrement
NEWTON_LOCAL = 1e-12  # below it only the full Newton step is tried
NEWTON_MAX_STEPS = 50
LINE_SEARCH_TRIES = 20
MIN_SAMPLES = 20
PRIOR_BUG_CAP = 5


# --- records ----------------------------------------------------------------

@dataclass(frozen=True)
class BugRecord:
    id: str
    period: str  # "YYYY-MM"
    culprit: str


@dataclass(frozen=True)
class CommitRecord:
    id: str
    paths: tuple[tuple[str, int], ...]  # (path, lines changed)


@dataclass(frozen=True)
class ComponentMap:
    rules: tuple[tuple[str, str], ...]  # (path prefix, component), first match wins


@dataclass(frozen=True)
class CoverageSnapshot:
    period: str
    component: str
    functional_pct: float
    conditional_pct: float


@dataclass(frozen=True)
class TrendPoint:
    period: str
    bug_count: int
    conditional_pct: float
    churn_lines: int


@dataclass(frozen=True)
class ComponentTrend:
    component: str
    series: tuple[TrendPoint, ...]  # periods strictly increasing


@dataclass(frozen=True)
class ModelParams:
    weights: tuple[float, float, float]  # (w_cov, w_churn, w_prior)
    bias: float
    churn_max: int  # churn normalization constant
    n_samples: int
    loss_history: tuple[float, ...]  # loss at zero, then at each Newton iterate
    # False when every training sample has the same coverage: the coverage
    # weight is then rounding noise around 0 and cannot rank coverage.
    coverage_varies: bool = True


@dataclass(frozen=True)
class Recommendation:
    component: str
    recommended_conditional_pct: int
    current_conditional_pct: float
    highlight: bool
    risk_at_current: float
    risk_at_recommended: float
    fallback_used: bool

    @property
    def gap(self) -> float:
        return self.recommended_conditional_pct - self.current_conditional_pct


# --- ingestion --------------------------------------------------------------

def _require(cond: bool, message: str, file: str, line: Optional[int] = None):
    if not cond:
        raise SchemaError(message, file=file, line=line)


def _read_jsonl(path: str) -> list[tuple[int, dict]]:
    out: list[tuple[int, dict]] = []
    for n, raw in enumerate(read_text(path).split("\n"), start=1):
        if not raw.strip():
            continue
        data = parse_json(raw, path, n)
        _require(isinstance(data, dict), "record must be an object", path, n)
        out.append((n, data))
    return out


def _pct(value: object, what: str, file: str, line: int) -> float:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{what} must be a number", file, line,
    )
    _require(0 <= value <= 100, f"{what} must be within [0, 100]", file, line)
    return float(value)


def load_bugs(path: str) -> tuple[list[BugRecord], list[str]]:
    records: list[BugRecord] = []
    warnings: list[str] = []
    seen: set[str] = set()
    for n, data in _read_jsonl(path):
        _require(set(data) == {"id", "period", "culprit"},
                 "bug record needs exactly id, period, culprit", path, n)
        _require(isinstance(data["id"], str) and data["id"] != "",
                 "bug id must be a nonempty string", path, n)
        _require(isinstance(data["period"], str) and PERIOD_RE.match(data["period"]),
                 "period must be 'YYYY-MM'", path, n)
        _require(isinstance(data["culprit"], str) and data["culprit"] != "",
                 "culprit commit id must be a nonempty string", path, n)
        if data["id"] in seen:
            warnings.append(f"{path}:{n}: duplicate bug id {data['id']!r} ignored")
            continue
        seen.add(data["id"])
        records.append(BugRecord(data["id"], data["period"], data["culprit"]))
    return records, warnings


def load_commits(path: str) -> tuple[list[CommitRecord], list[str]]:
    records: list[CommitRecord] = []
    warnings: list[str] = []
    seen: set[str] = set()
    for n, data in _read_jsonl(path):
        _require(set(data) == {"id", "paths"},
                 "commit record needs exactly id, paths", path, n)
        _require(isinstance(data["id"], str) and data["id"] != "",
                 "commit id must be a nonempty string", path, n)
        _require(isinstance(data["paths"], list) and data["paths"],
                 "paths must be a nonempty array", path, n)
        paths: list[tuple[str, int]] = []
        for entry in data["paths"]:
            _require(isinstance(entry, dict) and set(entry) == {"path", "lines"},
                     "each path entry needs exactly path, lines", path, n)
            _require(isinstance(entry["path"], str) and entry["path"] != "",
                     "path must be a nonempty string", path, n)
            _require(type(entry["lines"]) is int and entry["lines"] >= 0,
                     "lines must be an integer >= 0", path, n)
            paths.append((entry["path"], entry["lines"]))
        if data["id"] in seen:
            warnings.append(f"{path}:{n}: duplicate commit id {data['id']!r} ignored")
            continue
        seen.add(data["id"])
        records.append(CommitRecord(data["id"], tuple(paths)))
    return records, warnings


def load_coverage(path: str) -> tuple[list[CoverageSnapshot], list[str]]:
    records: list[CoverageSnapshot] = []
    warnings: list[str] = []
    seen: set[tuple[str, str]] = set()
    for n, data in _read_jsonl(path):
        _require(
            set(data) == {"period", "component", "functional_pct", "conditional_pct"},
            "coverage record needs exactly period, component, "
            "functional_pct, conditional_pct", path, n,
        )
        _require(isinstance(data["period"], str) and PERIOD_RE.match(data["period"]),
                 "period must be 'YYYY-MM'", path, n)
        _require(isinstance(data["component"], str) and data["component"] != "",
                 "component must be a nonempty string", path, n)
        functional = _pct(data["functional_pct"], "functional_pct", path, n)
        conditional = _pct(data["conditional_pct"], "conditional_pct", path, n)
        key = (data["period"], data["component"])
        if key in seen:
            warnings.append(f"{path}:{n}: duplicate coverage for {key} ignored")
            continue
        seen.add(key)
        records.append(
            CoverageSnapshot(data["period"], data["component"], functional, conditional)
        )
    return records, warnings


def load_component_map(path: str) -> ComponentMap:
    data = parse_json(read_text(path), path)
    _require(isinstance(data, dict) and set(data) == {"rules"},
             "component map needs exactly one key: rules", path)
    _require(isinstance(data["rules"], list) and data["rules"],
             "rules must be a nonempty array", path)
    rules: list[tuple[str, str]] = []
    for entry in data["rules"]:
        _require(isinstance(entry, dict) and set(entry) == {"prefix", "component"},
                 "each rule needs exactly prefix, component", path)
        _require(isinstance(entry["prefix"], str) and entry["prefix"] != "",
                 "rule prefix must be a nonempty string", path)
        _require(isinstance(entry["component"], str) and entry["component"] != "",
                 "rule component must be a nonempty string", path)
        rules.append((entry["prefix"], entry["component"]))
    return ComponentMap(tuple(rules))


def ingest(
    bugs_path: str, commits_path: str, coverage_path: str, map_path: str
) -> tuple[list[BugRecord], list[CommitRecord], list[CoverageSnapshot], ComponentMap, list[str]]:
    """Load and validate all four inputs; returns records plus warnings."""
    bugs, w1 = load_bugs(bugs_path)
    commits, w2 = load_commits(commits_path)
    coverage, w3 = load_coverage(coverage_path)
    cmap = load_component_map(map_path)
    return bugs, commits, coverage, cmap, w1 + w2 + w3


# --- trend building ---------------------------------------------------------

def map_commit_to_components(
    commit: CommitRecord, cmap: ComponentMap
) -> dict[str, int]:
    """Lines changed per component; first matching prefix rule wins,
    unmatched paths land in UNMAPPED."""
    out: dict[str, int] = {}
    for path, lines in commit.paths:
        component = UNMAPPED
        for prefix, name in cmap.rules:
            if path.startswith(prefix):
                component = name
                break
        out[component] = out.get(component, 0) + lines
    return out


def build_trends(
    bugs: Sequence[BugRecord],
    commits: Sequence[CommitRecord],
    coverage: Sequence[CoverageSnapshot],
    cmap: ComponentMap,
) -> tuple[list[ComponentTrend], list[str]]:
    """Per-component series over the union of bug and snapshot periods.

    Coverage carries forward from a component's first snapshot; earlier
    periods are not fabricated. A commit has no date of its own, so churn
    for (component, period) sums the lines of the distinct culprit commits
    cited by that period's bugs. Components never seen in a coverage
    snapshot are excluded with a warning.
    """
    warnings: list[str] = []
    commit_components = {c.id: map_commit_to_components(c, cmap) for c in commits}

    bug_counts: dict[tuple[str, str], int] = {}
    period_culprits: dict[str, set[str]] = {}
    touched_components: set[str] = set()
    for bug in bugs:
        if bug.culprit not in commit_components:
            warnings.append(
                f"bug {bug.id!r}: culprit commit {bug.culprit!r} not in commit "
                "history; bug excluded from counts"
            )
            continue
        period_culprits.setdefault(bug.period, set()).add(bug.culprit)
        for component in commit_components[bug.culprit]:
            bug_counts[(component, bug.period)] = (
                bug_counts.get((component, bug.period), 0) + 1
            )
            touched_components.add(component)

    churn: dict[tuple[str, str], int] = {}
    for period, culprits in period_culprits.items():
        for commit_id in sorted(culprits):
            for component, lines in commit_components[commit_id].items():
                churn[(component, period)] = churn.get((component, period), 0) + lines

    periods = sorted({b.period for b in bugs} | {s.period for s in coverage})
    by_component: dict[str, dict[str, CoverageSnapshot]] = {}
    for snap in coverage:
        by_component.setdefault(snap.component, {})[snap.period] = snap

    for component in sorted(touched_components - set(by_component)):
        warnings.append(
            f"component {component!r} has bugs but no coverage snapshot; excluded"
        )

    trends: list[ComponentTrend] = []
    for component in sorted(by_component):
        snaps = by_component[component]
        first = min(snaps)
        series: list[TrendPoint] = []
        last_cov: Optional[float] = None
        for period in periods:
            if period in snaps:
                last_cov = snaps[period].conditional_pct
            if period < first:
                continue
            series.append(
                TrendPoint(
                    period=period,
                    bug_count=bug_counts.get((component, period), 0),
                    conditional_pct=last_cov,
                    churn_lines=churn.get((component, period), 0),
                )
            )
        trends.append(ComponentTrend(component, tuple(series)))
    return trends, warnings


# --- model ------------------------------------------------------------------

def sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


Sample = tuple[tuple[float, float, float], int]  # (features, label)


def features(
    conditional_pct: float, churn_lines: int, churn_max: int, prior_bugs: int
) -> tuple[float, float, float]:
    """Model inputs: coverage fraction, churn share of the maximum, capped prior bugs."""
    return (
        conditional_pct / 100.0,
        churn_lines / churn_max if churn_max > 0 else 0.0,
        min(prior_bugs, PRIOR_BUG_CAP) / PRIOR_BUG_CAP,
    )


def make_samples(trends: Sequence[ComponentTrend], churn_max: int) -> list[Sample]:
    """(features at period i, bug-in-period-i+1 label) for consecutive pairs.
    The prior-period bug count is the count of the period before i."""
    samples: list[Sample] = []
    for trend in trends:
        series = trend.series
        for i in range(len(series) - 1):
            prior = series[i - 1].bug_count if i > 0 else 0
            x = features(
                series[i].conditional_pct, series[i].churn_lines, churn_max, prior
            )
            samples.append((x, 1 if series[i + 1].bug_count > 0 else 0))
    return samples


def loss_gradient_hessian(
    weights: Sequence[float],
    bias: float,
    samples: Sequence[Sample],
    l2: float = L2_PENALTY,
) -> tuple[float, tuple[float, float, float], float, tuple[float, ...]]:
    """Mean cross-entropy with (l2/2)*||w||^2 on weights only, with its
    analytic gradient and Hessian, from one pass over the samples.

    Returns ``(loss, (g_cov, g_churn, g_prior), g_bias, hessian)``. The
    Hessian is over ``(w_cov, w_churn, w_prior, b)``; ``hessian`` holds its
    upper triangle row by row, 10 entries, with ``l2`` on the three weight
    diagonals only. Labels are 0 or 1. The curvature ``p * (1 - p)`` is
    computed as ``e / (1 + e)**2`` with ``e = exp(-|z|)``, which stays
    positive where ``p`` rounds to 0 or 1.
    """
    exp = math.exp
    log = math.log
    w0, w1, w2 = weights
    n = len(samples)
    g0 = g1 = g2 = 0.0
    grad_b = 0.0
    loss = 0.0
    h00 = h01 = h02 = h03 = h11 = h12 = h13 = h22 = h23 = h33 = 0.0
    for (x0, x1, x2), label in samples:
        z = bias
        z += w0 * x0
        z += w1 * x1
        z += w2 * x2
        if z >= 0:
            e = exp(-z)
            d = 1.0 + e
            p = 1.0 / d
        else:
            e = exp(z)
            d = 1.0 + e
            p = e / d
        # min(max(p, 1e-12), 1.0 - 1e-12) without two builtin calls; a NaN
        # falls through both tests and stays NaN, as it does there.
        q = 1e-12 if p < 1e-12 else (1.0 - 1e-12 if p > 1.0 - 1e-12 else p)
        # The other term of the cross-entropy is 0 * log(...), a -0.0 that
        # adds nothing: the clamp keeps both logs finite and nonzero.
        if label:
            loss -= log(q)
        else:
            loss -= log(1.0 - q)
        diff = p - label
        g0 += diff * x0
        g1 += diff * x1
        g2 += diff * x2
        grad_b += diff
        s = e / (d * d)
        s0 = s * x0
        h00 += s0 * x0
        h01 += s0 * x1
        h02 += s0 * x2
        h03 += s0
        s1 = s * x1
        h11 += s1 * x1
        h12 += s1 * x2
        h13 += s1
        s2 = s * x2
        h22 += s2 * x2
        h23 += s2
        h33 += s
    loss /= n
    g0 = g0 / n + l2 * w0
    loss += 0.5 * l2 * w0 * w0
    g1 = g1 / n + l2 * w1
    loss += 0.5 * l2 * w1 * w1
    g2 = g2 / n + l2 * w2
    loss += 0.5 * l2 * w2 * w2
    grad_b /= n
    hessian = (
        h00 / n + l2, h01 / n, h02 / n, h03 / n,
        h11 / n + l2, h12 / n, h13 / n,
        h22 / n + l2, h23 / n,
        h33 / n,
    )
    return loss, (g0, g1, g2), grad_b, hessian


def newton_step(
    hessian: Sequence[float], gradient: Sequence[float]
) -> Optional[tuple[list[float], float]]:
    """Solve H d = g by Cholesky in a fixed order.

    ``hessian`` is the 10-entry upper triangle of ``loss_gradient_hessian``
    and ``gradient`` the 4 entries ``(g_cov, g_churn, g_prior, g_bias)``.
    Returns ``(d, decrement)``, where ``decrement`` is the squared Newton
    decrement g^T H^-1 g, or None when a pivot is not positive (or NaN), so
    nothing is ever divided by a zero pivot.
    """
    h00, h01, h02, h03, h11, h12, h13, h22, h23, h33 = hessian
    a = ((h00, h01, h02, h03), (h01, h11, h12, h13),
         (h02, h12, h22, h23), (h03, h13, h23, h33))
    low = [[0.0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i + 1):
            acc = a[i][j]
            for k in range(j):
                acc -= low[i][k] * low[j][k]
            if i == j:
                if not acc > 0.0:
                    return None
                low[i][i] = math.sqrt(acc)
            else:
                low[i][j] = acc / low[j][j]
    # H = L L^T: solve L y = g, then L^T d = y; g^T H^-1 g = y . y.
    y = [0.0] * 4
    for i in range(4):
        acc = gradient[i]
        for k in range(i):
            acc -= low[i][k] * y[k]
        y[i] = acc / low[i][i]
    d = [0.0] * 4
    for i in (3, 2, 1, 0):
        acc = y[i]
        for k in range(i + 1, 4):
            acc -= low[k][i] * d[k]
        d[i] = acc / low[i][i]
    decrement = 0.0
    for v in y:
        decrement += v * v
    return d, decrement


def train_model(trends: Sequence[ComponentTrend]) -> ModelParams:
    """Fit the penalised logistic model by damped Newton from zero;
    deterministic.

    Needs at least 20 labeled samples (trend points with a following
    period). Each step solves H d = g at the current iterate and stops the
    fit once half the squared Newton decrement g^T H^-1 g is at most
    ``NEWTON_TOLERANCE``. Otherwise it tries the steps d, d/2, d/4, ... (at
    most ``LINE_SEARCH_TRIES``) and takes the first that does not raise the
    loss. Once half the decrement is at most ``NEWTON_LOCAL`` only the full
    step is tried. The fit also stops, keeping the current iterate, when no
    trial qualifies or the Hessian has a non-positive pivot, and after
    ``NEWTON_MAX_STEPS`` steps. ``loss_history`` holds the loss at zero and
    then at each accepted iterate, so it never increases.
    """
    churn_max = max(
        (p.churn_lines for t in trends for p in t.series), default=0
    )
    samples = make_samples(trends, churn_max)
    if len(samples) < MIN_SAMPLES:
        raise InsufficientData(
            f"{len(samples)} training samples, need >= {MIN_SAMPLES}"
        )
    theta = (0.0, 0.0, 0.0, 0.0)  # (w_cov, w_churn, w_prior, b)
    loss, grad_w, grad_b, hessian = loss_gradient_hessian(
        theta[:3], theta[3], samples
    )
    history = [loss]
    for _ in range(NEWTON_MAX_STEPS):
        solved = newton_step(hessian, (*grad_w, grad_b))
        if solved is None:
            break
        d, decrement = solved
        if not decrement / 2 > NEWTON_TOLERANCE:
            break
        # Near the optimum the full step lowers the loss in exact arithmetic,
        # so a rise there is rounding in the loss and ends the fit.
        tries = 1 if decrement / 2 <= NEWTON_LOCAL else LINE_SEARCH_TRIES
        t = 1.0
        for _ in range(tries):
            trial = tuple(v - t * dv for v, dv in zip(theta, d))
            result = loss_gradient_hessian(trial[:3], trial[3], samples)
            if result[0] <= loss:
                break
            t *= 0.5
        else:
            break
        theta = trial
        loss, grad_w, grad_b, hessian = result
        history.append(loss)
    return ModelParams(
        weights=theta[:3],
        bias=theta[3],
        churn_max=churn_max,
        n_samples=len(samples),
        loss_history=tuple(history),
        coverage_varies=len({x[0] for x, _ in samples}) > 1,
    )


def predict_risk(
    model: ModelParams,
    conditional_pct: float,
    churn_lines: int,
    prior_bugs: int,
) -> float:
    x = features(conditional_pct, churn_lines, model.churn_max, prior_bugs)
    z = model.bias
    for w, v in zip(model.weights, x):
        z += w * v
    return sigmoid(z)


# --- recommendations --------------------------------------------------------

def zero_bug_median_coverage(trends: Sequence[ComponentTrend]) -> float:
    """Median latest coverage among components that never had a bug."""
    values = [
        t.series[-1].conditional_pct
        for t in trends
        if t.series and all(p.bug_count == 0 for p in t.series)
    ]
    if not values:
        return float(COVERAGE_FLOOR)
    return float(statistics.median(values))


def recommend(
    model: ModelParams,
    trend: ComponentTrend,
    zero_bug_median: float = float(COVERAGE_FLOOR),
    tau: float = DEFAULT_TAU,
    grid: Sequence[int] = COVERAGE_GRID,
) -> Recommendation:
    """Smallest grid coverage at or above current whose predicted risk is
    acceptable; degenerate models (trained on one coverage value, or with
    w_cov >= 0) fall back to observed-good levels. Recommendations never
    leave [70, 95]."""
    if model is None:
        raise UntrainedModel("recommend() needs a trained model")
    if not trend.series:
        raise UntrainedModel(f"component {trend.component!r} has no trend data")
    latest = trend.series[-1]
    current = latest.conditional_pct
    churn = latest.churn_lines
    prior = latest.bug_count
    risk_current = predict_risk(model, current, churn, prior)
    fallback = not model.coverage_varies or model.weights[0] >= 0.0
    if fallback:
        value = max(current, zero_bug_median, float(COVERAGE_FLOOR))
        recommended = int(min(math.ceil(value), COVERAGE_CEIL))
    else:
        recommended = None
        for c in grid:
            if c < current:
                continue
            if predict_risk(model, float(c), churn, prior) <= tau:
                recommended = c
                break
        if recommended is None:
            recommended = COVERAGE_CEIL
    recommended = max(COVERAGE_FLOOR, min(recommended, COVERAGE_CEIL))
    return Recommendation(
        component=trend.component,
        recommended_conditional_pct=recommended,
        current_conditional_pct=current,
        highlight=recommended > current + 1,
        risk_at_current=risk_current,
        risk_at_recommended=predict_risk(model, float(recommended), churn, prior),
        fallback_used=fallback,
    )


def recommend_all(
    model: ModelParams,
    trends: Sequence[ComponentTrend],
    tau: float = DEFAULT_TAU,
    grid: Sequence[int] = COVERAGE_GRID,
) -> list[Recommendation]:
    median = zero_bug_median_coverage(trends)
    return [
        recommend(model, t, median, tau, grid)
        for t in sorted(trends, key=lambda t: t.component)
    ]


def gap_report(recommendations: Sequence[Recommendation]) -> dict:
    """Highlighted components sorted by gap descending, then name."""
    rows = [
        {
            "component": r.component,
            "current_conditional_pct": r.current_conditional_pct,
            "recommended_conditional_pct": r.recommended_conditional_pct,
            "gap": r.gap,
            "risk_at_current": r.risk_at_current,
            "risk_at_recommended": r.risk_at_recommended,
            "fallback_used": r.fallback_used,
        }
        for r in sorted(
            (r for r in recommendations if r.highlight),
            key=lambda r: (-r.gap, r.component),
        )
    ]
    return {"gaps": rows, "gap_count": len(rows)}


def render_gap_table(report: dict) -> str:
    rows = report["gaps"]
    if not rows:
        return "No coverage gaps: every component meets its recommendation.\n"
    header = f"{'component':<20} {'current':>8} {'recommended':>12} {'gap':>6}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['component']:<20} {row['current_conditional_pct']:>8.1f} "
            f"{row['recommended_conditional_pct']:>12d} {row['gap']:>6.1f}"
        )
    return "\n".join(lines) + "\n"
