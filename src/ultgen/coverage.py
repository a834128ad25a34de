"""Condition/decision coverage computation and the exhaustive oracle.

Coverage counts outcome pairs: every decision and every condition must be
seen evaluating to both true and false. The denominator is syntactic,
2 * (#conditions + #decisions), including unreachable pairs; a method with
no decisions is vacuously at 100%.
"""

from __future__ import annotations

import itertools
from typing import AbstractSet, NamedTuple, Optional, Sequence, Union

# all_pairs lives in decisions (the evaluator needs it); perfbench/check.py
# imports it from here.
from .decisions import all_pairs  # noqa: F401
from .errors import DomainTooLarge, EmptyDomain, MixedTargets
from .interp import CaseEvaluator, ExecutionTrace, check_values

Scalar = Union[int, float, bool]

BRUTE_FORCE_CAP = 10**6

# Shared by every record with no covered or no uncovered pairs: on CPython
# 3.11 even `frozenset()` allocates.
_NO_PAIRS: frozenset[tuple[str, bool]] = frozenset()


class MethodCoverage(NamedTuple):
    method: str  # "<Class>.<method>"
    conditions_total: int
    decisions_total: int
    pairs_covered: frozenset[tuple[str, bool]]
    # All outcome pairs minus the covered ones. For the exhaustive oracle
    # these are the pairs no input combination can produce.
    uncovered: frozenset[tuple[str, bool]]
    has_passing_case: bool
    # Filled by the exhaustive oracle only: the number of combinations
    # enumerated.
    combos: Optional[int] = None

    @property
    def denominator(self) -> int:
        return 2 * (self.conditions_total + self.decisions_total)

    @property
    def percent(self) -> float:
        return percent_of(len(self.pairs_covered), self.denominator)


class CoverageReport(NamedTuple):
    functional_pct: float
    conditional_pct: float


def percent_of(pairs_covered: int, denominator: int) -> float:
    if denominator == 0:
        return 100.0
    return 100.0 * pairs_covered / denominator


def _method_coverage(
    evaluator: CaseEvaluator,
    covered: AbstractSet[tuple[str, bool]],
    has_passing_case: bool,
    combos: Optional[int] = None,
) -> MethodCoverage:
    """The one place a MethodCoverage is built; `covered` is a subset of
    `evaluator.pairs`."""
    decisions = evaluator.decisions
    return MethodCoverage(
        method=f"{evaluator.class_name}.{evaluator.method.name}",
        conditions_total=sum(len(d.conditions) for d in decisions),
        decisions_total=len(decisions),
        pairs_covered=frozenset(covered) if covered else _NO_PAIRS,
        uncovered=(evaluator.pairs - covered) or _NO_PAIRS,
        has_passing_case=has_passing_case,
        combos=combos,
    )


def compute_coverage(
    traces: Sequence[ExecutionTrace], evaluator: CaseEvaluator
) -> MethodCoverage:
    """Union the outcome pairs of the evaluator's traces.

    Every covered pair must be one of the evaluator's pairs. Pair ids name
    their method, so a trace of another method that recorded any pair is
    caught here.
    """
    covered: set[tuple[str, bool]] = set()
    for t in traces:
        covered.update(t.outcomes)
    foreign = covered - evaluator.pairs
    if foreign:
        raise MixedTargets(
            f"traces cover pairs {evaluator.class_name}.{evaluator.method.name} "
            f"does not have: {sorted(foreign)}"
        )
    return _method_coverage(evaluator, covered, any(t.passed for t in traces))


def aggregate_report(methods: Sequence[MethodCoverage]) -> CoverageReport:
    """Roll methods up: functional = share of methods with a passing case,
    conditional = pair-weighted percentage over all methods."""
    if not methods:
        return CoverageReport(functional_pct=100.0, conditional_pct=100.0)
    passing = sum(1 for m in methods if m.has_passing_case)
    functional = 100.0 * passing / len(methods)
    denom = sum(m.denominator for m in methods)
    covered = sum(len(m.pairs_covered) for m in methods)
    return CoverageReport(
        functional_pct=functional,
        conditional_pct=percent_of(covered, denom),
    )


def brute_force_max_coverage(
    evaluator: CaseEvaluator,
    domains: dict[str, Sequence[Scalar]],
    mock_domains: dict[tuple[str, str], Sequence[Scalar]],
    cap: int = BRUTE_FORCE_CAP,
) -> MethodCoverage:
    """Maximum achievable coverage by exhausting finite input domains.

    Every method parameter needs a nonempty domain and every value-returning
    call site a nonempty mock domain (one scripted value per combination),
    of values of its type. Each combination is one runner input vector (see
    `CaseEvaluator.inputs`), as fuzz candidates are. Scalar fields stay at
    their type defaults, matching the fuzzer.
    """
    pools: list[Sequence] = []
    for name, type_name in evaluator.param_types.items():
        values = domains.get(name)
        if not values:
            raise EmptyDomain(f"no domain for parameter {name!r}")
        pools.append(check_values(type_name, values, f"domain value of parameter {name!r}"))
    for key, ret in evaluator.mock_types.items():
        values = mock_domains.get(key)
        if not values:
            raise EmptyDomain(f"no mock domain for call site {key}")
        values = check_values(ret, values, f"domain value of mock {key[0]}->{key[1]}()")
        pools.append([(v,) for v in values])

    total = 1
    for pool in pools:
        total *= len(pool)
        if total > cap:
            raise DomainTooLarge(f"domain product exceeds {cap}")

    runner = evaluator.runner
    fields = evaluator.fields({})
    fuel = evaluator.fuel
    full = (1 << len(evaluator.pairs_by_bit)) - 1
    mask = 0
    has_passing = False
    for inputs in itertools.product(*pools):
        crash, _, _, run_mask = runner(inputs, fields, fuel)
        mask |= run_mask
        has_passing = has_passing or crash is None
        if mask == full and has_passing:
            break  # provably maximal already

    return _method_coverage(evaluator, evaluator.outcomes(mask), has_passing, combos=total)
