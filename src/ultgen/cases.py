"""Test case construction: configured cases, pool fuzzing, greedy selection.

Two case sources exist. Configured cases come from a JSON file where
developers pin interesting inputs per method. Fuzzed cases are drawn from
per-input value pools (boundary values, literals compared in conditions
with their neighbors, seeded random values) and kept greedily when they
add condition/decision outcomes or new crash findings.

The candidate stream is fully deterministic given (AST, seed, budget):
  phase 0  all-defaults, then each pool value alone;
  phase 1  mixed-radix enumeration of the pool product, first axis fastest
           (capped at 3/4 of the remaining budget when the product is
           larger, so a random tail always follows for big spaces);
  phase 2  random pool-index vectors from the shared SplitMix64 stream.
Pool construction consumes the stream first: three random values per
int/float axis, in axis order. docs/formats.md states the exact layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

from .coverage import MethodCoverage, compute_coverage
from .cutlang.nodes import INT_MAX, INT_MIN, SourceUnit
from .decisions import Decision
from .errors import ContractViolation, SchemaError, UnknownClass, UnknownTarget
from .interp import CaseEvaluator, ExecutionTrace, TYPE_DEFAULTS, _fits, check_values
from .rng import SplitMix64

Scalar = Union[int, float, bool]
MockKey = tuple[str, str]

CONFIGURED = "Configured"
FUZZED = "Fuzzed"

DEFAULT_BUDGET = 256
DEFAULT_SEED = 42

_RANDOM_POOL_VALUES = 3


@dataclass(slots=True)
class TestCase:
    id: str
    target: tuple[str, str]  # (class, method)
    param_values: dict[str, Scalar]
    field_values: dict[str, Scalar]
    mock_plan: dict[MockKey, list[Scalar]]
    origin: str  # Configured | Fuzzed
    seed_info: Optional[tuple[int, int]] = None  # (seed, candidate index)
    diagnostics: tuple[str, ...] = ()


# --- serialization (JSONL-friendly dicts) ----------------------------------

def _scalar_to_json(v: Scalar) -> object:
    if isinstance(v, float) and not math.isfinite(v):
        if math.isnan(v):
            return "NaN"
        return "Infinity" if v > 0 else "-Infinity"
    return v


def _scalar_from_json(v: object) -> Scalar:
    if isinstance(v, str):
        return float(v)  # "Infinity", "-Infinity", "NaN"
    return v


def case_to_json(case: TestCase) -> dict:
    out: dict = {
        "id": case.id,
        "target": list(case.target),
        "params": {k: _scalar_to_json(v) for k, v in case.param_values.items()},
        "fields": {k: _scalar_to_json(v) for k, v in case.field_values.items()},
        "mocks": {
            f"{f}.{m}": [_scalar_to_json(v) for v in script]
            for (f, m), script in case.mock_plan.items()
        },
        "origin": case.origin,
    }
    if case.seed_info is not None:
        out["seed"] = case.seed_info[0]
        out["candidate_index"] = case.seed_info[1]
    if case.diagnostics:
        out["diagnostics"] = list(case.diagnostics)
    return out


def case_from_json(data: dict) -> TestCase:
    mocks: dict[MockKey, list[Scalar]] = {}
    for dotted, script in data.get("mocks", {}).items():
        f, _, m = dotted.partition(".")
        mocks[(f, m)] = [_scalar_from_json(v) for v in script]
    seed_info = None
    if "seed" in data:
        seed_info = (data["seed"], data.get("candidate_index", 0))
    return TestCase(
        id=data["id"],
        target=tuple(data["target"]),
        param_values={k: _scalar_from_json(v) for k, v in data.get("params", {}).items()},
        field_values={k: _scalar_from_json(v) for k, v in data.get("fields", {}).items()},
        mock_plan=mocks,
        origin=data.get("origin", FUZZED),
        seed_info=seed_info,
        diagnostics=tuple(data.get("diagnostics", ())),
    )


# --- configuration ----------------------------------------------------------

@dataclass(frozen=True)
class CaseConfig:
    cases: tuple[TestCase, ...]
    # (class, method, param) -> replacement value pool for fuzzing
    pool_overrides: dict[tuple[str, str, str], list[Scalar]] = field(
        default_factory=dict
    )


def _coerce(type_name: str, value: object, path: str) -> Scalar:
    """JSON value -> typed scalar; ints coerce to float for float inputs."""
    if _fits(type_name, value):
        return value
    if type_name == "float" and (
        type(value) is int or value in ("Infinity", "-Infinity", "NaN")
    ):
        return float(value)
    raise SchemaError(f"{path}: expected {type_name}, got {value!r}")


class _ConfigReader:
    """Validates the config JSON against a parsed unit, eagerly."""

    def __init__(self, unit: SourceUnit):
        self.unit = unit

    def read(self, data: object) -> CaseConfig:
        if not isinstance(data, dict):
            raise SchemaError("config root must be a JSON object")
        unknown = set(data) - {"classes"}
        if unknown:
            raise SchemaError(f"unknown config keys: {sorted(unknown)}")
        cases: list[TestCase] = []
        overrides: dict[tuple[str, str, str], list[Scalar]] = {}
        classes = data.get("classes", {})
        if not isinstance(classes, dict):
            raise SchemaError("'classes' must be an object")
        for class_name, class_cfg in classes.items():
            cls = self.unit.class_named(class_name)
            if cls is None:
                raise UnknownTarget(class_name)
            if not isinstance(class_cfg, dict):
                raise SchemaError(f"{class_name}: class entry must be an object")
            bad = set(class_cfg) - {"methods"}
            if bad:
                raise SchemaError(f"{class_name}: unknown keys {sorted(bad)}")
            methods = class_cfg.get("methods", {})
            if not isinstance(methods, dict):
                raise SchemaError(f"{class_name}: 'methods' must be an object")
            for method_name, method_cfg in methods.items():
                path = f"{class_name}.{method_name}"
                evaluator = self._evaluator_for(class_name, method_name, path)
                self._read_method(
                    evaluator, method_cfg, path, cases, overrides
                )
        return CaseConfig(cases=tuple(cases), pool_overrides=overrides)

    def _evaluator_for(self, class_name: str, method_name: str, path: str):
        try:
            return CaseEvaluator(self.unit, class_name, method_name)
        except UnknownClass:
            raise UnknownTarget(path) from None

    def _read_method(self, evaluator, cfg, path, cases, overrides) -> None:
        if not isinstance(cfg, dict):
            raise SchemaError(f"{path}: method entry must be an object")
        unknown = set(cfg) - {"cases", "pools"}
        if unknown:
            raise SchemaError(f"{path}: unknown keys {sorted(unknown)}")
        param_types = evaluator.param_types
        target = (evaluator.class_name, evaluator.method.name)
        case_entries = cfg.get("cases", {})
        pool_entries = cfg.get("pools", {})
        if not isinstance(case_entries, dict) or not isinstance(pool_entries, dict):
            raise SchemaError(f"{path}: 'cases' and 'pools' must be objects")
        for case_name, case_cfg in case_entries.items():
            cpath = f"{path}.{case_name}"
            if not isinstance(case_cfg, dict):
                raise SchemaError(f"{cpath}: case entry must be an object")
            bad = set(case_cfg) - {"params", "fields", "mocks"}
            if bad:
                raise SchemaError(f"{cpath}: unknown keys {sorted(bad)}")
            params: dict[str, Scalar] = {}
            for name, value in case_cfg.get("params", {}).items():
                if name not in param_types:
                    raise UnknownTarget(f"{cpath}.params.{name}")
                params[name] = _coerce(
                    param_types[name], value, f"{cpath}.params.{name}"
                )
            fields: dict[str, Scalar] = {}
            for name, value in case_cfg.get("fields", {}).items():
                if name not in evaluator.field_types:
                    raise UnknownTarget(f"{cpath}.fields.{name}")
                fields[name] = _coerce(
                    evaluator.field_types[name], value, f"{cpath}.fields.{name}"
                )
            mocks: dict[MockKey, list[Scalar]] = {}
            for dotted, script in case_cfg.get("mocks", {}).items():
                mpath = f"{cpath}.mocks.{dotted}"
                f_name, sep, m_name = dotted.partition(".")
                if not sep:
                    raise UnknownTarget(mpath)
                try:
                    ret = evaluator.mock_type((f_name, m_name))
                except ContractViolation:
                    raise UnknownTarget(mpath) from None
                if not isinstance(script, list) or not script:
                    raise SchemaError(f"{mpath}: script must be a nonempty array")
                mocks[(f_name, m_name)] = [
                    _coerce(ret, v, mpath) for v in script
                ]
            # Unset parameters and value-returning call sites take type
            # defaults, each flagged in the case's diagnostics.
            diagnostics: list[str] = []
            for name, type_name in param_types.items():
                if name not in params:
                    params[name] = TYPE_DEFAULTS[type_name]
                    diagnostics.append(f"DefaultFilled: param {name}")
            for key, ret in evaluator.mock_types.items():
                if key not in mocks:
                    mocks[key] = [TYPE_DEFAULTS[ret]]
                    diagnostics.append(f"DefaultFilled: mock {key[0]}->{key[1]}()")
            cases.append(
                TestCase(
                    id=f"cfg-{target[0]}.{target[1]}-{case_name}",
                    target=target,
                    param_values=params,
                    field_values=fields,
                    mock_plan=mocks,
                    origin=CONFIGURED,
                    diagnostics=tuple(diagnostics),
                )
            )
        for name, pool in pool_entries.items():
            ppath = f"{path}.pools.{name}"
            if name not in param_types:
                raise UnknownTarget(ppath)
            if not isinstance(pool, list) or not pool:
                raise SchemaError(f"{ppath}: pool must be a nonempty array")
            overrides[(*target, name)] = [
                _coerce(param_types[name], v, ppath) for v in pool
            ]


def load_case_config(text: str, unit: SourceUnit) -> CaseConfig:
    """Parse and validate a case-configuration JSON document into one
    TestCase per named case, in file order.

    Unknown classes/methods/params/fields/mock targets fail eagerly with
    the offending dotted path; structural problems raise SchemaError.
    Missing parameters take type defaults (int 0, bool false, float 0.0)
    and missing mock scripts a single type-default value; both are flagged
    in the case's diagnostics. Unset fields keep their type defaults
    unflagged.
    """
    import json

    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"config is not valid JSON: {e}") from None
    return _ConfigReader(unit).read(data)


# --- fuzzing ----------------------------------------------------------------

_INT_BASE: list[int] = [0, 1, -1, INT_MIN, INT_MAX]
_FLOAT_BASE: list[float] = [0.0, 1.0, -1.0, math.inf, -math.inf]


def _neighborhood(type_name: str, lit: Scalar) -> list[Scalar]:
    if type_name == "int":
        return [v for v in (lit - 1, lit, lit + 1) if INT_MIN <= v <= INT_MAX]
    if type_name == "float":
        return [math.nextafter(lit, -math.inf), lit, math.nextafter(lit, math.inf)]
    return [lit]


def _literals_for(
    decisions: Sequence[Decision],
    type_name: str,
    *,
    param: Optional[str] = None,
    call: Optional[MockKey] = None,
) -> list[Scalar]:
    values: set[Scalar] = set()
    for d in decisions:
        for c in d.conditions:
            hit = (param is not None and param in c.referenced_params) or (
                call is not None and call in c.referenced_calls
            )
            if not hit:
                continue
            values.update(v for t, v in c.compared_literals if t == type_name)
    return sorted(values)


def _build_pool(
    type_name: str,
    literals: Sequence[Scalar],
    rng: SplitMix64,
) -> list[Scalar]:
    if type_name == "bool":
        return [False, True]
    pool: list[Scalar] = list(_INT_BASE if type_name == "int" else _FLOAT_BASE)
    for lit in literals:
        for v in _neighborhood(type_name, lit):
            if v not in pool:
                pool.append(v)
    for _ in range(_RANDOM_POOL_VALUES):
        if type_name == "int":
            v: Scalar = rng.signed64()
        else:
            v = rng.float01() * 200.0 - 100.0
        if v not in pool:
            pool.append(v)
    return pool


@dataclass(frozen=True)
class _Axis:
    kind: str  # "param" | "mock"
    name: object  # param name or MockKey
    pool: tuple[Scalar, ...]


def build_axes(
    evaluator: CaseEvaluator,
    rng: SplitMix64,
    pool_overrides: Optional[dict[str, list[Scalar]]] = None,
) -> list[_Axis]:
    """Fuzzing axes with their pools: the evaluator's parameters in
    declaration order, then its value-returning call sites in body
    pre-order of first use. Pool overrides replace the derived pool for the
    named parameter. Consumes three values from `rng` per non-overridden
    int/float axis, in axis order. Every pool value is checked against its
    input's type here, once, so the cases built from the axes need no
    check of their own."""
    overrides = pool_overrides or {}
    decisions = evaluator.decisions
    axes: list[_Axis] = []
    for name, type_name in evaluator.param_types.items():
        if name in overrides:
            pool = overrides[name]
        else:
            lits = _literals_for(decisions, type_name, param=name)
            pool = _build_pool(type_name, lits, rng)
        check_values(type_name, pool, f"pool value of parameter {name!r}")
        axes.append(_Axis("param", name, tuple(pool)))
    for key, ret in evaluator.mock_types.items():
        lits = _literals_for(decisions, ret, call=key)
        pool = _build_pool(ret, lits, rng)
        check_values(ret, pool, f"pool value of mock {key[0]}->{key[1]}()")
        axes.append(_Axis("mock", key, tuple(pool)))
    return axes


def fuzz_candidates(
    evaluator: CaseEvaluator,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
    pool_overrides: Optional[dict[str, list[Scalar]]] = None,
) -> Iterator[TestCase]:
    """Deterministic stream of at most `budget` fuzz candidates for the
    evaluator's method.

    The stream ends early when the whole pool product has been enumerated;
    otherwise it is padded to `budget` with random pool-index draws.
    """
    if budget < 1:
        raise ContractViolation("fuzz budget must be >= 1")
    rng = SplitMix64(seed)
    class_name, method = evaluator.class_name, evaluator.method
    axes = build_axes(evaluator, rng, pool_overrides)
    sizes = [len(a.pool) for a in axes]
    product = 1
    for s in sizes:
        product *= s
    # build_axes puts every param axis before every mock axis.
    n_params = sum(1 for a in axes if a.kind == "param")
    param_names = [a.name for a in axes[:n_params]]
    param_pools = [a.pool for a in axes[:n_params]]
    mock_keys = [a.name for a in axes[n_params:]]
    mock_pools = [a.pool for a in axes[n_params:]]
    target = (class_name, method.name)
    id_prefix = f"fz-{class_name}.{method.name}-"

    def build(vector: Sequence[int], index: int) -> TestCase:
        return TestCase(
            f"{id_prefix}{index:04d}",
            target,
            {n: pool[i] for n, pool, i in zip(param_names, param_pools, vector)},
            {},
            {
                k: [pool[i]]
                for k, pool, i in zip(mock_keys, mock_pools, vector[n_params:])
            },
            FUZZED,
            (seed, index),
        )

    emitted = 0

    # phase 0: all defaults, then every pool value alone
    vec = [0] * len(axes)
    yield build(vec, emitted)
    emitted += 1
    for d, size in enumerate(sizes):
        for v in range(1, size):
            if emitted >= budget:
                return
            vec[d] = v
            yield build(vec, emitted)
            emitted += 1
        vec[d] = 0

    # phase 1: mixed-radix count, axis 0 fastest, skipping phase-0 vectors.
    # `vec` is an odometer over the pool product and `nonzero` counts its
    # nonzero digits; a digit of a size-1 axis is always 0.
    remaining = budget - emitted
    phase1_cap = remaining if product <= budget else (remaining * 3) // 4
    counter = 0
    taken = 0
    nonzero = 0
    while counter < product and taken < phase1_cap:
        counter += 1
        if nonzero > 1:  # vectors with at most one nonzero came in phase 0
            yield build(vec, emitted)
            emitted += 1
            taken += 1
        for d, size in enumerate(sizes):
            digit = vec[d] + 1
            if digit < size:
                vec[d] = digit
                if digit == 1:
                    nonzero += 1
                break
            if vec[d]:
                nonzero -= 1
            vec[d] = 0
    if emitted >= product:
        return  # complete enumeration, nothing new can follow

    # phase 2: random pool-index vectors
    below = rng.below
    while emitted < budget:
        yield build([below(s) for s in sizes], emitted)
        emitted += 1


# --- greedy selection -------------------------------------------------------

@dataclass(frozen=True)
class GreedyResult:
    kept: tuple[TestCase, ...]
    traces: tuple[ExecutionTrace, ...]  # traces of kept candidates only
    coverage: MethodCoverage
    candidates_run: int


def greedy_select(
    candidates: Iterator[TestCase],
    evaluator: CaseEvaluator,
    preseed: Sequence[ExecutionTrace] = (),
) -> GreedyResult:
    """Serial fold over candidates, keeping the ones that add something new.

    A candidate is kept iff it covers an outcome pair not yet covered or
    crashes with a (kind, site) not yet seen. Traces in `preseed`
    (configured cases) count as already covered. Stops at full syntactic
    coverage or at the end of the stream. Candidates run unchecked, so they
    must be cases the evaluator's `check` accepts, as fuzz candidates are.
    """
    valid = evaluator.pairs
    covered: set[tuple[str, bool]] = set()
    seen_crashes: set[tuple] = set()
    for t in preseed:
        covered.update(t.outcomes & valid)
        if t.crash is not None:
            seen_crashes.add(t.crash.key)
    kept: list[TestCase] = []
    traces: list[ExecutionTrace] = []
    ran = 0
    full = covered >= valid
    if not full:
        for case in candidates:
            ran += 1
            trace = evaluator.run(case)
            new_crash = trace.crash is not None and trace.crash.key not in seen_crashes
            if not new_crash and trace.outcomes <= covered:
                continue  # nothing new, so `covered` is still short of `valid`
            new_pairs = (trace.outcomes & valid) - covered
            if new_pairs or new_crash:
                kept.append(case)
                traces.append(trace)
                covered.update(new_pairs)
                if trace.crash is not None:
                    seen_crashes.add(trace.crash.key)
            if covered >= valid:
                break
    coverage = compute_coverage(list(preseed) + traces, evaluator)
    return GreedyResult(
        kept=tuple(kept),
        traces=tuple(traces),
        coverage=coverage,
        candidates_run=ran,
    )
