"""Test case construction: configured cases, pool fuzzing, greedy selection.

Two case sources exist. Configured cases come from a JSON file where
developers pin interesting inputs per method. Fuzz candidates are drawn
from per-input value pools (boundary values, literals compared in
conditions with their neighbors, seeded random values) and kept greedily
when they add condition/decision outcomes or new crash findings. A
candidate is a plain tuple, the input vector of the method's compiled
runner: a value per parameter, then a one-value mock script per call
site, taken from pools built once per method. Greedy selection runs it
straight on the runner and tests the returned outcome mask against the
bits not yet covered, so a dropped candidate allocates no dict, list or
set; only a kept one becomes a TestCase (`fuzzed_case`).

The candidate stream is fully deterministic given (AST, seed, budget),
in the phases docs/formats.md numbers 0 to 2:
  phase 0  all-defaults, then each pool value alone;
  phase 1  mixed-radix enumeration of the pool product, first axis fastest
           (capped at 3/4 of the remaining budget when the product is
           larger, so a random tail always follows for big spaces);
  phase 2  random pool-index vectors from the shared SplitMix64 stream.
Pool construction consumes the stream first: three random values per
int/float axis, in axis order. Phase 2 then reads the seed's outputs
from the table that every generator of the seed shares (`SplitMix64.take`),
so methods whose pools took the same number of draws read the same
outputs without drawing them again. docs/formats.md states the exact
layout.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

from .coverage import MethodCoverage, compute_coverage
from .cutlang.nodes import INT_MAX, INT_MIN, SourceUnit
from .decisions import Decision
from .errors import ContractViolation, SchemaError, UnknownTarget, parse_json
from .interp import CaseEvaluator, ExecutionTrace, TYPE_DEFAULTS, check_values
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


def _scalar_from_json(v: object) -> object:
    """A JSON value with the non-finite float markers decoded. Any other
    value, any other string included, is left for `CaseEvaluator.check`."""
    return float(v) if v in ("Infinity", "-Infinity", "NaN") else v


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


def _inputs_from_json(data: dict) -> tuple[dict, dict, dict]:
    """The params, fields and mock plan of a case record or a configured
    case, decoded but not checked. Its shape is checked: TypeError unless
    params, fields and mocks are objects and each mock script an array."""
    for key in ("params", "fields", "mocks"):
        if not isinstance(data.get(key, {}), dict):
            raise TypeError(f"{key} must be an object")
    mocks: dict[MockKey, list] = {}
    for dotted, script in data.get("mocks", {}).items():
        if not isinstance(script, list):
            raise TypeError(f"mock script {dotted!r} must be an array")
        f, _, m = dotted.partition(".")
        mocks[(f, m)] = [_scalar_from_json(v) for v in script]
    params = {k: _scalar_from_json(v) for k, v in data.get("params", {}).items()}
    fields = {k: _scalar_from_json(v) for k, v in data.get("fields", {}).items()}
    return params, fields, mocks


def case_from_json(data: object) -> TestCase:
    """A case read back from `case_to_json`'s form. A record of the wrong
    shape (see CASE_SCHEMA) is a TypeError that says what is wrong; its
    input values are left for `CaseEvaluator.check`."""
    if not isinstance(data, dict):
        raise TypeError("a case record must be a JSON object")
    for key in ("id", "target"):
        if key not in data:
            raise TypeError(f"missing key {key!r}")
    target = data["target"]
    if not isinstance(target, list) or [type(name) for name in target] != [str, str]:
        raise TypeError(f"target must be [class, method], got {target!r}")
    if type(data["id"]) is not str:
        raise TypeError(f"id must be a string, got {data['id']!r}")
    origin = data.get("origin", FUZZED)
    if origin not in (CONFIGURED, FUZZED):
        raise TypeError(f"origin must be {CONFIGURED!r} or {FUZZED!r}, got {origin!r}")
    params, fields, mocks = _inputs_from_json(data)
    seed_info = None
    if "seed" in data:
        seed_info = (data["seed"], data.get("candidate_index", 0))
        if any(type(v) is not int for v in seed_info):
            raise TypeError("seed and candidate_index must be integers")
    diagnostics = data.get("diagnostics", [])
    if not isinstance(diagnostics, list) or any(type(d) is not str for d in diagnostics):
        raise TypeError("diagnostics must be an array of strings")
    return TestCase(
        id=data["id"],
        target=tuple(target),
        param_values=params,
        field_values=fields,
        mock_plan=mocks,
        origin=origin,
        seed_info=seed_info,
        diagnostics=tuple(diagnostics),
    )


# --- configuration ----------------------------------------------------------

@dataclass(frozen=True)
class MethodConfig:
    """What a case configuration pins for one method."""

    cases: tuple[TestCase, ...]  # in file order
    pools: dict[str, list[Scalar]]  # parameter -> replacement fuzz pool


class _ConfigReader:
    """Validates the config JSON read from `file` against a parsed unit,
    eagerly. Each configured case is decoded as a case record is, then
    default-filled and checked by its method's evaluator."""

    def __init__(self, unit: SourceUnit, file: str):
        self.unit = unit
        self.file = file

    def read(self, data: object) -> dict[tuple[str, str], MethodConfig]:
        if not isinstance(data, dict):
            raise SchemaError("config root must be a JSON object", self.file)
        unknown = set(data) - {"classes"}
        if unknown:
            raise SchemaError(f"unknown config keys: {sorted(unknown)}", self.file)
        config: dict[tuple[str, str], MethodConfig] = {}
        classes = data.get("classes", {})
        if not isinstance(classes, dict):
            raise SchemaError("'classes' must be an object", self.file)
        for class_name, class_cfg in classes.items():
            cls = self.unit.class_named(class_name)
            if cls is None:
                raise UnknownTarget(class_name)
            if not isinstance(class_cfg, dict):
                raise SchemaError(f"{class_name}: class entry must be an object", self.file)
            bad = set(class_cfg) - {"methods"}
            if bad:
                raise SchemaError(f"{class_name}: unknown keys {sorted(bad)}", self.file)
            methods = class_cfg.get("methods", {})
            if not isinstance(methods, dict):
                raise SchemaError(f"{class_name}: 'methods' must be an object", self.file)
            for method_name, method_cfg in methods.items():
                path = f"{class_name}.{method_name}"
                evaluator = CaseEvaluator(self.unit, class_name, method_name)
                config[(class_name, method_name)] = self._read_method(
                    evaluator, method_cfg, path
                )
        return config

    def _read_method(self, evaluator, cfg, path) -> MethodConfig:
        if not isinstance(cfg, dict):
            raise SchemaError(f"{path}: method entry must be an object", self.file)
        unknown = set(cfg) - {"cases", "pools"}
        if unknown:
            raise SchemaError(f"{path}: unknown keys {sorted(unknown)}", self.file)
        param_types = evaluator.param_types
        target = (evaluator.class_name, evaluator.method.name)
        case_entries = cfg.get("cases", {})
        pool_entries = cfg.get("pools", {})
        if not isinstance(case_entries, dict) or not isinstance(pool_entries, dict):
            raise SchemaError(f"{path}: 'cases' and 'pools' must be objects", self.file)
        cases: list[TestCase] = []
        pools: dict[str, list[Scalar]] = {}
        for case_name, case_cfg in case_entries.items():
            cpath = f"{path}.{case_name}"
            if not isinstance(case_cfg, dict):
                raise SchemaError(f"{cpath}: case entry must be an object", self.file)
            bad = set(case_cfg) - {"params", "fields", "mocks"}
            if bad:
                raise SchemaError(f"{cpath}: unknown keys {sorted(bad)}", self.file)
            try:
                params, fields, mocks = _inputs_from_json(case_cfg)
            except TypeError as e:
                raise SchemaError(f"{cpath}: {e}", self.file) from None
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
            case = TestCase(
                id=f"cfg-{target[0]}.{target[1]}-{case_name}",
                target=target,
                param_values=params,
                field_values=fields,
                mock_plan=mocks,
                origin=CONFIGURED,
                diagnostics=tuple(diagnostics),
            )
            with self._at(cpath):
                evaluator.check(case)
            cases.append(case)
        for name, pool in pool_entries.items():
            ppath = f"{path}.pools.{name}"
            if name not in param_types:
                raise UnknownTarget(ppath)
            if not isinstance(pool, list) or not pool:
                raise SchemaError(f"{ppath}: pool must be a nonempty array", self.file)
            values = [_scalar_from_json(v) for v in pool]
            with self._at(ppath):
                pools[name] = check_values(
                    param_types[name], values, f"pool value of parameter {name!r}"
                )
        return MethodConfig(tuple(cases), pools)

    @contextlib.contextmanager
    def _at(self, where: str):
        """Prefix a ContractViolation raised inside with the config's file
        and the dotted path `where`."""
        try:
            yield
        except ContractViolation as e:
            raise ContractViolation(f"{self.file}: {where}: {e}") from None


def load_case_config(
    text: str, unit: SourceUnit, path: str = "<string>"
) -> dict[tuple[str, str], MethodConfig]:
    """Parse and validate the case-configuration JSON document of the file
    at `path` into one MethodConfig per named (class, method): a TestCase
    per named case, in file order, and the pool overrides.

    Unknown classes, methods and pool parameters raise UnknownTarget. A
    structural problem raises SchemaError, and a case or pool value its
    evaluator's check rejects ContractViolation, each naming `path` and
    the dotted path in the document. Missing parameters take type
    defaults (int 0, bool false, float 0.0) and missing mock scripts a
    single type-default value; both are flagged in the case's diagnostics.
    Unset fields keep their type defaults unflagged.
    """
    return _ConfigReader(unit, path).read(parse_json(text, path))


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
        pool = check_values(type_name, pool, f"pool value of parameter {name!r}")
        axes.append(_Axis("param", name, tuple(pool)))
    for key, ret in evaluator.mock_types.items():
        lits = _literals_for(decisions, ret, call=key)
        pool = _build_pool(ret, lits, rng)
        pool = check_values(ret, pool, f"pool value of mock {key[0]}->{key[1]}()")
        axes.append(_Axis("mock", key, tuple(pool)))
    return axes


def fuzzed_case(
    evaluator: CaseEvaluator, inputs: Sequence, seed: int, index: int
) -> TestCase:
    """The TestCase of fuzz candidate `inputs`, the input vector at `index`
    of the stream drawn with `seed` for the evaluator's method."""
    target = (evaluator.class_name, evaluator.method.name)
    scripts = inputs[len(evaluator.param_types):]
    return TestCase(
        f"fz-{target[0]}.{target[1]}-{index:04d}",
        target,
        dict(zip(evaluator.param_types, inputs)),
        {},
        {key: list(script) for key, script in zip(evaluator.mock_types, scripts)},
        FUZZED,
        (seed, index),
    )


def fuzz_candidates(
    evaluator: CaseEvaluator,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
    pool_overrides: Optional[dict[str, list[Scalar]]] = None,
) -> Iterator[tuple]:
    """Deterministic stream of at most `budget` fuzz candidates for the
    evaluator's method, each the runner's input vector (see
    `CaseEvaluator.inputs`) as a tuple: a value per parameter, then a
    one-value script per mock axis.

    The stream ends early when the whole pool product has been enumerated;
    otherwise it is padded to `budget` with random pool-index draws.
    """
    if budget < 1:
        raise ContractViolation("fuzz budget must be >= 1")
    rng = SplitMix64(seed)
    # Each pool holds runner inputs: a mock axis's holds one-value scripts.
    pools = [
        a.pool if a.kind == "param" else tuple((v,) for v in a.pool)
        for a in build_axes(evaluator, rng, pool_overrides)
    ]
    sizes = [len(pool) for pool in pools]
    product = math.prod(sizes)

    # `values` holds the input at each axis's current index.
    values = [pool[0] for pool in pools]
    emitted = 0

    # phase 0: all defaults, then every pool value alone
    yield tuple(values)
    emitted += 1
    for d, pool in enumerate(pools):
        for v in pool[1:]:
            if emitted >= budget:
                return
            values[d] = v
            yield tuple(values)
            emitted += 1
        values[d] = pool[0]

    # phase 1: mixed-radix count, axis 0 fastest, skipping phase-0 vectors.
    # `vec` is an odometer over the pool product, `values` follows its
    # digits, and `nonzero` counts its nonzero digits; a digit of a size-1
    # axis is always 0.
    remaining = budget - emitted
    phase1_cap = remaining if product <= budget else (remaining * 3) // 4
    vec = [0] * len(pools)
    counter = 0
    taken = 0
    nonzero = 0
    while counter < product and taken < phase1_cap:
        counter += 1
        if nonzero > 1:  # vectors with at most one nonzero came in phase 0
            yield tuple(values)
            emitted += 1
            taken += 1
        for d, size in enumerate(sizes):
            digit = vec[d] + 1
            if digit < size:
                vec[d] = digit
                values[d] = pools[d][digit]
                if digit == 1:
                    nonzero += 1
                break
            if vec[d]:
                nonzero -= 1
            vec[d] = 0
            values[d] = pools[d][0]
    if emitted >= product:
        return  # complete enumeration, nothing new can follow

    # phase 2: random pool-index vectors, one output of the seed's shared
    # table per axis, reduced modulo the axis's pool size
    k = len(pools)
    while emitted < budget:
        draws = rng.take(k)
        yield tuple([pool[r % n] for pool, n, r in zip(pools, sizes, draws)])
        emitted += 1


# --- greedy selection -------------------------------------------------------

@dataclass(frozen=True)
class GreedyResult:
    kept: tuple[TestCase, ...]
    traces: tuple[ExecutionTrace, ...]  # traces of kept candidates only
    coverage: MethodCoverage
    candidates_run: int


def greedy_select(
    candidates: Iterator[Sequence],
    evaluator: CaseEvaluator,
    preseed: Sequence[ExecutionTrace] = (),
    seed: int = DEFAULT_SEED,
) -> GreedyResult:
    """Serial fold over candidates, keeping the ones that add something new.

    A candidate is kept iff it covers an outcome pair not yet covered or
    crashes with a (kind, site) not yet seen. Traces in `preseed`
    (configured cases) count as already covered. Stops at full syntactic
    coverage or at the end of the stream. Each candidate is an input vector
    (see `CaseEvaluator.inputs`) that runs straight on the evaluator's
    `runner`, unchecked, so its inputs must be ones the evaluator's `check`
    accepts, as fuzz candidates' are. Only a kept one becomes a TestCase
    (`fuzzed_case`, with `seed`, the seed the stream was drawn with, and
    the candidate's index in the stream) and an ExecutionTrace.
    """
    valid = evaluator.pairs
    covered: set[tuple[str, bool]] = set()
    seen_crashes: set[tuple] = set()
    for t in preseed:
        covered.update(t.outcomes)
        if t.crash is not None:
            seen_crashes.add(t.crash.key)
    kept: list[TestCase] = []
    traces: list[ExecutionTrace] = []
    ran = 0
    if not covered >= valid:
        runner = evaluator.runner  # compiles the method on first read
        # The bits of the pairs not yet covered.
        missing = 0
        for bit, pair in enumerate(evaluator.pairs_by_bit):
            if pair not in covered:
                missing |= 1 << bit
        fuel = evaluator.fuel
        fields: dict[str, Scalar] = {}  # fuzzing sets no fields; runs only read it
        index = -1
        for index, inputs in enumerate(candidates):
            crash, ret, left, mask = runner(inputs, fields, fuel)
            if not mask & missing:
                if crash is None or crash.key in seen_crashes:
                    continue
            if crash is not None:
                seen_crashes.add(crash.key)
            kept.append(fuzzed_case(evaluator, inputs, seed, index))
            traces.append(
                ExecutionTrace(evaluator.outcomes(mask), crash, fuel - left, ret)
            )
            missing &= ~mask
            if not missing:
                break
        ran = index + 1
    coverage = compute_coverage(list(preseed) + traces, evaluator)
    return GreedyResult(
        kept=tuple(kept),
        traces=tuple(traces),
        coverage=coverage,
        candidates_run=ran,
    )
