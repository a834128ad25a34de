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

The stream chains the phases, and each phase is built from itertools
when the stream reaches it, so a stream that is never read (that of a
method with no decisions) builds no pools and draws nothing. Phase 0 is
a list; phase 1 is `itertools.product` over the pools, filtered by a
mask of the vectors phase 0 gave; phase 2 is a chunk at a time, a `zip`
of one pool lookup per axis over the chunk's draws, each chunk as long
as what the shared table already holds and one vector more, so the
table is drawn no further than the stream is read.
"""

from __future__ import annotations

import math
from itertools import chain, compress, islice, product, repeat
from operator import itemgetter, mod
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .coverage import MethodCoverage, compute_coverage
from .cutlang.nodes import INT_MAX, INT_MIN, SourceUnit
from .decisions import Decision
from .errors import ContractViolation, JsonReader, UnknownTarget
from .interp import CaseEvaluator, ExecutionTrace, TYPE_DEFAULTS, check_values
from .rng import SplitMix64

Scalar = Union[int, float, bool]
MockKey = tuple[str, str]

CONFIGURED = "Configured"
FUZZED = "Fuzzed"

DEFAULT_BUDGET = 256
DEFAULT_SEED = 42

_RANDOM_POOL_VALUES = 3


class TestCase:
    """One case: its inputs and where it came from. Equal when every field
    is equal; mutable, so unhashable."""

    __slots__ = (
        "id", "target", "param_values", "field_values", "mock_plan", "origin",
        "seed_info", "diagnostics",
    )
    __hash__ = None

    def __init__(
        self,
        id: str,
        target: tuple[str, str],  # (class, method)
        param_values: dict[str, Scalar],
        field_values: dict[str, Scalar],
        mock_plan: dict[MockKey, list[Scalar]],
        origin: str,  # Configured | Fuzzed
        seed_info: Optional[tuple[int, int]] = None,  # (seed, candidate index)
        diagnostics: tuple[str, ...] = (),
    ) -> None:
        self.id = id
        self.target = target
        self.param_values = param_values
        self.field_values = field_values
        self.mock_plan = mock_plan
        self.origin = origin
        self.seed_info = seed_info
        self.diagnostics = diagnostics

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self.__slots__
        return tuple([getattr(self, n) for n in names]) == tuple(
            [getattr(other, n) for n in names]
        )

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"TestCase({shown})"


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


def _inputs_from_json(data: dict, r: JsonReader, path: tuple) -> tuple[dict, dict, dict]:
    """The params, fields and mock plan of `data`, a case record or a
    configured case at `path`: `r` checks their shape, and their values are
    left unchecked."""
    params, fields, mocks = [
        r.object(data.get(key, {}), path + (key,)) for key in ("params", "fields", "mocks")
    ]
    plan: dict[MockKey, list] = {}
    for dotted, script in mocks.items():
        r.array(script, path + ("mocks", dotted), nonempty=False)
        f, _, m = dotted.partition(".")
        plan[(f, m)] = [_scalar_from_json(v) for v in script]
    return (
        {k: _scalar_from_json(v) for k, v in params.items()},
        {k: _scalar_from_json(v) for k, v in fields.items()},
        plan,
    )


def case_from_json(data: object, r: Optional[JsonReader] = None) -> TestCase:
    """A case read back from `case_to_json`'s form, its shape checked by
    `r` (see docs/formats.md): a SchemaError says what is wrong. Its input
    values are left for `CaseEvaluator.check`."""
    r = r or JsonReader("<case record>")
    r.object(data, "", {"id", "target"}, (
        "origin", "params", "fields", "mocks", "seed", "candidate_index", "diagnostics"
    ))
    if type(data["id"]) is not str:
        r.fail("id", "must be a string")
    target = data["target"]
    if type(target) is not list or [type(name) for name in target] != [str, str]:
        r.fail("target", "must be [class, method]")
    origin = data.get("origin", FUZZED)
    if origin not in (CONFIGURED, FUZZED):
        r.fail("origin", f"must be {CONFIGURED!r} or {FUZZED!r}")
    seed_info = None
    if "seed" in data:
        if type(data["seed"]) is not int:
            r.fail("seed", "must be an integer")
        seed_info = (data["seed"], r.count(data.get("candidate_index", 0), "candidate_index"))
    elif "candidate_index" in data:
        r.fail("", "missing key 'seed'")
    diagnostics = r.array(data.get("diagnostics", []), "diagnostics", nonempty=False)
    if any(type(d) is not str for d in diagnostics):
        r.fail("diagnostics", "must be an array of strings")
    params, fields, mocks = _inputs_from_json(data, r, ())
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

class MethodConfig(NamedTuple):
    """What a case configuration pins for one method."""

    cases: tuple[TestCase, ...]  # in file order
    pools: dict[str, list[Scalar]]  # parameter -> replacement fuzz pool


def load_case_config(
    text: str, unit: SourceUnit, path: str = "<string>"
) -> dict[tuple[str, str], MethodConfig]:
    """Parse and validate the case-configuration JSON document of the file
    at `path` into one MethodConfig per named (class, method): a TestCase
    per named case, in file order, and the pool overrides.

    Every error names `path`. A structural problem raises SchemaError, and
    a case or pool value its evaluator's check rejects ContractViolation,
    each after the dotted path in the document (`A.f.case`, `A.f.pools.x`).
    Unknown classes, methods and pool parameters raise UnknownTarget.
    Missing parameters take type defaults (int 0, bool false, float 0.0)
    and missing mock scripts a single type-default value; both are flagged
    in the case's diagnostics. Unset fields keep their type defaults
    unflagged.
    """
    r = JsonReader(path)
    doc = r.object(r.document(text), "", set(), ("classes",))
    config: dict[tuple[str, str], MethodConfig] = {}
    for class_name, class_cfg in r.object(doc.get("classes", {}), "classes").items():
        if unit.class_named(class_name) is None:
            raise r.locate(UnknownTarget(class_name))
        r.object(class_cfg, (class_name,), set(), ("methods",))
        methods = r.object(class_cfg.get("methods", {}), (class_name, "methods"))
        for method_name, method_cfg in methods.items():
            try:
                evaluator = CaseEvaluator(unit, class_name, method_name)
            except UnknownTarget as e:
                raise r.locate(e) from None
            config[(class_name, method_name)] = _method_config(
                r, evaluator, method_cfg, (class_name, method_name)
            )
    return config


def _method_config(
    r: JsonReader, evaluator: CaseEvaluator, cfg: object, path: tuple
) -> MethodConfig:
    """The MethodConfig of method entry `cfg` at `path`. Each configured
    case is decoded as a case record is, then default-filled and checked by
    the method's evaluator."""
    r.object(cfg, path, set(), ("cases", "pools"))
    param_types = evaluator.param_types
    target = (evaluator.class_name, evaluator.method.name)
    cases: list[TestCase] = []
    for case_name, case_cfg in r.object(cfg.get("cases", {}), path + ("cases",)).items():
        case_path = path + (case_name,)
        r.object(case_cfg, case_path, set(), ("params", "fields", "mocks"))
        params, fields, mocks = _inputs_from_json(case_cfg, r, case_path)
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
        try:
            evaluator.check(case)
        except ContractViolation as e:
            raise r.locate(e, case_path) from None
        cases.append(case)
    pools: dict[str, list[Scalar]] = {}
    for name, pool in r.object(cfg.get("pools", {}), path + ("pools",)).items():
        pool_path = path + ("pools", name)
        if name not in param_types:
            raise r.locate(UnknownTarget(".".join(pool_path)))
        values = [_scalar_from_json(v) for v in r.array(pool, pool_path)]
        try:
            pools[name] = check_values(
                param_types[name], values, f"pool value of parameter {name!r}"
            )
        except ContractViolation as e:
            raise r.locate(e, pool_path) from None
    return MethodConfig(tuple(cases), pools)


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


class _Axis(NamedTuple):
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
    otherwise it is padded to `budget` with random pool-index draws. It
    builds the pools, and draws, only when it is first read.
    """
    return chain.from_iterable(_phases(evaluator, budget, seed, pool_overrides))


def _phases(
    evaluator: CaseEvaluator,
    budget: int,
    seed: int,
    pool_overrides: Optional[dict[str, list[Scalar]]],
) -> Iterator[Iterable[tuple]]:
    """The phases of `fuzz_candidates`' stream, each made when the stream
    has read the one before."""
    if budget < 1:
        raise ContractViolation("fuzz budget must be >= 1")
    rng = SplitMix64(seed)
    # Each pool holds runner inputs: a mock axis's holds one-value scripts.
    pools = [
        a.pool if a.kind == "param" else tuple((v,) for v in a.pool)
        for a in build_axes(evaluator, rng, pool_overrides)
    ]

    # phase 0: all defaults, then every pool value alone
    first = tuple([pool[0] for pool in pools])
    solo = [first]
    for d, pool in enumerate(pools):
        head, tail = first[:d], first[d + 1 :]
        solo += [head + (v,) + tail for v in pool[1:]]
    skip = len(solo)  # the product's vectors with at most one nonzero index
    del solo[budget:]
    yield solo

    # phase 1: the pool product in mixed radix, axis 0 fastest, less the
    # vectors of phase 0. `product` turns its last pool fastest, so it runs
    # over the pools reversed and each vector is reversed back. `keep` masks
    # out index 0 and each `j * stride` (one axis's index j alone); its
    # first `cap + skip` indexes hold at least `cap` kept vectors.
    total = math.prod(map(len, pools))
    left = budget - len(solo)
    cap = left if total <= budget else left * 3 // 4
    if cap:
        keep = bytearray(b"\1") * min(total, cap + skip)
        keep[0] = 0
        stride = 1
        for pool in pools:
            end = min(len(pool) * stride, len(keep))
            keep[stride:end:stride] = bytes(len(range(stride, end, stride)))
            stride *= len(pool)
        reverse = itemgetter(slice(None, None, -1))
        yield islice(compress(map(reverse, product(*pools[::-1])), keep), cap)
    if total <= budget:
        return  # complete enumeration, nothing new can follow

    # phase 2: random pool-index vectors, one output of the seed's shared
    # table per axis, reduced modulo the axis's pool size. Each chunk reads
    # what the table holds and one vector more, so the table is drawn no
    # further than the stream is read.
    left -= cap
    k = len(pools)
    while left:
        n = min(left, rng.held() // k + 1)
        draws = rng.take(n * k)
        yield zip(*[
            map(pool.__getitem__, map(mod, draws[d::k], repeat(len(pool))))
            for d, pool in enumerate(pools)
        ])
        left -= n


# --- greedy selection -------------------------------------------------------

class GreedyResult(NamedTuple):
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
        fields = evaluator.fields({})  # fuzzing sets no fields
        dropped = None  # the crash last dropped as seen before
        index = -1
        for index, inputs in enumerate(candidates):
            crash, ret, left, mask = runner(inputs, fields, fuel)
            if not mask & missing:
                # A site's crash is one Event object, so a crash dropped
                # again needs no key.
                if crash is None or crash is dropped:
                    continue
                if crash.key in seen_crashes:
                    dropped = crash
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
