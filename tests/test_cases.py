"""Value pools, candidate ordering, greedy selection, configuration."""

import importlib.util
import itertools
import json
import math
import pathlib

import jsonschema
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gen_programs import floats, gen_method, ints, many_conditions_text, program_text
import ultgen.cases as cases_module
import ultgen.rng as rng_module
from ultgen.cases import (
    DEFAULT_BUDGET,
    FUZZED,
    TestCase,
    build_axes,
    case_from_json,
    case_to_json,
    fuzz_candidates,
    fuzzed_case,
    greedy_select,
    load_case_config,
)
from ultgen.coverage import compute_coverage
from ultgen.cutlang import INT_MAX, INT_MIN, parse_source
from ultgen.errors import ContractViolation, SchemaError, UnknownTarget
from ultgen.interp import CaseEvaluator
from ultgen.rng import SplitMix64
from ultgen.schemas import CASE_SCHEMA

SRC = """
class D {
public:
    int get() { return 0; }
    void hit() {}
};

class A {
public:
    D* d;
    int n;

    int steps(int x, float f, bool go) {
        if (x == 7) {
            return 1;
        }
        if (f > 2.5) {
            return 2;
        }
        if (go) {
            d->hit();
            return d->get();
        }
        return 0;
    }

    int plain(int x) {
        return x;
    }
};
"""


@pytest.fixture(scope="module")
def unit():
    return parse_source(SRC, path="<cases>")


@pytest.fixture(scope="module")
def evaluator(unit):
    return CaseEvaluator(unit, "A", "steps")


def axes_of(evaluator, seed=42, overrides=None):
    return build_axes(evaluator, SplitMix64(seed), overrides)


# --- pools ----------------------------------------------------------------

def test_axis_order_params_then_calls(evaluator):
    axes = axes_of(evaluator)
    assert [(a.kind, a.name) for a in axes] == [
        ("param", "x"),
        ("param", "f"),
        ("param", "go"),
        ("mock", ("d", "get")),
    ]


def test_int_pool_base_then_literals_then_random(evaluator):
    (x_axis,) = [a for a in axes_of(evaluator) if a.name == "x"]
    pool = list(x_axis.pool)
    assert pool[:5] == [0, 1, -1, INT_MIN, INT_MAX]
    assert pool[5:8] == [6, 7, 8]  # around the compared 7
    assert len(pool) == 11  # plus three random draws
    assert len(set(pool)) == len(pool)


def test_float_pool_has_ulp_neighbors(evaluator):
    (f_axis,) = [a for a in axes_of(evaluator) if a.name == "f"]
    pool = list(f_axis.pool)
    assert pool[:5] == [0.0, 1.0, -1.0, math.inf, -math.inf]
    lo = math.nextafter(2.5, -math.inf)
    hi = math.nextafter(2.5, math.inf)
    assert pool[5:8] == [lo, 2.5, hi]


def test_bool_pool_is_complete(evaluator):
    (go_axis,) = [a for a in axes_of(evaluator) if a.name == "go"]
    assert list(go_axis.pool) == [False, True]


def test_void_sites_are_not_axes(evaluator):
    axes = axes_of(evaluator)
    assert ("d", "hit") not in [a.name for a in axes if a.kind == "mock"]


def test_pools_deterministic_per_seed(evaluator):
    a = [tuple(a.pool) for a in axes_of(evaluator, seed=42)]
    b = [tuple(a.pool) for a in axes_of(evaluator, seed=42)]
    c = [tuple(a.pool) for a in axes_of(evaluator, seed=43)]
    assert a == b
    assert a != c


def test_override_replaces_pool_and_skips_rng(evaluator):
    plain = axes_of(evaluator, seed=42)
    overridden = axes_of(evaluator, seed=42, overrides={"x": [5, 6]})
    assert list(overridden[0].pool) == [5, 6]
    # the float axis sees the same draws either way: overridden axes
    # consume nothing from the stream
    assert tuple(overridden[1].pool) != tuple(plain[1].pool)


# --- candidate stream -----------------------------------------------------

def test_first_candidate_is_all_defaults(unit, evaluator):
    first = next(fuzz_candidates(evaluator))
    # x, f, go, then a one-value script for d->get()
    assert first == (0, 0.0, False, (0,))
    case = fuzzed_case(evaluator, first, 42, 0)
    assert case.param_values == {"x": 0, "f": 0.0, "go": False}
    assert case.mock_plan == {("d", "get"): [0]}
    assert case.seed_info == (42, 0)
    assert case.id == "fz-A.steps-0000"
    assert case.origin == "Fuzzed"


def test_solo_phase_varies_one_axis_at_a_time(unit, evaluator):
    axes = axes_of(evaluator)
    stream = fuzz_candidates(evaluator)
    cases = [next(stream) for _ in range(1 + (len(axes[0].pool) - 1))]
    for c in cases[1:]:
        assert c[1] == 0.0  # f
        assert c[2] is False  # go
    assert [c[0] for c in cases[1:]] == list(axes[0].pool[1:])


def test_budget_respected(unit, evaluator):
    cases = list(
        fuzz_candidates(evaluator, budget=50)
    )
    assert len(cases) == 50


def test_small_product_enumerates_exactly_once(unit):
    evaluator = CaseEvaluator(unit, "A", "plain")
    cases = list(
        fuzz_candidates(
            evaluator, budget=DEFAULT_BUDGET, pool_overrides={"x": [0, 1, 2, 3]}
        )
    )
    assert len(cases) == 4
    seen = [x for (x,) in cases]
    assert sorted(seen) == [0, 1, 2, 3]


def test_stream_deterministic(unit, evaluator):
    a = list(fuzz_candidates(evaluator, 64, 9))
    b = list(fuzz_candidates(evaluator, 64, 9))
    assert a == b


def test_bad_budget_rejected(unit, evaluator):
    with pytest.raises(ContractViolation):
        next(fuzz_candidates(evaluator, budget=0))


def _reference_candidates(evaluator, budget, seed, pool_overrides):
    """The stream as first written: every phase-1 vector re-derived from its
    counter by % and //. fuzz_candidates must reproduce it exactly."""
    class_name, method = evaluator.class_name, evaluator.method
    rng = SplitMix64(seed)
    axes = build_axes(evaluator, rng, pool_overrides)
    sizes = [len(a.pool) for a in axes]
    product = 1
    for s in sizes:
        product *= s

    def build(vector, index):
        params = {}
        mocks = {}
        for axis, i in zip(axes, vector):
            if axis.kind == "param":
                params[axis.name] = axis.pool[i]
            else:
                mocks[axis.name] = [axis.pool[i]]
        return TestCase(
            id=f"fz-{class_name}.{method.name}-{index:04d}",
            target=(class_name, method.name),
            param_values=params,
            field_values={},
            mock_plan=mocks,
            origin=FUZZED,
            seed_info=(seed, index),
        )

    # phase 0: all defaults, then every pool index alone
    emitted = 0
    zeros = tuple(0 for _ in axes)
    solo = [zeros]
    for d, size in enumerate(sizes):
        for v in range(1, size):
            solo.append(zeros[:d] + (v,) + zeros[d + 1 :])
    for vec in solo:
        if emitted >= budget:
            return
        yield build(vec, emitted)
        emitted += 1
    # phase 1: the pool product in mixed radix, axis 0 fastest
    remaining = budget - emitted
    phase1_cap = remaining if product <= budget else (remaining * 3) // 4
    counter = 0
    taken = 0
    while counter < product and taken < phase1_cap:
        n = counter
        counter += 1
        vec = []
        for s in sizes:
            vec.append(n % s)
            n //= s
        if sum(1 for i in vec if i) <= 1:
            continue
        yield build(tuple(vec), emitted)
        emitted += 1
        taken += 1
    if emitted >= product:
        return
    # phase 2: a below(n) draw per axis
    while emitted < budget:
        vec = tuple(rng.below(s) for s in sizes)
        yield build(vec, emitted)
        emitted += 1


def _stream_record(cases):
    """Everything a case file shows of a stream, dict order included."""
    return [
        (c.id, c.target, list(c.param_values.items()), c.field_values,
         list(c.mock_plan.items()), c.origin, c.seed_info)
        for c in cases
    ]


# Size-1 pools make the product fit the budget more often and put digits
# that never leave 0 between ones that roll over.
@example(method="steps", budget=300, seed=42, x=[1, 2], f=[0.5], go=[True, False])
@example(method="steps", budget=40, seed=42, x=[1], f=None, go=[True])
@given(
    method=st.sampled_from(["steps", "plain"]),
    budget=st.integers(1, 300),
    seed=st.integers(0, 2**64 - 1),
    x=st.none() | st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    f=st.none() | st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
    go=st.none() | st.lists(st.booleans(), min_size=1, max_size=3),
)
def test_candidate_stream_matches_reference(unit, method, budget, seed, x, f, go):
    evaluator = CaseEvaluator(unit, "A", method)
    overrides = {k: v for k, v in (("x", x), ("f", f), ("go", go)) if v is not None}
    args = (evaluator, budget, seed, overrides)
    got = _stream_record(
        fuzzed_case(evaluator, c, seed, i) for i, c in enumerate(fuzz_candidates(*args))
    )
    assert got == _stream_record(_reference_candidates(*args))


@given(
    seed=st.integers(0, 2**64 - 1),
    other=st.integers(0, 2**64 - 1),
    offset=st.integers(0, 30),
    k=st.integers(1, 8),
)
def test_take_reads_successive_outputs_of_the_seed(seed, other, offset, k):
    """`take(k)` after `offset` draws (the pool draws) gives what `k` calls
    of `next` give and leaves the same state, and reading another seed's
    outputs in between changes nothing a later reader of `seed` gets."""
    def advanced():
        rng = SplitMix64(seed)
        for _ in range(offset):
            rng.next()
        return rng

    reader, plain = advanced(), advanced()
    first = list(reader.take(k))
    assert first == [plain.next() for _ in range(k)]
    assert vars(reader) == vars(plain)
    SplitMix64(other).take(k)
    assert list(advanced().take(k)) == first
    assert list(reader.take(k)) == [plain.next() for _ in range(k)]


def test_random_phase_draws_the_table_no_further_than_it_reads(evaluator):
    """A stream stopped a few candidates into its random phase has drawn the
    seed's outputs for those candidates only, not for the rest of a budget
    of a million."""
    budget, seed, taken = 10**6, 2024, 5
    overrides = {"x": list(range(1000)), "f": [i / 8 for i in range(1000)]}
    sizes = [len(a.pool) for a in axes_of(evaluator, seed, overrides)]
    assert math.prod(sizes) > budget
    pool_draws = 3  # the int mock's random values; x and f are overridden
    solos = 1 + sum(n - 1 for n in sizes)
    head = solos + (budget - solos) * 3 // 4  # the stream before phase 2
    SplitMix64(seed + 1).take(1)  # the table now holds another seed
    stream = fuzz_candidates(evaluator, budget, seed, overrides)
    assert sum(1 for _ in itertools.islice(stream, head + taken)) == head + taken
    assert rng_module._table_seed == seed
    assert len(rng_module._table) <= pool_draws + taken * len(sizes)


@pytest.mark.parametrize("table", [None, 0, 5, 20, 10_000])
@pytest.mark.parametrize("replaced_after", [None, 1, 199, 200, 230])
def test_stream_matches_reference_whatever_the_shared_table_holds(
    evaluator, table, replaced_after
):
    """The random phase reads the shared table in chunks sized by what it
    holds. Before the stream starts the table holds another seed's outputs
    (None) or the first `table` outputs of the stream's seed; after
    `replaced_after` candidates (phase 2 starts at 199) another seed's
    read replaces it."""
    budget, seed = 256, 77
    sizes = [len(a.pool) for a in axes_of(evaluator, seed)]
    solos = 1 + sum(n - 1 for n in sizes)
    assert math.prod(sizes) > budget
    assert solos + (budget - solos) * 3 // 4 == 199
    if table is None:
        SplitMix64(seed + 1).take(1)
    else:
        SplitMix64(seed).take(table)
    stream = fuzz_candidates(evaluator, budget, seed)
    head = list(itertools.islice(stream, replaced_after or 0))
    if replaced_after is not None:
        SplitMix64(seed + 1).take(3)
    got = _stream_record(
        fuzzed_case(evaluator, c, seed, i) for i, c in enumerate(head + list(stream))
    )
    assert got == _stream_record(_reference_candidates(evaluator, budget, seed, None))


NO_INPUTS_SRC = """
class B {
public:
    int one() { return 1; }
};
"""


# Phase 0 of `steps` holds 8 vectors with x, f and go pinned to one value
# each (the mock's 8-value pool varies alone), and 9 with x given two; the
# products are 8 and 16.
@pytest.mark.parametrize("budget", [1, 7, 8, 9, 12, 16, 17, 40])
@pytest.mark.parametrize("x", [[1], [1, 2]])
def test_stream_matches_reference_with_size_one_pools(unit, budget, x):
    evaluator = CaseEvaluator(unit, "A", "steps")
    args = (evaluator, budget, 42, {"x": x, "f": [0.5], "go": [True]})
    got = _stream_record(
        fuzzed_case(evaluator, c, 42, i) for i, c in enumerate(fuzz_candidates(*args))
    )
    assert got == _stream_record(_reference_candidates(*args))


@pytest.mark.parametrize("budget", [1, 2, 256])
def test_stream_of_a_method_without_inputs_is_one_empty_vector(budget):
    evaluator = CaseEvaluator(parse_source(NO_INPUTS_SRC, path="<b>"), "B", "one")
    got = list(fuzz_candidates(evaluator, budget, 42))
    assert got == [()]
    assert _stream_record(fuzzed_case(evaluator, c, 42, i) for i, c in enumerate(got)) == (
        _stream_record(_reference_candidates(evaluator, budget, 42, None))
    )


def test_stream_builds_and_draws_nothing_before_it_is_read(evaluator, monkeypatch):
    built = []

    def recording_build_axes(*args):
        built.append(args)
        return build_axes(*args)

    monkeypatch.setattr(cases_module, "build_axes", recording_build_axes)
    SplitMix64(5).take(3)  # the table holds another seed's outputs
    stream = fuzz_candidates(evaluator, 10**6, 42)
    assert built == []
    assert (rng_module._table_seed, len(rng_module._table)) == (5, 3)
    next(stream)
    assert len(built) == 1


_JSON_FLOATS = st.one_of(
    floats, st.integers(-5, 5), st.sampled_from(["Infinity", "-Infinity", "NaN"])
)


@given(
    method=gen_method(),
    pools=st.fixed_dictionaries(
        {},
        optional={
            "a": st.lists(ints, min_size=1, max_size=4),
            "p": st.lists(st.booleans(), min_size=1, max_size=2),
            "x": st.lists(_JSON_FLOATS, min_size=1, max_size=4),
        },
    ),
    budget=st.integers(1, 300),
    seed=st.integers(0, 2**64 - 1),
)
def test_every_fuzz_candidate_passes_check(method, pools, budget, seed):
    """Candidates run unchecked, because the pools they come from hold only
    values of their inputs' types, derived or configured."""
    unit = parse_source(program_text(method), path="<gen>")
    config = {"classes": {"G": {"methods": {"m": {"pools": pools}}}}}
    overrides = load_case_config(json.dumps(config), unit)[("G", "m")].pools
    evaluator = CaseEvaluator(unit, "G", "m")
    for i, candidate in enumerate(fuzz_candidates(evaluator, budget, seed, overrides)):
        evaluator.check(fuzzed_case(evaluator, candidate, seed, i))


def test_build_axes_checks_pool_values(evaluator):
    with pytest.raises(ContractViolation) as raised:
        axes_of(evaluator, overrides={"x": [1, 2.5]})
    assert str(raised.value) == "pool value of parameter 'x' must be int, got 2.5"


# --- greedy selection -----------------------------------------------------

def test_greedy_keeps_only_novel_candidates(unit, evaluator):
    result = greedy_select(
        fuzz_candidates(evaluator),
        evaluator,
    )
    assert result.kept
    assert len(result.kept) < result.candidates_run
    # every kept case after the first contributed a new pair or crash
    seen = set()
    for trace in result.traces:
        new_pairs = set(trace.outcomes) - seen
        assert new_pairs or trace.crash is not None
        seen |= set(trace.outcomes)


def test_greedy_stops_at_full_coverage(unit):
    evaluator = CaseEvaluator(unit, "A", "plain")
    # no decisions: nothing to chase, nothing kept
    result = greedy_select(
        fuzz_candidates(evaluator),
        evaluator,
    )
    assert result.kept == ()
    assert result.coverage.percent == 100.0


def test_greedy_preseed_suppresses_duplicates(unit, evaluator):
    first = greedy_select(
        fuzz_candidates(evaluator),
        evaluator,
    )
    again = greedy_select(
        fuzz_candidates(evaluator),
        evaluator,
        preseed=first.traces,
    )
    assert again.kept == ()


def test_greedy_without_decisions_runs_nothing(unit):
    # nothing to chase means the stream is never consumed
    evaluator = CaseEvaluator(unit, "A", "plain")
    result = greedy_select(
        fuzz_candidates(evaluator),
        evaluator,
    )
    assert result.candidates_run == 0


HALF_SRC = """
class A {
public:
    int half(int y) {
        if (y > 100) {
            return 0;
        }
        return 10 / y;
    }
};
"""


def test_greedy_crash_kinds_dedupe_by_site():
    u = parse_source(HALF_SRC, path="<crash>")
    evaluator = CaseEvaluator(u, "A", "half")
    # the override forces a second division-by-zero candidate
    result = greedy_select(
        fuzz_candidates(evaluator, pool_overrides={"y": [0, 1, 0]}),
        evaluator,
    )
    assert result.candidates_run == 3
    crashes = [t for t in result.traces if t.crash]
    assert len(crashes) == 1  # only the first DivByZero at that site is kept


def test_greedy_pins_kept_invalid_and_traces():
    u = parse_source(HALF_SRC, path="<greedy>")
    evaluator = CaseEvaluator(u, "A", "half")

    stream = [
        (5,),  # D1 false, returns: new pairs
        (6,),  # the same pairs again
        (0,),  # the same pairs, but a new DivByZero
        (0,),  # that crash again
        (200,),  # D1 true: full coverage, so selection stops
        (7,),
    ]
    result = greedy_select(iter(stream), evaluator, seed=3)
    assert [c.id for c in result.kept] == ["fz-A.half-0000", "fz-A.half-0002", "fz-A.half-0004"]
    assert result.kept[1] == fuzzed_case(evaluator, stream[2], 3, 2)
    assert result.candidates_run == 5
    assert result.traces == tuple(evaluator.run(c) for c in result.kept)
    assert [t.terminal for t in result.traces] == ["Normal", "Crashed", "Normal"]
    assert result.coverage.percent == 100.0


def _reference_select(candidates, evaluator, preseed):
    """Greedy selection as first written: every candidate is a TestCase
    and runs through `evaluator.run`, then the keep rule. greedy_select
    must reproduce it exactly."""
    covered = set()
    seen_crashes = set()
    for t in preseed:
        covered |= t.outcomes
        if t.crash is not None:
            seen_crashes.add(t.crash.key)
    kept, traces, ran = [], [], 0
    if not covered >= evaluator.pairs:
        for case in candidates:
            ran += 1
            trace = evaluator.run(case)
            new_crash = trace.crash is not None and trace.crash.key not in seen_crashes
            if not new_crash and trace.outcomes <= covered:
                continue
            kept.append(case)
            traces.append(trace)
            covered |= trace.outcomes
            if new_crash:
                seen_crashes.add(trace.crash.key)
            if covered >= evaluator.pairs:
                break
    return kept, traces, ran, compute_coverage(list(preseed) + traces, evaluator)


def _trace_record(trace):
    # repr, so that a NaN return value equals itself
    return trace.outcomes, trace.crash, trace.steps, repr(trace.return_value)


def _assert_selects_as_reference(make_evaluator, budget, seed, preseed_n):
    """greedy_select over a fresh evaluator's fuzz candidates equals the
    reference fold over the reference stream (`_reference_candidates`) on
    another evaluator. It never calls `run` and builds a TestCase only for a
    kept candidate, and the runner is compiled only if some candidate ran.
    The preseed is the traces of `preseed_n` candidates of another seed."""
    reference = make_evaluator()
    other_stream = _reference_candidates(reference, budget, seed + 1, None)
    preseed = tuple(reference.run(c) for c in itertools.islice(other_stream, preseed_n))
    built = []

    def recording_fuzzed_case(evaluator, inputs, seed, index):
        built.append(index)
        return fuzzed_case(evaluator, inputs, seed, index)

    evaluator = make_evaluator()
    evaluator.run = None
    cases_module.fuzzed_case = recording_fuzzed_case
    try:
        result = greedy_select(fuzz_candidates(evaluator, budget, seed), evaluator, preseed, seed)
    finally:
        cases_module.fuzzed_case = fuzzed_case
    assert built == [c.seed_info[1] for c in result.kept]
    assert ("runner" in vars(evaluator)) == (result.candidates_run > 0)
    if not evaluator.pairs:
        assert "runner" not in vars(evaluator)
    kept, traces, ran, coverage = _reference_select(
        _reference_candidates(reference, budget, seed, None), reference, preseed
    )
    assert [case_to_json(c) for c in result.kept] == [case_to_json(c) for c in kept]
    assert [_trace_record(t) for t in result.traces] == [_trace_record(t) for t in traces]
    assert result.candidates_run == ran
    assert result.coverage == coverage
    return result


@given(
    method=gen_method(),
    fuel=st.one_of(st.integers(1, 20), st.just(300)),
    budget=st.integers(1, 300),
    seed=st.integers(0, 2**64 - 2),
    preseed_n=st.integers(0, 3),
)
def test_greedy_select_matches_reference_on_generated_methods(
    method, fuel, budget, seed, preseed_n
):
    unit = parse_source(program_text(method), path="<gen>")
    _assert_selects_as_reference(
        lambda: CaseEvaluator(unit, "G", "m", fuel=fuel), budget, seed, preseed_n
    )


def test_greedy_select_matches_reference_on_every_corpus_method(corpus_unit):
    methods = [(cls.name, m.name) for cls in corpus_unit.classes for m in cls.methods]
    assert any(
        not CaseEvaluator(corpus_unit, *target).pairs for target in methods
    )  # a decision-free method is among them
    for n, target in enumerate(methods):
        _assert_selects_as_reference(
            lambda: CaseEvaluator(corpus_unit, *target), DEFAULT_BUDGET, 21, n % 3
        )


def test_kept_case_records_its_stream_seed_and_index(evaluator):
    """Each kept case is the reference stream's case at its index: same
    id, inputs and `seed_info` of (stream seed, index)."""
    seed = 7
    result = greedy_select(fuzz_candidates(evaluator, 256, seed), evaluator, seed=seed)
    stream = list(_reference_candidates(evaluator, 256, seed, None))
    assert len(result.kept) > 1
    for case in result.kept:
        assert case.seed_info[0] == seed
        assert case == stream[case.seed_info[1]]


@pytest.mark.parametrize("seed", [0, 21])
def test_greedy_select_matches_reference_beyond_64_pairs(seed):
    """Masks of more than 64 bits: 50 conditions, 134 pairs, some set
    once per run inside a loop."""
    unit = parse_source(many_conditions_text(seed), path="<many>")
    bits = CaseEvaluator(unit, "G", "m").pairs_by_bit
    for preseed_n in (0, 2):
        result = _assert_selects_as_reference(
            lambda: CaseEvaluator(unit, "G", "m"), DEFAULT_BUDGET, seed, preseed_n
        )
        kept_bits = {bits.index(p) for t in result.traces for p in t.outcomes}
        assert max(kept_bits) >= 64


def _perfbench_gen():
    """perfbench/gen.py, the benchmark's workload generator, imported as it is."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "workload, classes",
    [("fuzz-wide", ["Wide0", "Wide1", "Wide2"]), ("fuzz-deep", ["Pump0", "Pump1"])],
)
def test_greedy_select_matches_reference_on_benchmark_shapes(tmp_path, workload, classes):
    """The benchmark's own method shapes, at its budget: one-value mock
    scripts, pairs no candidate reaches and pairs set once per run inside
    loops."""
    paths = _perfbench_gen().generate(workload, 21, tmp_path)
    texts = [p.read_text() for p in sorted(paths["src"].rglob("*.cut"))]
    unit = parse_source("\n".join(texts), path=workload)
    for class_name in classes:
        for method in unit.class_named(class_name).methods:
            _assert_selects_as_reference(
                lambda: CaseEvaluator(unit, class_name, method.name), DEFAULT_BUDGET, 21, 0
            )


# --- serialization --------------------------------------------------------

def test_case_json_round_trip():
    case = TestCase(
        id="k1",
        target=("A", "steps"),
        param_values={"x": 7, "f": math.inf, "go": True},
        field_values={"n": -2},
        mock_plan={("d", "get"): [1, 2, 2]},
        origin="Fuzzed",
        seed_info=(42, 17),
    )
    data = case_to_json(case)
    jsonschema.validate(json.loads(json.dumps(data)), CASE_SCHEMA)
    back = case_from_json(data)
    assert back == case


def test_case_json_nan_marker():
    case = TestCase(
        id="k2",
        target=("A", "steps"),
        param_values={"x": 0, "f": math.nan, "go": False},
        field_values={},
        mock_plan={},
        origin="Configured",
    )
    data = case_to_json(case)
    assert data["params"]["f"] == "NaN"
    back = case_from_json(data)
    assert math.isnan(back.param_values["f"])


# --- config ---------------------------------------------------------------

def good_config():
    return {
        "classes": {
            "A": {
                "methods": {
                    "steps": {
                        "cases": {
                            "lucky": {
                                "params": {"x": 7},
                                "fields": {"n": 3},
                                "mocks": {"d.get": [9]},
                            }
                        },
                        "pools": {"x": [7, 8]},
                    }
                }
            }
        }
    }


def read(cfg, unit):
    return load_case_config(json.dumps(cfg), unit)


def test_config_reads_cases_and_pools(unit):
    config = read(good_config(), unit)
    assert list(config) == [("A", "steps")]
    (cc,) = config[("A", "steps")].cases
    assert (cc.id, cc.target) == ("cfg-A.steps-lucky", ("A", "steps"))
    assert cc.param_values["x"] == 7
    assert cc.field_values == {"n": 3}
    assert cc.mock_plan == {("d", "get"): [9]}
    assert config[("A", "steps")].pools == {"x": [7, 8]}


def test_configured_cases_fill_defaults_with_diagnostics(unit):
    config = read(good_config(), unit)
    (case,) = config[("A", "steps")].cases
    assert case.origin == "Configured"
    assert case.id == "cfg-A.steps-lucky"
    assert case.param_values == {"x": 7, "f": 0.0, "go": False}
    assert case.mock_plan == {("d", "get"): [9]}
    assert case.diagnostics == ("DefaultFilled: param f", "DefaultFilled: param go")


def test_config_not_json(unit):
    with pytest.raises(SchemaError):
        load_case_config("{nope", unit)


def test_config_unknown_class(unit):
    with pytest.raises(UnknownTarget):
        read({"classes": {"Zed": {"methods": {}}}}, unit)


def test_config_unknown_method(unit):
    with pytest.raises(UnknownTarget):
        read({"classes": {"A": {"methods": {"zap": {}}}}}, unit)


def test_config_unknown_param(unit):
    cfg = good_config()
    cfg["classes"]["A"]["methods"]["steps"]["cases"]["lucky"]["params"] = {"zz": 1}
    with pytest.raises(ContractViolation) as raised:
        read(cfg, unit)
    assert str(raised.value) == "<string>: A.steps.lucky: unknown parameters: ['zz']"


def test_config_int_range_checked(unit):
    cfg = good_config()
    cfg["classes"]["A"]["methods"]["steps"]["cases"]["lucky"]["params"] = {
        "x": INT_MAX + 1
    }
    with pytest.raises(ContractViolation) as raised:
        read(cfg, unit)
    assert str(raised.value) == (
        f"<string>: A.steps.lucky: parameter 'x' must be int, got {INT_MAX + 1}"
    )


def test_config_bool_not_coerced_to_int(unit):
    cfg = good_config()
    cfg["classes"]["A"]["methods"]["steps"]["cases"]["lucky"]["params"] = {"x": True}
    with pytest.raises(ContractViolation) as raised:
        read(cfg, unit)
    assert str(raised.value) == "<string>: A.steps.lucky: parameter 'x' must be int, got True"


def test_config_float_accepts_int_and_markers(unit):
    cfg = good_config()
    cfg["classes"]["A"]["methods"]["steps"]["cases"]["lucky"]["params"] = {"f": 3}
    assert read(cfg, unit)[("A", "steps")].cases[0].param_values["f"] == 3.0
    cfg["classes"]["A"]["methods"]["steps"]["cases"]["lucky"]["params"] = {
        "f": "-Infinity"
    }
    assert read(cfg, unit)[("A", "steps")].cases[0].param_values["f"] == -math.inf


def test_config_mock_on_void_site_rejected(unit):
    cfg = good_config()
    cfg["classes"]["A"]["methods"]["steps"]["cases"]["lucky"]["mocks"] = {
        "d.hit": [1]
    }
    # void sites are not mockable; the case's dotted path is reported
    with pytest.raises(ContractViolation) as raised:
        read(cfg, unit)
    assert str(raised.value) == "<string>: A.steps.lucky: call d->hit() returns void"


def test_config_unknown_key_rejected(unit):
    cfg = good_config()
    cfg["classes"]["A"]["methods"]["steps"]["budget"] = 9
    with pytest.raises(SchemaError):
        read(cfg, unit)
