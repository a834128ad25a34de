"""Runtime semantics, checked directly and against the independent oracle."""

import math

import pytest
from hypothesis import given, strategies as st

from gen_programs import gen_program, value_for
from oracle_eval import OracleEvaluator, scalars_equal, trunc_div, wrap64
from ultgen.cases import TestCase
from ultgen.cutlang import INT_MAX, INT_MIN, parse_source
from ultgen.errors import ContractViolation, UnknownClass, UnknownTarget
from ultgen import interp
from ultgen.interp import HOT_STEPS, CaseEvaluator, _Emitter


SRC = """
class Dep {
public:
    int get() { return 0; }
    float temp() { return 0.0; }
    bool ok() { return true; }
    void nudge() {}
};

class Base {
public:
    int inherited;
};

class M : public Base {
public:
    Dep* d;
    int acc;
    bool armed;
    float level;

    int arith(int a, int b) {
        return a * b + a - b;
    }

    int divide(int a, int b) {
        return a / b;
    }

    float fdivide(float a, float b) {
        return a / b;
    }

    int branching(int x, bool go) {
        if (x > 0 && go) {
            acc = acc + 1;
            return acc;
        }
        if (!go || x < -5) {
            return -1;
        }
        return 0;
    }

    int looping(int n) {
        while (n > 0) {
            n = n / 2;
            acc = acc + 1;
        }
        return acc;
    }

    int spin() {
        while (d->ok()) {
            acc = acc + 1;
        }
        return acc;
    }

    int guarded(int x) {
        assert(x >= 0);
        return x + inherited;
    }

    int scripted() {
        return d->get() + d->get() + d->get();
    }

    void poke() {
        d->nudge();
        acc = acc + 1;
    }
};
"""


@pytest.fixture(scope="module")
def unit():
    return parse_source(SRC, path="<interp>")


def ev(unit, method, fuel=10000):
    return CaseEvaluator(unit, "M", method, fuel=fuel)


def promoted(unit, class_name, method, fuel=10000):
    """An evaluator that runs every case, the first included, through the
    generated function."""
    evaluator = CaseEvaluator(unit, class_name, method, fuel=fuel)
    evaluator._compile()
    evaluator._promote()
    assert evaluator._runner.__code__.co_filename == "<ultgen generated>"
    return evaluator


def case(method, params=None, fields=None, mocks=None, cid="c"):
    return TestCase(
        id=cid,
        target=("M", method),
        param_values=params or {},
        field_values=fields or {},
        mock_plan=mocks or {},
        origin="Configured",
    )


# --- integer semantics ----------------------------------------------------

def ev_result(unit, method, **kw):
    return ev(unit, method).run(case(method, **kw))


def test_int_overflow_wraps(unit):
    t = ev_result(unit, "arith", params={"a": INT_MAX, "b": 2})
    assert t.terminal == "Normal"
    assert t.return_value == wrap64(INT_MAX * 2 + INT_MAX - 2)


def test_truncating_division(unit):
    t = ev_result(unit, "divide", params={"a": -7, "b": 2})
    assert t.return_value == -3  # C semantics, not Python floor


def test_int_min_by_minus_one_wraps(unit):
    t = ev_result(unit, "divide", params={"a": INT_MIN, "b": -1})
    assert t.return_value == INT_MIN


def test_div_by_zero_crashes(unit):
    t = ev_result(unit, "divide", params={"a": 1, "b": 0})
    assert t.terminal == "Crashed"
    assert t.crash.kind == "DivByZero"
    assert t.return_value is None
    assert not t.passed


def test_trunc_div_helper_agrees_with_reference():
    for a in (-9, -7, -1, 0, 1, 7, 9, INT_MIN, INT_MAX):
        for b in (-3, -2, -1, 1, 2, 3):
            q = trunc_div(a, b)
            expected = wrap64(int(abs(a) // abs(b)) * (1 if (a < 0) == (b < 0) else -1))
            assert q == expected, (a, b)


# --- float semantics ------------------------------------------------------

def test_float_div_by_zero_gives_inf(unit):
    t = ev_result(unit, "fdivide", params={"a": 1.0, "b": 0.0})
    assert t.return_value == math.inf
    t = ev_result(unit, "fdivide", params={"a": -1.0, "b": 0.0})
    assert t.return_value == -math.inf


def test_float_zero_over_zero_is_nan(unit):
    t = ev_result(unit, "fdivide", params={"a": 0.0, "b": 0.0})
    assert math.isnan(t.return_value)


def test_float_sign_of_zero_divisor(unit):
    t = ev_result(unit, "fdivide", params={"a": 1.0, "b": -0.0})
    assert t.return_value == -math.inf


# --- decisions and short-circuit ------------------------------------------

def test_outcomes_record_decision_and_conditions(unit):
    t = ev_result(unit, "branching", params={"x": 1, "go": True})
    assert ("M.branching:D1", True) in t.outcomes
    assert ("M.branching:D1.c1", True) in t.outcomes
    assert ("M.branching:D1.c2", True) in t.outcomes


def test_short_circuit_skips_right_condition(unit):
    t = ev_result(unit, "branching", params={"x": 0, "go": True})
    # c1 false, so c2 must not be recorded for D1
    assert ("M.branching:D1.c1", False) in t.outcomes
    assert not any(pair[0] == "M.branching:D1.c2" for pair in t.outcomes)


def test_or_short_circuit(unit):
    t = ev_result(unit, "branching", params={"x": 0, "go": False})
    # !go true short-circuits the || in D2
    assert ("M.branching:D2.c1", False) in t.outcomes
    assert not any(pair[0] == "M.branching:D2.c2" for pair in t.outcomes)


def test_assert_records_outcome_then_crashes(unit):
    t = ev_result(unit, "guarded", params={"x": -1})
    assert t.terminal == "Crashed"
    assert t.crash.kind == "AssertFailure"
    assert ("M.guarded:D1", False) in t.outcomes


# --- mocks ----------------------------------------------------------------

def test_script_last_value_repeats(unit):
    t = ev_result(unit, "scripted", mocks={("d", "get"): [5, 7]})
    assert t.return_value == 5 + 7 + 7


def test_unmocked_value_call_crashes(unit):
    t = ev_result(unit, "scripted")
    assert t.crash.kind == "UnmockedCall"


def test_void_call_needs_no_script(unit):
    t = ev_result(unit, "poke")
    assert t.terminal == "Normal"


def test_script_on_void_site_rejected(unit):
    with pytest.raises(ContractViolation):
        ev(unit, "poke").check(case("poke", mocks={("d", "nudge"): [1]}))


def test_empty_script_rejected(unit):
    with pytest.raises(ContractViolation):
        ev(unit, "scripted").check(case("scripted", mocks={("d", "get"): []}))


@pytest.mark.parametrize(
    "method, key, script, message",
    [
        # a key's checks run in order: reference field, void call site,
        # empty script, scriptable method, value type
        ("poke", ("acc", "get"), [], "mock key ('acc', 'get') names no reference field"),
        ("poke", ("d", "nudge"), [], "call d->nudge() returns void"),
        ("poke", ("d", "zap"), [], "empty mock script for ('d', 'zap')"),
        ("poke", ("d", "zap"), [1], "no scriptable method for mock key ('d', 'zap')"),
        ("scripted", ("d", "nudge"), [1], "no scriptable method for mock key ('d', 'nudge')"),
        ("scripted", ("d", "get"), [], "empty mock script for ('d', 'get')"),
        ("poke", ("d", "temp"), [1], "mock d->temp() must be float, got 1"),
    ],
)
def test_mock_key_messages(unit, method, key, script, message):
    with pytest.raises(ContractViolation) as raised:
        ev(unit, method).check(case(method, mocks={key: script}))
    assert str(raised.value) == message


def test_mock_type_names_scripted_return_types(unit):
    evaluator = ev(unit, "poke")
    assert evaluator.mock_types == {}  # nudge is void
    assert evaluator.mock_type(("d", "temp")) == "float"
    assert ev(unit, "spin").mock_types == {("d", "ok"): "bool"}
    with pytest.raises(ContractViolation):
        evaluator.mock_type(("d", "nudge"))


# --- fields and defaults --------------------------------------------------

def test_scalar_fields_default_to_zero_values(unit):
    t = ev_result(unit, "looping", params={"n": 0})
    assert t.return_value == 0  # acc started at 0


def test_field_overrides_apply(unit):
    t = ev_result(unit, "looping", params={"n": 1}, fields={"acc": 10})
    assert t.return_value == 11


def test_inherited_field_usable(unit):
    t = ev_result(unit, "guarded", params={"x": 2}, fields={"inherited": 40})
    assert t.return_value == 42


def test_unknown_field_rejected(unit):
    with pytest.raises(ContractViolation):
        ev(unit, "looping").check(case("looping", params={"n": 1}, fields={"zzz": 1}))


def test_unknown_param_rejected(unit):
    with pytest.raises(ContractViolation):
        ev(unit, "looping").check(case("looping", params={"n": 1, "extra": 2}))


# --- fuel -----------------------------------------------------------------

def test_infinite_loop_exhausts_fuel(unit):
    t = ev_result(unit, "spin", mocks={("d", "ok"): [True]})
    assert t.crash.kind == "FuelExhausted"
    assert t.steps == 10000


def test_steps_count_statements_and_loop_checks(unit):
    # looping with n=1: while stmt, check(n=1 true), two body stmts,
    # check(n=0 false), return. 1 + 2 + 2 + 1 = 6 charges.
    t = ev_result(unit, "looping", params={"n": 1})
    assert t.steps == 6


def test_fuel_floor_validated(unit):
    with pytest.raises(ContractViolation):
        CaseEvaluator(parse_source(SRC, path="<t>"), "M", "arith", fuel=0)


# --- target resolution ----------------------------------------------------

def test_unknown_class(unit):
    with pytest.raises(UnknownClass):
        CaseEvaluator(unit, "Nope", "arith")


def test_unknown_method(unit):
    with pytest.raises(UnknownTarget):
        CaseEvaluator(unit, "M", "nope")


def test_fingerprint_stable_across_reparse(unit):
    a = ev(unit, "branching").fingerprint
    b = CaseEvaluator(parse_source(SRC, path="<x>"), "M", "branching").fingerprint
    assert a == b


# --- differential checks against the oracle -------------------------------

METHODS = [
    "arith", "divide", "fdivide", "branching", "looping",
    "spin", "guarded", "scripted", "poke",
]


def agree(trace, result):
    return (
        trace.outcomes == result.outcomes
        and trace.terminal == result.terminal
        and (trace.crash.kind if trace.crash else None) == result.crash_kind
        and scalars_equal(trace.return_value, result.return_value)
        and trace.steps == result.steps
    )


@st.composite
def _method_and_case(draw):
    unit = parse_source(SRC, path="<interp>")
    name = draw(st.sampled_from(METHODS))
    evaluator = CaseEvaluator(unit, "M", name)
    params = {
        p.name: value_for(p.type, draw) for p in evaluator.method.params
    }
    mocks = {}
    for key, ret in evaluator.mock_types.items():
        if draw(st.booleans()):
            continue  # leave unmocked sometimes
        n = draw(st.integers(min_value=1, max_value=3))
        mocks[key] = [value_for(ret, draw) for _ in range(n)]
    fields = {}
    for fname, ftype in evaluator.field_types.items():
        if draw(st.booleans()):
            fields[fname] = value_for(ftype, draw)
    return unit, name, case(name, params=params, fields=fields, mocks=mocks)


@given(_method_and_case())
def test_evaluator_matches_oracle(packed):
    unit, name, c = packed
    result = OracleEvaluator(unit, "M", name).run(c)
    assert agree(CaseEvaluator(unit, "M", name).run(c), result), (name, c)
    assert agree(promoted(unit, "M", name).run(c), result), (name, c)


@given(st.integers(min_value=1, max_value=40))
def test_fuel_boundary_matches_oracle(fuel):
    unit = parse_source(SRC, path="<interp>")
    c = case("looping", params={"n": 9})
    trace = CaseEvaluator(unit, "M", "looping", fuel=fuel).run(c)
    result = OracleEvaluator(unit, "M", "looping", fuel=fuel).run(c)
    assert agree(trace, result), fuel


# --- differential net on generated programs -------------------------------
#
# gen_programs.py draws random well-typed methods with loops, scripted and
# void calls, floats and int64 extremes, and cases for them.


@given(gen_program())
def test_generated_programs_match_oracle(packed):
    text, fuel, cases = packed
    unit = parse_source(text, path="<gen>")
    evaluator = CaseEvaluator(unit, "G", "m", fuel=fuel)
    hot = promoted(unit, "G", "m", fuel=fuel)
    oracle = OracleEvaluator(unit, "G", "m", fuel=fuel)
    for c in cases:
        result = oracle.run(c)
        assert agree(evaluator.run(c), result), (text, c)
        assert agree(hot.run(c), result), (text, c)


@given(gen_program(), st.integers(min_value=1, max_value=40))
def test_recorded_pairs_are_in_the_decision_table(packed, cold_left):
    """Every pair a trace records is one of the method's outcome pairs: on
    the cold tier, on the generated tier, and for a case that reaches
    HOT_STEPS midway and runs again after promotion."""
    text, fuel, cases = packed
    unit = parse_source(text, path="<gen>")
    crossing = CaseEvaluator(unit, "G", "m", fuel=fuel)
    crossing._cold_left = cold_left  # as if HOT_STEPS - cold_left steps ran cold
    evaluators = [
        CaseEvaluator(unit, "G", "m", fuel=fuel),
        promoted(unit, "G", "m", fuel=fuel),
        crossing,
    ]
    for c in cases:
        for evaluator in evaluators:
            assert evaluator.run(c).outcomes <= evaluator.pairs, (text, c)


# --- promotion to the generated tier --------------------------------------

TIER_SRC = """
class Dep {
public:
    int get() { return 0; }
    bool more() { return true; }
    void note() {}
};

class H {
public:
    Dep* d;
    int acc;

    float step(int n, int k, float x, float y, bool early) {
        d->note();
        if (early) {
            return x / y;
        }
        while (n > 0 && d->more()) {
            if (acc / k > 3 || acc == 2) {
                acc = 0;
            }
            n = n - 1;
            acc = acc + d->get();
        }
        return x / y;
    }
};
"""

_TIER_SCENARIOS = [
    # (params, mocks): a normal run, fuel running out inside the loop, a
    # DivByZero inside the if condition, an unmocked call in the while
    # condition, and an early return of a float divided by -0.0
    ({"n": 3, "k": 1}, {("d", "more"): [True], ("d", "get"): [1, 2]}),
    ({"n": 1000, "k": 1}, {("d", "more"): [True], ("d", "get"): [0]}),
    ({"n": 5, "k": 0}, {("d", "more"): [True], ("d", "get"): [1]}),
    ({"n": 2, "k": 2}, {("d", "get"): [1]}),
    ({"n": 4, "k": 1, "early": True, "y": -0.0}, {}),
]


def _tier_case(i, params, mocks):
    full = {"n": 0, "k": 1, "x": 1.0 + i, "y": 2.0, "early": False}
    full.update(params)
    return TestCase(
        id=f"t{i}", target=("H", "step"), param_values=full,
        field_values={"acc": i % 5}, mock_plan=mocks, origin="Configured",
    )


def test_promotion_keeps_every_trace():
    """One stream crosses HOT_STEPS midway through a case, which then runs
    again on the generated tier. Every case, before and after the switch,
    traces the same as on a fresh evaluator that never switched."""
    unit = parse_source(TIER_SRC, path="<tier>")
    fuel = 200
    evaluator = CaseEvaluator(unit, "H", "step", fuel=fuel)
    cases = [
        _tier_case(i, *_TIER_SCENARIOS[i % len(_TIER_SCENARIOS)]) for i in range(150)
    ]
    promoted_at = None
    cold_steps = 0
    hot_traces = []
    for i, c in enumerate(cases):
        trace = evaluator.run(c)
        fresh = CaseEvaluator(unit, "H", "step", fuel=fuel)
        cold = fresh.run(c)
        assert fresh._cold_left is not None  # one case never promotes
        assert (trace.outcomes, trace.crash, trace.steps) == (
            cold.outcomes, cold.crash, cold.steps,
        ), c
        assert scalars_equal(trace.return_value, cold.return_value), c
        if promoted_at is not None:
            hot_traces.append(trace)
        elif evaluator._cold_left is None:
            promoted_at = i
            assert cold_steps < HOT_STEPS < cold_steps + trace.steps
        else:
            cold_steps += trace.steps
    assert promoted_at is not None and promoted_at < 100
    assert {t.crash.kind for t in hot_traces if t.crash} == {
        "FuelExhausted", "DivByZero", "UnmockedCall",
    }
    assert -math.inf in {t.return_value for t in hot_traces}
    assert any(t.crash is None and t.return_value > 0 for t in hot_traces)


def test_generated_source_holds_no_input_text():
    """Methods that differ only in names and literals share one source."""
    text = """
    class Dep { public: int fetch() { return 0; } int pull() { return 0; } };
    class P {
    public:
        Dep* dep;
        int total;
        int first(int a, bool b) {
            while (a > 3 && b) { a = a - 1; total = total + dep->fetch(); }
            assert(total != 12345);
            return total / a;
        }
    };
    class Q {
    public:
        Dep* other;
        int sum;
        float unused;
        int second(int x, bool y) {
            while (x > 700 && y) { x = x - 2; sum = sum + other->pull(); }
            assert(sum != -4);
            return sum / x;
        }
    };
    """
    unit = parse_source(text, path="<same>")
    generated = []
    for class_name, method in (("P", "first"), ("Q", "second")):
        e = CaseEvaluator(unit, class_name, method)
        e._compile()
        emitter = _Emitter(e.decisions, e._site_types, e._field_defaults)
        generated.append(emitter.generate(e.method.body))
    (source_p, consts_p), (source_q, consts_q) = generated
    assert source_p == source_q
    assert consts_p != consts_q
    for word in ("dep", "total", "first", "fetch", "Dep", "12345", "P.first"):
        assert word not in source_p


def test_method_too_nested_to_generate_stays_cold():
    depth = 25  # CPython compiles at most 20 nested blocks
    body = "".join(f"while (n > {i}) {{ n = n - 1; " for i in range(depth))
    text = f"class A {{ public: int f(int n) {{ {body}{'}' * depth} return n; }} }};"
    unit = parse_source(text, path="<deep>")
    evaluator = CaseEvaluator(unit, "A", "f")
    c = TestCase(id="d", target=("A", "f"), param_values={"n": 40},
                 field_values={}, mock_plan={}, origin="Configured")
    first = evaluator.run(c)
    while evaluator._cold_left is not None:
        assert evaluator.run(c) == first
    assert evaluator.run(c) == first
    assert first.return_value == 0


def test_generated_tier_adds_each_pair_once_per_run(monkeypatch):
    """A loop records the same pairs on every pass, but the generated tier
    adds each to the run's outcome set once."""
    added = []

    class CountingSet(set):
        def add(self, pair):
            added.append(pair)
            super().add(pair)

    monkeypatch.setattr(interp, "set", CountingSet, raising=False)
    unit = parse_source(TIER_SRC, path="<tier>")
    evaluator = promoted(unit, "H", "step")
    c = _tier_case(0, {"n": 40, "k": 1}, {("d", "more"): [True], ("d", "get"): [0, 1, 2]})
    trace = evaluator.run(c)
    assert trace.steps > 4 * 40  # 40 passes through the loop
    assert sorted(added) == sorted(trace.outcomes)
    assert len(trace.outcomes) == 13  # all but D1:T and d->more() false
    fresh = CaseEvaluator(unit, "H", "step")
    monkeypatch.undo()
    assert fresh.run(c) == trace


def test_same_shape_methods_share_one_code_object():
    """Methods that differ only in names and literals compile once and each
    still runs with its own values."""
    text = """
    class P { public: int total;
        int first(int a) { while (a > 3) { a = a - 1; total = total + 2; } return total; } };
    class Q { public: int sum;
        int second(int x) { while (x > 700) { x = x - 5; sum = sum + 9; } return sum; } };
    """
    unit = parse_source(text, path="<shape>")
    p = promoted(unit, "P", "first")
    q = promoted(unit, "Q", "second")
    assert p._runner.__code__ is q._runner.__code__
    assert p._runner is not q._runner

    def run(evaluator, name, value):
        return evaluator.run(TestCase(
            id="s", target=(evaluator.class_name, evaluator.method.name),
            param_values={name: value}, field_values={}, mock_plan={},
            origin="Configured",
        ))

    assert run(p, "a", 10).return_value == 14  # 7 passes of + 2
    assert run(q, "x", 720).return_value == 36  # 4 passes of + 9
