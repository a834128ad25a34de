"""Runtime semantics, checked directly and against the independent oracle."""

import functools
import itertools
import json
import math
import operator
import sys

import pytest
from hypothesis import example, given, strategies as st

from gen_programs import (
    MIRRORED,
    SHAPE_NEAR_MISSES,
    file_text,
    gen_program,
    gen_siblings,
    many_conditions_text,
    method_text,
    program_text,
    value_for,
)
from oracle_eval import OracleEvaluator, scalars_equal, trunc_div, wrap64
from ultgen.cases import TestCase, fuzz_candidates, fuzzed_case, load_case_config
from ultgen.cutlang.nodes import INT_MAX, INT_MIN
from ultgen.cutlang.parser import MAX_BLOCK_DEPTH, MAX_EXPR_DEPTH, parse_source
from ultgen.errors import ContractViolation, ParseError, UnknownClass, UnknownTarget
from ultgen import interp
from ultgen.interp import CaseEvaluator


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
        ("poke", ("d", "temp"), [True], "mock d->temp() must be float, got True"),
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


# --- inherited members and extern calls -----------------------------------

INHERIT_SRC = """
extern class Meter;

class Source {
public:
    float level() { return 0.0; }
};

class Gauge : public Source {
public:
    bool ready() { return true; }
};

class Reader {
public:
    int shout() { return 1; }
};

class Quiet : public Reader {
};

class Loud : public Reader {
public:
    Gauge* g;
    Meter* m;

    int shout() { return 2; }

    int peek() {
        if (g->ready() && g->level() > 0.5) {
            return 1;
        }
        return m->raw();
    }
};
"""


@pytest.fixture(scope="module")
def inherit_unit():
    return parse_source(INHERIT_SRC, path="<inherit>")


def _case_of(target, mocks):
    return TestCase("c", target, {}, {}, mocks, "Configured")


def test_mock_key_may_name_a_method_the_dependency_inherits(inherit_unit):
    evaluator = CaseEvaluator(inherit_unit, "Loud", "shout")
    assert evaluator.mock_type(("g", "level")) == "float"
    evaluator.check(_case_of(("Loud", "shout"), {("g", "level"): [0.25]}))
    with pytest.raises(ContractViolation) as raised:
        evaluator.check(_case_of(("Loud", "shout"), {("g", "level"): ["1"]}))
    assert str(raised.value) == "mock g->level() must be float, got '1'"


def test_configured_mock_of_an_inherited_method_takes_its_return_type(inherit_unit):
    config = load_case_config(
        json.dumps(
            {"classes": {"Loud": {"methods": {"shout": {
                "cases": {"low": {"mocks": {"g.level": [1]}}}
            }}}}}
        ),
        inherit_unit,
    )
    (configured,) = config[("Loud", "shout")].cases
    assert configured.mock_plan == {("g", "level"): [1.0]}
    assert type(configured.mock_plan[("g", "level")][0]) is float


def test_override_runs_its_own_body(inherit_unit):
    def ret(class_name):
        evaluator = CaseEvaluator(inherit_unit, class_name, "shout")
        return evaluator.run(_case_of((class_name, "shout"), {})).return_value

    assert (ret("Reader"), ret("Quiet"), ret("Loud")) == (1, 1, 2)


def test_call_sites_type_inherited_and_extern_methods(inherit_unit):
    evaluator = CaseEvaluator(inherit_unit, "Loud", "peek")
    assert evaluator.mock_types == {
        ("g", "ready"): "bool",
        ("g", "level"): "float",
        ("m", "raw"): "int",
    }
    assert list(evaluator.mock_types) == [("g", "ready"), ("g", "level"), ("m", "raw")]
    assert evaluator.mock_type(("m", "anything")) == "int"
    trace = evaluator.run(
        _case_of(("Loud", "peek"), {("g", "ready"): [False], ("m", "raw"): [7]})
    )
    assert trace.return_value == 7


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
    oracle = OracleEvaluator(unit, "G", "m", fuel=fuel)
    for c in cases:
        assert agree(evaluator.run(c), oracle.run(c)), (text, c)


@pytest.mark.parametrize("seed", [0, 21])
def test_many_conditions_match_oracle(seed):
    """A method with more outcome pairs than 64 bits hold, some of them in
    a loop, traces as the oracle does on every fuzz candidate."""
    unit = parse_source(many_conditions_text(seed), path="<many>")
    evaluator = CaseEvaluator(unit, "G", "m")
    oracle = OracleEvaluator(unit, "G", "m")
    assert sum(len(d.conditions) for d in evaluator.decisions) >= 40
    assert len(evaluator.pairs) > 80
    assert sorted(evaluator.pairs_by_bit) == sorted(evaluator.pairs)  # each pair once
    covered = set()
    for i, inputs in enumerate(fuzz_candidates(evaluator, 256, seed)):
        c = fuzzed_case(evaluator, inputs, seed, i)
        trace = evaluator.run(c)
        assert agree(trace, oracle.run(c)), c
        covered |= trace.outcomes
    assert max(evaluator.pairs_by_bit.index(p) for p in covered) >= 64


# Every hazard a merged fuel charge must not cross, each followed by a quiet
# statement: an assert, a value-returning call, an int `/`, the join after
# an `if`, and a loop whose body is one merged charge. The cases reach the
# end, crash at the unmocked call and crash at the division.
_SWEEP_TEXT = """
class Dep { public: int get() { return 0; } void nudge() {} };
class G {
public:
    Dep* d;
    int n;
    float level;
    int m(int a, int b, bool p, float x) {
        assert(a != 3);
        x = x + 1.0;
        n = n + d->get();
        level = level * 2.0;
        b = a / b;
        d->nudge();
        if (p) { a = a - 1; }
        n = n + 1;
        while (a > 0) { a = a - 1; x = x / 2.0; }
        return a;
    }
};
"""


def _sweep_case(b, p, mocks):
    return TestCase(
        id="sweep", target=("G", "m"), param_values={"a": 4, "b": b, "p": p, "x": 0.5},
        field_values={}, mock_plan=mocks, origin="Configured",
    )


@given(gen_program())
@example((_SWEEP_TEXT, 0, [
    _sweep_case(1, True, {("d", "get"): [2]}),
    _sweep_case(1, False, {}),
    _sweep_case(0, False, {("d", "get"): [2]}),
]))
def test_every_fuel_limit_matches_oracle(packed):
    """Each case runs out of fuel at every point it can, up to one past the
    fuel it needs (at most 64), and at the last five points of a longer run:
    the evaluator, which pays several charges in one check and skips the
    passes of a counting loop, stops with the trace the oracle's one-by-one
    charges give."""
    text, _, cases = packed
    unit = parse_source(text, path="<sweep>")
    for c in cases:
        steps = CaseEvaluator(unit, "G", "m").run(c).steps
        for fuel in {*range(1, min(steps + 1, 64) + 1), *range(max(steps - 3, 1), steps + 2)}:
            trace = CaseEvaluator(unit, "G", "m", fuel=fuel).run(c)
            result = OracleEvaluator(unit, "G", "m", fuel=fuel).run(c)
            assert agree(trace, result), (text, c, fuel)


@given(gen_program())
def test_recorded_pairs_are_in_the_decision_table(packed):
    """Every pair a trace records is one of the method's outcome pairs."""
    text, fuel, cases = packed
    unit = parse_source(text, path="<gen>")
    evaluator = CaseEvaluator(unit, "G", "m", fuel=fuel)
    for c in cases:
        assert evaluator.run(c).outcomes <= evaluator.pairs, (text, c)


# --- the generated code ---------------------------------------------------

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


def _line_of(text, needle):
    return text[: text.index(needle)].count("\n") + 1


def _tier_case(i, params, mocks):
    full = {"n": 0, "k": 1, "x": 1.0 + i, "y": 2.0, "early": False}
    full.update(params)
    return TestCase(
        id=f"t{i}", target=("H", "step"), param_values=full,
        field_values={"acc": i % 5}, mock_plan=mocks, origin="Configured",
    )


def test_tier_scenarios_match_oracle():
    """One evaluator runs a stream of cases that mixes every way a run
    ends, and each traces as the oracle does."""
    unit = parse_source(TIER_SRC, path="<tier>")
    fuel = 200
    evaluator = CaseEvaluator(unit, "H", "step", fuel=fuel)
    oracle = OracleEvaluator(unit, "H", "step", fuel=fuel)
    traces = []
    for i in range(150):
        c = _tier_case(i, *_TIER_SCENARIOS[i % len(_TIER_SCENARIOS)])
        trace = evaluator.run(c)
        assert agree(trace, oracle.run(c)), c
        traces.append(trace)
    crashes = {
        (t.crash.kind, t.crash.site[2] if t.crash.site else None)
        for t in traces if t.crash
    }
    assert crashes == {
        ("FuelExhausted", None),  # inside the loop
        ("DivByZero", _line_of(TIER_SRC, "if (acc / k")),
        ("UnmockedCall", _line_of(TIER_SRC, "while (")),
    }
    assert all(t.steps == fuel for t in traces if t.crash and t.crash.kind == "FuelExhausted")
    # the early return, past the void call site, of x / -0.0
    assert -math.inf in {t.return_value for t in traces}
    assert any(t.crash is None and t.return_value > 0 for t in traces)


AND_LOOPS_SRC = """
class Dep { public: bool ok() { return true; } };
class L {
public:
    Dep* d;
    int acc;

    int guard(int n) {
        while (n > 0 && n < 100 && d->ok()) {
            n = n - 1;
        }
        return n;
    }

    int nested(int n, int a, int b) {
        while (n > 0 && a < 100) {
            b = a;
            while (b > 0 && b < 50) {
                b = b - 7;
            }
            n = n - 1;
            a = a + 3;
        }
        return b;
    }

    int spin(int n, bool go) {
        while (n != 0 && go) {
            n = n + 1;
            acc = acc + 1;
        }
        return n;
    }
};
"""

_AND_LOOP_CASES = [
    # (method, params, mocks, fuel): a later condition crashing unmocked on
    # the first pass, or passing, or ending the loop
    *(("guard", {"n": n}, mocks, 10000)
      for n in (-1, 0, 1, 50, 99, 100, 150)
      for mocks in ({}, {("d", "ok"): [True]}, {("d", "ok"): [True, False]})),
    # an inner loop that exits on every pass of the outer one
    *(("nested", {"n": n, "a": a, "b": 0}, {}, 10000)
      for n in (0, 1, 3, 40) for a in (-5, 20, 99)),
    # a pass that runs out of fuel
    *(("spin", {"n": n, "go": go}, {}, fuel)
      for n, go in ((1, True), (-3, True), (5, False)) for fuel in (2, 7, 8, 50)),
]


def test_and_loop_conditions_record_as_the_oracle_does():
    """A `while` whose condition is an `&&` chain records its pairs once per
    run and once per exit, and a later condition crashing mid-chain still
    records the true pairs of those before it."""
    unit = parse_source(AND_LOOPS_SRC, path="<and>")
    crashed = set()
    for method, params, mocks, fuel in _AND_LOOP_CASES:
        c = TestCase("c", ("L", method), params, {}, mocks, "Configured")
        trace = CaseEvaluator(unit, "L", method, fuel=fuel).run(c)
        assert agree(trace, OracleEvaluator(unit, "L", method, fuel=fuel).run(c)), c
        if trace.crash:
            crashed.add((method, trace.crash.kind))
    assert crashed == {("guard", "UnmockedCall"), ("spin", "FuelExhausted")}


def _generate(evaluator):
    """The source of the evaluator's `_make` and the values it binds."""
    _, values, slots = evaluator._walk()
    return evaluator._source(slots), values


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
        generated.append(_generate(CaseEvaluator(unit, class_name, method)))
    (source_p, consts_p), (source_q, consts_q) = generated
    assert source_p == source_q
    assert consts_p != consts_q
    for word in ("dep", "total", "first", "fetch", "Dep", "12345", "P.first"):
        assert word not in source_p


def _fuel_checks(lines):
    return [line.strip() for line in lines if line.strip().startswith("if fuel")]


def test_quiet_loop_body_pays_one_fuel_check_per_pass():
    unit = parse_source(
        "class C { public: int acc;"
        " int m(int n) { while (n > 0) { n = n - 1; acc = acc + 2; } return acc; } };",
        path="<quiet>",
    )
    lines = _generate(CaseEvaluator(unit, "C", "m"))[0].splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == "while True:")
    indent = len(lines[start]) - len(lines[start].lstrip())
    body = []
    for line in lines[start + 1:]:
        if len(line) - len(line.lstrip()) <= indent:
            break
        body.append(line)
    # the two assignments and the next condition check, paid at once
    assert _fuel_checks(body) == ["if fuel < 3: return _OUT_OF_FUEL, None, 0, m"]
    # the while statement and its first check, paid before the loop
    assert _fuel_checks(lines[:start]) == ["if fuel < 2: return _OUT_OF_FUEL, None, 0, m"]


def test_int_division_keeps_its_own_fuel_check():
    unit = parse_source(
        "class C { public: int m(int a, int b, int x, int y)"
        " { x = a / b; y = 1; return y; } };",
        path="<div>",
    )
    lines = _generate(CaseEvaluator(unit, "C", "m"))[0].splitlines()
    division = next(i for i, line in enumerate(lines) if "_div(" in line)
    assert _fuel_checks(lines[:division]) == ["if fuel <= 0: return _OUT_OF_FUEL, None, 0, m"]
    assert _fuel_checks(lines[division:]) == ["if fuel < 2: return _OUT_OF_FUEL, None, 0, m"]


# x + L, L + x, x - L and L - x, each with L in the source text.
_LITERAL_FORMS = {"xpl": "x + {}", "lpx": "{} + x", "xml": "x - {}", "lmx": "{} - x"}
_LITERALS = [INT_MIN, -2, -1, 0, 1, INT_MAX]


def test_int_plus_minus_literal_wraps_as_the_oracle_does():
    """An int `+` or `-` with a literal operand tests only the side of the
    int64 range that the literal's sign picks, and wraps as the oracle does
    at every extreme, straight-line and inside a loop body."""
    methods = []
    for form, text in _LITERAL_FORMS.items():
        for i, literal in enumerate(_LITERALS):
            e = text.format(literal)
            methods.append(f"int {form}{i}(int x) {{ return {e}; }}")
            methods.append(
                f"int {form}{i}w(int x, bool go)"
                f" {{ while (go) {{ x = {e}; go = false; }} return x; }}"
            )
    unit = parse_source("class W { public: " + " ".join(methods) + " };", path="<wrap>")
    for form in _LITERAL_FORMS:
        for i in range(len(_LITERALS)):
            for x in (INT_MIN, -1, 0, 1, INT_MAX):
                _run_against_oracle(unit, "W", f"{form}{i}", {"x": x})
                _run_against_oracle(unit, "W", f"{form}{i}w", {"x": x, "go": True})
    # x = x + 1 compares with one bound of the range
    source = _generate(CaseEvaluator(unit, "W", f"xpl{_LITERALS.index(1)}w"))[0]
    assert source.count("922337203685477580") == 1


# --- the deepest method the parser accepts --------------------------------
#
# Each while condition is MAX_EXPR_DEPTH deep (or one deeper) and means
# `n > 0`; the shapes are those that nest generated code deepest: wrapped
# int `*` and `+`, int `/`, nested parentheses, a run of `!`, and an `&&`
# chain of conditions. Each is paired with the token where one level more
# crosses the limit.


def _arith(depth):  # n * 1 * ... * 1 + 0 + ... + 0 > 0, the chain depth - 1 long
    terms = depth - 1
    return "n" + " * 1" * (terms // 2) + " + 0" * (terms - 1 - terms // 2) + " > 0", " > "


def _divide(depth):  # n * a / a / 1 / ... / 1 > 0: DivByZero when a == 0
    return "n * a / a" + " / 1" * (depth - 4) + " > 0", " > "


def _parens(depth):
    return "(" * (depth - 2) + "n > 0" + ")" * (depth - 2), ">"


def _bangs(depth):  # an odd run, so !...!(n <= 0) means n > 0
    return "!" * (depth - 3) + "(n <= 0)", "<="


def _conjunction(depth):  # depth - 1 conditions
    atoms = ["n > 0" if i % 2 == 0 else "a == a" for i in range(depth - 1)]
    return " && ".join(atoms), "&&"


_SHAPES = [_arith, _divide, _parens, _bangs, _conjunction]


def _deep_method(blocks, cond_depth=lambda level: MAX_EXPR_DEPTH):
    """A method of `blocks` nested whiles; the condition of the one at
    `level` (0 outermost) has shape `level % 5` and depth cond_depth(level).
    Returns the text and, per level, the line and column of that shape's
    crossing token."""
    lines = ["class Deep {", "public:", "    int f(int n, int a) {"]
    crossings = []
    for level in range(blocks):
        cond, token = _SHAPES[level % len(_SHAPES)](cond_depth(level))
        head = "    " * (level + 2) + f"while ({cond}) {{"
        lines.append(head)
        lines.append("    " * (level + 3) + "n = n - 1;")
        crossings.append((len(lines) - 1, head.rindex(token) + 1 + token.startswith(" ")))
    for level in reversed(range(blocks)):
        lines.append("    " * (level + 2) + "}")
    lines += ["        return n;", "    }", "};", ""]
    return "\n".join(lines), crossings


def test_deepest_accepted_method_runs_generated_code_as_the_oracle_does():
    text, _ = _deep_method(MAX_BLOCK_DEPTH)
    unit = parse_source(text, path="<deepest>")
    evaluator = CaseEvaluator(unit, "Deep", "f")
    oracle = OracleEvaluator(unit, "Deep", "f")
    traces = []
    for n, a in ((0, 1), (1, 1), (20, 1), (20, -3), (MAX_BLOCK_DEPTH, 2), (5, 0), (6000, 1)):
        c = TestCase(id=f"n{n}a{a}", target=("Deep", "f"), param_values={"n": n, "a": a},
                     field_values={}, mock_plan={}, origin="Configured")
        traces.append(evaluator.run(c))
        assert agree(traces[-1], oracle.run(c)), c
    assert evaluator.runner.__code__.co_filename == "<ultgen generated>"
    innermost = f"Deep.f:D{MAX_BLOCK_DEPTH}"
    assert (innermost, True) in traces[2].outcomes  # n = 20 reaches the inner loop
    assert traces[2].return_value == 0
    assert [t.crash.kind for t in traces if t.crash] == ["DivByZero", "FuelExhausted"]


@pytest.mark.parametrize("level", range(len(_SHAPES)))
def test_one_level_deeper_expression_is_a_parse_error(level):
    text, crossings = _deep_method(
        MAX_BLOCK_DEPTH, lambda at: MAX_EXPR_DEPTH + (at == level)
    )
    with pytest.raises(ParseError) as raised:
        parse_source(text, path="<deeper>")
    assert (raised.value.line, raised.value.column) == crossings[level]
    assert raised.value.message == (
        f"expression nested more than {MAX_EXPR_DEPTH} levels deep"
    )


@pytest.mark.parametrize(
    "opener", ["while (n > 0) {", "if (n > 0) {", "if (n > 0) { n = 0; } else {"]
)
def test_one_block_deeper_is_a_parse_error(opener):
    """Blocks nest through while bodies, if bodies and else bodies alike."""

    def nest(blocks):
        lines = ["class A {", "public:", "    int f(int n) {"]
        lines += ["    " * (level + 2) + opener for level in range(blocks)]
        lines.append("    " * (blocks + 2) + "n = n - 1;")
        lines += ["    " * (level + 2) + "}" for level in reversed(range(blocks))]
        return "\n".join(lines + ["        return n;", "    }", "};", ""])

    parse_source(nest(MAX_BLOCK_DEPTH), path="<deepest>")
    with pytest.raises(ParseError) as raised:
        parse_source(nest(MAX_BLOCK_DEPTH + 1), path="<deeper>")
    # the opener on line 4 + MAX_BLOCK_DEPTH, after its indent
    assert (raised.value.line, raised.value.column) == (
        4 + MAX_BLOCK_DEPTH, 4 * (MAX_BLOCK_DEPTH + 2) + 1,
    )
    assert raised.value.message == (
        f"if/while statements nested more than {MAX_BLOCK_DEPTH} deep"
    )


def test_generated_tier_mask_updates_do_not_grow_with_passes():
    """A loop records the same pairs on every pass, but each branch inside
    it sets its bits of the run's outcome mask once per run, and an exit
    from the `&&` loop condition sets its pairs once per exit, so the number
    of mask updates does not grow with the passes."""
    unit = parse_source(TIER_SRC, path="<tier>")
    evaluator = CaseEvaluator(unit, "H", "step")
    oracle = OracleEvaluator(unit, "H", "step")

    # The same source, run with a mask that records every update.
    updates = []

    class RecordingMask(int):
        def __or__(self, bits):
            updates.append(bits)
            return RecordingMask(int(self) | bits)

    source, consts = _generate(evaluator)
    assert source.count("m = 0\n") == 1
    namespace = dict(interp._GENERATED_GLOBALS, RecordingMask=RecordingMask)
    exec(source.replace("m = 0\n", "m = RecordingMask()\n"), namespace)
    runner = namespace["_make"](*consts)
    counts = []
    for n in (40, 80):
        c = _tier_case(0, {"n": n, "k": 1}, {("d", "more"): [True], ("d", "get"): [0, 1, 2]})
        trace = evaluator.run(c)
        assert trace.steps > 4 * n  # n passes through the loop
        assert len(trace.outcomes) == 13  # all but D1:T and d->more() false
        assert agree(trace, oracle.run(c))
        updates.clear()
        fields = evaluator.fields(c.field_values)
        crash, ret, left, mask = runner(evaluator.inputs(c), fields, evaluator.fuel)
        steps = evaluator.fuel - left
        assert (crash, ret, steps) == (trace.crash, trace.return_value, trace.steps)
        assert evaluator.outcomes(mask) == trace.outcomes
        assert functools.reduce(operator.or_, updates) == mask
        counts.append(len(updates))
    assert counts[0] == counts[1]


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
    p = CaseEvaluator(unit, "P", "first")
    q = CaseEvaluator(unit, "Q", "second")

    def run(evaluator, name, value):
        return evaluator.run(TestCase(
            id="s", target=(evaluator.class_name, evaluator.method.name),
            param_values={name: value}, field_values={}, mock_plan={},
            origin="Configured",
        ))

    assert run(p, "a", 10).return_value == 14  # 7 passes of + 2
    assert run(q, "x", 720).return_value == 36  # 4 passes of + 9
    assert p.runner.__code__ is q.runner.__code__
    assert p.runner is not q.runner


def test_wrap_side_of_a_literal_sum_is_shape():
    """The sign of an int `+` literal picks the side of the range that the
    sum tests, so methods that differ in it keep distinct code, and methods
    that differ only in its magnitude share one code object."""
    unit = parse_source(
        """
        class S { public:
            int up(int x) { return x + 5; }
            int far(int x) { return x + 70000; }
            int down(int x) { return x + -5; } };
        """,
        path="<sides>",
    )
    for method, x, wrapped in (
        ("up", INT_MAX - 4, INT_MIN),
        ("far", INT_MAX, INT_MIN + 69999),
        ("down", INT_MIN + 4, INT_MAX),
    ):
        assert _run_against_oracle(unit, "S", method, {"x": x}).return_value == wrapped
    up, far, down = (CaseEvaluator(unit, "S", m).runner for m in ("up", "far", "down"))
    assert up.__code__ is far.__code__
    assert up.__code__ is not down.__code__


# Operand values per type, and the comparisons the checker allows on it
# (ordering needs int or float).
_COMPARED = {
    "int": ([-2, 0, 3], ("==", "!=", "<", "<=", ">", ">=")),
    "float": ([-1.5, 0.0, 2.0, math.inf, math.nan], ("==", "!=", "<", "<=", ">", ">=")),
    "bool": ([False, True], ("==", "!=")),
}


def _run_against_oracle(unit, class_name, method, params, mocks=None, fuel=10000):
    """The method's trace for `params`, checked against the oracle's."""
    c = TestCase("c", (class_name, method), params, {}, mocks or {}, "Configured")
    trace = CaseEvaluator(unit, class_name, method, fuel=fuel).run(c)
    result = OracleEvaluator(unit, class_name, method, fuel=fuel).run(c)
    assert agree(trace, result), (method, params)
    return trace


def test_methods_differing_in_an_if_operator_share_one_code_object():
    """A comparison outside every loop binds its operator as a value, so
    methods that differ only in it compile once, and each still compares
    with its own operator."""
    methods = {
        f"{t}{i}": (t, op)
        for t, (_, ops) in _COMPARED.items()
        for i, op in enumerate(ops)
    }
    unit = parse_source(
        "class C { public: "
        + " ".join(
            f"int {m}({t} a, {t} b) {{ if (a {op} b) {{ return 1; }} return 0; }}"
            for m, (t, op) in methods.items()
        )
        + " };",
        path="<operators>",
    )
    codes = set()
    for m, (t, _) in methods.items():
        values = _COMPARED[t][0]
        for a in values:
            for b in values:
                _run_against_oracle(unit, "C", m, {"a": a, "b": b})
        codes.add(CaseEvaluator(unit, "C", m).runner.__code__)
    assert len(codes) == 1


def test_methods_differing_in_a_while_operator_keep_distinct_code():
    """A comparison inside a `while` can run on every pass, so it stays an
    inline operator and is part of the shape."""
    unit = parse_source(
        """
        class W { public:
            int below(int a) { while (a < 5) { a = a + 1; } return a; }
            int upto(int a) { while (a <= 5) { a = a + 1; } return a; } };
        """,
        path="<loops>",
    )
    assert _run_against_oracle(unit, "W", "below", {"a": 0}).return_value == 5
    assert _run_against_oracle(unit, "W", "upto", {"a": 0}).return_value == 6
    below = CaseEvaluator(unit, "W", "below").runner
    upto = CaseEvaluator(unit, "W", "upto").runner
    assert below.__code__ is not upto.__code__


@given(gen_siblings())
def test_equal_shape_keys_write_equal_sources(siblings):
    """Two methods whose shape keys are equal write the same `_make`
    source, so either may run on the other's compiled function: a method
    and a copy of it with one comparison operator, int literal, parameter
    or mock key changed."""
    keys, sources = [], []
    for method in siblings:
        evaluator = CaseEvaluator(parse_source(program_text(method), path="<gen>"), "G", "m")
        key, _, slots = evaluator._walk()
        keys.append(key)
        sources.append(evaluator._source(slots))
    assert keys[0] != keys[1] or sources[0] == sources[1]


# Inputs for each method of SHAPE_NEAR_MISSES: the int extremes, one-value
# mock scripts of either order and both signs of x * x > x.
_NEAR_MISS_INPUTS = [
    ({"a": a, "b": b, "p": True, "x": x}, {("d", "get"): [g], ("d", "num"): [u]})
    for a in (INT_MIN, -1, 0, 3, INT_MAX)
    for b in (0, 2)
    for x in (0.5, 2.0)
    for g, u in ((1, 0), (3, 5))
]


@pytest.mark.parametrize("name", SHAPE_NEAR_MISSES)
def test_near_miss_shapes_run_as_the_oracle_does_in_either_order(name):
    """Methods one shape feature apart each run on their own compiled
    function, whichever of them compiles first in the process."""
    unit = parse_source(
        file_text({c: [method_text("m", body)] for c, body in zip("AB", SHAPE_NEAR_MISSES[name])}),
        path="<near>",
    )
    for order in ("AB", "BA"):
        interp._MAKERS.clear()
        for class_name in order:
            for params, mocks in _NEAR_MISS_INPUTS:
                _run_against_oracle(unit, class_name, "m", params, mocks, fuel=300)


def test_one_text_pass_per_shape_in_a_run(tmp_path, invoke, monkeypatch):
    """`ultgen run` over 20 methods of one shape, differing in literals,
    comparison operators and names, writes one source."""
    ops = list(interp._COMPARE_FN)
    bodies = [
        f"if (a {ops[(i + j) % 6]} {i * 7 - j}) {{ return {j}; }} return b;"
        for i in range(4) for j in range(5)
    ]
    classes = {
        f"C{i}": [method_text(f"m{j}", bodies[5 * i + j]) for j in range(5)] for i in range(4)
    }
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "one.cut").write_text(file_text(classes))
    passes = []
    generate = interp._Emitter.generate
    monkeypatch.setattr(interp, "_MAKERS", {})
    monkeypatch.setattr(
        interp._Emitter, "generate", lambda self, body: passes.append(1) or generate(self, body)
    )
    code, _, err = invoke("run", tmp_path / "src", "-o", tmp_path / "out", "--threshold", "0")
    assert code == 0, err
    assert len(passes) == 1


# --- counting loops -------------------------------------------------------
#
# A counting `while` (interp._Emitter.fast_forward) skips passes in closed
# form; every trace must still be the oracle's, pass by pass.

def _counting_methods():
    """Loops over `a` that hold from a start until a turn `j` passes on
    (before the first pass, after a few, across a wrap or never), for every
    comparison on either side, with steps of each sign; `k` counts passes."""
    methods = []
    for op, step, start, j in itertools.product(
        ("==", "!=", "<", "<=", ">", ">="), (1, -1, 3, -2), (0, INT_MAX - 4, INT_MIN + 4),
        range(-1, 6),
    ):
        turn = wrap64(start + step * j)
        for cond in (f"a {op} {turn}", f"{turn} {MIRRORED[op]} a"):
            methods.append(
                f"a = {start}; while ({cond} && go) {{ a = a + {step}; k = k + 1; }} return k;"
            )
    return methods


def test_counting_loops_turn_and_wrap_where_the_oracle_does():
    methods = _counting_methods()
    unit = parse_source(
        "class L { public: int k; "
        + " ".join(f"int m{i}(int a, bool go) {{ {body} }}" for i, body in enumerate(methods))
        + " };",
        path="<turns>",
    )
    turned = 0  # loops that end by their condition after a few passes
    for i in range(len(methods)):
        trace = _run_against_oracle(unit, "L", f"m{i}", {"a": 0, "go": True}, fuel=400)
        turned += trace.steps < 400 and trace.return_value > 2
    assert turned > 100


COUNTING_SRC = """
class Dep { public: int get() { return 0; } bool ok() { return true; } void nudge() {} };
class K {
public:
    Dep* d;
    int n;
    bool on;
    int m(int a, int b, bool p, float x) { %s return a + b + n; }
};
"""

# id: (loop, params, mock scripts, whether its generated source calls the
# fast-forward helper). Counting loops, then near misses.
_LOOP_TABLE = {
    "count-down": ("while (a > 0) { a = a - 1; n = n + 2; }", {"a": INT_MAX}, {}, True),
    "mock-step": (
        "while (a != b && p) { a = a + d->get(); b = b - 1; }",
        {"a": 0, "b": 9000, "p": True}, {("d", "get"): [2]}, True,
    ),
    "bool-guards": (
        "while (a <= 100 && on && d->ok()) { a = 3 + a; }",
        {"a": INT_MIN}, {("d", "ok"): [True]}, True,
    ),
    "equal": ("while (a == b) { n = n - a; }", {"a": -1, "b": -1}, {}, True),
    "empty-body": ("while (p) { }", {"p": True}, {}, True),
    "unread-wraps": (
        "while (a < 0) { a = a + 1; n = n + 4611686018427387904; }", {"a": -2000}, {}, True,
    ),
    # a mock the loop reads has several values: the helper skips nothing
    "several-values-step": (
        "while (a > 0) { a = a - d->get(); }", {"a": 50}, {("d", "get"): [1, 2, 3]}, True,
    ),
    "several-values-bound": (
        "while (a > d->get()) { a = a - 1; }", {"a": 90}, {("d", "get"): [-5, 40]}, True,
    ),
    "reads-assigned-local": ("while (a > 0) { a = a - 1; b = b + a; }", {"a": 3000}, {}, False),
    "assigned-twice": ("while (a > 0) { a = a - 1; a = a - 1; }", {"a": INT_MAX}, {}, False),
    "int-division": ("while (a > 0) { a = a - 1; b = b / 2; }", {"a": 3000, "b": 7}, {}, False),
    "if": ("while (a > 0) { a = a - 1; if (p) { n = n + 1; } }", {"a": 3000}, {}, False),
    "assert": ("while (a > 0) { a = a - 1; assert(a != 5); }", {"a": 3000}, {}, False),
    "float-local": (
        "while (a > 0) { a = a - 1; x = x + 1.0; }", {"a": 3000, "x": 0.5}, {}, False,
    ),
    "or": ("while (a > 0 || p) { a = a - 1; }", {"a": 3000}, {}, False),
    "not": ("while (!(a <= 0)) { a = a - 1; }", {"a": 3000}, {}, False),
    "times": ("while (a > 0) { a = a * 1; }", {"a": 3000}, {}, False),
    "subtracted-from": ("while (a > 0) { a = 10 - a; }", {"a": 3}, {}, False),
}


@pytest.mark.parametrize("name", _LOOP_TABLE)
def test_counting_loops_and_near_misses_match_oracle(name):
    loop, params, mocks, fast = _LOOP_TABLE[name]
    unit = parse_source(COUNTING_SRC % loop, path="<loops>")
    full = {"a": 0, "b": 0, "p": False, "x": 0.0, **params}
    _run_against_oracle(unit, "K", "m", full, mocks)
    assert ("_ff(" in _generate(CaseEvaluator(unit, "K", "m"))[0]) == fast


FILL_SRC = """
class Limits { public: bool ready() { return true; } };
class Pump {
public:
    Limits* lim;
    int level;
    int mode;
    int fill(int n, bool go) {
        assert(n != 71);
        while (n != 0 && go && lim->ready()) {
            level = level + 1;
            n = n - 1;
        }
        if (n > 23 || mode == 4) {
            return -1;
        }
        return level / n;
    }
};
"""


def _generated_lines(evaluator, case):
    """The trace of `case` and the line events its run makes in generated
    code. A run stops with an AssertionError past 100,000 events, so a
    runner that takes every pass of a long loop fails instead of hanging."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if frame.f_code.co_filename != "<ultgen generated>":
            return None
        count += event == "line"
        assert count <= 100_000, "the loop's passes ran one by one"
        return tracer

    evaluator.runner  # compile outside the trace
    sys.settrace(tracer)
    try:
        trace = evaluator.run(case)
    finally:
        sys.settrace(None)
    return trace, count


def test_counting_loops_skip_their_passes(corpus_unit):
    """At the default fuel of 10,000 a counting loop from an extreme start
    runs a few passes and skips the rest, with the oracle's trace, and so
    does one that wraps the local its condition reads on the way."""
    fill = parse_source(FILL_SRC, path="<fill>")
    spin = parse_source(
        "class S { public: int f(int n) { while (n != 0) { n = n + 1; } return n; } };",
        path="<spin>",
    )
    runs = [
        (corpus_unit, "Tokenizer", "consume", {"n": INT_MAX}, {}),
        (fill, "Pump", "fill", {"n": INT_MIN, "go": True}, {("lim", "ready"): [True]}),
        (spin, "S", "f", {"n": INT_MAX - 50}, {}),
    ]
    for unit, class_name, method, params, mocks in runs:
        c = TestCase("c", (class_name, method), params, {}, mocks, "Configured")
        trace, lines = _generated_lines(CaseEvaluator(unit, class_name, method), c)
        assert agree(trace, OracleEvaluator(unit, class_name, method).run(c))
        assert trace.crash == interp.Event(interp.FUEL_EXHAUSTED)
        assert lines < 64, (method, lines)


@pytest.mark.parametrize("scale", [60, 10**14])
def test_counting_loops_run_to_their_end_in_closed_form(corpus_unit, scale):
    """Runs of about 3 * scale steps give the steps, return value and crash
    that counting their passes gives; at the smaller scale the oracle agrees,
    and at fuel 10**15 only skipped passes can finish."""
    fill = parse_source(FILL_SRC, path="<fill>")
    wrap = parse_source(
        "class W { public: int up(int n) { while (n >= 0) { n = n + 1; } return n; } };",
        path="<wrap>",
    )
    runs = [
        # scale passes of 3: the while and its first check, the return
        (corpus_unit, "Tokenizer", "consume", {"n": scale}, {}, (3 * scale + 3, scale, None)),
        # the assert, the loop, the if and the return, which divides by n = 0
        (fill, "Pump", "fill", {"n": scale, "go": True}, {("lim", "ready"): [True]},
         (3 * scale + 5, None, interp.DIV_BY_ZERO)),
        # scale + 1 passes of 2, the last of which wraps n to INT_MIN
        (wrap, "W", "up", {"n": INT_MAX - scale}, {}, (2 * scale + 5, INT_MIN, None)),
    ]
    for unit, class_name, method, params, mocks, (steps, ret, crash) in runs:
        c = TestCase("c", (class_name, method), params, {}, mocks, "Configured")
        trace, _ = _generated_lines(CaseEvaluator(unit, class_name, method, fuel=10**15), c)
        assert (trace.steps, trace.return_value) == (steps, ret), method
        assert (trace.crash.kind if trace.crash else None) == crash
        if scale < 1000:
            assert agree(trace, OracleEvaluator(unit, class_name, method, fuel=10**15).run(c))
