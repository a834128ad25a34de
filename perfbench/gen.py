"""Seeded, stdlib-only generators for the benchmark workloads.

Each workload writes a CUT-lang source tree and an advisor history (bugs,
commits, coverage snapshots and a component map) under one directory. The
seed picks literals, operators and history values; the structure (number of
classes, methods, decisions and crash sites) is fixed per workload, so the
amount of work barely moves from seed to seed.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("fuzz-deep", "fuzz-wide", "project")

# Size knobs, one place per workload.
DEEP_CLASSES = 4
WIDE_CLASSES = 30
WIDE_METHODS = 6
PROJECT_DIRS = 100  # one history component per directory
PROJECT_CLASSES_PER_DIR = 3
PROJECT_METHODS_PER_CLASS = 16
PROJECT_CHAIN = 4  # classes per inheritance chain
PROJECT_DECISION_EVERY = 8  # one method in eight has a decision
PROJECT_PERIODS = 12
SMALL_HISTORY_COMPONENTS = 4
SMALL_HISTORY_PERIODS = 8


# --- fuzz-deep --------------------------------------------------------------

def _deep_class(i: int, rng: random.Random) -> str:
    """Loops bounded by a parameter and a literal, a mocked guard and a
    mocked increment, two asserts and two divisions. `mode` is a field the
    fuzzer never sets, so one pair per method stays uncovered and the whole
    pool product runs. Loops compare against literals with `!=` or inside
    a literal range, so the random pool values always behave alike: they
    either skip a loop or exhaust its fuel, whatever their sign."""
    k1 = rng.randint(10, 40)
    k2 = rng.randint(50, 90)
    q = rng.randint(100, 300)
    r = rng.randint(400, 800)
    t = rng.randint(200, 500)
    mode = rng.randint(2, 9)
    return f"""
class Pump{i} {{
public:
    Limits* lim;
    int level;
    int mode;

    int fill(int n, bool go) {{
        assert(n != {k2});
        while (n != 0 && go && lim->ready()) {{
            level = level + 1;
            n = n - 1;
        }}
        if (n > {k1} || mode == {mode}) {{
            return -1;
        }}
        return level / n;
    }}

    int drain(int n) {{
        assert(n != {q});
        while (n > 0 && n < {r}) {{
            n = n - 1;
            level = level + lim->cap();
        }}
        if (mode == {mode}) {{
            return 0;
        }}
        return n;
    }}

    int settle(int lo, bool up) {{
        while (lo != {t} && up) {{
            lo = lo + 1;
            level = level + 2;
        }}
        if (level > {t} && mode == {mode}) {{
            return 1;
        }}
        return level / (lo - {t});
    }}
}};
"""


def _deep_sources(rng: random.Random) -> dict[str, str]:
    head = """// fuzz-deep: loop-heavy methods, most work per interpreter step.

class Limits {
public:
    bool ready() { return true; }
    int cap() { return 0; }
};
"""
    body = "".join(_deep_class(i, rng) for i in range(DEEP_CLASSES))
    return {"pumps.cut": head + body}


# --- fuzz-wide --------------------------------------------------------------

_CMP = ("<", "<=", ">", ">=", "==", "!=")


def _false_at_zero(rng: random.Random, name: str) -> str:
    """A comparison of `name` against a literal that is false at 0, the
    fuzzer's default: its true outcome is one pool value away."""
    op = rng.choice(_CMP)
    if op in (">", ">="):
        lit = rng.randint(1, 50)
    elif op in ("<", "<="):
        lit = rng.randint(-50, -1)
    elif op == "==":
        lit = rng.choice((rng.randint(-50, -1), rng.randint(1, 50)))
    else:
        lit = 0
    return f"{name} {op} {lit}"


def _wide_method(name: str, rng: random.Random) -> str:
    """Four parameters, a bool and an int mock, three ifs and an assert.
    Every reachable outcome pair, and the assert failure, is one pool value
    away from the all-defaults candidate, so coverage does not depend on
    the fuzzer's random draws. `armed` is a field the fuzzer never sets:
    two pairs stay uncovered and every method spends its full budget."""
    d1 = _false_at_zero(rng, "a")
    d4 = _false_at_zero(rng, "a")
    op2, op4 = rng.choice(_CMP), rng.choice(_CMP)
    l2, l4 = rng.randint(-50, 50), rng.randint(-50, 50)
    return f"""
    int {name}(int a, bool b, int c, bool d) {{
        if ({d1} || b) {{
            count = count + 1;
        }}
        if (gate->open() || c {op2} {l2}) {{
            count = count - a;
        }}
        if (armed && d) {{
            return 1;
        }}
        assert({d4} || gate->level() {op4} {l4});
        return count;
    }}
"""


def _wide_sources(rng: random.Random) -> dict[str, str]:
    files = {
        "gate.cut": """// fuzz-wide: many short branchy methods, most work per case.

class Gate {
public:
    bool open() { return true; }
    int level() { return 0; }
};
"""
    }
    for i in range(WIDE_CLASSES):
        methods = "".join(
            _wide_method(f"step{j}", rng) for j in range(WIDE_METHODS)
        )
        files[f"wide{i:02d}.cut"] = f"""
class Wide{i} {{
public:
    Gate* gate;
    int count;
    bool armed;
{methods}}};
"""
    return files


# --- project ----------------------------------------------------------------

def _project_class(n: int, rng: random.Random, total: int) -> str:
    """Accessors over scalar fields and dependency calls; one method in
    PROJECT_DECISION_EVERY holds a decision, some of those a crash site."""
    base = f" : public C{n - 1}" if n % PROJECT_CHAIN else ""
    dep = (n + 1 + rng.randrange(total - 1)) % total
    if dep == n:
        dep = (n + 1) % total
    lines = [f"class C{n}{base} {{", "public:", f"    C{dep}* peer{n};"]
    for j in range(3):
        lines.append(f"    int v{n}_{j};")
    lines.append(f"    bool on{n};")
    for j in range(PROJECT_METHODS_PER_CLASS):
        name = f"m{n}_{j}"
        kind = j % PROJECT_DECISION_EVERY
        f = f"v{n}_{j % 3}"
        lit = rng.randint(-100, 100)
        if kind == 0:
            crash = (n + j // PROJECT_DECISION_EVERY) % 3
            if crash == 0:
                body = f"assert(x != {lit});\n        {f} = x;\n        return {f};"
            elif crash == 1:
                # greedy selection reaches full coverage before it tries
                # x == lit, so this division by zero stays unfound
                lit = rng.choice((rng.randint(-100, -2), rng.randint(2, 100)))
                body = f"if (x >= {lit}) {{\n            return {f} / (x - {lit});\n        }}\n        return x;"
            else:
                body = f"if (x > {lit} && x < {lit + 50}) {{\n            {f} = x;\n        }}\n        return {f};"
            lines.append(f"    int {name}(int x) {{\n        {body}\n    }}")
        elif kind in (1, 4):
            lines.append(f"    int {name}() {{\n        return {f};\n    }}")
        elif kind in (2, 5):
            lines.append(f"    void {name}(int x) {{\n        {f} = x;\n    }}")
        elif kind == 3:
            lines.append(f"    bool {name}() {{\n        return on{n};\n    }}")
        elif kind == 6:
            lines.append(f"    int {name}() {{\n        return peer{n}->m{dep}_1();\n    }}")
        else:
            lines.append(f"    int {name}(int x) {{\n        return {f} + x * {lit};\n    }}")
    lines.append("};")
    return "\n".join(lines) + "\n"


def _project_sources(rng: random.Random) -> dict[str, str]:
    total = PROJECT_DIRS * PROJECT_CLASSES_PER_DIR
    files = {}
    for d in range(PROJECT_DIRS):
        classes = [
            _project_class(d * PROJECT_CLASSES_PER_DIR + k, rng, total)
            for k in range(PROJECT_CLASSES_PER_DIR)
        ]
        files[f"mod{d:03d}/unit.cut"] = "\n".join(classes)
    return files


# --- advisor history --------------------------------------------------------

def _periods(count: int) -> list[str]:
    return [f"{2023 + m // 12}-{m % 12 + 1:02d}" for m in range(count)]


def _history(rng: random.Random, components: int, periods: int) -> dict[str, str]:
    """Coverage drifts per component; bug risk falls with coverage and rises
    with churn, so the model has a real signal to fit."""
    bugs, commits, coverage, rules = [], [], [], []
    for k in range(components):
        name = f"mod{k:03d}"
        rules.append({"prefix": f"{name}/", "component": name})
        cov = rng.uniform(55.0, 97.0)
        for p in _periods(periods):
            cov = min(100.0, max(30.0, cov + rng.uniform(-4.0, 4.0)))
            churn = rng.randint(5, 400)
            commit = f"c-{name}-{p}"
            commits.append({"id": commit, "paths": [
                {"path": f"{name}/unit.cut", "lines": churn},
            ]})
            coverage.append({
                "period": p, "component": name,
                "functional_pct": round(min(100.0, cov + 3.0), 2),
                "conditional_pct": round(cov, 2),
            })
            z = -0.12 * (cov - 75.0) + 0.004 * (churn - 200) - 0.5
            if rng.random() < 1.0 / (1.0 + math.exp(-z)):
                bugs.append({"id": f"BUG-{name}-{p}", "period": p, "culprit": commit})

    def jsonl(records: list[dict]) -> str:
        return "".join(json.dumps(r) + "\n" for r in records)

    return {
        "bugs.jsonl": jsonl(bugs),
        "commits.jsonl": jsonl(commits),
        "coverage.jsonl": jsonl(coverage),
        "map.json": json.dumps({"rules": rules}, indent=2) + "\n",
    }


# --- entry ------------------------------------------------------------------

def generate(workload: str, seed: int, root: Path) -> dict[str, Path]:
    """Write the workload's inputs under `root`; return the paths `ultgen run`
    takes: `src` (directory) and `bugs`, `commits`, `coverage`, `map`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fuzz-deep":
        sources = _deep_sources(rng)
    elif workload == "fuzz-wide":
        sources = _wide_sources(rng)
    elif workload == "project":
        sources = _project_sources(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "project":
        history = _history(rng, PROJECT_DIRS, PROJECT_PERIODS)
    else:
        history = _history(rng, SMALL_HISTORY_COMPONENTS, SMALL_HISTORY_PERIODS)
    src = root / "src"
    for rel, text in sources.items():
        path = src / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    hist = root / "history"
    hist.mkdir(parents=True, exist_ok=True)
    for name, text in history.items():
        (hist / name).write_text(text, encoding="utf-8")
    return {
        "src": src,
        "bugs": hist / "bugs.jsonl",
        "commits": hist / "commits.jsonl",
        "coverage": hist / "coverage.jsonl",
        "map": hist / "map.json",
    }
