"""Benchmark for `ultgen run`.

    python3 perfbench/run.py --workload fuzz-deep --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed, then runs `ultgen run` in
fresh processes, each into a fresh output directory, until `--seconds` have
passed (at least MIN_INVOCATIONS times). Each process samples the speed of
the host core it runs on and corrects its times for it (hostspeed.py), so
drifts of host speed do not show as drifts of the program. `wall_s` is the
lower quartile of the corrected wall times: contention the correction
misses only ever adds time. After each invocation it measures set-up time
once: a fresh interpreter importing `ultgen.cli` and building its parser,
corrected the same way; `setup_s` is the median. After the timed part it
checks every artifact (see check.py) and that repeated invocations
wrote identical bytes. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones listed in BENCHMARK.json; with --trace 1, the
per-layer ones, from invocations traced by invoke.py and alternated with
untraced ones so that the tracing overhead can be reported. Human-readable
detail goes to stderr. Exits 1 if a check failed, 2 if it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_CMD = [sys.executable, str(HERE / "setup_probe.py")]
MIN_INVOCATIONS = 3
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def _units(trace: int) -> dict[str, str]:
    """Metric name -> unit for the mode, as BENCHMARK.json declares them."""
    data = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in data["per_layer" if trace else "end_to_end"]}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("ULTGEN_SEED", None)
    return env


def probe_setup(env: dict) -> float:
    """Time for a fresh interpreter to import ultgen.cli and build its
    argument parser, corrected for host speed as the probe sampled it. The
    wait blocks without a timeout, because `subprocess` polls a timed wait
    in steps of up to 50 ms, which would quantize the measurement; a timer
    kills a child that hangs."""
    start = time.perf_counter()
    proc = subprocess.Popen(SETUP_CMD, env=env, stdout=subprocess.PIPE, text=True)
    guard = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    guard.start()
    try:
        out, _ = proc.communicate()
    finally:
        guard.cancel()
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"set-up probe exited {proc.returncode}")
    slowdown, spent = map(float, out.split())
    return (elapsed - spent) / slowdown


def invoke(env: dict, work: Path, i: int, inputs: dict, seed: int, traced: bool) -> tuple[dict, Path]:
    out = work / f"out{i}"
    result = work / f"result{i}.json"
    cmd = [sys.executable, str(HERE / "invoke.py"), str(result)]
    if traced:
        cmd += ["--spans", str(work / "spans.jsonl")]
    cmd += [
        "--", "run", str(inputs["src"]), "-o", str(out), "--seed", str(seed),
        "--bugs", str(inputs["bugs"]), "--commits", str(inputs["commits"]),
        "--coverage-history", str(inputs["coverage"]), "--map", str(inputs["map"]),
    ]
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"invocation {i} failed:\n{proc.stderr[-2000:]}")
    return json.loads(result.read_text(encoding="utf-8")), out


def lower_quartile(values) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def _report(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def run(args: argparse.Namespace, work: Path) -> int:
    import check  # needs src/ and tests/ on sys.path

    env = _env()
    inputs = gen.generate(args.workload, args.seed, work / "in")
    probe_setup(env)  # writes the bytecode caches, which an installed tool has
    setups: list[float] = []

    plain: list[dict] = []
    traced: list[dict] = []
    failures: list[str] = []
    failed_ids: set[int] = set()
    first_out = first_digest = None
    deadline = time.monotonic() + args.seconds
    i = 0
    while True:
        began = time.monotonic()
        is_traced = bool(args.trace) and i % 2 == 1
        result, out = invoke(env, work, i, inputs, args.seed, is_traced)
        digest = check.digest_tree(out)
        if first_digest is None:
            first_out, first_digest = out, digest
        else:
            if digest != first_digest:
                failures.append(f"invocation {i}: artifacts differ from invocation 0")
                failed_ids.add(i)
            shutil.rmtree(out)
        if result["exit_code"] not in (0, 2):
            failures.append(f"invocation {i}: ultgen exited {result['exit_code']}")
            failed_ids.add(i)
        (traced if is_traced else plain).append(result)
        if not args.trace:
            # one set-up probe per invocation, spread over the run
            setups.append(probe_setup(env))
        _report(f"invocation {i}{' traced' if is_traced else ''}: {result['wall_s']:.3f} s "
                f"(raw {result['raw_wall_s']:.3f} s, host slowdown {result['slowdown']:.3f})")
        i += 1
        enough = len(plain) >= MIN_INVOCATIONS and (not args.trace or len(traced) >= MIN_INVOCATIONS)
        # stop when another invocation as long as this one would end past
        # the deadline, so a run never lasts much more than --seconds
        now = time.monotonic()
        if enough and now + (now - began) >= deadline:
            break

    errors, facts = check.check_artifacts(inputs["src"], first_out, plain[0]["exit_code"])
    failures += errors
    attempted = len(plain) + len(traced)
    failed = attempted if errors else len(failed_ids)
    for f in failures[:20]:
        _report(f"FAIL {f}")

    wall = lower_quartile(r["wall_s"] for r in plain)
    _report(f"{len(plain)} untraced invocations: corrected wall {wall:.3f} s (lower quartile), "
            f"raw {statistics.median(r['raw_wall_s'] for r in plain):.3f} s, "
            f"host slowdown {statistics.median(r['slowdown'] for r in plain):.3f}")
    if args.trace:
        shutil.copy(work / "spans.jsonl", work.parent / f"spans-{args.workload}.jsonl")
        metrics = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        traced_wall = lower_quartile(r["wall_s"] for r in traced)
        metrics["trace.overhead_pct"] = 100.0 * (traced_wall / wall - 1.0)
        shape = traced[0]["shape"]
        _report("shape: " + "  ".join(f"{k}={v:.4g}" for k, v in shape.items()))
        median_traced = statistics.median(r["wall_s"] for r in traced)
        shares = sorted(
            ((k[:-2], v / median_traced) for k, v in metrics.items()
             if k.endswith("_s") and not k.endswith("_per_s") and not k.startswith("cases.select")),
            key=lambda kv: -kv[1],
        )
        _report("share of median traced wall: " + "  ".join(f"{k} {100 * v:.1f}%" for k, v in shares))
    elif facts:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "methods_per_s": facts["methods"] / wall,
            "candidates_per_s": facts["candidates"] / wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "conditional_pct": facts["conditional_pct"],
            "functional_pct": facts["functional_pct"],
            "crash_keys": facts["crash_keys"],
        }
    else:  # the artifacts failed their checks; report the timings only
        metrics = {"wall_s": wall, "setup_s": statistics.median(setups)}

    units = _units(args.trace)
    if not failures and set(metrics) != set(units):
        raise BenchError(
            f"metrics disagree with BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
        )
    for name, value in metrics.items():
        _report(f"{name:28s} {value:16.6f} {units.get(name, '?')}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "?")} for k, v in metrics.items()},
    }))
    return 0 if not failures else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("BENCHMARK.json", "src/ultgen/cli.py", "tests/oracle_eval.py"):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {needed} not found under {ROOT}; "
                  "run from a checkout of the repository", file=sys.stderr)
            return 2
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]  # after perfbench/

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, work)
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # holds spans files or other runs' work


if __name__ == "__main__":
    sys.exit(main())
