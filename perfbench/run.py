"""Benchmark entry point: run one qs4 workload and print its metrics.

    python3 perfbench/run.py --workload extremal --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports qs4 from `src/`.  The workload
runs in a fresh worker process (`worker.py`) for whole rounds until
`--seconds` are used, at least three rounds; the checks in `checks.py` then
run here, in this process, so they touch neither the times nor the worker's
peak memory.  `setup_s` is the median over the main worker and
SETUP_PROBES set-up-only workers.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of BENCHMARK.json
with `--trace 0`, the per-layer ones with `--trace 1`.  The full record,
rounds included, goes to `perfbench/results/<workload>-seed<n>-trace<t>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("extremal", "modulation", "bilinear", "toolkit")
SETUP_PROBES = 4
# a workload's workers are killed once it has run this long, which leaves
# time for the checks inside the 180 s one workload may take
DEADLINE_S = 160


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _spawn(args: list, record: Path, deadline: float) -> tuple:
    """Run worker.py with `args`, killing it at the monotonic `deadline`;
    returns (monotonic start, parsed record)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args, "--record", str(record)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - start))
    if proc.returncode != 0 or not record.is_file():
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return start, json.loads(record.read_text())


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    work = HERE / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace), "--work", str(work)]
        setups = []
        for i in range(0 if trace else SETUP_PROBES):
            start, rec = _spawn(base + ["--setup-only"], work / f"probe{i}.json", deadline)
            setups.append(rec["ready"] - start)
        start, rec = _spawn(base, work / "worker.json", deadline)
        setups.append(rec["ready"] - start)
        return _summarize(name, seed, trace, work, rec, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _summarize(name: str, seed: int, trace: int, work: Path, rec: dict, setups: list) -> dict:
    import checks

    rounds = rec["rounds"]
    attempted = sum(len(r["codes"]) for r in rounds)
    failed = sum(code != 0 for r in rounds for code in r["codes"])
    # every round has the same inputs, so every successful output must match
    # the first round's byte for byte; the full checks read the last round's
    first = rounds[0]["digests"]
    problems = [f"round {i} output differs from round 0"
                for i, r in enumerate(rounds)
                if any(a is not None and b is not None and a != b
                       for a, b in zip(r["digests"], first))]
    if all(d is not None for d in rounds[-1]["digests"]):
        try:
            problems += checks.CHECKS[name](seed, work)
        except Exception:  # a malformed output is a failed check, not a crash
            problems.append(traceback.format_exc())
    elif failed < attempted:
        problems.append("an operation failed in the last round, so its outputs were not checked")

    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "peak_rss_mb": rec["maxrss_kb"] / 1024.0,
        "setup_s": statistics.median(setups),
    }
    if trace:
        from workloads import extremal_counts

        layer_names = {k for r in rounds for k in r["layers"]}
        for key in sorted(layer_names):
            metrics[key] = statistics.median(r["layers"].get(key, 0.0) for r in rounds)
        if name == "extremal" and failed == 0:
            metrics.update(extremal_counts(work))
    return {
        "workload": name, "seed": seed, "trace": trace,
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "metrics": metrics, "rounds": rounds, "setup_samples": setups,
        "machine": _machine(),
    }


def _machine() -> dict:
    import numpy
    import scipy

    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {0: spec["end_to_end"], 1: spec["per_layer"]}


def _line(result: dict, declared: list, prefix: str = "") -> dict:
    """The printed metrics: every declared one, 0 where a layer never ran."""
    return {prefix + m["name"]: {"value": result["metrics"].get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds positive")
    if not (SRC / "qs4" / "cli.py").is_file():
        print(f"run.py: no qs4 sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = _declared()[args.trace]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    RESULTS.mkdir(exist_ok=True)
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 1
        (RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1))
        for problem in result["problems"]:
            print(f"{name}: check failed: {problem}", file=sys.stderr)
        results.append(result)
        if args.workload == "all":
            print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}")
            for key, m in _line(result, declared).items():
                print(f"  {key:52s} {m['value']:.6g} {m['unit']}")
    metrics = {}
    for result in results:
        metrics.update(_line(result, declared, f"{result['workload']}." if len(results) > 1 else ""))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
