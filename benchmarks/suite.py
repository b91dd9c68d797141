"""Run every workload in BENCHMARK.json, each in its own process, and check the output.

    python3 benchmarks/suite.py                                 # smoke test
    python3 benchmarks/suite.py --seconds 30 --seeds 1          # one full report

The default is the benchmark's own smoke test: each workload at minimal
length on two seeds, plain on both and traced on the first. Every run must
end its output with the result object, carry every metric that
BENCHMARK.json names for its mode, with the declared unit, and report no
failed operation. The suite also checks that the benchmark exits non-zero,
without a result, in a directory that holds only BENCHMARK.json and the
benchmark's files. Exit code 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def _result(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def check_run(spec, workload, seed, seconds, trace) -> list[str]:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    label = f"{workload} seed {seed} trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = _result(proc.stdout)
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"{label}: last line is not the result object"]
    for line in proc.stdout.strip().splitlines()[1:-1]:
        print("   ", line)
    errors = []
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{label}: correct={result['correct']} failed={result['failed']}"
                      f"/{result['attempted']}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        errors.append(f"{label}: metrics missing {missing}, unexpected {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"{label}: {name} has no numeric value")
    if not trace:
        print(f"    {label}: " + ", ".join(
            f"{n}={m['value']:.4g} {m['unit']}" for n, m in result["metrics"].items()))
    return errors


def check_bare_directory(spec) -> list[str]:
    """The benchmark must refuse to run without the package sources."""
    bare = ROOT / "benchmarks" / "out" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for rel in spec["paths"]:
            shutil.copytree(ROOT / rel, bare / rel,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                                 "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or _result(proc.stdout) is not None:
        return ["bare directory: the benchmark did not fail without the sources"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--seeds", default="1,2", help="comma-separated workload seeds")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    errors = check_bare_directory(spec)
    for w in spec["workloads"]:
        print(f"{w['name']}: {w['why']}")
        for i, seed in enumerate(seeds):
            for trace in (0, 1) if i == 0 else (0,):
                errors += check_run(spec, w["name"], seed, args.seconds, trace)
    for e in errors:
        print("FAIL", e)
    print("suite:", "ok" if not errors else f"{len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
