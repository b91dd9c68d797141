"""Closed-loop benchmark of the ensograph pipeline, one workload per process.

    python3 benchmarks/bench.py --workload train-gate --seed 1 --seconds 30 --trace 0

Run from the repository root. One caller makes calls back to back (a
train() epoch, an eval pass or a gradient check) for about --seconds, then
checks every result. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics; with --trace 1 untraced and traced calls
alternate and the metrics are the per-layer ones (see benchmarks/README.md).
A full record with the environment block is written to benchmarks/out/.

Every time in the metrics is normalised to the reference speed (see
reference.py): the reference kernel runs between and inside operations,
and each wall time is rescaled by the kernel times around it. The record
keeps the raw wall times as well.
"""

from __future__ import annotations

import os
import sys
import time

# Fixed before numpy loads, identical for every workload. The package
# targets one CPU process, and one thread keeps runs on a shared 2-CPU
# machine from contending with themselves.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPS = 3
IMPORT_REPS = 5
MIN_CALLS = 2


def _load_package():
    if not (ROOT / "src" / "ensograph" / "__init__.py").is_file():
        sys.exit(f"bench: no ensograph sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    import ensograph  # noqa: F401


def environment(seed: int) -> dict:
    """Python, numpy, BLAS, thread count, CPU and commit of this run."""
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": _commit(),
        "seed": seed,
    }


def _commit() -> str:
    """HEAD read straight from .git; an exported tree has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed(ref, fn) -> tuple[float, float]:
    """Run fn after a reference sample, then take another; return (wall s, normalised s).

    Both times leave out the reference samples that fn itself takes.
    """
    ref.sample()
    t0, paused = time.perf_counter(), ref.paused
    fn()
    t1 = time.perf_counter()
    net = t1 - t0 - (ref.paused - paused)
    ref.sample()
    return net, ref.normalise(net, t0, t1)


def import_times(ref) -> list[tuple[float, float]]:
    """(wall, normalised) times of fresh interpreters that import what a run imports."""
    code = (f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; "
            "import numpy, workloads")
    cmd = [sys.executable, "-c", code]
    return [timed(ref, lambda: subprocess.run(cmd, check=True, capture_output=True))
            for _ in range(IMPORT_REPS)]


def run_loop(workload, ref, seconds: float, before=None):
    """Closed loop: make calls back to back, a reference sample after each;
    stop before one would overrun --seconds.

    Returns (call wall times less reference samples inside the call, op
    index range of each call, results); a call that raises yields its
    exception as the result, for the workload's check to count.
    """
    walls, spans, results = [], [], []
    ref.sample()
    began = time.perf_counter()
    while True:
        if before is not None:
            before(len(walls))
        first_op = len(workload.ops)
        t0, paused = time.perf_counter(), ref.paused
        try:
            result = workload.call()
        except Exception as exc:  # a failed call is counted by the check, not fatal
            result = exc
        walls.append(time.perf_counter() - t0 - (ref.paused - paused))
        ref.sample()
        spans.append((first_op, len(workload.ops)))
        results.append(result)
        elapsed = time.perf_counter() - began
        if len(walls) >= MIN_CALLS and elapsed + statistics.median(walls) > seconds:
            return walls, spans, results


def main(argv=None) -> int:
    _load_package()
    from workloads import WORKLOADS
    from reference import REF_S, Reference
    from spans import LOOP, Tracer

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    ref = Reference(WORKLOADS[args.workload].ref_mix)
    tracer = Tracer() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, ref)
        if tracer is not None:
            tracer.boundary = workload.group_boundary
            tracer.install()
        setup_times = []
        for _ in range(SETUP_REPS):
            if tracer is not None:
                tracer.current_group += 1
            setup_times.append(timed(ref, workload.setup))
        workload.ops.clear()

        if tracer is None:
            start_times = import_times(ref)
            walls, spans, results = run_loop(workload, ref, args.seconds)
            traced = [False] * len(walls)
        else:
            # Untraced and traced calls alternate, so the overhead estimate
            # does not pick up slow drift in machine speed.
            tracer.uninstall()
            tracer.current_phase = LOOP

            def alternate(i):
                tracer.uninstall()
                if i % 2:
                    tracer.current_group += 1
                    tracer.install()

            walls, spans, results = run_loop(workload, ref, args.seconds, alternate)
            tracer.uninstall()
            traced = [i % 2 == 1 for i in range(len(walls))]
        # Read before the checks, whose reference forwards are the benchmark's own work.
        usage = resource.getrusage(resource.RUSAGE_SELF)
        attempted, failed, notes = workload.check(results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def op_times(want_traced: bool) -> tuple[list[float], list[float]]:
        """Wall and normalised times of the operations of untraced or traced calls."""
        picked = [workload.ops[i] for (lo, hi), t in zip(spans, traced) if t == want_traced
                  for i in range(lo, hi)]
        return ([net for _, _, net in picked],
                [ref.normalise(net, start, end) for start, end, net in picked])

    peak_rss_mb = usage.ru_maxrss / 1024.0
    op_wall, op_norm = op_times(False)
    op_s = statistics.median(op_norm)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "op": workload.op,
        "calls": len(walls),
        "call_wall_s": walls,
        "op_wall_s": op_wall,
        "op_norm_s": op_norm,
        "setup_wall_s": [w for w, _ in setup_times],
        "setup_norm_s": [n for _, n in setup_times],
        "reference": {"ref_s": REF_S, "samples": len(ref.durations),
                      "median_s": statistics.median(ref.durations),
                      "durations_s": list(ref.durations)},
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "check_notes": notes,
        "rusage": {"user_s": usage.ru_utime, "sys_s": usage.ru_stime,
                   "minor_faults": usage.ru_minflt, "major_faults": usage.ru_majflt},
    }
    if tracer is None:
        record["import_wall_s"] = [w for w, _ in start_times]
        record["import_norm_s"] = [n for _, n in start_times]
        setup_s = statistics.median(record["import_norm_s"]) + statistics.median(record["setup_norm_s"])
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_s": (op_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        record["named"] = workload.named_metrics(walls)
    else:
        traced_wall, traced_norm = op_times(True)
        speed = REF_S / statistics.median(ref.durations)
        metrics = tracer.layer_metrics(workload.units_per_call * sum(traced), SETUP_REPS, speed)
        traced_op_s = statistics.median(traced_norm)
        metrics["trace.overhead_ms"] = ((traced_op_s - op_s) * 1e3, "ms")
        record["traced_op_wall_s"] = traced_wall
        record["traced_op_norm_s"] = traced_norm
        record["trace_overhead_share"] = traced_op_s / op_s - 1.0
        trace_path = OUT_DIR / f"trace-{args.workload}.npz"
        tracer.save(trace_path)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record_path = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for key, value in record.get("named", {}).items():
        print(f"{args.workload}: {key} = {value}")
    print(f"{args.workload}: {len(op_wall)} ops of one {workload.op}; median {statistics.median(op_wall):.4f} s "
          f"wall, {op_s:.4f} s normalised (reference median {record['reference']['median_s'] * 1e3:.2f} ms "
          f"against {REF_S * 1e3:.2f} ms nominal)")
    if tracer is not None:
        print(f"{args.workload}: tracing overhead {record['trace_overhead_share']:+.1%} per {workload.op}")
    print(f"{args.workload}: fail_frac = {failed / attempted:g} ({failed} of {attempted} failed); "
          f"record at {record_path.relative_to(ROOT)}")
    for note in notes:
        print(f"{args.workload}: check failed: {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
