"""
dehncover benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--small]

Run from the repository root.  It imports dehncover from ./src, builds the
workload's inputs from the seed, then repeats rounds of timed ops until S
seconds have passed, finishing the round in progress.  Every round starts
with all program caches cleared, as a fresh CLI process does, and its
answers are checked after it.  Each op's time is its fastest over the
rounds (see bench/README.md for why).  The last line of stdout is one JSON object:
correct, attempted, failed, and the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1).  Exit code 0 when every answer checks out,
1 when one does not, 2 when dehncover cannot be imported from ./src.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from array import array
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5  # fresh-interpreter imports before the first round, then one after each

# A fresh interpreter importing what every CLI call imports, timed in its
# own CPU time: the import does no I/O beyond reading cached files, and CPU
# time leaves out the waits for a core that a busy host adds to wall time.
IMPORT_PROBE = (
    "import time; t0 = time.process_time(); import dehncover, dehncover.cli; "
    "print(time.process_time() - t0)"
)


def import_program():
    sys.path[:0] = [SRC, HERE]
    try:
        import dehncover
    except ImportError as exc:
        print(f"error: cannot import dehncover from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(dehncover.__file__).startswith(SRC + os.sep):
        print(f"error: dehncover was imported from {dehncover.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def fresh_imports(trace: bool, repeats: int) -> tuple[list[float], list[str]]:
    """Time `repeats` fresh interpreters importing the package; with
    trace, run them under -X importtime and keep their stderr."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + ["-c", IMPORT_PROBE]
    times, stderrs = [], []
    for _ in range(repeats):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            sys.exit(f"error: import probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        stderrs.append(proc.stderr)
    return times, stderrs


def percentile(sorted_vals, pct: int) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_vals[max(0, -(-pct * len(sorted_vals) // 100) - 1)]


def run(workload_name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    import tracing
    import workloads

    wl = workloads.WORKLOADS[workload_name]
    probes = SETUP_PROBES if size == "full" else 1
    setup_times, import_logs = fresh_imports(trace, probes)

    inputs = wl.inputs(seed, size, OUT_DIR)
    caches = tracing.program_caches()
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    # Every round runs the same ops from the same cold start, so each op's
    # fastest time over the rounds is its cost with the least interference
    # from whatever else shares the machine.
    fastest = None  # per op, the least latency over rounds
    fastest_busy = float("inf")
    rounds = 0
    attempted = failed = 0
    errors: list[str] = []  # wrong answers, ops that raised among them
    op_errors: list[str] = []  # what the ops that raised said
    try:
        start = perf_counter()
        while True:
            for fn in caches:
                fn.cache_clear()
            gc.collect()
            clock = workloads.Clock()
            results = wl.round(inputs, clock)
            if tracer:
                tracer.end_round()
                tracer.enabled = False
            errors += wl.check(inputs, results)
            op_errors += clock.errors
            del results
            if tracer:
                tracer.enabled = True
            if fastest is None:
                fastest = clock.lat
            elif len(clock.lat) != len(fastest):
                raise RuntimeError("rounds of one run made different numbers of ops")
            else:
                fastest = array("d", map(min, fastest, clock.lat))
            fastest_busy = min(fastest_busy, clock.busy)
            rounds += 1
            attempted += len(clock.lat)
            failed += clock.failed
            # set-up is probed after every round too, so that its median is
            # drawn from the whole run rather than its first second
            times, logs = fresh_imports(trace, 1)
            setup_times += times
            import_logs += logs
            if perf_counter() - start >= seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
        path = getattr(inputs, "path", None)
        if path and os.path.exists(path):
            os.remove(path)

    lat = sorted(fastest)
    metrics = {
        # the median probe: the fastest of a run's probes spread three
        # times as widely as the median between runs
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_ops_s": (len(lat) / (sum(lat) + fastest_busy), "ops/s"),
        "op_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "op_p99_ms": (percentile(lat, 99) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if trace:
        # the traced run's own end-to-end figures go to the trace file,
        # where they give the tracing overhead
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"trace-{workload_name}-seed{seed}.json"), "w") as fh:
            json.dump({"workload": workload_name, "seed": seed, "rounds": rounds,
                       "end_to_end": {k: v for k, (v, _u) in metrics.items()},
                       "layers": tracer.table()}, fh, indent=1)
        metrics = tracer.metrics()
        metrics.update(tracing.import_self_times(import_logs))
    for e in op_errors[:10] + errors[:10]:
        print(e, file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "rounds": rounds,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("exceptional-scan", "generic-scan", "verify-tables", "census-audit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="tiny inputs, for testing the benchmark")
    args = ap.parse_args(argv)
    import_program()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 "small" if args.small else "full")
    print(f"rounds: {result.pop('rounds')}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
