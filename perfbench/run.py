#!/usr/bin/env python3
"""Run one benchmark workload against the deepref sources of this checkout.

    python3 perfbench/run.py --workload train|sweep|infer --seed 11 --seconds 50 --trace 0

Set-up runs SETUP_REPEATS times and `setup_s` is their median. With
`--trace 0` the run measures ops for `--seconds` (and at least MIN_OPS ops)
and reports the end-to-end metrics. With `--trace 1` it measures a third of
the time untraced and two thirds with every public deepref function wrapped
in spans, and reports the per-layer metrics plus the tracing overhead.

Every set-up and every untraced op follows a run of `workloads.calibrate()`,
and the end-to-end times are reported at the reference speed: each measured
time is scaled by CAL_REF_S / the calibration just before it. The wall times
are kept in the record. Traced ops are not calibrated and stay wall times.

The last line of stdout is the result as JSON. A human-readable table goes to
stderr, and the full record (all metrics, the tail percentile and sample
count, check verdicts, environment) to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# Fix the BLAS thread count before numpy loads OpenBLAS: with its default of
# one thread per core, medians varied by 12-30% between processes on 2 cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# Fix glibc's mmap and trim thresholds before numpy allocates. By default glibc
# raises both as large blocks are freed, and how the heap then fragmented
# varied from run to run: peak RSS on sweep took one of two values, 55 or
# 60 MB. The fixed values are glibc's upper limits, so arrays come from the
# heap, as they do once the defaults have risen. A 1 MB mmap threshold also
# steadied peak RSS but slowed sweep ops by about 15%, in page faults.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 2 * MMAP_THRESHOLD_BYTES
_libc = ctypes.CDLL(None)
MALLOC_FIXED = (hasattr(_libc, "mallopt")
                and _libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1
                and _libc.mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES) == 1)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 5
MIN_OPS = 20  # so the tail percentile always has 10 samples beyond it
TRACE_MIN_OPS = 5
SKIPPED = "skipped: the seed has a reference"
QUALITY_UNITS = {"final_loss": "MSE", "bd_rate_pct": "%"}

# End-to-end metric name -> unit; every workload reports all of them.
# items_per_s counts pairs on train, inter-coded frames on sweep and frames on infer.
END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def tail(values: list[float]) -> tuple[float, int]:
    """Value at the highest whole percentile with at least 10 samples above it."""
    if len(values) < 2:
        return max(values), 100
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    for pct in range(99, 0, -1):
        if sum(v > cuts[pct - 1] for v in values) >= 10:
            return cuts[pct - 1], pct
    return max(values), 100


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "malloc_mmap_threshold": MMAP_THRESHOLD_BYTES if MALLOC_FIXED else None,
        "malloc_trim_threshold": TRIM_THRESHOLD_BYTES if MALLOC_FIXED else None,
        "machine": platform.machine(),
    }


def check_declared(metrics: dict[str, str], key: str) -> None:
    """Keep the emitted metrics in step with what BENCHMARK.json declares."""
    declared = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
    if declared != metrics:
        raise SystemExit(f"error: BENCHMARK.json {key} {declared} != emitted {metrics}")


def parse_args(argv=None):
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


@contextlib.contextmanager
def traced(tracer, span: str | None = None):
    """Wrap the deepref functions for the duration of the block, if tracing."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        if span is None:
            yield
        else:
            with tracer.span(span):
                yield
    finally:
        tracer.uninstall()


def at_reference_speed(seconds: list[float], calibrations: list[float]) -> list[float]:
    """Scale each time by CAL_REF_S / the calibration measured just before it.

    Traced ops and a failed train call have no calibrations; they stay wall times.
    """
    from workloads import CAL_REF_S

    if len(calibrations) != len(seconds):
        return list(seconds)
    return [t * CAL_REF_S / c for t, c in zip(seconds, calibrations)]


def set_up(workload, seed: int, workdir: Path, tracer):
    """Set up SETUP_REPEATS times, each after a calibration; the last set-up is
    traced when tracing."""
    from workloads import calibrate

    times, calibrations = [], []
    for i in range(SETUP_REPEATS):
        calibrations.append(calibrate())
        started = time.perf_counter()
        with traced(tracer if i == SETUP_REPEATS - 1 else None, "bench.setup"):
            state = workload.setup(seed, workdir)
        times.append(time.perf_counter() - started)
    return state, times, calibrations


def canary(workload, workdir: Path, reference) -> str:
    try:
        return workload.canary(workdir, reference) or "ok"
    except Exception as exc:
        return repr(exc)


def main(argv=None) -> int:
    if not (ROOT / "src" / "deepref" / "__init__.py").is_file():
        print(f"error: no deepref sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    from workloads import DEFAULT_SEED, WORKLOADS, load_reference

    args = parse_args(argv)
    check_declared(END_TO_END, "end_to_end")
    check_declared({k: unit for k, (unit, _) in tracing.PER_LAYER.items()}, "per_layer")
    workload = WORKLOADS[args.workload]
    reference = load_reference(args.seed)
    default_reference = load_reference(DEFAULT_SEED)
    if default_reference is None:
        print(f"error: no reference outputs for the default seed {DEFAULT_SEED}; "
              "run perfbench/record.py", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    tracer = tracing.Tracer() if args.trace else None
    try:
        state, setup_times, setup_calibrations = set_up(workload, args.seed, workdir, tracer)
        if tracer is None:
            m = workload.measure(state, args.seconds, MIN_OPS, reference)
            attempted = len(m.latencies)
        else:
            plain = workload.measure(state, args.seconds / 3, TRACE_MIN_OPS, reference)
            with traced(tracer):
                m = workload.measure(state, 2 * args.seconds / 3, TRACE_MIN_OPS, reference, tracer)
            m.failures.update({len(m.latencies) + i: why for i, why in plain.failures.items()})
            attempted = len(m.latencies) + len(plain.latencies)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        canary_verdict = SKIPPED if reference else canary(workload, workdir, default_reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(m.failures)
    correct = failed == 0 and canary_verdict in (SKIPPED, "ok")
    ops_s = at_reference_speed(m.latencies, m.calibrations)
    tail_s, tail_pct = tail(ops_s)
    e2e = {
        "setup_s": statistics.median(at_reference_speed(setup_times, setup_calibrations)),
        "op_p50_s": statistics.median(ops_s),
        "op_tail_s": tail_s,
        "items_per_s": m.items / sum(ops_s),
        "peak_rss_mb": peak_rss_mb,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(), "correct": correct,
        "ops": len(m.latencies), "op_latencies_s": m.latencies, "op_tail_pct": tail_pct,
        "setup_samples_s": setup_times, "setup_calibrations_s": setup_calibrations,
        "op_calibrations_s": m.calibrations,
        "wall": {"setup_s": statistics.median(setup_times),
                 "op_p50_s": statistics.median(m.latencies),
                 "items_per_s": m.items / sum(m.latencies)},
        "metrics": {
            **{k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()},
            workload.item_metric[0]: {"value": e2e["items_per_s"], "unit": workload.item_metric[1]},
            "fail_ratio": {"value": failed / attempted, "unit": "ratio"},
            **{k: {"value": v, "unit": QUALITY_UNITS[k]} for k, v in m.quality.items()},
        },
        "checks": {
            "reference": f"seed {args.seed}" if reference else None,
            "failed_ops": {str(k): v for k, v in sorted(m.failures.items())},
            "canary": canary_verdict,
        },
    }
    if tracer is None:
        emitted = {k: record["metrics"][k] for k in END_TO_END}
    else:
        untraced_p50 = statistics.median(plain.latencies)
        overhead_pct = 100.0 * (e2e["op_p50_s"] / untraced_p50 - 1.0)
        per_layer = tracing.per_layer_metrics(tracer.spans, len(m.latencies), overhead_pct)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        record["untraced_op_p50_s"] = untraced_p50
        record["computed_counts"] = list(tracing.COMPUTED)
        record["per_layer"] = emitted = {
            k: {"value": v, "unit": tracing.PER_LAYER[k][0]} for k, v in per_layer.items()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    print_table(record, sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": emitted}))
    return 0


def print_table(record: dict, out) -> None:
    print(f"{record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['ops']} ops, tail = p{record['op_tail_pct']}", file=out)
    rows = dict(record["metrics"], **record.get("per_layer", {}))
    for name, m in rows.items():
        tag = " (computed)" if name in record.get("computed_counts", ()) else ""
        print(f"  {name:38s} {m['value']:>14.6g} {m['unit']}{tag}", file=out)
    checks = record["checks"]
    print(f"  check: reference {checks['reference'] or 'none'}, canary {checks['canary']}, "
          f"failed ops {len(checks['failed_ops'])}", file=out)
    for op, why in list(checks["failed_ops"].items())[:5]:
        print(f"    op {op}: {why}", file=out)
    print(f"  env: {json.dumps(record['env'])}", file=out)


if __name__ == "__main__":
    sys.exit(main())
