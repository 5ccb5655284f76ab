"""Benchmark of the so3mpc controller; see perfbench/README.md.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload slew180 --seed 0 --seconds 12 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics, whose times are scaled to a nominal machine speed by the
calibration sampler in ``speed.py``; with ``--trace 1`` the workload runs one
set-up and one unit of work under the span tracer and the object holds the
per-layer metrics.  The package is imported from ``src/`` of the checkout
and nowhere else; without it the benchmark exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

# One BLAS thread, set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the thread settings above)

from speed import REFERENCE_S, Calibrated  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms": "ms",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "terminal_level_c": "cost",
    "peak_rss_mb": "MB",
}


def import_package():
    """Import so3mpc from the checkout's src/ only."""
    if not os.path.isfile(os.path.join(SRC, "so3mpc", "__init__.py")):
        raise ImportError(f"no so3mpc package under {SRC}")
    sys.path.insert(0, SRC)
    import so3mpc

    if os.path.dirname(os.path.dirname(os.path.abspath(so3mpc.__file__))) != SRC:
        raise ImportError(f"so3mpc was imported from {so3mpc.__file__}, not from {SRC}")
    return so3mpc


def machine_info() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


def end_to_end(result) -> dict:
    """The JSON metrics.  Times are scaled to the nominal machine speed
    (see speed.py); ``setup_s`` is the median set-up, ``op_ms`` the mean
    operation, which is the closed loop's time over its steps."""
    ops = 1e3 * np.asarray(result.op_s)
    values = {
        "setup_s": float(np.median(result.setup_s)),
        "op_ms": float(ops.mean()),
        "op_ms_p50": float(np.percentile(ops, 50)),
        "op_ms_p90": float(np.percentile(ops, 90)),
        "terminal_level_c": result.level_c,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def print_table(workload: str, seed: int, result, metrics: dict, h: float, trace: bool, cal) -> None:
    """Human-readable lines ahead of the JSON: every metric with its unit
    and sample count, and the figures that are not metrics."""
    ledger = result.ledger
    ops = np.sort(np.asarray(result.op_s))
    raw = np.asarray(result.op_raw_s)
    print(f"# {workload} seed={seed} trace={int(trace)} {json.dumps(machine_info())}")
    for name, metric in metrics.items():
        print(f"#   {name:34s} {metric['value']:.6g} {metric['unit']}")
    rows = {
        "setup repeats": len(result.setup_s),
        "operations timed": len(ops),
        "setup_s_each": " ".join(f"{t:.4g}" for t in result.setup_s),
    }
    if cal.enabled:
        rows["speed_factor"] = (f"{cal.speed_factor():.4g} (median of {len(cal.kernel_s)} "
                                f"kernel times / {REFERENCE_S * 1e3:g} ms)")
        rows["op_ms_measured_mean"] = f"{1e3 * raw.mean():.6g} ms (not scaled)"
        rows["op_ms_measured_p50"] = f"{1e3 * np.percentile(raw, 50):.6g} ms (not scaled)"
    rows |= {
        "op_ms_min": f"{1e3 * ops[0]:.6g} ms",
        "op_ms_slow_half": f"{1e3 * ops[len(ops) // 2:].mean():.6g} ms",
        "throughput_per_s": f"{result.work / result.work_s:.6g} 1/s",
    }
    if workload != "certify":
        misses = int((raw > h).sum()) + ledger.failed
        rows["deadline_miss_frac"] = f"{misses / max(1, len(ops)):.6g} (h = {h} s)"
    rows.update(result.extra)
    rows["fail_frac"] = (f"{ledger.failed / max(1, ledger.attempted):.6g} "
                         f"({ledger.failed} of {ledger.attempted} operations)")
    for name, value in rows.items():
        print(f"#   {name:34s} {value}")
    for note in ledger.notes[:20]:
        print(f"#   FAILED: {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_package()
    except ImportError as err:
        print(f"perfbench: cannot import the package: {err}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = os.path.join(OUT, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    run = workloads.WORKLOADS[args.workload]

    trace = bool(args.trace)
    if not trace:
        with Calibrated() as cal:
            result = run(args.seed, args.seconds, out_dir, once=False, setup_repeats=workloads.SETUP_REPEATS, cal=cal)
        metrics = end_to_end(result)
        print_table(args.workload, args.seed, result, metrics, workloads.H, trace, cal)
    else:
        span_cost = tracing.span_cost_seconds()
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        t0 = time.perf_counter()
        try:
            cal = Calibrated(enabled=False)
            result = run(args.seed, args.seconds, out_dir, once=True, setup_repeats=1, cal=cal)
        finally:
            wall_s = time.perf_counter() - t0
            uninstall()
        for problem in tracing.check_spans(tracer):
            result.ledger.record(False, f"trace: {problem}")
        tracer.save(os.path.join(out_dir, "spans.npz"))
        layers = tracing.per_layer_metrics(tracer, wall_s, span_cost)
        layers["mpc.closed_loop.cost"] = (result.extra.get("closed_loop_cost", 0.0), "cost")
        layers["mpc.closed_loop.settle_steps"] = (result.extra.get("settle_steps") or 0, "count")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
        print_table(args.workload, args.seed, result, metrics, workloads.H, trace, cal)

    ledger = result.ledger
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
