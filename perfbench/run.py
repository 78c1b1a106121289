"""ccproj benchmark: one workload, one seeded closed-loop run.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` next to this directory.  Prints every metric by name with its unit,
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics of
an untraced run; ``--trace 1`` reports the per-layer metrics of a traced run
(see README.md in this directory).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("construct", "transversal", "query")
# Metrics printed for a reader but left out of the JSON result: both are 0
# on a correct program, so no relative bound applies to them.  The JSON
# carries the failure count as `failed` out of `attempted`.
UNBOUNDED = ("fail_rate", "err_max")


def _import_library():
    """Import ccproj from this checkout's src/, never from elsewhere."""
    sys.path[:0] = [SRC, HERE]
    try:
        import ccproj
    except ImportError as exc:
        raise SystemExit("error=cannot import ccproj from %s: %s" % (SRC, exc))
    if not os.path.abspath(ccproj.__file__).startswith(SRC + os.sep):
        raise SystemExit("error=ccproj was imported from %s, not %s"
                         % (ccproj.__file__, SRC))


def _print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print("%-40s %.6g %s" % (name, value, unit))


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; return (metrics, attempted, failed), where metrics
    maps each reported metric name to (value, unit)."""
    import harness
    import layers
    from tracing import Tracer, instrument, make_api
    from workloads import BUILDERS

    build = BUILDERS[workload]
    if not trace:
        w, setup_s = harness.timed_setup(build, seed)
        loop = harness.run_loop(w.ops, make_api(), seconds=seconds)
        print("workload=%s seed=%d trace=0 %s" % (workload, seed,
                                                   harness.describe_samples(loop)))
        harness.report_problems(loop)
        metrics = harness.end_to_end(loop, setup_s)
        _print_metrics(metrics)
        metrics = {k: v for k, v in metrics.items() if k not in UNBOUNDED}
        return metrics, loop.attempted, loop.failed

    harness.warm_up()
    w = build(seed)
    plain = harness.run_loop(w.ops, make_api(), seconds=seconds / 2)
    tracer, kernel_tracer = Tracer(), Tracer()
    with instrument(tracer):
        traced = harness.run_loop(w.ops, make_api(tracer), cycles=plain.cycles,
                                  tracer=tracer)
    with instrument(kernel_tracer):
        layers.run_kernels(w, make_api(kernel_tracer), tracer)
    print("workload=%s seed=%d trace=1 untraced: %s" % (
        workload, seed, harness.describe_samples(plain)))
    print("workload=%s seed=%d trace=1 traced:   %s" % (
        workload, seed, harness.describe_samples(traced)))
    for path, (calls, total) in sorted(layers.span_paths(tracer).items()):
        print("span %-64s calls=%d total_ms=%.3f" % (path, calls, 1e3 * total))
    plain.merge(traced)
    harness.report_problems(plain)
    metrics = layers.layer_metrics(tracer, kernel_tracer, len(traced.latencies),
                                   plain.seconds, traced.seconds)
    _print_metrics(metrics)
    return metrics, plain.attempted, plain.failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for var in THREAD_VARS:            # before numpy is first imported
        os.environ[var] = "1"
    _import_library()
    metrics, attempted, failed = measure(args.workload, args.seed, args.seconds,
                                         bool(args.trace))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
