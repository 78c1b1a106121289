"""Closed-loop timing of a workload and its end-to-end metrics.

One client issues the next operation only after the previous one returns.
The loop repeats whole cycles of the workload's operations until the time
budget is spent (or for a given number of cycles), timing each operation.
Throughput is one cycle's operations over the cycle's typical time: the
sum of each operation's median latency over the run's cycles.  So the
loop's own bookkeeping between operations (hashing each output to find
repeats) is left out, and a slow spell of the machine during one cycle
does not count.  Outputs are checked after the loop: each distinct output
of an operation is checked once by its oracle, and a repeat that differs from
the first output of the same operation is checked on its own.
"""

from __future__ import annotations

import contextlib
import hashlib
import pickle
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

# Enough operations that at least ten latencies lie beyond the 90th percentile.
MIN_OPS = 100
SETUP_REPEATS = 3


@dataclass
class LoopResult:
    latencies: list          # seconds per operation, in issue order
    seconds: float           # time spent inside the operations
    cycles: int
    attempted: int = 0
    failed: int = 0
    err_max: float = 0.0
    problems: list = field(default_factory=list)

    def merge(self, other: "LoopResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.err_max = max(self.err_max, other.err_max)
        self.problems += other.problems


def _no_span(name):
    return contextlib.nullcontext()


def run_loop(ops, api, seconds: float = 0.0, cycles: int | None = None,
             tracer=None) -> LoopResult:
    """Run whole cycles of ops; stop after `cycles`, else once `seconds` have
    passed and at least MIN_OPS operations were issued."""
    span = tracer.span if tracer is not None else _no_span
    latencies, issued, first, raised = [], [], {}, []
    start = time.perf_counter()
    done = 0
    while True:
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                with span("op." + op.kind):
                    out = op.run(api)
            except Exception:
                latencies.append(time.perf_counter() - t0)
                raised.append("%s raised:\n%s" % (op.kind, traceback.format_exc()))
                continue
            latencies.append(time.perf_counter() - t0)
            key = (i, hashlib.sha1(pickle.dumps(out)).digest())
            first.setdefault(key, out)
            issued.append(key)
        done += 1
        elapsed = time.perf_counter() - start
        if cycles is not None:
            if done >= cycles:
                break
        elif elapsed >= seconds and len(latencies) >= MIN_OPS:
            break
    result = LoopResult(latencies, sum(latencies), done, attempted=len(latencies),
                        problems=list(raised))
    verdict = {}
    for key, out in first.items():
        op = ops[key[0]]
        try:
            ok, err = op.check(out)
        except Exception:
            ok, err = False, 0.0
            result.problems.append("%s oracle raised:\n%s"
                                   % (op.kind, traceback.format_exc()))
        if not ok:
            result.problems.append("%s failed its oracle" % op.kind)
        verdict[key] = ok
        result.err_max = max(result.err_max, err)
    result.failed = len(raised) + sum(not verdict[key] for key in issued)
    return result


def warm_up() -> None:
    """Import scipy's LP solver and make its first call, as every user's
    process pays once."""
    from scipy.optimize import linprog
    linprog([1.0], bounds=[(0.0, 1.0)], method="highs")


def timed_setup(build, seed: int):
    """Warm up once, then build the workload SETUP_REPEATS times.

    Returns the last workload and the set-up time: warm-up plus the median
    build time.
    """
    t0 = time.perf_counter()
    warm_up()
    warm = time.perf_counter() - t0
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = build(seed)
        times.append(time.perf_counter() - t0)
    return workload, warm + statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def typical_cycle_s(loop: LoopResult) -> float:
    """One cycle's time at each operation's median latency over the cycles."""
    n = len(loop.latencies) // loop.cycles
    return sum(statistics.median(loop.latencies[i::n]) for i in range(n))


def _p90(lat) -> float:
    return statistics.quantiles(lat, n=10)[-1] if len(lat) >= 2 else lat[0]


def end_to_end(loop: LoopResult, setup_s: float) -> dict:
    """Every end-to-end metric as name -> (value, unit)."""
    lat = loop.latencies
    return {
        "ops_per_s": (len(lat) / loop.cycles / typical_cycle_s(loop), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_p90_ms": (1e3 * _p90(lat), "ms"),
        "fail_rate": (loop.failed / loop.attempted, "ratio"),
        "err_max": (loop.err_max, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def describe_samples(loop: LoopResult) -> str:
    lat, p90 = loop.latencies, _p90(loop.latencies)
    return ("cycles=%d samples=%d beyond_p90=%d op_s=%.3f typical_cycle_s=%.3f"
            % (loop.cycles, len(lat), sum(x > p90 for x in lat), loop.seconds,
               typical_cycle_s(loop)))


def report_problems(loop: LoopResult) -> None:
    """The first few failures, with tracebacks, on stderr."""
    for text in loop.problems[:5]:
        print(text, file=sys.stderr)
    if len(loop.problems) > 5:
        print("... %d more problems" % (len(loop.problems) - 5), file=sys.stderr)
