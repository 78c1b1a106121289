"""Tests of the benchmark itself: tiny runs of each workload and its oracles.

    python3 -m pytest -q perfbench
"""

import dataclasses
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run._import_library()

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from ccproj import ProjLine  # noqa: E402
from ccproj.transversal import line_hits_in_charts  # noqa: E402
from tracing import Tracer, instrument, make_api  # noqa: E402

TINY = {
    "construct": lambda seed: workloads.build_construct(
        seed, quadrics=((12, 64),), random_seeds=(1,)),
    "transversal": lambda seed: workloads.build_transversal(
        seed, random_seeds=(1, 13), octagonal=False),
    "query": lambda seed: workloads.build_query(seed, random_seeds=(1,), repeats=2),
}


def _traced(w):
    tracer, kernel_tracer = Tracer(), Tracer()
    with instrument(tracer):
        loop = harness.run_loop(w.ops, make_api(tracer), cycles=1, tracer=tracer)
    with instrument(kernel_tracer):
        layers.run_kernels(w, make_api(kernel_tracer), tracer)
    return loop, layers.layer_metrics(tracer, kernel_tracer, loop.attempted, 1.0, 1.0)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_is_correct(name):
    w = TINY[name](7)
    loop = harness.run_loop(w.ops, make_api(), cycles=2)
    assert loop.attempted == 2 * len(w.ops)
    assert loop.failed == 0, loop.problems
    metrics = harness.end_to_end(loop, setup_s=1.0)
    assert metrics["ops_per_s"][0] > 0 and metrics["op_p90_ms"][0] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer(name):
    loop, metrics = _traced(TINY[name](7))
    assert loop.failed == 0, loop.problems
    names = set(layers.KERNEL_METRICS) | set(layers.COUNT_METRICS)
    assert names <= set(metrics)
    assert all(np.isfinite(v) for v, _ in metrics.values())
    if name != "transversal":
        assert metrics["scipy.linprog_calls_per_op"][0] == 0.0
    else:
        assert metrics["scipy.linprog_calls_per_op"][0] > 0.0


def test_counts_repeat_exactly():
    first = _traced(TINY["construct"](3))[1]
    second = _traced(TINY["construct"](3))[1]
    for name in ("dualize.vertices_out", "surgery.vertices_out",
                 "transversal.solver_iterations"):
        assert first[name] == second[name]


def test_throughput_ignores_one_slow_cycle():
    # Two operations, three cycles; the second cycle ran at half speed.
    loop = harness.LoopResult([1.0, 3.0, 2.0, 6.0, 1.0, 3.0], 16.0, cycles=3,
                              attempted=6)
    assert harness.typical_cycle_s(loop) == 4.0
    assert harness.end_to_end(loop, setup_s=1.0)["ops_per_s"][0] == 0.5


def _shifted(fan, line, offset):
    """The line moved by `offset` chart units in two sample planes."""
    hits = line_hits_in_charts(fan, line)
    return ProjLine(np.vstack([
        fan.frame.section_point(float(fan.thetas[i]), hits[i][0] + offset, hits[i][1])
        for i in (0, 1)]))


def test_oracle_counts_a_shifted_line():
    w = TINY["transversal"](7)
    api = make_api()
    honest = api.chebyshev_line

    def shifted_line(fan, **kwargs):
        r = honest(fan, **kwargs)
        return dataclasses.replace(r, line=_shifted(fan, r.line, 10 * fan.diameter()))

    api.chebyshev_line = shifted_line
    loop = harness.run_loop(w.ops, api, cycles=1)
    n_chebyshev = sum(op.kind == "chebyshev_line" for op in w.ops)
    assert loop.failed == n_chebyshev
    assert harness.end_to_end(loop, setup_s=1.0)["fail_rate"][0] > 0


def test_oracle_counts_a_raising_operation():
    w = TINY["query"](7)
    api = make_api()

    def broken(*args, **kwargs):
        raise IndexError("injected")

    api.section_at = broken
    loop = harness.run_loop(w.ops, api, cycles=1)
    assert loop.attempted == len(w.ops)
    assert loop.failed == sum(op.kind == "section_at" for op in w.ops)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
