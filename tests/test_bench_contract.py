"""The benchmark's tracer wraps named functions; they must all exist, and a
short traced loop of each workload must give a complete, finite result.

The benchmark's modules under `bench/` are imported and only read: a site
the package no longer has, or a counter that no longer fits its function's
result, would turn a per-layer metric into null.
"""

import importlib
import json

import numpy as np
import pytest

from conftest import BENCH
from seblab import kernels


def test_every_traced_site_exists(bench):
    for _, module, attr in bench["spans"].SITES:
        assert hasattr(importlib.import_module(module), attr), (module, attr)


def test_fw_minimize_result_feeds_iteration_counter(bench):
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    args = (A, np.zeros(3), 100)
    result = kernels.fw_minimize(*args)
    assert isinstance(result, tuple) and len(result) == 3
    assert isinstance(result[1], int)
    _, count = bench["spans"].COUNTERS["kernels.fw_minimize"]
    assert count(args, result) == result[1]


@pytest.mark.parametrize("workload", ["solve-square", "solve-tall",
                                      "verify-lab"])
def test_traced_workload_metrics_are_finite(bench, workload, monkeypatch):
    run, checks, spans, workloads = (bench[name] for name in
                                     ("run", "checks", "spans", "workloads"))
    make_items, op, check = {
        "solve-square": (workloads.square_items, workloads.solve_op,
                         checks.check_solve),
        "solve-tall": (workloads.tall_items, workloads.solve_op,
                       checks.check_solve),
        "verify-lab": (workloads.verify_items, workloads.verify_op,
                       checks.check_verify),
    }[workload]
    items = make_items(1)
    control = next(item for item in items if item.instance.m >= 2)
    controls = checks.negative_controls(control, op(control), check)
    assert all(controls.values()), controls

    monkeypatch.setattr(run, "MIN_OPS", 0)  # two rounds, the traced minimum
    tracer = spans.Tracer()
    records, problems = run.timed_loop(items, op, check, 0.0, tracer)
    assert not problems
    assert not any(r.failed for r in records)
    setup = {"setup.import_ms": 0.0, "io.load_instance.ms": 0.0}
    values = run.per_layer(tracer, records, setup)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: values[m["name"]] for m in spec["per_layer"]}
    assert [k for k, v in metrics.items() if v is None] == []
    json.dumps(metrics, allow_nan=False)
