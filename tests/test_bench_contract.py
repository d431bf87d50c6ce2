"""The benchmark's tracer wraps named functions; they must all exist.

`bench/spans.py` is imported by path and only read: a site it names that
the package no longer has would turn that per-layer metric into null.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from seblab import kernels

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_exists():
    for _, module, attr in load_spans().SITES:
        assert hasattr(importlib.import_module(module), attr), (module, attr)


def test_fw_minimize_result_feeds_iteration_counter():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    args = (A, np.zeros(3), 1e-12, 100)
    result = kernels.fw_minimize(*args)
    assert isinstance(result, tuple) and len(result) == 3
    assert isinstance(result[1], int)
    _, count = load_spans().COUNTERS["kernels.fw_minimize"]
    assert count(args, result) == result[1]
