"""Per-layer spans recorded around seblab's functions from outside.

Each traced function is replaced, for the length of a traced round, by a
wrapper on the module where its caller looks it up: `solver` imports
`build_qp`, `solve` and `numerical_rank` by name, while `simplex_qp` and
`sampling` call the kernels through the `kernels` module.  A span's self
time is its duration minus the durations of the wrapped calls inside it.
"""

import importlib
import time
from collections import defaultdict

# (span name, module where the caller looks the function up, attribute)
SITES = (
    ("solver.solve_seb", "seblab.solver", "solve_seb"),
    ("solver.regime_report", "seblab.solver", "regime_report"),
    ("solver.classify", "seblab.solver", "classify"),
    ("solver.build_certificate", "seblab.solver", "build_certificate"),
    ("simplex_qp.build_qp", "seblab.solver", "build_qp"),
    ("simplex_qp.solve", "seblab.solver", "solve"),
    ("kernels.fw_minimize", "seblab.kernels", "fw_minimize"),
    ("linalg.numerical_rank", "seblab.solver", "numerical_rank"),
    ("linalg.numerical_rank", "seblab.numrange", "numerical_rank"),
    ("linalg.arrowhead_psd", "seblab.solver", "arrowhead_psd"),
    ("sampling.sample_intersection", "seblab.sampling", "sample_intersection"),
    ("kernels.hit_and_run", "seblab.kernels", "hit_and_run"),
    ("sampling.farthest_distance", "seblab.sampling", "farthest_distance"),
    ("sampling.cloud_meb", "seblab.sampling", "cloud_meb"),
    ("kernels.cloud_meb", "seblab.kernels", "cloud_meb"),
    ("sampling.grid_min_maxg", "seblab.sampling", "grid_min_maxg"),
    ("sampling.grid_resolution_bound", "seblab.sampling",
     "grid_resolution_bound"),
    ("kernels.grid_min_maxg", "seblab.kernels", "grid_min_maxg"),
    ("numrange.convexity_probe", "seblab.numrange", "convexity_probe"),
    ("numrange.separation_probe", "seblab.numrange", "separation_probe"),
)

# Work counted at a span: name -> (counter, count(args, result)).
COUNTERS = {
    "kernels.fw_minimize": ("iterations", lambda args, res: res[1]),
    # chord steps: burn_in + count * thin
    "kernels.hit_and_run": ("steps", lambda args, res: args[4] + args[3] * args[5]),
    # (resolution + 1) ** n grid nodes
    "kernels.grid_min_maxg": ("nodes", lambda args, res: (args[4] + 1) ** len(args[2])),
    "numrange.convexity_probe": ("queries", lambda args, res: res.samples),
    "numrange.separation_probe": ("queries", lambda args, res: res.samples),
}


class Tracer:
    """Per-name totals of self time, calls and counted work."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.uncounted = set()   # counters whose arguments no longer fit
        self._open = []          # child time of each open span
        self._saved = []
        present = set()
        for name, module, attr in SITES:
            if hasattr(importlib.import_module(module), attr):
                present.add(name)
        self.absent = {name for name, _, _ in SITES} - present

    def install(self):
        for name, module, attr in SITES:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is not None:
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def span(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self.self_s[name] += duration - self._open.pop()
                self.calls[name] += 1
                if self._open:
                    self._open[-1] += duration
            if counter is not None:
                key, count = counter
                try:
                    self.counts[f"{name}.{key}"] += int(count(args, result))
                except (IndexError, TypeError, AttributeError):
                    self.uncounted.add(f"{name}.{key}")
            return result

        return span

    def total_self_s(self):
        return sum(self.self_s.values())
