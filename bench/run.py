"""seblab benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload solve-square --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from the `src/` directory next
to this one.  One process runs one operation at a time (a closed loop with
one client) in whole rounds of the workload's operations, for at least
--seconds and at least MIN_OPS operations.  Every output is checked (see
checks.py).  With --trace 0 the metrics are the end-to-end ones, with times
taken to a reference machine speed (see reference_seconds); with --trace 1
half the operations are traced and the metrics are the per-layer ones.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the same result, with the per-operation
records, is written under .bench_out/.  See bench/README.md.
"""

import argparse
import dataclasses
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("solve-square", "solve-tall", "verify-lab")
MIN_OPS = 100          # ten samples beyond the 90th percentile
SETUP_REPEATS = 9      # fresh interpreters per run; setup_s is their median
# End-to-end times are reported at a fixed machine speed: the one at which
# reference_seconds() takes REFERENCE_MS (this 2-CPU machine's usual speed).
REFERENCE_MS = 6.5


def import_package():
    """Import seblab from SRC, and only from there."""
    if not (SRC / "seblab" / "__init__.py").is_file():
        sys.exit(f"run.py: no seblab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import seblab

    if Path(seblab.__file__).resolve().parent != SRC / "seblab":
        sys.exit(f"run.py: imported seblab from {seblab.__file__}, "
                 f"not from {SRC}")


def fingerprint():
    import numpy

    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "machine": platform.machine()}


def reference_seconds():
    """Time fixed work that does not touch seblab, made of the kinds of code
    the program's loops run: Frank-Wolfe-like updates on 16-vectors,
    hit-and-run-like chord steps on 3-vectors, and plain interpreter
    arithmetic.

    On a shared machine the speed of one core drifts by 20 % and more over
    tens of seconds.  Each run samples this loop between its operations and
    scales its times by REFERENCE_MS over the loop's median time, so that
    runs taken at different speeds compare.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    M = rng.standard_normal((16, 16))
    c = rng.standard_normal(16)
    centers = rng.standard_normal((2, 3))
    start = time.perf_counter()
    mu = np.full(16, 1.0 / 16)
    for _ in range(400):
        j = int(np.argmin(2.0 * (M @ mu) - c))
        mu *= 0.99
        mu[j] += 0.01
    x = np.zeros(3)
    for _ in range(60):
        u = rng.standard_normal(3)
        u = u / np.sqrt(np.dot(u, u))
        lo, hi = -1e300, 1e300
        for a in centers:
            b = np.dot(u, x - a)
            s = np.sqrt(max(b * b - np.dot(x - a, x - a) + 4.0, 0.0))
            lo, hi = max(lo, -b - s), min(hi, -b + s)
        x = x + (lo + (hi - lo) * rng.random()) * u
    total = 0
    for i in range(25000):
        total += i * i % 7
    return time.perf_counter() - start


def speed_scale(reference_samples):
    """Factor taking times measured alongside these samples to the
    reference speed."""
    return REFERENCE_MS / (1e3 * statistics.median(reference_samples))


def set_up(items, directory):
    """Write the instances, read them back through seblab.io, and time
    SETUP_REPEATS fresh interpreters doing the CLI's import and load."""
    from seblab import io

    paths = []
    for i, item in enumerate(items):
        path = directory / f"instance-{i:02d}.json"
        io.dump_instance(item.instance, path)
        paths.append(str(path))
    items = [dataclasses.replace(item, instance=io.load_instance(path)[0])
             for item, path in zip(items, paths)]
    walls, imports, loads, references = [], [], [], []
    for _ in range(SETUP_REPEATS):
        references.append(reference_seconds())
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), str(SRC), *paths],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        walls.append(time.perf_counter() - start)
        report = json.loads(child.stdout.splitlines()[-1])
        imports.append(report["import_ms"])
        loads.append(report["load_ms"])
    return items, {"setup_s": statistics.median(walls),
                   "setup_scale": speed_scale(references),
                   "setup.import_ms": statistics.median(imports),
                   "io.load_instance.ms": statistics.median(loads)}


def peak_memory_mb(items, op):
    """Largest tracemalloc peak of one operation per distinct (n, m)."""
    firsts = {}
    for item in items:
        firsts.setdefault(item.shape, item)
    peak = 0
    tracemalloc.start()
    try:
        for item in firsts.values():
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                op(item)
            except Exception:  # counted as a failure by the timed loop
                continue
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 1e6


@dataclasses.dataclass
class Record:
    label: str
    item: int                   # index of the item in the round
    round: int
    seconds: float
    traced: bool
    reference: float = 0.0      # reference_seconds() right after the op
    quality: object = None      # checks.Quality, None when the op raised
    error: str = ""

    @property
    def failed(self):
        return self.quality is None or not self.quality.accurate


def timed_loop(items, op, check, seconds, tracer):
    """Whole rounds of the items until both `seconds` and MIN_OPS are met.

    Returns (records, problems).  With a tracer, operations are traced in a
    checkerboard: item i of round r when i + r is even.
    """
    records, problems = [], []
    start = time.perf_counter()
    rounds = 0
    while (time.perf_counter() - start < seconds or len(records) < MIN_OPS
           or (tracer is not None and rounds < 2)):
        for i, item in enumerate(items):
            traced = tracer is not None and (i + rounds) % 2 == 0
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                out = op(item)
            except Exception as exc:  # a raising op is a failed op
                records.append(Record(item.label, i, rounds,
                                      time.perf_counter() - t0, traced,
                                      reference_seconds(), error=repr(exc)))
                continue
            finally:
                if traced:
                    tracer.uninstall()
            elapsed = time.perf_counter() - t0
            qual, found = check(item, out)
            records.append(Record(item.label, i, rounds, elapsed, traced,
                                  reference_seconds(), qual))
            problems += [f"{item.label}: {p}" for p in found]
        rounds += 1
    return records, problems


def end_to_end(records, setup, peak_mb):
    """End-to-end metrics; times are taken to the reference speed round by
    round, each round with the median of its reference samples."""
    import numpy as np

    by_round = {}
    for r in records:
        by_round.setdefault(r.round, []).append(r.reference)
    scale = {k: speed_scale(v) for k, v in by_round.items()}
    times = np.array([r.seconds * scale[r.round] for r in records])
    completed = sum(not r.failed for r in records)
    return {"setup_s": setup["setup_s"] * setup["setup_scale"],
            "op_p50_ms": 1e3 * float(np.percentile(times, 50)),
            "op_p90_ms": 1e3 * float(np.percentile(times, 90)),
            "ops_per_s": completed / float(times.sum()),
            "peak_mem_mb": peak_mb}


def wall_clock(records, setup):
    """The same times unscaled, for the log."""
    import numpy as np

    times = np.array([r.seconds for r in records])
    return {"setup_s": setup["setup_s"],
            "op_p50_ms": 1e3 * float(np.percentile(times, 50)),
            "op_p90_ms": 1e3 * float(np.percentile(times, 90)),
            "reference_ms": 1e3 * statistics.median(r.reference
                                                    for r in records)}


def per_layer(tracer, records, setup):
    import numpy as np
    import spans

    traced = [r for r in records if r.traced]
    plain = {(r.item, r.round): r.seconds for r in records if not r.traced}
    solved = [r.quality for r in traced if r.quality is not None]
    op_s = sum(r.seconds for r in traced)
    # A traced operation against the same item untraced in the next round.
    ratios = [r.seconds / plain[r.item, r.round + 1] for r in traced
              if (r.item, r.round + 1) in plain]
    values = {
        "setup.import_ms": setup["setup.import_ms"],
        "io.load_instance.ms": setup["io.load_instance.ms"],
        "solve.accurate_ops": sum(q.accurate for q in solved),
        "solve.rel_gap_p50": float(np.median([q.rel_gap for q in solved])),
        "solve.support_p50": float(np.median([q.support for q in solved])),
        "trace.ops": len(traced),
        "trace.op_ms": 1e3 * op_s,
        "trace.unattributed_pct": 100.0 * (op_s - tracer.total_self_s()) / op_s,
        "trace.overhead_pct": 100.0 * (float(np.median(ratios)) - 1.0),
    }
    for name, _, _ in spans.SITES:
        values[f"{name}.self_ms"] = (None if name in tracer.absent
                                     else 1e3 * tracer.self_s[name])
        values[f"{name}.calls"] = (None if name in tracer.absent
                                   else tracer.calls[name])
    for name, (key, _) in spans.COUNTERS.items():
        counter = f"{name}.{key}"
        values[counter] = (None if name in tracer.absent
                           or counter in tracer.uncounted
                           else tracer.counts[counter])

    def rate(work, span_names):
        busy = [values[f"{s}.self_ms"] for s in span_names]
        if any(v is None for v in work + busy):
            return None
        return 1e3 * sum(work) / sum(busy) if sum(busy) > 0 else 0.0

    values["kernels.hit_and_run.steps_per_s"] = rate(
        [values["kernels.hit_and_run.steps"]], ["kernels.hit_and_run"])
    probes = ["numrange.convexity_probe", "numrange.separation_probe"]
    values["numrange.queries_per_s"] = rate(
        [values[f"{p}.queries"] for p in probes], probes)
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Every BLAS call here is on matrices of at most a few hundred rows,
    # where a second thread does not pay; one thread keeps timings steady on
    # a shared machine.  Set before numpy is first imported, here and in the
    # set-up children, which inherit the environment.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import_package()
    import checks
    import spans
    import workloads

    make_items, op, check = {
        "solve-square": (workloads.square_items, workloads.solve_op,
                         checks.check_solve),
        "solve-tall": (workloads.tall_items, workloads.solve_op,
                       checks.check_solve),
        "verify-lab": (workloads.verify_items, workloads.verify_op,
                       checks.check_verify),
    }[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as directory:
        items, setup = set_up(make_items(args.seed), Path(directory))

    control_item = next(item for item in items if item.instance.m >= 2)
    controls = checks.negative_controls(control_item, op(control_item), check)
    missed = [name for name, rejected in controls.items() if not rejected]

    tracer = spans.Tracer() if args.trace else None
    peak_mb = None if args.trace else peak_memory_mb(items, op)
    records, problems = timed_loop(items, op, check, args.seconds, tracer)

    values = (per_layer(tracer, records, setup) if args.trace
              else end_to_end(records, setup, peak_mb))
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = ({"value": value, "unit": m["unit"]}
                              if value is not None else
                              {"value": None, "unit": m["unit"], "absent": True})
    failed = sum(r.failed for r in records)
    result = {"correct": not problems and not missed,
              "attempted": len(records), "failed": failed, "metrics": metrics}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(records)} ops in rounds of {len(items)}")
    print("machine " + json.dumps(fingerprint()))
    print(f"negative controls rejected: {len(controls) - len(missed)} of "
          f"{len(controls)}" + (f"  NOT rejected: {missed}" if missed else ""))
    for p in problems[:20]:
        print(f"CHECK FAILED {p}")
    for r in records[:len(items)]:
        if r.error:
            print(f"RAISED {r.label}: {r.error}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']!s:>24} {metric['unit']}")
    wall = wall_clock(records, setup)
    print("unscaled wall clock " + json.dumps(wall))
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "machine": fingerprint(),
                    "args": vars(args), "wall_clock": wall,
                    "problems": problems,
                    "controls_not_rejected": missed,
                    "operations": [dataclasses.asdict(r) | {"failed": r.failed}
                                   for r in records]},
                   indent=1, default=str))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
