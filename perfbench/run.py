"""Benchmark of the toric-apolarity package.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload length_scan --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client in one thread: the next job
starts only after the previous one has returned and its output has been
checked.  With ``--trace 0`` the run times jobs for ``--seconds`` seconds
and prints the end-to-end metrics; with ``--trace 1`` it runs a fixed
prefix of the job sequence twice, untraced and then traced, and prints the
per-layer metrics.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names
and units come from ``BENCHMARK.json`` at the checkout root.

Times are calibrated: ``raw * 4 ms / k``, where ``k`` is the mean wall
time of a fixed stdlib kernel (``refkernel.py``) sampled between jobs in
the seconds around each job.  Raw wall time on a shared machine drifts by
tens of percent between processes; the calibrated figure repeats within a
few percent.

``--write-reference`` regenerates ``reference.json``, the outputs of the
first jobs of each workload at seed 0, which every run compares against.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = "toric_apolarity"
SETUP_REPS = 5
REFERENCE_SEED = 0
REFERENCE_JOBS = 24
REFERENCE_FILE = HERE / "reference.json"
OUT_DIR = ROOT / ".perfbench_out"
TAIL_BEYOND = 10

sys.path.insert(0, str(HERE))
from refkernel import NOMINAL_MS, Calibrator  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or configuration)."""


def load_config():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    config = json.loads(path.read_text())
    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        raise BenchError(f"package sources not found under {ROOT / 'src'}")
    if not (ROOT / "fixtures").is_dir():
        raise BenchError(f"fixtures not found under {ROOT}")
    return config


def fresh_package():
    """Import the package from scratch, dropping every module (and the
    module-level caches) left by an earlier import."""
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    gc.collect()
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / PACKAGE:
        raise BenchError(f"imported {pkg.__file__}, not the checkout's copy")
    return pkg


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_reference(workload):
    if not REFERENCE_FILE.is_file():
        raise BenchError(f"{REFERENCE_FILE} not found")
    data = json.loads(REFERENCE_FILE.read_text())
    if data["seed"] != REFERENCE_SEED:
        raise BenchError("reference file was made with another seed")
    return data["workloads"][workload]


class Loop:
    """Runs jobs in sequence, calibrating each job's time and recording
    whether its output was correct."""

    def __init__(self, workload, seed, reference, tracer=None):
        self.workload = workload
        self.seed = seed
        self.reference = reference if seed == REFERENCE_SEED else []
        self.tracer = tracer
        self.cal = Calibrator()
        self.templates = []
        self.ok = []
        self.outputs = []
        self.problems = []
        self.rss = None

    def step(self, index):
        job = self.workload.make_job(self.seed, index)
        tracer = self.tracer
        if tracer is not None:
            tracer.start_job(index)
            tracer.active = True
        start = time.perf_counter()
        try:
            result, problems = job.call(), []
        except Exception as exc:  # a job that raises counts as failed
            result, problems = None, [f"raised {exc!r}"]
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        self.cal.add(start, elapsed)
        self.cal.mark()
        if not problems:
            try:
                problems = job.check(result)
            except Exception as exc:
                problems = [f"check raised {exc!r}"]
        output = job.canon(result) if not problems else None
        if output is not None and index < len(self.reference) \
                and output != self.reference[index]:
            problems = ["output differs from the reference file"]
        for p in problems:
            self.problems.append(f"job {index} ({job.template}): {p}")
        self.templates.append(job.template)
        self.ok.append(not problems)
        self.outputs.append(output)
        if index + 1 == self.workload.rss_at:
            self.rss = peak_rss_mb()

    def times(self):
        return self.cal.calibrated()


def setup_workload(cls):
    workload = cls(ROOT)
    pkg = fresh_package()
    workload.setup(pkg)
    return workload


def reference_pass(workload, reference):
    """Re-run one cycle of reference jobs (seed 0) and compare outputs."""
    loop = Loop(workload, REFERENCE_SEED, reference)
    for index in range(min(len(workload.cycle), len(reference))):
        loop.step(index)
    return loop.problems


def sympy_selftest(workload, reference, count=8, sides=(3, 12)):
    """Recompute a sample of reference catalecticant ranks with
    ``sympy.Matrix.rank``, an independent exact oracle.  Up to two matrices
    per job whose sides lie within ``sides`` are taken in reference order."""
    import sympy
    problems = []
    checked = 0
    for index, output in enumerate(reference):
        job = workload.make_job(REFERENCE_SEED, index)
        if job.data is None:
            continue
        fan, alpha, terms = (job.data[k] for k in ("fan", "alpha", "terms"))
        per_job = 0
        for (free, tors), value in json.loads(output)["grid"]:
            beta = fan.degree(tuple(free), tuple(tors))
            rows = workload.pkg.basis(fan, beta)
            cols = workload.pkg.basis(fan, alpha - beta)
            if per_job == 2 or not sides[0] <= min(len(rows), len(cols)) \
                    <= max(len(rows), len(cols)) <= sides[1]:
                continue
            per_job += 1
            rank = sympy.Matrix([[sympy.Rational(str(terms.get(
                tuple(a + b for a, b in zip(r, c)), 0))) for c in cols]
                for r in rows]).rank()
            if rank != value:
                problems.append(f"reference job {index}: rank at {free} is "
                                f"{value}, sympy gives {rank}")
            checked += 1
            if checked == count:
                return problems, checked
    return problems, checked


def _betacf(a, b, x, eps=1e-14, tiny=1e-300):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < eps:
            return h
    raise ArithmeticError("incomplete beta did not converge")


def betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a beta-weighted mean of
    the order statistics near rank q*n.  It varies less from run to run
    than the single order statistic."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def tail(times):
    """The highest percentile with TAIL_BEYOND jobs beyond it, and its value."""
    q = 1.0 - TAIL_BEYOND / len(times) if len(times) > TAIL_BEYOND else 0.5
    return quantile(times, q), 100.0 * q


def per_template(loop, times):
    groups = {}
    for template, t in zip(loop.templates, times):
        groups.setdefault(template, []).append(t)
    return {k: (statistics.median(v) * 1e3, min(v) * 1e3, max(v) * 1e3, len(v))
            for k, v in groups.items()}


def machine_line(ref_ms):
    return (f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
            f"ref_kernel_ms={ref_ms:.3f} (nominal {NOMINAL_MS:.3f})")


def run_untraced(cls, seed, seconds, reference):
    cal = Calibrator()
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        workload = setup_workload(cls)
        cal.add(start, time.perf_counter() - start)
        cal.mark(force=True)
    setup_s = statistics.median(cal.calibrated())

    loop = Loop(workload, seed, reference)
    # Past the deadline the cycle in progress is finished, so every run
    # weighs the templates alike.
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline or index % len(cls.cycle):
        loop.step(index)
        index += 1
    rss = loop.rss if loop.rss is not None else peak_rss_mb()
    times = loop.times()
    problems = list(loop.problems)

    if seed != REFERENCE_SEED:
        problems += reference_pass(workload, reference)
    if cls.name == "bounds_session":
        found, checked = sympy_selftest(workload, reference)
        problems += found
        print(f"self-test: {checked} reference catalecticant ranks "
              f"recomputed with sympy")

    attempted = len(times)
    good = sum(loop.ok)
    p_tail, pct = tail(times)
    for template, (ms, lo, hi, n) in sorted(per_template(loop, times).items()):
        print(f"template {template}: median {ms:.1f} ms "
              f"(range {lo:.1f}..{hi:.1f}) over {n} jobs")
    print(f"job_tail_ms is p{pct:.1f} (Harrell-Davis) over {attempted} jobs, "
          f"{min(TAIL_BEYOND, attempted - 1)} jobs beyond it")
    print(machine_line(loop.cal.kernel_ms()))
    # Throughput per whole cycle, then the median over cycles: a slow phase
    # of the machine that the calibration misses spoils one cycle, not the
    # run.
    size = len(cls.cycle)
    cycles = range(0, attempted, size)
    metrics = {
        "jobs_per_s": statistics.median(
            sum(loop.ok[i:i + size]) / sum(times[i:i + size]) for i in cycles),
        "job_p50_ms": quantile(times, 0.5) * 1e3,
        "job_tail_ms": p_tail * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "ok_frac": good / attempted,
    }
    return attempted, attempted - good, problems, metrics


def run_traced(cls, seed, seconds, reference):
    from tracer import Tracer
    cap_s = 3 * seconds
    workload = setup_workload(cls)
    plain = Loop(workload, seed, reference)
    start = time.perf_counter()
    for index in range(cls.trace_prefix):
        plain.step(index)
        if time.perf_counter() - start > cap_s:
            break
    count = len(plain.ok)

    workload = cls(ROOT)
    fresh_package()
    tracer = Tracer()
    tracer.install(PACKAGE)
    tracer.active = True
    try:
        workload.setup(sys.modules[PACKAGE])
    finally:
        tracer.active = False
    traced = Loop(workload, seed, reference, tracer)
    for index in range(count):
        traced.step(index)

    problems = list(traced.problems)
    for index, (a, b) in enumerate(zip(plain.outputs, traced.outputs)):
        if a != b:
            problems.append(f"job {index}: traced output differs from untraced")
    ref_ms = traced.cal.kernel_ms()
    metrics = tracer.metrics(scale=NOMINAL_MS / ref_ms)
    metrics["run.ref_kernel_ms"] = ref_ms
    metrics["run.trace_overhead"] = sum(traced.times()) / sum(plain.times())
    spans = OUT_DIR / f"spans-{cls.name}-seed{seed}.jsonl"
    tracer.write(spans)
    print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    print(f"traced {count} jobs; outputs identical to the untraced pass: "
          f"{plain.outputs == traced.outputs}")
    print(machine_line(ref_ms))
    attempted = count
    return attempted, attempted - sum(traced.ok), problems, metrics


def write_reference():
    from jobs import WORKLOADS
    data = {"seed": REFERENCE_SEED, "workloads": {}}
    for name, cls in WORKLOADS.items():
        workload = setup_workload(cls)
        loop = Loop(workload, REFERENCE_SEED, [])
        for index in range(REFERENCE_JOBS):
            loop.step(index)
        if loop.problems:
            raise BenchError("; ".join(loop.problems))
        data["workloads"][name] = loop.outputs
        print(f"{name}: {len(loop.outputs)} reference outputs")
    REFERENCE_FILE.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    try:
        config = load_config()
        sys.path.insert(0, str(ROOT / "src"))
        if args.write_reference:
            write_reference()
            return 0
        from jobs import WORKLOADS
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(WORKLOADS)}")
        cls = WORKLOADS[args.workload]
        reference = load_reference(cls.name)
        run = run_traced if args.trace else run_untraced
        attempted, failed, problems, values = run(cls, args.seed, args.seconds,
                                                  reference)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    declared = config["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        print(f"perfbench: metrics {sorted(set(units) ^ set(values))} are not "
              f"both declared and measured", file=sys.stderr)
        return 2
    for p in problems[:20]:
        print(f"problem: {p}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
