"""crystalcalc benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Inputs are made from the seed (see ``workloads.py``).  The run
repeats passes over the workload's jobs until ``--seconds`` have elapsed and
checks every output of every pass against its reference.

With ``--trace 0`` it reports the end-to-end metrics: the median cost of a
pass in reference-kernel units (its wall time divided by the time of a fixed
kernel sampled during the pass, see ``speed.py``), the median set-up time of
a fresh process (measured in child processes and scaled to a machine on
which the kernel takes ``speed.REFERENCE_KERNEL_S``), the peak resident
memory of this process, and the number of certified cells and round trips
per pass.  The plain wall and set-up times are in the results file.

With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (``tracer.py``); the tracing overhead
is the difference of the two median pass times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The details of the
run (every sample, report hashes, failures, the environment, and in traced
runs all span statistics and the spans themselves) are written under
``perfbench/results/``.
"""

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 11

# name, unit, better: the end-to-end metrics of an untraced run
END_TO_END = [
    ("wall_norm", "kernels", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("cells_certified", "count", "higher"),
]

# name, unit, better: the per-layer metrics of a traced run.  A "_pct" figure
# is a span's self or cumulative time as a share of the traced pass, and
# "<layer>.self_pct" sums the self time of every span of that layer; the
# seconds behind each share are in the results file.  A layer a workload does
# not use reads 0 there, which is a result and not a missing measurement.
PER_LAYER = [
    ("series.mul.calls", "count", "lower"),
    ("series.mul.self_pct", "%", "lower"),
    ("series.pd_substitute.calls", "count", "lower"),
    ("series.pd_substitute.self_pct", "%", "lower"),
    ("series.gamma_of_series.self_pct", "%", "lower"),
    ("series.inverse.self_pct", "%", "lower"),
    ("series.self_pct", "%", "lower"),
    ("crystal.face_matrix.calls", "count", "lower"),
    ("crystal.face_matrix.self_pct", "%", "lower"),
    ("crystal.face_matrix.distinct_ratio", "ratio", "higher"),
    ("crystal.DoubleComplex.builds", "count", "lower"),
    ("crystal.tot_matrix.self_pct", "%", "lower"),
    ("crystal.total_cohomology.calls", "count", "lower"),
    ("crystal.self_pct", "%", "lower"),
    ("linalg.smith_valuations.calls", "count", "lower"),
    ("linalg.smith_valuations.self_pct", "%", "lower"),
    ("linalg.smith_valuations.entries", "count", "lower"),
    ("linalg.kernel.calls", "count", "lower"),
    ("linalg.kernel.self_pct", "%", "lower"),
    ("linalg.kernel.nnz_in", "count", "lower"),
    ("linalg.HowellBasis.self_pct", "%", "lower"),
    ("linalg.subquotient.self_pct", "%", "lower"),
    ("linalg.Matrix.mul.self_pct", "%", "lower"),
    ("linalg.self_pct", "%", "lower"),
    ("derham.dmat.calls", "count", "lower"),
    ("derham.dmat.self_pct", "%", "lower"),
    ("derham.dmat.rows", "count", "lower"),
    ("derham.basis.self_pct", "%", "lower"),
    ("derham.verify_contraction.self_pct", "%", "lower"),
    ("derham.self_pct", "%", "lower"),
    ("smoothlift.Presentation.reduce.calls", "count", "lower"),
    ("smoothlift.Presentation.reduce.self_pct", "%", "lower"),
    ("smoothlift.fill_mapping_boundary.cum_pct", "%", "lower"),
    ("smoothlift.build_homotopy.cum_pct", "%", "lower"),
    ("smoothlift.self_pct", "%", "lower"),
    ("simplicial.fill_boundary.cum_pct", "%", "lower"),
    ("simplicial.LevelTower.face.calls", "count", "lower"),
    ("simplicial.checks.cum_pct", "%", "lower"),
    ("simplicial.self_pct", "%", "lower"),
    ("localized.cech_descent_check.cum_pct", "%", "lower"),
    ("localized.self_pct", "%", "lower"),
    ("cli.load_algebra.cum_pct", "%", "lower"),
    ("cli.main.cum_pct", "%", "lower"),
    ("cli.self_pct", "%", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unspanned_s", "s", "lower"),
]


def load_package():
    """Import crystalcalc from this checkout's sources, or stop."""
    init = SRC / "crystalcalc" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: no crystalcalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import crystalcalc
    if Path(crystalcalc.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported crystalcalc from {crystalcalc.__file__}, "
                 f"not from {SRC}")


def environment(workload, seed):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "crystalcalc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": nproc,
        "cpu": cpu,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout's git directory, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def probe_setup(algebras):
    """Seconds from spawning a fresh interpreter until crystalcalc is
    imported and the workload's algebras are loaded, and the median time of
    the reference kernel in that process right after."""
    specs = [":".join(str(v) for v in spec) for spec in algebras]
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), repr(start), str(SRC),
         *specs],
        capture_output=True, text=True, timeout=120, check=True)
    elapsed, kernel = done.stdout.split()
    return float(elapsed), float(kernel)


def run_pass(jobs, tracer=None):
    """Wall time of one pass over the jobs, and each job's (output, error)."""
    results = []
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        try:
            results.append((job.run(), None))
        except Exception:  # a crashing job is a failed job
            results.append((None, traceback.format_exc()))
    return time.perf_counter() - start, results


class Ledger:
    """Attempted and failed jobs, certified cells per pass, report hashes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.cells = []
        self.digests = {}

    def check(self, jobs, results, label):
        cells = 0
        for job, (output, error) in zip(jobs, results):
            self.attempted += 1
            if error is None:
                try:
                    certified = job.check(output)
                    digest = job.digest(output)
                except Exception as exc:  # any check error fails the job
                    error = f"{type(exc).__name__}: {exc}"
            if error is None:
                first = self.digests.setdefault(job.name, digest)
                if digest != first:
                    error = f"report hash {digest[:12]} differs from {first[:12]}"
            if error is None:
                cells += certified
            else:
                self.fail(f"{label}: {job.name}: {error}")
        self.cells.append(cells)

    def fail(self, message):
        self.failed += 1
        self.failures.append(message)


def spread(values):
    """Median, quartiles and count of a sample."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def measure(jobs, seconds, ledger, sampler):
    """Passes until ``seconds`` have elapsed; for each, its wall time less
    the sampler's own time, and that divided by the mean kernel time."""
    walls, norms = [], []
    start = time.perf_counter()
    with sampler:
        while not walls or time.perf_counter() - start < seconds:
            first = len(sampler.samples)
            wall, results = run_pass(jobs)
            ticks = sampler.samples[first:] or sampler.samples[-1:]
            walls.append(wall - sum(sampler.samples[first:]))
            norms.append(walls[-1] / statistics.mean(ticks))
            ledger.check(jobs, results, f"pass {len(walls)}")
    return walls, norms


def measure_traced(jobs, seconds, ledger, new_tracer):
    """Alternate untraced and traced passes; return both walls and tracers."""
    walls, traced_walls, tracers = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, results = run_pass(jobs)
        walls.append(wall)
        ledger.check(jobs, results, f"untraced pass {len(walls)}")
        tr = new_tracer()
        with tr:
            wall, results = run_pass(jobs, tr)
        traced_walls.append(wall)
        tracers.append(tr)
        ledger.check(jobs, results, f"traced pass {len(tracers)}")
        if tr.counts() != tracers[0].counts():
            ledger.fail(f"traced pass {len(tracers)}: span counts differ "
                        "from the first traced pass")
    return walls, traced_walls, tracers


def layer_metrics(walls, traced_walls, tracers):
    """Every per-layer figure: counts of the first traced pass (all traced
    passes agree, or the run failed) and median times over traced passes."""
    first = tracers[0]
    out = dict(first.counts())

    def times(name, seconds):
        out[f"{name}_s"] = statistics.median(seconds)
        out[f"{name}_pct"] = statistics.median(
            100 * t / wall for t, wall in zip(seconds, traced_walls))

    for name in first.stats:
        for field in ("self", "cum"):
            times(f"{name}.{field}", [getattr(tr.stats[name], f"{field}_s")
                                      for tr in tracers])
    for layer in first.layer_self_s():
        times(f"{layer}.self", [tr.layer_self_s()[layer] for tr in tracers])
    calls = out["crystal.face_matrix.calls"]
    out["crystal.face_matrix.distinct_ratio"] = (
        out["crystal.face_matrix.distinct"] / calls if calls else 0.0)
    out["crystal.DoubleComplex.builds"] = first.stats[
        "crystal.DoubleComplex"].calls
    traced = statistics.median(traced_walls)
    untraced = statistics.median(walls)
    out["trace.wall_s"] = traced
    out["trace.untraced_wall_s"] = untraced
    out["trace.overhead_s"] = traced - untraced
    out["trace.unspanned_s"] = statistics.median(
        wall - sum(end - start for _n, start, end, _id, parent in tr.spans
                   if parent == 0)
        for wall, tr in zip(traced_walls, tracers))
    return out


def write_spans(path, tracers):
    """All spans of every traced pass, one JSON array per line."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write('["pass", "name", "start", "end", "id", "parent"]\n')
        for k, tr in enumerate(tracers, 1):
            fh.writelines(f'[{k}, "{name}", {start!r}, {end!r}, {span_id}, '
                          f'{parent}]\n'
                          for name, start, end, span_id, parent in tr.spans)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_package()
    import speed
    import tracer     # these two import crystalcalc, so only now
    import workloads
    if args.workload not in workloads.COMMANDS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.COMMANDS)}")

    jobs = workloads.build(args.workload, args.seed)
    ledger = Ledger()
    record = {"environment": environment(args.workload, args.seed),
              "seconds": args.seconds, "trace": args.trace,
              "jobs": [job.name for job in jobs]}
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        walls, traced_walls, tracers = measure_traced(
            jobs, args.seconds, ledger, tracer.Tracer)
        figures = layer_metrics(walls, traced_walls, tracers)
        metrics = {name: {"value": figures[name], "unit": unit}
                   for name, unit, _better in PER_LAYER}
        record["untraced_wall_s"] = spread(walls)
        record["traced_wall_s"] = spread(traced_walls)
        record["layers"] = figures
        write_spans(stem.with_suffix(".spans.jsonl.gz"), tracers)
    else:
        algebras = workloads.setup_algebras(args.workload, args.seed)
        probes = [probe_setup(algebras) for _ in range(SETUP_PROBES)]
        setups = [elapsed for elapsed, _kernel in probes]
        sampler = speed.SpeedSampler()
        walls, norms = measure(jobs, args.seconds, ledger, sampler)
        figures = {
            "wall_norm": statistics.median(norms),
            "setup_s": statistics.median(
                elapsed * speed.REFERENCE_KERNEL_S / kernel
                for elapsed, kernel in probes),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cells_certified": min(ledger.cells),
        }
        metrics = {name: {"value": figures[name], "unit": unit}
                   for name, unit, _better in END_TO_END}
        record["wall_s"] = spread(walls)
        record["wall_norm"] = spread(norms)
        record["kernel_s"] = spread(sampler.samples)
        record["setup_raw_s"] = spread(setups)
        record["setup_kernel_s"] = spread([k for _e, k in probes])
    record.update(
        metrics=metrics, attempted=ledger.attempted, failed=ledger.failed,
        fail_ratio=ledger.failed / ledger.attempted,
        cells_per_pass=ledger.cells, failures=ledger.failures,
        report_sha256=ledger.digests)
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    for failure in ledger.failures:
        print(failure, file=sys.stderr)
    print(json.dumps({"correct": ledger.failed == 0,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
