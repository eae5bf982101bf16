"""Benchmark runner for tsnoether.

    python3 bench/run.py --workload verify-1d --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout.  One process and one thread drive
a closed loop with one client: each task starts when the previous one has
returned, round after round of the workload's task list.  A run makes
ceil(seconds / round time on the reference machine) rounds.  BLAS is
pinned to one thread.  Every task's output is checked against the
mathematics outside its timed span.  A fixed kernel runs just before and
just after each timed span, and the end-to-end times are scaled by it to
the reference machine's unloaded speed (see speed.py); raw times stay in
the run record.

With --trace 0 the last stdout line is the JSON result with the end-to-end
metrics.  With --trace 1 two untraced rounds run first, then two rounds
with span wrappers installed and a scaling sweep at other sizes; the result
holds the per-layer metrics.  The run record (machine,
versions, seed, source digest) and, for traced runs, the spans are written
under bench/out/.  The program exits 2 without a result when the checkout
has no tsnoether sources or another copy of the package gets imported.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = 5
# A traced run makes this many untraced rounds, as the baseline of
# trace.overhead, and as many traced ones; then the sweep.
TRACED_ROUNDS = 2
TAIL_BEYOND = 10
# A run stops after this many times --seconds even if rounds remain, so that
# a series of runs keeps to its time budget.  The host's slow phases reach
# about 2x, so a run is cut short only in a slower one.
STOP_AFTER = 2.0
# Sizes of one untimed warm-up round per workload, small enough to be cheap.
WARMUP_SIZE = {"verify-1d": 200, "solve-1d": 0.2, "lattice-4d": 6}
# Speed probe kernels and weights for each workload (see speed.Probe).
PROBE_WEIGHTS = {
    "verify-1d": {"python": 0.8},
    "solve-1d": {"python": 0.85},
    "lattice-4d": {"python": 0.15, "arrays": 0.5},
}
END_TO_END = (
    ("task_s.p50", "s"),
    ("task_s.tail", "s"),
    ("points_per_s", "points/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WARMUP_SIZE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tsnoether" / "__init__.py").is_file():
        print(f"error: no tsnoether sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy is imported
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import numpy  # noqa: F401
    numpy_import_s = time.perf_counter() - start
    import speed

    probe = speed.Probe(PROBE_WEIGHTS[args.workload])
    imports = [probed(probe, import_package) for _ in range(SETUP_REPEATS)]
    tsnoether = sys.modules["tsnoether"]
    if not Path(tsnoether.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported tsnoether from {tsnoether.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import workloads  # binds the tsnoether modules imported last

    workload = workloads.WORKLOADS[args.workload]
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        built = []

        def build():
            t0 = time.perf_counter()
            built.append(workload.build(args.seed, work, workload.size))
            return time.perf_counter() - t0

        builds = [probed(probe, build) for _ in range(SETUP_REPEATS)]
        tasks = built[-1]
        setup_s = statistics.median(s for _, s in imports) + statistics.median(s for _, s in builds)
        run_round(workload.build(args.seed, work, WARMUP_SIZE[args.workload]), probe=probe)
        rounds = TRACED_ROUNDS if args.trace else max(1, math.ceil(args.seconds / workload.round_s))
        # Traced runs compare raw task times, traced against untraced.
        records = run_rounds(tasks, rounds, STOP_AFTER * args.seconds, None if args.trace else probe)
        if args.trace:
            metrics, units, extra, traced_records = traced(args, workload, work, tasks, records)
        else:
            metrics, extra = end_to_end(records, setup_s)
            units, traced_records = dict(END_TO_END), []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [r for r in records + traced_records if r["error"]]
    attempted = len(records) + len(traced_records)
    correct = all(r["known_defect"] for r in failures)
    record = run_record(args, tsnoether, numpy_import_s, imports, builds, probe)
    record["rounds"] = len(records) // len(tasks)
    record.update(extra)
    record["failures"] = sorted({(r["name"], r["error"], bool(r["known_defect"])) for r in failures})
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")

    print_summary(args, record, metrics, units, attempted)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def run_task(task, tracer=None, group="", probe=None):
    """Run one task, timing only the call into the library.  With a probe,
    also its time scaled to the reference speed (``scaled_s``): the probe's
    latest sample, taken after the previous task, is the one before."""
    error = None
    before = probe.samples[-1] if probe else None
    with tracer.task(task.name, task.points, group) if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            result = task.run()
        except (Exception, SystemExit) as exc:  # a raising task fails; the loop goes on
            error = f"raised {exc!r}"
        elapsed = time.perf_counter() - t0
    after = probe() if probe else None
    if error is None:
        try:
            error = task.check(result)
        except Exception as exc:
            error = f"check raised {exc!r}"
    record = {"name": task.name, "points": task.points, "s": elapsed, "error": error, "known_defect": task.known_defect}
    if probe:
        record["scaled_s"] = probe.scale(elapsed, before, after)
    return record


def run_round(tasks, tracer=None, group="", probe=None):
    if probe:
        probe()
    return [run_task(task, tracer, group, probe) for task in tasks]


def run_rounds(tasks, rounds: int, limit_s: float, probe=None):
    """``rounds`` whole rounds, or fewer once ``limit_s`` has passed."""
    records = []
    start = time.perf_counter()
    for _ in range(rounds):
        records += run_round(tasks, probe=probe)
        if time.perf_counter() - start >= limit_s:
            break
    return records


def probed(probe, measure):
    """(raw, scaled) seconds of ``measure()``, which returns its raw
    seconds, with the probe run just before and just after it."""
    before = probe()
    raw = measure()
    return raw, probe.scale(raw, before, probe())


def import_package() -> float:
    """Seconds to import tsnoether afresh, numpy being loaded already."""
    for name in [n for n in sys.modules if n == "tsnoether" or n.startswith("tsnoether.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("tsnoether.cli")
    return time.perf_counter() - t0


def tail(times: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    leaves at least TAIL_BEYOND samples above it; the maximum when there
    are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def task_times(records) -> dict:
    by_name = {}
    for r in records:
        by_name.setdefault(r["name"], []).append(r["s"])
    return by_name


def end_to_end(records, setup_s: float):
    """Each sample stands for its task's median scaled time over the run's
    rounds.

    The machine is shared and its speed changes by up to 2x within seconds,
    for tens of seconds at a time, so raw task times follow the host's
    phase.  Scaled times (see speed.py) divide that out; the median over
    rounds drops the rounds a probe misjudged.  Percentiles and throughput
    are read from those samples.
    """
    scaled = {}
    for r in records:
        scaled.setdefault(r["name"], []).append(r["scaled_s"])
    typical = {name: statistics.median(s) for name, s in scaled.items()}
    times = [typical[r["name"]] for r in records]
    value, pct, beyond = tail(times)
    metrics = {
        "task_s.p50": statistics.median(times),
        "task_s.tail": value,
        "points_per_s": sum(r["points"] for r in records) / sum(times),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {
        "task_scaled_s": typical,
        "task_raw_s": {name: statistics.median(s) for name, s in task_times(records).items()},
        "tasks": len(records),
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "fail_rate": sum(1 for r in records if r["error"]) / len(records),
    }
    return metrics, extra


def traced(args, workload, work, tasks, records):
    """TRACED_ROUNDS traced rounds at the default size, then one at each
    sweep size.  Per task the fastest traced round supplies the layer times,
    as the fastest untraced round supplies the end-to-end ones."""
    import tracing

    phases = [(f"round-{k}", tasks) for k in range(TRACED_ROUNDS)]
    phases += [(f"sweep-{size}", workload.build(args.seed, work, size, only)) for size, only in workload.sweep]
    tracer = tracing.Tracer()
    tracer.install()
    extra_records = []
    try:
        for group, group_tasks in phases:
            for task in group_tasks:
                for L in task.lagrangians:
                    tracer.count_densities(L)
            extra_records += run_round(group_tasks, tracer, group)
    finally:
        tracer.remove()
    fastest = {}
    for k in range(TRACED_ROUNDS):
        for t in tracer.group(f"round-{k}"):
            span = tracer.spans[t["span"]]
            if t["name"] not in fastest or span[3] - span[2] < fastest[t["name"]][0]:
                fastest[t["name"]] = (span[3] - span[2], t)
    untraced = {name: min(s) for name, s in task_times(records).items()}
    sweep = [t for group, _ in phases[TRACED_ROUNDS:] for t in tracer.group(group)]
    metrics, gap = tracer.metrics([t for _, t in fastest.values()], untraced, sweep)
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
        for task in tracer.tasks:
            fh.write(json.dumps({"task": task}) + "\n")
        for sid, (parent, name, t0, t1) in enumerate(tracer.spans):
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": t0, "end": t1}) + "\n")
    extra = {"spans": len(tracer.spans), "accounting_gap_s": gap}
    return metrics, dict(tracing.PER_LAYER), extra, extra_records


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_record(args, tsnoether, numpy_import_s: float, imports: list, builds: list, probe) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": cpu_record(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "blas": blas_name(numpy),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "tsnoether_file": tsnoether.__file__,
        "numpy_import_s": numpy_import_s,
        "import_s": [raw for raw, _ in imports],
        "import_scaled_s": [scaled for _, scaled in imports],
        "build_s": [raw for raw, _ in builds],
        "build_scaled_s": [scaled for _, scaled in builds],
        "probe": {
            "weights": probe.weights,
            "probes": len(probe.samples),
            "median_slowdown": statistics.median(probe.samples),
            "min_slowdown": min(probe.samples),
            "max_slowdown": max(probe.samples),
        },
    }


def cpu_record() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {"model": model, "caches": caches}


def blas_name(numpy) -> str | None:
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, ValueError):
        return None


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """SHA-256 over the package sources, identifying the measured code when
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "tsnoether").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def print_summary(args, record, metrics, units, attempted) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {record['rounds']}  tasks {attempted}")
    print(f"  machine: {record['cpu']['model']}  caches {record['cpu']['caches']}  nproc {record['nproc']}")
    print(f"  python {record['python']}  numpy {record['numpy']}  blas {record['blas']} x {record['blas_threads']} thread(s)")
    print(f"  commit {record['git_commit']}  src sha256 {record['src_sha256'][:16]}")
    for name in units:
        note = ""
        if name == "task_s.tail":
            note = f"  (p{record['tail_percentile']:.1f}, {record['tail_beyond']} of {record['tasks']} samples beyond)"
        print(f"  {name:44s} {metrics[name]:.6g} {units[name]}{note}")
    if "fail_rate" in record:
        print(f"  {'fail_rate':44s} {record['fail_rate']:.6g} (failed / attempted)")
    probe = record["probe"]
    print(f"  speed probe {probe['weights']}: slowdown median {probe['median_slowdown']:.3g}, range {probe['min_slowdown']:.3g}-{probe['max_slowdown']:.3g} over {probe['probes']} probes")
    if "accounting_gap_s" in record:
        print(f"  spans {record['spans']}; largest gap between a task and its spans' self times {record['accounting_gap_s']:.3g} s")
    for name, error, known in record["failures"]:
        print(f"  {'known defect' if known else 'WRONG'}: {name}: {error}")


if __name__ == "__main__":
    sys.exit(main())
