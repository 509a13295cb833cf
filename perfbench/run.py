"""Benchmark of the adgm matcher: named workloads, checked outputs, metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli_pairwise --seed 1 --seconds 30 --trace 0

``--workload`` takes one name or a comma-separated list.  One workload runs
in this process; several run one after another, each in a process of its
own, so that each reports its own peak memory.  Each workload first sets up
``SETUP_REPS`` times (a fresh import of the package plus one uncounted
warm-up instance) and then runs its pipeline, one seeded input after
another, until ``--seconds`` of pipeline time have been measured.
Correctness checks run outside the timed region; a pipeline run that raises
or fails a check counts as failed and makes the command exit with code 1.

With ``--trace 0`` the end-to-end metrics are measured with nothing
wrapped.  With ``--trace 1`` every instance runs both traced and untraced;
the per-layer metrics come from the spans of the traced runs, and the
tracing overhead compares the two.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  The full result, with the environment, and the
spans of a traced run are written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

# One BLAS thread; set before numpy is first imported, just below.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import LAYER_METRICS, SpanStats, Tracer  # noqa: E402
from workloads import WORKLOADS, load_adgm  # noqa: E402

SETUP_REPS = 3
# Every set-up pushes the same input through, whatever --seed is, so that
# set-up time does not vary with the difficulty of a seeded input.
WARMUP_SEED = 0
SHOWN_TRACEBACKS = 3

# End-to-end metrics on the last line with --trace 0, in the order of
# BENCHMARK.json.  The report above it also prints instances_per_s,
# solve_s_p50, accuracy_mean, global_opt_rate and failed_ratio, which vary
# too much from run to run to gate, or are 0 on sound code (see README.md).
GATED = ("instance_s_p50", "peak_rss_mb", "setup_s")


def _root():
    return Path(__file__).resolve().parent.parent


def environment(seed):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "seed": seed,
    }


def instance_seed(seed, index):
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def run_one(workload, prepared, tracer=None, index=0):
    """Time one pipeline run on ``prepared`` and check it.

    Returns the seconds it took, its Outcome (None when it raised) and the
    traceback when it raised.  What the run produced is dropped on return,
    so that it adds nothing to the next run's peak memory.
    """
    if tracer is not None:
        tracer.install()
    start = perf_counter()
    try:
        try:
            with tracer.instance(index) if tracer is not None else nullcontext():
                state = workload.run(prepared)
        finally:
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        return elapsed, workload.check(state), None
    except Exception:
        return elapsed, None, traceback.format_exc()


def setup(kind, workdir):
    """Set up SETUP_REPS times; return the last workload and every set-up time."""
    times = []
    workload = None
    for _ in range(SETUP_REPS):
        if workload is not None:
            workload.close()
        start = perf_counter()
        workload = kind(load_adgm(), workdir)
        loaded = perf_counter() - start
        elapsed, outcome, error = run_one(workload, workload.prepare(WARMUP_SEED, warmup=True))
        times.append(loaded + elapsed)
        if outcome is None or outcome.failures:
            raise RuntimeError(f"warm-up instance failed: {error or outcome.failures}")
    return workload, times


def measure(workload, seed, seconds, tracer):
    """Run the pipeline on seeded inputs until ``seconds`` of it are measured.

    With a tracer every input runs twice, traced and untraced, in an order
    that alternates from input to input, so that the tracing overhead
    compares equal work.
    """
    rows = []  # (index, traced, seconds, Outcome or None when it raised)
    timed = 0.0
    shown = 0
    index = 0
    while timed < seconds or index == 0:
        passes = [False] if tracer is None else [index % 2 == 0, index % 2 == 1]
        for traced in passes:
            elapsed, outcome, error = run_one(
                workload, workload.prepare(instance_seed(seed, index)),
                tracer if traced else None, index,
            )
            if error and shown < SHOWN_TRACEBACKS:
                print(error, end="", file=sys.stderr)
                shown += 1
            timed += elapsed
            for failure in (outcome.failures if outcome else [])[: max(0, SHOWN_TRACEBACKS - shown)]:
                print(f"check failed on input {index}: {failure}", file=sys.stderr)
                shown += 1
            rows.append((index, traced, elapsed, outcome))
        index += 1
    return rows


def _metric(value, unit, n=None):
    entry = {"value": float(value), "unit": unit}
    if n is not None:
        entry["n"] = n
    return entry


def end_to_end(rows, setup_times):
    done = [(t, o) for _, _, t, o in rows if o is not None]
    instances = sum(o.instances for _, o in done)
    times = [t / o.instances for t, o in done]
    solves = [s for _, o in done for s in o.solve_s]
    accuracy = [a for _, o in done for a in o.accuracy]
    global_opt = [g for _, o in done for g in o.global_opt]
    failed = sum(1 for _, _, _, o in rows if o is None or o.failures)
    total = sum(t for _, _, t, _ in rows)
    metrics = {
        "instances_per_s": _metric(instances / total if total else 0.0, "1/s", instances),
        "instance_s_p50": _metric(statistics.median(times) if times else 0.0, "s", len(times)),
        "solve_s_p50": _metric(statistics.median(solves) if solves else 0.0, "s", len(solves)),
        "accuracy_mean": _metric(statistics.fmean(accuracy) if accuracy else 0.0, "ratio", len(accuracy)),
        "failed_ratio": _metric(failed / len(rows), "ratio", len(rows)),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": _metric(statistics.median(setup_times), "s", len(setup_times)),
    }
    if global_opt:
        metrics["global_opt_rate"] = _metric(statistics.fmean(global_opt), "ratio", len(global_opt))
    samples = {"instance_s": times, "solve_s": solves, "setup_s": list(setup_times)}
    return metrics, samples, failed


def per_layer(rows, tracer):
    traced = [(i, o.instances) for i, tr, _, o in rows if tr and o is not None]
    stats = SpanStats(tracer, [i for i, _ in traced], sum(n for _, n in traced))
    metrics = {name: _metric(fn(stats), unit) for name, unit, _, fn, _ in LAYER_METRICS}

    def rate(flag):
        picked = [(t, o.instances) for _, tr, t, o in rows if tr == flag and o is not None]
        return sum(n for _, n in picked) / sum(t for t, _ in picked) if picked else float("nan")

    metrics["trace.overhead"] = _metric(rate(False) / rate(True) - 1.0, "ratio")
    return metrics


def _result_file(out_dir, name, trace):
    return out_dir / f"result-{name}{'-trace' if trace else ''}.json"


def run_workload(name, args, out_dir):
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        workload, setup_times = setup(WORKLOADS[name], workdir)
        try:
            tracer = Tracer(workload.m) if args.trace else None
            rows = measure(workload, args.seed, args.seconds, tracer)
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    e2e, samples, failed = end_to_end(rows, setup_times)
    result = {
        "workload": name,
        "environment": environment(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": len(rows),
        "failed": failed,
        "end_to_end": e2e,
        "samples": samples,
    }
    if tracer is not None:
        result["per_layer"] = per_layer(rows, tracer)
        tracer.save(out_dir / f"spans-{name}.npz")
    _result_file(out_dir, name, args.trace).write_text(json.dumps(result, indent=1) + "\n")
    return result


def run_in_child(name, args, out_dir):
    """Run one workload in a fresh process and read back its result.

    peak_rss_mb is the peak of the process, and a process's peak never
    falls, so each workload of a multi-workload run gets a process of its
    own.  The child's report is dropped; this process prints it again.
    """
    result_file = _result_file(out_dir, name, args.trace)
    result_file.unlink(missing_ok=True)
    subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.DEVNULL, check=False,
    )
    if not result_file.is_file():
        raise RuntimeError(f"workload {name} ended without a result")
    return json.loads(result_file.read_text())


def report(result):
    env = result["environment"]
    blas = ",".join(f"{k}={v}" for k, v in env["blas_threads"].items())
    print(
        f"# {result['workload']}: python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}, nproc {env['nproc']}, cpu {env['cpu']}, "
        f"{env['blas']} ({blas}), seed {env['seed']}, seconds {result['seconds']}"
    )
    moves = {m[0]: m[4] for m in LAYER_METRICS}
    moves["trace.overhead"] = "traced against untraced instances_per_s, minus 1"
    metrics = result.get("per_layer", result["end_to_end"])
    for name, m in metrics.items():
        count = f"  (n={m['n']})" if "n" in m else ""
        note = f"  -> {moves[name]}" if name in moves else ""
        print(f"{result['workload']:>13} {name:<30} {m['value']:>16.6g} {m['unit']}{count}{note}")
    print(f"{result['workload']:>13} attempted {result['attempted']}, failed {result['failed']}")


def summary_line(results, trace):
    if trace:
        names = [m[0] for m in LAYER_METRICS] + ["trace.overhead"]
        key = "per_layer"
    else:
        names, key = GATED, "end_to_end"
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for name in names:
            m = result[key][name]
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help=f"one or more of {', '.join(WORKLOADS)}, comma-separated")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.workloads = [w.strip() for w in args.workload.split(",") if w.strip()]
    unknown = [w for w in args.workloads if w not in WORKLOADS]
    if not args.workloads or unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    return args


def main(argv=None):
    root = _root()
    src = root / "src"
    if not (src / "adgm" / "__init__.py").is_file():
        print(f"error: the adgm package is missing under {src}", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))

    args = parse_args(argv)
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    if len(args.workloads) == 1:
        results = [run_workload(args.workloads[0], args, out_dir)]
    else:
        results = [run_in_child(name, args, out_dir) for name in args.workloads]
    for result in results:
        report(result)
    line = summary_line(results, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
