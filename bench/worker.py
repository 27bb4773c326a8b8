"""One benchmark process: set up a workload, then run it for a number of seconds.

``run.py`` starts this script in fresh interpreters with BLAS threads pinned
to 1.  Usage::

    python3 bench/worker.py --workload NAME --seed N --out DIR --seconds S \
        --trace 0|1 --result FILE [--first-unit K] [--spans FILE] [--setup-only]

The process prints ``ready`` on standard output once the set-up is done, so
that the parent can time the set-up, and then times the reference loop of
``calibrate.py`` (the host's speed right after the set-up); with
``--setup-only`` it stops there and writes only that time.  With
``--trace 0`` it then runs whole units, from unit K on, while the next one
is expected to end within the seconds, and the result holds the wall time,
steps, gate outcome and surrounding reference-loop time of every
experiment, the digest of each experiment's outputs and the process's peak
resident memory.  With ``--trace 1`` it runs the workload's trace set
untraced and traced in turn until the seconds are up, and the result holds
the per-layer metrics and the trace self-check outcome; the spans of the last
traced repetition go to ``--spans``.  Outputs and configs stay under ``--out``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import sys
import time
import traceback


def run_experiments(exps, digests, record):
    """Run, time and gate each experiment; record(key, seconds, steps, ok, detail)."""
    from workloads import digest

    for exp in exps:
        t0 = time.perf_counter()
        try:
            info = exp.run()
        except Exception:  # a run that raises counts as failed; keep measuring
            record(exp.key, time.perf_counter() - t0, exp.steps, False,
                   traceback.format_exc(limit=3))
            continue
        elapsed = time.perf_counter() - t0
        try:
            ok, detail = exp.check(info)
            d = digest(exp.out_dir)
        except Exception:
            record(exp.key, elapsed, exp.steps, False, traceback.format_exc(limit=3))
            continue
        if digests.setdefault(exp.key, d) != d:
            ok, detail = False, detail + "; outputs differ from the first repetition"
        record(exp.key, elapsed, exp.steps, ok, detail)


def run_between_reference(exps, digests, record, reference):
    """run_experiments, timing the reference loop after each experiment.

    Appends (time, loop seconds) to ``reference`` and returns the (start, end)
    interval of each experiment.
    """
    import calibrate

    intervals = []
    for exp in exps:
        t0 = time.perf_counter()
        run_experiments([exp], digests, record)
        t1 = time.perf_counter()
        intervals.append((t0, t1))
        reference.append((t1, calibrate.loop_seconds()))
    return intervals


def measure(workload, seconds: float, first_unit: int) -> dict:
    """Run whole units while the next is expected to end within the seconds.

    Keeps [key, seconds, steps, reference-loop seconds] of each experiment.
    The reference loop is timed between every two experiments, and an
    experiment's reference-loop time is the mean of those timed within
    ``calibrate.WINDOW_S`` of it.  At least one unit runs.
    """
    import calibrate

    samples, failures, digests, intervals, reference = [], [], {}, [], []

    def record(key, elapsed, n_steps, ok, detail):
        samples.append([key, elapsed, n_steps])
        if not ok:
            failures.append({"key": key, "detail": detail})

    start = time.perf_counter()
    done = 0
    reference.append((start, calibrate.loop_seconds()))
    while True:
        intervals += run_between_reference(workload.unit(first_unit + done), digests, record,
                                           reference)
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:  # a unit of mean length would overrun
            break
    for sample, host in zip(samples, calibrate.host_times(reference, intervals)):
        sample.append(host)
    return {"samples": samples, "attempted": len(samples), "failures": failures,
            "units": done, "measured_s": elapsed, "digests": digests}


def measure_traced(workload, tracer, seconds: float, spans_path: str) -> dict:
    """Untraced and traced repetitions of the trace set, alternating, until the seconds are up."""
    import calibrate
    import spans

    attempted, failures, trace_failures, digests = 0, [], [], {}
    walls = []

    def record(key, elapsed, n_steps, ok, detail):
        nonlocal attempted
        attempted += 1
        walls.append(elapsed)
        if not ok:
            failures.append({"key": key, "detail": detail})

    def repetition(traced: bool) -> float:
        """Summed experiment time of one pass over the trace set, scaled to the reference host."""
        walls.clear()
        exps = [exp for unit in workload.trace_units() for exp in workload.unit(unit)]
        if traced:  # spans cover the timed run only, not the gate
            exps = [dataclasses.replace(exp, run=traced_run(exp.run, i))
                    for i, exp in enumerate(exps)]
        reference = [(time.perf_counter(), calibrate.loop_seconds())]
        intervals = run_between_reference(exps, digests, record, reference)
        hosts = calibrate.host_times(reference, intervals)
        return sum(wall * calibrate.REFERENCE_S / host for wall, host in zip(walls, hosts))

    def traced_run(run, exp_id):
        def wrapped():
            tracer.experiment = exp_id
            try:
                return run()
            finally:
                tracer.experiment = None
        return wrapped

    reps, untraced = [], []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        tracer.uninstall()
        untraced.append(repetition(False))
        tracer.install()
        tracer.reset()
        wall = repetition(True)
        counts, times, check_failures = spans.aggregate(tracer)
        reps.append({"wall": wall, "counts": counts, "times": times})
        trace_failures += check_failures
    if spans_path:
        tracer.write(spans_path)
    for i, rep in enumerate(reps[1:], start=1):
        if rep["counts"] != reps[0]["counts"]:
            diff = sorted(k for k in rep["counts"] if rep["counts"][k] != reps[0]["counts"].get(k))
            trace_failures.append("counts of repetition %d differ: %s" % (i, diff[:5]))
    times = {k: statistics.median(rep["times"][k] for rep in reps) for k in reps[0]["times"]}
    wall = statistics.median(rep["wall"] for rep in reps)
    return {"counts": reps[0]["counts"], "times": times, "repetitions": len(reps),
            "traced_wall_s": wall, "untraced_wall_s": statistics.median(untraced),
            "attempted": attempted, "failures": failures, "trace_failures": trace_failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--first-unit", type=int, default=0)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy as np
    import splitflow
    import calibrate
    import workloads

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
        tracer.experiment = -1  # the set-up spans

    os.makedirs(args.out, exist_ok=True)
    workloads.build_corpus()
    workload = workloads.WORKLOADS[args.workload](args.out, args.seed)
    print("ready", flush=True)

    # the host's speed right after the set-up, for run.py to scale the set-up time
    calibrate.warm_up()
    result = {"setup_host_s": statistics.median(calibrate.loop_seconds() for _ in range(3))}
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    result.update({"numpy": np.__version__, "splitflow": splitflow.__version__,
                   "splitflow_file": splitflow.__file__})
    if tracer is None:
        result.update(measure(workload, args.seconds, args.first_unit))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        import spans
        tracer.experiment = None
        _, setup_times, setup_failures = spans.aggregate(tracer)
        traced = measure_traced(workload, tracer, args.seconds, args.spans)
        tracer.uninstall()
        times = dict(traced.pop("times"))
        for key in ("problems.corpus_s", "problems.residual_checks_s"):
            times[key] = setup_times[key]
        counts = traced.pop("counts")
        metrics = spans.layer_metrics(counts, times)
        result["error_counts"] = {key: counts[key] for key in spans.ERROR_COUNTS}
        overhead = traced["traced_wall_s"] / traced["untraced_wall_s"] - 1.0
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        traced["trace_failures"] += setup_failures
        result.update(traced)
        result["metrics"] = metrics
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
