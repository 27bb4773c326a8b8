"""splitflow benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload corpus-runs --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run it from the repository root; it imports splitflow from ``src/``.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
code is 0 when the benchmark ran, whether or not every gate passed, and
nonzero without a result line when it could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import signal
import tempfile
import threading
import time

import calibrate

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("corpus-runs", "avd-dense", "multistart-sweep")
ROUNDS = 8  # measuring processes per untraced run, each after a set-up-only process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    pass


def time_limit(seconds: int) -> float:
    """Seconds a workload's run may take: its measuring time, set-ups and last units."""
    return 2.0 * seconds + 60.0


def child_env(tmp: str) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = tmp
    return env


def run_worker(args, env, tmp, deadline):
    """Run worker.py to its end; return (set-up seconds, result dict).

    The set-up time runs from the start of the process to its ``ready`` line.
    ``result["setup_host_s"]`` becomes the mean of the reference loop's time
    right before the start and right after the ``ready`` line.  The process
    is killed if it is still running at the deadline.
    """
    result_path = os.path.join(tmp, "result.json")
    cmd = [sys.executable, os.path.join(BENCH, "worker.py")] + args + ["--result", result_path]
    with open(os.path.join(tmp, "worker.err"), "w+", encoding="utf-8") as err:
        host = calibrate.loop_seconds()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=err,
                                text=True)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if code != 0 or ready.strip() != "ready":
            err.seek(0)
            why = "timed out" if time.monotonic() >= deadline else "exit %d" % code
            raise BenchError("worker %s failed (%s):\n%s"
                             % (" ".join(args), why, err.read()[-3000:]))
    with open(result_path, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_host_s"] = 0.5 * (host + result["setup_host_s"])
    return setup, result


def per_experiment(samples):
    """Median scaled time, steps and repetition count of each distinct experiment.

    Each repetition's wall time is scaled to the reference host by the
    reference loop timed around it, so that a slow phase of the host, which
    slows both alike, cancels out.
    """
    times, steps = {}, {}
    for key, elapsed, n_steps, host in samples:
        times.setdefault(key, []).append(elapsed * calibrate.REFERENCE_S / host)
        steps[key] = n_steps
    return ({key: statistics.median(v) for key, v in times.items()}, steps,
            [len(v) for v in times.values()])


def tail(times):
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples beyond it.

    None below 5 * TAIL_BEYOND samples, where that percentile would lie below p80.
    """
    n = len(times)
    if n < 5 * TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(times)[n - TAIL_BEYOND - 1]


def provenance(seed: int) -> dict:
    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        pass
    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "splitflow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_commit": commit, "source_sha256": src_hash.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "cpu_model": cpu, "blas_threads": {var: "1" for var in THREAD_VARS}, "seed": seed}


def run_untraced(workload, seed, seconds, tmp, env, deadline):
    """ROUNDS measuring processes in turn, each continuing the units of the last.

    Each measuring process follows a set-up-only process, and the set-up of
    both is timed, so the set-up samples are spread over the run like the
    experiments are.  Every time is scaled to the reference host of
    ``calibrate.py`` by the reference loop timed around it.
    """
    setups, rss, samples, failures, digests = [], [], [], [], {}
    measured, unit = 0.0, 0
    out = os.path.join(tmp, "run")
    for r in range(ROUNDS):
        budget = (seconds - measured) / (ROUNDS - r)
        setup, res = run_worker(["--workload", workload, "--seed", str(seed), "--out", out,
                                 "--setup-only"], env, tmp, deadline)
        shutil.rmtree(out)
        setups.append((setup, res["setup_host_s"]))
        setup, res = run_worker(["--workload", workload, "--seed", str(seed), "--out", out,
                                 "--seconds", repr(budget), "--trace", "0",
                                 "--first-unit", str(unit)], env, tmp, deadline)
        shutil.rmtree(out)
        setups.append((setup, res["setup_host_s"]))
        rss.append(res["peak_rss_mb"])
        samples += res["samples"]
        failures += res["failures"]
        for key, d in res["digests"].items():
            if digests.setdefault(key, d) != d:
                failures.append({"key": key, "detail": "outputs of process %d differ from "
                                 "the first repetition" % r})
        measured += res["measured_s"]
        unit += res["units"]
    res.update(samples=samples, failures=failures, attempted=len(samples), units=unit)
    med, steps, reps = per_experiment(samples)
    times = sorted(med.values())
    scaled_setups = [wall * calibrate.REFERENCE_S / host for wall, host in setups]
    raw = [elapsed for _, elapsed, _, _ in samples]
    metrics = {
        "setup_s": {"value": statistics.median(scaled_setups), "unit": "s"},
        "run_s_p50": {"value": statistics.median(times), "unit": "s"},
        "traj_steps_per_s": {"value": sum(steps.values()) / sum(times), "unit": "1/s"},
        "peak_rss_mb": {"value": max(rss), "unit": "MB"},
    }
    n, failed = res["attempted"], len(res["failures"])
    lines = [
        "setup_s           %10.4f s     median of %d set-up processes scaled to the reference "
        "host" % (metrics["setup_s"]["value"], len(setups)),
        "run_s_p50         %10.4f s     median of %d distinct experiments, each its median of "
        "%d to %d repetitions" % (metrics["run_s_p50"]["value"], len(times), min(reps),
                                  max(reps)),
    ]
    tl = tail(times)
    if tl is None:
        lines.append("run_s_tail               n/a s     needs %d distinct experiments, "
                     "ran %d" % (5 * TAIL_BEYOND, len(times)))
    else:
        lines.append("run_s_tail        %10.4f s     p%.1f of %d distinct experiments, %d "
                     "beyond it" % (tl[1], tl[0], len(times), TAIL_BEYOND))
    lines += [
        "traj_steps_per_s  %10.1f 1/s   %d steps and iterations in %.3f s, one median pass"
        % (metrics["traj_steps_per_s"]["value"], sum(steps.values()), sum(times)),
        "peak_rss_mb       %10.2f MB    largest ru_maxrss of %d measuring processes"
        % (metrics["peak_rss_mb"]["value"], len(rss)),
        "failed_share      %10.4f ratio %d of %d experiments failed their gate"
        % (failed / n, failed, n),
        "(unscaled: %d experiment runs in %d units, wall median %.4f s, mean %.4f s; "
        "set-up wall median %.4f s; the reference loop took %.2f times REFERENCE_S)"
        % (len(raw), res["units"], statistics.median(raw), statistics.fmean(raw),
           statistics.median(wall for wall, _ in setups),
           statistics.fmean(h for _, _, _, h in samples) / calibrate.REFERENCE_S),
    ]
    return metrics, n, res, lines


def run_traced(workload, seed, seconds, tmp, env, deadline):
    """One traced process; its last traced repetition's spans stay in .bench_tmp/traces/."""
    traces = os.path.join(ROOT, ".bench_tmp", "traces")
    os.makedirs(traces, exist_ok=True)
    spans_path = os.path.join(traces, "%s-seed%d.npz" % (workload, seed))
    _, res = run_worker(["--workload", workload, "--seed", str(seed), "--out",
                         os.path.join(tmp, "run"), "--seconds", str(seconds), "--trace", "1",
                         "--spans", spans_path], env, tmp, deadline)
    metrics = res["metrics"]
    lines = ["%-45s %14.6g %s" % (name, m["value"], m["unit"]) for name, m in metrics.items()]
    lines.append("error counts (0 on a correct program, not declared): "
                 + ", ".join("%s %d" % kv for kv in sorted(res["error_counts"].items())))
    lines.append("traced %d repetition(s): median %.3f s traced against %.3f s untraced; "
                 "spans of the last in %s" % (res["repetitions"], res["traced_wall_s"],
                                              res["untraced_wall_s"],
                                              os.path.relpath(spans_path, ROOT)))
    return metrics, res["attempted"], res, lines


def run_workload(workload, seed, seconds, trace, tmp):
    env = child_env(tmp)
    run = run_traced if trace else run_untraced
    metrics, attempted, res, lines = run(workload, seed, seconds, tmp, env,
                                         time.monotonic() + time_limit(seconds))
    print("== %s (seed %d, %s s, trace %d) numpy %s, splitflow %s from %s"
          % (workload, seed, seconds, trace, res["numpy"], res["splitflow"],
             res["splitflow_file"]))
    for line in lines:
        print("  " + line)
    for failure in res["failures"]:
        print("  FAILED %s: %s" % (failure["key"], failure["detail"].strip()))
    for failure in res.get("trace_failures", []):
        print("  TRACE CHECK FAILED: %s" % failure)
    return metrics, attempted, len(res["failures"]), not res.get("trace_failures")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="splitflow benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running worker is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "splitflow", "__init__.py")):
        print("bench: no splitflow package under %s" % SRC, file=sys.stderr)
        return 2
    calibrate.warm_up()
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        print("provenance: " + json.dumps(provenance(args.seed), sort_keys=True))
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        metrics, attempted, failed, checks_ok = {}, 0, 0, True
        for name in names:
            wl_tmp = tempfile.mkdtemp(prefix=name + "-", dir=tmp)
            m, a, f, ok = run_workload(name, args.seed, args.seconds, args.trace, wl_tmp)
            attempted += a
            failed += f
            checks_ok = checks_ok and ok
            if len(names) == 1:
                metrics = m
            else:
                metrics.update({"%s.%s" % (name, k): v for k, v in m.items()})
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0 and checks_ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
