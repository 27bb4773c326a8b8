"""Self-test of the benchmark's correctness gate.

    python3 bench/selftest.py

Runs one experiment of each gate kind, then runs it again with its output
deliberately perturbed after it is written, and checks that the repetition
identity check counts the perturbed run as failed and the clean runs as
passed.  Each perturbed run is then repeated on its own, with no first
repetition to compare with, to show that the residual gate alone counts it as
failed.  Exits 0 when every expectation holds.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from worker import run_experiments  # noqa: E402


def rewrite_csv(path, edit):
    """Apply edit(header, rows) to a CSV in place, keeping its number format."""
    header, rows = workloads.read_csv(path)
    edit(header, rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def shift_final_x(amount):
    def edit(header, rows):
        rows[-1, header.index("x_0")] += amount
    return edit


def one_ulp_in_first_step(header, rows):
    col = header.index("x_0")
    rows[1, col] = np.nextafter(rows[1, col], np.inf)


def slow_envelope(header, rows):
    # multiplying x^2/2 by t turns its t^-3 envelope into t^-2
    rows[:, header.index("objective")] *= rows[:, 0]


def perturbed(exp, path, edit):
    def run():
        info = exp.run()
        rewrite_csv(os.path.join(exp.out_dir, path), edit)
        return info
    return workloads.Experiment(key=exp.key, steps=exp.steps, out_dir=exp.out_dir, run=run,
                                check=exp.check)


def main() -> int:
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=scratch)
    try:
        workloads.build_corpus()
        corpus = workloads.CorpusRuns(os.path.join(tmp, "corpus"), seed=0)
        sweep = workloads.MultistartSweep(os.path.join(tmp, "sweep"), seed=0)
        passes = [exp for unit in corpus.trace_units() for exp in corpus.unit(unit)]
        by_key = {exp.key: exp for exp in passes + sweep.unit(0)}
        cases = [  # (experiment, file, perturbation)
            (by_key["lasso10-fb"], "trajectory.csv", shift_final_x(1e-3)),
            (by_key["two_lines-dr-reflected"], "trajectory.csv", shift_final_x(1e-3)),
            (by_key["lasso1d-avd"], "trajectory.csv", shift_final_x(1e-2)),
            (by_key["start00-lasso10-fb_step"], "sequence.csv", one_ulp_in_first_step),
            (by_key["start00-pd-general"], "trajectory.csv", shift_final_x(1.0)),
            (by_key["avd-dense"], "trajectory.csv", slow_envelope),
        ]
        outcomes = []

        def record(key, elapsed, steps, ok, detail):
            outcomes.append((key, ok, detail))

        problems = []
        for exp, path, edit in cases:
            run_experiments([exp, perturbed(exp, path, edit), exp], {}, record)
            (_, clean, d0), (_, bad, d1), (_, again, _) = outcomes[-3:]
            run_experiments([perturbed(exp, path, edit)], {}, record)
            _, gate_passed, d3 = outcomes[-1]
            print("%-32s clean: %s | perturbed: %s" % (exp.key, d0, d3))
            if not (clean and again) or bad:
                problems.append(exp.key)
            if "differ from the first repetition" not in d1:
                problems.append(exp.key + " (identity)")
            if gate_passed:
                problems.append(exp.key + " (gate)")

        def boom():
            raise RuntimeError("deliberate failure")
        run_experiments([workloads.Experiment("raises", 1, tmp, boom, None)], {}, record)
        if outcomes[-1][1]:
            problems.append("a run that raises")
        failed = sum(1 for _, ok, _ in outcomes if not ok)
        print("failed %d of %d experiments (expected %d)" % (failed, len(outcomes),
                                                            2 * len(cases) + 1))
        if failed != 2 * len(cases) + 1:
            problems.append("failure count")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    if problems:
        print("SELFTEST FAILED: %s" % ", ".join(problems))
        return 1
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
