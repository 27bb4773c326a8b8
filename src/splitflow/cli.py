"""Command-line entry point.

Subcommands: run <config>, check <config>, list-problems, list-flows.
Exit codes: 0 on success, 2 on hypothesis/spec errors (including missing
keys and bad integrator grids) or a path that cannot be read or written,
3 on divergence or an inner-solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import list_flows, load_config, run_experiment
from .errors import DivergenceError, SolverError, SpecError
from .problems import corpus, solution_residual


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="splitflow",
                                     description="operator-splitting flow toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config")
    run_p.add_argument("--out-dir", default=None, help="output directory override")
    run_p.add_argument("--seed", type=int, default=None,
                       help="seed that selects the seeded corpus problems' data")

    check_p = sub.add_parser("check", help="validate a config without running it")
    check_p.add_argument("config")

    sub.add_parser("list-problems", help="list the shipped problem corpus")
    sub.add_parser("list-flows", help="list the registered flows")

    args = parser.parse_args(argv)

    try:
        if args.command == "list-problems":
            for p in corpus():
                res = solution_residual(p)
                print("%-22s %-22s residual=%.2e  %s" % (p.name, p.kind, res, p.note))
            return 0
        if args.command == "list-flows":
            for name in list_flows():
                print(name)
            return 0
        cfg = load_config(args.config)
        if args.command == "check":
            print("config ok: %s" % args.config)
            return 0
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        summary = run_experiment(cfg, out_dir=args.out_dir)
        print(summary["line"])
        return 0 if summary["passed"] else 2
    except SpecError as exc:
        print("hypothesis error: %s" % exc, file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print("divergence: %s (last finite t=%g)" % (exc, exc.last_finite_t),
              file=sys.stderr)
        return 3
    except SolverError as exc:
        print("solver failure: %s (residual=%s)" % (exc, exc.residual), file=sys.stderr)
        return 3
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
