"""``python3 -m bench run|compare`` (from the repository root).

``run --workload NAME --seed N --seconds S --trace 0|1`` is the form the
benchmark driver uses: it prints the metrics by name and ends with one
JSON object on the last line of standard output.  Without ``--workload``
the whole suite runs and ``-o OUT.json`` keeps the full records for
``compare``.
"""

from __future__ import annotations

import time

ENTERED = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

#: Seconds per workload of ``--quick``: a smoke test, never a result.
QUICK_SECONDS = 0.5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench",
                                     description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one workload or the suite")
    run.add_argument("--workload", default=None)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--seconds", type=float, default=None,
                     help="timed seconds per workload "
                          "(default: run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1))
    run.add_argument("--quick", action="store_true",
                     help="tiny sizes, about a second per workload; a "
                          "smoke test whose numbers mean nothing")
    run.add_argument("-o", "--output", default=None)
    compare = commands.add_parser(
        "compare", help="compare two suite files written by run -o")
    compare.add_argument("a")
    compare.add_argument("b")
    args = parser.parse_args(argv)

    # The program under test lives in src/ of the same checkout; without
    # it there is nothing to measure and the import below fails the run.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    if args.command == "compare":
        from bench.compare import compare_files
        return compare_files(args.a, args.b)

    try:
        from bench import run as runner
    except ModuleNotFoundError as error:
        print(f"error: {error}; the benchmark measures the program in "
              f"{os.path.join(root, 'src')}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - ENTERED
    seconds = args.seconds
    if seconds is None:
        seconds = (QUICK_SECONDS if args.quick
                   else float(runner.load_spec()["run_seconds"]))
    if args.workload is not None and args.workload not in runner.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(runner.WORKLOADS)}")
    names = [args.workload] if args.workload else list(runner.WORKLOADS)
    # The suite keeps end-to-end figures from an untraced run and adds a
    # traced one; a single workload (and --quick) runs once as asked.
    traces = [bool(args.trace)]
    if args.workload is None and args.trace and not args.quick:
        traces = [False, True]
    records = runner.run_suite(names, args.seed, seconds, traces,
                               args.quick, import_s, args.output)
    if args.workload is not None:
        print(runner.contract_line(records[-1]))
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
