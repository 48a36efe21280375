"""Child interpreter for the ``experiments_suite`` workload.

Runs the ``repro`` command line (``python -m repro ...``) in-process and
then writes the session's simulated-statistics counters, and with
``--spans-out`` the spans of the layers' entry points, to files the
parent benchmark reads.  ``--probe`` only imports the command line and
discovers the registered experiments (the suite's set-up cost).

    python -m ncpubench.suite_child --stats-out S [--spans-out T] \\
        -- experiments --json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="ncpubench.suite_child")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--stats-out")
    parser.add_argument("--spans-out")
    parser.add_argument("--cpu", type=int,
                        help="pin this process to one core")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.probe:
        import repro.cli  # noqa: F401
        from repro.experiments.registry import all_experiments

        all_experiments()
        return 0

    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    instrumentation = recorder = None
    if args.spans_out:
        from ncpubench.tracing import Instrumentation, SpanRecorder

        recorder = SpanRecorder()
        instrumentation = Instrumentation(recorder).__enter__()
    from repro.cli import main as cli_main
    from repro.sim import get_session

    try:
        code = cli_main(cli_args)
    finally:
        if instrumentation is not None:
            instrumentation.__exit__(None, None, None)
    if args.stats_out:
        with open(args.stats_out, "w") as handle:
            json.dump(get_session().stats.counters(), handle)
    if recorder is not None:
        recorder.write(args.spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
