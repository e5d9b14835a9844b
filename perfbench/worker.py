"""One repetition of a workload session: `bsw run` in a fresh interpreter.

    python3 perfbench/worker.py SESSION REPORT --seed N --t0 T
        [--mode plain|spans|counts] [--run-id ID] [--spans PATH]

Run from the root of a checkout: bsw is imported from ./src.  The worker
calls `bsw.cli.main(["run", SESSION, "--out", REPORT, "--seed", N])`, the
code `python -m bsw.cli run` runs, with a clock read around the CLI's
`parse_session` and `run_session` calls.  It prints one JSON line with
set-up time (from `--t0`, the CLOCK_MONOTONIC reading the parent took just
before starting this process, to the parsed session), the wall time of
`run_session`, the CLI's exit code, the peak resident memory and, in the
traced modes, the layer metrics.  The parent times the whole process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("session")
    parser.add_argument("report")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--mode", choices=("plain", "spans", "counts"), default="plain")
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from bsw import cli  # imports all of bsw and numpy, as every `bsw run` does

    probe = None
    if args.mode == "spans":
        from tracer import SpanTracer
        probe = SpanTracer(args.run_id)
        probe.install()
    elif args.mode == "counts":
        from tracer import PolyCounter
        probe = PolyCounter()
        probe.install()

    marks: dict[str, float] = {}
    parse, run = cli.parse_session, cli.run_session

    def timed_parse(text):
        sess = parse(text)
        marks["parsed"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        return sess

    def timed_run(sess, **kwargs):
        start = time.perf_counter()
        report = run(sess, **kwargs)
        marks["session_s"] = time.perf_counter() - start
        return report

    cli.parse_session, cli.run_session = timed_parse, timed_run
    code = cli.main(["run", args.session, "--out", args.report, "--seed", str(args.seed)])
    out = {
        "exit_code": code,
        "setup_s": marks["parsed"] - args.t0,
        "session_s": marks["session_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.mode == "spans":
        out["layers"] = probe.layer_metrics()
        if args.spans:
            probe.write_spans(args.spans)
    elif args.mode == "counts":
        out["layers"] = probe.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
