"""Command line front end: run or syntax-check a session file.

Exit codes: 0 success, 2 an unreadable session file, an unwritable
`--out` (found before any command runs), validation or syntax failure or
an `internal` error block (an unexpected exception inside a command, i.e.
a bug), 3 budget or resource-cap exhaustion (3 wins when both kinds of
block are present).
`--budget N` caps each command's work at N units (S-pairs, reduction
steps and minors); the default is DEFAULT_BUDGET.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .modgb import DEFAULT_BUDGET
from .session import SessionSyntaxError, parse_session, report_exit_code, run_session

def _cannot(verb: str, path: str, exc: Exception):
    """Exit 2, saying why `path` cannot be read or written."""
    print(f"bsw: cannot {verb} {path}: {exc}", file=sys.stderr)
    raise SystemExit(2) from None


def _open_out(path: str):
    """path opened for writing; exit 2 if it cannot be."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        _cannot("write", path, exc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bsw", description="commutative-algebra session runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a session file, emit a JSON report")
    run_p.add_argument("session", help="session file path")
    run_p.add_argument("--out", help="report destination (default: stdout)")
    run_p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="work units (S-pairs, reduction steps and minors) per command")
    run_p.add_argument("--seed", type=int, default=0, help="sampling seed")

    check_p = sub.add_parser("check", help="parse a session file without running it")
    check_p.add_argument("session", help="session file path")

    args = parser.parse_args(argv)
    try:
        with open(args.session, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        _cannot("read", args.session, exc)
    try:
        sess = parse_session(text)
    except SessionSyntaxError as exc:
        print(f"bsw: {args.session}:{exc.line}:{exc.col}: {exc}", file=sys.stderr)
        return 2

    if args.command == "check":
        print(f"ok: {sess.n_statements} statements, {len(sess.commands)} commands")
        return 0

    if args.budget < 1:
        print("bsw: budget must be positive", file=sys.stderr)
        return 2
    # the report file is opened before the session runs, so an unwritable
    # --out stops bsw before any command (or loja CSV) has run
    out = _open_out(args.out) if args.out else contextlib.nullcontext(sys.stdout)
    csv_dir = os.path.dirname(os.path.abspath(args.out)) if args.out else os.getcwd()
    with out as fh:
        report = run_session(sess, seed=args.seed, budget=args.budget, csv_dir=csv_dir)
        fh.write(json.dumps(report, indent=2) + "\n")
        if args.out:
            fh.truncate()  # drop what a loja --csv of the same name wrote past the report
    return report_exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
