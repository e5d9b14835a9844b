"""Check that this checkout writes the same session reports as a git revision.

    python3 tools/same_reports.py REV

`git archive`s REV into a temporary directory, then runs a driver, one Python
process, on each tree in turn with that tree's src on PYTHONPATH.  It calls
`bsw.cli.main(["run", SESSION, "--out", REPORT, *FLAGS])` for each run of each
session in sessions/*.bsw and perfbench/workloads/*.bsw, in its own directory
with stdout and stderr sent to os.devnull, and records the exit code that a
process would have had: `main`'s value, a SystemExit's code (None read as 0),
or 1 for any other exception.  A session declares its runs with comment lines

    # same-reports: FLAGS

one line per run, whose FLAGS go to `bsw run` as they stand; a session with
no such line runs at `--seed` 0, 3 and 11.  Both trees read the session files
of this checkout, so only the code differs.  The reports are compared with
the "timestamp" value blanked, every other file (the loja CSVs) byte for
byte, and the exit codes too.  A run that writes no report is a difference
even when both sides fail alike, since every corpus session parses.

Budget verdicts are compared by units, not by runs.  After the runs the
driver parses each corpus session and runs every command in order through
`bsw.session.run_command`, each on its own `Budget(DEFAULT_BUDGET)` at seed 0,
and records the units it drew.  A command is `ok` at `--budget b` exactly
when it draws at most b units at the default budget, whatever ran before it
(a memo hit is charged the units of the build it reuses, and only when they
fit): equal units give equal verdicts at every such budget, and the
`--budget 1` run of sessions/acceptance.bsw still compares the text of budget
blocks.  The driver then runs every command of the same parse a second time,
so a parsed session that reruns must draw what it drew the first time.  A
command gives at most one line: `units SESSION COMMAND@LINE:COL A -> B` when
REV's units A differ from this checkout's B, else `rerun SESSION
COMMAND@LINE:COL A -> B` when this checkout's second pass draws B after A.
Either counts the command as unequal; REV's reruns are not checked.

Prints one line per run and per units difference, then the number of runs
identical, the number of commands whose units are equal and the seconds the
comparison took, and exits 1 on any difference; a dying driver stops the tool
with its traceback.  Standard library only; nothing is written in either tree.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = ("sessions/*.bsw", "perfbench/workloads/*.bsw")
DEFAULT_FLAGS = ("--seed 0", "--seed 3", "--seed 11")
HEADER = re.compile(r"^# same-reports:(.*)$", re.MULTILINE)
# argv: the result file, the runs as JSON [[SESSION, FLAGS, OUT_DIR], ...], the sessions to probe;
# a command's units are an int, or [FIRST, SECOND] when its rerun draws differently
DRIVER = """
import json, os, sys, tempfile
from contextlib import redirect_stderr, redirect_stdout
from bsw.cli import main
from bsw.modgb import DEFAULT_BUDGET, Budget
from bsw.session import parse_session, run_command
codes, units, home = [], {}, os.getcwd()
for session, flags, out_dir in json.loads(sys.argv[2]):
    os.makedirs(out_dir)
    os.chdir(out_dir)
    argv = ["run", os.path.join(home, session), "--out", os.path.join(out_dir, "report.json")]
    with open(os.devnull, "w") as null, redirect_stdout(null), redirect_stderr(null):
        try:
            codes.append(main(argv + flags))
        except SystemExit as exc:
            codes.append(0 if exc.code is None else exc.code)
        except Exception:
            codes.append(1)
os.chdir(home)
with tempfile.TemporaryDirectory() as csv_dir:
    for session in sys.argv[3:]:
        with open(session, encoding="utf-8") as fh:
            commands = parse_session(fh.read()).commands
        for rerun in (False, True):
            for cmd in commands:
                budget = Budget(DEFAULT_BUDGET)
                run_command(cmd, budget=budget, csv_dir=csv_dir)
                key = f"{session} {cmd.kind}@{cmd.line}:{cmd.col}"
                drawn = budget.total - max(budget.left, 0)
                if not rerun:
                    units[key] = drawn
                elif drawn != units[key]:
                    units[key] = [units[key], drawn]
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump([codes, units], fh)
"""
TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')


def corpus_runs() -> list[tuple[str, list[str]]]:
    """(session path relative to the checkout, flags) for every run."""
    runs = []
    for pattern in CORPUS:
        for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
            session = os.path.relpath(path, ROOT)
            with open(path, encoding="utf-8") as fh:
                declared = HEADER.findall(fh.read()) or DEFAULT_FLAGS
            runs += [(session, flags.split()) for flags in declared]
    return runs


def _drive(tree: str, runs: list[tuple[str, list[str]]], sessions: list[str],
           out: str) -> tuple[list, dict]:
    """The driver on `tree`, run i writing into out/i: the runs' exit codes and
    {"SESSION COMMAND@LINE:COL": units} over `sessions`; a dying driver raises."""
    spec = [(session, flags, os.path.join(out, str(i))) for i, (session, flags) in enumerate(runs)]
    subprocess.run([sys.executable, "-c", DRIVER, f"{out}.json", json.dumps(spec), *sessions],
                   cwd=ROOT, env={**os.environ, "PYTHONPATH": os.path.join(tree, "src")},
                   check=True, stdout=subprocess.DEVNULL)
    with open(f"{out}.json", encoding="utf-8") as fh:
        return tuple(json.load(fh))


def _units_differences(here: dict, rev: dict) -> list[str]:
    """At most one line per command: `units SESSION COMMAND@LINE:COL A -> B` when
    its first-pass units differ, A from REV and B from this checkout (`-` where a
    side has none), else `rerun SESSION COMMAND@LINE:COL A -> B` when this
    checkout's second pass drew B after A."""
    def first(units):
        return units[0] if isinstance(units, list) else units
    lines = []
    for key in dict.fromkeys([*rev, *here]):
        a, b = first(rev.get(key, "-")), first(here.get(key, "-"))
        if a != b:
            lines.append(f"units {key} {a} -> {b}")
        elif isinstance(here[key], list):
            lines.append(f"rerun {key} {here[key][0]} -> {here[key][1]}")
    return lines


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "report.json":
        data = TIMESTAMP.sub(b'"timestamp": ""', data)
    return data


def _differences(a: str, b: str) -> list[str]:
    names_a, names_b = sorted(os.listdir(a)), sorted(os.listdir(b))
    if names_a != names_b:
        return [f"files {names_a} vs {names_b}"]
    if "report.json" not in names_a:
        return ["no report"]
    return [name for name in names_a
            if _read(os.path.join(a, name)) != _read(os.path.join(b, name))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    rev = parser.parse_args(argv).rev
    runs = corpus_runs()
    began = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="same_reports_") as tmp:
        other = os.path.join(tmp, "rev")
        os.makedirs(other)
        archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                                 check=True, stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", other], input=archive, check=True)
        here, there = os.path.join(tmp, "here"), os.path.join(tmp, "rev-out")
        sessions = list(dict.fromkeys(session for session, _ in runs))
        codes_here, units_here = _drive(ROOT, runs, sessions, here)
        codes_rev, units_rev = _drive(other, runs, sessions, there)
        n_diff = 0
        for i, (session, flags) in enumerate(runs):
            diffs = _differences(os.path.join(here, str(i)), os.path.join(there, str(i)))
            if codes_here[i] != codes_rev[i]:
                diffs.append(f"exit code {codes_here[i]} vs {codes_rev[i]}")
            n_diff += bool(diffs)
            print(f"{'DIFF' if diffs else 'same'}  {session} {' '.join(flags)}"
                  + (f": {', '.join(diffs)}" if diffs else ""))
        unit_diffs = _units_differences(units_here, units_rev)
        for line in unit_diffs:
            print(f"DIFF  {line}")
        n_commands = len(units_rev.keys() | units_here.keys())
        print(f"{len(runs) - n_diff} of {len(runs)} runs identical to {rev}, and"
              f" {n_commands - len(unit_diffs)} of {n_commands} commands' units equal,"
              f" in {time.perf_counter() - began:.1f} s")
    return 1 if n_diff or unit_diffs else 0


if __name__ == "__main__":
    sys.exit(main())
