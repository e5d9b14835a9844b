"""Check that this checkout writes the same session reports as a git revision.

    python3 tools/same_reports.py REV

`git archive`s REV into a temporary directory, then runs
`bsw.cli.main(["run", SESSION, "--out", REPORT, *FLAGS])` with the code of
each tree, once for each run of each session in sessions/*.bsw and
perfbench/workloads/*.bsw.  A session declares its runs with comment lines

    # same-reports: FLAGS

one line per run, whose FLAGS go to `bsw run` as they stand; a session with
no such line runs at `--seed` 0, 3 and 11.  Both trees read the session files
of this checkout, so only the code differs.  Each run writes into its own
directory; the reports are compared with the "timestamp" value blanked, every
other file (the loja CSVs) byte for byte, and the exit codes too.  A run that
writes no report is a difference even when both sides fail alike, since every
corpus session parses.

Budget verdicts are compared by units, not by runs.  One probe per tree
parses each corpus session and runs every command in order through
`bsw.session.run_command`, each on its own `Budget(DEFAULT_BUDGET)` at seed 0,
and records the units it drew.  Nothing but `Budget.spend` reads the meter,
so as long as the earlier commands of its session complete, a command is `ok`
at `--budget b` exactly when it draws at most b units at the default budget:
equal units on both sides give equal verdicts at every such budget, and the
`--budget 1` run of sessions/acceptance.bsw still compares the text of budget
blocks.  Each command whose units differ is one difference, printed as
`units SESSION COMMAND@LINE:COL A -> B` with REV's units A and this
checkout's B.

Prints one line per run and per units difference, then the number of runs
identical, the number of commands whose units are equal and the seconds the
comparison took, and exits 1 on any difference.  Standard library only;
nothing is written inside either tree.
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
RUN = "import sys; from bsw.cli import main; sys.exit(main(sys.argv[1:]))"
# argv: the JSON file to write, then the corpus sessions relative to the cwd
PROBE = """
import json, sys, tempfile
from bsw.modgb import DEFAULT_BUDGET, Budget
from bsw.session import parse_session, run_command
units = {}
with tempfile.TemporaryDirectory() as csv_dir:
    for session in sys.argv[2:]:
        with open(session, encoding="utf-8") as fh:
            commands = parse_session(fh.read()).commands
        for cmd in commands:
            budget = Budget(DEFAULT_BUDGET)
            run_command(cmd, budget=budget, csv_dir=csv_dir)
            units[f"{session} {cmd.kind}@{cmd.line}:{cmd.col}"] = budget.total - max(budget.left, 0)
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(units, fh)
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


def _env(tree: str) -> dict:
    return {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}


def _run(tree: str, session: str, flags: list[str], out_dir: str) -> int:
    os.makedirs(out_dir)
    report = os.path.join(out_dir, "report.json")
    proc = subprocess.run([sys.executable, "-c", RUN, "run", session, "--out", report, *flags],
                          cwd=out_dir, env=_env(tree), stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return proc.returncode


def _units(tree: str, sessions: list[str], out: str) -> dict:
    """{"SESSION COMMAND@LINE:COL": units} from the probe on `tree`; a failing probe
    raises, with its traceback on stderr."""
    subprocess.run([sys.executable, "-c", PROBE, out, *sessions], cwd=ROOT, env=_env(tree),
                   check=True, stdout=subprocess.DEVNULL)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _units_differences(here: dict, rev: dict) -> list[str]:
    """One `units SESSION COMMAND@LINE:COL A -> B` line per command whose units
    differ, A from REV and B from this checkout; `-` where a side has none."""
    return [f"units {key} {rev.get(key, '-')} -> {here.get(key, '-')}"
            for key in dict.fromkeys([*rev, *here]) if rev.get(key) != here.get(key)]


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
        n_diff = 0
        for i, (session, flags) in enumerate(runs):
            out_here = os.path.join(tmp, "here", str(i))
            out_rev = os.path.join(tmp, "rev-out", str(i))
            path = os.path.join(ROOT, session)
            code_here = _run(ROOT, path, flags, out_here)
            code_rev = _run(other, path, flags, out_rev)
            diffs = _differences(out_here, out_rev)
            if code_here != code_rev:
                diffs.append(f"exit code {code_here} vs {code_rev}")
            n_diff += bool(diffs)
            print(f"{'DIFF' if diffs else 'same'}  {session} {' '.join(flags)}"
                  + (f": {', '.join(diffs)}" if diffs else ""))
        sessions = list(dict.fromkeys(session for session, _ in runs))
        units_here = _units(ROOT, sessions, os.path.join(tmp, "units-here.json"))
        units_rev = _units(other, sessions, os.path.join(tmp, "units-rev.json"))
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
