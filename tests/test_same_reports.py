"""tools/same_reports.py: the runs it builds from the session corpus, its driver
on hand-written sessions, and the way it compares two output directories.  No
corpus session is run here."""

import importlib.util
import json
import os
import subprocess
import sys

from bsw.session import _statements

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "same_reports", os.path.join(ROOT, "tools", "same_reports.py"))
same_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_reports)

RUNS = same_reports.corpus_runs()


def test_every_corpus_session_has_a_run():
    sessions = {os.path.join(d, name) for d in ("sessions", os.path.join("perfbench", "workloads"))
                for name in os.listdir(os.path.join(ROOT, d)) if name.endswith(".bsw")}
    assert {session for session, _ in RUNS} == sessions


def test_no_run_repeats():
    pairs = [(session, tuple(flags)) for session, flags in RUNS]
    assert len(set(pairs)) == len(pairs)


def test_runs_come_from_header_lines_or_the_default_seeds():
    acceptance = [flags for session, flags in RUNS if session == os.path.join("sessions", "acceptance.bsw")]
    assert acceptance == [["--seed", "0", "--budget", "1"]]
    workload = [flags for session, flags in RUNS
                if session == os.path.join("perfbench", "workloads", "acceptance.bsw")]
    assert workload == [["--seed", "0"], ["--seed", "3"], ["--seed", "11"]]
    witness = [flags for session, flags in RUNS if session == os.path.join("sessions", "witness.bsw")]
    assert witness == [["--seed", "0"]]
    search = [flags for session, flags in RUNS
              if session == os.path.join("perfbench", "workloads", "search.bsw")]
    assert search == [["--seed", "0"], ["--seed", "3"], ["--seed", "11"]]


def test_acceptance_session_and_workload_hold_the_same_statements():
    # the session file runs only at `--budget 1`; the workload file runs its
    # statements at the default budget, so their blocks' units are compared
    statements = []
    for d in ("sessions", os.path.join("perfbench", "workloads")):
        with open(os.path.join(ROOT, d, "acceptance.bsw"), encoding="utf-8") as fh:
            statements.append([raw for raw, _, _ in _statements(fh.read())])
    assert statements[0] == statements[1]


def test_two_runs_without_a_report_differ(tmp_path):
    # `bsw run` with a mistyped flag exits 2 on both sides and writes nothing
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert same_reports._differences(str(tmp_path / "a"), str(tmp_path / "b")) == ["no report"]


def test_reports_compare_with_the_timestamp_blanked(tmp_path):
    for side, stamp in (("a", "2020-01-01"), ("b", "2021-02-02")):
        (tmp_path / side).mkdir()
        (tmp_path / side / "report.json").write_text(json.dumps({"timestamp": stamp, "x": 1}))
    assert same_reports._differences(str(tmp_path / "a"), str(tmp_path / "b")) == []
    (tmp_path / "b" / "report.json").write_text(json.dumps({"timestamp": "", "x": 2}))
    assert same_reports._differences(str(tmp_path / "a"), str(tmp_path / "b")) == ["report.json"]


def test_the_driver_records_what_a_process_per_run_gives(tmp_path):
    clean = tmp_path / "clean.bsw"
    clean.write_text("ring x, y;\nideal I = x^2, x*y;\nresolve I;\n")
    syntax = tmp_path / "syntax.bsw"
    syntax.write_text("ring x;;\n")
    strata = tmp_path / "strata.bsw"
    strata.write_text("ring x, y, z;\nideal I = x*y, y*z, x*z;\nstrata I;\n")
    runs = [(str(clean), ["--seed", "0"]), (str(syntax), []), (str(clean), ["--sed", "0"]),
            (str(strata), ["--budget", "1"])]
    codes = same_reports._drive(ROOT, runs, str(tmp_path / "driver"))
    assert codes == [0, 2, 2, 3]
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    for i, (session, flags) in enumerate(runs):
        out = tmp_path / "cli" / str(i)
        out.mkdir(parents=True)
        done = subprocess.run([sys.executable, "-m", "bsw.cli", "run", session,
                               "--out", str(out / "report.json"), *flags],
                              cwd=out, env=env, capture_output=True)
        assert done.returncode == codes[i]
        assert same_reports._differences(str(tmp_path / "driver" / str(i)), str(out)) == (
            ["no report"] if i in (1, 2) else [])

