"""Tests of the session benchmark itself: oracles, checks, tracer, runner.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import check
import oracles
import run as bench
import tracer
from bsw import session
from conftest import ROOT


def _report(workload, seed):
    expected = check.load_expected(workload)
    with open(os.path.join(ROOT, "perfbench", expected["session"]), encoding="utf-8") as fh:
        return session.run_session(session.parse_session(fh.read()), seed=seed), expected


def test_expected_files_are_current():
    for workload in oracles.WORKLOADS:
        assert check.load_expected(workload) == json.loads(
            json.dumps(oracles.build_expected(workload)))


def test_oracles_reproduce_theory():
    abcd = ["a", "b", "c", "d"]
    cubic = ["a*c - b^2", "a*d - b*c", "b*d - c^2"]
    hf = oracles.hilbert_function(cubic, abcd, 5)
    assert oracles.numerator_from_hilbert_function(hf, 4) == [1, 0, -3, 2, 0, 0]
    koszul = oracles.hilbert_function(["a^2", "b^2", "c^2"], ["a", "b", "c"], 6)
    assert oracles.numerator_from_hilbert_function(koszul, 3) == \
        oracles.complete_intersection_numerator([2, 2, 2])
    assert oracles.newton_closure_exponents([(2, 0), (0, 2)]) == [(0, 2), (1, 1), (2, 0)]
    S = oracles.Semigroup((2, 5), limit=400)
    assert oracles.huneke_mu(S, 12, 4)[0] == 3
    assert oracles.bs_exponent(S, [2], 1) == (3, 5)


@pytest.mark.parametrize("workload", oracles.WORKLOADS)
def test_expected_results_hold_for_two_seeds(workload):
    for seed in (3, 11):
        report, expected = _report(workload, seed)
        problems = check.report_problems(report, expected, seed)
        assert problems == [[] for _ in expected["blocks"]]


def test_check_catches_wrong_results():
    report, expected = _report("acceptance", 1)
    assert check.report_problems(report, expected, 2)[0]
    resolve = next(b for b in report["blocks"] if b["command"] == "resolve")
    resolve["result"]["minimal_betti"] = [1, 2]
    resolve["result"]["maps"][0][0][0] = "z^5"
    problems = check.report_problems(report, expected, 1)
    assert len(problems[0]) == 2
    strata = next(b for b in report["blocks"] if b["command"] == "strata")
    strata["result"]["strata"][0]["dim"] = 1
    loja = next(b for b in report["blocks"] if b["command"] == "loja")
    loja["result"]["slope"] += 0.01
    assert all(check.report_problems(report, expected, 1)[k] for k in (0, 1, 5))


def test_comparable_ignores_only_the_timestamp():
    a = '{\n  "seed": 1,\n  "timestamp": "2026-01-01T00:00:00+00:00",\n  "x": 1\n}'
    b = a.replace("2026-01-01", "2027-02-02")
    assert check.comparable(a) == check.comparable(b)
    assert check.comparable(a) != check.comparable(b.replace('"x": 1', '"x": 2'))


def test_tracer_rebinds_module_aliases_and_restores_them():
    import bsw.groebner
    import bsw.resolution
    orig = bsw.groebner.krull_dimension
    probe = tracer.SpanTracer("t")
    probe.install()
    try:
        assert bsw.resolution.krull_dimension is bsw.groebner.krull_dimension
        assert bsw.resolution.krull_dimension is not orig
        assert session.free_resolution.__wrapped__ is not None
    finally:
        probe.uninstall()
    assert bsw.resolution.krull_dimension is orig
    assert not hasattr(session.free_resolution, "__wrapped__")


def _traced_counts(sess, seed=1):
    probe, counter = tracer.SpanTracer("t"), tracer.PolyCounter()
    probe.install()
    counter.install()
    try:
        session.run_session(sess, seed=seed)
    finally:
        counter.uninstall()
        probe.uninstall()
    layers = probe.layer_metrics()
    counts = {k: v for k, v in layers.items() if not k.endswith("self_s")}
    return {**counts, **counter.metrics()}


def test_fresh_parse_repeats_counts_and_reuse_would_not():
    with open(os.path.join(ROOT, "perfbench", "workloads", "acceptance.bsw"),
              encoding="utf-8") as fh:
        text = fh.read()
    first = _traced_counts(session.parse_session(text))
    second = _traced_counts(session.parse_session(text))
    assert first == second
    assert first["resolution.free_resolution.repeat_frac"] > 0
    # running one parsed Session twice reuses its cached bases: a different program
    sess = session.parse_session(text)
    _traced_counts(sess)
    warm = _traced_counts(sess)
    assert warm["groebner.buchberger.calls"] < first["groebner.buchberger.calls"]


def test_a_repetition_that_hits_the_cap_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(bench, "CAP_S", 0.05)
    r = bench.Run("resolve", 1, str(tmp_path))
    r.worker("plain")
    assert r.attempted == r.failed == len(r.expected["blocks"])
    assert any("cap" in p for p in r.problems)


def _bench(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_short_runs_meet_the_output_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, names in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        out = _bench(["--workload", "search", "--seed", "5", "--seconds", "1",
                      "--trace", trace], ROOT)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {n: m["unit"] for n, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in names}
    layers = {n: m["value"] for n, m in result["metrics"].items()}
    assert all(layers[n] == 0 for n in layers
               if n.startswith(("groebner.", "modgb.")) and not n.endswith("self_s"))
    assert layers["closure.box_points"] > 0 and layers["semigroup.containment_holds.calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(["--workload", "acceptance", "--seed", "1", "--seconds", "1", "--trace", "0"],
                 tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
