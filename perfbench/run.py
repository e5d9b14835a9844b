"""Session benchmark for bsw: end-to-end times, or per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; bsw is imported from ./src, nothing is
installed.  Load is a closed loop with one client: this script starts one
child process at a time and the next repetition starts only when the
previous one has finished.  Each repetition parses the session afresh in
a new interpreter, so no basis cached on a parsed `Session` survives into
the next one.  Every child has a time cap; a child that hits it is killed
and all of its blocks count as failed.

Each repetition is one worker (perfbench/worker.py): a fresh interpreter
that runs `bsw.cli.main(["run", SESSION, "--out", REPORT, "--seed", N])`,
the code `python -m bsw.cli run` runs.  It gives setup_s (fresh
interpreter to parsed Session), session_s (run_session, tracing off) and
peak_rss_mb; this script times the whole process as cli_s.
--trace 0 repeats untraced workers until S seconds have passed.
--trace 1 cycles an untraced worker, a span-traced worker and a
  Polynomial-counting worker, and reports the per-layer metrics.

Every report is checked against perfbench/expected/<workload>.json and
must equal the run's first report byte for byte apart from its timestamp.
The last line of stdout is one JSON object: correct, attempted and failed
(command blocks) and the metrics.  The lines before it give each timing's
median, its highest percentile with at least ten samples beyond it, and
the sample count.  Spans of the traced workers are written to
.perfbench_out/ when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402

CAP_S = 60.0
TMP_ROOT = ".perfbench_tmp"
OUT_DIR = ".perfbench_out"
END_TO_END = {"setup_s": "s", "session_s": "s", "cli_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for module_name, functions in tracer.LAYERS.items():
        for fn_name in functions:
            units[f"{module_name}.{fn_name}.calls"] = "count"
            units[f"{module_name}.{fn_name}.self_s"] = "s"
    units.update({
        "groebner.basis_len_max": "count",
        "groebner.krull_dimension.repeat_frac": "ratio",
        "resolution.free_resolution.repeat_frac": "ratio",
        "modgb.module_groebner.out_len_sum": "count",
        "resolution.minors.out_sum": "count",
        "closure.newton_facets.out_sum": "count",
        "closure.box_points": "count-computed",
        "loja.sample_variety.points": "count",
        "trace.overhead_frac": "ratio",
    })
    for metric in tracer.POLY_METHODS:
        units[metric + ".calls"] = "count"
    return units


def tail(values: list[float]) -> tuple[str, float] | None:
    """Highest nearest-rank percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    rank = len(ordered) - 10
    if rank < 1:
        return None
    return f"p{100 * rank / len(ordered):.0f}", ordered[rank - 1]


class Run:
    """One benchmark run: the repetitions, their checks and their samples."""

    def __init__(self, workload: str, seed: int, tmp: str):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.expected = check.load_expected(workload)
        self.session = os.path.join(os.path.relpath(HERE), self.expected["session"])
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        self.env.pop("BSW_BUDGET", None)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: tuple[str, dict] | None = None
        self.samples: dict[str, list[float]] = {}
        self.layer_runs: list[dict] = []
        self.span_files: list[str] = []
        self.reps = 0

    def _child(self, label: str, argv: list[str]) -> tuple[float, str | None]:
        """Run argv with the cap: (elapsed seconds, stdout or None on failure)."""
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env, text=True)
        try:
            out, err = proc.communicate(timeout=CAP_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.problems.append(f"{label} hit the {CAP_S:.0f} s cap")
            return time.clock_gettime(time.CLOCK_MONOTONIC) - start, None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        elapsed = time.clock_gettime(time.CLOCK_MONOTONIC) - start
        if proc.returncode != 0:
            self.problems.append(f"{label} exited {proc.returncode}: {err.strip()[-300:]}")
            return elapsed, None
        return elapsed, out

    def _account(self, report_path: str, ok: bool) -> None:
        """Count the blocks of one repetition and the ones that failed."""
        wants = self.expected["blocks"]
        self.attempted += len(wants)
        got = check.read_report(report_path) if ok else None
        if got is None:
            self.failed += len(wants)
            return
        text, report = got
        bad = set()
        for k, problems in enumerate(check.report_problems(report, self.expected, self.seed)):
            if problems:
                bad.add(k)
                self.problems.append(f"block {wants[k]['line']}: {'; '.join(problems)}")
        if self.first is None:
            self.first = (check.comparable(text), report)
        elif check.comparable(text) != self.first[0]:
            first = self.first[1]
            if check.header(report) != check.header(first):
                bad = set(range(len(wants)))
            bad |= {k for k in range(len(wants))
                    if k >= len(report["blocks"]) or k >= len(first["blocks"])
                    or report["blocks"][k] != first["blocks"][k]}
            self.problems.append("report differs from the run's first report")
        self.failed += len(bad)
        os.remove(report_path)

    def _sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def worker(self, mode: str) -> dict | None:
        self.reps += 1
        report = os.path.join(self.tmp, f"report-{self.reps}.json")
        argv = [sys.executable, os.path.join(os.path.relpath(HERE), "worker.py"),
                self.session, report, "--seed", str(self.seed), "--mode", mode,
                "--run-id", f"{self.workload}-{self.seed}-{self.reps}"]
        if mode == "spans":
            self.span_files.append(os.path.join(self.tmp, f"spans-{self.reps}.jsonl"))
            argv += ["--spans", self.span_files[-1]]
        argv += ["--t0", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
        elapsed, out = self._child(f"{mode} worker", argv)
        self._account(report, out is not None)
        self._sample(f"{mode}.cli_s", elapsed)
        if out is None:
            return None
        got = json.loads(out.strip().splitlines()[-1])
        self._sample(f"{mode}.session_s", got["session_s"])
        self._sample(f"{mode}.setup_s", got["setup_s"])
        self._sample(f"{mode}.peak_rss_mb", got["peak_rss_mb"])
        return got

    def traced(self) -> None:
        self.worker("plain")
        spans = self.worker("spans")
        counts = self.worker("counts")
        if spans is not None and counts is not None:
            self.layer_runs.append({**spans["layers"], **counts["layers"]})


def summarize(name: str, unit: str, values: list[float]) -> str:
    line = f"{name:<14} median {statistics.median(values):.4f} {unit}"
    t = tail(values)
    line += f", {t[0]} {t[1]:.4f} {unit}" if t else ", no tail percentile (n < 11)"
    return line + f", n={len(values)}"


def end_to_end_metrics(run: Run) -> dict[str, float]:
    s = run.samples
    metrics = {"setup_s": s.get("plain.setup_s"), "session_s": s.get("plain.session_s"),
               "cli_s": s.get("plain.cli_s"), "peak_rss_mb": s.get("plain.peak_rss_mb")}
    out = {}
    for name, values in metrics.items():
        if values:
            print(summarize(name, END_TO_END[name], values))
            out[name] = statistics.median(values)
    return out


def layer_metrics(run: Run) -> dict[str, float]:
    units = per_layer_units()
    out: dict[str, float] = {}
    if run.layer_runs:
        for name in units:
            if name == "trace.overhead_frac":
                continue
            values = [r[name] for r in run.layer_runs]
            if units[name] == "s":
                out[name] = statistics.median(values)
            else:
                if len(set(values)) > 1:
                    run.problems.append(f"{name} differs between traced repetitions: {values}")
                out[name] = values[0]
    traced = run.samples.get("spans.session_s")
    plain = run.samples.get("plain.session_s")
    if traced and plain:
        out["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
        print(summarize("traced session_s", "s", traced))
        print(summarize("untraced session_s", "s", plain))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bsw session benchmark")
    parser.add_argument("--workload", required=True, choices=oracles.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "bsw", "session.py")):
        print("run.py: no src/bsw here; run from the root of a bsw checkout", file=sys.stderr)
        return 2

    tmp = os.path.join(TMP_ROOT, str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    try:
        run = Run(args.workload, args.seed, tmp)
        compiled = subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                                  env=run.env, capture_output=True, timeout=CAP_S)
        if compiled.returncode != 0:
            print(compiled.stdout.decode() + compiled.stderr.decode(), file=sys.stderr)
            return 2
        deadline = time.clock_gettime(time.CLOCK_MONOTONIC) + args.seconds
        while True:
            if args.trace:
                run.traced()
            else:
                run.worker("plain")
            if time.clock_gettime(time.CLOCK_MONOTONIC) >= deadline:
                break
        if args.trace:
            metrics = layer_metrics(run)
            units = per_layer_units()
            os.makedirs(OUT_DIR, exist_ok=True)
            spans_out = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
            with open(spans_out, "w", encoding="utf-8") as out:
                for path in run.span_files:
                    if os.path.exists(path):
                        with open(path, encoding="utf-8") as fh:
                            shutil.copyfileobj(fh, out)
            print(f"spans written to {spans_out}")
        else:
            metrics = end_to_end_metrics(run)
            units = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if os.path.isdir(TMP_ROOT) and not os.listdir(TMP_ROOT):
            os.rmdir(TMP_ROOT)

    for problem in run.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"failed_frac    {frac:.4f} ({run.failed} of {run.attempted} blocks)")
    correct = run.failed == 0 and not run.problems and len(metrics) == len(units)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        # a metric without a sample reads as the cap, and the run is not correct
        "metrics": {name: {"value": metrics.get(name, CAP_S), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
