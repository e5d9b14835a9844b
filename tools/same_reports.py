"""Check that this checkout writes the same session reports as a git revision.

    python3 tools/same_reports.py REV

`git archive`s REV into a temporary directory, then runs
`bsw.cli.main(["run", SESSION, "--out", REPORT, "--seed", N])` with the
code of each tree on perfbench/workloads/*.bsw, sessions/acceptance.bsw,
a two-line loja session that writes CSVs, a loja session whose CSVs
cover several evaluation blocks (a curve with an exponent above 100 and a
`--solve` over three variables, 9,100 points each) and a monomial session
whose containment check fails (so a real counterexample is compared), at
seeds 0, 3 and 11; on sessions/acceptance.bsw at seed 0 with `--budget` 1,
48, 49, 289 and 290, so budget verdicts are compared too (48/49 is where
the TP commands run out; 289/290 is where they run out in trees that send
monomial ideals through Buchberger); on perfbench/workloads/resolve.bsw at
seed 0 with `--budget` 433 and 434, either side of the 434 units that
`resolve NG` costs, so the metering of the certification fallback is
compared; and, at seed 0 only since they sample nothing, on a
`newton-closure` session whose Newton projection exceeds the row cap, so
a `resource-cap` verdict and its exit code are compared, and on a germ
session that runs `bs-exponent` at ell 2 and 3 in both modes and
`closure-member power=2`, also on an ideal whose shifts lie near 10^9,
then `germ mu vmax=21 lmax=3` on <7, 9, 11> and, on <10, ..., 19> with the
ideal of its generators, the ideal-power refusals of `bs-exponent ell=40`
in both modes and `germ mu vmax=12 lmax=40` (so their cap texts are
compared) and `closure-member 400 power=40` and `399 power=40`, which
read 40·v(A) without building A^40, then `germ mu vmax=2 lmax=1` on
<2, 201>, whose conductor no longer caps the search, and on a
certification session that runs a certified `resolve` of the rational
normal quartic and `strata`/`check-cm` on the zero ideal
(the codim-0 path); and on a `loja` session whose estimate overflows the
float range, so the text of its error block is compared; and on a
declarations session that writes `weights` before and after `order`,
comma lists with and without spaces and a `germ ideal` re-declared after
a new `germ semigroup`, then runs `resolve`, `strata`, `check-normal`,
`check-bs` and germ commands on them, so the parsed rings, generators and
shifts show in the report; and on a one-variable session that resolves
(x^2, x^3), (x - 1, x^2 - 1) and, in weight 3, (t^3, t^5, t^7), each of
whose chains needs two maps, with `strata` on the first two and the
`check-*` commands on the first.  It prints the number of runs.  Both trees
read the session files of this checkout, so only the code differs.
Each run writes into its own directory; the reports are compared with the
"timestamp" value blanked, every other file (the loja CSVs) byte for byte,
and the exit codes too.  Prints one line per run and exits 1 on any
difference.  Standard library only; nothing is written inside either tree.
"""

from __future__ import annotations

import argparse
import glob
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (0, 3, 11)
BUDGETS = (1, 48, 49, 289, 290)
RESOLVE_BUDGETS = (433, 434)
RUN = "import sys; from bsw.cli import main; sys.exit(main(sys.argv[1:]))"
TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')
CSV_SESSION = ("ring z, w weights 2, 5;\n"
               "loja --phi w --a z --curve 2,5 --csv curve.csv;\n"
               "loja --phi z^3 --a z, w --solve w=z^2 --csv solve.csv;\n")
BLOCKS_SESSION = ("ring x, y, z weights 1, 2, 3;\n"
                  "loja --phi z --a x, y --curve 2,3,101 --per-radius 1300 --csv curve.csv;\n"
                  "loja --phi z^2 --a x, y, z --solve z=x^3-2*y^2+x*y --per-radius 1300"
                  " --csv solve.csv;\n")
WITNESS_SESSION = ("ring x, y;\n"
                   "ideal M = x^2, y^2;\n"
                   "bs-verify-monomial M --ell 1 --d 1;\n"
                   "ring t;\n"
                   "ideal T = t^3;\n"
                   "newton-closure T;\n")
ROW_CAP_SESSION = ("ring x, y, z, w;\n"
                   "ideal B = x*y^5*z^9, x^2*y^3*z^5*w^7, x^2*y^9*w^7, x^4*y^5*z^8*w^4,\n"
                   "  x^5*y^2*z^7*w^5, x^5*y^4*z^5*w^6, x^5*y^8*z^2*w^8, x^7*y^4*z^4*w^5,\n"
                   "  x^8*y^4*z^5*w^4;\n"
                   "newton-closure B;\n")
GERM_SESSION = ("germ semigroup 5, 7, 9;\n"
                "germ ideal 7, 9, 10;\n"
                "germ bs-exponent ell=2;\n"
                "germ bs-exponent ell=3;\n"
                "germ bs-exponent ell=2 mode=closure-power;\n"
                "germ bs-exponent ell=3 mode=closure-power;\n"
                "germ closure-member 15 power=2;\n"
                "germ closure-member 12 power=2;\n"
                "germ ideal 1000000000, 1000000003, 1000005000;\n"
                "germ member 1000000004;\n"
                "germ closure-member 2000000001 power=2;\n"
                "germ bs-exponent ell=2;\n"
                "germ bs-exponent ell=3;\n"
                "germ bs-exponent ell=2 mode=closure-power;\n"
                "germ bs-exponent ell=3 mode=closure-power;\n"
                "germ semigroup 7, 9, 11;\n"
                "germ mu vmax=21 lmax=3;\n"
                "germ semigroup 10, 11, 12, 13, 14, 15, 16, 17, 18, 19;\n"
                "germ ideal 10, 11, 12, 13, 14, 15, 16, 17, 18, 19;\n"
                "germ bs-exponent ell=40;\n"
                "germ bs-exponent ell=40 mode=closure-power;\n"
                "germ mu vmax=12 lmax=40;\n"
                "germ closure-member 400 power=40;\n"
                "germ closure-member 399 power=40;\n"
                "germ semigroup 2, 201;\n"
                "germ mu vmax=2 lmax=1;\n")
CERTIFY_SESSION = ("ring a, b, c, d, e;\n"
                   "ideal RNC4 = a*c - b^2, a*d - b*c, a*e - b*d,\n"
                   "  b*d - c^2, b*e - c*d, c*e - d^2;\n"
                   "resolve RNC4;\n"
                   "ideal Z = 0;\n"
                   "strata Z;\n"
                   "check-cm Z;\n")

OVERFLOW_SESSION = ("ring z, w;\n"
                    "loja --phi w^2 --a z --solve w=10^300*z;\n")
DECLARATIONS_SESSION = ("ring x, y, z weights 1, 2, 3 order lex;\n"
                        "ideal P = x*y - z, y^3 - z^2;\n"
                        "resolve P;\n"
                        "ring x,y,z order degrevlex weights 2,1,1;\n"
                        "ideal Q = x*y - z^3, x*z;\n"
                        "resolve Q;\n"
                        "strata Q;\n"
                        "ring a , b,c order lex;\n"
                        "ideal T = a*b, b*c;\n"
                        "ideal A = a + c;\n"
                        "resolve T;\n"
                        "strata T;\n"
                        "check-normal T;\n"
                        "check-bs T --ideal A;\n"
                        "germ semigroup 3,5, 7;\n"
                        "germ ideal 3 , 5;\n"
                        "germ member 8;\n"
                        "germ bs-exponent ell=2;\n"
                        "germ semigroup 4, 6,9;\n"
                        "germ ideal 4,9;\n"
                        "germ closure-member 13 power=2;\n"
                        "germ bs-exponent ell=2 mode=closure-power;\n"
                        "germ mu vmax=9 lmax=2;\n")
ONE_VARIABLE_SESSION = ("ring x;\n"
                        "ideal I = x^2, x^3;\n"
                        "resolve I;\n"
                        "strata I;\n"
                        "check-cm I;\n"
                        "check-normal I;\n"
                        "check-bs I --ideal I;\n"
                        "ideal N = x - 1, x^2 - 1;\n"
                        "resolve N;\n"
                        "strata N;\n"
                        "ring t weights 3;\n"
                        "ideal T = t^3, t^5, t^7;\n"
                        "resolve T;\n")


def _run(tree: str, session: str, flags: list[str], out_dir: str) -> int:
    os.makedirs(out_dir)
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    report = os.path.join(out_dir, "report.json")
    proc = subprocess.run([sys.executable, "-c", RUN, "run", session, "--out", report, *flags],
                          cwd=out_dir, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return proc.returncode


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
    return [name for name in names_a
            if _read(os.path.join(a, name)) != _read(os.path.join(b, name))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    rev = parser.parse_args(argv).rev
    with tempfile.TemporaryDirectory(prefix="same_reports_") as tmp:
        other = os.path.join(tmp, "rev")
        os.makedirs(other)
        archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                                 check=True, stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", other], input=archive, check=True)
        inline = {"loja --csv session": (os.path.join(tmp, "loja_csv.bsw"), CSV_SESSION),
                  "loja blocks session": (os.path.join(tmp, "loja_blocks.bsw"), BLOCKS_SESSION),
                  "witness session": (os.path.join(tmp, "witness.bsw"), WITNESS_SESSION)}
        row_cap = os.path.join(tmp, "row_cap.bsw")
        germ = os.path.join(tmp, "germ.bsw")
        certify = os.path.join(tmp, "certify.bsw")
        overflow = os.path.join(tmp, "overflow.bsw")
        declarations = os.path.join(tmp, "declarations.bsw")
        one_variable = os.path.join(tmp, "one_variable.bsw")
        for path, text in [*inline.values(), (row_cap, ROW_CAP_SESSION), (germ, GERM_SESSION),
                           (certify, CERTIFY_SESSION), (overflow, OVERFLOW_SESSION),
                           (declarations, DECLARATIONS_SESSION),
                           (one_variable, ONE_VARIABLE_SESSION)]:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        acceptance = os.path.join(ROOT, "sessions", "acceptance.bsw")
        sessions = sorted(glob.glob(os.path.join(ROOT, "perfbench", "workloads", "*.bsw")))
        sessions.append(acceptance)
        labels = [os.path.relpath(s, ROOT) for s in sessions] + list(inline)
        sessions += [path for path, _ in inline.values()]
        runs = [(session, label, ["--seed", str(seed)])
                for session, label in zip(sessions, labels) for seed in SEEDS]
        runs += [(acceptance, os.path.relpath(acceptance, ROOT),
                  ["--seed", "0", "--budget", str(budget)]) for budget in BUDGETS]
        resolve = os.path.join(ROOT, "perfbench", "workloads", "resolve.bsw")
        runs += [(resolve, os.path.relpath(resolve, ROOT),
                  ["--seed", "0", "--budget", str(budget)]) for budget in RESOLVE_BUDGETS]
        runs.append((row_cap, "row-cap session", ["--seed", "0"]))
        runs.append((germ, "germ session", ["--seed", "0"]))
        runs.append((certify, "certification session", ["--seed", "0"]))
        runs.append((overflow, "loja overflow session", ["--seed", "0"]))
        runs.append((declarations, "declarations session", ["--seed", "0"]))
        runs.append((one_variable, "one-variable session", ["--seed", "0"]))
        n_diff = 0
        for i, (session, label, flags) in enumerate(runs):
            out_here = os.path.join(tmp, "here", str(i))
            out_rev = os.path.join(tmp, "rev-out", str(i))
            code_here = _run(ROOT, session, flags, out_here)
            code_rev = _run(other, session, flags, out_rev)
            diffs = _differences(out_here, out_rev)
            if code_here != code_rev:
                diffs.append(f"exit code {code_here} vs {code_rev}")
            n_diff += bool(diffs)
            print(f"{'DIFF' if diffs else 'same'}  {label} {' '.join(flags)}"
                  + (f": {', '.join(diffs)}" if diffs else ""))
        print(f"{len(runs) - n_diff} of {len(runs)} runs identical to {rev}")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main())
