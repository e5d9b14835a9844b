"""Check bsw session reports against a workload's expected-results file."""

from __future__ import annotations

import json
import re

import oracles


def load_expected(workload: str) -> dict:
    with open(oracles.expected_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


_MISSING = object()


def _get(block: dict, path: str):
    node = block
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return _MISSING
        node = node[key]
    return node


def block_problems(block: dict, want: dict) -> list[str]:
    """Every way one report block disagrees with its expectation."""
    out = []
    if block.get("command") != want["command"] or block.get("line") != want["line"]:
        return [f"block is {block.get('command')}@{block.get('line')}, "
                f"expected {want['command']}@{want['line']}"]
    for path, value in want.get("equal", {}).items():
        got = _get(block, path)
        if got is _MISSING or got != value:
            out.append(f"{path} = {got if got is not _MISSING else 'missing'!r}, want {value!r}")
    if block.get("status") != "ok":
        return out
    result = block["result"]
    for path, allowed in want.get("one_of", {}).items():
        if _get(block, path) not in allowed:
            out.append(f"{path} = {_get(block, path)!r} is not among the expected values")
    if "strata_dims" in want:
        got = [[row["r"], row["dim"]] for row in result["strata"]]
        if got != want["strata_dims"]:
            out.append(f"strata (r, dim) = {got}, want {want['strata_dims']}")
    if "hilbert_numerator" in want:
        got = oracles.hilbert_numerator_from_shifts(result["shifts"])
        if got != want["hilbert_numerator"]:
            out.append(f"K-polynomial from the shifts = {got}, want {want['hilbert_numerator']}")
    if "euler_characteristic" in want:
        ranks = result["ranks"]
        euler = sum((-1) ** i * r for i, r in enumerate(ranks))
        if euler != want["euler_characteristic"] or len(ranks) > want["max_levels"]:
            out.append(f"ranks {ranks}: Euler characteristic {euler}, "
                       f"want {want['euler_characteristic']} in <= {want['max_levels']} levels")
    if "complex" in want:
        spec = want["complex"]
        if not oracles.maps_form_complex(result["maps"], spec["variables"], spec["generators"]):
            out.append("maps do not start with the generators or do not compose to zero")
    if "slope" in want:
        spec = want["slope"]
        tol = max(spec["abs_tol"], result["residual"] if spec["or_residual"] else 0.0)
        if abs(result["slope"] - spec["value"]) > tol:
            out.append(f"slope {result['slope']!r} is not within {tol:g} of {spec['value']}")
    if "closure" in want:
        spec = want["closure"]
        got = oracles.monomial_exponents(result["closure"], spec["variables"])
        if [list(e) for e in got] != spec["exponents"]:
            out.append("closure generators differ from the Newton-polyhedron oracle")
    return out


def report_problems(report: dict, expected: dict, seed: int) -> list[list[str]]:
    """Per expected block, the list of problems (empty when it is correct)."""
    blocks = report.get("blocks", [])
    wants = expected["blocks"]
    out = []
    for k, want in enumerate(wants):
        if k >= len(blocks):
            out.append(["block missing from the report"])
        else:
            out.append(block_problems(blocks[k], want))
    if report.get("seed") != seed or len(blocks) != len(wants):
        out[0] = out[0] + [f"report has seed {report.get('seed')} and {len(blocks)} blocks"]
    return out


_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def comparable(text: str) -> str:
    """Report text with the timestamp blanked, the one field allowed to vary."""
    return _TIMESTAMP.sub('"timestamp": ""', text)


def header(report: dict) -> dict:
    """The report's fields outside its blocks, except the timestamp."""
    return {k: v for k, v in report.items() if k not in ("timestamp", "blocks")}


def read_report(path: str) -> tuple[str, dict] | None:
    """(text, parsed report), or None when the file is missing or broken."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return text, json.loads(text)
    except (OSError, json.JSONDecodeError):
        return None
