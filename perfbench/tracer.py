"""Layer spans and counters recorded from outside bsw.

The tracer replaces the listed public functions of the bsw modules with
wrappers at run time and rebinds every module-level alias of them (for
example `resolution.krull_dimension` and `session.free_resolution`), so
calls made through an imported name are seen too.  Spans are kept in
memory as (name, start, end, parent span, run id) and written out once,
when the run ends.  `PolyCounter` is the separate count-only pass over
`Polynomial` methods, so its wrappers do not inflate any span's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import Counter, defaultdict

LAYERS = {
    "groebner": ("buchberger", "groebner_basis", "krull_dimension"),
    "modgb": ("module_groebner", "syzygy_columns"),
    "resolution": ("free_resolution", "minimalize", "check_acyclicity", "minors", "strata"),
    "closure": ("newton_facets", "newton_closure", "closure_containment_witness"),
    "semigroup": ("huneke_mu", "germ_bs_exponent", "containment_holds"),
    "loja": ("sample_variety", "loja_exponent_estimate"),
    "session": ("parse_session", "run_session", "run_command"),
}

POLY_METHODS = {"poly.leading_term": "leading_term", "poly.mul": "__mul__"}


def _rebind(orig, replacement) -> None:
    """Point every bsw module attribute that is `orig` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "bsw" or name.startswith("bsw.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, replacement)


def _box_points(sides) -> int:
    return math.prod(s + 1 for s in sides)


class SpanTracer:
    """Wraps the LAYERS functions; one instance per traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []     # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.basis_len_max = 0
        self._seen: dict[str, set] = defaultdict(set)
        self._installed: list[tuple] = []

    # -- observers: derived counts at a layer boundary ------------------

    def _repeat(self, name: str, key) -> None:
        if key in self._seen[name]:
            self.counts[name + ".repeats"] += 1
        else:
            self._seen[name].add(key)

    def _before(self, name: str, args, kwargs) -> None:
        if name == "groebner.krull_dimension":
            ideal = args[0]
            self._repeat(name, (ideal.ring, ideal.generators))
        elif name == "resolution.free_resolution":
            ideal = args[0]
            max_len = args[1] if len(args) > 1 else kwargs.get("max_len")
            certify = args[3] if len(args) > 3 else kwargs.get("certify", True)
            self._repeat(name, (ideal.ring, ideal.generators, max_len, certify))
        elif name == "closure.closure_containment_witness":
            M, e = args[0], args[1]
            self.counts["closure.box_points"] += _box_points(
                e * max(g[j] for g in M.exponents) for j in range(M.nvars))
        elif name == "closure.newton_closure":
            M = args[0]
            self.counts["closure.box_points"] += _box_points(
                max(g[j] for g in M.exponents) for j in range(M.nvars))

    def _after(self, name: str, result) -> None:
        if name == "groebner.buchberger":
            self.basis_len_max = max(self.basis_len_max, len(result))
        elif name == "modgb.module_groebner":
            self.counts["modgb.module_groebner.out_len_sum"] += len(result)
        elif name in ("resolution.minors", "closure.newton_facets"):
            self.counts[name + ".out_sum"] += len(result)
        elif name == "loja.sample_variety":
            self.counts["loja.sample_variety.points"] += len(result)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = self._before, self._after

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before(name, args, kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            after(name, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, functions in LAYERS.items():
            module = importlib.import_module(f"bsw.{module_name}")
            for fn_name in functions:
                orig = getattr(module, fn_name)
                wrapped = self._wrap(f"{module_name}.{fn_name}", orig)
                _rebind(orig, wrapped)
                self._installed.append((orig, wrapped))

    def uninstall(self) -> None:
        for orig, wrapped in reversed(self._installed):
            _rebind(wrapped, orig)
        self._installed.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls and self_s per wrapped function, plus the derived counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (end - start) - inner
        out: dict[str, float] = {}
        for module_name, functions in LAYERS.items():
            for fn_name in functions:
                name = f"{module_name}.{fn_name}"
                out[name + ".calls"] = calls[name]
                out[name + ".self_s"] = self_s[name]
        for name in ("groebner.krull_dimension", "resolution.free_resolution"):
            out[name + ".repeat_frac"] = (self.counts[name + ".repeats"] / calls[name]
                                          if calls[name] else 0.0)
        for name in ("modgb.module_groebner.out_len_sum", "resolution.minors.out_sum",
                     "closure.newton_facets.out_sum", "closure.box_points",
                     "loja.sample_variety.points"):
            out[name] = self.counts[name]
        out["groebner.basis_len_max"] = self.basis_len_max
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id}) + "\n")


class PolyCounter:
    """Count-only wrappers on Polynomial methods; no spans, no clock."""

    def __init__(self):
        self.counts: Counter = Counter()
        self._installed: list[tuple[str, object]] = []

    def install(self) -> None:
        from bsw.poly import Polynomial
        counts = self.counts
        for metric, attr in POLY_METHODS.items():
            orig = getattr(Polynomial, attr)

            def counted(*args, _orig=orig, _key=metric + ".calls", **kwargs):
                counts[_key] += 1
                return _orig(*args, **kwargs)

            setattr(Polynomial, attr, functools.wraps(orig)(counted))
            self._installed.append((attr, orig))

    def uninstall(self) -> None:
        from bsw.poly import Polynomial
        for attr, orig in reversed(self._installed):
            setattr(Polynomial, attr, orig)
        self._installed.clear()

    def metrics(self) -> dict[str, int]:
        return {metric + ".calls": self.counts[metric + ".calls"] for metric in POLY_METHODS}
