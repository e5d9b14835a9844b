"""Batch session language: declarations, commands, JSON report blocks.

A session file is a sequence of semicolon-terminated statements; `#`
comments run to end of line.  Declarations bind state (`ring`, `ideal`,
`poly`, `germ semigroup`, `germ ideal`) and produce no output; every
other statement is a command producing one report block, in file order.
Commands snapshot the bindings in force where they appear, so state may
be re-declared mid-session (a new germ semigroup, a new ambient ring).

Reports are plain dicts ready for json.dumps.  Rerunning a session with
the same seed and budget reproduces the report byte for byte; only the
timestamp field differs.  Command failures (validation, budget) become
structured error blocks, never process aborts (any other exception
becomes an `internal` error block); the only hard stops are
syntax errors, unknown keywords, duplicate names, and references to
names that were never bound, all raised at parse time with positions.
"""

from __future__ import annotations

import math
import os
import traceback
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import __version__
from .closure import MonomialIdeal, bs_verify_monomial, newton_closure
from .errors import (BudgetExceededError, EstimationError, ResourceCapError,
                     SamplingError, StructuralError, ValidationError)
from .groebner import DEFAULT_BUDGET, Ideal
from .loja import (UNDERFLOW_FLOOR, hypersurface_sampler, loja_exponent_estimate,
                   monomial_curve_sampler, sample_variety)
from .poly import Polynomial, RING_ORDERS, RingContext, parse_polynomial
from .resolution import (check_bs_condition, check_cm_depth, expected_ranks,
                         free_resolution, minimalize, normality_witness, strata)
from .semigroup import (NumericalSemigroup, SemigroupIdeal, germ_bs_exponent,
                        germ_closure_member, germ_ideal_member, huneke_mu,
                        ideal_power, semigroup_build, semigroup_ideal)

DEFAULT_RADII = (1e-1, 5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3)
DEFAULT_PER_RADIUS = 10

_COMMAND_KINDS = (
    "resolve", "strata", "check-cm", "check-normal", "check-bs",
    "bs-verify-monomial", "newton-closure", "loja",
    "germ member", "germ closure-member", "germ bs-exponent", "germ mu",
)


class SessionSyntaxError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(message)
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Command:
    kind: str
    line: int
    col: int
    inputs: dict
    payload: dict


@dataclass
class Session:
    n_statements: int = 0
    commands: list[Command] = field(default_factory=list)


def _blank_comments(text: str) -> str:
    # positions must survive, so comments become spaces
    out = []
    in_comment = False
    for ch in text:
        if ch == "\n":
            in_comment = False
            out.append(ch)
        elif ch == "#":
            in_comment = True
            out.append(" ")
        else:
            out.append(" " if in_comment else ch)
    return "".join(out)


def _statements(text: str):
    """Yield (raw, line, col) per ';'-terminated statement."""
    buf: list[str] = []
    start: tuple[int, int] | None = None
    line, col = 1, 1
    for ch in text:
        if ch == ";":
            raw = "".join(buf).strip()
            if not raw:
                raise SessionSyntaxError("empty statement", *(start or (line, col)))
            yield raw, start[0], start[1]
            buf = []
            start = None
        else:
            if not ch.isspace() and start is None:
                start = (line, col)
            buf.append(ch)
        if ch == "\n":
            line += 1
            col = 1
        else:
            col += 1
    if start is not None:
        raise SessionSyntaxError("statement missing ';'", start[0], start[1])


def _split_top_commas(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def _parse_flags(tokens: list[str], allowed: tuple[str, ...], line: int, col: int,
                 positional_max: int = 1):
    """Positional names, then --key value... / key=value flags."""
    positionals: list[str] = []
    flags: dict[str, str] = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.startswith("--"):
            key = tok[2:]
            vals = []
            i += 1
            while i < len(tokens) and not tokens[i].startswith("--"):
                vals.append(tokens[i])
                i += 1
            if not vals:
                raise SessionSyntaxError(f"flag --{key} needs a value", line, col)
            value = " ".join(vals)
        elif "=" in tok:
            key, value = tok.split("=", 1)
            i += 1
        else:
            if len(positionals) >= positional_max:
                raise SessionSyntaxError(f"unexpected token {tok!r}", line, col)
            positionals.append(tok)
            i += 1
            continue
        if key not in allowed:
            raise SessionSyntaxError(f"unknown flag {key!r}", line, col)
        if key in flags:
            raise SessionSyntaxError(f"duplicate flag {key!r}", line, col)
        flags[key] = value
    return positionals, flags


def _int(value: str, what: str, line: int, col: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise SessionSyntaxError(f"{what} wants an integer, got {value!r}", line, col) from None


def _bool(value: str, what: str, line: int, col: int) -> bool:
    if value in ("true", "yes", "on"):
        return True
    if value in ("false", "no", "off"):
        return False
    raise SessionSyntaxError(f"{what} wants true/false, got {value!r}", line, col)


def _int_list(value: str, what: str, line: int, col: int) -> tuple[int, ...]:
    return tuple(_int(p, what, line, col) for p in _split_top_commas(value))


def _float_list(value: str, what: str, line: int, col: int) -> tuple[float, ...]:
    out = []
    for p in _split_top_commas(value):
        try:
            out.append(float(p))
        except ValueError:
            raise SessionSyntaxError(f"{what} wants floats, got {p!r}", line, col) from None
    return tuple(out)


class _ParseState:
    def __init__(self):
        self.ring: RingContext | None = None
        self.bindings: dict[str, tuple[str, object]] = {}
        self.semigroup: NumericalSemigroup | None = None
        self.germ_ideal: SemigroupIdeal | None = None

    def need_ring(self, line, col) -> RingContext:
        if self.ring is None:
            raise SessionSyntaxError("no ring declared yet", line, col)
        return self.ring

    def need_semigroup(self, line, col) -> NumericalSemigroup:
        if self.semigroup is None:
            raise SessionSyntaxError("no germ semigroup declared yet", line, col)
        return self.semigroup

    def need_germ_ideal(self, line, col) -> SemigroupIdeal:
        if self.germ_ideal is None:
            raise SessionSyntaxError("no germ ideal declared yet", line, col)
        return self.germ_ideal

    def lookup(self, name: str, want: str, line, col):
        got = self.bindings.get(name)
        if got is None:
            raise SessionSyntaxError(f"name {name!r} is not bound", line, col)
        kind, obj = got
        if kind != want:
            raise SessionSyntaxError(f"{name!r} is a {kind}, expected {want}", line, col)
        return obj

    def bind(self, name: str, kind: str, obj, line, col):
        if not name.isidentifier():
            raise SessionSyntaxError(f"bad name {name!r}", line, col)
        if name in self.bindings:
            raise SessionSyntaxError(f"duplicate binding {name!r}", line, col)
        self.bindings[name] = (kind, obj)


def _parse_ring(rest: str, st: _ParseState, line: int, col: int):
    words = rest.split()
    names_part: list[str] = []
    weights: tuple[int, ...] | None = None
    order: str | None = None
    i = 0
    while i < len(words) and words[i] not in ("weights", "order"):
        names_part.append(words[i])
        i += 1
    names = tuple(n for n in _split_top_commas(" ".join(names_part)) if n)
    while i < len(words):
        if words[i] == "weights":
            if i + 1 >= len(words):
                raise SessionSyntaxError("weights wants a list", line, col)
            j = i + 1
            vals = []
            while j < len(words) and words[j] != "order":
                vals.append(words[j])
                j += 1
            weights = _int_list(" ".join(vals).replace(" ", ""), "weights", line, col)
            i = j
        elif words[i] == "order":
            if i + 1 >= len(words):
                raise SessionSyntaxError("order wants a tag", line, col)
            order = words[i + 1]
            i += 2
        else:
            raise SessionSyntaxError(f"unexpected token {words[i]!r}", line, col)
    if not names:
        raise SessionSyntaxError("ring wants variable names", line, col)
    if order is not None and order not in RING_ORDERS:
        raise SessionSyntaxError(f"unknown order {order!r}", line, col)
    try:
        st.ring = RingContext(names, weights, order or "weighted-degrevlex")
    except (ValidationError, StructuralError) as exc:
        raise SessionSyntaxError(str(exc), line, col) from None


def _parse_binding(kind: str, rest: str, st: _ParseState, line: int, col: int):
    if "=" not in rest:
        raise SessionSyntaxError(f"{kind} wants NAME = ...", line, col)
    name, rhs = rest.split("=", 1)
    name = name.strip()
    rhs = rhs.strip()
    ring = st.need_ring(line, col)
    try:
        if kind == "ideal":
            gens = [parse_polynomial(p, ring) for p in _split_top_commas(rhs)]
            obj: object = Ideal(ring, tuple(gens))
        else:
            obj = parse_polynomial(rhs, ring)
    except (ValidationError, StructuralError) as exc:
        raise SessionSyntaxError(str(exc), line, col) from None
    st.bind(name, kind, obj, line, col)


def _poly_or_binding(text: str, st: _ParseState, line: int, col: int) -> list[Polynomial]:
    """A flag value naming a binding, or polynomial text in the ring."""
    if text in st.bindings:
        kind, obj = st.bindings[text]
        if kind == "ideal":
            return list(obj.generators)
        return [obj]
    ring = st.need_ring(line, col)
    try:
        return [parse_polynomial(p, ring) for p in _split_top_commas(text)]
    except ValidationError as exc:
        raise SessionSyntaxError(str(exc), line, col) from None


def _gen_strings(I: Ideal) -> list[str]:
    return [str(g) for g in I.generators]


def _parse_germ(rest: str, st: _ParseState, line: int, col: int) -> Command | None:
    words = rest.split()
    if not words:
        raise SessionSyntaxError("germ wants a subcommand", line, col)
    sub, tail = words[0], words[1:]
    if sub == "semigroup":
        gens = _int_list("".join(tail), "semigroup generators", line, col)
        try:
            st.semigroup = semigroup_build(gens)
        except ValidationError as exc:
            raise SessionSyntaxError(str(exc), line, col) from None
        st.germ_ideal = None
        return None
    if sub == "ideal":
        S = st.need_semigroup(line, col)
        shifts = _int_list("".join(tail), "ideal shifts", line, col)
        try:
            st.germ_ideal = semigroup_ideal(S, shifts)
        except ValidationError as exc:
            raise SessionSyntaxError(str(exc), line, col) from None
        return None

    S = st.need_semigroup(line, col)
    germ_echo = {"semigroup": list(S.generators)}
    if sub == "member":
        A = st.need_germ_ideal(line, col)
        pos, _ = _parse_flags(tail, (), line, col)
        if len(pos) != 1:
            raise SessionSyntaxError("germ member wants one element", line, col)
        s = _int(pos[0], "element", line, col)
        inputs = {**germ_echo, "ideal": list(A.shifts), "s": s}
        return Command("germ member", line, col, inputs, {"S": S, "A": A, "s": s})
    if sub == "closure-member":
        A = st.need_germ_ideal(line, col)
        pos, flags = _parse_flags(tail, ("power",), line, col)
        if len(pos) != 1:
            raise SessionSyntaxError("germ closure-member wants one element", line, col)
        s = _int(pos[0], "element", line, col)
        power = _int(flags["power"], "power", line, col) if "power" in flags else 1
        inputs = {**germ_echo, "ideal": list(A.shifts), "s": s, "power": power}
        return Command("germ closure-member", line, col, inputs,
                       {"S": S, "A": A, "s": s, "power": power})
    if sub == "bs-exponent":
        A = st.need_germ_ideal(line, col)
        pos, flags = _parse_flags(tail, ("ell", "mode"), line, col, positional_max=0)
        if "ell" not in flags:
            raise SessionSyntaxError("germ bs-exponent wants ell=N", line, col)
        ell = _int(flags["ell"], "ell", line, col)
        mode = flags.get("mode", "power")
        if mode not in ("power", "closure-power"):
            raise SessionSyntaxError(f"unknown mode {mode!r}", line, col)
        inputs = {**germ_echo, "ideal": list(A.shifts), "ell": ell, "mode": mode}
        return Command("germ bs-exponent", line, col, inputs,
                       {"S": S, "A": A, "ell": ell, "mode": mode})
    if sub == "mu":
        pos, flags = _parse_flags(tail, ("vmax", "lmax"), line, col, positional_max=0)
        if "vmax" not in flags or "lmax" not in flags:
            raise SessionSyntaxError("germ mu wants vmax=N lmax=N", line, col)
        vmax = _int(flags["vmax"], "vmax", line, col)
        lmax = _int(flags["lmax"], "lmax", line, col)
        inputs = {**germ_echo, "vmax": vmax, "lmax": lmax}
        return Command("germ mu", line, col, inputs, {"S": S, "vmax": vmax, "lmax": lmax})
    raise SessionSyntaxError(f"unknown germ subcommand {sub!r}", line, col)


def _parse_loja(tokens: list[str], st: _ParseState, line: int, col: int) -> Command:
    pos, flags = _parse_flags(
        tokens, ("phi", "a", "curve", "solve", "radii", "per-radius", "csv"),
        line, col, positional_max=0)
    if "phi" not in flags or "a" not in flags:
        raise SessionSyntaxError("loja wants --phi and --a", line, col)
    ring = st.need_ring(line, col)
    phi_list = _poly_or_binding(flags["phi"], st, line, col)
    if len(phi_list) != 1:
        raise SessionSyntaxError("loja --phi wants a single polynomial", line, col)
    phi = phi_list[0]
    a_polys = _poly_or_binding(flags["a"], st, line, col)
    radii = (_float_list(flags["radii"], "radii", line, col)
             if "radii" in flags else DEFAULT_RADII)
    per_radius = (_int(flags["per-radius"], "per-radius", line, col)
                  if "per-radius" in flags else DEFAULT_PER_RADIUS)
    payload: dict = {"ring": ring, "phi": phi, "a": a_polys,
                     "radii": radii, "per_radius": per_radius,
                     "csv": flags.get("csv")}
    inputs: dict = {"phi": str(phi), "a": [str(p) for p in a_polys],
                    "radii": list(radii), "per_radius": per_radius}
    if ("curve" in flags) == ("solve" in flags):
        raise SessionSyntaxError("loja wants exactly one of --curve / --solve", line, col)
    if "curve" in flags:
        curve = _int_list(flags["curve"], "curve", line, col)
        payload["curve"] = curve
        inputs["curve"] = list(curve)
    else:
        eq = flags["solve"]
        if "=" not in eq:
            raise SessionSyntaxError("--solve wants var=expression", line, col)
        var, expr_text = eq.split("=", 1)
        var = var.strip()
        if var not in ring.variable_names:
            raise SessionSyntaxError(f"{var!r} is not a ring variable", line, col)
        try:
            expr = parse_polynomial(expr_text, ring)
        except ValidationError as exc:
            raise SessionSyntaxError(str(exc), line, col) from None
        payload["solve"] = (ring.var_index(var), expr)
        inputs["solve"] = f"{var} = {expr}"
    if flags.get("csv"):
        inputs["csv"] = flags["csv"]
    return Command("loja", line, col, inputs, payload)


def parse_session(text: str) -> Session:
    """Parse and resolve a session; commands are not executed."""
    st = _ParseState()
    sess = Session()
    for raw, line, col in _statements(_blank_comments(text)):
        sess.n_statements += 1
        words = raw.split()
        head = words[0]
        rest = raw[len(head):].strip()
        if head == "ring":
            _parse_ring(rest, st, line, col)
            continue
        if head in ("ideal", "poly"):
            _parse_binding(head, rest, st, line, col)
            continue
        if head == "germ":
            cmd = _parse_germ(rest, st, line, col)
            if cmd is not None:
                sess.commands.append(cmd)
            continue
        if head == "loja":
            sess.commands.append(_parse_loja(words[1:], st, line, col))
            continue
        if head in ("resolve", "strata", "check-cm", "check-normal",
                    "newton-closure"):
            pos, flags = _parse_flags(
                words[1:],
                ("max-len", "certify") if head in ("resolve", "strata") else (),
                line, col)
            if len(pos) != 1:
                raise SessionSyntaxError(f"{head} wants one ideal name", line, col)
            I = st.lookup(pos[0], "ideal", line, col)
            payload = {"ideal": I}
            inputs = {"ideal": pos[0], "generators": _gen_strings(I)}
            if head in ("resolve", "strata"):
                payload["max_len"] = (_int(flags["max-len"], "max-len", line, col)
                                      if "max-len" in flags else None)
                payload["certify"] = (_bool(flags["certify"], "certify", line, col)
                                      if "certify" in flags else True)
            sess.commands.append(Command(head, line, col, inputs, payload))
            continue
        if head == "check-bs":
            pos, flags = _parse_flags(words[1:], ("ideal", "m"), line, col)
            if len(pos) != 1 or "ideal" not in flags:
                raise SessionSyntaxError("check-bs wants NAME --ideal A", line, col)
            I = st.lookup(pos[0], "ideal", line, col)
            a = st.lookup(flags["ideal"], "ideal", line, col)
            m = _int(flags["m"], "m", line, col) if "m" in flags else None
            inputs = {"ideal": pos[0], "generators": _gen_strings(I),
                      "test_ideal": flags["ideal"], "test_generators": _gen_strings(a),
                      "m": m if m is not None else len(a.generators)}
            sess.commands.append(Command(head, line, col, inputs,
                                         {"ideal": I, "a": a, "m": m}))
            continue
        if head == "bs-verify-monomial":
            pos, flags = _parse_flags(words[1:], ("ell", "d"), line, col)
            if len(pos) != 1 or "ell" not in flags:
                raise SessionSyntaxError("bs-verify-monomial wants NAME --ell N", line, col)
            I = st.lookup(pos[0], "ideal", line, col)
            ell = _int(flags["ell"], "ell", line, col)
            d = _int(flags["d"], "d", line, col) if "d" in flags else None
            inputs = {"ideal": pos[0], "generators": _gen_strings(I), "ell": ell, "d": d}
            sess.commands.append(Command(head, line, col, inputs,
                                         {"ideal": I, "ell": ell, "d": d}))
            continue
        raise SessionSyntaxError(f"unknown statement keyword {head!r}", line, col)
    return sess


# ---------------------------------------------------------------- execution

_ERROR_KINDS = (
    (BudgetExceededError, "budget"),
    (ResourceCapError, "resource-cap"),
    (ValidationError, "validation"),
    (StructuralError, "structural"),
    (SamplingError, "sampling"),
    (EstimationError, "estimation"),
)


def _error_kind(exc: Exception) -> str:
    for cls, kind in _ERROR_KINDS:
        if isinstance(exc, cls):
            return kind
    return "internal"


def _run_resolve(payload: dict, budget: int) -> dict:
    I: Ideal = payload["ideal"]
    C = free_resolution(I, max_len=payload["max_len"], certify=payload["certify"],
                        budget=budget)
    result = {"ranks": list(C.ranks), "graded": C.graded,
              "expected_ranks": list(expected_ranks(C)),
              "certified": bool(payload["certify"])}
    if C.graded:
        result["minimal_betti"] = list(minimalize(C).ranks)
        result["shifts"] = [list(s) for s in C.shifts]
    result["maps"] = [M.to_strings() for M in C.maps]
    return result


def _strata_dict(S) -> dict:
    strata_rows = []
    for r in sorted(S.strata):
        info = S.strata[r]
        strata_rows.append({
            "r": r,
            "generators": [str(g) for g in info.ideal.generators],
            "dim": None if info.empty else info.dim,
            "codim_in_z": info.codim_in_z,
            "empty": info.empty,
        })
    return {
        "ambient_dim": S.ambient_dim,
        "dim": S.d,
        "codim": S.p,
        "expected_ranks": list(S.expected),
        "zsing_generators": [str(g) for g in S.zsing_ideal.generators],
        "strata": strata_rows,
        "purity_ok": S.purity_ok,
        "degenerate": list(S.degenerate),
        "notes": list(S.notes),
    }


def _strata_for(payload: dict, budget: int):
    I: Ideal = payload["ideal"]
    C = free_resolution(I, max_len=payload.get("max_len"),
                        certify=payload.get("certify", True), budget=budget)
    return strata(C, I, budget=budget)


def _run_command(cmd: Command, *, seed: int, budget: int, csv_dir: str) -> dict:
    kind = cmd.kind
    p = cmd.payload
    if kind == "resolve":
        return _run_resolve(p, budget)
    if kind == "strata":
        return _strata_dict(_strata_for(p, budget))
    if kind == "check-cm":
        S = _strata_for(p, budget)
        is_cm, depth, _ = check_cm_depth(S)
        return {"is_cm": is_cm, "depth": depth, "dim": S.d}
    if kind == "check-normal":
        S = _strata_for(p, budget)
        w = normality_witness(S)
        return {"holds": w is None,
                "witness": None if w is None else {"r": w[0], "codim": w[1]}}
    if kind == "check-bs":
        S = _strata_for(p, budget)
        holds, w = check_bs_condition(S, p["a"], p["m"])
        m = p["m"] if p["m"] is not None else len(p["a"].generators)
        return {"holds": holds, "m": m,
                "witness": None if w is None else {"r": w[0], "codim": w[1]}}
    if kind == "bs-verify-monomial":
        I: Ideal = p["ideal"]
        M = MonomialIdeal.from_polynomials(list(I.generators))
        holds, witness = bs_verify_monomial(M, p["ell"], p["d"])
        d = p["d"] if p["d"] is not None else M.nvars
        exponent = min(len(M.exponents), d) + p["ell"] - 1
        names = I.ring.variable_names
        return {"holds": holds, "ell": p["ell"], "d": d, "exponent": exponent,
                "counterexample": None if witness is None
                else MonomialIdeal(M.nvars, (witness,)).strings(names)[0]}
    if kind == "newton-closure":
        I = p["ideal"]
        M = MonomialIdeal.from_polynomials(list(I.generators))
        names = I.ring.variable_names
        return {"generators": M.strings(names),
                "closure": newton_closure(M).strings(names)}
    if kind == "germ member":
        return {"s": p["s"], "member": germ_ideal_member(p["s"], p["A"], p["S"])}
    if kind == "germ closure-member":
        A = p["A"] if p["power"] == 1 else ideal_power(p["A"], p["power"], p["S"])
        return {"s": p["s"], "power": p["power"],
                "member": germ_closure_member(p["s"], A, p["S"])}
    if kind == "germ bs-exponent":
        N, witness = germ_bs_exponent(p["A"], p["ell"], p["S"], mode=p["mode"],
                                      with_witness=True)
        return {"ell": p["ell"], "mode": p["mode"], "exponent": N,
                "minimality_witness": witness}
    if kind == "germ mu":
        mu, A, ell = huneke_mu(p["S"], p["vmax"], p["lmax"])
        return {"vmax": p["vmax"], "lmax": p["lmax"], "mu": mu,
                "witness": {"ideal": list(A.shifts), "ell": ell}}
    if kind == "loja":
        return _run_loja(p, seed=seed, csv_dir=csv_dir)
    raise AssertionError(f"unhandled command kind {kind}")


def _run_loja(p: dict, *, seed: int, csv_dir: str) -> dict:
    ring: RingContext = p["ring"]
    if "curve" in p:
        sampler = monomial_curve_sampler(ring, p["curve"], p["radii"],
                                         p["per_radius"], seed)
    else:
        var, expr = p["solve"]
        sampler = hypersurface_sampler(ring, var, expr, p["radii"],
                                       p["per_radius"], seed)
    pts = sample_variety(sampler)
    est = loja_exponent_estimate(p["phi"], p["a"], pts)
    result = {"slope": est.slope, "intercept": est.intercept,
              "residual": est.residual, "n_points": est.n_points,
              "radii_range": [est.radii_range[0], est.radii_range[1]],
              "reliable": est.reliable, "csv": None}
    if p.get("csv"):
        path = os.path.join(csv_dir, p["csv"])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("log_norm_a,log_phi\n")
            for pt in pts:
                va = sum(abs(g.eval_complex(pt)) for g in p["a"])
                vp = abs(p["phi"].eval_complex(pt))
                if va <= UNDERFLOW_FLOOR or vp <= UNDERFLOW_FLOOR:
                    continue
                fh.write(f"{math.log(va)!r},{math.log(vp)!r}\n")
        result["csv"] = p["csv"]
    return result


def _summary(kind: str, status: str, body: dict) -> str:
    if status == "error":
        return f"{body['kind']} error: {body['message']}"
    if kind == "resolve":
        s = f"resolution ranks {body['ranks']}"
        if "minimal_betti" in body:
            s += f", minimal Betti {body['minimal_betti']}"
        return s
    if kind == "strata":
        nonempty = [row["r"] for row in body["strata"] if not row["empty"]]
        return (f"dim {body['dim']}, codim {body['codim']}; nonempty strata "
                f"r in {nonempty}; purity {'ok' if body['purity_ok'] else 'VIOLATED'}")
    if kind == "check-cm":
        head = "Cohen-Macaulay" if body["is_cm"] else "not Cohen-Macaulay"
        return f"{head}; depth {body['depth']} of dim {body['dim']}"
    if kind == "check-normal":
        if body["holds"]:
            return "normality condition holds"
        w = body["witness"]
        return f"normality condition fails at r={w['r']} (codim {w['codim']})"
    if kind == "check-bs":
        if body["holds"]:
            return f"containment condition holds (m={body['m']})"
        w = body["witness"]
        return f"containment condition fails at r={w['r']} (codim {w['codim']})"
    if kind == "bs-verify-monomial":
        if body["holds"]:
            return f"closure of power {body['exponent']} inside power {body['ell']}"
        return f"containment fails: {body['counterexample']}"
    if kind == "newton-closure":
        return f"closure has {len(body['closure'])} generators"
    if kind == "germ member":
        return f"t^{body['s']} {'in' if body['member'] else 'not in'} the ideal"
    if kind == "germ closure-member":
        where = f"closure of ideal^{body['power']}"
        return f"t^{body['s']} {'in' if body['member'] else 'not in'} {where}"
    if kind == "germ bs-exponent":
        return f"exponent {body['exponent']} (mode {body['mode']}, ell {body['ell']})"
    if kind == "germ mu":
        w = body["witness"]
        return f"mu = {body['mu']} with witness ideal {w['ideal']}, ell = {w['ell']}"
    if kind == "loja":
        tag = "reliable" if body["reliable"] else "UNRELIABLE"
        return (f"slope {body['slope']:.4f} (residual {body['residual']:.4f}, "
                f"{body['n_points']} points, {tag})")
    return kind


def run_command(cmd: Command, *, seed: int = 0, budget: int | None = None,
                csv_dir: str = ".") -> dict:
    """Execute one command into a report block; failures become blocks."""
    if budget is None:
        budget = DEFAULT_BUDGET
    block = {"command": cmd.kind, "line": cmd.line, "col": cmd.col,
             "inputs": cmd.inputs}
    try:
        result = _run_command(cmd, seed=seed, budget=budget, csv_dir=csv_dir)
    except Exception as exc:
        kind = _error_kind(exc)
        message = str(exc)
        if kind == "internal":
            # a bug, not bad input: keep the traceback out of the
            # reproducible report but record it on stderr
            traceback.print_exc()
            message = f"{type(exc).__name__}: {exc}"
        error = {"kind": kind, "message": message}
        block["status"] = "error"
        block["error"] = error
        block["summary"] = _summary(cmd.kind, "error", error)
        return block
    block["status"] = "ok"
    block["result"] = result
    block["summary"] = _summary(cmd.kind, "ok", result)
    return block


def run_session(sess: Session, *, seed: int = 0, budget: int | None = None,
                csv_dir: str = ".") -> dict:
    """Execute every command in order and assemble the report."""
    if budget is None:
        budget = DEFAULT_BUDGET
    blocks = [run_command(c, seed=seed, budget=budget, csv_dir=csv_dir)
              for c in sess.commands]
    n_err = sum(1 for b in blocks if b["status"] == "error")
    return {
        "tool": "bsw",
        "version": __version__,
        "seed": seed,
        "budget": budget,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "statements": sess.n_statements,
        "commands": len(blocks),
        "errors": n_err,
        "blocks": blocks,
    }


def report_exit_code(report: dict) -> int:
    """0 clean, 3 if any budget/cap block, else 2 if any error block."""
    code = 0
    for b in report["blocks"]:
        if b["status"] != "error":
            continue
        if b["error"]["kind"] in ("budget", "resource-cap"):
            return 3
        code = 2
    return code
