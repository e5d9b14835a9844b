"""Batch session language: declarations, commands, JSON report blocks.

A session file is a sequence of semicolon-terminated statements; `#`
comments run to end of line and are blanked to spaces by one regex before
the text is cut at each `;`, and a statement's line and column come from
a list of line starts, so positions survive.  Declarations bind state
(`ring`, `ideal`, `poly`, `germ semigroup`, `germ ideal`) and produce no
output; every other statement is a command producing one report block, in
file order.  Commands snapshot the bindings in force where they appear, so
state may be re-declared mid-session (a new germ semigroup, a new ambient
ring).

Reports are plain dicts ready for json.dumps.  Every block ends with
`units`, what its command drew on the meter that `run_command` makes for it,
ok or not, so a `budget` block shows the whole budget.  Rerunning a session
with the same seed and budget reproduces the report byte for byte; only the
timestamp field differs.  Command failures (validation, budget) become
structured error blocks, never process aborts (any other exception
becomes an `internal` error block); the only hard stops are
syntax errors, unknown keywords, duplicate names, and references to
names that were never bound or that live in another ring than the one
the command works in, all raised at parse time with positions.

Each bound ideal has one session memo, a dict made at parse time and put
in the payload of every command that names the binding, so every run of
the parsed session shares it.  Per (max_len, certify) it keeps the
resolution that `resolve` builds and the resolution with its strata that
`strata` and the `check-*` commands read.  A hit spends the units that its
first build drew through `Budget.spend`, like any other work; a failed build
stores nothing.  `run_command` gives each run fresh copies of the payload's
ideals, so no cached basis lowers a build's units: a hit that runs out gives
the block a fresh parse gives, and a command's block and units never depend
on what ran before it.

A statement's keyword, its first word or `germ` and the next, selects one
`_DECLARATIONS` entry, a parse function (kind, text after the keyword, parse
state) that binds state, or one `_COMMANDS` row, which states the command's
syntax once: its usage text, its number of positional words, its required
and its other flags, then a parse function (positional words, flags, parse
state) -> (inputs, payload) and a run function payload -> (result, summary)
whose summary is built from the result alone.  `parse_session` reads the
words with one `_parse_flags` call per command, which checks them against
the row, so a parse function only resolves names and values.  Parse
helpers raise `ValidationError`; `parse_session` attaches the statement
position once; they get the declared ring, germ semigroup or germ ideal from
one `need(what)`.  Number lists are comma-separated, never space-separated;
integers are ASCII digits with an optional sign, and floats finite ASCII
decimals.  A `loja` coefficient beyond the float range is refused at
parse time; a float overflow while sampling or estimating gives a
`sampling` or `estimation` block with a fixed message, not the C library's.

In a session, numpy loads at parse time or not at all.  Importing bsw
does not load it: `closure` and `loja` import it inside the functions
that use it.  `parse_session` imports it when it meets a command of a kind in
`_NUMPY_KINDS`, the kinds whose run functions use it, so a session that
needs numpy pays for it before its first command runs, and one that does
not (resolutions, strata, `check-*`, germ commands) never loads it.  No
numpy module loads while a session runs: `loja` draws its angles from its
own PCG64 stream, so numpy's random package is never imported.  Nor do
`dataclasses`, `traceback` or `datetime` load: `Command` and `Session` are
`poly.Record`s like the package's other records, `run_command` imports
`traceback` only for an `internal` block, and `run_session` writes the
timestamp with `time.strftime`.
"""

from __future__ import annotations

import math
import os
import re
import time
from bisect import bisect_right

from . import __version__
from .closure import MonomialIdeal, bs_exponent, bs_verify_monomial, newton_closure
from .errors import (BudgetExceededError, EstimationError, ResourceCapError,
                     SamplingError, StructuralError, ValidationError)
from .groebner import Ideal
from .loja import _fit_blocks, _sample_blocks, hypersurface_sampler, monomial_curve_sampler
from .modgb import DEFAULT_BUDGET, Budget
from .poly import (Polynomial, RING_ORDERS, Record, RingContext, format_monomial,
                   parse_polynomial, parse_polynomials, split_top_commas)
from .resolution import (check_bs_condition, check_cm_depth, expected_ranks,
                         free_resolution, minimalize, normality_witness, strata)
from .semigroup import (NumericalSemigroup, SemigroupIdeal, germ_bs_exponent,
                        germ_closure_member, germ_ideal_member, huneke_mu,
                        semigroup_build, semigroup_ideal, validate_mode)

DEFAULT_RADII = (1e-1, 5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3)
DEFAULT_PER_RADIUS = 10
_INT = re.compile(r"[+-]?[0-9]+")
_FLOAT = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
_KEYWORD = re.compile(r"germ\s+\S+|\S+")


class SessionSyntaxError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(message)
        self.line = line
        self.col = col


class Command(Record):
    _fields = ("kind", "line", "col", "inputs", "payload")

    def __init__(self, kind: str, line: int, col: int, inputs: dict, payload: dict):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "col", col)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "payload", payload)


class Session(Record):
    """The parsed session; parse_session fills it in place, so unlike the
    other records it is mutable and unhashable."""

    _fields = ("n_statements", "commands")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, n_statements: int = 0, commands: list[Command] | None = None):
        self.n_statements = n_statements
        self.commands = [] if commands is None else commands


def _statements(text: str):
    """Yield (raw, line, col) per ';'-terminated statement; each `#` comment is
    first blanked to spaces up to its newline, so positions and the raw text's
    interior spacing survive, and a position's line is found among the line starts."""
    text = re.sub(r"#[^\n]*", lambda m: " " * len(m[0]), text)
    line_starts = [0, *(m.end() for m in re.finditer("\n", text))]

    def at(i: int) -> tuple[int, int]:
        line = bisect_right(line_starts, i)
        return line, i - line_starts[line - 1] + 1

    start = 0
    while (end := text.find(";", start)) >= 0:
        part = text[start:end]
        if not (raw := part.strip()):
            raise SessionSyntaxError("empty statement", *at(end))
        yield (raw, *at(end - len(part.lstrip())))
        start = end + 1
    if rest := text[start:].lstrip():
        raise SessionSyntaxError("statement missing ';'", *at(len(text) - len(rest)))


def _parse_flags(tokens: list[str], kind: str, usage: str, n_pos: int,
                 required: tuple[str, ...], optional: tuple[str, ...]):
    """A command's tokens as up to n_pos positional words, then --key value... /
    key=value flags among required + optional; once every token is read, a
    missing word or required flag gives `{kind} wants {usage}`."""
    positionals: list[str] = []
    flags: dict[str, str] = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        i += 1
        if tok.startswith("--"):
            key, first = tok[2:], i
            while i < len(tokens) and not tokens[i].startswith("--"):
                i += 1
            if i == first:
                raise ValidationError(f"flag --{key} needs a value")
            value = " ".join(tokens[first:i])
        elif "=" in tok:
            key, value = tok.split("=", 1)
        else:
            if len(positionals) >= n_pos:
                raise ValidationError(f"unexpected token {tok!r}")
            positionals.append(tok)
            continue
        if key not in required and key not in optional:
            raise ValidationError(f"unknown flag {key!r}")
        if key in flags:
            raise ValidationError(f"duplicate flag {key!r}")
        flags[key] = value
    if len(positionals) < n_pos or any(k not in flags for k in required):
        raise ValidationError(f"{kind} wants {usage}")
    return positionals, flags


def _int(value: str, what: str) -> int:
    if _INT.fullmatch(value) is None:
        raise ValidationError(f"{what} wants an integer, got {value!r}")
    return int(value)


def _bool(value: str, what: str) -> bool:
    if value in ("true", "yes", "on"):
        return True
    if value in ("false", "no", "off"):
        return False
    raise ValidationError(f"{what} wants true/false, got {value!r}")


def _int_list(value: str, what: str) -> tuple[int, ...]:
    if not value:
        raise ValidationError(f"{what} wants a list")
    return tuple(_int(p, what) for p in split_top_commas(value))


def _float_list(value: str, what: str) -> tuple[float, ...]:
    out = []
    for p in split_top_commas(value):
        if _FLOAT.fullmatch(p) is None or not math.isfinite(x := float(p)):
            raise ValidationError(f"{what} wants floats, got {p!r}")
        out.append(x)
    return tuple(out)


class _ParseState:
    def __init__(self):
        self.ring: RingContext | None = None
        self.bindings: dict[str, tuple[str, object]] = {}
        self.germ_semigroup: NumericalSemigroup | None = None
        self.germ_ideal: SemigroupIdeal | None = None
        self.memos: dict[Ideal, dict] = {}  # a bound ideal -> its session memo

    def need(self, what: str):
        """The declared "ring", "germ semigroup" or "germ ideal"."""
        got = getattr(self, what.replace(" ", "_"))
        if got is None:
            raise ValidationError(f"no {what} declared yet")
        return got

    def lookup(self, name: str, want: str, ring: RingContext | None = None):
        """The `want` bound to name, refused if it lives outside ring (if given)."""
        got = self.bindings.get(name)
        if got is None:
            raise ValidationError(f"name {name!r} is not bound")
        kind, obj = got
        if kind != want:
            raise ValidationError(f"{name!r} is a {kind}, expected {want}")
        if ring is not None and obj.ring != ring:
            raise ValidationError(f"{name!r} is bound in another ring")
        return obj

    def bind(self, name: str, kind: str, obj):
        if not name.isidentifier():
            raise ValidationError(f"bad name {name!r}")
        if name in self.bindings:
            raise ValidationError(f"duplicate binding {name!r}")
        self.bindings[name] = (kind, obj)


def _parse_ring(kind: str, rest: str, st: _ParseState):
    """`ring NAMES [weights LIST] [order TAG]`, the clauses in either order."""
    clause = "names"
    clauses: dict[str, list[str]] = {clause: []}
    for word in rest.split():
        if word in ("weights", "order"):
            if word in clauses:
                raise ValidationError(f"duplicate {word} clause")
            clause, clauses[word] = word, []
        else:
            clauses[clause].append(word)
    names = tuple(n for n in split_top_commas(" ".join(clauses["names"])) if n)
    if not names:
        raise ValidationError("ring wants variable names")
    order = " ".join(clauses.get("order", ["weighted-degrevlex"]))
    if order not in RING_ORDERS:
        raise ValidationError(f"unknown order {order!r}" if order else "order wants a tag")
    weights = _int_list(" ".join(clauses["weights"]), "weights") if "weights" in clauses else None
    st.ring = RingContext(names, weights, order)


def _parse_binding(kind: str, rest: str, st: _ParseState):
    if "=" not in rest:
        raise ValidationError(f"{kind} wants NAME = ...")
    name, rhs = rest.split("=", 1)
    name = name.strip()
    rhs = rhs.strip()
    ring = st.need("ring")
    if kind == "ideal":
        obj: object = Ideal(ring, tuple(parse_polynomials(rhs, ring)))
    else:
        obj = parse_polynomial(rhs, ring)
    st.bind(name, kind, obj)


def _parse_germ_semigroup(kind: str, rest: str, st: _ParseState):
    st.germ_semigroup = semigroup_build(_int_list(" ".join(rest.split()), "semigroup generators"))
    st.germ_ideal = None


def _parse_germ_ideal(kind: str, rest: str, st: _ParseState):
    st.germ_ideal = semigroup_ideal(st.need("germ semigroup"),
                                    _int_list(" ".join(rest.split()), "ideal shifts"))


def _poly_or_binding(text: str, st: _ParseState) -> list[Polynomial]:
    """A flag value naming a binding in the current ring, or polynomial text in it."""
    if text in st.bindings:
        kind = st.bindings[text][0]
        obj = st.lookup(text, kind, st.need("ring"))
        return list(obj.generators) if kind == "ideal" else [obj]
    return parse_polynomials(text, st.need("ring"))


def _in_float_range(polys: list[Polynomial], flag: str) -> list[Polynomial]:
    """The polynomials of a `loja` flag, refused if a coefficient lies beyond
    the float range, since sampling and estimation evaluate them in floats."""
    for p in polys:
        for e, c in p.terms().items():
            try:
                float(c)
            except OverflowError:
                from decimal import Decimal
                term = format_monomial(e, p.ring.variable_names) or "1"
                raise ValidationError(
                    f"loja --{flag} coefficient {Decimal(c.numerator) / c.denominator:.3e} "
                    f"of {term} lies outside the float range") from None
    return polys


def _gen_strings(I: Ideal) -> list[str]:
    return [str(g) for g in I.generators]


# ---------------------------------------------------------------- commands

def _named_ideal(pos: list[str], flags: dict, st: _ParseState):
    """The bound ideal that the one positional word names, as (inputs, payload).
    The payload holds the bound Ideal itself, which run_command copies before
    each run, and the binding's memo, one dict that every command naming this
    binding shares (see `_memoized`)."""
    I = st.lookup(pos[0], "ideal")
    return ({"ideal": pos[0], "generators": _gen_strings(I)},
            {"ideal": I, "memo": st.memos.setdefault(I, {})})


def _parse_resolution(pos: list[str], flags: dict, st: _ParseState):
    inputs, payload = _named_ideal(pos, flags, st)
    payload["max_len"] = _int(flags["max-len"], "max-len") if "max-len" in flags else None
    payload["certify"] = _bool(flags["certify"], "certify") if "certify" in flags else True
    return inputs, payload


def _parse_check_bs(pos: list[str], flags: dict, st: _ParseState):
    inputs, payload = _named_ideal(pos, flags, st)
    a = st.lookup(flags["ideal"], "ideal", payload["ideal"].ring)
    m = _int(flags["m"], "m") if "m" in flags else len(a.generators)
    inputs.update(test_ideal=flags["ideal"], test_generators=_gen_strings(a), m=m)
    payload.update(a=a, m=m)
    return inputs, payload


def _parse_bs_verify(pos: list[str], flags: dict, st: _ParseState):
    inputs, payload = _named_ideal(pos, flags, st)
    ell = _int(flags["ell"], "ell")
    d = _int(flags["d"], "d") if "d" in flags else None
    inputs.update(ell=ell, d=d)
    payload.update(ell=ell, d=d)
    return inputs, payload


def _germ(st: _ParseState, with_ideal: bool = True, **fields):
    """Semigroup (and germ ideal) echo plus fields, as (inputs, payload)."""
    S = st.need("germ semigroup")
    inputs: dict = {"semigroup": list(S.generators)}
    payload: dict = {"S": S}
    if with_ideal:
        A = st.need("germ ideal")
        inputs["ideal"] = list(A.shifts)
        payload["A"] = A
    return {**inputs, **fields}, {**payload, **fields}


def _parse_germ_member(pos: list[str], flags: dict, st: _ParseState):
    return _germ(st, s=_int(pos[0], "element"))


def _parse_germ_closure_member(pos: list[str], flags: dict, st: _ParseState):
    """`germ closure-member s [power=p]`, p defaulting to 1."""
    return _germ(st, s=_int(pos[0], "element"), power=_int(flags.get("power", "1"), "power"))


def _parse_germ_bs_exponent(pos: list[str], flags: dict, st: _ParseState):
    ell = _int(flags["ell"], "ell")
    mode = flags.get("mode", "power")
    validate_mode(mode)
    return _germ(st, ell=ell, mode=mode)


def _parse_germ_mu(pos: list[str], flags: dict, st: _ParseState):
    return _germ(st, with_ideal=False, vmax=_int(flags["vmax"], "vmax"),
                 lmax=_int(flags["lmax"], "lmax"))


def _parse_loja(pos: list[str], flags: dict, st: _ParseState):
    ring = st.need("ring")
    phi_list = _in_float_range(_poly_or_binding(flags["phi"], st), "phi")
    if len(phi_list) != 1:
        raise ValidationError("loja --phi wants a single polynomial")
    phi = phi_list[0]
    a_polys = _in_float_range(_poly_or_binding(flags["a"], st), "a")
    radii = _float_list(flags["radii"], "radii") if "radii" in flags else DEFAULT_RADII
    per_radius = (_int(flags["per-radius"], "per-radius")
                  if "per-radius" in flags else DEFAULT_PER_RADIUS)
    csv = flags.get("csv")
    payload: dict = {"ring": ring, "phi": phi, "a": a_polys,
                     "radii": radii, "per_radius": per_radius, "csv": csv}
    inputs: dict = {"phi": str(phi), "a": [str(p) for p in a_polys],
                    "radii": list(radii), "per_radius": per_radius}
    if ("curve" in flags) == ("solve" in flags):
        raise ValidationError("loja wants exactly one of --curve / --solve")
    if "curve" in flags:
        curve = _int_list(flags["curve"], "curve")
        payload["curve"] = curve
        inputs["curve"] = list(curve)
    else:
        eq = flags["solve"]
        if "=" not in eq:
            raise ValidationError("--solve wants var=expression")
        var, expr_text = eq.split("=", 1)
        var = var.strip()
        if var not in ring.variable_names:
            raise ValidationError(f"{var!r} is not a ring variable")
        [expr] = _in_float_range([parse_polynomial(expr_text, ring)], "solve")
        payload["solve"] = (ring.var_index(var), expr)
        inputs["solve"] = f"{var} = {expr}"
    if csv:
        # the CSV goes next to the report, never elsewhere
        if os.path.basename(csv) != csv or csv in (".", ".."):
            raise ValidationError(f"--csv wants a plain file name, got {csv!r}")
        inputs["csv"] = csv
    return inputs, payload


# Run functions take the payload and keywords budget (the command's meter),
# seed and csv_dir, and return (result, summary).  Library calls go through
# this module's globals, so a wrapper rebound on those names sees them.

def _memoized(p: dict, stage: str, budget: Budget, build):
    """build() for the payload's binding, done once per (stage, max_len, certify)
    in the binding's memo.  A hit spends the units that the first build drew
    through `Budget.spend`; every build starts from the run's fresh copy of the
    ideal, so a hit that runs out gives the block that building afresh would.
    A build that raises stores nothing."""
    key = (stage, p.get("max_len"), p.get("certify", True))
    hit = p["memo"].get(key)
    if hit is not None:
        budget.spend((), hit[1])
        return hit[0]
    left = budget.left
    value = build()
    p["memo"][key] = (value, left - budget.left)
    return value


def _run_resolve(p: dict, budget: Budget, **_):
    C = _memoized(p, "resolve", budget, lambda: free_resolution(
        p["ideal"], max_len=p["max_len"], certify=p["certify"], budget=budget))
    result = {"ranks": list(C.ranks), "graded": C.graded,
              "expected_ranks": list(expected_ranks(C)),
              "certified": bool(p["certify"])}
    summary = f"resolution ranks {result['ranks']}"
    if C.graded:
        result["minimal_betti"] = list(minimalize(C).ranks)
        result["shifts"] = [list(s) for s in C.shifts]
        summary += f", minimal Betti {result['minimal_betti']}"
    result["maps"] = [M.to_strings() for M in C.maps]
    return result, summary


def _strata_for(p: dict, budget: Budget):
    def build():
        I: Ideal = p["ideal"]
        C = free_resolution(I, max_len=p.get("max_len"),
                            certify=p.get("certify", True), budget=budget)
        return strata(C, I, budget=budget)
    return _memoized(p, "strata", budget, build)


def _run_strata(p: dict, budget: Budget, **_):
    S = _strata_for(p, budget)
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
    result = {
        "ambient_dim": S.ring.n,
        "dim": S.d,
        "codim": S.p,
        "expected_ranks": list(S.expected),
        "zsing_generators": strata_rows[0]["generators"],
        "strata": strata_rows,
        "purity_ok": S.purity_ok,
        "degenerate": list(S.degenerate),
        "notes": ["codims measured inside Z (codim_Z = dim Z - dim stratum)",
                  "strata beyond the complex length are empty and omitted"],
    }
    nonempty = [row["r"] for row in strata_rows if not row["empty"]]
    return result, (f"dim {S.d}, codim {S.p}; nonempty strata r in {nonempty}; "
                    f"purity {'ok' if S.purity_ok else 'VIOLATED'}")


def _run_check_cm(p: dict, budget: Budget, **_):
    S = _strata_for(p, budget)
    is_cm, depth = check_cm_depth(S)[:2]
    head = "Cohen-Macaulay" if is_cm else "not Cohen-Macaulay"
    return {"is_cm": is_cm, "depth": depth, "dim": S.d}, f"{head}; depth {depth} of dim {S.d}"


def _run_check_normal(p: dict, budget: Budget, **_):
    w = normality_witness(_strata_for(p, budget))
    if w is None:
        return {"holds": True, "witness": None}, "normality condition holds"
    return ({"holds": False, "witness": {"r": w[0], "codim": w[1]}},
            f"normality condition fails at r={w[0]} (codim {w[1]})")


def _run_check_bs(p: dict, budget: Budget, **_):
    S = _strata_for(p, budget)
    m = p["m"]
    holds, w = check_bs_condition(S, p["a"], m, budget=budget)
    if holds:
        return {"holds": True, "m": m, "witness": None}, f"containment condition holds (m={m})"
    return ({"holds": False, "m": m, "witness": {"r": w[0], "codim": w[1]}},
            f"containment condition fails at r={w[0]} (codim {w[1]})")


def _run_bs_verify(p: dict, **_):
    I: Ideal = p["ideal"]
    M = MonomialIdeal.from_polynomials(list(I.generators))
    holds, witness = bs_verify_monomial(M, p["ell"], p["d"])
    d, exponent = bs_exponent(M, p["ell"], p["d"])
    names = I.ring.variable_names
    result = {"holds": holds, "ell": p["ell"], "d": d, "exponent": exponent,
              "counterexample": None if witness is None
              else format_monomial(witness, names) or "1"}
    if holds:
        return result, f"closure of power {exponent} inside power {p['ell']}"
    return result, f"containment fails: {result['counterexample']}"


def _run_newton_closure(p: dict, **_):
    I: Ideal = p["ideal"]
    M = MonomialIdeal.from_polynomials(list(I.generators))
    names = I.ring.variable_names
    closure = newton_closure(M).strings(names)
    return ({"generators": M.strings(names), "closure": closure},
            f"closure has {len(closure)} generators")


def _run_germ_member(p: dict, **_):
    member = germ_ideal_member(p["s"], p["A"], p["S"])
    return ({"s": p["s"], "member": member},
            f"t^{p['s']} {'in' if member else 'not in'} the ideal")


def _run_germ_closure_member(p: dict, **_):
    member = germ_closure_member(p["s"], p["A"], p["S"], p["power"])
    return ({"s": p["s"], "power": p["power"], "member": member},
            f"t^{p['s']} {'in' if member else 'not in'} closure of ideal^{p['power']}")


def _run_germ_bs_exponent(p: dict, **_):
    N, witness = germ_bs_exponent(p["A"], p["ell"], p["S"], mode=p["mode"],
                                  with_witness=True)
    return ({"ell": p["ell"], "mode": p["mode"], "exponent": N,
             "minimality_witness": witness},
            f"exponent {N} (mode {p['mode']}, ell {p['ell']})")


def _run_germ_mu(p: dict, **_):
    mu, A, ell = huneke_mu(p["S"], p["vmax"], p["lmax"])
    witness = {"ideal": list(A.shifts), "ell": ell}
    return ({"vmax": p["vmax"], "lmax": p["lmax"], "mu": mu, "witness": witness},
            f"mu = {mu} with witness ideal {witness['ideal']}, ell = {ell}")


def _run_loja(p: dict, seed: int, csv_dir: str, **_):
    ring: RingContext = p["ring"]
    if "curve" in p:
        sampler = monomial_curve_sampler(ring, p["curve"], p["radii"],
                                         p["per_radius"], seed)
    else:
        var, expr = p["solve"]
        sampler = hypersurface_sampler(ring, var, expr, p["radii"],
                                       p["per_radius"], seed)
    # the sampler's blocks go to the fit as they are: no point tuple is formed
    try:  # CPython's OverflowError text is the C library's; a block's is fixed
        blocks = _sample_blocks(sampler)
    except OverflowError:
        raise SamplingError("sampling overflows the float range") from None
    try:  # each block leaves the list as the fit takes it, so it is freed once fit
        est = _fit_blocks(p["phi"], p["a"], (blocks.pop(0) for _ in range(len(blocks))))
    except OverflowError:
        raise EstimationError("estimation overflows the float range") from None
    result = {"slope": est.slope, "intercept": est.intercept,
              "residual": est.residual, "n_points": est.n_points,
              "radii_range": [est.radii_range[0], est.radii_range[1]],
              "reliable": est.reliable, "csv": None}
    if p["csv"]:
        with open(os.path.join(csv_dir, p["csv"]), "w", encoding="utf-8") as fh:
            fh.write("log_norm_a,log_phi\n")
            for log_a, log_phi in zip(est.log_a, est.log_phi):
                fh.write(f"{log_a!r},{log_phi!r}\n")
        result["csv"] = p["csv"]
    tag = "reliable" if est.reliable else "UNRELIABLE"
    return result, (f"slope {est.slope:.4f} (residual {est.residual:.4f}, "
                    f"{est.n_points} points, {tag})")


# kind: (usage, positional words, required flags, other flags, parse, run)
_COMMANDS = {
    "resolve": ("one ideal name", 1, (), ("max-len", "certify"), _parse_resolution, _run_resolve),
    "strata": ("one ideal name", 1, (), ("max-len", "certify"), _parse_resolution, _run_strata),
    "check-cm": ("one ideal name", 1, (), (), _named_ideal, _run_check_cm),
    "check-normal": ("one ideal name", 1, (), (), _named_ideal, _run_check_normal),
    "check-bs": ("NAME --ideal A", 1, ("ideal",), ("m",), _parse_check_bs, _run_check_bs),
    "bs-verify-monomial": ("NAME --ell N", 1, ("ell",), ("d",), _parse_bs_verify, _run_bs_verify),
    "newton-closure": ("one ideal name", 1, (), (), _named_ideal, _run_newton_closure),
    "loja": ("--phi and --a", 0, ("phi", "a"), ("curve", "solve", "radii", "per-radius", "csv"),
             _parse_loja, _run_loja),
    "germ member": ("one element", 1, (), (), _parse_germ_member, _run_germ_member),
    "germ closure-member": ("one element", 1, (), ("power",), _parse_germ_closure_member,
                            _run_germ_closure_member),
    "germ bs-exponent": ("ell=N", 0, ("ell",), ("mode",), _parse_germ_bs_exponent,
                         _run_germ_bs_exponent),
    "germ mu": ("vmax=N lmax=N", 0, ("vmax", "lmax"), (), _parse_germ_mu, _run_germ_mu),
}

# the command kinds whose run functions use numpy (closure, loja)
_NUMPY_KINDS = frozenset({"bs-verify-monomial", "newton-closure", "loja"})

_DECLARATIONS = {"ring": _parse_ring, "ideal": _parse_binding, "poly": _parse_binding,
                 "germ semigroup": _parse_germ_semigroup, "germ ideal": _parse_germ_ideal}


def parse_session(text: str) -> Session:
    """Parse and resolve a session; commands are not executed."""
    st = _ParseState()
    sess = Session()
    for raw, line, col in _statements(text):
        sess.n_statements += 1
        keyword = _KEYWORD.match(raw)
        kind, rest = " ".join(keyword.group().split()), raw[keyword.end():]
        try:
            if kind in _DECLARATIONS:
                _DECLARATIONS[kind](kind, rest, st)
                continue
            if kind == "germ":
                raise ValidationError("germ wants a subcommand")
            if kind not in _COMMANDS:
                what = "germ subcommand" if kind.startswith("germ ") else "statement keyword"
                raise ValidationError(f"unknown {what} {kind.removeprefix('germ ')!r}")
            usage, n_pos, required, optional, parse, _ = _COMMANDS[kind]
            pos, flags = _parse_flags(rest.split(), kind, usage, n_pos, required, optional)
            inputs, payload = parse(pos, flags, st)
        except (ValidationError, StructuralError) as exc:
            raise SessionSyntaxError(str(exc), line, col) from None
        if kind in _NUMPY_KINDS:
            import numpy  # noqa: F401  (loaded here, not inside the command's run)
        sess.commands.append(Command(kind, line, col, inputs, payload))
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


def run_command(cmd: Command, *, seed: int = 0, budget: int | None = None,
                csv_dir: str = ".") -> dict:
    """Execute one command on one budget meter into a report block; failures become blocks."""
    block = {"command": cmd.kind, "line": cmd.line, "col": cmd.col,
             "inputs": cmd.inputs}
    meter = Budget.of(budget)
    try:
        run = _COMMANDS[cmd.kind][-1]
        payload = {k: Ideal(v.ring, v.generators) if isinstance(v, Ideal) else v
                   for k, v in cmd.payload.items()}
        result, summary = run(payload, budget=meter, seed=seed, csv_dir=csv_dir)
    except Exception as exc:
        kind = _error_kind(exc)
        message = str(exc)
        if kind == "internal":
            # a bug, not bad input: keep the traceback out of the
            # reproducible report but record it on stderr (imported here,
            # so that start-up does not load it)
            import traceback
            traceback.print_exc()
            message = f"{type(exc).__name__}: {exc}"
        block.update(status="error", error={"kind": kind, "message": message},
                     summary=f"{kind} error: {message}")
    else:
        block.update(status="ok", result=result, summary=summary)
    block["units"] = meter.total - max(meter.left, 0)
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
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
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
