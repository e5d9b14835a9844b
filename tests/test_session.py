"""Session parsing, execution blocks, report assembly, CLI exit codes."""

import json
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from bsw import cli, loja
from bsw.closure import MonomialIdeal
from bsw.errors import StructuralError, ValidationError
from bsw.groebner import Ideal, krull_dimension
from bsw.loja import hypersurface_sampler, monomial_curve_sampler
from bsw.modgb import DEFAULT_BUDGET, Budget
from bsw.poly import RingContext, parse_polynomials
from bsw.resolution import free_resolution, strata
from bsw.semigroup import semigroup_build, semigroup_ideal
from bsw.session import (_COMMANDS, _NUMPY_KINDS, SessionSyntaxError, _parse_flags, _statements,
                         parse_session, report_exit_code, run_command, run_session)
from bsw.session import _DECLARATIONS, _ParseState

from _oracles import (germ_list_joined, loja_exponent_estimate_scalar, parse_flags_stepwise,
                      parse_ring_joined, sample_variety_scalar, statements_charwise,
                      statements_two_pass)

CUSP = "ring z, w weights 2, 5;\nideal C = z^5 - w^2;\n"


def parse(text):
    return parse_session(text)


def err(text):
    with pytest.raises(SessionSyntaxError) as info:
        parse_session(text)
    return info.value


def run_one(text, **kw):
    sess = parse_session(text)
    assert len(sess.commands) == 1
    return run_command(sess.commands[0], **kw)


# ---------------------------------------------------------------- parsing

def test_bindings_produce_no_blocks():
    sess = parse("ring x, y;\nideal I = x^2, y^2;\nnewton-closure I;\n")
    assert sess.n_statements == 3
    assert len(sess.commands) == 1
    cmd = sess.commands[0]
    assert (cmd.kind, cmd.line, cmd.col) == ("newton-closure", 3, 1)
    assert cmd.inputs == {"ideal": "I", "generators": ["x^2", "y^2"]}


def test_germ_statements():
    sess = parse("germ semigroup 2, 5;\ngerm ideal 2;\ngerm member 5;\n")
    assert sess.n_statements == 3
    assert len(sess.commands) == 1
    assert sess.commands[0].inputs == {"semigroup": [2, 5], "ideal": [2], "s": 5}


def test_comments_and_semicolons_inside_comments():
    sess = parse("# leading; note\nring x; # has ; inside\nideal I = x;\nresolve I;\n")
    assert sess.n_statements == 3
    assert len(sess.commands) == 1


def _split(splitter, text):
    try:
        return list(splitter(text))
    except SessionSyntaxError as exc:
        return str(exc), exc.line, exc.col


@settings(max_examples=300)
@given(hst.text(alphabet="x ;#\n", max_size=40))
def test_statements_match_the_two_pass_splitter(text):
    assert _split(_statements, text) == _split(statements_two_pass, text)


def _outcome(fn, *args):
    """What fn(*args) gives: its result or yields as a tuple, or its exception's
    type, message and position."""
    try:
        return tuple(fn(*args))
    except (SessionSyntaxError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


@settings(max_examples=500)
@given(hst.text(alphabet=";#\n\r\t abxyz=", max_size=60))
def test_statements_match_the_charwise_splitter(text):
    assert _outcome(_statements, text) == _outcome(statements_charwise, text)


@settings(max_examples=500)
@given(hst.lists(hst.sampled_from(["--a", "--b", "--", "a=1", "b=2", "=", "--a=1", "x", "y"]),
                 max_size=8),
       hst.integers(0, 2), hst.sampled_from([(), ("a",), ("a", "b")]))
def test_flags_match_the_stepwise_reader(tokens, n_pos, required):
    args = (tokens, "cmd", "<usage>", n_pos, required, ("b", "", "a=1"))
    assert _outcome(_parse_flags, *args) == _outcome(parse_flags_stepwise, *args)


def test_empty_statement_position():
    e = err("ring x;;")
    assert (e.line, e.col) == (1, 8)
    assert "empty statement" in str(e)


def test_missing_terminator_position():
    e = err("ring x;\nideal I = x")
    assert (e.line, e.col) == (2, 1)
    assert "missing ';'" in str(e)


def test_parse_error_catalogue():
    assert "unknown statement keyword" in str(err("frobulate I;"))
    assert "no ring declared" in str(err("ideal I = x;"))
    assert "not bound" in str(err("ring x;\nresolve J;"))
    assert "duplicate binding" in str(err("ring x;\nideal I = x;\nideal I = x;"))
    assert "expected ideal" in str(err("ring x;\npoly p = x;\nresolve p;"))
    assert "unknown flag" in str(err("ring x;\nideal I = x;\nresolve I --bogus 3;"))
    assert "duplicate flag" in str(
        err("ring x;\nideal I = x;\nresolve I --max-len 2 --max-len 3;"))
    assert "wants one ideal name" in str(err("ring x;\nideal I = x;\nresolve;"))
    assert "integer" in str(err("ring x;\nideal I = x;\nresolve I --max-len soon;"))


def test_polynomial_list_error_names_the_stripped_generator():
    assert str(err("ring x, y;\nideal I = x, y +;")) == "expected a factor at position 3 in 'y +'"
    assert str(err("ring x;\nloja --phi x --a x, x* --curve 2;")) == (
        "expected a factor at position 2 in 'x*'")


def test_germ_ordering_errors():
    assert "no germ semigroup" in str(err("germ member 5;"))
    assert "no germ ideal" in str(err("germ semigroup 2, 5;\ngerm member 5;"))
    assert "gcd 1" in str(err("germ semigroup 2, 4;"))
    assert "not in the semigroup" in str(err("germ semigroup 2, 5;\ngerm ideal 3;"))
    assert "unknown germ subcommand" in str(err("germ semigroup 2, 5;\ngerm zap;"))
    assert "unknown mode" in str(
        err("germ semigroup 2, 5;\ngerm ideal 2;\ngerm bs-exponent ell=1 mode=radical;"))


def test_ring_parse_errors():
    assert "unknown order" in str(err("ring x, y order mystery;"))
    assert "variable names" in str(err("ring weights 2;"))
    assert "weights" in str(err("ring x, y weights 2;"))  # count mismatch


def test_loja_parse_errors():
    base = "ring z, w weights 2, 5;\n"
    assert "exactly one of" in str(err(base + "loja --phi w --a z;"))
    assert "exactly one of" in str(
        err(base + "loja --phi w --a z --curve 2,5 --solve w=z^2;"))
    assert "single polynomial" in str(
        err(base + "loja --phi z, w --a z --curve 2,5;"))
    assert "not a ring variable" in str(
        err(base + "loja --phi w --a z --solve q=z^2;"))
    assert "needs a value" in str(err(base + "loja --phi w --a z --curve;"))


# every name and declaration a command could want, so only its words are wrong
WORDS_BASE = "ring x, y;\nideal I = x^2, y^2;\ngerm semigroup 2, 5;\ngerm ideal 2;\n"


@pytest.mark.parametrize("statement, message, line, col", [
    ("resolve;", "resolve wants one ideal name", 5, 1),
    ("resolve I J;", "unexpected token 'J'", 5, 1),
    ("resolve I --m 1;", "unknown flag 'm'", 5, 1),
    ("strata --max-len 2;", "strata wants one ideal name", 5, 1),
    ("strata I I;", "unexpected token 'I'", 5, 1),
    ("strata I --m 1;", "unknown flag 'm'", 5, 1),
    ("check-cm certify=true;", "unknown flag 'certify'", 5, 1),
    ("check-cm;", "check-cm wants one ideal name", 5, 1),
    ("check-cm I x;", "unexpected token 'x'", 5, 1),
    ("check-cm I --max-len 2;", "unknown flag 'max-len'", 5, 1),
    ("check-normal;", "check-normal wants one ideal name", 5, 1),
    ("  check-normal I I;", "unexpected token 'I'", 5, 3),
    ("check-normal I certify=true;", "unknown flag 'certify'", 5, 1),
    ("check-bs I;", "check-bs wants NAME --ideal A", 5, 1),
    ("check-bs --ideal I --m 1;", "check-bs wants NAME --ideal A", 5, 1),
    ("check-bs I --ideal;", "flag --ideal needs a value", 5, 1),
    ("check-bs I I --ideal I;", "unexpected token 'I'", 5, 1),
    ("check-bs I --ideal I --d 2;", "unknown flag 'd'", 5, 1),
    ("bs-verify-monomial I --d 1;", "bs-verify-monomial wants NAME --ell N", 5, 1),
    ("bs-verify-monomial I 2 --ell 2;", "unexpected token '2'", 5, 1),
    ("bs-verify-monomial I --ell 2 --m 1;", "unknown flag 'm'", 5, 1),
    ("newton-closure;", "newton-closure wants one ideal name", 5, 1),
    ("newton-closure I I;", "unexpected token 'I'", 5, 1),
    ("newton-closure I --d 1;", "unknown flag 'd'", 5, 1),
    ("loja --phi x;", "loja wants --phi and --a", 5, 1),
    ("loja --phi x --zz 1;", "unknown flag 'zz'", 5, 1),
    ("loja x --phi x --a y --curve 1,1;", "unexpected token 'x'", 5, 1),
    ("loja --phi x --a y --curve 1,1 --ell 2;", "unknown flag 'ell'", 5, 1),
    ("germ member;", "germ member wants one element", 5, 1),
    ("germ member 5 7;", "unexpected token '7'", 5, 1),
    ("germ member 5 power=2;", "unknown flag 'power'", 5, 1),
    ("germ closure-member power=2;", "germ closure-member wants one element", 5, 1),
    ("germ closure-member 5 7;", "unexpected token '7'", 5, 1),
    ("germ closure-member 5 ell=2;", "unknown flag 'ell'", 5, 1),
    ("\ngerm  bs-exponent mode=power;", "germ bs-exponent wants ell=N", 6, 1),
    ("germ bs-exponent 1 ell=1;", "unexpected token '1'", 5, 1),
    ("germ bs-exponent ell=1 power=2;", "unknown flag 'power'", 5, 1),
    ("germ mu vmax=3;", "germ mu wants vmax=N lmax=N", 5, 1),
    ("germ mu vmax=3 vmax=4;", "duplicate flag 'vmax'", 5, 1),
    ("germ mu 3 vmax=3 lmax=2;", "unexpected token '3'", 5, 1),
    ("germ mu vmax=3 lmax=2 ell=1;", "unknown flag 'ell'", 5, 1),
    ("resolve I --certify maybe;", "certify wants true/false, got 'maybe'", 5, 1),
    ("ideal 1x = x;", "bad name '1x'", 5, 1),
    ("ideal I x, y;", "ideal wants NAME = ...", 5, 1),
    ("loja --phi y --a x --solve x^2;", "--solve wants var=expression", 5, 1),
    ("germ;", "germ wants a subcommand", 5, 1),
])
def test_command_word_errors_and_their_positions(statement, message, line, col):
    e = err(WORDS_BASE + statement)
    assert (str(e), e.line, e.col) == (message, line, col)


def test_loja_csv_must_be_a_plain_file_name():
    base = "ring z, w weights 2, 5;\nloja --phi w --a z --curve 2,5 --csv "
    for bad in ("../escape.csv", "sub/pts.csv", "/tmp/pts.csv", ".", ".."):
        e = err(base + bad + ";")
        assert (e.line, e.col) == (2, 1)
        assert "plain file name" in str(e)


def test_germ_state_snapshots_per_command():
    sess = parse(
        "germ semigroup 2, 5;\ngerm ideal 2;\ngerm bs-exponent ell=1;\n"
        "germ semigroup 2, 3;\ngerm ideal 2;\ngerm bs-exponent ell=1;\n")
    blocks = [run_command(c) for c in sess.commands]
    assert [b["result"]["exponent"] for b in blocks] == [3, 2]
    assert blocks[0]["inputs"]["semigroup"] == [2, 5]
    assert blocks[1]["inputs"]["semigroup"] == [2, 3]


def test_ring_redeclaration_keeps_old_bindings():
    sess = parse(
        "ring x, y;\nideal I = x^2, y^2;\nring a, b;\nideal J = a*b;\n"
        "newton-closure I;\nnewton-closure J;\n")
    b1, b2 = [run_command(c) for c in sess.commands]
    assert b1["result"]["closure"] == ["y^2", "x*y", "x^2"]
    assert b2["result"]["closure"] == ["a*b"]


@pytest.mark.parametrize("text, where, name", [
    ("ring p, q weights 1, 1;\npoly f = q^3;\nring z, w weights 2, 5;\n"
     "loja --phi f --a z --curve 2,5;\n", (4, 1), "f"),
    ("ring p, q, r;\npoly f = q^3;\nring z, w weights 2, 5;\n"
     "loja --phi z --a f --curve 2,5;\n", (4, 1), "f"),
    ("ring x;\nideal A = x;\nring y;\nideal I = y;\ncheck-bs I --ideal A;\n", (5, 1), "A"),
])
def test_a_binding_of_another_ring_is_refused(text, where, name):
    e = err(text)
    assert (str(e), (e.line, e.col)) == (f"{name!r} is bound in another ring", where)


def test_bindings_of_an_earlier_ring_still_mix_with_each_other():
    sess = parse("ring x, y;\nideal A = x, y;\nideal I = x^2;\nring z;\n"
                 "check-bs I --ideal A;\nring x, y;\npoly f = x;\n"
                 "loja --phi f --a A --curve 1,1;\n")
    assert [c.kind for c in sess.commands] == ["check-bs", "loja"]


@pytest.mark.parametrize("clauses, which", [
    ("order lex order degrevlex", "order"),
    ("weights 1, 2 order lex weights 2, 1", "weights"),
])
def test_a_ring_clause_given_twice_is_refused(clauses, which):
    assert str(err(f"ring x, y {clauses};")) == f"duplicate {which} clause"


@pytest.mark.parametrize("text, line", [
    ("ring x weights 1 2;", 1),
    ("ring x, y weights 1, 2 3;", 1),
    ("germ semigroup 2, 5 7;", 1),
    ("germ semigroup 2, 5;\ngerm ideal 2 5;", 2),
])
def test_a_space_never_separates_two_numbers(tmp_path, capsys, text, line):
    e = err(text)
    assert (e.line, e.col) == (line, 1) and "wants an integer" in str(e)
    assert cli.main(["check", write(tmp_path, "s.bsw", text + "\n")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("text, value", [
    ("germ semigroup \u0662, \u0665;", "\u0662"),
    ("ring x weights \uff13;", "\uff13"),
    ("germ semigroup 2, 5;\ngerm ideal 2;\ngerm member 1_0;", "1_0"),
])
def test_session_integers_are_ascii_digits(text, value):
    e = err(text)
    assert (e.line, e.col) == (text.count("\n") + 1, 1)
    assert str(e).endswith(f"wants an integer, got {value!r}")


DECLARATION_WORDS = ("x", "y", "z", ",", "weights", "order", "lex", "degrevlex", "mystery",
                     "0", "1", "2", "3", "-1")
SPACED_NUMBERS = re.compile(r"[0-9]\s+-?[0-9]")
GERM_S = semigroup_build((2, 3))


def _declared(kind, text):
    """What `kind text;` declares: the ring, the semigroup's generators or the shifts."""
    st = _ParseState()
    st.germ_semigroup = GERM_S
    _DECLARATIONS[kind](kind, text, st)
    if kind == "ring":
        return st.ring
    return st.germ_semigroup.generators if kind == "germ semigroup" else st.germ_ideal.shifts


def _declared_joined(kind, text):
    if kind == "ring":
        return parse_ring_joined(text)
    if kind == "germ semigroup":
        return semigroup_build(germ_list_joined(text, "semigroup generators")).generators
    return semigroup_ideal(GERM_S, germ_list_joined(text, "ideal shifts")).shifts


def _or_none(read, kind, text):
    try:
        return read(kind, text)
    except (ValidationError, StructuralError):
        return None


@pytest.mark.parametrize("kind", ("ring", "germ semigroup", "germ ideal"))
@settings(max_examples=300, deadline=None)
@given(text=hst.lists(hst.tuples(hst.sampled_from(DECLARATION_WORDS),
                                 hst.sampled_from((" ", " ", "  ", ""))),
                      max_size=9).map(lambda pieces: "".join(map("".join, pieces))))
@example(text="x, y weights 1, 2 3")
@example(text="x weights 1 order lex weights 1")
@example(text="x order lex order lex ")
@example(text="2, 3 1")
def test_declarations_read_as_the_joining_oracle(kind, text):
    # the same ring, generators or shifts, or both refuse; except that a list
    # whose numbers a space alone separates, which the oracle joins, is refused
    new, old = _or_none(_declared, kind, text), _or_none(_declared_joined, kind, text)
    if old is not None and SPACED_NUMBERS.search(text):
        assert new is None, text
    else:
        assert new == old, text


def test_loja_radii_flag():
    sess = parse("ring z, w weights 2, 5;\nloja --phi w --a z --curve 2,5 --radii 1e-1, 5e-2,2e-2;\n")
    assert sess.commands[0].inputs["radii"] == [0.1, 0.05, 0.02]
    e = err("ring z, w;\nloja --phi w --a z --curve 1,1 --radii 0.1,abc;\n")
    assert (str(e), e.line) == ("radii wants floats, got 'abc'", 2)


@pytest.mark.parametrize("item", ["1_0e-2", "\u0661e-1", "inf", "nan", "1e400"])
def test_radii_are_finite_ascii_decimals(tmp_path, capsys, item):
    text = f"ring z, w;\n  loja --phi w --a z --curve 1,1 --radii 1e-1, {item};\n"
    e = err(text)
    assert (str(e), e.line, e.col) == (f"radii wants floats, got {item!r}", 2, 3)
    assert cli.main(["check", write(tmp_path, "s.bsw", text)]) == 2
    capsys.readouterr()


def test_radii_read_every_ascii_decimal_form():
    sess = parse("ring z, w;\nloja --phi w --a z --curve 1,1 --radii 1, .5, 2.5e-1, 1.E-1, +5e-2;")
    assert sess.commands[0].inputs["radii"] == [1.0, 0.5, 0.25, 0.1, 0.05]


def test_resolve_certify_true_is_the_default():
    plain, certified = [run_one(CUSP + f"resolve C{flag};") for flag in ("", " --certify true")]
    assert certified["result"]["certified"] is True
    assert plain["result"] == certified["result"]


# ---------------------------------------------------------------- blocks

def test_check_normal_block_cusp():
    block = run_one(CUSP + "check-normal C;")
    assert block["status"] == "ok"
    assert block["result"] == {"holds": False, "witness": {"r": 0, "codim": 1}}
    assert block["summary"] == "normality condition fails at r=0 (codim 1)"


def test_check_cm_block_cusp():
    block = run_one(CUSP + "check-cm C;")
    assert block["result"] == {"is_cm": True, "depth": 1, "dim": 1}
    assert "Cohen-Macaulay" in block["summary"]


def test_resolve_block_cusp():
    block = run_one(CUSP + "resolve C;")
    r = block["result"]
    assert r["ranks"] == [1, 1] and r["graded"] and r["minimal_betti"] == [1, 1]
    assert r["expected_ranks"] == [1]
    assert r["maps"] == [[["-z^5 + w^2"]]] or r["maps"] == [[["z^5 - w^2"]]]


def test_germ_mu_block():
    block = run_one("germ semigroup 2, 5;\ngerm mu vmax=12 lmax=4;")
    assert block["result"] == {
        "vmax": 12, "lmax": 4, "mu": 3, "witness": {"ideal": [2], "ell": 1}}
    assert "mu = 3" in block["summary"]


def test_germ_closure_member_power():
    block = run_one("germ semigroup 2, 5;\ngerm ideal 2;\ngerm closure-member 5 power=2;")
    assert block["result"] == {"s": 5, "power": 2, "member": True}


def test_germ_closure_member_power_beyond_the_ideal_power_cap():
    # A^40 would need C(49, 40) = 2,054,455,634 products, but closure membership
    # only asks s >= 40 * v(A) = 400
    germ = ("germ semigroup 10, 11, 12, 13, 14, 15, 16, 17, 18, 19;\n"
            "germ ideal 10, 11, 12, 13, 14, 15, 16, 17, 18, 19;\n")
    sess = parse_session(germ + "germ closure-member 400 power=40;\n"
                         "germ closure-member 399 power=40;\n"
                         "germ closure-member 400 power=0;\n")
    blocks = [run_command(c) for c in sess.commands]
    assert blocks[0]["result"] == {"s": 400, "power": 40, "member": True}
    assert blocks[1]["result"] == {"s": 399, "power": 40, "member": False}
    assert blocks[2]["status"] == "error"
    assert blocks[2]["error"] == {"kind": "validation", "message": "power wants ell >= 1"}


def test_bs_verify_block():
    block = run_one("ring x, y;\nideal M = x^2, y^2;\nbs-verify-monomial M --ell 1;")
    assert block["result"] == {"holds": True, "ell": 1, "d": 2, "exponent": 2,
                               "counterexample": None}


def test_validation_error_block_keeps_session_alive():
    sess = parse("ring x, y;\nideal U = 1;\nresolve U;\nideal I = x;\nresolve I;\n")
    blocks = [run_command(c) for c in sess.commands]
    assert blocks[0]["status"] == "error"
    assert blocks[0]["error"]["kind"] == "validation"
    assert blocks[0]["summary"].startswith("validation error:")
    assert "result" not in blocks[0]
    assert blocks[1]["status"] == "ok"


def test_non_monomial_input_fails_at_run_time():
    block = run_one("ring x, y;\nideal Q = x + y;\nbs-verify-monomial Q --ell 1;")
    assert block["status"] == "error"
    assert block["error"]["kind"] == "validation"
    assert (block["line"], block["col"]) == (3, 1)


def test_budget_error_block():
    sess = parse("ring x, y, z, w;\nideal T = x*z, x*w, y*z, y*w;\nstrata T;\n")
    block = run_command(sess.commands[0], budget=1)
    assert block["status"] == "error"
    assert block["error"]["kind"] == "budget"


TC_HEAD = "ring a, b, c, d;\nideal TC = a*c - b^2, a*d - b*c, b*d - c^2;\n"


def least_budget(text):
    """The fewest units on which the session's one command ends ok, by bisection
    over run_command (the work does not depend on the budget, so ok is monotone)."""
    def ok(units):
        return run_one(text, budget=units)["status"] == "ok"

    lo, hi = 0, 1
    while not ok(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return hi


def test_one_budget_meter_per_command():
    # strata TC needs more units over all its steps than the budget, though
    # each step alone fits in it
    budget = least_budget(TC_HEAD + "strata TC;\n") - 1
    block = run_one(TC_HEAD + "strata TC;\n", budget=budget)
    assert block["error"]["kind"] == "budget"
    R = RingContext(("a", "b", "c", "d"))
    I = Ideal(R, parse_polynomials("a*c - b^2, a*d - b*c, b*d - c^2", R))
    S = strata(free_resolution(I, budget=budget), I)
    for J in [I] + [info.ideal for info in S.strata.values()]:
        krull_dimension(Ideal(R, J.generators), budget=budget)
    # syzygies and generator pruning draw on the meter without certification too
    block = run_one(TC_HEAD + "resolve TC --certify false;\n", budget=1)
    assert block["error"]["kind"] == "budget"


def test_budget_verdict_does_not_depend_on_command_order():
    # check-cm TC computes TC's basis first; strata TC must still pay for its own
    cost = least_budget(TC_HEAD + "strata TC;\n")
    verdicts = set()
    for budget in range(cost - 11, cost + 1):
        a = run_session(parse(TC_HEAD + "strata TC;\n"), budget=budget)["blocks"][-1]
        b = run_session(parse(TC_HEAD + "check-cm TC;\nstrata TC;\n"),
                        budget=budget)["blocks"][-1]
        del a["line"], b["line"]
        assert a == b
        verdicts.add(a["status"])
    assert verdicts == {"ok", "error"}


def test_newton_box_scans_are_capped(monkeypatch):
    rep = run_session(parse("ring x, y;\nideal B = x^100000, y^100000;\n"
                            "newton-closure B;\nbs-verify-monomial B --ell 1;\n"))
    assert [b["error"]["kind"] for b in rep["blocks"]] == ["resource-cap"] * 2
    assert "10000200001 lattice points" in rep["blocks"][0]["error"]["message"]
    assert report_exit_code(rep) == 3
    # the box for e is refused before M^ell, with its 20,001 products, is built
    def power(self, ell):
        raise AssertionError("M^ell built before the box cap")
    monkeypatch.setattr(MonomialIdeal, "power", power)
    rep = run_session(parse("ring x, y;\nideal P = x^2, y^2;\nbs-verify-monomial P --ell 20000;\n"))
    assert rep["blocks"][0]["error"] == {
        "kind": "resource-cap",
        "message": "Newton box scan needs 1600240009 lattice points (cap 2000000)"}


def test_non_graded_resolution_longer_than_the_ring_needs_max_len():
    # (2x, ..., -x*y^2 - x) is the principal ideal (x), but the greedy
    # pruning of a non-graded resolution is not minimal: three maps in Q[x, y]
    text = ("ring x, y;\nideal I = 2*x, -2*x^2*y + 2*x*y^2, -x*y^2 - x;\n"
            "resolve I;\nresolve I --max-len 3;\n")
    rep = run_session(parse(text))
    capped, longer = rep["blocks"]
    assert capped["error"] == {"kind": "resource-cap",
                               "message": "resolution did not terminate within max_len=2"}
    assert longer["status"] == "ok"
    assert longer["result"]["ranks"] == [1, 3, 3, 1] and longer["result"]["certified"]
    assert report_exit_code(rep) == 3


def test_newton_projection_row_cap_gives_resource_cap_block():
    rep = run_session(parse(
        "ring x, y, z, w;\n"
        "ideal B = x*y^5*z^9, x^2*y^3*z^5*w^7, x^2*y^9*w^7, x^4*y^5*z^8*w^4, x^5*y^2*z^7*w^5,\n"
        "  x^5*y^4*z^5*w^6, x^5*y^8*z^2*w^8, x^7*y^4*z^4*w^5, x^8*y^4*z^5*w^4;\n"
        "newton-closure B;\n"))
    assert rep["blocks"][0]["error"] == {"kind": "resource-cap",
                                         "message": "Newton projection exceeded the row cap"}
    assert report_exit_code(rep) == 3


@pytest.mark.parametrize("text, message", [
    ("germ semigroup 2, 5;\ngerm ideal 2;\ngerm bs-exponent ell=998 mode=closure-power;",
     "exponent search bound 1001 exceeds the cap 1000"),
    ("germ semigroup 2, 5;\ngerm mu vmax=2 lmax=1001;",
     "exponent search bound 1001 exceeds the cap 1000"),
    ("ring z, w weights 2, 5;\nloja --phi w --a z --curve 2,5 --per-radius 14286;",
     "sampler needs 100002 points (cap 100000)"),
])
def test_user_sized_searches_are_capped(text, message):
    # each value is just above its cap: closure-power tries N up to
    # ell + ceil(conductor / v) + 1 = ell + 3, mu builds A^1..A^lmax, loja samples 7 radii
    rep = run_session(parse(text))
    assert rep["blocks"][0]["error"] == {"kind": "resource-cap", "message": message}
    assert report_exit_code(rep) == 3


def test_semigroup_table_is_capped():
    e = err("ring x;\ngerm semigroup 2, 5;\n  germ semigroup 3001, 3007;\n")
    assert (e.line, e.col) == (3, 3)
    assert "semigroup table of 9024009 entries" in str(e)


def test_max_len_below_one_gives_validation_blocks():
    sess = parse("ring x, y;\nideal I = x, y;\nresolve I --max-len 0;\n"
                 "strata I --max-len -1;\n")
    for block in run_session(sess)["blocks"]:
        assert block["error"] == {"kind": "validation",
                                  "message": "max_len must be at least 1"}


def test_too_small_max_len_gives_resource_cap_block():
    rep = run_session(parse("ring x, y;\nideal I = x, y;\nresolve I --max-len 1;\n"))
    assert rep["blocks"][0]["error"] == {
        "kind": "resource-cap", "message": "resolution did not terminate within max_len=1"}
    assert report_exit_code(rep) == 3


def test_germ_mu_below_smallest_element_gives_validation_block():
    block = run_one("germ semigroup 2, 5;\ngerm mu vmax=1 lmax=1;")
    assert block["error"] == {
        "kind": "validation",
        "message": "v_max must be at least 2, the smallest element of <2, 5>"}


def test_negative_curve_exponent_gives_validation_block():
    block = run_one("ring z, w weights 2, 5;\nloja --phi w --a z --curve -2,5;")
    assert block["error"] == {"kind": "validation",
                              "message": "curve exponents must be nonnegative"}


def test_zero_ideal_gives_one_validation_block_per_command():
    sess = parse("ring x, y;\nideal Z = 0;\nnewton-closure Z;\n"
                 "bs-verify-monomial Z --ell 1;\n")
    rep = run_session(sess)
    assert [b["command"] for b in rep["blocks"]] == ["newton-closure", "bs-verify-monomial"]
    for block in rep["blocks"]:
        assert block["status"] == "error"
        assert block["error"] == {"kind": "validation",
                                  "message": "monomial ideal needs at least one generator"}
    assert report_exit_code(rep) == 2


def test_unexpected_exception_becomes_internal_block(tmp_path, capsys, monkeypatch):
    import bsw.session

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(bsw.session, "newton_closure", boom)
    spath = write(tmp_path, "s.bsw", "ring x, y;\nideal I = x^2, y^3;\nnewton-closure I;\n")
    out = tmp_path / "r.json"
    assert cli.main(["run", spath, "--out", str(out)]) == 2
    blocks = json.loads(out.read_text())["blocks"]
    assert len(blocks) == 1
    assert blocks[0]["status"] == "error"
    assert blocks[0]["error"] == {"kind": "internal", "message": "RuntimeError: boom"}
    assert blocks[0]["summary"] == "internal error: RuntimeError: boom"
    assert "RuntimeError: boom" in capsys.readouterr().err


@pytest.mark.parametrize("flags, kind", [
    # on the unit circle a modulus passes the float range while both parts stay in it
    ("--phi w --a z --solve w=10^308*z+10^308*z^3 --radii 1", "sampling"),
    ("--phi 10^308*w+10^308*w^3 --a z --solve w=z --radii 1", "estimation"),
    ("--phi w^2 --a z --solve w=10^300*z", "estimation"),  # the squared norm of a point
])
def test_loja_overflow_gives_a_fixed_message(flags, kind):
    block = run_one(f"ring z, w;\nloja {flags};\n")
    message = f"{kind} overflows the float range"
    assert block["error"] == {"kind": kind, "message": message}


LOJA_SESSIONS = (
    "ring z, w weights 2, 5;\nloja --phi z^3 + w --a z, w --curve 2,5 --per-radius 6;\n",
    "ring x, y, z weights 1, 2, 3;\nloja --phi z^2 + x*y --a x, y --solve z=x*y - 2*y^2 "
    "--per-radius 6;\n",
)


def _scalar_loja(p: dict, seed: int):
    """The command's estimate by the one-point-at-a-time oracles."""
    if "curve" in p:
        sampler = monomial_curve_sampler(p["ring"], p["curve"], p["radii"], p["per_radius"], seed)
    else:
        var, expr = p["solve"]
        sampler = hypersurface_sampler(p["ring"], var, expr, p["radii"], p["per_radius"], seed)
    return loja_exponent_estimate_scalar(p["phi"], p["a"], sample_variety_scalar(sampler))


@pytest.mark.parametrize("text", LOJA_SESSIONS)
@pytest.mark.parametrize("seed", [0, 3, 2**128 + 1])
@pytest.mark.parametrize("block_points", [1, 64, loja.BLOCK_POINTS])
def test_loja_command_passes_blocks_without_point_tuples(monkeypatch, text, seed, block_points):
    def forbidden(*args):
        raise AssertionError("a clean loja command formed point tuples")

    monkeypatch.setattr(loja, "BLOCK_POINTS", block_points)
    monkeypatch.setattr(loja._Block, "points", forbidden)
    monkeypatch.setattr(loja._Block, "of", forbidden)
    (cmd,) = parse(text).commands
    block = run_command(cmd, seed=seed)
    assert block["status"] == "ok"
    monkeypatch.undo()
    est = _scalar_loja(cmd.payload, seed)
    got = block["result"]
    assert [x.hex() for x in (got["slope"], got["intercept"], got["residual"],
                              *got["radii_range"])] == \
        [x.hex() for x in (est.slope, est.intercept, est.residual, *est.radii_range)]
    assert (got["n_points"], got["reliable"]) == (est.n_points, est.reliable)


def test_loja_sampling_overflow_in_a_later_block_beats_an_earlier_estimation_overflow(
        monkeypatch):
    # on the unit circle w = 10^308 (z + z^3) overflows its modulus at some
    # angles, and phi = w^2 overflows at every point; at seed 3 the first block
    # of four points samples cleanly
    text = "ring z, w;\nloja --phi w^2 --a z --solve w=10^308*z+10^308*z^3 --radii 1 "
    monkeypatch.setattr(loja, "BLOCK_POINTS", 4)
    first_block = run_one(text + "--per-radius 4;\n", seed=3)
    assert first_block["error"] == {"kind": "estimation",
                                    "message": "estimation overflows the float range"}
    later_blocks = run_one(text + "--per-radius 40;\n", seed=3)
    assert later_blocks["error"] == {"kind": "sampling",
                                     "message": "sampling overflows the float range"}


def test_loja_failing_residual_check_reports_the_first_failing_point(monkeypatch):
    # the first defining equation overflows at some later point of the block,
    # not at point 0; the second fails at every point, so point 0's error wins
    import bsw.session
    ring = RingContext(("z", "w"))
    defining = tuple(parse_polynomials("10^308*z + 10^308*z^3, z", ring))
    with pytest.raises(OverflowError):
        sample_variety_scalar(monomial_curve_sampler(ring, (1, 1), (1.0,), 30, 0, defining[:1]))
    sample_variety_scalar(monomial_curve_sampler(ring, (1, 1), (1.0,), 1, 0, defining[:1]))
    monkeypatch.setattr(bsw.session, "monomial_curve_sampler",
                        lambda *args: monomial_curve_sampler(*args, defining=defining))
    block = run_one("ring z, w;\nloja --phi w --a z --curve 1,1 --radii 1 --per-radius 30;\n")
    assert block["error"] == {"kind": "sampling",
                              "message": "sampled point violates a defining equation"}


@pytest.mark.parametrize("flags, flag, coefficient, term", [
    ("--phi w --a z --solve w=10^309*z", "solve", "1.000e+309", "z"),
    ("--phi w --a z --solve w=z^2-2*10^310", "solve", "-2.000e+310", "1"),
    ("--phi 10^309*w --a z --solve w=z", "phi", "1.000e+309", "w"),
    ("--phi w --a z, 18*10^307*w^2 --curve 1,1", "a", "1.800e+308", "w^2"),
])
def test_loja_coefficient_beyond_floats_is_refused_at_parse_time(tmp_path, capsys, flags,
                                                                 flag, coefficient, term):
    text = f"ring z, w;\n  loja {flags};\n"
    e = err(text)
    assert (str(e), e.line, e.col) == (
        f"loja --{flag} coefficient {coefficient} of {term} lies outside the float range", 2, 3)
    assert cli.main(["check", write(tmp_path, "s.bsw", text)]) == 2
    capsys.readouterr()


def test_loja_coefficient_bindings_are_checked_too():
    e = err("ring z, w;\npoly f = 10^309*z;\nloja --phi w --a f --curve 1,1;\n")
    assert (str(e), e.line) == (
        "loja --a coefficient 1.000e+309 of z lies outside the float range", 3)
    # the largest coefficients that round into the float range parse
    parse("ring z, w;\nloja --phi 17976931348623157*10^292*w --a z --solve w=z;\n")


def test_loja_block_and_csv(tmp_path):
    text = (
        "ring z, w weights 2, 5;\n"
        "loja --phi w --a z --curve 2,5 --csv pts.csv;\n")
    block = run_one(text, seed=7, csv_dir=str(tmp_path))
    r = block["result"]
    assert abs(r["slope"] - 2.5) <= 0.1
    assert r["reliable"] and r["n_points"] == 70
    assert r["csv"] == "pts.csv"
    lines = (tmp_path / "pts.csv").read_text().splitlines()
    assert lines[0] == "log_norm_a,log_phi"
    assert len(lines) == 71
    a, p = lines[1].split(",")
    float(a), float(p)


# ---------------------------------------------------------------- reports

def test_report_shape_and_reproducibility(tmp_path):
    text = CUSP + "resolve C;\ncheck-cm C;\n"
    sess = parse(text)
    rep1 = run_session(sess, seed=0, csv_dir=str(tmp_path))
    rep2 = run_session(sess, seed=0, csv_dir=str(tmp_path))
    assert rep1["tool"] == "bsw" and rep1["statements"] == 4
    assert rep1["commands"] == 2 and rep1["errors"] == 0
    json.dumps(rep1)  # must be serializable
    rep1.pop("timestamp"), rep2.pop("timestamp")
    assert rep1 == rep2


def test_report_timestamp_is_utc_now_to_the_second():
    from datetime import datetime, timezone
    stamp = run_session(parse("ring x;"))["timestamp"]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp)
    drift = datetime.now(timezone.utc) - datetime.fromisoformat(stamp)
    assert abs(drift.total_seconds()) <= 2


def test_exit_codes():
    clean = run_session(parse(CUSP + "check-cm C;"))
    assert report_exit_code(clean) == 0
    invalid = run_session(parse("ring x, y;\nideal U = 1;\nresolve U;"))
    assert report_exit_code(invalid) == 2
    assert invalid["errors"] == 1
    # budget exhaustion wins over a validation block
    both = parse("ring x, y, z, w;\nideal U = 1;\nresolve U;\n"
                 "ideal T = x*z, x*w, y*z, y*w;\nstrata T;\n")
    rep = run_session(both, budget=1)
    assert report_exit_code(rep) == 3


# ---------------------------------------------------------------- cli

def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_run_roundtrip(tmp_path, capsys):
    spath = write(tmp_path, "s.bsw", CUSP + "check-normal C;\n")
    out = tmp_path / "report.json"
    assert cli.main(["run", spath, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["blocks"][0]["result"]["witness"] == {"r": 0, "codim": 1}
    capsys.readouterr()


def test_cli_stdout_default(tmp_path, capsys):
    spath = write(tmp_path, "s.bsw", "germ semigroup 2, 5;\ngerm ideal 2;\ngerm member 5;\n")
    assert cli.main(["run", spath]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["blocks"][0]["result"] == {"s": 5, "member": False}


def test_cli_check(tmp_path, capsys):
    spath = write(tmp_path, "s.bsw", CUSP + "resolve C;\n")
    assert cli.main(["check", spath]) == 0
    assert capsys.readouterr().out.strip() == "ok: 3 statements, 1 commands"


def test_cli_syntax_error_position(tmp_path, capsys):
    spath = write(tmp_path, "bad.bsw", "ring x;;\n")
    assert cli.main(["check", spath]) == 2
    assert f"{spath}:1:8:" in capsys.readouterr().err


@pytest.mark.parametrize("text", [None, b"ring x;\nideal I = x\xff;\nresolve I;\n"],
                         ids=["absent", "not-utf8"])
def test_cli_missing_file(tmp_path, capsys, text):
    path = tmp_path / "s.bsw"
    if text is not None:
        path.write_bytes(text)
    for command in ("run", "check"):
        with pytest.raises(SystemExit) as info:
            cli.main([command, str(path)])
        assert info.value.code == 2
        assert capsys.readouterr().err.startswith(f"bsw: cannot read {path}: ")


@pytest.mark.parametrize("text", ["x^²", "3/²", "²*x"])
def test_cli_check_refuses_non_ascii_digits(tmp_path, capsys, text):
    spath = write(tmp_path, "s.bsw", f"ring x;\npoly f = {text};\n")
    assert cli.main(["check", spath]) == 2
    assert f"{spath}:2:1: expected " in capsys.readouterr().err


@pytest.mark.parametrize("out", ["missing/r.json", "somedir"])
def test_cli_unwritable_out_stops_before_running(tmp_path, capsys, out):
    (tmp_path / "somedir").mkdir()
    spath = write(tmp_path, "s.bsw", "ring z, w;\nloja --phi w --a z --curve 1,1 --csv pts.csv;\n")
    with pytest.raises(SystemExit) as info:
        cli.main(["run", spath, "--out", str(tmp_path / out)])
    assert info.value.code == 2
    assert f"bsw: cannot write {tmp_path / out}: " in capsys.readouterr().err
    assert not list(tmp_path.rglob("pts.csv"))


def test_cli_report_replaces_a_loja_csv_of_the_same_name(tmp_path, capsys):
    spath = write(tmp_path, "s.bsw", "ring z, w;\nloja --phi w --a z --curve 1,1 --csv r.json;\n")
    assert cli.main(["run", spath, "--out", str(tmp_path / "r.json")]) == 0
    assert json.loads((tmp_path / "r.json").read_text())["blocks"][0]["result"]["csv"] == "r.json"


def test_cli_budget_flag(tmp_path, capsys):
    spath = write(tmp_path, "s.bsw",
                  "ring x, y, z, w;\nideal T = x*z, x*w, y*z, y*w;\nstrata T;\n")
    assert cli.main(["run", spath, "--budget", "1", "--out",
                     str(tmp_path / "r.json")]) == 3
    assert cli.main(["run", spath, "--budget", "0", "--out",
                     str(tmp_path / "r.json")]) == 2
    capsys.readouterr()


def test_cli_seed_changes_sampling(tmp_path, capsys):
    # |z + w| depends on the sampled angles, unlike the pure monomial |w|
    spath = write(tmp_path, "s.bsw",
                  "ring z, w weights 2, 5;\nloja --phi z + w --a z --curve 2,5;\n")
    o1, o2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert cli.main(["run", spath, "--out", o1, "--seed", "1"]) == 0
    assert cli.main(["run", spath, "--out", o2, "--seed", "2"]) == 0
    r1 = json.loads(open(o1).read())
    r2 = json.loads(open(o2).read())
    assert r1["seed"] == 1 and r2["seed"] == 2
    assert r1["blocks"][0]["result"] != r2["blocks"][0]["result"]
    capsys.readouterr()


def test_cli_negative_seed_gives_validation_block(tmp_path, capsys):
    spath = write(tmp_path, "s.bsw",
                  "ring z, w weights 2, 5;\nloja --phi w --a z --curve 2,5;\n")
    out = str(tmp_path / "r.json")
    assert cli.main(["run", spath, "--out", out, "--seed", "-1"]) == 2
    assert json.loads(open(out).read())["blocks"][0]["error"] == {
        "kind": "validation", "message": "seed must be a non-negative integer"}
    capsys.readouterr()


# ---------------------------------------------------------------- numpy load points

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# a fresh interpreter parses the session on stdin, then runs it, and says
# whether numpy was loaded after each step
NUMPY_PROBE = """
import json, sys
import bsw, bsw.cli
imported = "numpy" in sys.modules
from bsw.session import parse_session, run_session
sess = parse_session(sys.stdin.read())
parsed = "numpy" in sys.modules
report = run_session(sess, csv_dir=sys.argv[1])
print(json.dumps({"imported": imported, "parsed": parsed, "ran": "numpy" in sys.modules,
                  "status": [b["status"] for b in report["blocks"]]}))
"""

GERM = "germ semigroup 2, 5;\ngerm ideal 2;\n"
ONE_COMMAND = {
    "resolve": CUSP + "resolve C;",
    "strata": CUSP + "strata C;",
    "check-cm": CUSP + "check-cm C;",
    "check-normal": CUSP + "check-normal C;",
    "check-bs": CUSP + "ideal A = z, w;\ncheck-bs C --ideal A;",
    "bs-verify-monomial": "ring x, y;\nideal M = x^2, y^3;\nbs-verify-monomial M --ell 2;",
    "newton-closure": "ring x, y;\nideal M = x^2, y^3;\nnewton-closure M;",
    "loja": "ring z, w weights 2, 5;\nloja --phi w --a z --curve 2,5;",
    "germ member": GERM + "germ member 4;",
    "germ closure-member": GERM + "germ closure-member 5 power=2;",
    "germ bs-exponent": GERM + "germ bs-exponent ell=2;",
    "germ mu": "germ semigroup 2, 5;\ngerm mu vmax=12 lmax=4;",
}


def _numpy_probe(text, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    done = subprocess.run([sys.executable, "-c", NUMPY_PROBE, str(tmp_path)], input=text,
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_resolve_workload_never_loads_numpy(tmp_path):
    # importing bsw and its CLI, parsing and running the exact side load no numpy
    with open(os.path.join(ROOT, "perfbench", "workloads", "resolve.bsw"),
              encoding="utf-8") as fh:
        probe = _numpy_probe(fh.read(), tmp_path)
    assert probe["status"] and set(probe["status"]) == {"ok"}
    assert not (probe["imported"] or probe["parsed"] or probe["ran"])


# a fresh interpreter imports bsw and its CLI, parses and runs the session on
# stdin, and names which of the modules that bsw leaves out it then holds
STARTUP_PROBE = """
import json, sys
import bsw, bsw.cli
from bsw.session import parse_session, run_session
report = run_session(parse_session(sys.stdin.read()), csv_dir=sys.argv[1])
print(json.dumps({"loaded": [m for m in ("dataclasses", "inspect", "traceback", "datetime")
                             if m in sys.modules],
                  "status": [b["status"] for b in report["blocks"]]}))
"""


def test_resolve_workload_loads_no_record_or_report_helpers(tmp_path):
    # the records are built by hand, a traceback is imported only for an
    # `internal` block and the timestamp comes from `time`, so start-up pays
    # for none of these modules
    with open(os.path.join(ROOT, "perfbench", "workloads", "resolve.bsw"),
              encoding="utf-8") as fh:
        text = fh.read()
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    done = subprocess.run([sys.executable, "-c", STARTUP_PROBE, str(tmp_path)], input=text,
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    assert probe["status"] and set(probe["status"]) == {"ok"}
    assert probe["loaded"] == []


# the names of the loaded numpy modules after parsing and after running the
# session file named on the command line
NUMPY_MODULES_PROBE = """
import json, sys
from bsw.session import parse_session, run_session
def numpy_modules():
    return sorted(name for name in sys.modules if name.startswith("numpy"))
with open(sys.argv[1], encoding="utf-8") as fh:
    sess = parse_session(fh.read())
parsed = numpy_modules()
report = run_session(sess, csv_dir=sys.argv[2])
print(json.dumps({"parsed": parsed, "ran": numpy_modules(),
                  "kinds": [b.get("error", {}).get("kind", "ok") for b in report["blocks"]]}))
"""


@pytest.mark.parametrize("session", ["sessions/acceptance.bsw", "sessions/loja_blocks.bsw",
                                     "perfbench/workloads/search.bsw"])
def test_no_numpy_module_loads_while_a_session_runs(session, tmp_path):
    # the loja sampler's angle stream needs no numpy.random, so whatever the
    # parser loaded is all a run ever holds (a session without a kind in
    # _NUMPY_KINDS holds none: test_resolve_workload_never_loads_numpy)
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    done = subprocess.run([sys.executable, "-c", NUMPY_MODULES_PROBE,
                           os.path.join(ROOT, session), str(tmp_path)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    assert probe["kinds"] and "internal" not in probe["kinds"]
    assert probe["parsed"] and probe["ran"] == probe["parsed"]


def test_one_command_sessions_cover_every_kind():
    assert set(ONE_COMMAND) == set(_COMMANDS) and _NUMPY_KINDS <= set(_COMMANDS)


@pytest.mark.parametrize("kind", sorted(ONE_COMMAND))
def test_numpy_is_never_first_loaded_inside_a_command(kind, tmp_path):
    # a run that needs numpy finds it loaded by the parser, so _NUMPY_KINDS
    # cannot miss a kind whose run imports it
    probe = _numpy_probe(ONE_COMMAND[kind] + "\n", tmp_path)
    assert probe["status"] == ["ok"]
    assert not probe["imported"]
    assert probe["parsed"] == (kind in _NUMPY_KINDS)
    assert probe["ran"] == probe["parsed"]


# ---------------------------------------------------------------- fuzz

SMALL = hst.integers(-1, 4)
KINDS = ("resolve", "strata", "check-cm", "check-normal", "check-bs", "bs-verify-monomial",
         "newton-closure", "loja", "germ member", "germ closure-member", "germ bs-exponent",
         "germ mu")
IDEAL_NAMES = hst.sampled_from(("I", "J", "I", "J", "I", "J", "f", "K"))  # f a poly, K unbound


@hst.composite
def _poly(draw, names):
    """Up to three terms of degree <= 2 with coefficients in -2..2."""
    terms = draw(hst.lists(hst.tuples(hst.integers(-2, 2),
                                      hst.lists(hst.sampled_from(names), max_size=2)),
                           min_size=1, max_size=3))
    return " + ".join(f"{c}" + "".join(f"*{v}" for v in mono) for c, mono in terms)


def _opt(draw, text):
    return text if draw(hst.booleans()) else ""


@hst.composite
def _command(draw, kind, names):
    """A `kind` statement with small, sometimes zero, negative or unbound values."""
    name, small = draw(IDEAL_NAMES), draw(SMALL)
    if kind in ("resolve", "strata"):
        text = (f"{kind} {name}" + _opt(draw, f" --max-len {small}")
                + _opt(draw, " --certify false"))
    elif kind in ("check-cm", "check-normal", "newton-closure"):
        text = f"{kind} {name}"
    elif kind == "check-bs":
        text = f"check-bs {name} --ideal {draw(IDEAL_NAMES)}" + _opt(draw, f" --m {small}")
    elif kind == "bs-verify-monomial":
        text = f"bs-verify-monomial {name} --ell {small}" + _opt(draw, f" --d {draw(SMALL)}")
    elif kind == "loja":
        if draw(hst.booleans()):
            variety = "--curve " + ",".join(str(draw(hst.integers(0, 4))) for _ in names)
        else:  # in a one-variable ring the expression uses the solved variable
            var = draw(hst.sampled_from(names))
            variety = f"--solve {var}={draw(_poly([v for v in names if v != var] or [var]))}"
        text = (f"loja --phi {draw(_poly(names))} --a {draw(hst.sampled_from(('I', 'f')))} "
                f"{variety}" + _opt(draw, " --per-radius 3") + _opt(draw, " --csv pts.csv"))
    elif kind in ("germ member", "germ closure-member"):
        text = f"{kind} {draw(hst.integers(-1, 8))}"
        if kind == "germ closure-member":
            text += _opt(draw, f" power={small}")
    elif kind == "germ bs-exponent":
        text = f"germ bs-exponent ell={small}" + _opt(draw, " mode=closure-power")
    else:
        text = f"germ mu vmax={draw(hst.integers(-1, 8))} lmax={draw(hst.integers(-1, 3))}"
    return text + ";"


@hst.composite
def _session(draw, kind):
    """Declarations (some invalid or missing), a `kind` command, up to two more."""
    names = ("x", "y", "z")[:draw(hst.integers(1, 3))]
    weights = _opt(draw, " weights " + ", ".join(
        str(draw(hst.sampled_from((1, 2, 3) * 5 + (0,)))) for _ in names))
    lines = [f"ring {', '.join(names)}{weights};"]
    for name in ("I", "J"):
        gens = draw(hst.lists(_poly(names), min_size=1, max_size=3))
        lines.append(f"ideal {name} = {', '.join(gens)};")
    lines.append(f"poly f = {draw(_poly(names))};")
    gens = draw(hst.sampled_from(((2, 5), (2, 3), (3, 4, 5), (3, 5)) * 3 + ((2, 4), (0, 3))))
    lines.append(f"germ semigroup {', '.join(map(str, gens))};")
    if draw(hst.integers(0, 4)) < 4:  # sometimes no germ ideal; shifts sometimes 0 or -1
        shifts = draw(hst.lists(hst.sampled_from(gens * 4 + (0, -1)), min_size=1,
                                max_size=2))
        lines.append(f"germ ideal {', '.join(map(str, shifts))};")
    kinds = draw(hst.permutations([kind] + draw(hst.lists(hst.sampled_from(KINDS),
                                                          max_size=2))))
    lines += [draw(_command(k, names)) for k in kinds]
    return "\n".join(lines) + "\n", kinds


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30)
@given(data=hst.data())
def test_fuzzed_sessions_parse_or_give_one_clean_block_per_command(kind, data):
    text, kinds = data.draw(_session(kind))
    try:
        sess = parse_session(text)
    except SessionSyntaxError:
        return
    with tempfile.TemporaryDirectory() as csv_dir:
        report = run_session(sess, budget=20000, csv_dir=csv_dir)
    assert [b["command"] for b in report["blocks"]] == kinds
    assert report["commands"] == len(kinds)
    for block in report["blocks"]:
        assert block["status"] == "ok" or block["error"]["kind"] != "internal", block
    json.dumps(report)


# ---------------------------------------------------------------- strict JSON reports

CORPUS = sorted(os.path.join(d, name) for d in ("sessions", os.path.join("perfbench", "workloads"))
                for name in os.listdir(os.path.join(ROOT, d)) if name.endswith(".bsw"))
RADII_ITEMS = ("inf", "-inf", "nan", "1e400", "1_0e-2", "\u0661e-1", "1e-1", "5e-2", ".25", "1.",
               "1E-3", "+2e-2", "-0.0", "0", "5e-324")


def _strict_report(text, csv_dir):
    """json.dumps of the session's report with NaN and Infinity refused, or None
    for a syntax error."""
    try:
        sess = parse_session(text)
    except SessionSyntaxError:
        return None
    return json.dumps(run_session(sess, csv_dir=csv_dir), allow_nan=False)


@pytest.mark.parametrize("path", CORPUS)
def test_corpus_reports_are_strict_json(path, tmp_path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        assert _strict_report(fh.read(), str(tmp_path)) is not None


@pytest.mark.parametrize("path", CORPUS)
def test_corpus_sessions_yield_no_internal_block(path, tmp_path):
    # an `internal` error block means a bug in bsw; every corpus session parses
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        report = run_session(parse_session(fh.read()), csv_dir=str(tmp_path))
    assert [b for b in report["blocks"] if b["status"] != "ok" and b["error"]["kind"] == "internal"] == []


@pytest.mark.parametrize("path", CORPUS)
def test_a_fresh_command_passes_exactly_at_the_units_it_draws(path, tmp_path):
    # tools/same_reports.py compares units in place of budget runs: nothing
    # but Budget.spend reads the meter, so a freshly parsed command that
    # draws u units gives its default-budget block at budget u and a budget
    # block at u - 1
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        text = fh.read()

    def fresh(i, budget):
        return run_command(parse_session(text).commands[i], budget=budget, csv_dir=str(tmp_path))

    for i in range(len(parse_session(text).commands)):
        meter = Budget(DEFAULT_BUDGET)
        block = fresh(i, meter)
        units = meter.total - max(meter.left, 0)
        if units >= 1:
            assert fresh(i, units) == block
        if units >= 2:
            assert fresh(i, units - 1)["error"]["kind"] == "budget"


@settings(max_examples=60, deadline=None)
@given(hst.lists(hst.one_of(hst.sampled_from(RADII_ITEMS), hst.floats().map(repr)),
                 min_size=1, max_size=3),
       hst.sampled_from(("--curve 1,1", "--solve w=z^2")))
@example(["1e-1", "nan"], "--curve 1,1")
@example(["inf", "1e-1"], "--solve w=z^2")
def test_loja_reports_over_drawn_radii_are_strict_json(items, shape):
    text = f"ring z, w;\nloja --phi w --a z {shape} --radii {', '.join(items)} --per-radius 3;\n"
    with tempfile.TemporaryDirectory() as csv_dir:
        _strict_report(text, csv_dir)


# ---------------------------------------------------------------- one-variable resolutions

def test_one_variable_ideal_with_redundant_generators_resolves():
    # the generator row of (x^2, x^3) has a syzygy, so the chain needs two maps in Q[x]
    rep = run_session(parse("ring x;\nideal I = x^2, x^3;\nresolve I;\nstrata I;\n"
                            "check-cm I;\ncheck-normal I;\ncheck-bs I --ideal I;\n"))
    assert [b["status"] for b in rep["blocks"]] == ["ok"] * 5
    resolved = rep["blocks"][0]["result"]
    assert (resolved["ranks"], resolved["minimal_betti"]) == ([1, 2, 1], [1, 1])


# ---------------------------------------------------------------- session memo

MEMO_HEAD = ("ring x, y, z, w;\nideal T = x*z, x*w, y*z, y*w;\nideal A = x;\n"
             "ideal N = x*y - z, x^2 - z^3;\n")


def _drawn(cmd, csv_dir, budget=DEFAULT_BUDGET):
    """(block, units drawn) of one run of cmd on a fresh meter of `budget` units."""
    meter = Budget(budget)
    block = run_command(cmd, budget=meter, csv_dir=csv_dir)
    return block, meter.total - max(meter.left, 0)


def _session_text(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("path", CORPUS)
def test_each_command_in_session_order_gives_what_it_gives_alone(path, tmp_path):
    # alone: on a fresh parse, after its declarations only, every other command
    # skipped; in order, a command may hit the memo an earlier one filled
    text = _session_text(path)
    in_order = [_drawn(cmd, str(tmp_path)) for cmd in parse_session(text).commands]
    alone = [_drawn(parse_session(text).commands[i], str(tmp_path))
             for i in range(len(in_order))]
    assert in_order == alone


@pytest.mark.parametrize("commands", [
    "resolve T;\nresolve T;\n",
    "strata T;\ncheck-cm T;\n",
    "check-normal N;\nstrata N;\n",
    "check-cm N;\ncheck-bs N --ideal A;\n",
    "resolve N --certify false;\nresolve N --certify false;\n",
])
def test_a_hit_that_does_not_fit_fails_as_on_a_fresh_parse(commands, tmp_path):
    csv_dir = str(tmp_path)
    text = MEMO_HEAD + commands
    fresh_block, units = _drawn(parse(text).commands[1], csv_dir)
    sess = parse(text)
    # a failed build stores nothing, so the next one builds and draws in full
    assert run_command(sess.commands[0], budget=1)["error"]["kind"] == "budget"
    assert _drawn(sess.commands[0], csv_dir) == _drawn(parse(text).commands[0], csv_dir)
    assert _drawn(sess.commands[1], csv_dir) == (fresh_block, units)  # a hit
    for budget in (units - 1, units):
        block = run_command(sess.commands[1], budget=budget, csv_dir=csv_dir)
        assert block == run_command(parse(text).commands[1], budget=budget, csv_dir=csv_dir)
        assert block["status"] == ("ok" if budget == units else "error")
    assert block == fresh_block


@pytest.mark.parametrize("commands", ["resolve T;\nresolve T;\n", "strata T;\ncheck-cm T;\n"])
def test_a_hit_that_runs_out_builds_no_resolution(commands, monkeypatch, tmp_path):
    # the hit spends its recorded units on the meter and fails there, as a
    # fresh parse fails one unit short, without building anything again
    csv_dir = str(tmp_path)
    text = MEMO_HEAD + commands
    units = _drawn(parse(text).commands[1], csv_dir)[1]
    fresh = run_command(parse(text).commands[1], budget=units - 1, csv_dir=csv_dir)
    sess = parse(text)
    run_command(sess.commands[0], csv_dir=csv_dir)
    calls = []
    monkeypatch.setattr("bsw.session.free_resolution",
                        lambda *args, **kw: calls.append(args) or free_resolution(*args, **kw))
    block = run_command(sess.commands[1], budget=units - 1, csv_dir=csv_dir)
    assert (len(calls), block) == (0, fresh)
    assert block["error"]["kind"] == "budget"


def test_each_block_reports_the_units_its_meter_drew(tmp_path):
    csv_dir = str(tmp_path)
    text = MEMO_HEAD + "resolve T;\nresolve T;\n"
    block, units = _drawn(parse(text).commands[1], csv_dir)
    assert (block["status"], block["units"]) == ("ok", units) and units > 1
    short = run_command(parse(text).commands[1], budget=units - 1, csv_dir=csv_dir)
    assert (short["error"]["kind"], short["units"]) == ("budget", units - 1)
    sess = parse(text)
    assert _drawn(sess.commands[0], csv_dir)[0]["units"] == units
    assert _drawn(sess.commands[1], csv_dir) == (block, units)  # a hit
    short = run_command(sess.commands[1], budget=units - 1, csv_dir=csv_dir)
    assert (short["error"]["kind"], short["units"]) == ("budget", units - 1)
    unmetered = run_session(parse("germ semigroup 2, 5;\ngerm ideal 2;\ngerm member 5;\n"
                                  "ring z, w;\nloja --phi w --a z --curve 1,1;\n"),
                            csv_dir=csv_dir)
    assert [(b["status"], b["units"]) for b in unmetered["blocks"]] == [("ok", 0), ("ok", 0)]


def test_a_negative_budget_is_refused():
    with pytest.raises(ValidationError, match="budget must be non-negative"):
        Budget(-1)
    with pytest.raises(ValidationError, match="budget must be non-negative"):
        run_session(parse("germ semigroup 2, 5;\ngerm ideal 2;\ngerm member 5;\n"), budget=-5)
    assert run_one("germ semigroup 2, 5;\ngerm ideal 2;\ngerm member 5;\n", budget=0)["units"] == 0


def test_a_name_bound_again_in_a_new_parse_gets_a_fresh_memo():
    # one session refuses a second binding of a name, so only two parses bind
    # T twice; the second resolve T must not reuse the first's resolution
    assert "duplicate binding" in str(err("ring x, y;\nideal T = x, y;\nresolve T;\n"
                                          "ideal T = x^2, y;\nresolve T;\n"))
    texts = ["ring x, y;\nideal T = x, y;\nresolve T;\n",
             "ring x, y;\nideal T = x^2, y;\nresolve T;\n"]
    first, second = (run_command(parse(text).commands[0]) for text in texts)
    assert first["result"]["maps"] != second["result"]["maps"]
    assert second == run_one(texts[1])


@pytest.mark.parametrize("path", CORPUS)
def test_a_parsed_session_reruns_alike(path, tmp_path):
    sess = parse_session(_session_text(path))
    passes = [[_drawn(cmd, str(tmp_path)) for cmd in sess.commands] for _ in range(2)]
    assert passes[0] == passes[1]
    reports = [run_session(sess, csv_dir=str(tmp_path)) for _ in range(2)]
    for report in reports:
        report.pop("timestamp")
    assert reports[0] == reports[1]


@pytest.mark.parametrize("text", [
    "ring x, y, z, w;\nideal T = x*z, x*w, y*z, y*w;\nstrata T;\n",
    "ring a, b, c;\nideal CONE = a*c - b^2;\ncheck-cm CONE;\nstrata CONE;\n",
    CUSP + "strata C;\ncheck-bs C --ideal C;\n",
])
def test_a_rerun_at_the_budget_edge_keeps_every_verdict(text):
    # one parse run twice: each run's blocks are a fresh parse's, at a budget
    # the last command just fits in, one unit short of it, and at 285
    units = _drawn(parse(text).commands[-1], ".")[1]
    for budget in (units - 1, units, 285):
        sess = parse(text)
        fresh = run_session(parse(text), budget=budget)["blocks"]
        assert [run_session(sess, budget=budget)["blocks"] for _ in range(2)] == [fresh, fresh]
