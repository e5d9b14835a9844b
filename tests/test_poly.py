"""Polynomial arithmetic, monomial orders, parsing and printing."""

import itertools
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsw.poly
from bsw import closure, groebner, semigroup
from bsw.errors import ResourceCapError, StructuralError, ValidationError
from bsw.modgb import VecPoly
from bsw.poly import (RING_ORDERS, Polynomial, RingContext, add_term, check_exponent, exp_add,
                      exp_divides, exp_lcm, exp_sub, format_polynomial, parse_polynomial,
                      parse_polynomials, split_top_commas, weighted_degree_info)

from _oracles import (cmp_monomials, eval_complex, exp_add_genexpr, exp_divides_genexpr,
                      exp_lcm_genexpr, exp_sub_genexpr, ideal_power, monomial_key,
                      parse_polynomial_isdigit, weighted_degree_genexpr)

R2 = RingContext(("x", "y"))
R3 = RingContext(("x", "y", "z"))
RW = RingContext(("z", "w"), (2, 5))


def P(text, ring=R2):
    return parse_polynomial(text, ring)


# ---------------------------------------------------------------- strategies

coeffs = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6)
exps2 = st.tuples(st.integers(0, 5), st.integers(0, 5))


@st.composite
def polys(draw, ring=R2, exps=exps2):
    terms = draw(st.dictionaries(exps, coeffs, max_size=5))
    p = Polynomial.zero(ring)
    for e, c in terms.items():
        p = p + Polynomial.monomial(ring, e, c)
    return p


# ---------------------------------------------------------------- ring axioms

@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + Polynomial.zero(R2) == p
    assert p * Polynomial.constant(R2, 1) == p
    assert p - p == Polynomial.zero(R2)


@given(polys(), st.integers(0, 4))
def test_power_is_repeated_product(p, k):
    expect = Polynomial.constant(R2, 1)
    for _ in range(k):
        expect = expect * p
    assert p ** k == expect


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 20, 33])
def test_power_squares_only_while_bits_remain(k, monkeypatch):
    calls = []
    mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    P("x + y") ** k
    assert len(calls) == k.bit_length() - 1 + bin(k).count("1")


@given(polys())
def test_zero_product(p):
    assert (p * Polynomial.zero(R2)).is_zero()


def test_no_zero_terms_stored():
    p = P("x + y") - P("y")
    assert p == P("x")
    assert len(p.terms()) == 1


def test_polynomial_rejects_malformed_exponents():
    for bad in ({(1,): 1}, {(1, 0, 0): 1}, {(0, -2): 3}, {(0, -1): 0}, {(1.0, 0): 1}):
        with pytest.raises(StructuralError):
            Polynomial(R2, bad)
    assert check_exponent([0, 2], 2) == (0, 2)
    assert Polynomial(R2, [([0, 2], 3)]).terms() == {(0, 2): 3}


# ---------------------------------------------------------------- unchecked results

exps3 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
checked3 = st.dictionaries(exps3, coeffs, max_size=5).map(lambda t: Polynomial(R3, t))


def _assert_clean_terms(items, n):
    for e, c in items:
        assert type(e) is tuple and len(e) == n
        assert all(type(x) is int and x >= 0 for x in e)
        assert type(c) is Fraction and c != 0


@given(checked3, checked3, coeffs, st.integers(0, 3), st.integers(0, 2))
def test_unchecked_results_are_clean(p, q, c, k, i):
    # results built through _of hold only what the checked constructor
    # would store, and equal their re-checked copies
    for r in (p + q, p - q, -p, p * q, p ** k, p.scale(c), p.scale(0), p.derivative(i)):
        _assert_clean_terms(r.terms().items(), 3)
        assert Polynomial(r.ring, r.terms()) == r
    v = VecPoly.from_column(R3, [p, q])
    for w in (v, v.scale(c), v.scale(0)):
        assert all(0 <= pos < 2 for pos, _e in w.terms)
        _assert_clean_terms(((e, x) for (_pos, e), x in w.terms.items()), 3)
        assert VecPoly(R3, 2, w.terms).terms == w.terms
        for pos in range(2):
            r = w.component(pos)
            _assert_clean_terms(r.terms().items(), 3)
            assert Polynomial(R3, r.terms()) == r
    assert [v.component(0), v.component(1)] == [p, q]


@given(st.dictionaries(exps2, coeffs, max_size=5), exps2, coeffs)
def test_add_term_inserts_adds_and_drops(terms, e, c):
    terms = {k: v for k, v in terms.items() if v}
    before = dict(terms)
    inserted = add_term(terms, e, c)
    if e not in before:
        # a new key stores c itself, at the end; a zero c changes nothing
        assert inserted is bool(c)
        assert list(terms.items()) == list(before.items()) + ([(e, c)] if c else [])
        assert not c or terms[e] is c
    else:
        # an old key keeps its place, or leaves the dict when the sum is 0
        s = before[e] + c
        assert inserted is False
        assert list(terms.items()) == [(k, s if k == e else v) for k, v in before.items()
                                       if k != e or s]


@given(st.dictionaries(exps2, coeffs, max_size=5))
def test_unchecked_polynomial_equals_the_checked_one(terms):
    p = Polynomial._of(R2, {e: c for e, c in terms.items() if c})
    q = Polynomial(R2, terms)
    assert p == q and hash(p) == hash(q) and p.ring is R2
    for attr in ("ring", "_terms", "_hash", "other"):
        with pytest.raises(AttributeError):
            setattr(p, attr, None)


# ---------------------------------------------------------------- orders

def test_degrevlex_tie_break():
    ctx = RingContext(("x", "y", "z"), order="degrevlex")
    # same degree: smaller exponent on the last differing variable wins
    assert cmp_monomials((1, 0, 1), (0, 1, 1), ctx) == 1
    assert cmp_monomials((2, 0, 0), (1, 1, 0), ctx) == 1
    assert cmp_monomials((1, 1, 1), (1, 1, 1), ctx) == 0


def test_weighted_order_respects_weights():
    # z has weight 2, w weight 5: w > z^2
    assert cmp_monomials((0, 1), (2, 0), RW) == 1
    assert cmp_monomials((5, 0), (0, 2), RW) == 1  # equal weight 10: revlex tie-break
    assert monomial_key((5, 0), RW)[0] == 10


def test_lex_order():
    ctx = RingContext(("x", "y"), order="lex")
    assert cmp_monomials((1, 0), (0, 9), ctx) == 1


@given(st.sampled_from(RING_ORDERS),
       st.lists(st.integers(1, 7), min_size=1, max_size=4),
       st.lists(st.lists(st.integers(0, 9), min_size=4, max_size=4), min_size=1, max_size=6))
def test_order_key_table_matches_if_chain(order, weights, exps):
    # the per-ring key picked once at construction is the old if-chain's
    # key, and survives pickling, which compares and hashes by fields
    ctx = RingContext(tuple("abcd"[:len(weights)]), tuple(weights), order)
    back = pickle.loads(pickle.dumps(ctx))
    assert back == ctx and hash(back) == hash(ctx)
    for e in exps:
        e = tuple(e[:ctx.n])
        assert ctx.order_key(e) == monomial_key(e, ctx) == back.order_key(e)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 7), min_size=n, max_size=n),
    st.lists(st.tuples(*[st.integers(0, 40)] * n), min_size=1, max_size=5))))
def test_kernels_match_generator_expressions(case):
    # the map-over-builtins kernels give the generator expressions' values,
    # so division and Buchberger pick the same terms and pairs; monomial_key
    # keeps the old reversed-tuple form and takes the weighted degree checked here
    weights, exps = case
    for a, b in itertools.product(exps, repeat=2):
        assert exp_add(a, b) == exp_add_genexpr(a, b)
        assert exp_sub(a, b) == exp_sub_genexpr(a, b)
        assert exp_divides(a, b) == exp_divides_genexpr(a, b)
        assert exp_lcm(a, b) == exp_lcm_genexpr(a, b)
    names = tuple(f"x{i}" for i in range(len(weights)))
    for order in RING_ORDERS:
        ctx = RingContext(names, tuple(weights), order)
        for ring in (ctx, pickle.loads(pickle.dumps(ctx))):
            for e in exps:
                assert ring.weighted_degree(e) == weighted_degree_genexpr(ring.weights, e)
                assert ring.order_key(e) == monomial_key(e, ring)


@given(st.tuples(st.integers(0, 4), st.integers(0, 4)),
       st.tuples(st.integers(0, 4), st.integers(0, 4)),
       st.tuples(st.integers(0, 4), st.integers(0, 4)))
def test_order_is_total_and_multiplicative(a, b, c):
    # antisymmetric total order, compatible with multiplication
    s = cmp_monomials(a, b, R2)
    assert s == -cmp_monomials(b, a, R2)
    ab = tuple(x + y for x, y in zip(a, c))
    bb = tuple(x + y for x, y in zip(b, c))
    assert cmp_monomials(ab, bb, R2) == s


def test_unknown_order_rejected():
    with pytest.raises(ValidationError):
        RingContext(("x",), order="mystery")


def test_only_the_ring_orders_are_accepted():
    for order in RING_ORDERS:
        assert RingContext(("x", "y"), order=order).order == order
    with pytest.raises(ValidationError):
        RingContext(("x",), order="elim1")  # no internal elimination order


def test_ring_validation():
    with pytest.raises(ValidationError):
        RingContext(())
    with pytest.raises(ValidationError):
        RingContext(("x", "x"))
    with pytest.raises(ValidationError):
        RingContext(("x",), (0,))
    with pytest.raises(ValidationError):
        RingContext(("x", "y"), (1,))


def test_ring_mismatch_rejected():
    with pytest.raises(StructuralError):
        P("x") + P("x", R3)


def test_zero_lead_foreign_operand_and_negative_power():
    zero = Polynomial.zero(R2)
    with pytest.raises(ValidationError, match="zero polynomial has no leading term"):
        zero.leading_term()
    assert zero.monic() is zero
    with pytest.raises(StructuralError, match="expected a Polynomial operand"):
        P("x") * 2
    for k in (-1, 1.0):
        with pytest.raises(ValidationError, match="nonnegative integer"):
            P("x") ** k


# ---------------------------------------------------------------- degrees

def test_weighted_degree_info():
    info = weighted_degree_info(P("z^5 - w^2", RW))
    assert info.min_degree == 10 and info.max_degree == 10
    assert info.quasi_homogeneous
    info2 = weighted_degree_info(P("z^2 + w", RW))
    assert not info2.quasi_homogeneous
    with pytest.raises(ValidationError):
        weighted_degree_info(Polynomial.zero(RW))


def test_derivative():
    assert P("x^3*y").derivative(0) == P("3*x^2*y")
    assert P("x^3*y").derivative(1) == P("x^3")
    assert P("z^5 - w^2", RW).derivative(1) == P("-2*w", RW)


def test_eval_complex():
    v = eval_complex(P("x^2 + y"), (2 + 0j, 1j))
    assert v == 4 + 1j


# ---------------------------------------------------------------- ideal powers

S345 = semigroup.semigroup_build((3, 4, 5))


@pytest.mark.parametrize("power", [
    lambda: groebner.ideal_power(groebner.Ideal(R3, parse_polynomials("x, y, z", R3)), 12),
    lambda: closure.MonomialIdeal(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))).power(12),
    lambda: ideal_power(semigroup.semigroup_ideal(S345, (3, 4, 5)), 12, S345),
], ids=["polynomial", "monomial", "semigroup"])
def test_every_ideal_power_shares_one_cap(power, monkeypatch):
    # C(3 + 12 - 1, 12) = 91 products of 3 generators, in every regime, against one constant
    monkeypatch.setattr(bsw.poly, "POWER_CAP", 91)
    power()
    monkeypatch.setattr(bsw.poly, "POWER_CAP", 90)
    with pytest.raises(ResourceCapError) as err:
        power()
    assert str(err.value) == "ideal power would need 91 products (cap 90)"


# ---------------------------------------------------------------- parse/print

def test_parse_examples():
    p = P("3/2*x^2*y - z", R3)
    assert p.terms() == {(2, 1, 0): Fraction(3, 2), (0, 0, 1): Fraction(-1)}
    assert P("x*(x + y)") == P("x^2 + x*y")
    assert P("(x + y)^2") == P("x^2 + 2*x*y + y^2")
    assert P("-x - -y") == P("y - x")
    assert P("7") == Polynomial.constant(R2, 7)


def test_parse_errors_carry_position():
    with pytest.raises(ValidationError) as e:
        P("x + ")
    assert "position" in str(e.value)
    with pytest.raises(ValidationError):
        P("q + 1")  # unknown variable
    with pytest.raises(ValidationError):
        P("x^-2")
    with pytest.raises(ValidationError):
        P("(x + y")
    with pytest.raises(ValidationError):
        P("")


def test_parse_polynomials_splits_top_level():
    lst = parse_polynomials("x^2, (x + y), y", R2)
    assert lst == [P("x^2"), P("x + y"), P("y")]


def test_split_top_commas_strips_and_respects_parentheses():
    assert split_top_commas(" a , (b, (c, d)) ,e ") == ["a", "(b, (c, d))", "e"]
    assert split_top_commas("") == [""]


def test_format_canonical():
    assert str(P("y + x^2 - 1")) == "x^2 + y - 1"
    assert str(P("-x*y")) == "-x*y"
    assert str(P("1/2*x - 3/4")) == "1/2*x - 3/4"
    assert str(Polynomial.zero(R2)) == "0"
    assert format_polynomial(P("w^2 - z^5", RW)) == "-z^5 + w^2"  # weight 10 tie, revlex


@given(polys())
def test_print_parse_round_trip(p):
    assert parse_polynomial(format_polynomial(p), R2) == p


@given(polys(), polys())
def test_hash_consistent_with_eq(p, q):
    if p == q:
        assert hash(p) == hash(q)


# ---------------------------------------------------------------- one reader

def _read_outcome(read, text):
    try:
        return str(read(text, R3))
    except ValidationError as exc:
        return f"error: {exc}"


READER_CHARS = "xyzα0123 +-*^()/_"
# chunks of the same characters, so that sign runs, powers and fractions
# reach the deeper branches more often than with characters drawn one by one
READER_CHUNKS = ["x", "y", "z", "α", "_", "0", "1", "23", " ", "  ", "+", "-", "--", "*",
                 "^", "^2", "(", ")", "/", "/3"]


# exponents of one digit: a two-digit power of a sum takes seconds to expand
@settings(max_examples=300)
@given(st.one_of(st.text(alphabet=READER_CHARS, max_size=12),
                 st.lists(st.sampled_from(READER_CHUNKS), max_size=10).map("".join))
       .filter(lambda text: not re.search(r"\^ *[0-9]{2}", text)))
def test_reader_matches_the_isdigit_reader_on_ascii_digits(text):
    assert _read_outcome(parse_polynomial, text) == _read_outcome(parse_polynomial_isdigit, text)


@pytest.mark.parametrize("text, message", [
    ("x^²", "expected an integer at position 2"),
    ("3/²", "expected an integer at position 2"),
    ("²*x", "expected a factor at position 0"),
    ("٣*x", "expected a factor at position 0"),
])
def test_non_ascii_digits_are_positioned_errors(text, message):
    with pytest.raises(ValidationError) as info:
        P(text)
    assert str(info.value) == f"{message} in {text!r}"


def test_trailing_input_and_zero_denominator_are_positioned_errors():
    with pytest.raises(ValidationError) as info:
        P("x y")
    assert str(info.value) == "trailing input at position 2 in 'x y'"
    with pytest.raises(ValidationError) as info:
        P("x + 1/0")
    assert str(info.value) == "zero denominator at position 7 in 'x + 1/0'"
