"""Buchberger, normal forms, ideal operations, dimension."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

import bsw.poly
from bsw.errors import (BudgetExceededError, ResourceCapError, StructuralError,
                        ValidationError)
from bsw.groebner import (Ideal, groebner_basis, ideal_combine, ideal_member,
                          ideal_power, krull_dimension, normal_form)
from bsw.modgb import DEFAULT_BUDGET, Budget
from bsw.modgb import TopOrder, VecPoly, _GraphOrder, run_buchberger
from bsw.poly import (Polynomial, RingContext, exp_lcm, parse_polynomial,
                      parse_polynomials)
from bsw.poly import RING_ORDERS

from _oracles import macaulay_member
from _oracles import buchberger_by_min, groebner_basis_buchberger
from _oracles import spoly  # exercised post-hoc on produced bases

R2 = RingContext(("x", "y"))
R3 = RingContext(("x", "y", "z"))
R4 = RingContext(("x", "y", "z", "w"))
RW = RingContext(("z", "w"), (2, 5))


def P(text, ring=R2):
    return parse_polynomial(text, ring)


def ideal(text, ring=R2):
    return Ideal(ring, tuple(parse_polynomials(text, ring)))


def gb_strings(I):
    return [str(g) for g in groebner_basis(I).elements]


# ---------------------------------------------------------------- frozen bases

def test_gb_principal():
    assert gb_strings(ideal("z^5 - w^2", RW)) == ["z^5 - w^2"]


def test_gb_quadratic_pair():
    ctx = RingContext(("x", "y"), order="degrevlex")
    assert sorted(gb_strings(ideal("x^2, x*y + y^2", ctx))) == ["x*y + y^2", "x^2", "y^3"]


def test_gb_unit_ideal():
    assert gb_strings(ideal("1, x")) == ["1"]
    assert groebner_basis(ideal("x - 1, x")).is_unit()
    assert not groebner_basis(ideal("x, y")).is_unit()


def test_gb_cusp_with_line():
    assert gb_strings(ideal("z, z^5 - w^2", RW)) == ["z", "w^2"]


def test_gb_cached_on_ideal():
    I = ideal("x^2, x*y + y^2")
    assert I.groebner() is I.groebner()


# ---------------------------------------------------------------- normal form

def test_nf_examples():
    G = groebner_basis(ideal("z, z^5 - w^2", RW))
    assert normal_form(P("w^2", RW), G).is_zero()
    for g in G.elements:
        assert normal_form(g, G).is_zero()
    Gx = groebner_basis(ideal("x"))
    assert normal_form(P("y^2"), Gx) == P("y^2")


def test_nf_order_mismatch_rejected():
    G = groebner_basis(ideal("x"))
    with pytest.raises(StructuralError):
        normal_form(P("x", R3), G)


# ---------------------------------------------------------------- membership

def test_member_examples():
    I = ideal("z, z^5 - w^2", RW)
    assert not ideal_member(P("w", RW), I)
    assert ideal_member(Polynomial.zero(RW), I)
    assert ideal_member(P("x^2*y", R2), ideal("x^2, y^3"))


def test_member_certificate_reconstructs():
    I = ideal("x^2, x*y + y^2")
    p = P("x^3 + x^2*y + x*y^2")
    ok, cofactors = ideal_member(p, I, certificate=True)
    assert ok
    basis = I.groebner().elements
    total = Polynomial.zero(R2)
    for q, g in zip(cofactors, basis):
        total = total + q * g
    assert total == p


def test_member_false_has_no_certificate():
    ok, cert = ideal_member(P("y"), ideal("x"), certificate=True)
    assert not ok and cert is None


# ---------------------------------------------------------------- combine/power

def test_combine_examples():
    s = ideal_combine(ideal("x"), ideal("y"), "sum")
    assert gb_strings(s) == ["y", "x"] or gb_strings(s) == ["x", "y"]
    inter = ideal_combine(ideal("x"), ideal("y"), "intersection")
    assert gb_strings(inter) == ["x*y"]
    prod = ideal_combine(ideal("x, y"), ideal("x, y"), "product")
    assert sorted(gb_strings(prod)) == ["x*y", "x^2", "y^2"]


def test_intersection_nontrivial():
    # (x^2, y) cap (x) = (x^2, xy)
    inter = ideal_combine(ideal("x^2, y"), ideal("x"), "intersection")
    for t in ("x^2", "x*y"):
        assert ideal_member(P(t), inter)
    assert not ideal_member(P("x"), inter)
    assert not ideal_member(P("y"), inter)


def test_combine_kind_validated():
    with pytest.raises(ValidationError):
        ideal_combine(ideal("x"), ideal("y"), "quotient")


def test_power_examples():
    assert sorted(gb_strings(ideal_power(ideal("x, y"), 2))) == ["x*y", "x^2", "y^2"]
    assert gb_strings(ideal_power(ideal("z", RW), 3)) == ["z^3"]
    sq = ideal_power(ideal("x^2, y^2"), 2)
    assert sorted(str(g) for g in sq.generators) == ["x^2*y^2", "x^4", "y^4"]
    assert str(ideal_power(ideal("x, y"), 1).generators[0]) == "x"


def test_power_cap():
    big = Ideal(R2, tuple(P(f"x + {k}") for k in range(30)))
    with pytest.raises(Exception) as e:
        ideal_power(big, 12)
    assert "cap" in str(e.value)


def test_power_cap_counts_products_not_sequences(monkeypatch):
    # C(3 + 12 - 1, 12) = 91 products, not 3^12
    cube = ideal("x, y, z", R3)
    assert len(ideal_power(cube, 12).generators) == 91
    monkeypatch.setattr(bsw.poly, "POWER_CAP", 90)
    with pytest.raises(ResourceCapError, match="91 products"):
        ideal_power(cube, 12)


# ---------------------------------------------------------------- dimension

def test_dimension_examples():
    assert krull_dimension(ideal("z^5 - w^2", RW)) == 1
    assert krull_dimension(ideal("x*z, x*w, y*z, y*w", R4)) == 2
    assert krull_dimension(Ideal(R3, ())) == 3
    assert krull_dimension(ideal("1")) == -1
    assert krull_dimension(ideal("x, y")) == 0


# ---------------------------------------------------------------- budget

def test_budget_carries_partial_state():
    I = ideal("x^3 - y^4, x*y^2 - x^2")
    with pytest.raises(BudgetExceededError) as e:
        groebner_basis(I, budget=3)
    assert isinstance(e.value.partial, tuple)
    assert e.value.spent >= 3


def test_budget_generous_succeeds():
    I = ideal("x^3 - y^4, x*y^2 - x^2")
    G = groebner_basis(I, budget=200000)
    assert len(G.elements) >= 2
    for g in I.generators:
        assert normal_form(g, G).is_zero()


def test_one_budget_is_drawn_down_by_every_call():
    I = ideal("x^3 - y^4, x*y^2 - x^2")
    b = Budget(200000)
    assert Budget.of(b) is b and Budget.of(None).total == DEFAULT_BUDGET
    ideal_member(P("x^4 - x*y^4"), I, budget=b)
    after_member = b.left
    assert after_member < b.total
    normal_form(P("x^4 + y^5"), I.groebner(), budget=b)
    assert b.left < after_member
    with pytest.raises(BudgetExceededError) as e:
        normal_form(P("x^4 + y^5"), I.groebner(), budget=Budget(1))
    assert e.value.spent == 2


# ---------------------------------------------------------------- properties

rand_coeff = st.integers(-3, 3).filter(lambda c: c != 0)
rand_exp = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def rand_poly(draw):
    n_terms = draw(st.integers(1, 3))
    p = Polynomial.zero(R2)
    for _ in range(n_terms):
        p = p + Polynomial.monomial(R2, draw(rand_exp), draw(rand_coeff))
    return p


@st.composite
def rand_ideal(draw):
    n_gens = draw(st.integers(1, 3))
    gens = [draw(rand_poly()) for _ in range(n_gens)]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        gens = [Polynomial.variable(R2, 0)]
    return Ideal(R2, tuple(gens))


@given(rand_ideal())
def test_buchberger_criterion_post_hoc(I):
    """Every S-polynomial of the produced basis reduces to zero."""
    G = groebner_basis(I)
    els = G.elements
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            s = spoly(els[i], els[j])
            assert normal_form(s, G).is_zero()


@given(rand_ideal(), rand_poly(), rand_poly())
def test_nf_idempotent_and_linear(I, p, q):
    G = groebner_basis(I)
    np_, nq = normal_form(p, G), normal_form(q, G)
    assert normal_form(np_, G) == np_
    assert normal_form(p + q, G) == np_ + nq
    assert ideal_member(p - np_, I)


@given(rand_ideal(), rand_ideal())
def test_intersection_dimension(I, J):
    both = ideal_combine(I, J, "intersection")
    assert krull_dimension(both) == max(krull_dimension(I), krull_dimension(J))


@st.composite
def monomial_ideal_pair(draw):
    ring = draw(st.sampled_from((RingContext(("x",)), R2, R3)))
    exps = st.tuples(*[st.integers(0, 3)] * ring.n)
    I, J = (draw(st.lists(exps, min_size=1, max_size=3)) for _ in range(2))
    return ring, I, J


@given(monomial_ideal_pair())
def test_intersection_of_monomial_ideals_is_pairwise_lcms(pair):
    ring, I, J = pair

    def mono(exps):
        return Ideal(ring, tuple(Polynomial.monomial(ring, e) for e in exps))

    lcms = mono([exp_lcm(a, b) for a in I for b in J])
    assert gb_strings(ideal_combine(mono(I), mono(J), "intersection")) == gb_strings(lcms)


@given(rand_ideal())
def test_gb_deterministic(I):
    a = [str(g) for g in groebner_basis(Ideal(R2, I.generators)).elements]
    b = [str(g) for g in groebner_basis(Ideal(R2, I.generators)).elements]
    assert a == b


# ---------------------------------------------------------------- the monomial shortcut

VARS4 = ("x", "y", "z", "w")


@st.composite
def monomial_ideal(draw):
    """1-8 monomial generators in 1-4 variables, exponents 0-4, under any
    ring order, with rational coefficients."""
    n = draw(st.integers(1, 4))
    ring = RingContext(VARS4[:n], (2, 1, 3, 1)[:n], draw(st.sampled_from(RING_ORDERS)))
    exps = st.tuples(*[st.integers(0, 4)] * n)
    coeff = st.sampled_from((1, -1, 2, Fraction(-3, 2), Fraction(5, 7)))
    gens = draw(st.lists(st.tuples(exps, coeff), min_size=1, max_size=8))
    return Ideal(ring, tuple(Polynomial.monomial(ring, e, c) for e, c in gens))


def _sympy_monomials(I):
    """The reduced basis by sympy.groebner as {(exponent, coefficient)}.  A
    monomial ideal's reduced basis is its minimal generators in every
    order, so sympy's grevlex serves the weighted and lex rings too."""
    syms = sympy.symbols(I.ring.variable_names)
    exprs = [sum(sympy.Rational(c.numerator, c.denominator)
                 * sympy.Mul(*(s ** k for s, k in zip(syms, e)))
                 for e, c in g.terms().items()) for g in I.generators]
    G = sympy.groebner(exprs, *syms, order="grevlex", domain="QQ")
    return {(e, Fraction(int(c.p), int(c.q))) for p in G.polys for e, c in p.as_dict().items()}


def _ring_ideal(names, order, text):
    ring = RingContext(names, order=order)
    return Ideal(ring, tuple(parse_polynomials(text, ring)))


@example(_ring_ideal(("x", "y"), "degrevlex", "-3/2*x^2*y, x^2*y, x*y^3, x^2*y^2, y^4"))
@example(_ring_ideal(("x", "y", "z"), "weighted-degrevlex", "x*z^2, 5/7*y^3, x*z^2*y, -3/2"))
@example(_ring_ideal(("x", "y", "z"), "lex", "z^4, y*z, x^2, x^2*z, y*z"))
@given(monomial_ideal())
def test_monomial_ideal_basis_matches_buchberger(I):
    """The basis read off monomial generators equals the pair loop's basis
    element by element, gives the same dimension and agrees with sympy."""
    G, H = groebner_basis(I), groebner_basis_buchberger(I)
    assert [g.terms() for g in G] == [h.terms() for h in H]
    assert [str(g) for g in G] == [str(h) for h in H]
    by_loop = Ideal(I.ring, I.generators)
    by_loop._gb = H
    assert krull_dimension(I) == krull_dimension(by_loop)
    assert {(e, c) for g in G for e, c in g.terms().items()} == _sympy_monomials(I)


def test_monomial_basis_spends_no_units_and_a_binomial_still_runs_buchberger():
    b = Budget(0)
    assert [str(g) for g in groebner_basis(ideal("x*y, x^2, x*y^2"), budget=b)] == ["x*y", "x^2"]
    assert b.left == 0
    with pytest.raises(BudgetExceededError):
        groebner_basis(ideal("x*y, x^2, y^3 - x"), budget=Budget(1))


# ---------------------------------------------------------------- the engine's pair heap

@st.composite
def engine_input(draw):
    """1-3 generators in 2-3 variables under any ring order: ideals in O^1
    and small submodules of O^2."""
    n = draw(st.integers(2, 3))
    ring = RingContext(("x", "y", "z")[:n], (2, 1, 3)[:n], draw(st.sampled_from(RING_ORDERS)))
    ncomp = draw(st.integers(1, 2))
    mono = st.tuples(st.integers(0, ncomp - 1), st.tuples(*[st.integers(0, 2)] * n))
    gens = draw(st.lists(st.lists(st.tuples(mono, rand_coeff), min_size=1, max_size=3),
                         min_size=1, max_size=3))
    return ring, [VecPoly(ring, ncomp, terms) for terms in gens]


def _pair_loop_outcome(loop, gens, order, units):
    b = Budget(units)
    try:
        G = loop(gens, order, b)
    except BudgetExceededError as e:
        return "exhausted", e.spent, len(e.partial)
    return "done", b.total - b.left, [g.terms for g in G]


@given(engine_input())
def test_pair_heap_matches_min_scan(case):
    """The heap treats the pairs in the order of the min-over-pending scan:
    same basis in the same order, same units spent, same budget verdicts."""
    ring, gens = case
    order = TopOrder(ring)
    done = _pair_loop_outcome(run_buchberger, gens, order, DEFAULT_BUDGET)
    assert done == _pair_loop_outcome(buchberger_by_min, gens, order, DEFAULT_BUDGET)
    spent = done[1]
    for units in range(1, spent + 1, max(1, spent // 16)):
        assert (_pair_loop_outcome(run_buchberger, gens, order, units)
                == _pair_loop_outcome(buchberger_by_min, gens, order, units))


def test_leading_term_cached_per_order():
    lex = RingContext(("x", "y"), order="lex")
    drl = RingContext(("x", "y"), order="degrevlex")
    want = {lex: ((0, (2, 0)), 1), drl: ((0, (1, 3)), 2)}
    for first, second in ((lex, drl), (drl, lex)):
        v = VecPoly(lex, 1, {(0, (2, 0)): 1, (0, (1, 3)): 2})
        assert TopOrder(first).leading(v) == want[first]
        assert TopOrder(second).leading(v) == want[second]
        assert TopOrder(first).leading(v) == want[first]
    # y^2 e_0 + x e_1 in the graph module of the column x: TopOrder leads
    # the bigger monomial x e_1, the graph order the image part y^2 e_0
    graph = _GraphOrder(lex, [VecPoly(lex, 1, {(0, (1, 0)): 1})])
    top, image, tail = TopOrder(lex), ((0, (0, 2)), 1), ((1, (1, 0)), 1)
    for orders in ((top, graph), (graph, top)):
        w = VecPoly(lex, 2, {(0, (0, 2)): 1, (1, (1, 0)): 1})
        for order in orders + orders:
            assert order.leading(w) == (image if order is graph else tail)


@given(engine_input(), st.sampled_from((0, 1, -3, Fraction(2, 7))))
def test_scale_carries_the_cached_lead(case, c):
    """A nonzero scale keeps the leading monomial, so the cached lead of
    the order that led the vector carries over, times c; 0 gives zero."""
    ring, gens = case
    order = TopOrder(ring)
    for v in gens:
        order.leading(v)
        w = v.scale(c)
        assert w.terms == {k: c * x for k, x in v.terms.items() if c}
        if c:
            m = max(w.terms, key=order.key)
            assert w._lead == (order.lead_tag, (m, w.terms[m]))
        else:
            assert w.is_zero() and w._lead is None


def test_vecpoly_rejects_malformed_exponents():
    with pytest.raises(StructuralError):
        VecPoly(R2, 1, {(0, (1,)): 1, (0, (0, -2)): 3})
    for bad in ({(0, (1,)): 1}, {(0, (1, 0, 0)): 1}, {(0, (0, -2)): 3}, {(0, (0, -1)): 0},
                {(0, (1.0, 0)): 1}):
        with pytest.raises(StructuralError):
            VecPoly(R2, 1, bad)
    assert VecPoly(R2, 1, {(0, (0, 2)): 3}).terms == {(0, (0, 2)): 3}


# ---------------------------------------------------------------- oracle spot check

def test_macaulay_oracle_agrees_spot():
    rng = random.Random(7)
    agreements = 0
    for _ in range(25):
        n = rng.choice((2, 3))
        ring = R2 if n == 2 else R3
        gens = []
        for _g in range(rng.randint(1, 3)):
            p = Polynomial.zero(ring)
            for _t in range(rng.randint(1, 3)):
                e = tuple(rng.randint(0, 2) for _ in range(n))
                p = p + Polynomial.monomial(ring, e, rng.choice((-2, -1, 1, 2)))
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        I = Ideal(ring, tuple(gens))
        # members by construction and random probes agree with the oracle
        probe = gens[0] * Polynomial.variable(ring, 0)
        assert macaulay_member(probe, gens) == ideal_member(probe, I)
        q = Polynomial.monomial(ring, tuple(rng.randint(0, 2) for _ in range(n)),
                                rng.choice((1, 2)))
        assert macaulay_member(q, gens, degree=6) == ideal_member(q, I)
        agreements += 1
    assert agreements >= 20
