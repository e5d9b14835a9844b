"""Differential check of the Groebner engine against sympy.groebner.

Reduced Groebner bases are unique, so the engine's basis must equal
sympy's exactly, element for element, under the same monomial order.
sympy is optional: the module is skipped when it is not installed.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from bsw.errors import BudgetExceededError
from bsw.groebner import Ideal, groebner_basis
from bsw.modgb import TopOrder, VecPoly, module_groebner
from bsw.poly import Polynomial, RingContext

# bsw order tag -> sympy order name; both take x > y > z
ORDERS = {"degrevlex": "grevlex", "lex": "lex"}
N_IDEALS = 40


def random_ideal(rng, ring):
    gens = []
    for _ in range(rng.randint(2, 3)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 2) for _ in range(ring.n))
            terms[e] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
        p = Polynomial(ring, terms)
        if not p.is_zero():
            gens.append(p)
    if not gens:
        gens.append(Polynomial.variable(ring, 0))
    return gens


def as_term_set(terms):
    return frozenset((tuple(e), Fraction(c)) for e, c in terms)


def sympy_basis(gens, order):
    x, y, z = sympy.symbols("x y z")
    exprs = [sum(int(c.numerator) * sympy.Rational(1, int(c.denominator))
                 * x ** e[0] * y ** e[1] * z ** e[2] for e, c in g.terms().items())
             for g in gens]
    G = sympy.groebner(exprs, x, y, z, order=order, domain="QQ")
    out = set()
    for p in G.polys:
        out.add(as_term_set((e, Fraction(int(c.p), int(c.q)))
                            for e, c in p.as_dict().items()))
    return out


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_reduced_bases_match_sympy(order):
    ring = RingContext(("x", "y", "z"), order=order)
    rng = random.Random(20080623)
    for _ in range(N_IDEALS):
        gens = random_ideal(rng, ring)
        ours = {as_term_set(g.terms().items())
                for g in groebner_basis(Ideal(ring, gens)).elements}
        assert ours == sympy_basis(gens, ORDERS[order]), [str(g) for g in gens]


def test_module_budget_carries_partial_and_spent():
    ring = RingContext(("x", "y", "z"))
    x, y, z = (Polynomial.variable(ring, i) for i in range(3))
    gens = [VecPoly.from_column(ring, col)
            for col in ([x * x, y], [x * y, z], [y * y, x])]
    with pytest.raises(BudgetExceededError) as info:
        module_groebner(gens, TopOrder(ring), budget_units=2)
    exc = info.value
    assert str(exc) == "Groebner budget of 2 work units exhausted"
    assert exc.spent == 3
    assert isinstance(exc.partial, tuple) and len(exc.partial) >= len(gens)
    assert all(isinstance(v, VecPoly) for v in exc.partial)
