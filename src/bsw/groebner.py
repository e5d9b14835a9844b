"""Ideals and Groebner bases over Q[x_1..x_n].

An ideal is the one-component case of the module engine in modgb.py:
generators are lifted into O^1 under TopOrder(ring) and run through the
same Buchberger pair loop, division and autoreduce routines.  With one
component the engine applies the product criterion as well as the chain
criterion; selection is the normal strategy; no F4/F5.  Bases, normal
forms and membership tests draw on the modgb.Budget passed in (an int or
None makes a fresh one), and running out raises BudgetExceededError.  A
monomial ideal skips the engine: its reduced basis is its minimalized
generators, made monic, and costs no units.

Krull dimension comes from the leading-term ideal of a reduced basis via
maximal independent variable subsets (monomial_dimension, which also bounds
codims from any set of leading monomials); intersection is read off the
syzygies of the two generator lists (modgb.syzygy_columns).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import StructuralError, ValidationError
from .modgb import (DEFAULT_BUDGET, Budget, TopOrder, VecPoly, autoreduce, divide,
                    run_buchberger, syzygy_columns)
from .poly import Polynomial, RingContext, minimalize_antichain, power_combinations


class GroebnerBasis:
    """Reduced Groebner basis: monic, auto-reduced, sorted by leading term."""

    __slots__ = ("elements", "ring")

    def __init__(self, elements, ring: RingContext):
        self.elements = tuple(elements)
        self.ring = ring

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def is_unit(self) -> bool:
        return len(self.elements) == 1 and self.elements[0].constant_value() == 1


class Ideal:
    """Finitely generated ideal; caches its reduced basis once computed."""

    __slots__ = ("ring", "generators", "_gb")

    def __init__(self, ring: RingContext, generators):
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial):
                raise StructuralError("ideal generators must be Polynomials")
            if g.ring != ring:
                raise StructuralError("generator ring mismatch")
            if not g.is_zero():
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._gb: GroebnerBasis | None = None

    def groebner(self, budget: Budget | int | None = None) -> GroebnerBasis:
        if self._gb is None:
            self._gb = groebner_basis(self, budget=budget)
        return self._gb

    def __str__(self):
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


def _lift(p: Polynomial) -> VecPoly:
    return VecPoly.from_column(p.ring, [p])


def _drop(v: VecPoly) -> Polynomial:
    return v.component(0)


def normal_form(p: Polynomial, basis, budget: Budget | int | None = None) -> Polynomial:
    """Normal form of p against a Groebner basis (unique remainder)."""
    reducers = [_lift(g) for g in _as_reducers(p, basis)]
    return _drop(divide(_lift(p), reducers, TopOrder(p.ring), Budget.of(budget)))


def _as_reducers(p: Polynomial, basis) -> list[Polynomial]:
    """The basis as a list; a GroebnerBasis's ring (which fixes the order)
    must match p's even when it has no elements."""
    reducers = list(basis)
    owners = reducers + [basis] if isinstance(basis, GroebnerBasis) else reducers
    if any(x.ring != p.ring for x in owners):
        raise StructuralError("basis ring does not match polynomial ring")
    return reducers


def buchberger(gens: list[Polynomial], ring: RingContext, budget: Budget) -> list[VecPoly]:
    """Pair loop on gens lifted into O^1; returns a non-reduced basis in O^1 containing them."""
    return run_buchberger([_lift(g) for g in gens], TopOrder(ring), budget)


def groebner_basis(I: Ideal, budget: Budget | int | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of I in its ring's order, charged to Budget.of(budget).

    Monomial generators are already a Groebner basis (the S-polynomial of
    two monomials is zero), so a monomial ideal's reduced basis is read off
    them, spending no units: the divisibility-minimal exponents, monic,
    ascending in the ring order as autoreduce sorts (TopOrder's key on O^1).
    """
    ring = I.ring
    if not I.generators:
        return GroebnerBasis((), ring)
    if all(len(g._terms) == 1 for g in I.generators):
        exps = minimalize_antichain(next(iter(g._terms)) for g in I.generators)
        one = Fraction(1)
        return GroebnerBasis((Polynomial._of(ring, {e: one})
                              for e in sorted(exps, key=ring.order_key)), ring)
    b = Budget.of(budget)
    reduced = autoreduce(buchberger(list(I.generators), ring, b), TopOrder(ring), b)
    return GroebnerBasis((_drop(v) for v in reduced), ring)


def ideal_member(p: Polynomial, I: Ideal, budget: Budget | int | None = None,
                 certificate: bool = False):
    """Membership via zero normal form against the reduced basis.

    With certificate=True returns (bool, cofactors) where the cofactors
    are the division record h_i against the basis elements, so that
    p = sum h_i g_i exactly when the bool is True.
    """
    if p.ring != I.ring:
        raise StructuralError("polynomial and ideal rings differ")
    budget = Budget.of(budget)
    gb = I.groebner(budget=budget)
    qs: dict[int, dict] = {}
    r = divide(_lift(p), [_lift(g) for g in gb.elements], TopOrder(p.ring), budget, qs)
    member = r.is_zero()
    if certificate:
        cofactors = tuple(Polynomial(p.ring, qs.get(i, {})) for i in range(len(gb)))
        return member, (cofactors if member else None)
    return member


def ideal_combine(I: Ideal, J: Ideal, kind: str) -> Ideal:
    """sum | product | intersection of two ideals in the same ring."""
    if I.ring != J.ring:
        raise StructuralError("ideals live in different rings")
    ring = I.ring
    if kind == "sum":
        return Ideal(ring, I.generators + J.generators)
    if kind == "product":
        gens = [f * g for f in I.generators for g in J.generators]
        return Ideal(ring, gens)
    if kind == "intersection":
        return _intersect(I, J)
    raise ValidationError(f"unknown combine kind {kind!r}")


def _intersect(I: Ideal, J: Ideal) -> Ideal:
    """For each syzygy (u, v) of (f_1..f_m, g_1..g_k), sum u_i f_i = -sum v_j g_j
    lies in both ideals; over a generating set of syzygies these span I cap J."""
    ring = I.ring
    if not I.generators or not J.generators:
        return Ideal(ring, ())
    out = []
    for s in syzygy_columns([_lift(g) for g in I.generators + J.generators], ring):
        h = Polynomial.zero(ring)
        for i, f in enumerate(I.generators):
            h = h + s.component(i) * f
        out.append(h)
    return Ideal(ring, out)


def ideal_power(I: Ideal, ell: int) -> Ideal:
    """I^ell from products of generators; guarded against blowup."""
    one = Polynomial.constant(I.ring, 1)
    return Ideal(I.ring, [math.prod(combo, start=one)
                          for combo in power_combinations(I.generators, ell)])


def krull_dimension(I: Ideal, budget: Budget | int | None = None) -> int:
    """dim V(I) = dim V(in(I)), read off the leading terms of the reduced basis.

    Unit ideal -> -1 (empty variety); zero ideal in n vars -> n.
    """
    gb = I.groebner(budget=budget)
    return monomial_dimension((g.leading_term()[0] for g in gb.elements), I.ring.n)


def monomial_dimension(exps, n: int) -> int:
    """dim V(x^e : e in exps) in n variables: the largest variable subset
    that contains no exponent's support; -1 if some x^e is 1."""
    supports = {frozenset(i for i, k in enumerate(e) if k) for e in exps}
    if frozenset() in supports:
        return -1  # a unit leading term
    subsets = (S for size in range(n, -1, -1) for S in itertools.combinations(range(n), size))
    return next(len(S) for S in subsets if not any(sup.issubset(S) for sup in supports))
