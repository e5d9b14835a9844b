"""Independent oracles used to freeze expected values in the tests.

Nothing here touches the division or basis machinery under test: the
membership and Hilbert-function oracles are dense exact linear algebra on
a truncated monomial basis, and the closure oracles are brute-force
lattice searches.  The full-box scans share the facet test of
`bsw.closure` but visit every point of the box, so they are the
reference for its staircase walk.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from bsw.closure import np_member
from bsw.poly import Polynomial, RingContext


def monomials_up_to(n: int, degree: int):
    """All exponent tuples with total degree <= degree, fixed order."""
    out = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(n), total):
            e = [0] * n
            for j in combo:
                e[j] += 1
            out.append(tuple(e))
    return out


def _total_degree(p: Polynomial) -> int:
    return max(sum(e) for e in p.terms())


class _RowSpan:
    """Incremental row echelon form over Fraction."""

    def __init__(self, width: int):
        self.width = width
        self.pivots: dict[int, list[Fraction]] = {}

    def reduce(self, row: list[Fraction]) -> list[Fraction]:
        row = list(row)
        for j in sorted(self.pivots):
            if row[j]:
                piv = self.pivots[j]
                c = row[j]
                for k in range(j, self.width):
                    row[k] -= c * piv[k]
        return row

    def add(self, row) -> None:
        row = self.reduce(row)
        for j in range(self.width):
            if row[j]:
                inv = row[j]
                self.pivots[j] = [x / inv for x in row]
                return

    def contains(self, row) -> bool:
        return all(x == 0 for x in self.reduce(row))


def macaulay_member(p: Polynomial, gens, degree: int = 6) -> bool:
    """Is p in the span of {x^a * g : deg(x^a * g) <= degree}?

    The span is a subset of the ideal, so a positive answer certifies
    membership; a negative answer can in principle be a truncation
    artifact, which the agreement tests would surface.
    """
    ring = p.ring
    basis = monomials_up_to(ring.n, degree)
    index = {e: i for i, e in enumerate(basis)}

    def vector(q: Polynomial):
        row = [Fraction(0)] * len(basis)
        for e, c in q.terms().items():
            row[index[e]] = c
        return row

    span = _RowSpan(len(basis))
    for g in gens:
        if g.is_zero():
            continue
        room = degree - _total_degree(g)
        if room < 0:
            continue
        for e in monomials_up_to(ring.n, room):
            span.add(vector(g.mul_term(e, Fraction(1))))
    if p.is_zero():
        return True
    if _total_degree(p) > degree:
        raise ValueError("test polynomial exceeds the oracle degree")
    return span.contains(vector(p))


def hilbert_function(gens, degree: int) -> int:
    """dim_Q (S/I)_degree for homogeneous gens of I in the standard grading.

    I_degree is the span of {x^a * g : deg(x^a * g) = degree}; its rank is
    taken by exact row reduction, so no Groebner basis is involved.
    """
    ring = gens[0].ring
    basis = [e for e in monomials_up_to(ring.n, degree) if sum(e) == degree]
    index = {e: i for i, e in enumerate(basis)}
    span = _RowSpan(len(basis))
    for g in gens:
        room = degree - _total_degree(g)
        for e in monomials_up_to(ring.n, room):
            if sum(e) != room:
                continue
            row = [Fraction(0)] * len(basis)
            for m, c in g.mul_term(e, Fraction(1)).terms().items():
                row[index[m]] = c
            span.add(row)
    return len(basis) - len(span.pivots)


def np_member_bruteforce(v, exponents, k_max: int = 8) -> bool:
    """Newton-polyhedron membership by integer multiples: k*v dominates
    a sum of k generators for some k <= k_max."""
    n = len(v)
    for k in range(1, k_max + 1):
        target = tuple(k * x for x in v)
        for combo in itertools.combinations_with_replacement(exponents, k):
            s = tuple(sum(xs) for xs in zip(*combo))
            if all(s[j] <= target[j] for j in range(n)):
                return True
    return False


def _newton_box(exponents, scale: int):
    sides = [scale * max(g[j] for g in exponents) for j in range(len(exponents[0]))]
    return itertools.product(*(range(b + 1) for b in sides))


def staircase_fullbox(exponents, facets, scale: int) -> list:
    """Box points in scale * NP whose predecessor along the last
    coordinate is not in it, in lexicographic order."""
    return [v for v in _newton_box(exponents, scale) if np_member(v, facets, scale)
            and not (v[-1] and np_member(v[:-1] + (v[-1] - 1,), facets, scale))]


def newton_closure_fullbox(exponents, facets) -> tuple:
    """Minimal generators of the closure, by testing every lattice point
    of the box [0, max_g g_j] against the facets and keeping the minimal
    ones."""
    inside = [v for v in _newton_box(exponents, 1) if np_member(v, facets)]
    return tuple(sorted(v for v in inside
                        if not any(u != v and all(a <= b for a, b in zip(u, v))
                                   for u in inside)))


def containment_witness_fullbox(exponents, facets, scale: int, target_member):
    """First point of the box [0, scale * max_g g_j], in lexicographic
    order, that lies in scale * NP and outside the target, or None."""
    return next((v for v in _newton_box(exponents, scale)
                 if np_member(v, facets, scale) and not target_member(v)), None)
