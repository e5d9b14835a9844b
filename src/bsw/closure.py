"""Integral closure of monomial ideals via Newton polyhedra, exactly.

A monomial ideal is an antichain of exponent vectors.  Its closure is
generated by the lattice points of NP(M) = conv(generators) + R>=0^n.
Membership in NP is decided exactly: the convex-combination system
{lambda >= 0, sum lambda = 1, sum lambda_i a_i <= v} is projected onto
the v variables once per ideal by Fourier-Motzkin elimination over
integer rows, each divided by the gcd of its entries, yielding integer
facet inequalities with nonnegative coefficients; lattice membership
afterwards is integer dot products only.

Two facts keep everything finite and fast (see also the repo notes):
NP(M^e) = e * NP(M), so powers reuse M's facets with scaled right-hand
sides; and every minimal generator of the closure of M^e is bounded
componentwise by the coordinatewise max of M^e's generators, so minimal
generators and containment counterexamples live in a finite box.

NP(M) and monomial ideals are upward closed, so on each line of that box
along the last coordinate only the first point of NP(M) can be a minimal
generator or the first counterexample: one walk over those points (the
staircase), each read off the facets, serves both the closure and the
containment check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, gcd, prod

from .errors import ResourceCapError, StructuralError, ValidationError
from .poly import Exponent, Polynomial, exp_divides

FM_ROW_CAP = 20_000
BOX_CAP = 2_000_000
POWER_CAP = 200_000


@dataclass(frozen=True)
class MonomialIdeal:
    """Antichain-minimalized set of exponent vectors."""

    nvars: int
    exponents: tuple[Exponent, ...]

    def __post_init__(self):
        if self.nvars < 1:
            raise ValidationError("monomial ideal needs at least one variable")
        exps = []
        for e in self.exponents:
            e = tuple(e)
            if len(e) != self.nvars:
                raise StructuralError("exponent arity mismatch")
            if any((not isinstance(x, int)) or x < 0 for x in e):
                raise ValidationError("exponents must be nonnegative integers")
            exps.append(e)
        object.__setattr__(self, "exponents", minimalize_antichain(exps))
        if not self.exponents:
            raise ValidationError("monomial ideal needs at least one generator")

    @classmethod
    def from_polynomials(cls, polys: list[Polynomial]) -> "MonomialIdeal":
        if not polys:
            raise ValidationError("monomial ideal needs at least one generator")
        exps = []
        for p in polys:
            t = p.terms()
            if len(t) != 1:
                raise ValidationError(f"{p} is not a monomial")
            exps.append(next(iter(t)))
        return cls(polys[0].ring.n, tuple(exps))

    def member(self, v: Exponent) -> bool:
        """x^v in M iff some generator divides it."""
        return any(exp_divides(g, v) for g in self.exponents)

    def power(self, ell: int, cap: int = POWER_CAP) -> "MonomialIdeal":
        if ell < 1:
            raise ValidationError("power wants ell >= 1")
        count = comb(len(self.exponents) + ell - 1, ell)
        if count > cap:
            raise ResourceCapError(f"monomial power needs {count} sums (cap {cap})")
        sums = set()
        for combo in itertools.combinations_with_replacement(self.exponents, ell):
            sums.add(tuple(sum(xs) for xs in zip(*combo)))
        return MonomialIdeal(self.nvars, tuple(sorted(sums)))

    def strings(self, names: tuple[str, ...]) -> list[str]:
        out = []
        for e in self.exponents:
            parts = [f"{nm}^{k}" if k > 1 else nm for nm, k in zip(names, e) if k > 0]
            out.append("*".join(parts) if parts else "1")
        return out


def minimalize_antichain(exps) -> tuple[Exponent, ...]:
    """Drop exponents componentwise-dominated by another; sorted, deduped."""
    uniq = sorted(set(tuple(e) for e in exps), key=lambda e: (sum(e), e))
    kept: list[Exponent] = []
    for v in uniq:
        if not any(exp_divides(u, v) for u in kept):
            kept.append(v)
    return tuple(sorted(kept))


# -- Fourier-Motzkin projection of the Newton polyhedron ---------------

def _primitive(row: tuple[int, ...]) -> tuple[int, ...]:
    """row divided by the gcd of its entries (unchanged if all zero)."""
    g = gcd(*row)
    return tuple(x // g for x in row) if g > 1 else row


def newton_facets(M: MonomialIdeal) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Integer inequalities (c, r) with NP(M) = {v : c . v >= r for all},
    every c >= 0.

    Derived by eliminating the convex-combination multipliers; the list
    may contain redundant facets but is exact and deterministic.
    """
    gens, n = M.exponents, M.nvars
    m, last = len(gens), gens[-1]
    # rows (lam_1..lam_{m-1}, c0, d_1..d_n), meaning
    # sum_k lam_k lambda_k <= c0 + sum_j d_j v_j, kept primitive so that
    # rows equal up to a positive scale are equal tuples; at the start
    # lambda_i >= 0, lambda_m = 1 - sum_i lambda_i >= 0 and sum_i lambda_i g_i <= v
    rows =[tuple(-(k == i) for k in range(m - 1)) + (0,) * (n + 1) for i in range(m - 1)]
    rows.append((1,) * m + (0,) * n)
    rows += [tuple(g[j] - last[j] for g in gens[:-1]) + (-last[j],)
             + tuple(int(jj == j) for jj in range(n)) for j in range(n)]
    for k in range(m - 1):
        new_rows = [p for p in rows if p[k] == 0]
        new_rows += [_primitive(tuple(-q[k] * x + p[k] * y for x, y in zip(p, q)))
                     for p in rows if p[k] > 0 for q in rows if q[k] < 0]
        if len(new_rows) > FM_ROW_CAP:
            raise ResourceCapError("Newton projection exceeded the row cap")
        rows = list(dict.fromkeys(r for r in new_rows if any(r)))
    facets = set()
    for row in rows:
        c0, d = row[m - 1], row[m:]
        if any(row[:m - 1]):
            raise StructuralError("Newton projection left a variable uneliminated")
        if any(x < 0 for x in d):
            raise StructuralError("Newton facet has a negative coefficient")
        # 0 <= c0 + d . v  ->  d . v >= -c0; the row is primitive already
        if any(d):
            facets.add((d, -c0))
        elif c0 < 0:
            raise StructuralError("Newton system unexpectedly infeasible")
    return tuple(sorted(facets))


def np_member(v: Exponent, facets, scale: int = 1) -> bool:
    """v in scale * NP(M), given M's facets."""
    for c, r in facets:
        if sum(ci * vi for ci, vi in zip(c, v)) < scale * r:
            return False
    return True


def _staircase(M: MonomialIdeal, scale: int = 1):
    """The least point of scale * NP(M) on each line, along the last
    coordinate, of the box [0, scale * max_g g_j] (at most BOX_CAP points),
    prefixes in lexicographic order.

    Every facet has c >= 0, so on the line over `prefix` a facet with
    gap = scale * r - c' . prefix > 0 asks for t >= ceil(gap / c_n), and
    excludes the whole line if c_n = 0; the least t is the largest ask.
    """
    sides = [scale * max(g[j] for g in M.exponents) for j in range(M.nvars)]
    points = prod(b + 1 for b in sides)
    if points > BOX_CAP:
        raise ResourceCapError(f"Newton box scan needs {points} lattice points (cap {BOX_CAP})")
    facets = newton_facets(M)
    for prefix in itertools.product(*(range(b + 1) for b in sides[:-1])):
        t = 0
        for c, r in facets:
            gap = scale * r - sum(ci * vi for ci, vi in zip(c, prefix))
            if gap > 0:
                if not c[-1]:
                    break
                t = max(t, -(-gap // c[-1]))
        else:
            if t <= sides[-1]:
                yield prefix + (t,)


def newton_closure(M: MonomialIdeal) -> MonomialIdeal:
    """Integral closure: minimal generators of the lattice points of NP(M)."""
    return MonomialIdeal(M.nvars, tuple(_staircase(M)))


def closure_containment_witness(M: MonomialIdeal, e: int, target: MonomialIdeal
                                ) -> Exponent | None:
    """First lattice point of NP(M^e) outside `target`, or None.

    A containment failure is always witnessed by a minimal generator of the
    closure of M^e, and the staircase walk passes all of them in order.
    """
    if target.nvars != M.nvars:
        raise StructuralError("monomial ideals in different variable counts")
    return next((v for v in _staircase(M, e) if not target.member(v)), None)


def bs_verify_monomial(M: MonomialIdeal, ell: int, d: int | None = None
                       ) -> tuple[bool, Exponent | None]:
    """Classical containment check: closure(M^(min(m,d)+ell-1)) inside M^ell.

    d defaults to the ambient variable count; m is the minimal generator
    count.  Returns (holds, counterexample_exponent_or_None).
    """
    if ell < 1:
        raise ValidationError("ell must be at least 1")
    if d is None:
        d = M.nvars
    if d < 1:
        raise ValidationError("d must be at least 1")
    m = len(M.exponents)
    e = min(m, d) + ell - 1
    target = M.power(ell) if ell > 1 else M
    witness = closure_containment_witness(M, e, target)
    return (witness is None, witness)
