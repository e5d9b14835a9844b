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
generator or the first counterexample.  One grid holds that point's last
coordinate for every line (the staircase), read off the facets by numpy
broadcasting each facet's gaps over the grid; the closure keeps the points
that a neighbour test on the grid finds minimal, and the containment check
compares the grid with the target's in one array comparison.  numpy is
imported inside functions, so importing this module does not load it.
"""

from __future__ import annotations

from math import gcd, prod

from .errors import ResourceCapError, StructuralError, ValidationError
from .poly import (Exponent, Polynomial, Record, format_monomial, minimalize_antichain,
                   power_combinations)

FM_ROW_CAP = 20_000
BOX_CAP = 2_000_000
BLOCK_EVALS = 1 << 14
EXACT_INT64 = 1 << 62


class MonomialIdeal(Record):
    """Antichain-minimalized set of exponent vectors."""

    _fields = ("nvars", "exponents")

    def __init__(self, nvars: int, exponents: tuple[Exponent, ...]):
        if nvars < 1:
            raise ValidationError("monomial ideal needs at least one variable")
        exps = []
        for e in exponents:
            e = tuple(e)
            if len(e) != nvars:
                raise StructuralError("exponent arity mismatch")
            if any((not isinstance(x, int)) or x < 0 for x in e):
                raise ValidationError("exponents must be nonnegative integers")
            exps.append(e)
        exponents = minimalize_antichain(exps)
        if not exponents:
            raise ValidationError("monomial ideal needs at least one generator")
        super().__init__(nvars, exponents)

    @classmethod
    def _of(cls, nvars: int, exponents: tuple[Exponent, ...]) -> "MonomialIdeal":
        """Unchecked: `exponents` is a nonempty sorted antichain of int tuples."""
        M = object.__new__(cls)
        Record.__init__(M, nvars, exponents)
        return M

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

    def power(self, ell: int) -> "MonomialIdeal":
        combos = power_combinations(self.exponents, ell)
        return MonomialIdeal(self.nvars, tuple(tuple(map(sum, zip(*c))) for c in combos))

    def strings(self, names: tuple[str, ...]) -> list[str]:
        return [format_monomial(e, names) or "1" for e in self.exponents]


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
        upper = [p for p in rows if p[k] > 0]
        lower = [q for q in rows if q[k] < 0]
        # the step forms every row before merging equal ones, so its count
        # is known, and refused, before any is built
        if len(new_rows) + len(upper) * len(lower) > FM_ROW_CAP:
            raise ResourceCapError("Newton projection exceeded the row cap")
        new_rows += [_primitive(tuple(-q[k] * x + p[k] * y for x, y in zip(p, q)))
                     for p in upper for q in lower]
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


def _box_sides(M: MonomialIdeal, scale: int) -> list[int]:
    """The sides scale * max_g g_j of the box that bounds the closure's
    minimal generators; at most BOX_CAP points."""
    sides = [scale * max(g[j] for g in M.exponents) for j in range(M.nvars)]
    points = prod(b + 1 for b in sides)
    if points > BOX_CAP:
        raise ResourceCapError(f"Newton box scan needs {points} lattice points (cap {BOX_CAP})")
    return sides


def _staircase_grid(M: MonomialIdeal, scale: int, sides: list[int]):
    """The int64 grid t over the line prefixes p of the box with these
    sides, with a trailing axis of length 1: t[p] is the least last
    coordinate of scale * NP(M) on the line over p, or sides[-1] + 1 if the
    line misses NP inside the box.

    Every facet has c >= 0, so on the line over `prefix` a facet with
    gap = scale * r - c' . prefix > 0 asks for t >= ceil(gap / c_n), and
    excludes the whole line if c_n = 0; the least t is the largest ask, and
    a facet with gap <= 0 asks for a t <= 0, so it needs no mask.  A facet's
    gaps are scale * r less its c_j * arange(sides[j] + 1) broadcast over
    the grid, for a chunk of max(1, BLOCK_EVALS // grid size) facets at a
    time, so no array of gaps holds more than max(grid size, BLOCK_EVALS)
    entries.  They are int64 when no entry or partial sum can reach
    EXACT_INT64 and Python ints (dtype object) otherwise, so the grid is
    exact either way."""
    import numpy as np
    facets = newton_facets(M)
    bound = max(scale * abs(r) + sum(cj * max(b, 1) for cj, b in zip(c, sides))
                for c, r in facets)
    dtype = np.int64 if bound < EXACT_INT64 else object
    # a prefix row ends in a 0 for t, so 1-variable ideals need no case
    shape = tuple(b + 1 for b in sides[:-1]) + (1,)
    step = max(1, BLOCK_EVALS // prod(shape))
    ndim = len(shape)
    column = (-1,) + (1,) * ndim  # one facet per row of a chunk
    axes = [np.arange(b + 1).astype(dtype).reshape([-1 if i == j else 1 for i in range(ndim)])
            for j, b in enumerate(sides[:-1])]

    def minus_gaps(group):
        """-gap over the grid and c_n, for each chunk of the facets in group."""
        C = np.array([c for c, _ in group], dtype=dtype).reshape(-1, len(sides))
        rhs = np.array([-scale * r for _, r in group], dtype=dtype)
        for start in range(0, len(group), step):
            chunk = C[start:start + step]
            neg = rhs[start:start + step].reshape(column)
            for j, axis in enumerate(axes):
                neg = neg + chunk[:, j].reshape(column) * axis
            yield neg, chunk[:, -1].reshape(column)

    least = np.zeros(shape, dtype=dtype)
    for neg, cn in minus_gaps([f for f in facets if f[0][-1] > 0]):
        # ceil(gap / c_n) = -(-gap // c_n)
        np.maximum(least, -np.floor_divide(neg, cn, out=neg).min(axis=0), out=least)
    miss = least > sides[-1]
    for neg, _ in minus_gaps([f for f in facets if f[0][-1] == 0]):
        miss |= (neg < 0).any(axis=0)
    return np.where(miss, sides[-1] + 1, least).astype(np.int64)


def _grid_points(t, mask) -> list[Exponent]:
    """The points prefix + (t[prefix],) where mask holds, prefixes in
    lexicographic order, as int tuples."""
    *prefix, _ = mask.nonzero()
    return list(zip(*(p.tolist() for p in prefix), t[mask].tolist()))


def newton_closure(M: MonomialIdeal) -> MonomialIdeal:
    """Integral closure: minimal generators of the lattice points of NP(M).

    NP is upward closed, so t is non-increasing along each prefix axis, and
    a divisor (q, t[q]) of (p, t[p]) with q != p gives an i with
    q <= p - e_i and t[p - e_i] <= t[q] <= t[p]: (p, t[p]) is minimal
    exactly when t[p] < t[p - e_i] for every i with p_i > 0."""
    sides = _box_sides(M, 1)
    t = _staircase_grid(M, 1, sides)
    keep = t <= sides[-1]
    for axis in range(M.nvars - 1):
        here = (slice(None),) * axis + (slice(1, None),)
        before = (slice(None),) * axis + (slice(-1),)
        keep[here] &= t[here] < t[before]
    return MonomialIdeal._of(M.nvars, tuple(_grid_points(t, keep)))


def closure_containment_witness(M: MonomialIdeal, e: int, target: MonomialIdeal
                                ) -> Exponent | None:
    """First lattice point of NP(M^e) outside `target`, or None.

    A containment failure is always witnessed by a minimal generator of the
    closure of M^e, a point of the staircase grid.  On the line over
    `prefix` the target starts at the least g_n over its generators g with
    g' <= prefix: each g_n is put in its prefix cell, and a running minimum
    along every prefix axis spreads it upwards."""
    import numpy as np
    if target.nvars != M.nvars:
        raise StructuralError("monomial ideals in different variable counts")
    sides = _box_sides(M, e)
    t = _staircase_grid(M, e, sides)
    least = np.full(t.shape, sides[-1] + 1, dtype=np.int64)
    cells = [(*g[:-1], 0, min(g[-1], sides[-1] + 1)) for g in target.exponents
             if all(a <= b for a, b in zip(g[:-1], sides))]
    if cells:
        cells = np.array(cells, dtype=np.int64)
        np.minimum.at(least, tuple(cells[:, :-1].T), cells[:, -1])
    for axis in range(M.nvars - 1):
        np.minimum.accumulate(least, axis=axis, out=least)
    return next(iter(_grid_points(t, t < least)), None)


def bs_exponent(M: MonomialIdeal, ell: int, d: int | None = None) -> tuple[int, int]:
    """(d, e) for the classical containment closure(M^e) inside M^ell:
    e = min(m, d) + ell - 1, m the minimal generator count and d
    defaulting to the ambient variable count."""
    if ell < 1:
        raise ValidationError("ell must be at least 1")
    if d is None:
        d = M.nvars
    if d < 1:
        raise ValidationError("d must be at least 1")
    return d, min(len(M.exponents), d) + ell - 1


def bs_verify_monomial(M: MonomialIdeal, ell: int, d: int | None = None
                       ) -> tuple[bool, Exponent | None]:
    """Classical containment check: closure(M^e) inside M^ell, e from
    bs_exponent.  Returns (holds, counterexample_exponent_or_None).
    M^ell's product count and the box for e are capped before M^ell is built."""
    e = bs_exponent(M, ell, d)[1]
    if ell > 1:
        power_combinations(M.exponents, ell)
    _box_sides(M, e)
    target = M.power(ell) if ell > 1 else M
    witness = closure_containment_witness(M, e, target)
    return (witness is None, witness)
