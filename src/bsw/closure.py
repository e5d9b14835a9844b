"""Integral closure of monomial ideals via Newton polyhedra, exactly.

A monomial ideal is an antichain of exponent vectors.  Its closure is
generated by the lattice points of NP(M) = conv(generators) + R>=0^n.
Membership in NP is decided exactly: the convex-combination system
{lambda >= 0, sum lambda = 1, sum lambda_i a_i <= v} is projected onto
the v variables once per ideal by Fourier-Motzkin elimination over Q,
yielding integer facet inequalities; lattice membership afterwards is
integer dot products only.

Two facts keep everything finite and fast (see also the repo notes):
NP(M^e) = e * NP(M), so powers reuse M's facets with scaled right-hand
sides; and every minimal generator of the closure of M^e is bounded
componentwise by the coordinatewise max of M^e's generators, so minimal
generators and containment counterexamples live in a finite box.

NP(M) and monomial ideals are upward closed, so on each line of that box
along the last coordinate only the first point of NP(M) can be a minimal
generator or the first counterexample: one walk over those points (the
staircase) serves both the closure and the containment check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
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

def newton_facets(M: MonomialIdeal) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Integer inequalities (c, r) with NP(M) = {v : c . v >= r for all}.

    Derived by eliminating the convex-combination multipliers; the list
    may contain redundant facets but is exact and deterministic.
    """
    gens = M.exponents
    m = len(gens)
    n = M.nvars
    # rows: (lam_coeffs on lambda_1..lambda_{m-1}, c0, v_coeffs)
    # meaning  sum lam_k coeff_k <= c0 + sum d_j v_j
    rows: list[tuple[tuple[Fraction, ...], Fraction, tuple[Fraction, ...]]] = []
    zero_v = tuple(Fraction(0) for _ in range(n))
    for i in range(m - 1):
        lam = tuple(Fraction(-1) if k == i else Fraction(0) for k in range(m - 1))
        rows.append((lam, Fraction(0), zero_v))
    rows.append((tuple(Fraction(1) for _ in range(m - 1)), Fraction(1), zero_v))
    last = gens[m - 1]
    for j in range(n):
        lam = tuple(Fraction(gens[i][j] - last[j]) for i in range(m - 1))
        d = tuple(Fraction(1) if jj == j else Fraction(0) for jj in range(n))
        rows.append((lam, Fraction(-last[j]), d))

    for k in range(m - 1):
        pos, neg, zero = [], [], []
        for lam, c0, d in rows:
            if lam[k] > 0:
                pos.append((lam, c0, d))
            elif lam[k] < 0:
                neg.append((lam, c0, d))
            else:
                zero.append((lam, c0, d))
        new_rows = list(zero)
        for (lp, cp, dp) in pos:
            for (ln, cn, dn) in neg:
                a, b = -ln[k], lp[k]  # both positive
                lam = tuple(a * x + b * y for x, y in zip(lp, ln))
                c0 = a * cp + b * cn
                d = tuple(a * x + b * y for x, y in zip(dp, dn))
                new_rows.append((lam, c0, d))
        if len(new_rows) > FM_ROW_CAP:
            raise ResourceCapError("Newton projection exceeded the row cap")
        rows = _dedupe_rows(new_rows)

    facets = []
    seen = set()
    for lam, c0, d in rows:
        if any(x != 0 for x in lam):
            raise StructuralError("Newton projection left a variable uneliminated")
        # 0 <= c0 + d . v  ->  (-d) . v <= c0  ->  d . v >= -c0
        if all(x == 0 for x in d):
            if c0 < 0:
                raise StructuralError("Newton system unexpectedly infeasible")
            continue
        denom_lcm = 1
        for x in (*d, c0):
            denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
        c = tuple(int(x * denom_lcm) for x in d)
        r = int(-c0 * denom_lcm)
        g = 0
        for x in (*c, r):
            g = gcd(g, abs(x))
        if g > 1:
            c = tuple(x // g for x in c)
            r = r // g
        if (c, r) not in seen:
            seen.add((c, r))
            facets.append((c, r))
    facets.sort()
    return tuple(facets)


def _dedupe_rows(rows):
    seen = set()
    out = []
    for lam, c0, d in rows:
        scale = None
        for x in (*lam, c0, *d):
            if x != 0:
                scale = abs(x)
                break
        if scale is None:
            continue  # 0 <= 0
        key = (tuple(x / scale for x in lam), c0 / scale, tuple(x / scale for x in d))
        if key in seen:
            continue
        seen.add(key)
        out.append((lam, c0, d))
    return out


def np_member(v: Exponent, facets, scale: int = 1) -> bool:
    """v in scale * NP(M), given M's facets."""
    for c, r in facets:
        if sum(ci * vi for ci, vi in zip(c, v)) < scale * r:
            return False
    return True


def _staircase(M: MonomialIdeal, scale: int = 1):
    """The least point of scale * NP(M) on each line, along the last
    coordinate, of the box [0, scale * max_g g_j] (at most BOX_CAP points),
    prefixes in lexicographic order."""
    sides = [scale * max(g[j] for g in M.exponents) for j in range(M.nvars)]
    points = prod(b + 1 for b in sides)
    if points > BOX_CAP:
        raise ResourceCapError(f"Newton box scan needs {points} lattice points (cap {BOX_CAP})")
    facets = newton_facets(M)
    for prefix in itertools.product(*(range(b + 1) for b in sides[:-1])):
        for t in range(sides[-1] + 1):
            v = prefix + (t,)
            if np_member(v, facets, scale):
                yield v
                break


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
