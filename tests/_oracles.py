"""Independent oracles used to freeze expected values in the tests.

The membership and Hilbert-function oracles are dense exact linear
algebra on a truncated monomial basis, and the closure oracles are
brute-force lattice searches; none of them touches the division or basis
machinery under test.  `newton_facets_fraction` eliminates over
`Fraction` rows and scales back to integers only at the end, so it is
the reference for the integer elimination of `bsw.closure`.  The
full-box scans test every point of the box against the facets with
`np_member`, so they are the reference for its staircase grid.
`staircase_grid_blocked` is that grid computed by blocks of lines, each
block's prefixes unravelled from flat line indices and its facet gaps one
matrix product, the reference for the facet-broadcast grid.
`staircase_points` reads the grid's points (p, t[p]) on every line that
meets NP, and `newton_closure_minimalized` passes them through
`minimalize_antichain`, as `newton_closure` did before its neighbour test;
it is the reference for that test.  `buchberger_by_min` shares the
division routine of `bsw.modgb` but picks each pair by a minimum over
the pending set and leads vectors without the leading-term cache, so it
is the reference for the engine's pair heap.  `divide_by_max_scan` is the
division that finds each step's term by a max over the whole dividend,
the reference for the ordered term queue of `bsw.modgb.divide`.
`groebner_basis_buchberger`
is `groebner_basis` with every ideal sent through the pair loop, the
reference for its monomial shortcut.  `monomial_key` is the
order-tag if-chain that `RingContext.order_key` replaced, kept as the
reference for the per-ring key table.  The `*_genexpr` functions are the
generator-expression exponent kernels and weighted degree that
`bsw.poly` replaced with `map` over builtins, kept as the reference for
those; with `monomial_key` they are the reference for the order keys.
`sample_variety_scalar` and
`loja_exponent_estimate_scalar` are the loja sampler and estimator one
point at a time with CPython's complex arithmetic, the reference for the
block evaluation of `bsw.loja`; the sampler draws its angles from
`numpy.random.default_rng`, the reference for the package's own PCG64
stream.  `angles_stepwise` steps that stream's 128-bit state once per
angle in Python ints, the reference for its jump-ahead table.  `TableSemigroup` is the list-loop
membership table, `minimal_shifts_greedy` the greedy antichain
minimalization and `containment_holds_scan` the element-by-element
containment scan that the bit masks of `bsw.semigroup` replaced; with
`germ_bs_exponent_scan`, the search over N = 1, 2, ..., they are the
reference for its windows and its closed-form exponent.
`enumerate_ideals_scan` is the element-by-element ideal enumeration and
`huneke_mu_scan` that search for each of its ideals and each ell, the
reference for the mu search over powers built once per ideal.
`statements_two_pass` blanks the comments in one pass and splits the
statements in a second, and `statements_charwise` is the splitter that walked
the text one character at a time with its comment state, the two references
for the regex blanking, `str.find` cuts and line-start lookup of
`bsw.session`; `parse_flags_stepwise` reads a `--key`'s values one token at a
time, the reference for the slice of its flag reader.
`parse_ring_joined` and `germ_list_joined` read a `ring` declaration and
a germ declaration's number list as `bsw.session` did when it joined the
words of a list with no separator and read integers with `int()`; apart
from texts where a space alone separates two numbers, which it now refuses,
they are the reference for its one clause pass and its one number-list reader.
`parse_polynomial_isdigit` is the polynomial reader with a `skip_ws`,
`read_int` and `read_name` per token kind, `str.isdigit` digits and a sum
loop that tests its first term apart; on text without non-ASCII digits it
is the reference for the one `read` of `bsw.poly`.
`check_acyclicity_full` is the exactness certificate that also builds
every (rho_k+1)-minor, which `bsw.resolution` derives from the maps
composing to zero instead; `minimalize_rescan` is graded minimalization
that rescans from the first map and rechecks compositions at every pivot,
the reference for the one sweep per map of `minimalize`; `minors_leibniz`
takes each determinant as a sum over permutations, the reference for the
memoized cofactor expansion of `minors`, and `compose_by_sum` sums each
entry of a matrix product as Polynomials, the reference for the one term
dict per entry of `PolyMatrix.compose`; `rank_at` is the exact rank over Q of a
matrix evaluated at a rational point, by row echelon form.

The rest are helpers that only the tests need, written as functions of
the package's objects: term multiples and S-polynomials, monomial
comparison, the JSON round trip of a free complex, the syzygy matrix of a
matrix's columns, semigroup gaps, members and genus, the minimal shifts of a
germ ideal power, monomial-ideal membership, strata lookup, float
evaluation of a polynomial and the one-point evaluation of a converted
`_ComplexPoly`.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import reduce
from math import gcd

import numpy as np

from bsw.closure import (BLOCK_EVALS, EXACT_INT64, FM_ROW_CAP, MonomialIdeal, _box_sides,
                         _grid_points, _staircase_grid, newton_facets)
from bsw.errors import (EstimationError, ResourceCapError, SamplingError, StructuralError,
                        ValidationError)
from bsw.loja import (_MASK128, _PCG_MULT, RESIDUAL_THRESHOLD, RESIDUAL_TOLERANCE, SAMPLE_CAP,
                      UNDERFLOW_FLOOR, LojaEstimate, VarietySampler, _AngleStream, _Block,
                      _ComplexPoly)
from bsw.groebner import GroebnerBasis, Ideal, buchberger, krull_dimension
from bsw.modgb import Budget, TopOrder, VecPoly, autoreduce, divide, syzygy_columns
from bsw.poly import (RING_ORDERS, Polynomial, RingContext, exp_add, exp_divides, exp_lcm,
                      exp_sub, minimalize_antichain, parse_polynomial, power_combinations,
                      split_top_commas)
from bsw.resolution import (FreeComplex, PolyMatrix, StrataReport, StratumInfo, expected_ranks,
                            minors)
from bsw.semigroup import (NumericalSemigroup, SemigroupIdeal, _bits, _powers,
                           semigroup_ideal)
from bsw.session import SessionSyntaxError


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
            span.add(vector(mul_term(g, e, Fraction(1))))
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
            for m, c in mul_term(g, e, Fraction(1)).terms().items():
                row[index[m]] = c
            span.add(row)
    return len(basis) - len(span.pivots)


def np_member(v, facets, scale: int = 1) -> bool:
    """v in scale * NP(M), given M's facets."""
    for c, r in facets:
        if sum(ci * vi for ci, vi in zip(c, v)) < scale * r:
            return False
    return True


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


def newton_facets_fraction(exponents) -> tuple:
    """Facets (c, r) of NP by Fourier-Motzkin elimination over Q.

    Rows (lam, c0, d) mean lam . lambda <= c0 + d . v; after each step
    rows equal up to a positive scale are merged by dividing through by
    the first nonzero entry, and the surviving rows are scaled to
    primitive integer (c, r) = (d, -c0) only at the end.  Raises
    ResourceCapError where `bsw.closure.newton_facets` does.
    """
    m, n = len(exponents), len(exponents[0])
    last = exponents[-1]
    rows = [(tuple(Fraction(-(k == i)) for k in range(m - 1)), Fraction(0),
             (Fraction(0),) * n) for i in range(m - 1)]
    rows.append(((Fraction(1),) * (m - 1), Fraction(1), (Fraction(0),) * n))
    rows += [(tuple(Fraction(g[j] - last[j]) for g in exponents[:-1]), Fraction(-last[j]),
              tuple(Fraction(int(jj == j)) for jj in range(n))) for j in range(n)]
    for k in range(m - 1):
        new_rows = [row for row in rows if row[0][k] == 0]
        for lp, cp, dp in (row for row in rows if row[0][k] > 0):
            for ln, cn, dn in (row for row in rows if row[0][k] < 0):
                a, b = -ln[k], lp[k]
                new_rows.append((tuple(a * x + b * y for x, y in zip(lp, ln)), a * cp + b * cn,
                                 tuple(a * x + b * y for x, y in zip(dp, dn))))
        if len(new_rows) > FM_ROW_CAP:
            raise ResourceCapError("Newton projection exceeded the row cap")
        seen, rows = set(), []
        for lam, c0, d in new_rows:
            flat = (*lam, c0, *d)
            scale = next((abs(x) for x in flat if x != 0), None)
            if scale is None:
                continue  # 0 <= 0
            key = tuple(x / scale for x in flat)
            if key not in seen:
                seen.add(key)
                rows.append((lam, c0, d))
    facets = set()
    for lam, c0, d in rows:
        assert not any(lam), "variable left uneliminated"
        if not any(d):
            assert c0 >= 0, "Newton system infeasible"
            continue
        denom = 1
        for x in (*d, c0):
            denom = denom * x.denominator // gcd(denom, x.denominator)
        ints = [int(x * denom) for x in (*d, -c0)]
        g = gcd(*ints)
        facets.add((tuple(x // g for x in ints[:-1]), ints[-1] // g))
    return tuple(sorted(facets))


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


def staircase_points(M: MonomialIdeal, scale: int) -> list:
    """The least point of scale * NP(M) on each line, along the last
    coordinate, of the box [0, scale * max_g g_j] that meets NP, prefixes
    in lexicographic order, read off `bsw.closure`'s staircase grid."""
    sides = _box_sides(M, scale)
    t = _staircase_grid(M, scale, sides)
    return _grid_points(t, t <= sides[-1])


def staircase_grid_blocked(M: MonomialIdeal, scale: int, sides: list[int]):
    """`bsw.closure._staircase_grid` as blocks of lines: each block's line
    prefixes come from flat indices by `np.unravel_index`, and its facet
    gaps from one matrix product with the facets' coefficients, at most
    BLOCK_EVALS evaluations a block, int64 or dtype object as there."""
    facets = newton_facets(M)
    bound = max(scale * abs(r) + sum(cj * max(b, 1) for cj, b in zip(c, sides))
                for c, r in facets)
    dtype = np.int64 if bound < EXACT_INT64 else object
    C = np.array([c for c, _ in facets], dtype=dtype)
    rhs = np.array([scale * r for _, r in facets], dtype=dtype)
    asks = C[:, -1] > 0
    divisor = np.where(asks, C[:, -1], 1)
    shape = tuple(b + 1 for b in sides[:-1]) + (1,)
    t = np.empty(math.prod(shape), dtype=np.int64)
    step = max(1, BLOCK_EVALS // len(facets))
    for start in range(0, t.size, step):
        lines = np.arange(start, min(start + step, t.size))
        gap = rhs - np.stack(np.unravel_index(lines, shape), axis=1).astype(dtype) @ C.T
        short = gap > 0
        least = np.where(short & asks, -(-gap // divisor), 0).max(axis=1, initial=0)
        miss = (short & ~asks).any(axis=1) | (least > sides[-1])
        t[lines] = np.where(miss, sides[-1] + 1, least)
    return t.reshape(shape)


def newton_closure_minimalized(M: MonomialIdeal) -> tuple:
    """Minimal generators of the closure: every staircase point of the
    box, minimalized by divisibility."""
    return minimalize_antichain(staircase_points(M, 1))


def containment_witness_fullbox(exponents, facets, scale: int, target_member):
    """First point of the box [0, scale * max_g g_j], in lexicographic
    order, that lies in scale * NP and outside the target, or None."""
    return next((v for v in _newton_box(exponents, scale)
                 if np_member(v, facets, scale) and not target_member(v)), None)


def buchberger_by_min(gens, order, budget) -> list:
    """The Buchberger pair loop with the normal strategy done by a scan:
    each step takes min over the pending pairs of (lcm key, index pair).
    Same criteria, same budget charges and same divide as
    `bsw.modgb.run_buchberger`, so it returns the same list and spends
    the same units."""

    def lead(v):
        m = max(v.terms, key=order.key)
        return m, v.terms[m]

    G = [g.scale(1 / lead(g)[1]) for g in gens if not g.is_zero()]
    G.sort(key=lambda g: order.key(lead(g)[0]))
    lts = [lead(g)[0] for g in G]
    product = bool(G) and G[0].ncomp == 1
    pairs = {(i, j) for j in range(len(G)) for i in range(j) if lts[i][0] == lts[j][0]}

    def lcm_key(ij):
        (pos, ei), (_, ej) = lts[ij[0]], lts[ij[1]]
        return (order.key((pos, exp_lcm(ei, ej))), ij)

    while pairs:
        i, j = min(pairs, key=lcm_key)
        pairs.discard((i, j))
        budget.spend(G)
        (pos, ei), (_, ej) = lts[i], lts[j]
        lcm = exp_lcm(ei, ej)
        if product and lcm == exp_add(ei, ej):
            continue
        if any(k != i and k != j and kpos == pos and exp_divides(ke, lcm)
               and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k, (kpos, ke) in enumerate(lts)):
            continue
        s: dict = {}
        G[i].add_shifted_into(s, exp_sub(lcm, ei), 1)
        G[j].add_shifted_into(s, exp_sub(lcm, ej), -1)
        r = divide(VecPoly(G[i].ring, G[i].ncomp, s), G, order, budget)
        if not r.is_zero():
            lt, c = lead(r)
            t = len(G)
            G.append(r.scale(1 / c))
            lts.append(lt)
            pairs.update((k, t) for k in range(t) if lts[k][0] == lt[0])
    return G


def divide_by_max_scan(v: VecPoly, reducers: list[VecPoly], order: TopOrder,
                       budget: Budget, quotients: dict | None = None) -> VecPoly:
    """`bsw.modgb.divide` with each step's term found by max(h, key=order.key)
    over the whole dividend: same steps, same units, same remainder dict in
    the same insertion order, same quotients."""
    lts = [order.leading(g) for g in reducers]
    rem: dict = {}
    h = dict(v.terms)
    while h:
        pos, e = m = max(h, key=order.key)
        hit = -1
        for i, ((gpos, ge), _) in enumerate(lts):
            if gpos == pos and exp_divides(ge, e):
                hit = i
                break
        budget.spend(reducers)
        if hit < 0:
            rem[m] = h.pop(m)
        else:
            (_, ge), gc = lts[hit]
            shift, factor = exp_sub(e, ge), h[m] / gc
            if quotients is not None:
                quotients.setdefault(hit, {})[shift] = factor
            reducers[hit].add_shifted_into(h, shift, -factor)
    return VecPoly(v.ring, v.ncomp, rem)


def groebner_basis_buchberger(I: Ideal, budget: Budget | int | None = None) -> GroebnerBasis:
    """`bsw.groebner.groebner_basis` without its monomial shortcut: every
    ideal, monomial or not, goes through the pair loop and autoreduce."""
    ring = I.ring
    b = Budget.of(budget)
    if not I.generators:
        return GroebnerBasis((), ring)
    reduced = autoreduce(buchberger(list(I.generators), ring, b), TopOrder(ring), b)
    return GroebnerBasis((v.component(0) for v in reduced), ring)


# -- the old order-key if-chain and exponent kernels; test-only helpers ---

def monomial_key(e, ctx: RingContext):
    """Sort key realizing ctx.order; larger key = larger monomial."""
    if ctx.order == "lex":
        return tuple(e)
    if ctx.order == "degrevlex":
        return (sum(e), tuple(-x for x in reversed(e)))
    if ctx.order == "weighted-degrevlex":
        return (ctx.weighted_degree(e), tuple(-x for x in reversed(e)))
    raise StructuralError(f"order {ctx.order!r} not comparable here")


def exp_add_genexpr(a, b):
    return tuple(x + y for x, y in zip(a, b))


def exp_sub_genexpr(a, b):
    return tuple(x - y for x, y in zip(a, b))


def exp_divides_genexpr(a, b):
    return all(x <= y for x, y in zip(a, b))


def exp_lcm_genexpr(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def weighted_degree_genexpr(weights, e):
    return sum(w * k for w, k in zip(weights, e))


def cmp_monomials(e1, e2, ctx: RingContext) -> int:
    """-1, 0 or 1 as e1 <, =, > e2 under ctx.order."""
    if len(e1) != ctx.n or len(e2) != ctx.n:
        raise StructuralError("exponent arity does not match ring")
    k1, k2 = monomial_key(e1, ctx), monomial_key(e2, ctx)
    if k1 < k2:
        return -1
    if k1 > k2:
        return 1
    return 0


def mul_term(p: Polynomial, e, c) -> Polynomial:
    """c * x^e * p."""
    c = Fraction(c)
    return Polynomial(p.ring, {exp_add(e0, e): c * v for e0, v in p.terms().items()})


def spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    """lcm/lt(f) * f - lcm/lt(g) * g, lcm that of the leading monomials."""
    ef, cf = f.leading_term()
    eg, cg = g.leading_term()
    lcm = exp_lcm(ef, eg)
    return mul_term(f, exp_sub(lcm, ef), 1 / cf) - mul_term(g, exp_sub(lcm, eg), 1 / cg)


def to_json_dict(C: FreeComplex) -> dict:
    return {
        "variables": list(C.ring.variable_names),
        "weights": list(C.ring.weights),
        "order": C.ring.order,
        "ranks": list(C.ranks),
        "maps": [M.to_strings() for M in C.maps],
        "graded": C.graded,
        "shifts": [list(s) for s in C.shifts] if C.shifts else None,
    }


def complex_from_json_dict(doc: dict) -> FreeComplex:
    ring = RingContext(tuple(doc["variables"]), tuple(doc["weights"]), doc["order"])
    maps = []
    for rows in doc["maps"]:
        maps.append(PolyMatrix(ring, [[parse_polynomial(s, ring) for s in row] for row in rows]))
    shifts = tuple(tuple(s) for s in doc["shifts"]) if doc.get("shifts") else None
    return FreeComplex(ring, tuple(doc["ranks"]), tuple(maps), doc.get("graded", False), shifts)


def check_acyclicity_full(C: FreeComplex, budget: Budget | int | None = None):
    """(acyclic, failures) by the rank/codimension criterion with both rank
    conditions checked: a nonzero rho_k-minor and no nonzero (rho_k+1)-minor."""
    ring = C.ring
    budget = Budget.of(budget)
    n = ring.n
    rho = expected_ranks(C)
    failures = []
    for k in range(1, C.length + 1):
        M = C.maps[k - 1]
        r = rho[k - 1]
        if r > min(M.rows, M.cols):
            failures.append((k, f"expected rank {r} exceeds matrix size"))
            continue
        mins = minors(M, r) if r > 0 else None
        if r > 0 and not mins:
            failures.append((k, f"all {r}-minors vanish"))
            continue
        if r + 1 <= min(M.rows, M.cols) and minors(M, r + 1):
            failures.append((k, f"some {r + 1}-minor is nonzero"))
            continue
        if r > 0:
            locus = Ideal(ring, mins)
            codim = n - krull_dimension(locus, budget=budget)
            if codim < k:
                failures.append((k, f"rank-drop locus has codim {codim} < {k}"))
    return (not failures, tuple(failures))


def minimalize_rescan(C: FreeComplex) -> FreeComplex:
    """Graded minimalization that looks for each pivot from the first map
    again, checks before each cancellation that the pivot row composes to
    zero with the next map and the pivot column with the previous one, and
    always builds a new complex."""
    if not C.graded:
        raise ValidationError("minimalize needs a graded complex")
    ring = C.ring
    ents = [[list(row) for row in M.entries] for M in C.maps]
    shifts = [list(s) for s in C.shifts]

    def find_pivot():
        for k, M in enumerate(ents):
            for i, row in enumerate(M):
                for j, p in enumerate(row):
                    c = p.constant_value()
                    if c is not None and c != 0:
                        return k, i, j, c
        return None

    while (hit := find_pivot()) is not None:
        k, pi, pj, c = hit
        M, zero = ents[k], Polynomial.zero(ring)
        if k + 1 < len(ents) and any(not sum((u * v for u, v in zip(M[pi], col)), zero).is_zero()
                                     for col in zip(*ents[k + 1])):
            raise StructuralError("minimalize: complement row did not vanish")
        if k > 0 and any(not sum((u * r[pj] for u, r in zip(row, M)), zero).is_zero()
                         for row in ents[k - 1]):
            raise StructuralError("minimalize: complement column did not vanish")
        for a, row in enumerate(M):
            if a == pi or row[pj].is_zero():
                continue
            lam = row[pj].scale(1 / c)
            for j, p in enumerate(M[pi]):
                if j != pj and not p.is_zero():
                    row[j] = row[j] - lam * p
        for row in M:
            del row[pj]
        del M[pi]
        if k + 1 < len(ents):
            del ents[k + 1][pj]
        if k > 0:
            for row in ents[k - 1]:
                del row[pi]
        del shifts[k + 1][pj]
        del shifts[k][pi]
    ranks = [len(s) for s in shifts]
    while len(ranks) > 1 and ranks[-1] == 0:
        ranks.pop()
        shifts.pop()
        ents.pop()
    maps = [PolyMatrix(ring, M, cols_hint=ranks[k]) for k, M in enumerate(ents, start=1)]
    return FreeComplex(ring, tuple(ranks), tuple(maps), graded=True,
                       shifts=tuple(tuple(s) for s in shifts))


def minors_leibniz(M: PolyMatrix, size: int) -> list[Polynomial]:
    """`bsw.resolution.minors` with each determinant the sum over permutations
    s of sign(s) * prod_i M[rows[i]][cols[s(i)]], made monic by `scale`:
    deduplicated, zeros dropped, rows then columns in combination order."""
    if size <= 0:
        return [Polynomial.constant(M.ring, 1)]
    out: list[Polynomial] = []
    for rows in itertools.combinations(range(M.rows), size):
        for cols in itertools.combinations(range(M.cols), size):
            d = Polynomial.zero(M.ring)
            for perm in itertools.permutations(range(size)):
                inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(size), 2))
                term = Polynomial.constant(M.ring, (-1) ** inversions)
                for i, j in enumerate(perm):
                    term = term * M.entries[rows[i]][cols[j]]
                d = d + term
            if not d.is_zero():
                d = d.scale(1 / d.leading_term()[1])
                if d not in out:
                    out.append(d)
    return out


def compose_by_sum(A: PolyMatrix, B: PolyMatrix) -> list[list[Polynomial]]:
    """Entries of A @ B, each sum(u * v) over Polynomial + and *."""
    zero = Polynomial.zero(A.ring)
    return [[sum((A.entries[i][k] * B.entries[k][j] for k in range(A.cols)), zero)
             for j in range(B.cols)] for i in range(A.rows)]


def rank_at(M: PolyMatrix, point) -> int:
    """Rank over Q of M with its variables set to the rational point."""
    span = _RowSpan(M.cols)
    for row in M.entries:
        span.add([sum((Fraction(c) * math.prod(Fraction(v) ** k for v, k in zip(point, e))
                       for e, c in p.terms().items()), Fraction(0)) for p in row])
    return len(span.pivots)


def syzygies(M: PolyMatrix) -> PolyMatrix:
    """Matrix whose columns are a Groebner basis (induced Schreyer order)
    of the syzygy module of M's columns."""
    cols = [VecPoly.from_column(M.ring, [row[j] for row in M.entries]) for j in range(M.cols)]
    return PolyMatrix.from_columns(M.ring, M.cols, syzygy_columns(cols, M.ring))


def gaps(S: NumericalSemigroup) -> tuple[int, ...]:
    """The gaps of S, ascending: the set bits of its gap mask, one shift per bit."""
    return tuple(s for s in range(S.gap_mask.bit_length()) if S.gap_mask >> s & 1)


def genus(S: NumericalSemigroup) -> int:
    return len(gaps(S))


def members_below(S: NumericalSemigroup, bound: int) -> list[int]:
    return [s for s in range(bound) if S.contains(s)]


def ideal_power(A: SemigroupIdeal, ell: int, S: NumericalSemigroup) -> SemigroupIdeal:
    """A^ell: the minimal shifts among the members of its `bsw.semigroup` window."""
    bits = next(_powers(A.shifts, S, ell))
    return semigroup_ideal(S, [ell * A.valuation + i for i in _bits(bits)])


def member(M: MonomialIdeal, v) -> bool:
    """x^v in M iff some generator divides it."""
    return any(exp_divides(g, v) for g in M.exponents)


def stratum(S: StrataReport, r: int) -> StratumInfo | None:
    """None means the stratum is empty because the complex ends."""
    return S.strata.get(r)


def eval_complex(p: Polynomial, point) -> complex:
    """Evaluate p at a tuple of complex numbers (float path, not exact)."""
    if len(point) != p.ring.n:
        raise StructuralError("point arity does not match ring")
    total = 0j
    for e, c in p.terms().items():
        v = complex(c)
        for z, k in zip(point, e):
            if k:
                v *= z ** k
        total += v
    return total


def complex_poly_at(cp: _ComplexPoly, point) -> complex:
    """The value of a converted polynomial at one point, by its block evaluator."""
    with np.errstate(over="ignore", invalid="ignore"):
        re, im = cp.evaluate(_Block.of([point]))
    return complex(re[0], im[0])


def _residual_ok_scalar(f: Polynomial, point) -> bool:
    value = abs(eval_complex(f, point))
    scale = 0.0
    for e, c in f.terms().items():
        mono = 1.0
        for z, k in zip(point, e):
            if k:
                mono *= abs(z) ** k
        scale += abs(complex(c)) * mono
    return value <= RESIDUAL_TOLERANCE * max(scale, UNDERFLOW_FLOOR)


def angles_stepwise(stream: _AngleStream, count: int):
    """`bsw.loja._AngleStream.angles` with every 128-bit step a Python int:
    the next `count` angles of the stream as a float64 array, leaving its
    state at the last one."""
    state, inc = stream.state, stream.inc
    states = []
    for _ in range(count):
        state = (state * _PCG_MULT + inc) & _MASK128
        states.append(state)
    stream.state = state
    packed = b"".join(s.to_bytes(16, "little") for s in states)
    lo, hi = np.frombuffer(packed, dtype="<u8").reshape(count, 2).T
    x, rot = hi ^ lo, hi >> np.uint64(58)  # state >> 122
    out = x >> rot | x << (-rot & np.uint64(63))
    return 2.0 * math.pi * ((out >> np.uint64(11)).astype(float) * 2.0 ** -53)


def sample_variety_scalar(sampler: VarietySampler) -> list[tuple[complex, ...]]:
    """`bsw.loja.sample_variety` one point at a time."""
    total = len(sampler.radii) * sampler.samples_per_radius
    if total > SAMPLE_CAP:
        raise ResourceCapError(f"sampler needs {total} points (cap {SAMPLE_CAP})")
    rng = np.random.default_rng(sampler.seed)
    ring, per = sampler.ring, sampler.samples_per_radius
    points: list[tuple[complex, ...]] = []
    if sampler.kind == "parametrized":
        w = min(min(e[0] for e in c.terms()) for c in sampler.components)
        if w < 1:
            raise ValidationError("components must vanish at the origin")
        for rho in sampler.radii:
            r_t = rho ** (1.0 / w)
            for theta in rng.uniform(0.0, 2.0 * math.pi, size=per).tolist():
                t = r_t * complex(math.cos(theta), math.sin(theta))
                points.append(tuple(eval_complex(c, (t,)) for c in sampler.components))
    else:
        w_min = min(ring.weights)
        free = [j for j in range(ring.n) if j != sampler.solved_var]
        for rho in sampler.radii:
            moduli = [rho ** (ring.weights[j] / w_min) for j in free]
            for thetas in rng.uniform(0.0, 2.0 * math.pi, size=(per, len(free))).tolist():
                coords = [0j] * ring.n
                for j, r_j, theta in zip(free, moduli, thetas):
                    coords[j] = r_j * complex(math.cos(theta), math.sin(theta))
                coords[sampler.solved_var] = eval_complex(sampler.solved_expr, tuple(coords))
                points.append(tuple(coords))
    for pt in points:
        for f in sampler.defining:
            if not _residual_ok_scalar(f, pt):
                raise SamplingError("sampled point violates a defining equation")
    return points


def loja_exponent_estimate_scalar(phi: Polynomial, a_polys, points) -> LojaEstimate:
    """`bsw.loja.loja_exponent_estimate` one point at a time."""
    a_polys = list(a_polys)
    if not a_polys:
        raise ValidationError("need at least one ideal generator")
    xs: list[float] = []
    ys: list[float] = []
    lo, hi = math.inf, 0.0
    dropped = 0
    for pt in points:
        # left to right: the builtin sum of floats rounds otherwise since 3.12
        va = reduce(operator.add, (abs(eval_complex(g, pt)) for g in a_polys))
        vp = abs(eval_complex(phi, pt))
        if va <= UNDERFLOW_FLOOR or vp <= UNDERFLOW_FLOOR:
            dropped += 1
            continue
        xs.append(math.log(va))
        ys.append(math.log(vp))
        norm = math.sqrt(reduce(operator.add, (abs(z) ** 2 for z in pt)))
        lo, hi = min(lo, norm), max(hi, norm)
    total = len(xs) + dropped
    if len(xs) < 20:
        raise EstimationError(f"only {len(xs)} usable points (need 20)")
    if dropped > total / 2:
        raise EstimationError("phi or the ideal vanishes on more than half the sample")
    x = np.asarray(xs)
    y = np.asarray(ys)
    if float(x.max() - x.min()) < 1e-9:
        raise EstimationError("regressor is flat; radii ladder too degenerate")
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    residual = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return LojaEstimate(
        slope=float(slope),
        intercept=float(intercept),
        residual=residual,
        n_points=len(xs),
        radii_range=(lo, hi),
        reliable=residual <= RESIDUAL_THRESHOLD,
        log_a=tuple(xs),
        log_phi=tuple(ys),
    )


class TableSemigroup:
    """A numerical semigroup as a list of booleans filled entry by entry:
    entry i is True iff i is a sum of generators, for i < g_min * g_max + 2,
    which holds every gap by Schur's bound."""

    def __init__(self, generators):
        gens = sorted(set(generators))
        size = gens[0] * gens[-1] + 2
        member = [False] * size
        member[0] = True
        for i in range(1, size):
            for x in gens:
                if i >= x and member[i - x]:
                    member[i] = True
                    break
        self.table = member
        self.gaps = tuple(i for i in range(size) if not member[i])
        self.conductor = self.gaps[-1] + 1 if self.gaps else 0

    def contains(self, s: int) -> bool:
        return s >= 0 and (s >= len(self.table) or self.table[s])


def minimal_shifts_greedy(T: TableSemigroup, shifts) -> tuple[int, ...]:
    """Checked shifts, then kept in ascending order unless s - k is in S
    for an already kept k."""
    shifts = sorted(set(int(s) for s in shifts))
    if not shifts:
        raise ValidationError("ideal needs at least one shift")
    for s in shifts:
        if s < 1:
            raise ValidationError("shifts must be positive")
        if not T.contains(s):
            raise ValidationError(f"shift {s} is not in the semigroup")
    kept: list[int] = []
    for s in shifts:
        if not any(T.contains(s - k) for k in kept):
            kept.append(s)
    return tuple(kept)


def _power_greedy(shifts, ell: int, T: TableSemigroup) -> tuple[int, ...]:
    return minimal_shifts_greedy(T, {sum(c) for c in power_combinations(tuple(shifts), ell)})


def containment_holds_scan(shifts, N: int, ell: int, T: TableSemigroup,
                           mode: str = "power") -> tuple[bool, int | None]:
    """The N-th test set against A^ell, A the ideal of the minimal shifts:
    every member of S in [N*v, ell*v + conductor), and with mode
    "closure-power" only those in (closure of A)^N, is tested against A^ell
    one by one; the first one outside is the failure."""
    if mode not in ("power", "closure-power"):
        raise ValidationError(f"unknown mode {mode!r}")
    v = shifts[0]
    Al = _power_greedy(shifts, ell, T)
    bound = ell * v + T.conductor
    in_target = lambda s: any(T.contains(s - g) for g in Al)
    if mode == "closure-power":
        closure = minimal_shifts_greedy(
            T, [s for s in range(v, v + max(T.conductor, 1)) if T.contains(s)])
        CN = _power_greedy(closure, N, T)
        candidates = (s for s in range(N * v, bound)
                      if T.contains(s) and any(T.contains(s - g) for g in CN))
    else:
        candidates = (s for s in range(N * v, bound) if T.contains(s))
    for s in candidates:
        if not in_target(s):
            return False, s
    return True, None


def germ_bs_exponent_scan(shifts, ell: int, T: TableSemigroup, mode: str = "power"):
    """(least N whose test set lies in A^ell, the failure at N - 1 or None)."""
    if ell < 1:
        raise ValidationError("ell must be at least 1")
    last = None
    for N in itertools.count(1):
        holds, failure = containment_holds_scan(shifts, N, ell, T, mode)
        if holds:
            return N, last
        last = failure


def enumerate_ideals_scan(T: TableSemigroup, v_max: int):
    """The antichain ideals with valuation v <= v_max in the order of
    `enumerate_ideals`, the further shifts chosen from the members s of
    (v, v + conductor) with s - v outside S, tested element by element."""
    for v in range(1, v_max + 1):
        if not T.contains(v):
            continue
        ground = [s for s in range(v + 1, v + T.conductor)
                  if T.contains(s) and not T.contains(s - v)]

        def rec(start, chosen):
            yield SemigroupIdeal((v,) + chosen)
            for i in range(start, len(ground)):
                if all(not T.contains(ground[i] - x) for x in chosen):
                    yield from rec(i + 1, chosen + (ground[i],))

        yield from rec(0, ())


def huneke_mu_scan(T: TableSemigroup, v_max: int, ell_max: int):
    """(mu, shifts, ell): the largest germ_bs_exponent_scan N - ell + 1 over
    enumerate_ideals_scan(T, v_max) and ell = 1..ell_max, the first
    maximizer in that order."""
    best = None
    for A in enumerate_ideals_scan(T, v_max):
        for ell in range(1, ell_max + 1):
            cand = germ_bs_exponent_scan(A.shifts, ell, T)[0] - ell + 1
            if best is None or cand > best[0]:
                best = (cand, A.shifts, ell)
    return best


def statements_two_pass(text: str) -> list[tuple[str, int, int]]:
    """The (raw, line, col) of each ';'-terminated statement: first every
    `#` comment becomes spaces up to its newline, then the blanked text is
    split; SessionSyntaxError for an empty or unterminated statement."""
    blanked = []
    in_comment = False
    for ch in text:
        if ch == "\n":
            in_comment = False
            blanked.append(ch)
        elif ch == "#":
            in_comment = True
            blanked.append(" ")
        else:
            blanked.append(" " if in_comment else ch)
    out = []
    buf: list[str] = []
    start = None
    line, col = 1, 1
    for ch in blanked:
        if ch == ";":
            raw = "".join(buf).strip()
            if not raw:
                raise SessionSyntaxError("empty statement", *(start or (line, col)))
            out.append((raw, start[0], start[1]))
            buf, start = [], None
        else:
            if not ch.isspace() and start is None:
                start = (line, col)
            buf.append(ch)
        line, col = (line + 1, 1) if ch == "\n" else (line, col + 1)
    if start is not None:
        raise SessionSyntaxError("statement missing ';'", start[0], start[1])
    return out


def statements_charwise(text: str):
    """Yield (raw, line, col) per ';'-terminated statement, in one pass over
    text; a `#` comment reads as spaces up to its newline, so positions and
    the raw text's interior spacing survive."""
    buf: list[str] = []
    start: tuple[int, int] | None = None
    line, col = 1, 1
    in_comment = False
    for ch in text:
        if ch == "\n":
            in_comment = False
        elif in_comment or ch == "#":
            in_comment, ch = True, " "
        if ch == ";":
            raw = "".join(buf).strip()
            if not raw:
                raise SessionSyntaxError("empty statement", *(start or (line, col)))
            yield raw, start[0], start[1]
            buf = []
            start = None
        else:
            if not ch.isspace() and start is None:
                start = (line, col)
            buf.append(ch)
        if ch == "\n":
            line += 1
            col = 1
        else:
            col += 1
    if start is not None:
        raise SessionSyntaxError("statement missing ';'", start[0], start[1])


def parse_flags_stepwise(tokens: list[str], kind: str, usage: str, n_pos: int,
                         required: tuple[str, ...], optional: tuple[str, ...]):
    """A command's tokens as up to n_pos positional words, then --key value... /
    key=value flags among required + optional; once every token is read, a
    missing word or required flag gives `{kind} wants {usage}`."""
    positionals: list[str] = []
    flags: dict[str, str] = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.startswith("--"):
            key = tok[2:]
            vals = []
            i += 1
            while i < len(tokens) and not tokens[i].startswith("--"):
                vals.append(tokens[i])
                i += 1
            if not vals:
                raise ValidationError(f"flag --{key} needs a value")
            value = " ".join(vals)
        elif "=" in tok:
            key, value = tok.split("=", 1)
            i += 1
        else:
            if len(positionals) >= n_pos:
                raise ValidationError(f"unexpected token {tok!r}")
            positionals.append(tok)
            i += 1
            continue
        if key not in required and key not in optional:
            raise ValidationError(f"unknown flag {key!r}")
        if key in flags:
            raise ValidationError(f"duplicate flag {key!r}")
        flags[key] = value
    if len(positionals) < n_pos or any(k not in flags for k in required):
        raise ValidationError(f"{kind} wants {usage}")
    return positionals, flags


class _IsdigitTokens:
    """The tokenizer that `parse_polynomial_isdigit` reads with."""

    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.i += 1
        return ch

    def error(self, msg: str):
        raise ValidationError(f"{msg} at position {self.i} in {self.text!r}")

    def read_int(self) -> int:
        self.skip_ws()
        j = self.i
        while j < len(self.text) and self.text[j].isdigit():
            j += 1
        if j == self.i:
            self.error("expected an integer")
        val = int(self.text[self.i:j])
        self.i = j
        return val

    def read_name(self) -> str:
        self.skip_ws()
        j = self.i
        while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
            j += 1
        if j == self.i:
            self.error("expected a name")
        name = self.text[self.i:j]
        self.i = j
        return name


def parse_polynomial_isdigit(text: str, ring: RingContext) -> Polynomial:
    """The polynomial reader with `str.isdigit` digits (a non-ASCII digit
    reaches `int`, which reads `٣` as 3 and raises ValueError on `²`) and
    a sum loop that tests its first term apart."""
    tk = _IsdigitTokens(text)
    p = _isdigit_sum(tk, ring)
    tk.skip_ws()
    if tk.i != len(text):
        tk.error("trailing input")
    return p


def _isdigit_sum(tk: _IsdigitTokens, ring: RingContext) -> Polynomial:
    total = Polynomial.zero(ring)
    sign = 1
    first = True
    while True:
        ch = tk.peek()
        if ch == "+":
            tk.take()
        elif ch == "-":
            tk.take()
            sign = -sign
        elif not first:
            break
        while tk.peek() in ("+", "-"):
            if tk.take() == "-":
                sign = -sign
        term = _isdigit_product(tk, ring)
        total = total + (term if sign == 1 else -term)
        sign = 1
        first = False
        if tk.peek() not in ("+", "-"):
            break
    return total


def _isdigit_product(tk: _IsdigitTokens, ring: RingContext) -> Polynomial:
    p = _isdigit_factor(tk, ring)
    while tk.peek() == "*":
        tk.take()
        p = p * _isdigit_factor(tk, ring)
    return p


def _isdigit_factor(tk: _IsdigitTokens, ring: RingContext) -> Polynomial:
    ch = tk.peek()
    if ch == "(":
        tk.take()
        p = _isdigit_sum(tk, ring)
        if tk.peek() != ")":
            tk.error("expected ')'")
        tk.take()
    elif ch.isdigit():
        num = tk.read_int()
        if tk.peek() == "/":
            tk.take()
            den = tk.read_int()
            if den == 0:
                tk.error("zero denominator")
            p = Polynomial.constant(ring, Fraction(num, den))
        else:
            p = Polynomial.constant(ring, num)
    elif ch.isalpha() or ch == "_":
        p = Polynomial.variable(ring, ring.var_index(tk.read_name()))
    else:
        tk.error("expected a factor")
    if tk.peek() == "^":
        tk.take()
        p = p ** tk.read_int()
    return p


def _int_list_by_int(value: str, what: str) -> tuple[int, ...]:
    out = []
    for part in split_top_commas(value):
        try:
            out.append(int(part))
        except ValueError:
            raise ValidationError(f"{what} wants an integer, got {part!r}") from None
    return tuple(out)


def parse_ring_joined(rest: str) -> RingContext:
    """The ring that `ring REST;` declares, read with the weights clause's
    words joined with no separator; ValidationError if refused."""
    words = rest.split()
    names_part: list[str] = []
    weights: tuple[int, ...] | None = None
    order: str | None = None
    i = 0
    while i < len(words) and words[i] not in ("weights", "order"):
        names_part.append(words[i])
        i += 1
    names = tuple(n for n in split_top_commas(" ".join(names_part)) if n)
    for clause in ("weights", "order"):
        if words[i:].count(clause) > 1:
            raise ValidationError(f"duplicate {clause} clause")
    while i < len(words):
        if words[i] == "weights":
            if i + 1 >= len(words):
                raise ValidationError("weights wants a list")
            j = i + 1
            vals = []
            while j < len(words) and words[j] != "order":
                vals.append(words[j])
                j += 1
            weights = _int_list_by_int("".join(vals), "weights")
            i = j
        elif words[i] == "order":
            if i + 1 >= len(words):
                raise ValidationError("order wants a tag")
            order = words[i + 1]
            i += 2
        else:
            raise ValidationError(f"unexpected token {words[i]!r}")
    if not names:
        raise ValidationError("ring wants variable names")
    if order is not None and order not in RING_ORDERS:
        raise ValidationError(f"unknown order {order!r}")
    return RingContext(names, weights, order or "weighted-degrevlex")


def germ_list_joined(rest: str, what: str) -> tuple[int, ...]:
    """The numbers of `germ semigroup REST;` or `germ ideal REST;`, read with
    the words joined with no separator; ValidationError if refused."""
    return _int_list_by_int("".join(rest.split()), what)
