"""The one Groebner engine: Buchberger for submodules of free modules,
with ideals as the one-component case, and syzygies.

A vector polynomial is a dict from module monomial (component, exponent)
to Fraction.  One pair loop, one division routine, one autoreduce
routine and one budget meter serve both modules and ideals (groebner.py lifts
ideal generators into O^1 under TopOrder).  Division works in place: it
reduces one mutable term dict, adding each -c*x^a*g into it through
poly.add_term, and builds a single VecPoly for the remainder; S-vectors are
added into one dict the same way.  The dict's live terms wait in a list
sorted by order key, each term keyed when it is queued, so a step pops
its term instead of keying the whole dict again; since the keys are
injective, the steps come in the order of a max-scan.  Terms are checked once, where they enter
(poly.check_exponent); vectors the engine builds take VecPoly._of.  Pairs are picked by the
normal strategy: each pair is pushed once, when it is formed, onto a heap
keyed by (lcm key, index pair), so ties go to the smaller index pair.  The
chain criterion always prunes, while the product criterion is applied only
when the module has one component, since it is unsound for modules.  A
VecPoly is immutable and caches its leading term under the tag of the
order that last led it (the ring for TopOrder, the order object for the
graph order), so the reducers of every division, the basis of the pair
loop and autoreduce are led once per order, not once per use.

Syzygies of columns m_1..m_c of a matrix over O^r are read off a
Groebner basis of the graph module generated by w_j = m_j + e_j inside
O^r + O^c, under one graph order: the image components dominate under
TopOrder, and a tail monomial x^a e_{r+j} is keyed by lt(x^a m_j) (ties to
the smaller column), the Schreyer order the m_j induce.  Basis elements
whose image part vanishes are exactly a Groebner basis of Syz(m_1..m_c)
under that induced order; they are autoreduced under the same order, still
in graph coordinates, and moved into O^c once.  This is the package's
only elimination; resolutions and ideal intersections use it.
"""

from __future__ import annotations

import heapq
from bisect import insort
from fractions import Fraction

from .errors import BudgetExceededError, StructuralError, ValidationError
from .poly import (Exponent, Polynomial, RingContext, add_term, check_exponent, exp_add,
                   exp_divides, exp_lcm, exp_sub)

ModMono = tuple[int, Exponent]  # (component, exponent)

DEFAULT_BUDGET = 500_000


class VecPoly:
    """Element of a free module O^ncomp, sparse over module monomials.

    Immutable: do not mutate `terms` after construction, because the
    leading term is cached (see TopOrder.leading).
    """

    __slots__ = ("ring", "ncomp", "terms", "_lead")

    def __init__(self, ring: RingContext, ncomp: int, terms):
        clean: dict[ModMono, Fraction] = {}
        for (pos, e), c in (terms.items() if isinstance(terms, dict) else terms):
            if not 0 <= pos < ncomp:
                raise StructuralError("component index out of range")
            add_term(clean, (pos, check_exponent(e, ring.n)), Fraction(c))
        self.ring = ring
        self.ncomp = ncomp
        self.terms = clean
        self._lead = None  # (lead_tag, leading term) of the order that last led self

    @classmethod
    def _of(cls, ring: RingContext, ncomp: int, clean: dict) -> "VecPoly":
        """Unchecked: `clean` maps (component < ncomp, ring exponent) to nonzero Fractions."""
        v = object.__new__(cls)
        v.ring = ring
        v.ncomp = ncomp
        v.terms = clean
        v._lead = None
        return v

    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, c) -> "VecPoly":
        """c * self; self itself when c is 1.  A nonzero c keeps every term
        and the leading monomial, so a cached leading term carries over."""
        c = Fraction(c)
        if c == 1:
            return self
        if not c:
            return VecPoly._of(self.ring, self.ncomp, {})
        out = VecPoly._of(self.ring, self.ncomp, {k: c * v for k, v in self.terms.items()})
        if self._lead is not None:
            tag, (m, v) = self._lead
            out._lead = (tag, (m, c * v))
        return out

    def add_shifted_into(self, terms: dict, e: Exponent, c) -> list[ModMono]:
        """terms += c * x^e * self, in place, on a ModMono -> Fraction dict;
        returns the monomials that came in as new keys.  A c of 1 or -1
        adds the coefficients, or their negatives, with no multiply."""
        items = self.terms.items()
        if c == -1:
            items = ((m, -v) for m, v in items)
        elif c != 1:
            items = ((m, c * v) for m, v in items)
        new = []
        for (pos, e0), v in items:
            m = (pos, exp_add(e0, e))
            if add_term(terms, m, v):
                new.append(m)
        return new

    def component(self, pos: int) -> Polynomial:
        return Polynomial._of(self.ring, {e: c for (p, e), c in self.terms.items() if p == pos})

    @classmethod
    def from_column(cls, ring: RingContext, column: list[Polynomial]) -> "VecPoly":
        return cls._of(ring, len(column),
                       {(pos, e): c for pos, p in enumerate(column) for e, c in p._terms.items()})


class TopOrder:
    """Ring order on the monomial, ties to the smaller component; bigger key = bigger monomial.

    `lead_tag` names the order in the VecPoly leading-term cache.  A
    TopOrder's keys depend on its ring alone, so every TopOrder over one
    RingContext object shares the ring as its tag; a subclass whose keys
    depend on more tags itself.
    """

    def __init__(self, ctx: RingContext):
        self.ctx = ctx
        self.lead_tag = ctx

    def key(self, m: ModMono):
        pos, e = m
        return (self.ctx.order_key(e), -pos)

    def leading(self, v: VecPoly) -> tuple[ModMono, Fraction]:
        """Leading (monomial, coefficient) of v, cached on v under lead_tag."""
        cached = v._lead
        if cached is not None and cached[0] is self.lead_tag:
            return cached[1]
        if v.is_zero():
            raise ValidationError("zero vector has no leading term")
        m = max(v.terms, key=self.key)
        lead = m, v.terms[m]
        v._lead = (self.lead_tag, lead)
        return lead


class _GraphOrder(TopOrder):
    """The order on O^r + O^c for the graph module of nonzero columns m_j of O^r.

    Image components [0, r) dominate, ordered by TopOrder.  A tail
    monomial x^a e_{r+j} is keyed by lt(x^a m_j) under TopOrder, ties
    going to the smaller column: the Schreyer order induced by the m_j.
    """

    def __init__(self, ctx: RingContext, columns: list[VecPoly]):
        super().__init__(ctx)
        self.lead_tag = self
        self.r = columns[0].ncomp
        self.lts = [TopOrder(ctx).leading(m)[0] for m in columns]

    def key(self, m: ModMono):
        pos, e = m
        if pos < self.r:
            return (1, TopOrder.key(self, m))
        tpos, te = self.lts[pos - self.r]
        return (0, TopOrder.key(self, (tpos, exp_add(te, e))), self.r - pos)


class Budget:
    """The one work meter: a unit per pair treated, per reduction step and
    per sub-determinant that `resolution.minors` builds.

    A session command passes one meter to all of its steps; Budget.of
    gives a library call with an int or None (DEFAULT_BUDGET) a fresh
    one.  Each spend charges one unit, or `units` (a memo hit: the units
    its first build drew); running out raises BudgetExceededError,
    "Groebner budget of N work units exhausted", carrying the engine state
    passed to spend and the units spent.  Only spend reads the meter to
    stop work; `session.run_command` also reads it once, after the command,
    to report the units drawn.  A meter holds at least 0 units.
    """

    __slots__ = ("left", "total")

    def __init__(self, units: int):
        if units < 0:
            raise ValidationError("budget must be non-negative")
        self.left = units
        self.total = units

    @classmethod
    def of(cls, budget: "Budget | int | None") -> "Budget":
        """The meter itself, or a fresh one of `budget` (None: DEFAULT_BUDGET) units."""
        if isinstance(budget, Budget):
            return budget
        return cls(DEFAULT_BUDGET if budget is None else budget)

    def spend(self, partial, units: int = 1):
        self.left -= units
        if self.left < 0:
            raise BudgetExceededError(
                f"Groebner budget of {self.total} work units exhausted",
                partial=tuple(partial), spent=self.total - self.left,
            )


def divide(v: VecPoly, reducers: list[VecPoly], order: TopOrder,
           budget: Budget, quotients: dict | None = None) -> VecPoly:
    """Remainder of v on division by reducers, reduced in one mutable dict.

    Deterministic: always cancels the largest term, trying reducers in
    list order; a term no reducer divides moves to the remainder, one
    budget unit per step either way.  No term of the remainder is
    divisible by a leading term of the reducers.  With a `quotients`
    dict, the quotient of reducers[i] is recorded as quotients[i] =
    {exponent: coefficient}, so that v = sum quotients[i] * reducers[i] +
    remainder.

    The live terms are queued as (order.key(m), m), sorted ascending, each
    keyed when it is queued: the queue starts from v, and every monomial a
    reduction brings in as a new key is insorted.  A popped entry whose
    monomial has since cancelled is skipped; a monomial that cancels and
    comes back is queued again.  Every order here keys module monomials
    injectively, so the largest queued monomial still in the dict is the
    dict's maximum under the order, and the steps come in the order of
    a max-scan over the dict.
    """
    lts = [order.leading(g) for g in reducers]
    rem: dict[ModMono, Fraction] = {}
    h = dict(v.terms)
    key = order.key
    queue = sorted((key(m), m) for m in h)
    while queue:
        m = queue.pop()[1]
        if m not in h:
            continue
        pos, e = m
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
            for a in reducers[hit].add_shifted_into(h, shift, -factor):
                insort(queue, (key(a), a))
    return VecPoly._of(v.ring, v.ncomp, rem)


def run_buchberger(gens: list[VecPoly], order: TopOrder,
                   budget: Budget) -> list[VecPoly]:
    """The Buchberger pair loop; returns a (non-reduced) monic basis
    containing the input.

    Normal selection: the pair with the smallest lcm in the order, ties
    by index pair.  Each pair is pushed once, when it is formed, onto a
    heap keyed by (lcm key, index pair); the `pairs` set beside it holds
    the pending pairs for the chain criterion.  The chain criterion
    always prunes; the product criterion prunes only when the module has
    one component, i.e. for ideals, where it is sound.
    """
    G = [g.scale(1 / order.leading(g)[1]) for g in gens if not g.is_zero()]
    G.sort(key=lambda g: order.key(order.leading(g)[0]))
    lts = [order.leading(g)[0] for g in G]
    product = bool(G) and G[0].ncomp == 1
    pairs: set[tuple[int, int]] = set()
    heap: list = []

    def add_pairs(j):
        pos, ej = lts[j]
        for i in range(j):
            ipos, ei = lts[i]
            if ipos == pos:
                pairs.add((i, j))
                heapq.heappush(heap, (order.key((pos, exp_lcm(ei, ej))), (i, j)))

    for j in range(len(G)):
        add_pairs(j)
    while heap:
        i, j = heapq.heappop(heap)[1]
        pairs.discard((i, j))
        budget.spend(G)
        (pos, ei), (_, ej) = lts[i], lts[j]
        lcm = exp_lcm(ei, ej)
        # product criterion: coprime leading terms reduce to zero
        if product and lcm == exp_add(ei, ej):
            continue
        # chain criterion: some g_k divides the lcm and both side pairs settled
        if any(k != i and k != j and kpos == pos and exp_divides(ke, lcm)
               and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k, (kpos, ke) in enumerate(lts)):
            continue
        s: dict[ModMono, Fraction] = {}
        G[i].add_shifted_into(s, exp_sub(lcm, ei), 1)
        G[j].add_shifted_into(s, exp_sub(lcm, ej), -1)
        r = divide(VecPoly._of(G[i].ring, G[i].ncomp, s), G, order, budget)
        if not r.is_zero():
            lt, c = order.leading(r)
            G.append(r.scale(1 / c))
            lts.append(lt)
            add_pairs(len(G) - 1)
    return G


def module_groebner(gens: list[VecPoly], order: TopOrder,
                    budget_units: Budget | int | None = None) -> list[VecPoly]:
    """Groebner basis (non-reduced) of a submodule, charged to Budget.of(budget_units)."""
    return run_buchberger(gens, order, Budget.of(budget_units))


def autoreduce(G: list[VecPoly], order: TopOrder, budget: Budget) -> list[VecPoly]:
    """Minimal + reduced form, canonical ordering by leading term."""
    G = sorted((g for g in G if not g.is_zero()),
               key=lambda g: order.key(order.leading(g)[0]))
    minimal: list[VecPoly] = []
    seen_lts: list[ModMono] = []
    for g in G:
        (pos, e), _ = order.leading(g)
        if any(p == pos and exp_divides(ee, e) for p, ee in seen_lts):
            continue
        minimal.append(g)
        seen_lts.append((pos, e))
    out = []
    for i, g in enumerate(minimal):
        r = divide(g, minimal[:i] + minimal[i + 1:], order, budget)
        if not r.is_zero():
            out.append(r.scale(1 / order.leading(r)[1]))
    out.sort(key=lambda g: order.key(order.leading(g)[0]))
    return out


def syzygy_columns(columns: list[VecPoly], ctx: RingContext,
                   budget: Budget | int | None = None) -> list[VecPoly]:
    """Generators (a Groebner basis under the induced Schreyer order) of
    the syzygies of the given columns of O^r, charged to Budget.of(budget).

    Zero columns get the immediate syzygy e_j.  Output columns are
    nonzero VecPoly in O^c, c = len(columns): the e_j first, then the
    rest sorted by the Schreyer order.
    """
    c, one = len(columns), (0,) * ctx.n
    live = [j for j, m in enumerate(columns) if not m.is_zero()]
    out = [VecPoly(ctx, c, {(j, one): 1}) for j, m in enumerate(columns) if m.is_zero()]
    if not live:
        return out
    r = columns[0].ncomp
    order = _GraphOrder(ctx, [columns[j] for j in live])
    graph = [VecPoly(ctx, r + len(live), {**columns[j].terms, (r + slot, one): 1})
             for slot, j in enumerate(live)]
    budget = Budget.of(budget)
    G = module_groebner(graph, order, budget)
    # basis elements with no image part generate the syzygies; reduce them
    # in graph coordinates, then move tail slot r + s to column live[s]
    tails = autoreduce([g for g in G if all(pos >= r for pos, _e in g.terms)], order, budget)
    return out + [VecPoly._of(ctx, c, {(live[pos - r], e): v for (pos, e), v in t.terms.items()})
                  for t in tails]
