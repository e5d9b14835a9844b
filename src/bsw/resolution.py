"""Free complexes, resolutions, and singularity strata.

A complex is a chain O^{r_0} <- O^{r_1} <- ... <- O^{r_N} of free
modules with polynomial matrices f_k: E_k -> E_{k-1}; composition of
consecutive maps must vanish and is checked on construction.  Graded
complexes carry per-basis-element weighted-degree shifts, and entry
(i, j) of f_k is then quasi-homogeneous of degree shifts[k][j] -
shifts[k-1][i].

Resolutions are built by iterated syzygy computation and certified
exact by Buchsbaum and Eisenbud's criterion: the complex is exact iff
every f_k has a nonzero rho_k-minor and its rho_k-minor locus has
codimension >= k in C^n, where rho_k is the alternating sum of ranks
from level k up.  All (rho_k+1)-minors then vanish, as maps compose to
zero: rank f_k <= rank E_k - rank f_{k+1} <= rho_k by induction down k.
The codimension is bounded from below first, with no Buchberger run: the
leading monomials of the minors under a global order span an ideal inside
the initial ideal, whose codimension equals the minor ideal's.  Only a
level that no fixed order certifies so computes its exact codimension.

Strata: given a resolving complex of O/I and the expected ranks, Z_k is
the locus inside Z = V(I) where f_k drops below rank rho_k.  With
p = n - dim Z the interesting strata are Z^0 (the Jacobian singular
locus of Z) and Z^r = Z_{p+r} for r >= 1; all codimensions reported for
strata are measured inside Z.
"""

from __future__ import annotations

import itertools

from .errors import ResourceCapError, StructuralError, ValidationError
from .groebner import Ideal, krull_dimension, monomial_dimension
from .modgb import Budget, TopOrder, VecPoly, divide, module_groebner, syzygy_columns
from .poly import Polynomial, Record, RingContext, mul_into, weighted_degree_info


class PolyMatrix:
    """Immutable matrix of polynomials over one ring.

    `cols_hint` pins the column count of a zero-row matrix, which keeps
    degenerate maps shape-checkable inside complexes.
    """

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: RingContext, entries, cols_hint: int = 0):
        rows = tuple(tuple(e) for e in entries)
        ncols = len(rows[0]) if rows else cols_hint
        for row in rows:
            if len(row) != ncols:
                raise StructuralError("ragged matrix")
            for p in row:
                if not isinstance(p, Polynomial) or (p.ring is not ring and p.ring != ring):
                    raise StructuralError("matrix entry ring mismatch")
        self.ring = ring
        self.rows = len(rows)
        self.cols = ncols
        self.entries = rows

    @classmethod
    def from_columns(cls, ring: RingContext, nrows: int, columns: list[VecPoly]) -> "PolyMatrix":
        ents = [[col.component(i) for col in columns] for i in range(nrows)]
        return cls(ring, ents, cols_hint=len(columns))

    def compose(self, other: "PolyMatrix") -> "PolyMatrix":
        """self @ other (apply other first); each entry is summed in one
        term dict, and zero factors are skipped."""
        if self.cols != other.rows:
            raise StructuralError("composition shape mismatch")
        if other.ring is not self.ring and other.ring != self.ring:
            raise StructuralError("operands live in different rings")
        columns = [[row[j] for row in other.entries] for j in range(other.cols)]
        return PolyMatrix(self.ring, [[self._dot(row, col) for col in columns]
                                      for row in self.entries], cols_hint=other.cols)

    def _dot(self, row, col) -> Polynomial:
        out: dict = {}
        for u, v in zip(row, col):
            if u._terms and v._terms:
                mul_into(out, u, v)
        return Polynomial._of(self.ring, out)

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def to_strings(self) -> list[list[str]]:
        return [[str(p) for p in row] for row in self.entries]


def _det(matrix_entries, rows: tuple[int, ...], cols: tuple[int, ...], memo, ring,
         budget: Budget) -> Polynomial:
    """Determinant of the (rows x cols) submatrix by first-column
    expansion, the cofactor sum accumulated in one term dict; each
    sub-determinant new to the memo costs one unit of the budget."""
    key = (rows, cols)
    got = memo.get(key)
    if got is not None:
        return got
    budget.spend(())
    if len(rows) == 1:
        out = matrix_entries[rows[0]][cols[0]]
    else:
        acc: dict = {}
        c0 = cols[0]
        rest = cols[1:]
        for idx, r in enumerate(rows):
            e = matrix_entries[r][c0]
            if e.is_zero():
                continue
            sub = _det(matrix_entries, rows[:idx] + rows[idx + 1:], rest, memo, ring, budget)
            mul_into(acc, e, sub, -1 if idx % 2 else 1)
        out = Polynomial._of(ring, acc)
    memo[key] = out
    return out


def minors(M: PolyMatrix, size: int, budget: Budget | int | None = None) -> list[Polynomial]:
    """All size x size minors, deduplicated, zeros dropped, fixed order; [1] if size <= 0.
    Each sub-determinant built, 1 x 1 ones included, costs one unit of
    Budget.of(budget)."""
    if size <= 0:
        return [Polynomial.constant(M.ring, 1)]
    if size > min(M.rows, M.cols):
        return []
    budget = Budget.of(budget)
    memo: dict = {}
    out: list[Polynomial] = []
    seen = set()
    for rows in itertools.combinations(range(M.rows), size):
        for cols in itertools.combinations(range(M.cols), size):
            d = _det(M.entries, rows, cols, memo, M.ring, budget)
            if d.is_zero():
                continue
            d = d.monic()
            if d in seen:
                continue
            seen.add(d)
            out.append(d)
    return out


class FreeComplex(Record):
    """ranks[k] = rank E_k; maps[k-1] = f_k: E_k -> E_{k-1}."""

    _fields = ("ring", "ranks", "maps", "graded", "shifts")

    def __init__(self, ring: RingContext, ranks: tuple[int, ...], maps: tuple[PolyMatrix, ...],
                 graded: bool = False, shifts: tuple[tuple[int, ...], ...] | None = None):
        if len(maps) != len(ranks) - 1:
            raise StructuralError("need one map per adjacent rank pair")
        for k, M in enumerate(maps, start=1):
            if (M.rows, M.cols) != (ranks[k - 1], ranks[k]):
                raise StructuralError(f"map {k} shape does not match ranks")
            if M.ring is not ring and M.ring != ring:
                raise StructuralError(f"map {k} lives in another ring than the complex")
        for k in range(len(maps) - 1):
            if not maps[k].compose(maps[k + 1]).is_zero():
                raise StructuralError(f"composition f_{k+1} o f_{k+2} is nonzero")
        if graded:
            if shifts is None or len(shifts) != len(ranks):
                raise StructuralError("graded complex needs shifts per level")
            for lvl, (rk, sh) in enumerate(zip(ranks, shifts)):
                if len(sh) != rk:
                    raise StructuralError(f"shift count at level {lvl} mismatched")
            for k, M in enumerate(maps, start=1):
                for i in range(M.rows):
                    for j in range(M.cols):
                        p = M.entries[i][j]
                        if p.is_zero():
                            continue
                        info = weighted_degree_info(p)
                        want = shifts[k][j] - shifts[k - 1][i]
                        if not info.quasi_homogeneous or info.max_degree != want:
                            raise StructuralError(
                                f"entry ({i},{j}) of map {k} breaks the grading"
                            )
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "graded", graded)
        object.__setattr__(self, "shifts", shifts)

    @property
    def length(self) -> int:
        return len(self.maps)

    def rank_minors_on(self, budget: Budget | int | None) -> tuple[tuple[Polynomial, ...], ...]:
        """The rho_k-minors of each f_k, computed once per complex: the first
        read builds them on Budget.of(budget), a unit per sub-determinant,
        and later reads cost nothing.  Within a command, the first caller
        (check_acyclicity or rank_locus_ideal) passes the command's meter."""
        if "_rank_minors" not in self.__dict__:
            budget = Budget.of(budget)
            # a cache beside the frozen fields, not one of them
            self.__dict__["_rank_minors"] = tuple(
                tuple(minors(M, r, budget)) for M, r in zip(self.maps, expected_ranks(self)))
        return self.__dict__["_rank_minors"]


def expected_ranks(C: FreeComplex) -> tuple[int, ...]:
    """rho_k = sum_{i>=k} (-1)^(i-k) rank E_i for k = 1..N."""
    N = C.length
    out = []
    for k in range(1, N + 1):
        out.append(sum((-1) ** (i - k) * C.ranks[i] for i in range(k, N + 1)))
    return tuple(out)


def _prune_generators(cols: list[VecPoly], ctx: RingContext, sort_keys,
                      budget: Budget) -> list[int]:
    """Greedy minimal generating subset: keep a column only if it is not
    in the module generated by the already-kept ones; returns the kept
    indices in keeping order.  With columns sorted by increasing degree
    this yields a minimal generating set in the graded case."""
    order = TopOrder(ctx)
    kept: list[int] = []
    kept_gb: list[VecPoly] = []
    built = 0  # kept_gb is the basis of kept[:built]; it is rebuilt only for a test
    for j in sorted(range(len(cols)), key=lambda j: sort_keys[j]):
        if built < len(kept):
            kept_gb = module_groebner([cols[i] for i in kept], order, budget)
            built = len(kept)
        if kept_gb and divide(cols[j], kept_gb, order, budget).is_zero():
            continue
        kept.append(j)
    return kept


def free_resolution(I: Ideal, max_len: int | None = None, certify: bool = True,
                    budget: Budget | int | None = None) -> FreeComplex:
    """Iterated-syzygy resolution of O/I with f_1 = the generator row.

    Syzygy generating sets are pruned greedily from level 2 on; the first
    map keeps the generators exactly as given, so redundant generators
    surface as unit entries for minimalize to strip.  The complex is graded
    when every generator is quasi-homogeneous; then the pruning, in degree
    order, keeps minimal generators, and redundant generators split off a
    trivial summand between E_2 and E_1 only, so from E_3 on the chain is
    the minimal resolution, of length at most n: the default max_len
    max(n, 2) fits every graded chain.  Other input can need more maps, as
    its pruned sets need not be minimal; a chain still going at max_len
    maps raises ResourceCapError.  All steps draw on one Budget.of(budget).
    """
    ring = I.ring
    n = ring.n
    if max_len is None:
        max_len = max(n, 2)
    elif max_len < 1:
        raise ValidationError("max_len must be at least 1")
    gens = list(I.generators)
    if not gens:
        return FreeComplex(ring, (1,), (), graded=True, shifts=((0,),))
    budget = Budget.of(budget)
    infos = [weighted_degree_info(g) for g in gens]
    graded = all(info.quasi_homogeneous for info in infos)
    unit = (any(info.max_degree == 0 for info in infos) if graded
            else I.groebner(budget=budget).is_unit())
    if unit:
        raise ValidationError("resolution wants a proper ideal")

    maps = [PolyMatrix(ring, [list(gens)])]
    shifts: list[tuple[int, ...]] = [(0,)]
    if graded:
        shifts.append(tuple(info.max_degree for info in infos))

    top = TopOrder(ring)
    cols = [VecPoly.from_column(ring, [g]) for g in gens]
    while True:
        cols = syzygy_columns(cols, ring, budget)
        if not cols:
            break
        if len(maps) == max_len:
            raise ResourceCapError(f"resolution did not terminate within max_len={max_len}")
        leads = [top.leading(c)[0] for c in cols]
        sort_keys = [top.key(m) for m in leads]
        if graded:
            # FreeComplex checks every entry against these lead degrees
            degs = [ring.weighted_degree(e) + shifts[-1][pos] for pos, e in leads]
            sort_keys = list(zip(degs, sort_keys))
        kept = _prune_generators(cols, ring, sort_keys, budget)
        cols = [cols[j] for j in kept]
        maps.append(PolyMatrix.from_columns(ring, maps[-1].cols, cols))
        if graded:
            shifts.append(tuple(degs[j] for j in kept))

    C = FreeComplex(ring, (1, *(M.cols for M in maps)), tuple(maps), graded=graded,
                    shifts=tuple(shifts) if graded else None)
    if certify:
        ok, failures = check_acyclicity(C, budget=budget)
        if not ok:
            raise StructuralError(f"resolution failed exactness certification: {failures}")
    return C


def minimalize(C: FreeComplex) -> FreeComplex:
    """Strip unit (degree-0) entries, each by one Schur-complement update.

    Graded complexes only.  One row-major sweep per map, lowest map first: a
    cancellation edits its own map, deletes a column of the map before and a
    row of the map after, and leaves the degree-0 entries of the rows above
    it as they were (their multiplier is zero or of positive degree), so no
    earlier pivot appears.  No pivot rechecks that maps compose to zero;
    FreeComplex checks it on the input and on the result.  The result has no
    nonzero constant entries and the same homology; for a resolution its
    ranks are the graded Betti numbers.  When nothing changes, C is returned.
    """
    if not C.graded:
        raise ValidationError("minimalize needs a graded complex")
    ring = C.ring
    ents = [[list(row) for row in M.entries] for M in C.maps]
    shifts = [list(s) for s in C.shifts]
    for k, M in enumerate(ents):
        pi = 0
        while pi < len(M):
            hit = next(((j, c) for j, p in enumerate(M[pi]) if (c := p.constant_value())), None)
            if hit is None:
                pi += 1
                continue
            pj, c = hit
            # Schur complement: what the surviving entries become once the
            # pivot row and column are cleared by basis changes in E_{k+1}, E_k
            for a, row in enumerate(M):
                if a == pi or row[pj].is_zero():
                    continue
                lam = row[pj].scale(1 / c)
                for j, p in enumerate(M[pi]):
                    if j != pj and not p.is_zero():
                        row[j] = row[j] - lam * p
            # delete basis element pj of E_{k+1} and pi of E_k
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

    while len(shifts) > 1 and not shifts[-1]:  # drop trailing zero-rank levels
        shifts.pop()
        ents.pop()
    ranks = [len(s) for s in shifts]
    if ranks == list(C.ranks):
        return C
    maps = [PolyMatrix(ring, M, cols_hint=ranks[k]) for k, M in enumerate(ents, start=1)]
    return FreeComplex(ring, tuple(ranks), tuple(maps), graded=True,
                       shifts=tuple(tuple(s) for s in shifts))


def koszul_complex(elems: list[Polynomial]) -> FreeComplex:
    """Koszul complex on a_1..a_m: E_k = Lambda^k O^m, maps by interior
    multiplication with alternating signs."""
    if not elems:
        raise ValidationError("Koszul complex wants at least one element")
    ring = elems[0].ring
    for a in elems:
        if a.ring != ring:
            raise StructuralError("Koszul inputs in different rings")
        if a.is_zero():
            raise ValidationError("Koszul inputs must be nonzero")
    m = len(elems)
    infos = [weighted_degree_info(a) for a in elems]
    graded = all(info.quasi_homogeneous for info in infos)
    degs = [info.max_degree for info in infos]
    bases = [list(itertools.combinations(range(m), k)) for k in range(m + 1)]
    maps = []
    for k in range(1, m + 1):
        src = bases[k]
        tgt = bases[k - 1]
        tgt_index = {S: i for i, S in enumerate(tgt)}
        zero = Polynomial.zero(ring)
        M = [[zero for _ in src] for _ in tgt]
        for j, S in enumerate(src):
            for idx, t in enumerate(S):
                row = tgt_index[S[:idx] + S[idx + 1:]]
                term = elems[t] if idx % 2 == 0 else -elems[t]
                M[row][j] = M[row][j] + term
        maps.append(PolyMatrix(ring, M))
    ranks = tuple(len(b) for b in bases)
    shifts = tuple(tuple(sum(degs[t] for t in S) for S in bases[k]) for k in range(m + 1)) \
        if graded else None
    return FreeComplex(ring, ranks, tuple(maps), graded=graded, shifts=shifts)


def rank_locus_ideal(C: FreeComplex, k: int, ambient: Ideal,
                     budget: Budget | int | None = None) -> tuple[Ideal, bool]:
    """Ideal cutting out Z_k = {rank f_k < rho_k} inside V(ambient).

    Returns (ideal, degenerate); degenerate=True means rho_k exceeds the
    matrix size, the rank can never be attained, and the locus is all of
    V(ambient).  Minors not yet built for C draw on Budget.of(budget)."""
    if not 1 <= k <= C.length:
        raise ValidationError(f"no map f_{k} in a length-{C.length} complex")
    if ambient.ring != C.ring:
        raise StructuralError("ambient ideal ring mismatch")
    M = C.maps[k - 1]
    degenerate = expected_ranks(C)[k - 1] > min(M.rows, M.cols)
    return Ideal(C.ring, C.rank_minors_on(budget)[k - 1] + ambient.generators), degenerate


def _leading_codim_reaches(mins, ring: RingContext, k: int) -> bool:
    """Is codim <LT(mins)> >= k for the ring's order or for lex under a
    cyclic rotation of the variables?  For a global order, <LT(mins)> lies
    inside in(I) for I = (mins), and dim R/I = dim R/in(I), so then
    codim I >= k too.  An empty locus (a constant minor) has infinite codim."""
    n = ring.n
    keys = [ring.order_key, *(lambda e, s=s: e[s:] + e[:s] for s in range(n))]
    dims = (monomial_dimension((max(p._terms, key=key) for p in mins), n) for key in keys)
    return any(dim < 0 or n - dim >= k for dim in dims)


def check_acyclicity(C: FreeComplex, budget: Budget | int | None = None):
    """Exactness certificate from the rho_k-minors of each f_k.

    Returns (acyclic, failures); each failure is (k, reason).  The test
    is exact over a polynomial ring: codimension equals grade there.
    The minors, when not yet built for C, and the exact codims of the
    levels that _leading_codim_reaches does not pass draw on one
    Budget.of(budget)."""
    ring = C.ring
    budget = Budget.of(budget)
    failures = []
    levels = zip(C.maps, expected_ranks(C), C.rank_minors_on(budget))
    for k, (M, r, mins) in enumerate(levels, start=1):
        if r > min(M.rows, M.cols):
            failures.append((k, f"expected rank {r} exceeds matrix size"))
        elif not mins:
            failures.append((k, f"all {r}-minors vanish"))
        elif not _leading_codim_reaches(mins, ring, k):
            dim = krull_dimension(Ideal(ring, mins), budget=budget)
            # an empty locus (unit minor ideal) has infinite codimension
            if dim >= 0 and ring.n - dim < k:
                failures.append((k, f"rank-drop locus has codim {ring.n - dim} < {k}"))
    return (not failures, tuple(failures))


def jacobian_matrix(I: Ideal) -> PolyMatrix:
    ring = I.ring
    return PolyMatrix(
        ring,
        [[g.derivative(j) for j in range(ring.n)] for g in I.generators],
    )


class StratumInfo(Record):
    """dim is -1 for an empty stratum, whose codim_in_z is None (infinite)."""

    _fields = ("ideal", "dim", "codim_in_z")

    def __init__(self, ideal: Ideal, dim: int, codim_in_z: int | None):
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "codim_in_z", codim_in_z)

    @property
    def empty(self) -> bool:
        return self.dim < 0


class StrataReport(Record):
    """d = dim Z and p its codim in C^n; expected holds rho_k for the resolving
    complex; zk_ideals maps k to the Ideal (rho_k-minors + I); strata maps r to
    its StratumInfo, r = 0..length-p, with Z^0 = Z_sing; degenerate holds the
    warnings from unit-minor conventions."""

    _fields = ("ring", "d", "p", "expected", "zk_ideals", "strata", "purity_ok", "degenerate")

    def __init__(self, ring: RingContext, d: int, p: int, expected: tuple[int, ...],
                 zk_ideals: dict, strata: dict, purity_ok: bool, degenerate: tuple[str, ...]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "zk_ideals", zk_ideals)
        object.__setattr__(self, "strata", strata)
        object.__setattr__(self, "purity_ok", purity_ok)
        object.__setattr__(self, "degenerate", degenerate)


def strata(C: FreeComplex, I: Ideal, budget: Budget | int | None = None) -> StrataReport:
    """Rank-drop strata of the resolving complex C of O/I, plus the
    Jacobian singular stratum Z^0; minors and codims, measured inside Z,
    draw on one Budget.of(budget)."""
    ring = I.ring
    if C.ring != ring:
        raise StructuralError("complex and ideal rings differ")
    budget = Budget.of(budget)
    d = krull_dimension(I, budget=budget)
    if d < 0:
        raise ValidationError("strata of an empty variety are undefined")
    p = ring.n - d
    rho = expected_ranks(C)
    degenerate: list[str] = []

    # p <= n, the columns, and p <= the generators, the rows, by Krull's height theorem
    z0_ideal = Ideal(ring, tuple(minors(jacobian_matrix(I), p, budget)) + I.generators)

    zk: dict[int, Ideal] = {}
    for k in range(1, C.length + 1):
        ideal_k, degen = rank_locus_ideal(C, k, I, budget)
        zk[k] = ideal_k
        if degen:
            degenerate.append(f"rho_{k} exceeds the size of f_{k}; Z_{k} = Z")

    strata_map: dict[int, StratumInfo] = {}
    for r, idl in {0: z0_ideal, **{r: zk[p + r] for r in range(1, C.length - p + 1)}}.items():
        dim = krull_dimension(idl, budget=budget)
        strata_map[r] = StratumInfo(idl, dim, (d - dim) if dim >= 0 else None)

    return StrataReport(ring=ring, d=d, p=p, expected=rho, zk_ideals=zk, strata=strata_map,
                        purity_ok=_codim_failure(strata_map, d, 1, r_min=1) is None,
                        degenerate=tuple(degenerate))


def _codim_failure(strata_map: dict, d: int, need: int, meet=None, r_min: int = 0):
    """First nonempty stratum r >= r_min with codim_Z < need + r, as (r, codim),
    else None, visiting r in order.  The codim is d minus the stratum's dim, or
    minus meet(info) when given, whose empty locus (dim -1) passes."""
    for r in sorted(strata_map):
        info = strata_map[r]
        if r < r_min or info.empty:
            continue
        dim = info.dim if meet is None else meet(info)
        if dim >= 0 and d - dim < need + r:
            return r, d - dim
    return None


def check_cm_depth(S: StrataReport) -> tuple[bool, int, int]:
    """(is_CM, depth_lower, depth_exact).

    Z^r empty for all r > d - nu is equivalent to depth >= nu, so the
    largest empty tail pins depth exactly and both depth fields agree.
    """
    r_max = 0
    for r, info in S.strata.items():
        if r >= 1 and not info.empty:
            r_max = max(r_max, r)
    depth = S.d - r_max
    return (r_max == 0, depth, depth)


def check_bs_condition(S: StrataReport, a: Ideal, m: int | None = None,
                       budget: Budget | int | None = None):
    """Does codim_Z(Z^r cap Z^a) >= m + 1 + r hold for all r >= 0?

    Returns (holds, witness); witness is the first failing (r, codim).
    All intersections draw on one Budget.of(budget)."""
    if a.ring != S.ring:
        raise StructuralError("test ideal ring mismatch")
    if m is None:
        m = len(a.generators)
    if m < 1:
        raise ValidationError("m must be at least 1")
    budget = Budget.of(budget)
    witness = _codim_failure(S.strata, S.d, m + 1, lambda info: krull_dimension(
        Ideal(S.ring, info.ideal.generators + a.generators), budget=budget))
    return witness is None, witness


def normality_witness(S: StrataReport):
    """First (r, codim) violating codim_Z Z^r >= 2 + r, else None."""
    return _codim_failure(S.strata, S.d, 2)


def check_normality_condition(S: StrataReport) -> bool:
    """Serre-type criterion: codim_Z Z^r >= 2 + r for every r >= 0."""
    return normality_witness(S) is None
