"""Free resolutions, minimalization, Koszul complexes, rank strata."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsw import resolution
from bsw.errors import BudgetExceededError, ResourceCapError, StructuralError, ValidationError
from bsw.groebner import Ideal, ideal_member, krull_dimension
from bsw.modgb import Budget, VecPoly, syzygy_columns
from bsw.poly import Polynomial, RingContext, parse_polynomial, parse_polynomials
from bsw.resolution import (FreeComplex, PolyMatrix, check_acyclicity,
                            check_bs_condition, check_cm_depth,
                            check_normality_condition, expected_ranks,
                            free_resolution, koszul_complex,
                            minimalize, minors, normality_witness,
                            rank_locus_ideal, strata)

from _oracles import (complex_from_json_dict, compose_by_sum, hilbert_function,
                      minimalize_rescan, minors_leibniz, stratum, syzygies, to_json_dict)

R2 = RingContext(("x", "y"))
R3 = RingContext(("x", "y", "z"))
R4 = RingContext(("x", "y", "z", "w"))
RW = RingContext(("z", "w"), (2, 5))


def P(text, ring=R2):
    return parse_polynomial(text, ring)


def ideal(text, ring=R2):
    return Ideal(ring, tuple(parse_polynomials(text, ring)))


def PM(ring, rows):
    return PolyMatrix(ring, [[parse_polynomial(s, ring) for s in row] for row in rows])


def resolve(text, ring, **kw):
    return free_resolution(ideal(text, ring), **kw)


# ---------------------------------------------------------------- syzygies

def test_syzygy_of_regular_pair():
    M = PM(R2, [["x", "y"]])
    S = syzygies(M)
    assert len(S.entries[0]) == 1
    col = [S.entries[0][0], S.entries[1][0]]
    assert M.compose(S).is_zero()
    # proportional to (-y, x)
    assert col[0] * P("x") + col[1] * P("y") == Polynomial.zero(R2)
    assert not col[0].is_zero()


def test_compose_shapes_with_empty_factors():
    # a zero-row or zero-column factor still gives rows x cols of the product
    A, B = PM(R2, [["x", "y"], ["1", "0"]]), PM(R2, [["y", "0", "1"], ["-x", "x", "0"]])
    AB = A.compose(B)
    assert AB.to_strings() == [["0", "x*y", "x"], ["y", "0", "1"]]
    empty_rows = PolyMatrix(R2, [], cols_hint=2).compose(B)
    assert (empty_rows.rows, empty_rows.cols) == (0, 3)
    inner = PolyMatrix(R2, [[], []]).compose(PolyMatrix(R2, [], cols_hint=3))
    assert (inner.rows, inner.cols) == (2, 3) and inner.is_zero()
    empty_cols = A.compose(PolyMatrix(R2, [[], []]))
    assert (empty_cols.rows, empty_cols.cols) == (2, 0)


def test_syzygy_with_unit_cofactor():
    M = PM(R2, [["x^2", "x"]])
    S = syzygies(M)
    assert M.compose(S).is_zero()
    # some column is (c, -c*x): the redundancy of x^2 over x is visible
    found = False
    for j in range(len(S.entries[0])):
        a, b = S.entries[0][j], S.entries[1][j]
        c = a.constant_value()
        if c not in (None, 0) and b == P("x").scale(-c):
            found = True
    assert found


def test_syzygy_of_unit():
    M = PM(R2, [["1"]])
    S = syzygies(M)
    assert len(S.entries[0]) == 0


def test_syzygies_of_no_columns_and_of_zero_columns():
    # no columns have no syzygies; each zero column j has the unit syzygy e_j
    assert syzygy_columns([], R2) == []
    S = syzygy_columns([VecPoly(R2, 2, {})] * 3, R2)
    assert [(s.ncomp, s.terms) for s in S] == [(3, {(j, (0, 0)): 1}) for j in range(3)]


# ---------------------------------------------------------------- resolutions

def test_resolution_principal():
    C = resolve("z^5 - w^2", RW)
    assert C.ranks == (1, 1)
    assert C.graded


def test_resolution_two_planes():
    C = resolve("x*z, x*w, y*z, y*w", R4)
    assert minimalize(C).ranks == (1, 4, 4, 1)


def test_resolution_regular_pair_matches_koszul():
    C = minimalize(resolve("x, y", R2))
    K = koszul_complex((P("x"), P("y")))
    assert C.ranks == K.ranks == (1, 2, 1)


def test_resolution_rejects_unit_ideal():
    with pytest.raises(ValidationError):
        resolve("1", R2)
    with pytest.raises(ValidationError):
        resolve("x - 1, x", R2)  # unit, but only after basis computation


def test_resolution_first_map_is_generator_row():
    I = ideal("x*z, x*w, y*z, y*w", R4)
    C = free_resolution(I)
    assert tuple(C.maps[0].entries[0]) == I.generators


def test_resolution_length_bound():
    C = resolve("x^2, x*y, y^3", R2)
    assert C.length <= 2
    ok, fails = check_acyclicity(C)
    assert ok, fails


def test_resolution_rejects_max_len_below_one():
    for max_len in (0, -1):
        with pytest.raises(ValidationError, match="max_len must be at least 1"):
            resolve("x, y", R2, max_len=max_len)
    assert resolve("x", R2, max_len=1).ranks == (1, 1)


@st.composite
def graded_ideals(draw):
    """Monomials and quasi-homogeneous binomials in 1-3 variables of weights
    1-3, exponents at most 3, with repeated generators and variable
    multiples of earlier ones among them."""
    n = draw(st.integers(1, 3))
    ring = RingContext(("x", "y", "z")[:n], tuple(draw(st.integers(1, 3)) for _ in range(n)))
    monomials = [e for e in itertools.product(range(4), repeat=n) if any(e)]
    by_degree: dict = {}
    for e in monomials:
        by_degree.setdefault(ring.weighted_degree(e), []).append(e)
    shared = [es for es in by_degree.values() if len(es) > 1]
    gens: list[Polynomial] = []
    for _ in range(draw(st.integers(1, 4))):
        how = draw(st.sampled_from(("monomial", "binomial", "repeat", "multiple")))
        if how == "repeat" and gens:
            gens.append(draw(st.sampled_from(gens)))
        elif how == "multiple" and gens:
            gens.append(Polynomial.variable(ring, draw(st.integers(0, n - 1)))
                        * draw(st.sampled_from(gens)))
        elif how == "binomial" and shared:
            a, b = draw(st.lists(st.sampled_from(draw(st.sampled_from(shared))),
                                 min_size=2, max_size=2, unique=True))
            gens.append(Polynomial.monomial(ring, a)
                        - Polynomial.monomial(ring, b, draw(st.sampled_from((1, -1, 2)))))
        else:
            gens.append(Polynomial.monomial(ring, draw(st.sampled_from(monomials))))
    return Ideal(ring, tuple(gens))


@settings(max_examples=200, deadline=None)
@given(graded_ideals())
def test_default_max_len_fits_every_graded_chain(I):
    # the default certifies; past the first two maps the chain is already minimal
    C = free_resolution(I)
    assert C.graded and C.length <= max(I.ring.n, 2)
    Cmin = minimalize(C)
    assert all(Cmin.ranks[k] == C.ranks[k] for k in range(3, len(C.ranks)))


def test_a_refused_level_is_not_pruned(monkeypatch):
    calls = []
    prune = resolution._prune_generators
    monkeypatch.setattr(resolution, "_prune_generators",
                        lambda *a: calls.append(a) or prune(*a))
    with pytest.raises(ResourceCapError, match="max_len=1"):
        resolve("x, y", R2, max_len=1)
    assert calls == []
    assert resolve("x, y", R2, max_len=2).ranks == (1, 2, 1) and len(calls) == 1


def test_graded_autodetect():
    assert resolve("z^5 - w^2", RW).graded
    assert not resolve("z^2 + w, z^3", RW).graded


# ---------------------------------------------------------------- minimalize

def _k_polynomial(shifts) -> dict[int, int]:
    """sum_k (-1)^k sum_j t^shifts[k][j], as {degree: coefficient}."""
    out: dict[int, int] = {}
    for k, level in enumerate(shifts):
        for d in level:
            out[d] = out.get(d, 0) + (-1) ** k
    return {d: c for d, c in out.items() if c}


def _hilbert_numerator(gens, top: int) -> dict[int, int]:
    """(1-t)^n * sum_d HF(d) t^d through degree `top`, as {degree: coefficient}."""
    n = gens[0].ring.n
    hf = [hilbert_function(gens, d) for d in range(top + 1)]
    out = {}
    for d in range(top + 1):
        c = sum((-1) ** i * math.comb(n, i) * hf[d - i] for i in range(min(n, d) + 1))
        if c:
            out[d] = c
    return out


@pytest.mark.parametrize("text", [
    "x*z, x*w, y*z, y*w",                            # two planes
    "x*z - y^2, y*w - z^2, x*w - y*z",               # twisted cubic
    "x^2, y^2, z^2",
    "x^2 - y*z, y^2 - x*w, x*z^2 - w^3",             # complete intersection 2, 2, 3
])
def test_resolution_shifts_match_hilbert_series(text):
    I = ideal(text, R4)
    C = free_resolution(I)
    want = _hilbert_numerator(list(I.generators), max(map(max, C.shifts)) + 1)
    assert _k_polynomial(C.shifts) == want
    assert _k_polynomial(minimalize(C).shifts) == want


def test_minimalize_keeps_minimal_complex():
    K = koszul_complex((P("x"), P("y")))
    M = minimalize(K)
    assert M.ranks == K.ranks
    assert [m.to_strings() for m in M.maps] == [m.to_strings() for m in K.maps]


def test_minimalize_duplicate_generator():
    # (x, x): the syzygy (1, -1) is a unit column; reduction leaves (x)
    C = resolve("x, x", R2)
    assert C.ranks == (1, 2, 1)
    M = minimalize(C)
    assert M.ranks == (1, 1)
    assert M.maps[0].to_strings() == [["x"]]


@pytest.mark.parametrize("text, ranks, shifts", [
    ("x, y, z, x + y", (1, 3, 3, 1), ((0,), (1, 1, 1), (2, 2, 2), (3,))),
    ("x^2, x*y, y^2, x^2 + x*y, z", (1, 4, 5, 2),
     ((0,), (2, 2, 2, 1), (3, 3, 3, 3, 3), (4, 4))),
    ("x, y, x*y, z^2, y*z", (1, 3, 3, 1), ((0,), (1, 1, 2), (2, 3, 3), (4,))),
    # pivots -1/2 and -2: a Schur update that multiplies by the pivot fails
    ("x, y, 2*x + 3*y, z^2, x*z", (1, 3, 3, 1), ((0,), (1, 1, 2), (2, 3, 3), (4,))),
])
def test_minimalize_cancels_units_with_a_following_map(text, ranks, shifts):
    # redundant generators put units in f_2, and f_3 exists, so each
    # cancelled pair also has a following map
    I = ideal(text, R3)
    M = minimalize(free_resolution(I))
    assert (M.ranks, M.shifts) == (ranks, shifts)
    assert all(p.constant_value() in (None, 0) for mp in M.maps for row in mp.entries
               for p in row)
    top = max(map(max, shifts)) + 1
    assert _k_polynomial(M.shifts) == _hilbert_numerator(list(I.generators), top)


def test_minimalize_requires_graded():
    C = resolve("z^2 + w, z^3", RW)
    with pytest.raises(ValidationError):
        minimalize(C)


def test_minimalize_two_planes_stable():
    C = resolve("x*z, x*w, y*z, y*w", R4)
    M = minimalize(C)
    assert M.ranks == (1, 4, 4, 1)
    # no unit entries anywhere
    for mp in M.maps:
        for row in mp.entries:
            for p in row:
                cv = p.constant_value()
                assert cv is None or cv == 0


def _complex_parts(C):
    return C.ranks, C.shifts, [m.to_strings() for m in C.maps]


QUADRICS = ("x^2", "x*y", "y^2", "y*z", "z^2", "x*z", "x*y - z^2", "x^2 + y*z")


@st.composite
def redundant_ideals(draw):
    """Quadrics of R3 followed by elements of the ideal they generate: sums
    c*g + d*h of quadrics and variable multiples v*g, so f_2 of the
    resolution has unit entries, often several."""
    gens = draw(st.lists(st.sampled_from(QUADRICS), min_size=1, max_size=3, unique=True))
    polys = [P(g, R3) for g in gens]
    pick = st.integers(0, len(polys) - 1)
    for _ in range(draw(st.integers(1, 2))):
        g, h = polys[draw(pick)], polys[draw(pick)]
        if draw(st.booleans()):
            extra = g.scale(draw(st.integers(1, 3))) + h.scale(draw(st.integers(-2, 2)))
        else:
            extra = P(draw(st.sampled_from("xyz")), R3) * g
        if not extra.is_zero():
            polys.append(extra)
    return Ideal(R3, tuple(polys))


@settings(max_examples=40, deadline=None)
@given(redundant_ideals())
def test_minimalize_matches_the_rescan_on_redundant_generators(I):
    C = free_resolution(I)
    assert _complex_parts(minimalize(C)) == _complex_parts(minimalize_rescan(C))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(("x", "y", "x^2", "x*y", "y^2")), min_size=1, max_size=3),
       st.integers(0, 3), st.sampled_from((1, -1, 3)))
def test_minimalize_matches_the_rescan_on_koszul_with_a_unit(elems, at, c):
    polys = [P(e) for e in elems]
    polys.insert(min(at, len(polys)), Polynomial.constant(R2, c))
    K = koszul_complex(polys)
    assert _complex_parts(minimalize(K)) == _complex_parts(minimalize_rescan(K))


@pytest.mark.parametrize("C", [
    koszul_complex([P("x"), P("y")]),
    koszul_complex([P("x^2", R3), P("y*z", R3), P("x*z - y^2", R3)]),
    resolve("x*z, x*w, y*z, y*w", R4),
], ids=["koszul-xy", "koszul-ci", "two-planes"])
def test_minimalize_returns_a_unit_free_complex_itself(C):
    assert minimalize(C) is C


# ---------------------------------------------------------------- koszul

def test_koszul_shapes():
    assert koszul_complex((P("x"),)).ranks == (1, 1)
    K2 = koszul_complex((P("x"), P("y")))
    assert K2.ranks == (1, 2, 1)
    assert koszul_complex((P("x", R3), P("y", R3), P("z", R3))).ranks == (1, 3, 3, 1)


def test_koszul_f2_sign_convention():
    K = koszul_complex((P("x"), P("y")))
    col = [K.maps[1].entries[0][0], K.maps[1].entries[1][0]]
    # (-y, x) up to overall sign
    assert {str(col[0]), str(col[1])} in ({"-y", "x"}, {"y", "-x"})
    assert K.maps[0].compose(K.maps[1]).is_zero()


def test_koszul_acyclicity_detector():
    ok, _ = check_acyclicity(koszul_complex((P("x", R3), P("y", R3), P("z", R3))))
    assert ok
    ok2, fails = check_acyclicity(koszul_complex((P("x"), P("x*y"))))
    assert not ok2
    assert fails and fails[0][0] == 2  # the k=2 locus is too big


def test_regular_sequence_loci_codims():
    K = koszul_complex((P("x", R3), P("y", R3), P("z", R3)))
    for k in (1, 2, 3):
        locus, degenerate = rank_locus_ideal(K, k, Ideal(R3, ()))
        assert not degenerate
        assert 3 - krull_dimension(locus) >= k


# ---------------------------------------------------------------- shape checks

def test_expected_ranks():
    assert expected_ranks(resolve("z^5 - w^2", RW)) == (1,)
    C = resolve("x*z, x*w, y*z, y*w", R4)
    assert expected_ranks(C) == (1, 3, 1)
    K = koszul_complex((P("x", R3), P("y", R3), P("z", R3)))
    assert expected_ranks(K) == (1, 2, 1)


def test_rank_consistency():
    for C in (resolve("x*z, x*w, y*z, y*w", R4),
              koszul_complex((P("x", R3), P("y", R3), P("z", R3))),
              resolve("x^2, x*y, y^3", R2)):
        rho = expected_ranks(C)
        assert rho[0] == C.ranks[0]  # resolves a cyclic module
        for k in range(1, C.length):
            assert rho[k - 1] + rho[k] == C.ranks[k]
        assert rho[C.length - 1] == C.ranks[C.length]


def test_complex_property_enforced():
    with pytest.raises(StructuralError):
        FreeComplex(R2, (1, 1, 1), (PM(R2, [["x"]]), PM(R2, [["y"]])), False, None)
    with pytest.raises(StructuralError):
        FreeComplex(R2, (1, 2), (PM(R2, [["x"]]),), False, None)


def test_complex_refuses_a_map_over_another_ring():
    # read with R2's order key, the R3 minor [x] once certified as (True, ())
    for entry in ("x", "z"):
        with pytest.raises(StructuralError, match="map 1 lives in another ring"):
            FreeComplex(R2, (1, 1), (PM(R3, [[entry]]),))


def test_json_round_trip():
    C = resolve("x*z, x*w, y*z, y*w", R4)
    D = complex_from_json_dict(to_json_dict(C))
    assert D.ranks == C.ranks
    assert [m.to_strings() for m in D.maps] == [m.to_strings() for m in C.maps]
    assert D.shifts == C.shifts


# ---------------------------------------------------------------- rank loci

def test_rank_locus_cusp():
    C = resolve("z^5 - w^2", RW)
    locus, degenerate = rank_locus_ideal(C, 1, ideal("z^5 - w^2", RW))
    assert not degenerate
    assert krull_dimension(locus) == 1  # Z_1 = Z for a hypersurface


def test_rank_locus_two_planes_top():
    I = ideal("x*z, x*w, y*z, y*w", R4)
    C = minimalize(free_resolution(I))
    locus, degenerate = rank_locus_ideal(C, 3, I)
    assert not degenerate
    assert krull_dimension(locus) == 0


def test_rank_locus_koszul_pair():
    K = koszul_complex((P("x"), P("y")))
    locus, _ = rank_locus_ideal(K, 2, Ideal(R2, ()))
    assert krull_dimension(locus) == 0
    assert ideal_member(P("x"), locus) and ideal_member(P("y"), locus)


def test_rank_locus_out_of_range():
    C = resolve("z^5 - w^2", RW)
    with pytest.raises(ValidationError):
        rank_locus_ideal(C, 2, ideal("z^5 - w^2", RW))


def test_rank_locus_degenerate_convention():
    # rho_1 = 2 can never be attained by a 1x2 matrix: locus is everything
    C = FreeComplex(R2, (1, 2), (PM(R2, [["x", "y"]]),), False, None)
    locus, degenerate = rank_locus_ideal(C, 1, Ideal(R2, ()))
    assert degenerate
    assert locus.generators == ()


# ---------------------------------------------------------------- strata suite

def cusp_strata(p=5):
    I = ideal(f"z^{p} - w^2", RW)
    return strata(free_resolution(I), I), I


def test_strata_cusp():
    S, _ = cusp_strata()
    assert (S.d, S.p) == (1, 1)
    z0 = S.strata[0]
    assert not z0.empty
    assert z0.dim == 0 and z0.codim_in_z == 1
    assert all(S.strata[r].empty for r in S.strata if r >= 1)
    assert S.purity_ok


def test_strata_smooth():
    I = ideal("w - z^2", RingContext(("z", "w")))
    S = strata(free_resolution(I), I)
    assert S.strata[0].empty
    assert all(info.empty for info in S.strata.values())
    assert check_normality_condition(S)


def test_strata_two_planes():
    I = ideal("x*z, x*w, y*z, y*w", R4)
    S = strata(free_resolution(I), I)
    assert (S.d, S.p) == (2, 2)
    assert S.strata[1].dim == 0 and S.strata[1].codim_in_z == 2
    assert stratum(S, 2) is None  # beyond complex length: empty
    assert S.purity_ok


def test_strata_cone():
    I = ideal("x*z - y^2", R3)
    S = strata(free_resolution(I), I)
    assert (S.d, S.p) == (2, 1)
    assert S.strata[0].dim == 0 and S.strata[0].codim_in_z == 2


def test_strata_empty_variety_rejected():
    I = ideal("x - 1, x")  # unit ideal: no points
    with pytest.raises(ValidationError):
        strata(free_resolution(ideal("x, y")), I)


def test_strata_nesting():
    I = ideal("x*z, x*w, y*z, y*w", R4)
    C = free_resolution(I)
    S = strata(C, I)
    ks = sorted(S.zk_ideals)
    for a, b in zip(ks, ks[1:]):
        da = krull_dimension(S.zk_ideals[a])
        db = krull_dimension(S.zk_ideals[b])
        assert db <= da
        meet = Ideal(I.ring, S.zk_ideals[a].generators + S.zk_ideals[b].generators)
        assert krull_dimension(meet) == db  # V(Z_b) sits inside V(Z_a)


# ---------------------------------------------------------------- criteria

def test_cm_depth_suite():
    S, _ = cusp_strata()
    assert check_cm_depth(S) == (True, 1, 1)
    I = ideal("x*z, x*w, y*z, y*w", R4)
    S2 = strata(free_resolution(I), I)
    assert check_cm_depth(S2) == (False, 1, 1)
    I3 = ideal("w - z^2", RingContext(("z", "w")))
    S3 = strata(free_resolution(I3), I3)
    assert check_cm_depth(S3) == (True, 1, 1)
    I4 = ideal("x*z - y^2", R3)
    S4 = strata(free_resolution(I4), I4)
    assert check_cm_depth(S4) == (True, 2, 2)


def test_normality_suite():
    S, _ = cusp_strata()
    assert not check_normality_condition(S)
    assert normality_witness(S) == (0, 1)
    I = ideal("x*z - y^2", R3)
    assert check_normality_condition(strata(free_resolution(I), I))
    I2 = ideal("w - z^2", RingContext(("z", "w")))
    assert check_normality_condition(strata(free_resolution(I2), I2))


def test_bs_condition_suite():
    S, I = cusp_strata()
    holds, witness = check_bs_condition(S, Ideal(RW, (P("z", RW),)), 1)
    assert not holds and witness == (0, 1)
    I2 = ideal("w - z^2", RingContext(("z", "w")))
    S2 = strata(free_resolution(I2), I2)
    a2 = Ideal(I2.ring, (parse_polynomial("z", I2.ring),))
    assert check_bs_condition(S2, a2, 1) == (True, None)
    I3 = ideal("x*z - y^2", R3)
    S3 = strata(free_resolution(I3), I3)
    holds3, _ = check_bs_condition(S3, Ideal(R3, (P("x", R3),)), 1)
    assert holds3


def test_bs_condition_respects_budget():
    I = ideal("x*z - y^2, y*w - z^2, x*w - y*z", R4)  # twisted cubic
    S = strata(free_resolution(I), I)
    assert check_bs_condition(S, ideal("x, w", R4)) == (False, (0, 2))
    with pytest.raises(BudgetExceededError):
        check_bs_condition(S, ideal("x, w", R4), budget=1)


def test_bs_condition_charges_each_meet_in_order_of_r():
    # two planes meeting in a point: Z^0 and Z^1 are both nonempty; m = 1
    # passes r = 0 and fails at r = 1 after both meets, m = 2 fails at r = 0
    # and forms no second meet
    I = ideal("x*z, x*w, y*z, y*w", R4)
    S = strata(free_resolution(I), I)
    a = ideal("x - z, y - w", R4)
    for m, witness, units in ((1, (1, 2), 192), (2, (0, 2), 141)):
        budget = Budget(10 ** 6)
        assert check_bs_condition(S, a, m, budget=budget) == (False, witness)
        assert budget.total - budget.left == units
    with pytest.raises(BudgetExceededError):
        check_bs_condition(S, a, 1, budget=191)


def test_bs_condition_validates_m():
    S, _ = cusp_strata()
    with pytest.raises(ValidationError):
        check_bs_condition(S, Ideal(RW, (P("z", RW),)), 0)


# ------------------------------------------------- resolution independence

def test_strata_independent_of_resolution():
    """Complete intersection: Koszul vs minimalized iterated-syzygy chain."""
    I = Ideal(R3, (P("x*y", R3), P("z", R3)))
    K = koszul_complex(I.generators)
    ok, _ = check_acyclicity(K)
    assert ok  # regular sequence, so the Koszul complex resolves
    C = minimalize(free_resolution(I))
    assert C.ranks == K.ranks
    SK = strata(K, I)
    SC = strata(C, I)
    assert (SK.d, SK.p) == (SC.d, SC.p)
    for k in SK.zk_ideals:
        assert krull_dimension(SK.zk_ideals[k]) == krull_dimension(SC.zk_ideals[k])
    assert sorted(SK.strata) == sorted(SC.strata)
    for r in SK.strata:
        a, b = SK.strata[r], SC.strata[r]
        assert a.empty == b.empty
        if not a.empty:
            assert a.dim == b.dim and a.codim_in_z == b.codim_in_z
            # same variety: generators of one vanish on the other, up to power 4
            for g in a.ideal.generators:
                assert any(ideal_member(g ** j, b.ideal) for j in range(1, 5))
            for g in b.ideal.generators:
                assert any(ideal_member(g ** j, a.ideal) for j in range(1, 5))


def test_minors_helper():
    M = PM(R2, [["x", "y"], ["y", "x"]])
    assert sorted(str(m) for m in minors(M, 1)) == ["x", "y"]
    two = minors(M, 2)
    assert [str(m) for m in two] == ["x^2 - y^2"]


@st.composite
def sparse_matrix(draw, rows=None):
    """A 1-4 x 1-4 matrix over R3 whose entries are zero about one time in three."""
    exps = st.tuples(*[st.integers(0, 2)] * 3)
    coeff = st.sampled_from((1, -1, 2, -3))
    entry = st.one_of(st.just({}), st.dictionaries(exps, coeff, min_size=1, max_size=3),
                      st.dictionaries(exps, coeff, min_size=1, max_size=3))
    rows = draw(st.integers(1, 4)) if rows is None else rows
    cols = draw(st.integers(1, 4))
    return PolyMatrix(R3, [[Polynomial(R3, draw(entry)) for _ in range(cols)]
                           for _ in range(rows)])


@given(sparse_matrix(), st.integers(1, 4))
def test_minors_match_permutation_sums(M, k):
    assert minors(M, k) == minors_leibniz(M, k)


@given(sparse_matrix().flatmap(lambda A: st.tuples(st.just(A), sparse_matrix(rows=A.cols))))
def test_compose_matches_entrywise_sums(pair):
    A, B = pair
    AB = A.compose(B)
    assert (AB.rows, AB.cols) == (A.rows, B.cols)
    assert [list(row) for row in AB.entries] == compose_by_sum(A, B)


def test_compose_refuses_a_factor_over_another_ring():
    with pytest.raises(StructuralError, match="different rings"):
        PM(R2, [["x", "0"]]).compose(PM(R3, [["0"], ["z"]]))
