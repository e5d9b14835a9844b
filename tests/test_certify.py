"""Exactness certificate from the rho_k-minors alone, and the minors it shares with strata."""

import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bsw import resolution
from bsw.errors import BudgetExceededError, ResourceCapError, ValidationError
from bsw.groebner import Ideal, monomial_dimension
from bsw.modgb import Budget
from bsw.poly import Polynomial, RingContext, parse_polynomial, parse_polynomials
from bsw.resolution import (FreeComplex, PolyMatrix, check_acyclicity, expected_ranks,
                            free_resolution, koszul_complex, rank_locus_ideal, strata)

from _oracles import check_acyclicity_full, rank_at

R1 = RingContext(("x",))
R2 = RingContext(("x", "y"))
R3 = RingContext(("x", "y", "z"))
R4 = RingContext(("a", "b", "c", "d"))
R5 = RingContext(("a", "b", "c", "d", "e"))
TC = "a*c - b^2, a*d - b*c, b*d - c^2"
RNC4 = "a*c - b^2, a*d - b*c, a*e - b*d, b*d - c^2, b*e - c*d, c*e - d^2"


def PM(ring, rows):
    return PolyMatrix(ring, [[parse_polynomial(s, ring) for s in row] for row in rows])


def zero_map(ring, rows, cols):
    return PolyMatrix(ring, [[Polynomial.zero(ring)] * cols for _ in range(rows)], cols_hint=cols)


def test_negative_expected_rank_is_the_unit_ideal():
    # rho_1 = 1 - 2 = -1: the parent asked for 0-minors and raised
    C = FreeComplex(R2, (1, 1, 2), (PM(R2, [["x"]]), PM(R2, [["0", "0"]])))
    assert check_acyclicity(C) == (False, ((2, "expected rank 2 exceeds matrix size"),))
    locus, degenerate = rank_locus_ideal(C, 1, Ideal(R2, ()))
    assert [str(g) for g in locus.generators] == ["1"] and not degenerate


def test_zero_expected_rank_is_the_unit_ideal():
    # rho_1 = 0: I_0(f_1) = (1), so level 1 passes and only level 2 fails
    C = FreeComplex(R2, (1, 1, 1), (PM(R2, [["x"]]), PM(R2, [["0"]])))
    assert check_acyclicity(C) == (False, ((2, "all 1-minors vanish"),))
    locus, degenerate = rank_locus_ideal(C, 1, Ideal(R2, ()))
    assert [str(g) for g in locus.generators] == ["1"] and not degenerate


def test_strata_of_the_non_exact_complex_warns_that_rho_2_is_too_large():
    C = FreeComplex(R2, (1, 1, 2), (PM(R2, [["x"]]), PM(R2, [["0", "0"]])))
    S = strata(C, Ideal(R2, ()))
    assert S.degenerate == ("rho_2 exceeds the size of f_2; Z_2 = Z",)
    assert (S.d, S.p, S.strata[2].dim, S.strata[2].codim_in_z) == (2, 0, 2, 0)
    assert not S.purity_ok


def test_split_complex_longer_than_the_ring_is_exact():
    # R <-1- R <-0- R <-1- R is split exact; its unit minor ideals cut out
    # the empty set, whose codimension is infinite, not n + 1 = 2 < 3
    C = FreeComplex(R1, (1, 1, 1, 1), (PM(R1, [["1"]]), PM(R1, [["0"]]), PM(R1, [["1"]])))
    assert check_acyclicity(C) == (True, ())


def test_strata_reuses_the_certified_minors(monkeypatch):
    I = Ideal(R4, tuple(parse_polynomials("a*c - b^2, a*d - b*c, b*d - c^2", R4)))
    sizes = []
    real = resolution.minors

    def counted(M, size, budget=None):
        sizes.append(size)
        return real(M, size, budget)

    monkeypatch.setattr(resolution, "minors", counted)
    C = free_resolution(I)
    S = strata(C, I)
    # one list per map while certifying, then one for the Jacobian
    assert sizes == list(expected_ranks(C)) + [S.p]


def units_spent(ring, text, certify):
    meter = Budget(10**6)
    free_resolution(Ideal(ring, tuple(parse_polynomials(text, ring))), certify=certify,
                    budget=meter)
    return meter.total - meter.left


@pytest.mark.parametrize("ring, text", [(R4, TC), (R5, RNC4)])
def test_leading_monomials_certify_graded_resolutions_for_free(ring, text):
    # every level passes on its minors' leading monomials, with no Buchberger run:
    # certifying costs only the sub-determinants its minors are built from
    C = free_resolution(Ideal(ring, tuple(parse_polynomials(text, ring))), certify=False)
    meter = Budget(10**6)
    C.rank_minors_on(meter)
    minors_units = meter.total - meter.left
    assert minors_units > 0
    assert units_spent(ring, text, True) == units_spent(ring, text, False) + minors_units


K5 = "a^2, b^2, c^2, d^2, e^2"


def test_certification_spends_a_unit_per_distinct_sub_determinant(monkeypatch):
    C = free_resolution(Ideal(R5, tuple(parse_polynomials(K5, R5))), certify=False)
    built, memos = set(), []
    real = resolution._det

    def recorded(entries, rows, cols, memo, ring, budget):
        if not any(m is memo for m in memos):
            memos.append(memo)  # kept alive, so no two memos share an id
        built.add((id(memo), rows, cols))
        return real(entries, rows, cols, memo, ring, budget)

    monkeypatch.setattr(resolution, "_det", recorded)
    meter = Budget(10**6)
    assert check_acyclicity(C, budget=meter) == (True, ())
    assert meter.total - meter.left >= len(built) > 90_000
    # a second read of the same complex's minors costs nothing
    again = Budget(10**6)
    assert check_acyclicity(C, budget=again) == (True, ())
    assert again.left == again.total


def test_budget_bounds_the_minors_of_a_certified_resolution():
    # K6 certified builds more than 500,000 sub-determinants; unmetered, they
    # ran on past any budget
    R6 = RingContext(tuple("abcdef"))
    I = Ideal(R6, tuple(parse_polynomials("a^2, b^2, c^2, d^2, e^2, f^2", R6)))
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as exc:
        free_resolution(I, budget=20_000)
    assert exc.value.spent == 20_001
    assert time.perf_counter() - start < 5.0


def test_strata_builds_the_jacobian_minors_on_its_meter(monkeypatch):
    I = Ideal(R4, tuple(parse_polynomials(TC, R4)))
    C = free_resolution(I)
    meters = []
    real = resolution.minors

    def recorded(M, size, budget=None):
        meters.append(budget)
        return real(M, size, budget)

    monkeypatch.setattr(resolution, "minors", recorded)
    meter = Budget(10**6)
    strata(C, I, budget=meter)
    # the rank minors were built while certifying; only the Jacobian's are new
    assert meters == [meter]


def test_fallback_runs_only_where_no_order_reaches_the_level(monkeypatch):
    I = Ideal(R3, tuple(parse_polynomials("x^2 - y^3, x*z - y^4, z^2 - x*y^5", R3)))
    C = free_resolution(I, certify=False)
    asked = []
    real = resolution.krull_dimension

    def recorded(J, budget=None):
        asked.append(J.generators)
        return real(J, budget=budget)

    monkeypatch.setattr(resolution, "krull_dimension", recorded)
    assert check_acyclicity(C) == (True, ())
    # level 2 passes on lex in the order z > x > y though its ring-order bound is codim 1;
    # no order reaches codim 3 at level 3, so only that level runs Buchberger
    ring_order_bound = 3 - monomial_dimension((p.leading_term()[0] for p in C.rank_minors_on(None)[1]), 3)
    assert ring_order_bound == 1
    assert asked == [C.rank_minors_on(None)[2]]


@pytest.mark.parametrize("elems", ["x, x*y", "x^2, x*y, y^2"])
def test_non_exact_koszul_failures_match_the_full_check(elems):
    # no order's leading monomials reach the failing level, so its exact codim is quoted
    K = koszul_complex(parse_polynomials(elems, R2))
    assert check_acyclicity(K) == check_acyclicity_full(K)
    assert not check_acyclicity(K)[0]


# ---------------------------------------------------------------- properties

coeffs = st.integers(-2, 2).filter(lambda c: c != 0)


@st.composite
def polys(draw, ring, proper=False):
    p = Polynomial.zero(ring)
    for _ in range(draw(st.integers(1, 3))):
        e = list(draw(st.tuples(*[st.integers(0, 2)] * ring.n)))
        if proper and not any(e):
            e[0] = 1
        p = p + Polynomial.monomial(ring, tuple(e), draw(coeffs))
    assume(not p.is_zero())
    return p


@st.composite
def koszul_complexes(draw, ring):
    elems = draw(st.lists(polys(ring), min_size=1, max_size=3))
    repeat = draw(st.sampled_from(["none", "same", "multiple"]))
    if len(elems) < 3 and repeat == "same":
        elems.append(elems[0])
    elif len(elems) < 3 and repeat == "multiple":
        elems.append(elems[0] * Polynomial.variable(ring, len(elems) % ring.n))
    return koszul_complex(elems)


@st.composite
def complexes_with_zero_maps(draw, ring):
    if draw(st.booleans()):
        ranks = draw(st.lists(st.integers(0, 3), min_size=2, max_size=5))
        maps = [zero_map(ring, a, b) for a, b in zip(ranks, ranks[1:])]
        return FreeComplex(ring, tuple(ranks), tuple(maps))
    K = draw(koszul_complexes(ring))
    top = draw(st.integers(1, 2))
    return FreeComplex(ring, K.ranks + (top,), K.maps + (zero_map(ring, K.ranks[-1], top),))


@st.composite
def resolutions(draw, ring):
    gens = draw(st.lists(polys(ring, proper=True), min_size=1, max_size=3))
    # a non-graded chain can take one step past the n of Hilbert's theorem
    try:
        return free_resolution(Ideal(ring, tuple(gens)), max_len=ring.n + 1, certify=False)
    except (ResourceCapError, ValidationError):
        assume(False)


@st.composite
def complexes(draw):
    ring = draw(st.sampled_from([R2, R3]))
    kind = draw(st.sampled_from([koszul_complexes, complexes_with_zero_maps, resolutions]))
    return draw(kind(ring))


points = st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=3, max_size=3)


@settings(max_examples=150)
@given(complexes(), points)
def test_rank_minors_certificate_matches_the_full_check(C, pts):
    ok, failures = check_acyclicity(C)
    ok_full, failures_full = check_acyclicity_full(C)
    assert ok == ok_full
    # only a level the full check settles by a nonzero (rho_k+1)-minor may read differently
    rank_levels = {k for k, why in failures_full if why.endswith("-minor is nonzero")}
    assert ([f for f in failures if f[0] not in rank_levels]
            == [f for f in failures_full if f[0] not in rank_levels])
    if ok:
        for point in pts:
            for M, rho in zip(C.maps, expected_ranks(C)):
                assert rank_at(M, point[:C.ring.n]) <= rho
