"""Newton-polyhedron closure of monomial ideals and containment checks."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (containment_witness_fullbox, member, newton_closure_fullbox,
                      newton_closure_minimalized, newton_facets_fraction, np_member,
                      np_member_bruteforce, staircase_fullbox, staircase_grid_blocked,
                      staircase_points)
import bsw.poly
from bsw import closure
from bsw.closure import (MonomialIdeal, _box_sides, _staircase_grid, bs_exponent,
                         bs_verify_monomial, closure_containment_witness, minimalize_antichain,
                         newton_closure, newton_facets)
from bsw.errors import ResourceCapError, StructuralError, ValidationError
from bsw.poly import RingContext, parse_polynomials
from bsw.session import parse_session, run_session

R2 = RingContext(("x", "y"))

exps2 = st.tuples(st.integers(0, 5), st.integers(0, 5))
exps3 = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
mono2 = st.builds(lambda g: MonomialIdeal(2, tuple(g)),
                  st.lists(exps2, min_size=1, max_size=4))
mono3 = st.builds(lambda g: MonomialIdeal(3, tuple(g)),
                  st.lists(exps3, min_size=1, max_size=4))


def M2(*exps):
    return MonomialIdeal(2, tuple(exps))


# ---------------------------------------------------------------- basics

def test_antichain_minimalization():
    assert M2((2, 0), (3, 1), (2, 0)).exponents == ((2, 0),)
    assert minimalize_antichain([(1, 2), (2, 1), (2, 2)]) == ((1, 2), (2, 1))
    assert minimalize_antichain([(0, 0), (1, 0)]) == ((0, 0),)


def test_construction_validation():
    with pytest.raises(ValidationError):
        M2((1, -1))
    with pytest.raises(StructuralError):
        M2((1, 2, 3))
    with pytest.raises(ValidationError):
        MonomialIdeal(2, ())


def test_zero_variable_ideal_is_refused():
    with pytest.raises(ValidationError, match="at least one variable"):
        MonomialIdeal(0, ((),))


def test_from_polynomials():
    M = MonomialIdeal.from_polynomials(parse_polynomials("x^2, y^2", R2))
    assert M.exponents == ((0, 2), (2, 0))
    with pytest.raises(ValidationError):
        MonomialIdeal.from_polynomials(parse_polynomials("x + y", R2))


def test_member_divisibility():
    M = M2((2, 0), (0, 2))
    assert member(M, (2, 5)) and member(M, (0, 2))
    assert not member(M, (1, 1))
    assert member(M2((0, 0)), (0, 0))  # unit ideal contains everything


def test_power(monkeypatch):
    M = M2((1, 0), (0, 1))
    assert M.power(2).exponents == ((0, 2), (1, 1), (2, 0))
    assert M.power(1).exponents == M.exponents
    with pytest.raises(ValidationError):
        M.power(0)
    monkeypatch.setattr(bsw.poly, "POWER_CAP", 3)
    with pytest.raises(ResourceCapError):
        M.power(5)


# ---------------------------------------------------------------- closure

def test_closure_examples():
    assert newton_closure(M2((2, 0), (0, 2))).exponents == ((0, 2), (1, 1), (2, 0))
    assert newton_closure(M2((3, 0), (0, 2))).exponents == ((0, 2), (2, 1), (3, 0))
    assert newton_closure(M2((4, 0), (0, 4))).exponents == (
        (0, 4), (1, 3), (2, 2), (3, 1), (4, 0))
    assert newton_closure(M2((1, 0), (0, 1))).exponents == ((0, 1), (1, 0))
    assert newton_closure(M2((2, 3))).exponents == ((2, 3),)
    # a staircase that is already integrally closed
    stairs = M2((2, 0), (1, 1), (0, 3))
    assert newton_closure(stairs).exponents == stairs.exponents


def test_closure_example_3d():
    M = MonomialIdeal(3, ((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    got = newton_closure(M).exponents
    assert got == tuple(sorted(
        e for e in itertools.product(range(3), repeat=3) if sum(e) == 2))


@given(mono2)
def test_closure_contains_ideal(M):
    C = newton_closure(M)
    assert all(member(C, e) for e in M.exponents)


@given(mono2)
def test_closure_idempotent(M):
    C = newton_closure(M)
    assert newton_closure(C) == C


@given(mono2, st.lists(exps2, max_size=2))
def test_closure_monotone(M, extra):
    N = MonomialIdeal(2, M.exponents + tuple(extra))
    CN = newton_closure(N)
    assert all(member(CN, e) for e in newton_closure(M).exponents)


@given(st.builds(lambda g: MonomialIdeal(2, tuple(g)),
                 st.lists(exps2, min_size=1, max_size=3)),
       st.builds(lambda g: MonomialIdeal(2, tuple(g)),
                 st.lists(exps2, min_size=1, max_size=3)))
def test_closure_submultiplicative(M, N):
    prod = MonomialIdeal(2, tuple(
        tuple(a + b for a, b in zip(u, v))
        for u in M.exponents for v in N.exponents))
    CP = newton_closure(prod)
    for u in newton_closure(M).exponents:
        for v in newton_closure(N).exponents:
            assert member(CP, tuple(a + b for a, b in zip(u, v)))


@given(mono2)
def test_closure_coordinate_symmetry(M):
    swap = lambda e: (e[1], e[0])
    MS = MonomialIdeal(2, tuple(swap(e) for e in M.exponents))
    assert newton_closure(MS).exponents == tuple(
        sorted(swap(e) for e in newton_closure(M).exponents))


# ---------------------------------------------------------------- facets

@given(mono2, st.integers(2, 3))
def test_power_facets_are_scaled_facets(M, e):
    facets_M = newton_facets(M)
    facets_Me = newton_facets(M.power(e))
    box = [e * max(g[j] for g in M.exponents) + 1 for j in range(2)]
    for v in itertools.product(*(range(b + 1) for b in box)):
        assert np_member(v, facets_Me) == np_member(v, facets_M, scale=e)


@given(mono3)
def test_facets_are_valid_and_monotone(M):
    for c, r in newton_facets(M):
        assert all(ci >= 0 for ci in c)
        assert all(sum(ci * gi for ci, gi in zip(c, g)) >= r for g in M.exponents)


@st.composite
def mono_upto4(draw):
    n = draw(st.integers(1, 4))
    exps = st.lists(st.tuples(*[st.integers(0, 6)] * n), min_size=1, max_size=6)
    return MonomialIdeal(n, tuple(draw(exps)))


@given(mono_upto4())
def test_integer_facets_match_fraction_elimination(M):
    assert newton_facets(M) == newton_facets_fraction(M.exponents)


def test_newton_projection_row_cap():
    M = MonomialIdeal(4, ((1, 5, 9, 0), (2, 3, 5, 7), (2, 9, 0, 7), (4, 5, 8, 4), (5, 2, 7, 5),
                          (5, 4, 5, 6), (5, 8, 2, 8), (7, 4, 4, 5), (8, 4, 5, 4)))
    with pytest.raises(ResourceCapError, match="^Newton projection exceeded the row cap$"):
        newton_facets(M)
    # just under the cap: the largest step forms 19,891 rows, and would
    # form 24,289 if equal rows were not merged after each step
    M = MonomialIdeal(4, ((1, 3, 4, 0), (1, 6, 2, 6), (2, 0, 0, 6), (2, 0, 4, 3), (5, 0, 5, 1),
                          (6, 1, 1, 2)))
    assert len(newton_facets(M)) == 18_709


@given(mono2, exps2)
def test_np_member_matches_bruteforce_2d(M, v):
    # in the plane a witness combines at most two generators, with a
    # multiplier denominator bounded by a coordinate difference (<= 5)
    facets = newton_facets(M)
    assert np_member(v, facets) == np_member_bruteforce(v, M.exponents, k_max=5)


@given(mono3, exps3)
def test_np_member_sound_3d(M, v):
    if np_member_bruteforce(v, M.exponents, k_max=8):
        assert np_member(v, newton_facets(M))


# ---------------------------------------------------------------- bs check

def test_bs_verify_examples():
    assert bs_verify_monomial(M2((2, 0), (0, 2)), 1) == (True, None)
    assert bs_verify_monomial(M2((3, 0), (0, 2)), 1) == (True, None)
    for ell in (1, 2, 3):
        assert bs_verify_monomial(M2((1, 0), (0, 1)), ell) == (True, None)


def test_bs_verify_sharpness():
    # exponent min(m,d)+ell-1 = 2 is needed: closure(M) itself escapes M
    M = M2((2, 0), (0, 2))
    assert closure_containment_witness(M, 1, M) == (1, 1)
    holds, counterexample = bs_verify_monomial(M, 1, d=1)
    assert not holds and counterexample == (1, 1)


def test_bs_verify_validation():
    M = M2((2, 0), (0, 2))
    with pytest.raises(ValidationError):
        bs_verify_monomial(M, 0)
    with pytest.raises(ValidationError):
        bs_verify_monomial(M, 1, d=0)


def test_witness_arity_mismatch():
    with pytest.raises(StructuralError):
        closure_containment_witness(M2((1, 0)), 1, MonomialIdeal(3, ((1, 0, 0),)))


@given(st.builds(lambda g: MonomialIdeal(2, tuple(g)),
                 st.lists(exps2, min_size=1, max_size=3)),
       st.integers(1, 2))
def test_closure_of_power_contained_in_itself(M, e):
    target = newton_closure(M.power(e))
    assert closure_containment_witness(M, e, target) is None


@st.composite
def walk_cases(draw):
    """An ideal M in 1-3 variables, a scale e in 1-3 and a target whose
    generators are those of M^e, each moved by -1, 0 or +1 per coordinate,
    so the closure of M^e falls inside some targets and not others."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 4)] * n)
    M = MonomialIdeal(n, tuple(draw(st.lists(exps, min_size=1, max_size=4))))
    e = draw(st.integers(1, 3))
    moves = st.tuples(*[st.integers(-1, 1)] * n)
    target = MonomialIdeal(n, tuple(
        tuple(max(0, a + d) for a, d in zip(g, draw(moves)))
        for g in M.power(e).exponents))
    return M, e, target


@given(walk_cases())
def test_staircase_walk_matches_full_box_scan(case):
    M, e, target = case
    facets = newton_facets(M)
    assert staircase_points(M, e) == staircase_fullbox(M.exponents, facets, e)
    assert newton_closure(M).exponents == newton_closure_fullbox(M.exponents, facets)
    assert closure_containment_witness(M, e, target) == containment_witness_fullbox(
        M.exponents, facets, e, lambda v: member(target, v))


@st.composite
def walk_cases_4d(draw):
    """As walk_cases, in 4 variables with exponents <= 2 and scale <= 2,
    so the full-box oracles stay small."""
    exps = st.tuples(*[st.integers(0, 2)] * 4)
    M = MonomialIdeal(4, tuple(draw(st.lists(exps, min_size=1, max_size=4))))
    e = draw(st.integers(1, 2))
    moves = st.tuples(*[st.integers(-1, 1)] * 4)
    target = MonomialIdeal(4, tuple(
        tuple(max(0, a + d) for a, d in zip(g, draw(moves)))
        for g in M.power(e).exponents))
    return M, e, target


@settings(max_examples=25)
@given(walk_cases_4d())
def test_staircase_walk_matches_full_box_scan_4d(case):
    M, e, target = case
    facets = newton_facets(M)
    assert staircase_points(M, e) == staircase_fullbox(M.exponents, facets, e)
    assert newton_closure(M).exponents == newton_closure_fullbox(M.exponents, facets)
    assert closure_containment_witness(M, e, target) == containment_witness_fullbox(
        M.exponents, facets, e, lambda v: member(target, v))


def _walk_outputs(M, e, target):
    return staircase_points(M, e), newton_closure(M), closure_containment_witness(M, e, target)


@given(walk_cases())
def test_staircase_object_dtype_matches_int64(case):
    # a limit of 0 sends every ideal down the Python-int path
    int64 = _walk_outputs(*case)
    with mock.patch.object(closure, "EXACT_INT64", 0):
        exact = _walk_outputs(*case)
    assert exact == int64
    points = exact[0] + ([exact[2]] if exact[2] else [])
    assert all(type(x) is int for v in points for x in v)


@st.composite
def grid_cases(draw):
    """An ideal in 1-4 variables whose generators may lie on an axis or
    repeat, and a scale in 1-3."""
    n = draw(st.integers(1, 4))
    top = 6 if n < 4 else 3
    on_axis = st.builds(lambda j, a: tuple(a * (i == j) for i in range(n)),
                        st.integers(0, n - 1), st.integers(1, top))
    gens = draw(st.lists(st.tuples(*[st.integers(0, top)] * n) | on_axis, min_size=1, max_size=5))
    gens += draw(st.lists(st.sampled_from(gens), max_size=2))
    return MonomialIdeal(n, tuple(gens)), draw(st.integers(1, 3))


def _assert_grid_matches_blocked(M, e):
    sides = _box_sides(M, e)
    want = staircase_grid_blocked(M, e, sides)
    got = _staircase_grid(M, e, sides)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


@given(grid_cases())
def test_facet_broadcast_grid_matches_blocked_grid(case):
    _assert_grid_matches_blocked(*case)
    with mock.patch.object(closure, "EXACT_INT64", 0):
        _assert_grid_matches_blocked(*case)


def test_facet_broadcast_grid_over_many_redundant_facets():
    # Fourier-Motzkin leaves 18,709 inequalities here, 18 of them facets of NP
    M = MonomialIdeal(4, ((1, 3, 4, 0), (1, 6, 2, 6), (2, 0, 0, 6), (2, 0, 4, 3), (5, 0, 5, 1),
                          (6, 1, 1, 2)))
    assert len(newton_facets(M)) == 18_709
    _assert_grid_matches_blocked(M, 1)


def test_one_variable_closure_and_witness():
    M = MonomialIdeal(1, ((3,),))
    assert staircase_points(M, 2) == [(6,)]
    assert newton_closure(M).exponents == ((3,),)
    assert closure_containment_witness(M, 1, MonomialIdeal(1, ((4,),))) == (3,)
    assert closure_containment_witness(M, 2, MonomialIdeal(1, ((6,),))) is None
    rep = run_session(parse_session("ring t;\nideal T = t^3;\nnewton-closure T;\n"))
    assert rep["blocks"][0]["status"] == "ok"
    assert rep["blocks"][0]["result"]["closure"] == ["t^3"]


@st.composite
def closure_cases(draw):
    """An ideal in 1-4 variables whose generators may lie on the axes
    and may repeat."""
    n = draw(st.integers(1, 4))
    anywhere = st.tuples(*[st.integers(0, 6)] * n)
    on_axis = st.builds(lambda i, k: tuple(k * (j == i) for j in range(n)),
                        st.integers(0, n - 1), st.integers(0, 6))
    gens = draw(st.lists(anywhere | on_axis, min_size=1, max_size=6))
    gens += draw(st.lists(st.sampled_from(gens), max_size=2))
    return MonomialIdeal(n, tuple(gens))


@settings(max_examples=200)
@given(closure_cases())
def test_neighbour_test_matches_minimalized_staircase(M):
    assert newton_closure(M).exponents == newton_closure_minimalized(M)


def test_closure_does_not_minimalize_its_own_output():
    M = MonomialIdeal(4, ((36, 0, 0, 0), (0, 36, 0, 0), (0, 0, 36, 0), (0, 0, 0, 36),
                          (1, 2, 3, 5)))
    with mock.patch.object(closure, "minimalize_antichain", side_effect=AssertionError):
        assert len(newton_closure(M).exponents) == 3_914


def test_bs_exponent_is_min_m_d_plus_ell_minus_one():
    M = MonomialIdeal(3, ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)))  # m = 4
    assert bs_exponent(M, 1) == (3, 3)  # d defaults to the variable count
    assert bs_exponent(M, 2, d=2) == (2, 3)
    assert bs_exponent(M, 2, d=7) == (7, 5)
    with pytest.raises(ValidationError, match="ell must be at least 1"):
        bs_exponent(M, 0, d=0)  # ell is checked before d
    with pytest.raises(ValidationError, match="d must be at least 1"):
        bs_exponent(M, 1, d=0)
