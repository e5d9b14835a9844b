"""Numerical semigroups, germ ideals, containment exponents, mu search."""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bsw import semigroup
from bsw.errors import ResourceCapError, ValidationError
from bsw.semigroup import (NumericalSemigroup, SemigroupIdeal, closure_ideal,
                           containment_holds, enumerate_ideals,
                           germ_bs_exponent, germ_closure_member,
                           germ_ideal_member, huneke_mu, ideal_power,
                           semigroup_build, semigroup_ideal)

from _oracles import genus, members_below

S25 = semigroup_build((2, 5))
S23 = semigroup_build((2, 3))
DVR = semigroup_build((1,))


def ideal(*shifts, S=S25):
    return semigroup_ideal(S, shifts)


# ---------------------------------------------------------------- build

def test_build_examples():
    assert (S25.gaps, S25.conductor, genus(S25)) == ((1, 3), 4, 2)
    assert (S23.gaps, S23.conductor) == ((1,), 2)
    assert (DVR.gaps, DVR.conductor) == ((), 0)
    S = semigroup_build((3, 5, 7))
    assert (S.gaps, S.conductor, genus(S)) == ((1, 2, 4), 5, 3)
    S2 = semigroup_build((4, 6, 9))
    assert (S2.gaps, S2.conductor) == ((1, 2, 3, 5, 7, 11), 12)


def test_build_canonicalizes():
    assert semigroup_build((5, 2, 5)) == S25


def test_build_validation():
    with pytest.raises(ValidationError):
        semigroup_build((2, 4))
    with pytest.raises(ValidationError):
        semigroup_build((0, 3))
    with pytest.raises(ValidationError):
        semigroup_build(())


def test_membership_table():
    assert [s for s in range(8) if S25.contains(s)] == [0, 2, 4, 5, 6, 7]
    assert not S25.contains(-2)
    assert members_below(S25, 6) == [0, 2, 4, 5]


gen_lists = st.lists(st.integers(2, 12), min_size=1, max_size=3).map(
    lambda xs: tuple(xs) + (max(xs) + 1,))  # consecutive pair forces gcd 1


@given(gen_lists)
def test_build_properties(gens):
    S = semigroup_build(gens)
    if S.conductor > 0:
        assert not S.contains(S.conductor - 1)
    assert all(S.contains(s) for s in range(S.conductor, S.conductor + max(gens)))
    assert all(g < S.conductor and not S.contains(g) for g in S.gaps)
    members = members_below(S, S.conductor + max(gens))
    for a in members[:6]:
        for b in members[:6]:
            assert S.contains(a + b)


# ---------------------------------------------------------------- ideals

def test_ideal_minimalization():
    assert ideal(2, 4).shifts == (2,)
    assert ideal(4, 5).shifts == (4, 5)
    assert ideal(5, 7, 9).shifts == (5,)
    assert ideal(4, 7).shifts == (4, 7)
    assert ideal(4, 5).valuation == 4


def test_ideal_validation():
    with pytest.raises(ValidationError):
        ideal(3)  # 3 is a gap of <2, 5>
    with pytest.raises(ValidationError):
        ideal(0)
    with pytest.raises(ValidationError):
        semigroup_ideal(S25, ())


def test_member_examples():
    A = ideal(2)
    assert germ_ideal_member(2, A, S25)
    assert germ_ideal_member(4, A, S25)
    assert not germ_ideal_member(5, A, S25)
    assert germ_ideal_member(7, A, S25)
    with pytest.raises(ValidationError):
        germ_ideal_member(3, A, S25)


def test_closure_member_examples():
    assert germ_closure_member(5, ideal(4), S25)
    assert germ_closure_member(4, ideal(4, 5), S25)
    assert not germ_closure_member(2, ideal(5), S25)


def test_ideal_power():
    assert ideal_power(ideal(2), 3, S25).shifts == (6,)
    assert ideal_power(ideal(4, 5), 2, S25).shifts == (8, 9)
    with pytest.raises(ValidationError):
        ideal_power(ideal(2), 0, S25)
    with pytest.raises(ResourceCapError):
        ideal_power(ideal(4, 5), 9, S25, cap=5)


def test_closure_ideal_examples():
    assert closure_ideal(ideal(2), S25).shifts == (2, 5)
    assert closure_ideal(ideal(4), S25).shifts == (4, 5)
    assert closure_ideal(ideal(4, 5), S25).shifts == (4, 5)


# ---------------------------------------------------------------- exponents

def test_exponent_examples():
    assert germ_bs_exponent(ideal(2), 1, S25, with_witness=True) == (3, 5)
    assert germ_bs_exponent(ideal(2), 2, S25) == 4
    assert germ_bs_exponent(ideal(4, 5), 1, S25, with_witness=True) == (1, None)
    assert germ_bs_exponent(semigroup_ideal(S23, (2,)), 1, S23) == 2


def test_exponent_cusp_family():
    for p in (3, 5, 7):
        Sp = semigroup_build((2, p))
        A = semigroup_ideal(Sp, (2,))
        assert germ_bs_exponent(A, 1, Sp) == (p + 1) // 2


def test_exponent_dvr():
    for ell in (1, 2, 3):
        assert germ_bs_exponent(semigroup_ideal(DVR, (3,)), ell, DVR) == ell
        assert germ_bs_exponent(semigroup_ideal(DVR, (1,)), ell, DVR) == ell


def test_exponent_closure_power_mode():
    assert germ_bs_exponent(ideal(2), 1, S25, mode="closure-power") == 2
    with pytest.raises(ValidationError):
        germ_bs_exponent(ideal(2), 1, S25, mode="radical")
    with pytest.raises(ValidationError):
        germ_bs_exponent(ideal(2), 0, S25)


def test_containment_failure_element():
    holds, failure = containment_holds(ideal(2), 2, 1, S25)
    assert not holds and failure == 5
    assert S25.contains(5) and not germ_ideal_member(5, ideal(2), S25)


semigroups = st.sampled_from([S25, S23, semigroup_build((3, 5)),
                              semigroup_build((3, 4)), semigroup_build((2, 7))])


@st.composite
def germ_cases(draw):
    S = draw(semigroups)
    pool = [s for s in members_below(S, S.conductor + 8) if s >= 1]
    shifts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    return S, semigroup_ideal(S, shifts)


@given(germ_cases(), st.integers(1, 3))
def test_exponent_is_minimal_and_stable(case, ell):
    S, A = case
    N, witness = germ_bs_exponent(A, ell, S, with_witness=True)
    assert containment_holds(A, N, ell, S) == (True, None)
    assert containment_holds(A, N + 1, ell, S) == (True, None)
    if N > 1:
        holds, failure = containment_holds(A, N - 1, ell, S)
        assert not holds and failure == witness
        assert S.contains(witness)
        assert not germ_ideal_member(witness, ideal_power(A, ell, S), S)
    else:
        assert witness is None


@given(germ_cases(), st.integers(1, 3))
def test_closure_power_mode_dominated(case, ell):
    S, A = case
    strong = germ_bs_exponent(A, ell, S, mode="closure-power")
    assert strong <= germ_bs_exponent(A, ell, S, mode="power")
    assert strong >= ell


@given(germ_cases(), st.integers(1, 3))
def test_truncation_window_is_sufficient(case, ell):
    S, A = case
    bound = ell * A.valuation + S.conductor
    Al = ideal_power(A, ell, S)
    for s in range(bound, bound + 8):
        if S.contains(s):
            assert germ_ideal_member(s, Al, S)


# ---------------------------------------------------------------- mu search

def test_enumerate_small():
    assert [A.shifts for A in enumerate_ideals(S25, 2)] == [(2,), (2, 5)]
    assert [A.shifts for A in enumerate_ideals(S25, 5)] == [
        (2,), (2, 5), (4,), (4, 5), (4, 7), (5,), (5, 6), (5, 8)]
    assert sum(1 for _ in enumerate_ideals(S25, 12)) == 29


def test_enumerate_yields_minimal_antichains():
    seen = set()
    for A in enumerate_ideals(S25, 12):
        assert A.shifts not in seen
        seen.add(A.shifts)
        assert A.valuation <= 12
        assert semigroup_ideal(S25, A.shifts).shifts == A.shifts


def test_enumerate_validation():
    with pytest.raises(ValidationError):
        list(enumerate_ideals(S25, 0))


def test_mu_examples():
    mu, A, ell = huneke_mu(S25, 12, 4)
    assert (mu, A.shifts, ell) == (3, (2,), 1)
    mu2, A2, ell2 = huneke_mu(S23, 12, 4)
    assert (mu2, A2.shifts, ell2) == (2, (2,), 1)


def test_mu_monotone_in_gauge():
    small = huneke_mu(S25, 6, 2)[0]
    assert small <= huneke_mu(S25, 12, 4)[0]


def test_mu_caps_and_validation():
    with pytest.raises(ResourceCapError):
        huneke_mu(S25, 12, 1, cap=5)
    with pytest.raises(ValidationError):
        huneke_mu(S25, 12, 0)
    with pytest.raises(ValidationError):
        huneke_mu(S25, 0, 1)


def test_mu_value_rechecks():
    # every enumerated case stays within the reported uniform exponent
    mu = huneke_mu(S25, 8, 3)[0]
    for A in enumerate_ideals(S25, 8):
        for ell in (1, 2, 3):
            assert germ_bs_exponent(A, ell, S25) - ell + 1 <= mu


def test_searches_build_each_power_once(monkeypatch):
    built = []

    def counting_power(A, ell, S, *args):
        built.append((A, ell))
        return ideal_power(A, ell, S, *args)

    monkeypatch.setattr(semigroup, "ideal_power", counting_power)
    # N = 4 is found in the fourth round, and A^2 is built once
    assert germ_bs_exponent(ideal(2), 2, S25) == 4
    assert built == [(ideal(2), 2)]
    built.clear()
    S = semigroup_build((5, 7, 9))
    huneke_mu(S, 20, 4)
    assert built == [(A, ell) for A in enumerate_ideals(S, 20) for ell in range(1, 5)]
