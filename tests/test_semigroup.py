"""Numerical semigroups, germ ideals, containment exponents, mu search."""

from math import ceil, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bsw.poly
from bsw import semigroup
from bsw.errors import ResourceCapError, StructuralError, ValidationError
from bsw.semigroup import (NumericalSemigroup, SemigroupIdeal, closure_ideal,
                           containment_holds, enumerate_ideals,
                           germ_bs_exponent, germ_closure_member,
                           germ_ideal_member, huneke_mu,
                           semigroup_build, semigroup_ideal)
from bsw.session import parse_session, run_session

from _oracles import (TableSemigroup, containment_holds_scan, enumerate_ideals_scan, gaps,
                      genus, germ_bs_exponent_scan, huneke_mu_scan, ideal_power, members_below,
                      minimal_shifts_greedy)

S25 = semigroup_build((2, 5))
S23 = semigroup_build((2, 3))
DVR = semigroup_build((1,))


def ideal(*shifts, S=S25):
    return semigroup_ideal(S, shifts)


# ---------------------------------------------------------------- build

def test_build_examples():
    assert (gaps(S25), S25.conductor, genus(S25)) == ((1, 3), 4, 2)
    assert (gaps(S23), S23.conductor) == ((1,), 2)
    assert (gaps(DVR), DVR.conductor) == ((), 0)
    S = semigroup_build((3, 5, 7))
    assert (gaps(S), S.conductor, genus(S)) == ((1, 2, 4), 5, 3)
    S2 = semigroup_build((4, 6, 9))
    assert (gaps(S2), S2.conductor) == ((1, 2, 3, 5, 7, 11), 12)


def test_build_lists_no_gaps(monkeypatch):
    # the gaps are stored once, as gap_mask; no tuple of them is built
    calls = []
    monkeypatch.setattr(semigroup, "_bits", lambda mask: calls.append(mask) or ())
    for gens in ((2, 5), (4, 6, 9), (1000, 1099)):
        semigroup_build(gens)
    assert calls == []


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
    assert all(g < S.conductor and not S.contains(g) for g in gaps(S))
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


def test_ideal_power(monkeypatch):
    assert ideal_power(ideal(2), 3, S25).shifts == (6,)
    assert ideal_power(ideal(4, 5), 2, S25).shifts == (8, 9)
    with pytest.raises(ValidationError):
        ideal_power(ideal(2), 0, S25)
    monkeypatch.setattr(bsw.poly, "POWER_CAP", 5)
    with pytest.raises(ResourceCapError):
        ideal_power(ideal(4, 5), 9, S25)


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


@given(st.lists(st.integers(1, 12), min_size=1, max_size=4).filter(lambda g: gcd(*g) == 1),
       st.integers(1, 24))
def test_enumerate_matches_the_scan(gens, v_max):
    assert ([A.shifts for A in enumerate_ideals(semigroup_build(gens), v_max)]
            == [A.shifts for A in enumerate_ideals_scan(TableSemigroup(gens), v_max)])


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


def test_mu_caps_and_validation(monkeypatch):
    monkeypatch.setattr(semigroup, "MU_CAP", 5)
    with pytest.raises(ResourceCapError):
        huneke_mu(S25, 12, 1)
    with pytest.raises(ValidationError):
        huneke_mu(S25, 12, 0)
    with pytest.raises(ValidationError):
        huneke_mu(S25, 0, 1)


def test_mu_needs_no_cap_on_the_conductor():
    # the conductor, 200, does not bound the search: "power" mode reads N off
    # A^ell, so only A^1 is built, though ell + ceil(conductor / v) + 1 = 102
    S = semigroup_build((2, 201))
    mu, A, ell = huneke_mu(S, 2, 1)
    assert (mu, A.shifts, ell) == (101, (2,), 1)
    assert (mu, A.shifts, ell) == huneke_mu_scan(TableSemigroup((2, 201)), 2, 1)


@pytest.mark.parametrize("mode, ell", [("power", 1001), ("closure-power", 998)])
def test_search_bound_is_the_last_power_built(mode, ell):
    # "power" builds A^1..A^ell; "closure-power" also tries N up to ell + 3 on <2, 5>
    with pytest.raises(ResourceCapError, match=r"^exponent search bound 1001 exceeds the cap 1000$"):
        germ_bs_exponent(ideal(2), ell, S25, mode=mode)
    assert germ_bs_exponent(ideal(2), ell - 1, S25, mode=mode) >= ell - 1


@pytest.mark.parametrize("mode, N, ell", [("power", 1, 10**6), ("closure-power", 1, 10**6),
                                          ("closure-power", 10**6, 1)])
def test_containment_holds_bounds_the_powers_it_builds(mode, N, ell):
    # a one-shift ideal never trips the power cap, so A^ell and (closure A)^N,
    # built here when no search passes them in, are bounded as a search's last power
    with pytest.raises(ResourceCapError,
                       match=r"^exponent search bound 1000000 exceeds the cap 1000$"):
        containment_holds(ideal(2), N, ell, S25, mode=mode)
    assert containment_holds(ideal(2), 1000, 998, S25, mode=mode) == (True, None)


def test_mu_value_rechecks():
    # every enumerated case stays within the reported uniform exponent
    mu = huneke_mu(S25, 8, 3)[0]
    for A in enumerate_ideals(S25, 8):
        for ell in (1, 2, 3):
            assert germ_bs_exponent(A, ell, S25) - ell + 1 <= mu


def test_searches_build_each_power_once(monkeypatch):
    built, powers = [], semigroup._powers

    def counting_powers(shifts, *args):
        built.append(shifts)
        return powers(shifts, *args)

    monkeypatch.setattr(semigroup, "_powers", counting_powers)
    # N = 4 is read off A^2, and A^2 is built once
    assert germ_bs_exponent(ideal(2), 2, S25) == 4
    assert built == [(2,)]
    built.clear()
    S = semigroup_build((5, 7, 9))
    huneke_mu(S, 20, 4)
    # A^1..A^4 come from one pass per ideal
    assert built == [A.shifts for A in enumerate_ideals(S, 20)]


S10 = semigroup_build(range(10, 20))


@pytest.mark.parametrize("mode", ["power", "closure-power"])
def test_power_cap_refusal_names_the_requested_power(mode):
    # the cap is checked at ell = 40 itself, not at the first ell' < 40 over the cap
    A = semigroup_ideal(S10, range(10, 20))
    with pytest.raises(ResourceCapError, match=r"^ideal power would need 2054455634 products "
                                               r"\(cap 200000\)$"):
        germ_bs_exponent(A, 40, S10, mode=mode)


def test_mu_power_cap_refusal_follows_the_search_order():
    # the first (ideal, ell) in search order whose power is over the cap
    with pytest.raises(ResourceCapError, match=r"^ideal power would need 201376 products "
                                               r"\(cap 200000\)$"):
        huneke_mu(S10, 12, 40)


@st.composite
def mu_cases(draw):
    gens = draw(st.lists(st.integers(2, 12), min_size=2, max_size=4, unique=True)
                .filter(lambda g: gcd(*g) == 1))
    return gens, draw(st.integers(min(gens), 2 * min(gens))), draw(st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(mu_cases())
def test_mu_matches_the_scan(case):
    gens, v_max, ell_max = case
    mu, A, ell = huneke_mu(semigroup_build(gens), v_max, ell_max)
    assert (mu, A.shifts, ell) == huneke_mu_scan(TableSemigroup(gens), v_max, ell_max)


# ------------------------------------------------- bit masks against the scans

def outcome(fn, *args, **kw):
    """What fn returns, or the type of the package error it raises."""
    try:
        return fn(*args, **kw)
    except (ValidationError, ResourceCapError, StructuralError) as exc:
        return type(exc)


@st.composite
def scan_cases(draw):
    gens = draw(st.lists(st.integers(1, 15), min_size=2, max_size=4, unique=True)
                .filter(lambda g: gcd(*g) == 1))
    T = TableSemigroup(gens)
    hi = T.conductor + 2 * max(gens)
    pool = [s for s in range(1, hi + 1) if T.contains(s)]
    shifts = draw(st.lists(st.one_of(st.sampled_from(pool), st.integers(-1, hi)),
                           min_size=1, max_size=5))
    ell = draw(st.integers(1, 4))
    v = min(shifts)
    n_cap = ell + ceil(T.conductor / v) + 1 if v >= 1 else 1
    N = draw(st.integers(-1, n_cap + 1))
    return gens, T, shifts, ell, N, draw(st.sampled_from(["power", "closure-power"]))


@settings(max_examples=400)  # both modes, N < ell and N >= ell, gap shifts: ~2 s
@given(scan_cases())
def test_masks_match_the_scans(case):
    gens, T, shifts, ell, N, mode = case
    S = semigroup_build(gens)
    assert (gaps(S), S.conductor) == (T.gaps, T.conductor)
    minimal = outcome(minimal_shifts_greedy, T, shifts)
    assert outcome(lambda: semigroup_ideal(S, shifts).shifts) == minimal
    assume(isinstance(minimal, tuple))
    A = semigroup_ideal(S, shifts)
    assert (outcome(containment_holds, A, N, ell, S, mode=mode)
            == outcome(containment_holds_scan, minimal, N, ell, T, mode))
    assert (outcome(germ_bs_exponent, A, ell, S, mode=mode, with_witness=True)
            == outcome(germ_bs_exponent_scan, minimal, ell, T, mode))


BIG = (10**9, 10**9 + 3, 10**9 + 5000)


def test_shifts_far_past_the_conductor():
    # windows start at the valuation, so shifts near 10^9 cost a conductor's bits
    T = TableSemigroup((5, 7, 9))
    S = semigroup_build((5, 7, 9))
    minimal = minimal_shifts_greedy(T, BIG)
    A = semigroup_ideal(S, BIG)
    assert A.shifts == minimal == BIG[:2]
    for ell in (1, 2, 3):
        for mode in ("power", "closure-power"):
            for N in range(0, ell + 3):
                assert (outcome(containment_holds, A, N, ell, S, mode=mode)
                        == outcome(containment_holds_scan, minimal, N, ell, T, mode))
        # the scan gives (False, 0) at N = -1 too, after a walk up from -10^9
        assert containment_holds(A, -1, ell, S) == (False, 0)
    report = run_session(parse_session(
        "germ semigroup 5, 7, 9;\n"
        f"germ ideal {', '.join(map(str, BIG))};\n"
        "germ member 1000000004;\n"
        "germ member 2000000001;\n"
        "germ closure-member 2000000001 power=2;\n"
        "germ closure-member 1999999999 power=2;\n"
        "germ bs-exponent ell=3;\n"
        "germ bs-exponent ell=2 mode=closure-power;\n"))
    results = [block["result"] for block in report["blocks"]]
    members = [any(T.contains(s - g) for g in minimal) for s in (10**9 + 4, 2 * 10**9 + 1)]
    assert [r["member"] for r in results[:2]] == members == [False, True]
    v2 = minimal_shifts_greedy(T, {a + b for a in minimal for b in minimal})[0]
    assert [r["member"] for r in results[2:4]] == [2 * 10**9 + 1 >= v2, 2 * 10**9 - 1 >= v2]
    for r, (ell, mode) in zip(results[4:], [(3, "power"), (2, "closure-power")]):
        assert (r["exponent"], r["minimality_witness"]) == germ_bs_exponent_scan(
            minimal, ell, T, mode)
