"""End-to-end acceptance suite.

Each criterion prints one visible PASS line once its assertions hold;
a failing criterion fails its test, which is the FAIL line.  Runtime
bounds are asserted where the workbench promises them.
"""

import json
import os
import random
import re
import time

import pytest

from bsw.closure import (MonomialIdeal, bs_verify_monomial,
                         closure_containment_witness)
from bsw.groebner import Ideal, ideal_member
from bsw.loja import loja_exponent_estimate, monomial_curve_sampler, sample_variety
from bsw.poly import Polynomial, RingContext, parse_polynomial, parse_polynomials
from bsw.resolution import (check_acyclicity, check_cm_depth,
                            check_normality_condition, expected_ranks,
                            free_resolution, koszul_complex, minimalize, strata)
from bsw.semigroup import (containment_holds, enumerate_ideals,
                           germ_bs_exponent, germ_closure_member,
                           germ_ideal_member, huneke_mu,
                           semigroup_build, semigroup_ideal)
from bsw import cli

from _oracles import ideal_power, macaulay_member, mul_term

SESSION_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                            "sessions", "acceptance.bsw")

R2 = RingContext(("x", "y"))
R3 = RingContext(("x", "y", "z"))
R4 = RingContext(("x", "y", "z", "w"))
RW = RingContext(("z", "w"), (2, 5))


@pytest.fixture
def announce(capsys):
    def _announce(n: int, text: str):
        with capsys.disabled():
            print(f"[criterion {n}] PASS: {text}")
    return _announce


def ideal(text, ring):
    return Ideal(ring, tuple(parse_polynomials(text, ring)))


def strata_of(text, ring):
    I = ideal(text, ring)
    return strata(free_resolution(I), I), I


def test_criterion_1_cusp_germ_suite(announce):
    t0 = time.monotonic()
    for p in (3, 5, 7):
        S = semigroup_build((2, p))
        A = semigroup_ideal(S, (2,))
        assert not germ_ideal_member(p, A, S)
        assert germ_closure_member(p, ideal_power(A, p // 2, S), S)
        assert germ_bs_exponent(A, 1, S) == (p + 1) // 2
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    announce(1, f"plane-cusp germ family p in (3, 5, 7) in {elapsed:.3f}s")


def test_criterion_2_monomial_containments(announce):
    t0 = time.monotonic()
    rng = random.Random(20260814)
    checked = 0
    for _ in range(50):
        n = rng.choice((2, 3))
        gens = []
        for _ in range(rng.randint(1, 4)):
            while True:
                e = tuple(rng.randint(0, 5) for _ in range(n))
                if 0 < sum(e) <= 5:
                    break
            gens.append(e)
        M = MonomialIdeal(n, tuple(gens))
        for ell in (1, 2, 3):
            holds, counterexample = bs_verify_monomial(M, ell)
            assert holds, (M.exponents, ell, counterexample)
            checked += 1
    # sharpness at the smallest exponent: one power less already fails
    M = MonomialIdeal(2, ((2, 0), (0, 2)))
    assert bs_verify_monomial(M, 1) == (True, None)
    assert closure_containment_witness(M, 1, M) == (1, 1)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    announce(2, f"{checked} random monomial containments plus the x*y "
                f"sharpness witness in {elapsed:.1f}s")


def test_criterion_3_strata_suite(announce):
    t0 = time.monotonic()
    S_cusp, _ = strata_of("z^5 - w^2", RW)
    assert check_cm_depth(S_cusp) == (True, 1, 1)
    assert all(info.empty for r, info in S_cusp.strata.items() if r >= 1)

    S_cone, _ = strata_of("x*z - y^2", R3)
    assert check_cm_depth(S_cone) == (True, 2, 2)
    assert all(info.empty for r, info in S_cone.strata.items() if r >= 1)

    I_tp = ideal("x*z, x*w, y*z, y*w", R4)
    C_tp = free_resolution(I_tp)
    assert minimalize(C_tp).ranks == (1, 4, 4, 1)
    S_tp = strata(C_tp, I_tp)
    z1 = S_tp.strata[1]
    assert not z1.empty and z1.dim == 0 and z1.codim_in_z == 2
    assert check_cm_depth(S_tp) == (False, 1, 1)

    S_smooth, _ = strata_of("w - z^2", RingContext(("z", "w")))
    assert all(info.empty for info in S_smooth.strata.values())

    for S in (S_cusp, S_cone, S_tp, S_smooth):
        assert S.purity_ok
        for r, info in S.strata.items():
            if r >= 1 and not info.empty:
                assert info.codim_in_z >= r + 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    announce(3, f"stratum geometry for cusp, cone, crossing planes and a "
                f"smooth curve in {elapsed:.1f}s")


def test_criterion_4_normality_suite(announce):
    S_cusp, _ = strata_of("z^5 - w^2", RW)
    assert not check_normality_condition(S_cusp)
    S_cone, _ = strata_of("x*z - y^2", R3)
    assert check_normality_condition(S_cone)
    S_smooth, _ = strata_of("w - z^2", RingContext(("z", "w")))
    assert check_normality_condition(S_smooth)
    announce(4, "normality verdicts: cusp no, cone yes, smooth curve yes")


def test_criterion_5_uniform_exponent_search(announce):
    t0 = time.monotonic()
    S25 = semigroup_build((2, 5))
    mu, A, ell = huneke_mu(S25, 12, 4)
    assert (mu, A.shifts, ell) == (3, (2,), 1)
    assert huneke_mu(semigroup_build((2, 3)), 12, 4)[0] == 2
    # re-verify every enumerated case by direct containment
    best = 0
    for B in enumerate_ideals(S25, 12):
        for l in (1, 2, 3, 4):
            N = germ_bs_exponent(B, l, S25)
            assert containment_holds(B, N, l, S25) == (True, None)
            if N > 1:
                assert not containment_holds(B, N - 1, l, S25)[0]
            best = max(best, N - l + 1)
    assert best == mu
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    announce(5, f"uniform exponent 3 over 29 ideals x 4 powers, all "
                f"containments re-verified in {elapsed:.1f}s")


def _random_poly(rng, ring, max_degree, n_terms):
    p = Polynomial.zero(ring)
    for _ in range(n_terms):
        while True:
            e = tuple(rng.randint(0, max_degree) for _ in range(ring.n))
            if sum(e) <= max_degree:
                break
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        p = p + Polynomial.monomial(ring, e).scale(c)
    return p


def _random_homogeneous(rng, ring, degree, n_terms):
    # Homogeneous generators keep the truncated oracle conclusive: for a
    # graded ideal, membership of a degree <= 6 probe is decided entirely
    # inside the degree <= 6 span, so the two answers must coincide.
    p = Polynomial.zero(ring)
    for _ in range(n_terms):
        while True:
            e = tuple(rng.randint(0, degree) for _ in range(ring.n))
            if sum(e) == degree:
                break
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        p = p + Polynomial.monomial(ring, e).scale(c)
    return p


def _degree(p):
    return max(sum(e) for e in p.terms())


def test_criterion_6_membership_oracle_agreement(announce):
    rng = random.Random(777)
    rings = {2: R2, 3: R3}
    total = 0
    for _ in range(100):
        ring = rings[rng.choice((2, 3))]
        gens = []
        while not gens:
            gens = [g for g in (_random_homogeneous(rng, ring,
                                                    rng.randint(1, 4),
                                                    rng.randint(1, 3))
                                for _ in range(rng.randint(1, 3)))
                    if not g.is_zero()]
        I = Ideal(ring, tuple(gens))

        probes = [Polynomial.zero(ring), gens[0]]
        g0 = gens[0]
        room = 6 - _degree(g0)
        e = tuple(rng.randint(0, room) for _ in range(ring.n))
        if sum(e) <= room:
            probes.append(mul_term(g0, e, 1))
        combo = _random_poly(rng, ring, 2, 1)
        if not combo.is_zero() and _degree(combo) + _degree(g0) <= 6:
            probes.append(g0 * combo + gens[-1])
        probes.append(_random_poly(rng, ring, 3, rng.randint(1, 2)))

        for p in probes:
            if p.is_zero() or _degree(p) > 6:
                continue
            got = ideal_member(p, I)
            want = macaulay_member(p, I.generators, degree=6)
            assert got == want, (str(p), [str(g) for g in I.generators])
            total += 1
    assert total >= 300
    announce(6, f"{total} membership probes agree with the dense "
                f"linear-algebra oracle (100%)")


def test_criterion_7_complex_soundness(announce):
    x, y, z = (Polynomial.variable(R3, j) for j in range(3))
    produced = [
        free_resolution(ideal("z^5 - w^2", RW)),
        free_resolution(ideal("x*z, x*w, y*z, y*w", R4)),
        free_resolution(ideal("x^2, x*y, y^3", R2)),
        koszul_complex((x, y, z)),
        koszul_complex((x, x * y)),
    ]
    for C in produced:
        for k in range(len(C.maps) - 1):
            assert C.maps[k].compose(C.maps[k + 1]).is_zero()
        rho = expected_ranks(C)
        for k in range(1, C.length + 1):
            nxt = rho[k] if k < C.length else 0
            assert rho[k - 1] + nxt == C.ranks[k]
    ok, _ = check_acyclicity(koszul_complex((x, y, z)))
    assert ok
    bad, failures = check_acyclicity(koszul_complex((x, x * y)))
    assert not bad and failures
    announce(7, f"{len(produced)} complexes: compositions vanish, rank "
                f"bookkeeping exact, acyclicity verdicts correct")


def test_criterion_8_slope_estimates(announce):
    t0 = time.monotonic()
    radii = (1e-1, 5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3)
    pts = sample_variety(monomial_curve_sampler(RW, (2, 5), radii, 10, 7))
    est1 = loja_exponent_estimate(parse_polynomial("w", RW),
                                  [parse_polynomial("z", RW)], pts)
    assert abs(est1.slope - 2.5) <= 0.1 and est1.n_points >= 60
    est2 = loja_exponent_estimate(parse_polynomial("z^3", RW),
                                  parse_polynomials("z, w", RW), pts)
    assert abs(est2.slope - 3.0) <= 0.1 and est2.n_points >= 60
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    announce(8, f"slopes {est1.slope:.3f} and {est2.slope:.3f} from "
                f"{est1.n_points} points in {elapsed:.2f}s")


def test_criterion_9_report_reproducibility(tmp_path, announce, capsys):
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert cli.main(["run", SESSION_PATH, "--out", out1, "--seed", "0"]) == 0
    assert cli.main(["run", SESSION_PATH, "--out", out2, "--seed", "0"]) == 0
    raw1 = open(out1, "r", encoding="utf-8").read()
    raw2 = open(out2, "r", encoding="utf-8").read()
    scrub = lambda s: re.sub(r'"timestamp": "[^"]*"', '"timestamp": "-"', s)
    assert scrub(raw1) == scrub(raw2)
    report = json.loads(raw1)
    assert report["errors"] == 0 and report["commands"] >= 20
    capsys.readouterr()
    announce(9, f"bundled session: {report['commands']} commands, two runs "
                f"byte-identical up to the timestamp")
