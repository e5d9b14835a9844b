"""Variety samplers and the log-log containment-exponent estimator."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsw.errors import (EstimationError, SamplingError, StructuralError,
                        ValidationError)
from bsw import loja
from bsw.loja import (VarietySampler, _ComplexPoly, hypersurface_sampler,
                      loja_exponent_estimate, monomial_curve_sampler,
                      sample_variety)
from bsw.poly import Polynomial, RingContext, parse_polynomial

from _oracles import (angles_stepwise, complex_poly_at, eval_complex,
                      loja_exponent_estimate_scalar, sample_variety_scalar)

RW = RingContext(("z", "w"), (2, 5))
RADII = (1e-1, 5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3)


def curve_points(seed=7, radii=RADII, per=10):
    return sample_variety(monomial_curve_sampler(RW, (2, 5), radii, per, seed))


def P(text, ring=RW):
    return parse_polynomial(text, ring)


# ---------------------------------------------------------------- samplers

def test_sampler_determinism():
    assert curve_points(seed=3) == curve_points(seed=3)
    assert curve_points(seed=3) != curve_points(seed=4)


def _numpy_angles(seed, count):
    return np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=count).tolist()


@given(st.integers(0, 2**200), st.data())
def test_angle_stream_is_numpy_pcg64_bit_for_bit(seed, data):
    count = data.draw(st.integers(0, 5000))
    cuts = sorted(data.draw(st.lists(st.integers(0, count), max_size=4)))
    stream = loja._AngleStream(seed)
    got = [a for lo, hi in zip([0, *cuts], [*cuts, count])
           for a in stream.angles(hi - lo).tolist()]
    assert got == _numpy_angles(seed, count)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64, 2**96 - 1, 2**128 + 1, 2**200])
def test_angle_stream_at_word_boundaries(seed):
    assert loja._AngleStream(seed).angles(50).tolist() == _numpy_angles(seed, 50)


JUMP = loja._JUMP
STREAM_COUNTS = sorted({0, 1, JUMP - 1, JUMP, JUMP + 1, JUMP * JUMP, 4096, 4097})


def _assert_stream_matches_stepwise(seed, counts):
    fast, slow = loja._AngleStream(seed), loja._AngleStream(seed)
    for count in counts:
        assert fast.angles(count).tolist() == angles_stepwise(slow, count).tolist()
        assert fast.state == slow.state


@pytest.mark.parametrize("count", STREAM_COUNTS)
@settings(max_examples=10)
@given(seed=st.integers(0, 2**200))
def test_jump_ahead_matches_the_stepwise_stream_at_edge_counts(count, seed):
    _assert_stream_matches_stepwise(seed, [count, count])


@given(st.integers(0, 2**200),
       st.lists(st.sampled_from(STREAM_COUNTS) | st.integers(0, 5000), max_size=4))
def test_jump_ahead_matches_the_stepwise_stream_under_cuts(seed, counts):
    _assert_stream_matches_stepwise(seed, counts)


def test_seed_0_angles_are_pinned():
    # a numpy release that changed its stream would show here as oracle drift,
    # while the stream, and every report, stays as it is
    assert loja._AngleStream(0).angles(3).tolist() == [
        4.002148315014479, 1.6951199159934145, 0.25744424357926954]
    assert _numpy_angles(0, 3) == loja._AngleStream(0).angles(3).tolist()


def test_sampler_validation():
    with pytest.raises(ValidationError):
        monomial_curve_sampler(RW, (2, 5), (1e-2, 1e-1), 5, 0)  # increasing
    with pytest.raises(ValidationError):
        monomial_curve_sampler(RW, (2, 5), (2.0, 1e-1), 5, 0)  # > 1
    with pytest.raises(ValidationError):
        monomial_curve_sampler(RW, (2, 5), (), 5, 0)
    with pytest.raises(ValidationError):
        monomial_curve_sampler(RW, (2, 5), RADII, 0, 0)
    with pytest.raises(ValidationError):
        monomial_curve_sampler(RW, (2,), RADII, 5, 0)  # one component missing
    with pytest.raises(ValidationError):
        sample_variety(monomial_curve_sampler(RW, (0, 5), RADII, 5, 0))


def test_negative_curve_exponent_is_a_validation_error():
    with pytest.raises(ValidationError, match="nonnegative"):
        monomial_curve_sampler(RW, (-2, 5), RADII, 5, 0)


def test_sampler_component_ring_checks():
    t2 = RingContext(("t", "u"))
    bad = Polynomial.monomial(t2, (1, 1))
    with pytest.raises(StructuralError):
        VarietySampler(kind="parametrized", ring=RW, radii=RADII,
                       samples_per_radius=5, seed=0, components=(bad, bad))


def test_sampler_kind_component_and_solved_coordinate_checks():
    t = Polynomial.variable(RingContext(("t",)), 0)
    base = dict(ring=RW, radii=RADII, samples_per_radius=5, seed=0)
    with pytest.raises(ValidationError, match="unknown sampler kind 'cone'"):
        VarietySampler(kind="cone", **base)
    with pytest.raises(ValidationError, match="zero component"):
        VarietySampler(kind="parametrized", components=(t, t - t), **base)
    with pytest.raises(ValidationError, match="needs a solved coordinate"):
        VarietySampler(kind="hypersurface", solved_var=1, **base)
    with pytest.raises(StructuralError, match="solved expression ring mismatch"):
        VarietySampler(kind="hypersurface", solved_var=1,
                       solved_expr=P("z^2", RingContext(("z", "w"))), **base)


def test_hypersurface_solved_var_check():
    R = RingContext(("z", "w"))
    with pytest.raises(ValidationError):
        hypersurface_sampler(R, 1, P("w^2", R), RADII, 5, 0)


def test_curve_points_lie_on_curve():
    pts = curve_points()
    assert len(pts) == 70
    for z, w in pts:
        # (z, w) = (t^2, t^5) satisfies z^5 = w^2
        assert abs(z ** 5 - w ** 2) <= 1e-12 * max(abs(z) ** 5, 1e-300)
    # first block sits at the first radius: |z| = |t|^2 = rho
    for z, w in pts[:10]:
        assert abs(abs(z) - RADII[0]) <= 1e-12


def test_hypersurface_points_satisfy_equation():
    R = RingContext(("z", "w"))
    pts = sample_variety(hypersurface_sampler(R, 1, P("z^2", R), RADII, 10, 11))
    assert len(pts) == 70
    for z, w in pts:
        assert w == z ** 2
    for z, w in pts[:10]:
        assert abs(abs(z) - RADII[0]) <= 1e-12


def test_defining_equation_residual_guard():
    s = monomial_curve_sampler(RW, (2, 5), RADII, 5, 0, defining=(P("z - w"),))
    with pytest.raises(SamplingError):
        sample_variety(s)


def test_residual_guard_accepts_true_equation():
    s = monomial_curve_sampler(RW, (2, 5), RADII, 5, 0, defining=(P("z^5 - w^2"),))
    assert len(sample_variety(s)) == 35


# ---------------------------------------------------------------- estimator

def test_slope_monomial_curve():
    pts = curve_points()
    est = loja_exponent_estimate(P("w"), [P("z")], pts)
    assert abs(est.slope - 2.5) <= 0.1
    assert est.residual <= 1e-9
    assert est.reliable
    assert est.n_points == 70


def test_slope_two_generator_ideal():
    pts = curve_points()
    est = loja_exponent_estimate(P("z^3"), [P("z"), P("w")], pts)
    assert abs(est.slope - 3.0) <= 0.1
    assert est.reliable


def test_slope_identity():
    pts = curve_points()
    est = loja_exponent_estimate(P("z"), [P("z")], pts)
    assert abs(est.slope - 1.0) <= 0.01
    assert est.residual <= 1e-9


def test_radii_range_reported():
    est = loja_exponent_estimate(P("w"), [P("z")], curve_points())
    lo, hi = est.radii_range
    assert lo < hi
    assert lo < 5e-3 and hi > 5e-2


def test_scaling_moves_intercept_not_slope():
    pts = curve_points()
    base = loja_exponent_estimate(P("w"), [P("z")], pts)
    scaled = loja_exponent_estimate(P("1000*w"), [P("z")], pts)
    assert abs(scaled.slope - base.slope) <= 1e-12
    assert abs(scaled.intercept - base.intercept - math.log(1000)) <= 1e-9


def test_threshold_plumbs_into_reliability(monkeypatch):
    pts = curve_points()
    monkeypatch.setattr(loja, "RESIDUAL_THRESHOLD", 1e-15)
    est = loja_exponent_estimate(P("z^3"), [P("z"), P("w")], pts)
    assert not est.reliable


def test_estimator_preconditions():
    pts = curve_points()
    with pytest.raises(ValidationError):
        loja_exponent_estimate(P("w"), [], pts)
    with pytest.raises(EstimationError):
        loja_exponent_estimate(P("w"), [P("z")], pts[:10])  # too few points
    with pytest.raises(EstimationError):
        loja_exponent_estimate(Polynomial.zero(RW), [P("z")], pts)
    with pytest.raises(EstimationError):
        loja_exponent_estimate(P("w"), [P("z")], [pts[0]] * 25)  # flat regressor


def test_estimator_accepts_an_iterator():
    # dropped points are counted against the points seen, not a second pass
    pts = curve_points() + [(0j, 0j)] * 5
    from_list = loja_exponent_estimate(P("w"), [P("z")], pts)
    from_iter = loja_exponent_estimate(P("w"), [P("z")], iter(pts))
    assert from_iter.slope == from_list.slope
    assert abs(from_list.slope - 2.5) <= 0.1
    with pytest.raises(EstimationError, match="more than half"):
        loja_exponent_estimate(P("w"), [P("z")], iter(curve_points() + [(0j, 0j)] * 71))


R3 = RingContext(("x", "y", "z"))
coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=30)
polys3 = st.builds(lambda terms: Polynomial(R3, terms),
                   st.lists(st.tuples(st.tuples(*[st.integers(0, 5)] * 3), coeffs), max_size=6))
coords = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))


@given(polys3, st.tuples(coords, coords, coords))
def test_converted_evaluation_is_eval_complex(p, point):
    # the sampler and the estimator convert each polynomial once; every
    # value must stay bit-identical to the unconverted evaluation
    assert complex_poly_at(_ComplexPoly(p), point) == eval_complex(p, point)
    with pytest.raises(StructuralError):
        complex_poly_at(_ComplexPoly(p), point[:2])


# ------------------------------------------------- blocks against the scalar loop

def _outcome(fn, *args):
    """What fn returns, with every float as float.hex, or its error."""
    try:
        got = fn(*args)
    except Exception as exc:  # the error kind and message are compared
        return type(exc).__name__, str(exc)
    if isinstance(got, list):
        return [tuple((z.real.hex(), z.imag.hex()) for z in pt) for pt in got]
    return (got.slope.hex(), got.intercept.hex(), got.residual.hex(), got.n_points,
            tuple(x.hex() for x in got.radii_range), got.reliable,
            tuple(x.hex() for x in got.log_a), tuple(x.hex() for x in got.log_phi))


RINGS = (RW, RingContext(("x", "y", "z"), (1, 2, 3)))
small = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)


def _polys(ring, exponent, min_size=0):
    terms = st.lists(st.tuples(st.tuples(*[exponent] * ring.n), small),
                     min_size=min_size, max_size=4)
    return st.builds(lambda t: Polynomial(ring, t), terms)


@st.composite
def samplers(draw):
    ring = draw(st.sampled_from(RINGS))
    radii = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4, unique=True))
    if draw(st.booleans()) and draw(st.booleans()):
        radii.append(5e-324)  # some r*cos(theta) round to a signed zero
    radii.sort(reverse=True)
    per = draw(st.integers(5, 40))
    # seeds of one, two to three, and five or more 32-bit words of entropy
    seed = draw(st.one_of(st.integers(0, 10**6), st.integers(2**32, 2**96),
                          st.integers(2**128, 2**200)))
    if draw(st.booleans()):
        # a curve, one exponent possibly past CPython's integer-power ladder
        exps = draw(st.lists(st.integers(1, 6), min_size=ring.n, max_size=ring.n))
        if draw(st.booleans()):
            exps[draw(st.integers(0, ring.n - 1))] = draw(st.integers(101, 150))
        # x_0^c_1 - x_1^c_0 vanishes on the curve; a random equation does not
        binomial = Polynomial(ring, [((exps[1],) + (0,) * (ring.n - 1), 1),
                                     ((0, exps[0]) + (0,) * (ring.n - 2), -1)])
        defining = [(), (binomial,), None][draw(st.integers(0, 2))]
        if defining is None:
            defining = (draw(_polys(ring, st.integers(0, 4), 1)),)
        return monomial_curve_sampler(ring, exps, radii, per, seed, defining)
    var = draw(st.integers(0, ring.n - 1))
    free = st.integers(0, 4)
    expr = draw(st.builds(
        lambda t: Polynomial(ring, [(e[:var] + (0,) + e[var + 1:], c) for e, c in t]),
        st.lists(st.tuples(st.tuples(*[free] * ring.n), small), max_size=4)))
    return hypersurface_sampler(ring, var, expr, radii, per, seed)


@st.composite
def extra_points(draw, n):
    """Points near 0 (phi or the ideal underflows: dropped) and, each in
    about one example of four, a huge one (a power or a modulus
    overflows) and one of the wrong arity, each with its insertion index."""
    tiny = st.builds(complex, st.floats(-1e-150, 1e-150), st.floats(-1e-150, 1e-150))
    big = st.sampled_from([0.0, 1e100, -1e160, 1.7e308])
    huge = st.builds(complex, big, big)
    points = draw(st.lists(st.tuples(*[tiny] * n), max_size=3))
    for odd in (st.tuples(*[huge] * n), st.tuples(*[tiny] * (n - 1))):
        if draw(st.booleans()) and draw(st.booleans()):
            points.append(draw(odd))
    return [(draw(st.integers(0, 10**6)), pt) for pt in points]


@settings(max_examples=80)
@given(samplers(), st.sampled_from([1, 3, 64, loja.BLOCK_POINTS]), st.data())
def test_block_evaluation_is_the_scalar_loop_bit_for_bit(sampler, block, data):
    ring = sampler.ring
    with mock.patch.object(loja, "BLOCK_POINTS", block):
        points = _outcome(sample_variety, sampler)
        assert points == _outcome(sample_variety_scalar, sampler)
        if not isinstance(points, list):
            return
        pts = sample_variety(sampler)
        for i, pt in data.draw(extra_points(ring.n)):
            pts.insert(i % (len(pts) + 1), pt)
        phi = data.draw(_polys(ring, st.integers(0, 5), 1))
        a_polys = data.draw(st.lists(_polys(ring, st.integers(0, 5), 1), min_size=1, max_size=4))
        as_iterator = data.draw(st.booleans())
        got = _outcome(loja_exponent_estimate, phi, a_polys, iter(pts) if as_iterator else pts)
        assert got == _outcome(loja_exponent_estimate_scalar, phi, a_polys, pts)
        if any(len(pt) != ring.n for pt in pts) and got[0] != "OverflowError":
            assert got[0] == "StructuralError"


def test_block_evaluation_beyond_one_block_is_the_scalar_loop():
    # the real block size, 5,200 points: a full block and a partial one
    R3 = RINGS[1]
    x, y, z = (Polynomial.variable(R3, j) for j in range(3))
    curve = monomial_curve_sampler(R3, (2, 3, 120), (1e-1, 1e-3), 2600, 5)
    solve = hypersurface_sampler(R3, 2, P("x^2 - 2*y^3 + x*y", R3), (1e-1, 1e-3), 2600, 5)
    for sampler, phi in ((curve, z), (solve, P("z^2 + x^101*y", R3))):
        pts = sample_variety(sampler)
        assert len(pts) > loja.BLOCK_POINTS
        assert _outcome(sample_variety, sampler) == _outcome(sample_variety_scalar, sampler)
        got = _outcome(loja_exponent_estimate, phi, [x, y, z], iter(pts))
        assert got[3] == len(pts)
        assert got == _outcome(loja_exponent_estimate_scalar, phi, [x, y, z], pts)


def test_norms_square_by_cpython_float_power():
    # libm pow(m, 2) is not always m*m; with glibc this pair's norm tells them apart
    a, b = float.fromhex("0x1.9f179da532e1dp-1"), float.fromhex("0x1.8a2172d80164cp-3")
    pts = curve_points() + [(complex(a, 0.0), complex(b, 0.0))]
    got = loja_exponent_estimate(P("w"), [P("z")], pts)
    assert got.radii_range[1] == math.sqrt(a ** 2 + b ** 2)
    assert _outcome(loja_exponent_estimate, P("w"), [P("z")], pts) == \
        _outcome(loja_exponent_estimate_scalar, P("w"), [P("z")], pts)


def test_row_sums_add_left_to_right():
    # the builtin sum of floats, Neumaier-compensated since CPython 3.12,
    # gives 1.0000000000000002 here
    columns = [np.array([1.0]), np.array([1e-16]), np.array([1e-16])]
    assert loja._row_sums(columns).tolist() == [(1.0 + 1e-16) + 1e-16] == [1.0]


POW, ABS, SHORT = (1e200 + 0j, 1e200 + 0j), (1.7e308 + 1.7e308j, 0.5 + 0j), (0.5 + 0j,)


@pytest.mark.parametrize("odd, error", [
    ((POW, SHORT), ("OverflowError", "complex exponentiation")),
    ((SHORT, POW), ("StructuralError", "point arity does not match ring")),
    ((POW, ABS), ("OverflowError", "complex exponentiation")),
    ((ABS, POW), ("OverflowError", "absolute value too large")),
])
def test_first_error_in_point_order(odd, error):
    # phi = w^2 overflows at POW, |z| overflows at ABS, SHORT has the wrong
    # arity: the error is the first point's, whichever step it comes from
    pts = curve_points()[:30] + list(odd) + curve_points()[:30]
    got = _outcome(loja_exponent_estimate, P("w^2"), [P("z")], pts)
    assert got == error
    assert got == _outcome(loja_exponent_estimate_scalar, P("w^2"), [P("z")], pts)
