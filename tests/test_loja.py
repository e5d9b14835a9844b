"""Variety samplers and the log-log containment-exponent estimator."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsw.errors import (EstimationError, SamplingError, StructuralError,
                        ValidationError)
from bsw.loja import (VarietySampler, _ComplexPoly, hypersurface_sampler,
                      loja_exponent_estimate, monomial_curve_sampler,
                      sample_variety)
from bsw.poly import Polynomial, RingContext, parse_polynomial

from _oracles import eval_complex

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


def test_sampler_component_ring_checks():
    t2 = RingContext(("t", "u"))
    bad = Polynomial.monomial(t2, (1, 1))
    with pytest.raises(StructuralError):
        VarietySampler(kind="parametrized", ring=RW, radii=RADII,
                       samples_per_radius=5, seed=0, components=(bad, bad))


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


def test_threshold_plumbs_into_reliability():
    pts = curve_points()
    est = loja_exponent_estimate(P("z^3"), [P("z"), P("w")], pts,
                                 residual_threshold=1e-15)
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
    assert _ComplexPoly(p)(point) == eval_complex(p, point)
    with pytest.raises(StructuralError):
        _ComplexPoly(p)(point[:2])
