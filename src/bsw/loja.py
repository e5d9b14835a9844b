"""Log-log slope estimation of vanishing orders along a variety.

Points are sampled on the variety at a ladder of radii: for a curve
parametrized by t the parameter modulus is rho^(1/w) with w the lowest
t-order among the components, and for a solved hypersurface each free
coordinate gets modulus rho^(w_j / w_min) from the ring weights, so the
sampled point sits at distance about rho from the origin.  Arguments
are drawn uniformly per coordinate from a seeded PCG64 stream, so a
fixed seed reproduces the exact same float data.

The estimate regresses log|phi| against log sum|a_j| by ordinary least
squares.  Values at or below the underflow floor (1e-300) are excluded,
never clamped; too few usable points, or a flat regressor, abort with
an estimation error instead of returning junk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (EstimationError, ResourceCapError, SamplingError, StructuralError,
                     ValidationError)
from .poly import Polynomial, RingContext

UNDERFLOW_FLOOR = 1e-300
RESIDUAL_THRESHOLD = 0.25
RESIDUAL_TOLERANCE = 1e-9
SAMPLE_CAP = 100_000


@dataclass(frozen=True)
class VarietySampler:
    """Deterministic point sampler on a parametrized curve or a solved
    hypersurface."""

    kind: str
    ring: RingContext
    radii: tuple[float, ...]
    samples_per_radius: int
    seed: int
    components: tuple[Polynomial, ...] | None = None
    solved_var: int | None = None
    solved_expr: Polynomial | None = None
    defining: tuple[Polynomial, ...] = ()

    def __post_init__(self):
        if self.kind not in ("parametrized", "hypersurface"):
            raise ValidationError(f"unknown sampler kind {self.kind!r}")
        if self.samples_per_radius < 1:
            raise ValidationError("need at least one sample per radius")
        if not self.radii:
            raise ValidationError("need at least one radius")
        if self.seed < 0:
            raise ValidationError("seed must be a non-negative integer")
        prev = None
        for r in self.radii:
            if not (0 < r <= 1):
                raise ValidationError("radii must lie in (0, 1]")
            if prev is not None and r >= prev:
                raise ValidationError("radii must strictly decrease")
            prev = r
        if self.kind == "parametrized":
            if not self.components or len(self.components) != self.ring.n:
                raise ValidationError("parametrized sampler needs one component per variable")
            for c in self.components:
                if c.ring.n != 1:
                    raise StructuralError("components must be univariate in the parameter")
                if c.is_zero():
                    raise ValidationError("zero component cannot be sampled")
        else:
            if self.solved_var is None or self.solved_expr is None:
                raise ValidationError("hypersurface sampler needs a solved coordinate")
            if self.solved_expr.ring != self.ring:
                raise StructuralError("solved expression ring mismatch")
            for e in self.solved_expr.terms():
                if e[self.solved_var] != 0:
                    raise ValidationError("solved expression must not use the solved variable")


def monomial_curve_sampler(ring: RingContext, exponents, radii, samples_per_radius: int,
                           seed: int, defining=()) -> VarietySampler:
    """t -> (t^c_1, ..., t^c_n) sampler."""
    tring = RingContext(("t",))
    comps = tuple(Polynomial.monomial(tring, (int(c),)) for c in exponents)
    return VarietySampler(
        kind="parametrized", ring=ring, radii=tuple(radii),
        samples_per_radius=samples_per_radius, seed=seed,
        components=comps, defining=tuple(defining),
    )


def hypersurface_sampler(ring: RingContext, solved_var: int, solved_expr: Polynomial,
                         radii, samples_per_radius: int, seed: int) -> VarietySampler:
    """Sampler for {x_solved = g(other coordinates)}."""
    defining = (Polynomial.variable(ring, solved_var) - solved_expr,)
    return VarietySampler(
        kind="hypersurface", ring=ring, radii=tuple(radii),
        samples_per_radius=samples_per_radius, seed=seed,
        solved_var=solved_var, solved_expr=solved_expr, defining=defining,
    )


def _lowest_order(p: Polynomial) -> int:
    return min(e[0] for e in p.terms())


class _ComplexPoly:
    """A polynomial with its coefficients converted once to complex, for
    evaluation at many points: each term's coefficient times the powers
    z_j ** k_j of its nonzero exponents, in variable order, summed in
    term order from 0j."""

    __slots__ = ("n", "terms")

    def __init__(self, p: Polynomial):
        self.n = p.ring.n
        self.terms = tuple((e, complex(c)) for e, c in p.terms().items())

    def __call__(self, point) -> complex:
        if len(point) != self.n:
            raise StructuralError("point arity does not match ring")
        total = 0j
        for e, v in self.terms:
            for z, k in zip(point, e):
                if k:
                    v *= z ** k
            total += v
        return total


def _residual_ok(f: _ComplexPoly, point) -> bool:
    value = abs(f(point))
    scale = 0.0
    for e, c in f.terms:
        mono = 1.0
        for z, k in zip(point, e):
            if k:
                mono *= abs(z) ** k
        scale += abs(c) * mono  # abs(complex(x)) == abs(x) for a real float x
    return value <= RESIDUAL_TOLERANCE * max(scale, UNDERFLOW_FLOOR)


def sample_variety(sampler: VarietySampler) -> list[tuple[complex, ...]]:
    """Points ordered by (radius index, sample index); residual-checked;
    at most SAMPLE_CAP of them.  The angles of one radius come from one
    `uniform` call, the same PCG64 values in the same order as one call
    per angle."""
    total = len(sampler.radii) * sampler.samples_per_radius
    if total > SAMPLE_CAP:
        raise ResourceCapError(f"sampler needs {total} points (cap {SAMPLE_CAP})")
    rng = np.random.default_rng(sampler.seed)
    ring, per = sampler.ring, sampler.samples_per_radius
    points: list[tuple[complex, ...]] = []
    if sampler.kind == "parametrized":
        w = min(_lowest_order(c) for c in sampler.components)
        if w < 1:
            raise ValidationError("components must vanish at the origin")
        comps = [_ComplexPoly(c) for c in sampler.components]
        for rho in sampler.radii:
            r_t = rho ** (1.0 / w)
            for theta in rng.uniform(0.0, 2.0 * math.pi, size=per).tolist():
                t = r_t * complex(math.cos(theta), math.sin(theta))
                points.append(tuple(c((t,)) for c in comps))
    else:
        w_min = min(ring.weights)
        free = [j for j in range(ring.n) if j != sampler.solved_var]
        solved = _ComplexPoly(sampler.solved_expr)
        for rho in sampler.radii:
            moduli = [rho ** (ring.weights[j] / w_min) for j in free]
            for thetas in rng.uniform(0.0, 2.0 * math.pi, size=(per, len(free))).tolist():
                coords = [0j] * ring.n
                for j, r_j, theta in zip(free, moduli, thetas):
                    coords[j] = r_j * complex(math.cos(theta), math.sin(theta))
                coords[sampler.solved_var] = solved(tuple(coords))
                points.append(tuple(coords))
    defining = [_ComplexPoly(f) for f in sampler.defining]
    for pt in points:
        for f in defining:
            if not _residual_ok(f, pt):
                raise SamplingError("sampled point violates a defining equation")
    return points


@dataclass(frozen=True)
class LojaEstimate:
    slope: float
    intercept: float
    residual: float
    n_points: int
    radii_range: tuple[float, float]
    reliable: bool
    log_a: tuple[float, ...]    # the fitted points: log sum_j |a_j| ...
    log_phi: tuple[float, ...]  # ... and log |phi|, in sample order


def loja_exponent_estimate(phi: Polynomial, a_polys, points,
                           residual_threshold: float = RESIDUAL_THRESHOLD) -> LojaEstimate:
    """OLS fit of log|phi| against log sum_j |a_j| over the sampled points."""
    a_polys = [_ComplexPoly(g) for g in a_polys]
    if not a_polys:
        raise ValidationError("need at least one ideal generator")
    phi = _ComplexPoly(phi)
    xs: list[float] = []
    ys: list[float] = []
    lo, hi = math.inf, 0.0  # range of the kept points' norms
    dropped = 0
    for pt in points:
        va = sum(abs(g(pt)) for g in a_polys)
        vp = abs(phi(pt))
        if va <= UNDERFLOW_FLOOR or vp <= UNDERFLOW_FLOOR:
            dropped += 1
            continue
        xs.append(math.log(va))
        ys.append(math.log(vp))
        norm = math.sqrt(sum(abs(z) ** 2 for z in pt))
        lo, hi = min(lo, norm), max(hi, norm)
    total = len(xs) + dropped
    if len(xs) < 20:
        raise EstimationError(f"only {len(xs)} usable points (need 20)")
    if dropped > total / 2:
        raise EstimationError("phi or the ideal vanishes on more than half the sample")
    x = np.asarray(xs)
    y = np.asarray(ys)
    if float(x.max() - x.min()) < 1e-9:
        raise EstimationError("regressor is flat; radii ladder too degenerate")
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    residual = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return LojaEstimate(
        slope=float(slope),
        intercept=float(intercept),
        residual=residual,
        n_points=len(xs),
        radii_range=(lo, hi),
        reliable=residual <= residual_threshold,
        log_a=tuple(xs),
        log_phi=tuple(ys),
    )
