"""Log-log slope estimation of vanishing orders along a variety.

Points are sampled on the variety at a ladder of radii: for a curve
parametrized by t the parameter modulus is rho^(1/w) with w the lowest
t-order among the components, and for a solved hypersurface each free
coordinate gets modulus rho^(w_j / w_min) from the ring weights, so the
sampled point sits at distance about rho from the origin.  Arguments
are drawn uniformly per coordinate from a seeded PCG64 stream (O'Neill
2014), so a fixed seed reproduces the exact same float data.  The
stream is the one numpy's PCG64 Generator seeded with the seed gives
through `uniform(0.0, 2*pi)`, bit for bit, written out here so that
numpy's random package is never imported:
- SeedSequence: the seed's 32-bit words, low word first, zero-padded to
  a pool of 4, are hashed and mixed (hashmix constants 0x43b0d7e5 and
  0x931e8875, mix constants 0xca01f9dd and 0x4973f715, each hash ending
  in x ^= x >> 16), and `generate_state(4, uint64)` hashes the pool
  again with 0x8b51f9dd and 0x58f38ded into words w0..w3;
- PCG64 seeding: inc = (w2 << 64 | w3) << 1 | 1, then from state 0 a
  step, + (w0 << 64 | w1), a step; a step is state * _PCG_MULT + inc
  mod 2^128, with PCG's 128-bit multiplier _PCG_MULT;
- each draw steps, then outputs XSL-RR, the 64-bit rotation of
  hi ^ lo right by state >> 122, whose top 53 bits times 2^-53 are the
  double d in [0, 1); the angle is 0.0 + 2*pi * d.

The estimate regresses log|phi| against log sum|a_j| by ordinary least
squares.  Values at or below the underflow floor (1e-300) are excluded,
never clamped; too few usable points, or a flat regressor, abort with
an estimation error instead of returning junk.

The sampler and the estimator evaluate polynomials on blocks of at most
BLOCK_POINTS points, held as float64 arrays of real and imaginary parts,
and every float they produce is the one CPython's complex arithmetic
gives on one point at a time (numpy's own complex128 product, modulus
and power round differently):
- a complex product is written out on the parts,
  (ar*br - ai*bi, ar*bi + ai*br), and a float times a complex is that
  product with the float promoted to (x, 0.0);
- z ** k for 1 <= k <= 100 follows CPython's binary ladder (`c_powu`)
  from (1, 0); above 100 CPython switches to a polar formula, so those
  powers call `**` per element;
- moduli come from np.hypot, the libm hypot that abs(complex) calls;
- cos, sin, log and the residual scale's abs(z) ** k stay libm's, mapped
  over lists;
- the sums over generators and coordinates add left to right, as a
  CPython loop does (the builtin `sum` of floats rounds otherwise since
  3.12).
CPython's OverflowErrors are raised where it raises them, and a block
that raises anything is evaluated again one point at a time, so the
error is the one a point-by-point loop meets first.  numpy is imported
by each function that uses it, so importing this module does not load it.

One sampler, _sample_blocks, returns the sample as blocks, and one fit,
_fit_blocks, reads blocks; a session hands the first's blocks to the
second as they are.  Point tuples exist only at the public entry points,
sample_variety (the sample as tuples) and loja_exponent_estimate (any
iterable of points, made into blocks BLOCK_POINTS at a time), and when a
block that raised is evaluated again point by point.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import chain, islice, repeat

from .errors import (EstimationError, ResourceCapError, SamplingError, StructuralError,
                     ValidationError)
from .poly import Polynomial, Record, RingContext

UNDERFLOW_FLOOR = 1e-300
RESIDUAL_THRESHOLD = 0.25
RESIDUAL_TOLERANCE = 1e-9
SAMPLE_CAP = 100_000
BLOCK_POINTS = 4096  # bounds the arrays one evaluation holds
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_JUMP = 64  # states one _AngleStream.angles call steps in Python ints
_JUMP_MULT = pow(_PCG_MULT, _JUMP, 1 << 128)


class VarietySampler(Record):
    """Deterministic point sampler on a parametrized curve or a solved
    hypersurface."""

    _fields = ("kind", "ring", "radii", "samples_per_radius", "seed", "components",
               "solved_var", "solved_expr", "defining")

    def __init__(self, kind: str, ring: RingContext, radii: tuple[float, ...],
                 samples_per_radius: int, seed: int,
                 components: tuple[Polynomial, ...] | None = None,
                 solved_var: int | None = None, solved_expr: Polynomial | None = None,
                 defining: tuple[Polynomial, ...] = ()):
        if kind not in ("parametrized", "hypersurface"):
            raise ValidationError(f"unknown sampler kind {kind!r}")
        if samples_per_radius < 1:
            raise ValidationError("need at least one sample per radius")
        if not radii:
            raise ValidationError("need at least one radius")
        if seed < 0:
            raise ValidationError("seed must be a non-negative integer")
        prev = None
        for r in radii:
            if not (0 < r <= 1):
                raise ValidationError("radii must lie in (0, 1]")
            if prev is not None and r >= prev:
                raise ValidationError("radii must strictly decrease")
            prev = r
        if kind == "parametrized":
            if not components or len(components) != ring.n:
                raise ValidationError("parametrized sampler needs one component per variable")
            for c in components:
                if c.ring.n != 1:
                    raise StructuralError("components must be univariate in the parameter")
                if c.is_zero():
                    raise ValidationError("zero component cannot be sampled")
        else:
            if solved_var is None or solved_expr is None:
                raise ValidationError("hypersurface sampler needs a solved coordinate")
            if solved_expr.ring != ring:
                raise StructuralError("solved expression ring mismatch")
            for e in solved_expr.terms():
                if e[solved_var] != 0:
                    raise ValidationError("solved expression must not use the solved variable")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "samples_per_radius", samples_per_radius)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "solved_var", solved_var)
        object.__setattr__(self, "solved_expr", solved_expr)
        object.__setattr__(self, "defining", defining)


def monomial_curve_sampler(ring: RingContext, exponents, radii, samples_per_radius: int,
                           seed: int, defining=()) -> VarietySampler:
    """t -> (t^c_1, ..., t^c_n) sampler."""
    exponents = [int(c) for c in exponents]
    if any(c < 0 for c in exponents):
        raise ValidationError("curve exponents must be nonnegative")
    tring = RingContext(("t",))
    comps = tuple(Polynomial.monomial(tring, (c,)) for c in exponents)
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


def _modulus(re, im):
    """abs(complex(re, im)) per element: libm hypot, and CPython's
    OverflowError where it overflows on finite parts."""
    import numpy as np
    m = np.hypot(re, im)
    inf = np.isinf(m)
    if inf.any() and (inf & np.isfinite(re) & np.isfinite(im)).any():
        raise OverflowError("absolute value too large")
    return m


def _mapped(fn, a, *args):
    """fn(x, *args) by CPython on each element x of the float64 array a,
    taken as a Python float, as an array of a's shape."""
    import numpy as np
    values = map(fn, a.ravel().tolist(), *map(repeat, args))
    return np.fromiter(values, float, a.size).reshape(a.shape)


def _row_sums(columns):
    """Each row's sum across the columns, arrays of floats >= +0 or NaN,
    added left to right: on every CPython the value of a loop `s += x`
    from 0, which the builtin `sum` of floats has not been since 3.12."""
    return sum(columns[1:], columns[0])


def _replayed(fn, block):
    """fn on the block, a _Block or a list of points made into one; if that
    raises, fn on a one-point block of each point in turn, so the error
    raised is the one a point-by-point loop meets first.  Every step is per
    point, so some single point raises.  Only this error path forms a
    _Block's points."""
    try:
        return fn(block if isinstance(block, _Block) else _Block.of(block))
    except Exception:  # any error: only its order is at stake, and it is re-raised
        for pt in block.points() if isinstance(block, _Block) else block:
            fn(_Block.of([pt]))
        raise


class _Block:
    """At most BLOCK_POINTS points as float64 arrays `re` and `im` of shape
    (n, m), row j holding coordinate j.  Each power z_j ** k and
    abs(z_j) ** k is computed once per block."""

    __slots__ = ("re", "im", "_memo")

    def __init__(self, re, im):
        self.re, self.im = re, im
        self._memo = {}

    @classmethod
    def of(cls, points) -> "_Block":
        """The points, sequences of complex coordinates, as exact arrays."""
        import numpy as np
        arity = set(map(len, points))
        if len(arity) != 1:
            raise StructuralError("point arity does not match ring")
        n = arity.pop()
        z = np.fromiter(chain.from_iterable(points), dtype=complex, count=len(points) * n)
        z = z.reshape(len(points), n).T
        return cls(z.real.copy(), z.imag.copy())

    def points(self) -> list[tuple[complex, ...]]:
        import numpy as np
        z = np.empty(self.re.shape, dtype=complex)
        z.real = self.re
        z.imag = self.im
        return list(zip(*z.tolist()))

    def power(self, j: int, k: int):
        """z_j ** k as (re, im), k >= 1, as CPython computes it."""
        import numpy as np
        key = ("z", j, k)
        if key not in self._memo:
            if k <= 100:
                # c_powu: from r = (1, 0), r *= p for each set bit of k, lowest
                # first, as p runs through z, p*p, ... (squares kept per block)
                squares = self._memo.setdefault(("squares", j), [(self.re[j], self.im[j])])
                rr, ri = 1.0, 0.0
                for b in range(k.bit_length()):
                    if b == len(squares):
                        pr, pi = squares[-1]
                        squares.append((pr * pr - pi * pi, pr * pi + pi * pr))
                    if k >> b & 1:
                        pr, pi = squares[b]
                        rr, ri = rr * pr - ri * pi, rr * pi + ri * pr
                if np.isinf(rr).any() or np.isinf(ri).any():
                    raise OverflowError("complex exponentiation")
            else:
                z = np.array([complex(x, y) ** k for x, y in
                              zip(self.re[j].tolist(), self.im[j].tolist())], dtype=complex)
                rr, ri = z.real, z.imag
            self._memo[key] = (rr, ri)
        return self._memo[key]

    def modulus_power(self, j: int, k: int):
        """abs(z_j) ** k, k >= 1, by CPython's float power (libm pow)."""
        key = ("abs", j, k)
        if key not in self._memo:
            self._memo[key] = _mapped(pow, _modulus(self.re[j], self.im[j]), k)
        return self._memo[key]


class _ComplexPoly:
    """A polynomial with its coefficients converted once to complex, for
    evaluation on blocks of points: each term's coefficient times the
    powers z_j ** k_j of its nonzero exponents, in variable order, summed
    in term order from 0j."""

    __slots__ = ("n", "terms")

    def __init__(self, p: Polynomial):
        self.n = p.ring.n
        self.terms = tuple((e, complex(c)) for e, c in p.terms().items())

    def evaluate(self, block: _Block):
        """The values at the block's points as (re, im) arrays."""
        import numpy as np
        n, m = block.re.shape
        if n != self.n:
            raise StructuralError("point arity does not match ring")
        tr, ti = np.zeros(m), np.zeros(m)
        for e, c in self.terms:
            vr, vi = c.real, c.imag
            for j, k in enumerate(e):
                if k:
                    pr, pi = block.power(j, k)
                    vr, vi = vr * pr - vi * pi, vr * pi + vi * pr
            tr, ti = tr + vr, ti + vi
        return tr, ti


def _check_residuals(defining: list[_ComplexPoly], block: _Block) -> None:
    """SamplingError unless |f| <= RESIDUAL_TOLERANCE times its scale
    sum_terms |c| * prod_j |z_j| ** k_j at every point, for every f."""
    import numpy as np
    m = block.re.shape[1]
    for f in defining:
        value = _modulus(*f.evaluate(block))
        scale = np.zeros(m)
        for e, c in f.terms:
            mono = 1.0
            for j, k in enumerate(e):
                if k:
                    mono = mono * block.modulus_power(j, k)
            scale = scale + abs(c) * mono  # abs(complex(x)) == abs(x) for a real float x
        if not (value <= RESIDUAL_TOLERANCE * np.maximum(scale, UNDERFLOW_FLOOR)).all():
            raise SamplingError("sampled point violates a defining equation")


def _hasher(const: int, mult: int):
    """SeedSequence's 32-bit hash, whose constant moves on by `mult` at
    each call."""
    def hash_word(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hash_word


def _seed_words(seed: int) -> list[int]:
    """numpy's SeedSequence(seed).generate_state(4, uint64), seed >= 0."""
    entropy = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 128), 32)]

    def mix(x: int, y: int) -> int:
        r = (0xca01f9dd * x - 0x4973f715 * y) & _MASK32
        return r ^ r >> 16

    hashmix = _hasher(0x43b0d7e5, 0x931e8875)
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    generate = _hasher(0x8b51f9dd, 0x58f38ded)
    halves = [generate(pool[i % 4]) for i in range(8)]
    return [lo | hi << 32 for lo, hi in zip(halves[0::2], halves[1::2])]


class _AngleStream:
    """The angles numpy's PCG64 Generator draws from `uniform(0.0, 2*pi)`
    when seeded with `seed`, bit for bit, by SeedSequence and PCG64 as the
    module docstring writes them out.  One call steps the state in Python
    ints only _JUMP times, to s_1..s_L (L = _JUMP), and reaches the rest by
    the LCG's jump-ahead (Brown 1994): s_{jL+i} = A_j * s_i + C_j mod 2^128,
    where (A_j, C_j) is the affine map of jL steps, one numpy pass over a
    table of j by i on the states' 64-bit words.  XSL-RR and the float
    conversion run in numpy over that table."""

    __slots__ = ("state", "inc")

    def __init__(self, seed: int):
        w0, w1, w2, w3 = _seed_words(seed)
        self.inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        self.state = ((self.inc + (w0 << 64 | w1)) * _PCG_MULT + self.inc) & _MASK128

    def angles(self, count: int):
        """The next `count` angles as a float64 array."""
        import numpy as np
        state, inc = self.state, self.inc
        heads = []
        for _ in range(min(count, _JUMP)):
            state = (state * _PCG_MULT + inc) & _MASK128
            heads.append(state)
        maps = [(1, 0)]
        if count > _JUMP:
            shift = (state - _JUMP_MULT * self.state) & _MASK128  # C_1
            while len(maps) * _JUMP < count:
                a, c = maps[-1]
                maps.append((a * _JUMP_MULT & _MASK128, (c * _JUMP_MULT + shift) & _MASK128))
        al, ah = (w[:, None] for w in _words(a for a, _ in maps))
        cl, ch = (w[:, None] for w in _words(c for _, c in maps))
        sl, sh = _words(heads)
        # A * s mod 2^128 on words: lo = al * sl, and hi = ah * sl + al * sh
        # plus the high word of al * sl, from 32-bit limbs
        k32, m32 = np.uint64(32), np.uint64(_MASK32)
        a0, a1, b0, b1 = al & m32, al >> k32, sl & m32, sl >> k32
        mid = a1 * b0 + (a0 * b0 >> k32)
        hi = a1 * b1 + (mid >> k32) + (((mid & m32) + a0 * b1) >> k32) + ah * sl + al * sh
        lo = al * sl
        lo += cl
        hi += ch + (lo < cl)  # + C, carrying out of the low word
        lo, hi = lo.ravel()[:count], hi.ravel()[:count]
        if count:
            self.state = int(hi[-1]) << 64 | int(lo[-1])
        x, rot = hi ^ lo, hi >> np.uint64(58)  # state >> 122
        out = x >> rot | x << (-rot & np.uint64(63))
        return 2.0 * math.pi * ((out >> np.uint64(11)).astype(float) * 2.0 ** -53)


def _words(values):
    """The low and the high 64-bit words of some 128-bit ints, as two uint64
    arrays."""
    import numpy as np
    packed = b"".join(map(int.to_bytes, values, repeat(16), repeat("little")))
    return np.frombuffer(packed, dtype="<u8").reshape(-1, 2).T


def _sample_blocks(sampler: VarietySampler) -> list[_Block]:
    """The sample as blocks of at most BLOCK_POINTS points, each with a
    fresh memo, ordered by (radius index, sample index); residual-checked;
    at most SAMPLE_CAP points.  Each block draws its points' angles from
    one PCG64 stream in (radius, sample, coordinate) order: the values
    numpy's Generator gives from `uniform(0.0, 2*pi, size=(per, k))`
    radius by radius, drawn without importing numpy's random package."""
    import numpy as np
    total = len(sampler.radii) * sampler.samples_per_radius
    if total > SAMPLE_CAP:
        raise ResourceCapError(f"sampler needs {total} points (cap {SAMPLE_CAP})")
    stream = _AngleStream(sampler.seed)
    ring, per = sampler.ring, sampler.samples_per_radius
    if sampler.kind == "parametrized":
        w = min(_lowest_order(c) for c in sampler.components)
        if w < 1:
            raise ValidationError("components must vanish at the origin")
        comps = [_ComplexPoly(c) for c in sampler.components]
        moduli = [[rho ** (1.0 / w)] for rho in sampler.radii]
    else:
        w_min = min(ring.weights)
        free = [j for j in range(ring.n) if j != sampler.solved_var]
        solved = _ComplexPoly(sampler.solved_expr)
        moduli = [[rho ** (ring.weights[j] / w_min) for j in free] for rho in sampler.radii]
    # one row per point, one column per sampled coordinate (t, or the free ones)
    radii = np.repeat(np.array(moduli), per, axis=0)
    parts = []  # (re, im) of each block
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, total, BLOCK_POINTS):
            r = radii[start:start + BLOCK_POINTS].T
            theta = stream.angles(r.size).reshape(r.shape[::-1]).T
            cos, sin = _mapped(math.cos, theta), _mapped(math.sin, theta)
            # r * complex(cos, sin), r promoted to (r, 0.0)
            fre, fim = r * cos - 0.0 * sin, r * sin + 0.0 * cos
            if sampler.kind == "parametrized":
                t = _Block(fre, fim)
                values = [c.evaluate(t) for c in comps]
                re = np.array([v[0] for v in values])
                im = np.array([v[1] for v in values])
            else:
                re, im = np.zeros((ring.n, fre.shape[1])), np.zeros((ring.n, fre.shape[1]))
                re[free], im[free] = fre, fim
                re[sampler.solved_var], im[sampler.solved_var] = solved.evaluate(_Block(re, im))
            parts.append((re, im))
        # every point is formed before any is checked, as one at a time would
        defining = [_ComplexPoly(f) for f in sampler.defining]
        if defining:
            for re, im in parts:
                _replayed(partial(_check_residuals, defining), _Block(re, im))
    return [_Block(re, im) for re, im in parts]


def sample_variety(sampler: VarietySampler) -> list[tuple[complex, ...]]:
    """The points of the sample, as tuples of complex coordinates in
    (radius index, sample index) order; see _sample_blocks."""
    return [pt for block in _sample_blocks(sampler) for pt in block.points()]


class LojaEstimate(Record):
    _fields = ("slope", "intercept", "residual", "n_points", "radii_range", "reliable",
               "log_a", "log_phi")

    def __init__(self, slope: float, intercept: float, residual: float, n_points: int,
                 radii_range: tuple[float, float], reliable: bool,
                 log_a: tuple[float, ...], log_phi: tuple[float, ...]):
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "intercept", intercept)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "n_points", n_points)
        object.__setattr__(self, "radii_range", radii_range)
        object.__setattr__(self, "reliable", reliable)
        # the fitted points: log sum_j |a_j| and log |phi|, in sample order
        object.__setattr__(self, "log_a", log_a)
        object.__setattr__(self, "log_phi", log_phi)


def _fit_blocks(phi: Polynomial, a_polys, blocks) -> LojaEstimate:
    """OLS fit of log|phi| against log sum_j |a_j| over the points of
    `blocks`, an iterable of _Blocks or of lists of points, in order;
    reliable when the residual is at most RESIDUAL_THRESHOLD."""
    import numpy as np
    a_polys = [_ComplexPoly(g) for g in a_polys]
    if not a_polys:
        raise ValidationError("need at least one ideal generator")
    phi = _ComplexPoly(phi)

    def fit_block(block):
        """log sum|a_j| and log|phi| of the kept points, the dropped count
        and the kept points' norms."""
        va = _row_sums([_modulus(*g.evaluate(block)) for g in a_polys])
        vp = _modulus(*phi.evaluate(block))
        kept = ~((va <= UNDERFLOW_FLOOR) | (vp <= UNDERFLOW_FLOOR))
        squares = [_mapped(pow, _modulus(re[kept], im[kept]), 2)
                   for re, im in zip(block.re, block.im)]
        return (list(map(math.log, va[kept].tolist())), list(map(math.log, vp[kept].tolist())),
                len(kept) - int(kept.sum()), np.sqrt(_row_sums(squares)))

    xs: list[float] = []
    ys: list[float] = []
    lo, hi = math.inf, 0.0  # range of the kept points' norms
    dropped = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for block in blocks:
            bx, by, bd, norms = _replayed(fit_block, block)
            xs += bx
            ys += by
            dropped += bd
            # min and max from (inf, 0.0), where a NaN norm never wins
            lo = float(np.fmin.reduce(norms, initial=lo))
            hi = float(np.fmax.reduce(norms, initial=hi))
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
        reliable=residual <= RESIDUAL_THRESHOLD,
        log_a=tuple(xs),
        log_phi=tuple(ys),
    )


def loja_exponent_estimate(phi: Polynomial, a_polys, points) -> LojaEstimate:
    """The fit of _fit_blocks over the points, any iterable of sequences
    of complex coordinates, read BLOCK_POINTS at a time."""
    def chunks():
        it = iter(points)
        while chunk := list(islice(it, BLOCK_POINTS)):
            yield chunk
    return _fit_blocks(phi, a_polys, chunks())
