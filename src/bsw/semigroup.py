"""Numerical semigroups and fractional-ideal containments on curve germs.

For a monomial curve germ the value semigroup S determines everything: an
ideal is a finite antichain of shifts, membership is subtraction, and the
integral closure of A is {s in S : s >= v(A)} where v(A) is the minimal shift
(order of vanishing).  Sets of values are int bit masks over windows of at
most max(conductor, 1) values, never from 0, which would cost v(A) bits; the
gaps are stored once, as the mask `gap_mask`, and never listed.

Truncation sufficiency, and why windows start at ell*v(A): nothing below
ell*v(A) lies in A^ell, so for N < ell the least test element N*v(A) fails;
every s in S with s >= ell*v(A) + conductor lies in A^ell, because
subtracting ell copies of v(A) leaves s - ell*v(A) >= conductor, in S.  So a
check needs only [ell*v(A), ell*v(A) + conductor), and N <= ell +
ceil(conductor / v(A)), where that window is empty.  Mode "power" reads N off
the window: {s in S : s >= N*v(A)} lies in A^ell iff N*v(A) > f, f the largest
member of S outside A^ell, so N = f // v(A) + 1 (f >= (ell-1)*v(A), so when the
window misses nothing ell*v(A) - 1 gives the same N); mode "closure-power"
tries N = 1, 2, ... in turn.  A search builds A^1, A^2, ... one step each, so
its bound is the last power it may build: ell in mode "power" and for a mu
search (which reads N for every ell up to its gauge), ell + ceil(conductor /
v(A)) + 1 in mode "closure-power"; a bound above SEARCH_CAP is refused.
"""

from __future__ import annotations

from itertools import count
from math import ceil, gcd

from .errors import ResourceCapError, StructuralError, ValidationError
from .poly import Record, power_combinations

MU_CAP = 100_000
SEARCH_CAP = 1_000
TABLE_CAP = 1_100_000


class NumericalSemigroup(Record):
    """gap_mask has bit s set iff s is a gap, the one stored form of the gaps."""

    _fields = ("generators", "conductor", "gap_mask")

    def contains(self, s: int) -> bool:
        return s >= 0 and not self.gap_mask >> s & 1

    def window(self, lo: int, width: int) -> int:
        """The members of S in [lo, lo + width) as bits, bit i for lo + i; lo >= 0."""
        return ~(self.gap_mask >> lo) & ((1 << width) - 1)

    def __str__(self):
        return "<" + ", ".join(str(g) for g in self.generators) + ">"


def semigroup_build(generators) -> NumericalSemigroup:
    """Membership bits and conductor for <g_1, ..., g_k>, gcd 1.

    By Schur's bound the conductor is at most (g_min - 1)(g_max - 1), so a table
    of g_min * g_max + 2 entries holds every gap; tables above TABLE_CAP are refused.
    """
    gens = tuple(sorted(set(int(g) for g in generators)))
    if not gens or any(g < 1 for g in gens):
        raise ValidationError("semigroup generators must be positive integers")
    if gcd(*gens) != 1:
        raise ValidationError("semigroup generators must have gcd 1")
    size = gens[0] * gens[-1] + 2
    if size > TABLE_CAP:
        raise ValidationError(f"semigroup table of {size} entries exceeds the cap {TABLE_CAP}")
    member, full = 1, (1 << size) - 1
    for x in gens:
        for k in range((size // x).bit_length()):
            # doubling: after round k, member is closed under adding j * x, j < 2^(k+1)
            member = (member | member << (x << k)) & full
    gap_mask = full & ~member
    return NumericalSemigroup(gens, gap_mask.bit_length(), gap_mask)


def _bits(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of mask >= 0, ascending."""
    return tuple(i for i, b in enumerate(reversed(bin(mask))) if b == "1")


class SemigroupIdeal(Record):
    """Fractional ideal of a germ: antichain of positive shifts."""

    _fields = ("shifts",)

    @property
    def valuation(self) -> int:
        return self.shifts[0]


def semigroup_ideal(S: NumericalSemigroup, shifts) -> SemigroupIdeal:
    """The minimal shifts: s is kept iff s is in no t + (S minus 0), t a shift."""
    shifts = sorted(set(int(s) for s in shifts))
    if not shifts:
        raise ValidationError("ideal needs at least one shift")
    if shifts[0] < 1:
        raise ValidationError("shifts must be positive")
    # a shift at or past v + conductor lies in S and in v + (S minus 0)
    v, width = shifts[0], max(S.conductor, 1)
    outside = _union(1, shifts, v, width) & ~S.window(v, width)
    if outside:
        raise ValidationError(
            f"shift {v + (outside & -outside).bit_length() - 1} is not in the semigroup")
    covered = _union(S.window(0, width) & ~1, shifts, v, width)
    return SemigroupIdeal(tuple(s for s in shifts if s - v < width and not covered >> (s - v) & 1))


def _union(mask: int, shifts, lo: int, width: int) -> int:
    """The union of t + mask over the ascending shifts t >= lo, as bits over [lo, lo + width)."""
    bits = 0
    for t in shifts:
        if t - lo >= width:
            break
        bits |= mask << (t - lo)
    return bits & ((1 << width) - 1)


def germ_ideal_member(s: int, A: SemigroupIdeal, S: NumericalSemigroup) -> bool:
    """s in A iff s - shift lands in S for some shift."""
    if not S.contains(s):
        raise ValidationError(f"{s} is not in the semigroup")
    return any(S.contains(s - g) for g in A.shifts)


def germ_closure_member(s: int, A: SemigroupIdeal, S: NumericalSemigroup,
                        power: int = 1) -> bool:
    """s in the closure of A^power: the valuation test s >= power * v(A)."""
    if power < 1:
        raise ValidationError("power wants ell >= 1")
    if not S.contains(s):
        raise ValidationError(f"{s} is not in the semigroup")
    return s >= power * A.valuation


def _powers(shifts, S: NumericalSemigroup, ell: int = 1):
    """A^ell, A^(ell+1), ... for A the ideal of the ascending shifts, A^k as bits over
    [k*v, k*v + max(conductor, 1)) built from A^(k-1); each capped as by power_combinations,
    A^ell first, so a search builds each power once and a refusal names the power asked for."""
    power_combinations(shifts, ell)
    v, width = shifts[0], max(S.conductor, 1)
    mask = S.window(0, width)  # A^0 = S
    for k in count(1):
        power_combinations(shifts, k)
        mask = _union(mask, shifts, v, width)
        if k >= ell:
            yield mask


def closure_ideal(A: SemigroupIdeal, S: NumericalSemigroup) -> SemigroupIdeal:
    """Integral closure {s in S : s >= v(A)}; its minimal shifts lie below v(A) + conductor."""
    v = A.valuation
    return semigroup_ideal(S, [v + i for i in _bits(S.window(v, max(S.conductor, 1)))])


def containment_holds(A: SemigroupIdeal, N: int, ell: int, S: NumericalSemigroup,
                      mode: str = "power", Al: int | None = None, CN: int | None = None
                      ) -> tuple[bool, int | None]:
    """Is the N-th closure test set inside A^ell?  (holds, first_failure).

    mode "power": test set is the closure of A^N, i.e. {s in S : s >= N*v(A)};
    mode "closure-power": test set is (closure of A)^N.
    Al is A^ell and CN is (closure of A)^N, as _powers bits, if a search built them;
    a power built here is the last power of a search, bounded as one.
    """
    validate_mode(mode)
    v = A.valuation
    if Al is None:
        _search_bound(ell)
        Al = next(_powers(A.shifts, S, ell))
    if mode == "closure-power" and CN is None:
        _search_bound(N)
        CN = next(_powers(closure_ideal(A, S).shifts, S, N))
    if N < ell:
        return False, max(N, 0) * v  # the least test element; A^ell starts at ell*v
    lo, width = ell * v, max(S.conductor, 1)  # S from lo + conductor on is in A^ell
    above = (N - ell) * v  # the test set starts at N*v = lo + above, as CN's window does
    missing = (S.window(lo, width) & ~Al) >> above & (CN if mode == "closure-power" else -1)
    if missing:
        return False, lo + above + (missing & -missing).bit_length() - 1
    return True, None


def germ_bs_exponent(A: SemigroupIdeal, ell: int, S: NumericalSemigroup,
                     mode: str = "power", with_witness: bool = False, Al: int | None = None):
    """Least N with the N-th closure test set inside A^ell.

    The witness (with_witness=True) is the element proving N-1 fails,
    certifying minimality; None when N == 1.  Al as in containment_holds.
    """
    if ell < 1:
        raise ValidationError("ell must be at least 1")
    validate_mode(mode)
    v = A.valuation
    n_cap = ell + ceil(S.conductor / v) + 1  # the last N that "closure-power" tries
    _search_bound(n_cap if mode == "closure-power" else ell)
    Al = next(_powers(A.shifts, S, ell)) if Al is None else Al
    if mode == "power":  # N = f // v + 1, as the module docstring says, checked
        N = (ell * v + (S.window(ell * v, max(S.conductor, 1)) & ~Al).bit_length() - 1) // v + 1
        if not containment_holds(A, N, ell, S, Al=Al)[0]:
            raise StructuralError(f"closed-form exponent {N} fails its containment check")
        witness = containment_holds(A, N - 1, ell, S, Al=Al)[1] if with_witness and N > 1 else None
        return (N, witness) if with_witness else N
    last_failure: int | None = None
    for N, CN in zip(range(1, n_cap + 1), _powers(closure_ideal(A, S).shifts, S)):
        holds, failure = containment_holds(A, N, ell, S, mode=mode, Al=Al, CN=CN)
        if holds:
            return (N, last_failure) if with_witness else N
        last_failure = failure
    raise StructuralError("exponent search exceeded its provable bound")


def validate_mode(mode: str) -> None:
    """A containment mode is "power" or "closure-power"."""
    if mode not in ("power", "closure-power"):
        raise ValidationError(f"unknown mode {mode!r}")


def _search_bound(bound: int) -> None:
    """Refuse a search whose last power, as the module docstring says, exceeds SEARCH_CAP."""
    if bound > SEARCH_CAP:
        raise ResourceCapError(f"exponent search bound {bound} exceeds the cap {SEARCH_CAP}")


def enumerate_ideals(S: NumericalSemigroup, v_max: int):
    """All antichain ideals with valuation <= v_max, deterministically.

    For valuation v the remaining shifts live in (v, v + conductor) and
    must avoid v + S pairwise, so the search space is finite.
    """
    if v_max < 1:
        raise ValidationError("v_max must be at least 1")
    members = S.window(0, S.conductor)

    def rec(shifts: tuple[int, ...], rest: int):
        # rest: bit i for each later candidate shifts[0] + i that no shift covers
        yield SemigroupIdeal(shifts)
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            yield from rec(shifts + (shifts[0] + i,), rest & ~(members << i))

    for v in range(1, v_max + 1):
        if S.contains(v):
            yield from rec((v,), S.window(v, S.conductor) & S.gap_mask)  # s - v a gap


def huneke_mu(S: NumericalSemigroup, v_max: int, ell_max: int) -> tuple[int, SemigroupIdeal, int]:
    """Exhaustive uniform exponent over the enumerated family.

    mu = max over ideals A with v(A) <= v_max and ell <= ell_max of
    (germ_bs_exponent(A, ell) - ell + 1); returns (mu, witness ideal,
    witness ell), first maximizer in enumeration order.  This is an
    empirical lower bound for the germ's uniform exponent: the family
    is every antichain ideal of the value semigroup up to the gauge.
    """
    if ell_max < 1:
        raise ValidationError("ell_max must be at least 1")
    if v_max < S.generators[0]:
        raise ValidationError(
            f"v_max must be at least {S.generators[0]}, the smallest element of {S}")
    _search_bound(ell_max)
    best: tuple[int, SemigroupIdeal, int] | None = None
    for seen, A in enumerate(enumerate_ideals(S, v_max), 1):
        if seen > MU_CAP:
            raise ResourceCapError(f"mu search exceeded {MU_CAP} ideals")
        for ell, Al in zip(range(1, ell_max + 1), _powers(A.shifts, S)):
            cand = germ_bs_exponent(A, ell, S, Al=Al) - ell + 1
            if best is None or cand > best[0]:
                best = (cand, A, ell)
    return best
