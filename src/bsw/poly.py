"""Exact sparse multivariate polynomials over Q.

A polynomial is stored as a dict from exponent tuple to Fraction with no
zero coefficients; the ring is a small immutable context carrying the
variable names, positive integer weights and one of the monomial orders
in RING_ORDERS.  Coefficients stay exact rationals end to end.
Every sparse term dict, here and in modgb.py, is filled through
add_term, which adds a coefficient in place and drops the key at 0.
Terms are checked once, where they enter: check_exponent, in the Polynomial and
modgb.VecPoly constructors; results the package builds take the unchecked `_of`.
Representatives of germs are polynomials only; there is no
truncated-series layer.

Monomial orders are realized as sort keys: for two exponent vectors a, b
we have a > b in the order iff order_key(a) > order_key(b) as Python
tuples.  Keys are additive, so every order here is multiplicative, and
1 has the smallest key.  RingContext picks its order_key once, when it is
built, from the _ORDER_KEYS table.  There is no elimination order; modgb.py
eliminates.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb
from operator import add, le, mul, neg, sub

from .errors import ResourceCapError, StructuralError, ValidationError

Exponent = tuple[int, ...]

POWER_CAP = 200_000


def _weighted_degrevlex_key(weights: tuple[int, ...], e: Exponent):
    return (sum(map(mul, weights, e)), tuple(map(neg, e[::-1])))


def _degrevlex_key(weights: tuple[int, ...], e: Exponent):
    return (sum(e), tuple(map(neg, e[::-1])))


def _lex_key(weights: tuple[int, ...], e: Exponent):
    return tuple(e)


# order tag -> sort key of (weights, exponent); larger key = larger monomial
_ORDER_KEYS = {
    "weighted-degrevlex": _weighted_degrevlex_key,
    "degrevlex": _degrevlex_key,
    "lex": _lex_key,
}
RING_ORDERS = tuple(_ORDER_KEYS)


@dataclass(frozen=True)
class RingContext:
    """Polynomial ring C[x_1..x_n] with weights and a monomial order."""

    variable_names: tuple[str, ...]
    weights: tuple[int, ...] = ()
    order: str = "weighted-degrevlex"

    def __post_init__(self):
        names = tuple(self.variable_names)
        object.__setattr__(self, "variable_names", names)
        if not names:
            raise ValidationError("ring needs at least one variable")
        if len(set(names)) != len(names):
            raise ValidationError("variable names must be distinct")
        for nm in names:
            if not nm.isidentifier():
                raise ValidationError(f"bad variable name {nm!r}")
        w = tuple(self.weights) if self.weights else (1,) * len(names)
        if len(w) != len(names):
            raise ValidationError("weights length must match variable count")
        if any((not isinstance(x, int)) or x < 1 for x in w):
            raise ValidationError("weights must be positive integers")
        object.__setattr__(self, "weights", w)
        if self.order not in _ORDER_KEYS:
            raise ValidationError(f"unknown order tag {self.order!r}")
        # order_key(e) is the sort key of exponent e; not a field, so
        # equality and hashing stay by the three fields above
        object.__setattr__(self, "order_key", partial(_ORDER_KEYS[self.order], w))

    @property
    def n(self) -> int:
        return len(self.variable_names)

    def weighted_degree(self, e: Exponent) -> int:
        return sum(map(mul, self.weights, e))

    def var_index(self, name: str) -> int:
        try:
            return self.variable_names.index(name)
        except ValueError:
            raise ValidationError(f"unknown variable {name!r}") from None


def power_combinations(gens: tuple, ell: int):
    """The multisets of ell generators whose products (or sums) generate
    the ell-th power, as tuples; the one ideal-power enumeration of the
    polynomial, monomial and semigroup regimes, refused with
    ResourceCapError when there are more than POWER_CAP of them."""
    if ell < 1:
        raise ValidationError("power wants ell >= 1")
    count = comb(len(gens) + ell - 1, ell)
    if count > POWER_CAP:
        raise ResourceCapError(f"ideal power would need {count} products (cap {POWER_CAP})")
    return itertools.combinations_with_replacement(gens, ell)


# The exponent kernels and the order keys run as `map` over operator
# functions and builtins, C loops with no Python frame per entry.

def exp_add(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(add, a, b))

def exp_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(sub, a, b))

def exp_divides(a: Exponent, b: Exponent) -> bool:
    return all(map(le, a, b))

def exp_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def minimalize_antichain(exps) -> tuple[Exponent, ...]:
    """Drop exponents componentwise-dominated by another; sorted, deduped."""
    uniq = sorted(set(tuple(e) for e in exps), key=lambda e: (sum(e), e))
    kept: list[Exponent] = []
    for v in uniq:
        if not any(exp_divides(u, v) for u in kept):
            kept.append(v)
    return tuple(sorted(kept))


def add_term(terms: dict, key, c) -> None:
    """terms[key] += c in place; the key is dropped when the sum is 0."""
    s = terms.get(key, 0) + c
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


def check_exponent(e, n: int) -> Exponent:
    """tuple(e), or StructuralError unless it is n nonnegative ints."""
    e = tuple(e)
    if len(e) != n:
        raise StructuralError("exponent arity does not match ring")
    if any((not isinstance(x, int)) or x < 0 for x in e):
        raise StructuralError("exponents must be nonnegative integers")
    return e


class Polynomial:
    """Immutable sparse polynomial; do not mutate `_terms` after construction."""

    __slots__ = ("ring", "_terms", "_hash")

    def __init__(self, ring: RingContext, terms):
        clean: dict[Exponent, Fraction] = {}
        for e, c in (terms.items() if isinstance(terms, dict) else terms):
            add_term(clean, check_exponent(e, ring.n), Fraction(c))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _of(cls, ring: RingContext, clean: dict) -> "Polynomial":
        """Unchecked: `clean` maps exponent tuples of ring's arity to nonzero Fractions."""
        p = cls(ring, {})
        object.__setattr__(p, "_terms", clean)
        return p

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ring: RingContext) -> "Polynomial":
        return cls(ring, {})

    @classmethod
    def constant(cls, ring: RingContext, c) -> "Polynomial":
        return cls(ring, {(0,) * ring.n: Fraction(c)})

    @classmethod
    def variable(cls, ring: RingContext, i: int) -> "Polynomial":
        e = [0] * ring.n
        e[i] = 1
        return cls(ring, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, ring: RingContext, e: Exponent, c=1) -> "Polynomial":
        return cls(ring, {tuple(e): Fraction(c)})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> dict[Exponent, Fraction]:
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        key = self.ring.order_key
        return sorted(self._terms.items(), key=lambda t: key(t[0]), reverse=True)

    def leading_term(self) -> tuple[Exponent, Fraction]:
        if not self._terms:
            raise ValidationError("zero polynomial has no leading term")
        key = self.ring.order_key
        e = max(self._terms, key=key)
        return e, self._terms[e]

    def constant_value(self) -> Fraction | None:
        """The coefficient if the polynomial is a constant, else None (0 -> 0)."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1:
            e, c = next(iter(self._terms.items()))
            if all(x == 0 for x in e):
                return c
        return None

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "Polynomial"):
        if not isinstance(other, Polynomial):
            raise StructuralError("expected a Polynomial operand")
        if other.ring != self.ring:
            raise StructuralError("operands live in different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            add_term(out, e, c)
        return Polynomial._of(self.ring, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.ring, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                add_term(out, exp_add(e1, e2), c1 * c2)
        return Polynomial._of(self.ring, out)

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValidationError("polynomial power wants a nonnegative integer")
        out = Polynomial.constant(self.ring, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:  # square only while bits remain
                base = base * base
        return out

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial._of(self.ring, {e: c * v for e, v in self._terms.items()} if c else {})

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading_term()[1])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.ring, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- calculus / evaluation ----------------------------------------

    def derivative(self, i: int) -> "Polynomial":
        """Partial derivative with respect to variable i."""
        out: dict[Exponent, Fraction] = {}
        for e, c in self._terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = c * e[i]
        return Polynomial._of(self.ring, out)

    # -- printing -----------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)!r})"


@dataclass(frozen=True)
class WeightedDegreeInfo:
    min_degree: int
    max_degree: int
    quasi_homogeneous: bool


def weighted_degree_info(p: Polynomial) -> WeightedDegreeInfo:
    """Weighted degree range of p; degree of 0 is undefined."""
    if p.is_zero():
        raise ValidationError("degree of the zero polynomial is undefined")
    degs = [p.ring.weighted_degree(e) for e in p._terms]
    lo, hi = min(degs), max(degs)
    return WeightedDegreeInfo(lo, hi, lo == hi)


def format_monomial(e: Exponent, names: tuple[str, ...]) -> str:
    """x^2*y style; the empty string for the unit monomial."""
    parts = []
    for nm, k in zip(names, e):
        if k == 1:
            parts.append(nm)
        elif k > 1:
            parts.append(f"{nm}^{k}")
    return "*".join(parts)


def format_polynomial(p: Polynomial) -> str:
    """Canonical text form: terms in decreasing ring order, exact coefficients."""
    if p.is_zero():
        return "0"
    chunks: list[str] = []
    for i, (e, c) in enumerate(p.sorted_terms()):
        mono = format_monomial(e, p.ring.variable_names)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if i == 0:
            chunks.append(body if c > 0 else "-" + body)
        else:
            chunks.append((" + " if c > 0 else " - ") + body)
    return "".join(chunks)


_SPACES = re.compile(r"\s*")


class _Tokens:
    """Tiny tokenizer for the polynomial text syntax, tracking positions."""

    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def peek(self) -> str:
        """The next non-space character ("" at the end), skipping the spaces."""
        self.i = _SPACES.match(self.text, self.i).end()
        return self.text[self.i:self.i + 1]

    def take(self) -> str:
        ch = self.peek()
        self.i += 1
        return ch

    def error(self, msg: str):
        raise ValidationError(f"{msg} at position {self.i} in {self.text!r}")

    def read(self, pattern: str, what: str) -> str:
        """The run that `pattern` matches after any spaces; if none, an error
        that names `what`."""
        self.peek()
        m = re.compile(pattern).match(self.text, self.i)
        if m is None:
            self.error(f"expected {what}")
        self.i = m.end()
        return m.group()


def parse_polynomial(text: str, ring: RingContext) -> Polynomial:
    """Parse `3/2*x^2*y - z` style syntax; errors carry position info.

    Grammar: sum of terms, each after a run of signs (required between
    terms); a term is a product of factors joined by `*`; a factor is an
    integer of ASCII digits with an optional `/denominator`, a variable, or
    a parenthesized sum, with an optional `^integer`.
    """
    tk = _Tokens(text)
    p = _parse_sum(tk, ring)
    if tk.peek():
        tk.error("trailing input")
    return p


def _parse_sum(tk: _Tokens, ring: RingContext) -> Polynomial:
    total = Polynomial.zero(ring)
    while True:
        negative = False
        while tk.peek() in ("+", "-"):
            negative ^= tk.take() == "-"
        term = _parse_product(tk, ring)
        total = total + (-term if negative else term)
        if tk.peek() not in ("+", "-"):
            return total


def _parse_product(tk: _Tokens, ring: RingContext) -> Polynomial:
    p = _parse_factor(tk, ring)
    while tk.peek() == "*":
        tk.take()
        p = p * _parse_factor(tk, ring)
    return p


def _parse_factor(tk: _Tokens, ring: RingContext) -> Polynomial:
    ch = tk.peek()
    if ch == "(":
        tk.take()
        p = _parse_sum(tk, ring)
        if tk.peek() != ")":
            tk.error("expected ')'")
        tk.take()
    elif "0" <= ch <= "9":
        num = int(tk.read("[0-9]+", "an integer"))
        if tk.peek() == "/":
            tk.take()
            den = int(tk.read("[0-9]+", "an integer"))
            if den == 0:
                tk.error("zero denominator")
            num = Fraction(num, den)
        p = Polynomial.constant(ring, num)
    elif ch.isalpha() or ch == "_":
        p = Polynomial.variable(ring, ring.var_index(tk.read(r"\w+", "a name")))
    else:
        tk.error("expected a factor")
    if tk.peek() == "^":
        tk.take()
        p = p ** int(tk.read("[0-9]+", "an integer"))
    return p


def split_top_commas(text: str) -> list[str]:
    """Split on commas outside parentheses; parts come back stripped."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    parts.append(text[start:].strip())
    return parts


def parse_polynomials(text: str, ring: RingContext) -> list[Polynomial]:
    """Comma-separated list of polynomials."""
    return [parse_polynomial(part, ring) for part in split_top_commas(text)]
