"""Independent oracles and the expected-results files built from them.

Nothing here imports bsw.  Expected values come from theory where it
exists (Eagon-Northcott and Koszul Betti numbers, Hilbert series of
complete intersections, Briancon-Skoda, the cusp slope 5/2) and
otherwise from small recomputations that share no code with bsw:

- Newton closures by brute-force enumeration of supporting hyperplanes
  (bsw projects with Fourier-Motzkin);
- numerical-semigroup exponents by set arithmetic on bit masks over the
  ideals of the semigroup (bsw walks antichains);
- Hilbert functions by dense linear algebra on truncated degrees;
- resolution maps by multiplying the reported matrices back together.

Regenerate the files with ``python3 perfbench/oracles.py --write`` and
compare them with ``python3 perfbench/oracles.py --check``.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")
WORKLOADS = ("acceptance", "resolve", "search")


# ---------------------------------------------------------------- polynomials
# A polynomial is a dict {exponent tuple: Fraction}, zero terms dropped.

_TERM_SPLIT = re.compile(r"\s*([+-])\s*")


def parse_poly(text: str, names) -> dict:
    """Parse the plain text form 'c*x^a*y^b - ...' over the given variables."""
    index = {name: j for j, name in enumerate(names)}
    text = text.strip()
    if text.startswith("-"):
        text = "0 " + text
    parts = _TERM_SPLIT.split(text)
    out: dict = {}
    sign = 1
    for k, part in enumerate(parts):
        if k % 2 == 1:
            sign = 1 if part == "+" else -1
            continue
        coeff = Fraction(sign)
        exp = [0] * len(names)
        for factor in part.split("*"):
            factor = factor.strip()
            if factor[0].isdigit():
                coeff *= Fraction(factor)
                continue
            name, _, power = factor.partition("^")
            exp[index[name]] += int(power) if power else 1
        _add_term(out, tuple(exp), coeff)
    return out


def _add_term(out: dict, e: tuple, c: Fraction) -> None:
    s = out.get(e, 0) + c
    if s:
        out[e] = s
    else:
        out.pop(e, None)


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            _add_term(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
    return out


def maps_form_complex(maps, names, generators) -> bool:
    """f_1 is the generator row as given and f_k * f_(k+1) = 0 for all k."""
    mats = [[[parse_poly(x, names) for x in row] for row in m] for m in maps]
    gens = [parse_poly(g, names) for g in generators]
    if len(mats[0]) != 1 or mats[0][0] != gens:
        return False
    for a, b in zip(mats, mats[1:]):
        if len(a[0]) != len(b):
            return False
        for row in a:
            for j in range(len(b[0])):
                acc: dict = {}
                for k, entry in enumerate(row):
                    for e, c in poly_mul(entry, b[k][j]).items():
                        _add_term(acc, e, c)
                if acc:
                    return False
    return True


def hilbert_numerator_from_shifts(shifts) -> list[int]:
    """K-polynomial sum_i (-1)^i sum_j t^(shift_ij) of a graded free resolution."""
    top = max(max(s) for s in shifts)
    out = [0] * (top + 1)
    for i, level in enumerate(shifts):
        for d in level:
            out[d] += (-1) ** i
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _poly_coeffs_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def complete_intersection_numerator(degrees) -> list[int]:
    """prod (1 - t^d): the K-polynomial of a complete intersection."""
    out = [1]
    for d in degrees:
        out = _poly_coeffs_mul(out, [1] + [0] * (d - 1) + [-1])
    return out


def _monomials(n: int, degree: int):
    for combo in itertools.combinations_with_replacement(range(n), degree):
        e = [0] * n
        for j in combo:
            e[j] += 1
        yield tuple(e)


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [r[:] for r in rows]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / p[col]
                rows[i] = [x - f * y for x, y in zip(rows[i], p)]
        rank += 1
    return rank


def hilbert_function(generators, names, max_degree: int) -> list[int]:
    """dim (R/I)_d for d = 0..max_degree, homogeneous I, by linear algebra."""
    n = len(names)
    gens = [parse_poly(g, names) for g in generators]
    out = []
    for d in range(max_degree + 1):
        basis = list(_monomials(n, d))
        col = {e: j for j, e in enumerate(basis)}
        rows = []
        for g in gens:
            gd = sum(next(iter(g)))
            if gd > d:
                continue
            for m in _monomials(n, d - gd):
                row = [Fraction(0)] * len(basis)
                for e, c in g.items():
                    row[col[tuple(a + b for a, b in zip(e, m))]] = c
                rows.append(row)
        out.append(len(basis) - (_rank(rows) if rows else 0))
    return out


def numerator_from_hilbert_function(hf: list[int], n: int) -> list[int]:
    """First len(hf) coefficients of HS(t) * (1 - t)^n."""
    factor = complete_intersection_numerator([1] * n)
    prod = _poly_coeffs_mul(hf, factor)[:len(hf)]
    return prod


# ---------------------------------------------------------- Newton closures

def _normal(vectors: list[tuple[int, ...]], n: int) -> tuple[int, ...]:
    """A vector orthogonal to n-1 vectors in Z^n, by signed cofactors."""
    out = []
    for j in range(n):
        minor = [[v[k] for k in range(n) if k != j] for v in vectors]
        out.append((-1) ** j * _det(minor))
    return tuple(out)


def _det(m: list[list[int]]) -> int:
    if not m:
        return 1
    total = 0
    for j, x in enumerate(m[0]):
        if x:
            rest = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * x * _det(rest)
    return total


def newton_halfspaces(gens: list[tuple[int, ...]]):
    """Supporting halfspaces w.v >= c of conv(gens) + R^n_>=0, w >= 0.

    Every facet of the Newton polyhedron is spanned by k >= 1 of the
    generators and n - k coordinate rays, so enumerating those choices
    finds every facet; any extra halfspace is still valid because c is
    the minimum of w over the generators.
    """
    n = len(gens[0])
    rays = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    out = set()
    for k in range(1, n + 1):
        for pts in itertools.combinations(gens, k):
            diffs = [tuple(a - b for a, b in zip(p, pts[0])) for p in pts[1:]]
            for rs in itertools.combinations(rays, n - k):
                w = _normal(diffs + list(rs), n)
                if all(x <= 0 for x in w):
                    w = tuple(-x for x in w)
                if not any(w) or any(x < 0 for x in w):
                    continue
                out.add((w, min(sum(a * b for a, b in zip(w, g)) for g in gens)))
    return sorted(out)


def newton_closure_exponents(gens: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Minimal lattice points of the Newton polyhedron of a monomial ideal."""
    halfspaces = newton_halfspaces(gens)
    n = len(gens[0])
    box = [max(g[j] for g in gens) for j in range(n)]
    inside = [v for v in itertools.product(*(range(b + 1) for b in box))
              if all(sum(a * b for a, b in zip(w, v)) >= c for w, c in halfspaces)]
    return sorted(v for v in inside
                  if not any(u != v and all(a <= b for a, b in zip(u, v)) for u in inside))


def monomial_exponents(texts, names) -> list[tuple[int, ...]]:
    out = []
    for t in texts:
        (e,) = parse_poly(t, names)
        out.append(e)
    return sorted(out)


# ------------------------------------------------------ numerical semigroups
# Sets of integers in [0, limit) are int bit masks: bit s set <=> s in set.

class Semigroup:
    def __init__(self, generators, limit: int):
        self.limit = limit
        self.full = (1 << limit) - 1
        mask = 1
        for s in range(1, limit):
            if any(s >= g and mask >> (s - g) & 1 for g in generators):
                mask |= 1 << s
        self.mask = mask
        gaps = [s for s in range(limit) if not mask >> s & 1]
        self.conductor = gaps[-1] + 1 if gaps else 0
        if self.conductor * 3 > limit:
            raise ValueError("limit too small for this semigroup")

    def contains(self, s: int) -> bool:
        return s >= 0 and bool(self.mask >> s & 1)

    def ideal(self, shifts) -> int:
        return self.shifted_union(self.mask, shifts)

    def shifted_union(self, mask: int, shifts) -> int:
        """Union of s + mask over the shifts, which is mask + ideal(shifts)
        whenever mask is itself an ideal."""
        out = 0
        for a in shifts:
            out |= mask << a
        return out & self.full

    def above(self, v: int) -> int:
        """{s in S : s >= v}, the integral closure of any ideal of valuation v."""
        return self.mask & ~((1 << v) - 1) & self.full


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def bs_exponent(S: Semigroup, shifts, ell: int, mode: str = "power"):
    """Least N with the N-th test set inside A^ell, A generated by shifts,
    and the least element of the (N-1)-th test set outside A^ell (None if
    N == 1).  The N-th test set is the closure of A^N, {s in S : s >= N v},
    or with mode "closure-power" the N-th power of the closure of A."""
    v = min(shifts)
    if ell * v + S.conductor >= S.limit:
        raise ValueError("limit too small")
    ideal = S.ideal(shifts)
    power = ideal
    for _ in range(ell - 1):
        power = S.shifted_union(power, shifts)
    closure_gens = [s for s in range(v, v + max(S.conductor, 1)) if S.contains(s)]
    closure_power = S.above(v)
    last = None
    for N in itertools.count(1):
        if N * v >= S.limit:
            raise ValueError("limit too small")
        if mode == "power":
            test = S.above(N * v)
        else:
            if N > 1:
                closure_power = S.shifted_union(closure_power, closure_gens)
            test = closure_power
        outside = test & ~power
        if not outside:
            return N, last
        last = _lowest(outside)


def all_ideals(S: Semigroup, vmax: int) -> list[list[int]]:
    """Minimal generators of every ideal of S with valuation <= vmax.

    An ideal with valuation v is v + S together with any set of elements
    of S in (v, v + conductor); distinct unions are distinct ideals.
    """
    out = []
    for v in range(1, vmax + 1):
        if not S.contains(v):
            continue
        base = S.ideal([v])
        free = [s for s in range(v + 1, v + S.conductor)
                if S.contains(s) and not base >> s & 1]
        seen = set()
        for r in range(len(free) + 1):
            for extra in itertools.combinations(free, r):
                gens = [v, *extra]
                mask = S.ideal(gens)
                if mask not in seen:
                    seen.add(mask)
                    out.append([g for g in gens
                                if not any(h != g and S.contains(g - h) for h in gens)])
    return out


def huneke_mu(S: Semigroup, vmax: int, lmax: int):
    """(mu, every maximizing (minimal shifts, ell)) over the ideal family."""
    best = None
    maximizers = []
    for shifts in all_ideals(S, vmax):
        for ell in range(1, lmax + 1):
            N, _ = bs_exponent(S, shifts, ell)
            cand = N - ell + 1
            if best is None or cand > best:
                best, maximizers = cand, []
            if cand == best:
                maximizers.append({"ideal": shifts, "ell": ell})
    return best, maximizers


# ---------------------------------------------------------- expected files

def command_lines(text: str) -> list[tuple[int, str]]:
    """(line, command kind) of every command statement in a session file."""
    declarations = ("ring", "ideal", "poly")
    out = []
    line = 1
    start = None
    buf = []
    in_comment = False
    for ch in text:
        if ch == "#":
            in_comment = True
        if ch == "\n":
            in_comment = False
        if not in_comment and ch == ";":
            words = "".join(buf).split()
            buf = []
            if words[0] == "germ":
                if words[1] not in ("semigroup", "ideal"):
                    out.append((start, "germ " + words[1]))
            elif words[0] not in declarations:
                out.append((start, words[0]))
            start = None
        elif not in_comment:
            if start is None and not ch.isspace():
                start = line
            buf.append(ch)
        if ch == "\n":
            line += 1
    return out


def _resolve_graded(names, generators, betti, numerator, certified, why):
    return {"command": "resolve", "why": why,
            "equal": {"status": "ok", "result.minimal_betti": betti,
                      "result.graded": True, "result.certified": certified},
            "hilbert_numerator": numerator,
            "complex": {"variables": names, "generators": generators}}


def _expected_ranks(betti) -> list[int]:
    """Ranks rho_k = b_k - b_(k+1) + ... of the maps of a minimal resolution."""
    return [sum((-1) ** (i - k) * b for i, b in enumerate(betti) if i >= k)
            for k in range(1, len(betti))]


def _strata(dim, codim, betti, rows, why):
    return {"command": "strata", "why": why,
            "equal": {"status": "ok", "result.dim": dim, "result.codim": codim,
                      "result.expected_ranks": _expected_ranks(betti),
                      "result.purity_ok": True},
            "strata_dims": rows}


def _verdict(command, holds, witness, why, **extra):
    equal = {"status": "ok", "result.holds": holds, "result.witness": witness}
    equal.update({f"result.{k}": v for k, v in extra.items()})
    return {"command": command, "why": why, "equal": equal}


def _check_cm(is_cm, depth, dim, why):
    return {"command": "check-cm", "why": why,
            "equal": {"status": "ok", "result.is_cm": is_cm, "result.depth": depth,
                      "result.dim": dim}}


def _loja(value, tol, n_points, why):
    return {"command": "loja", "why": why,
            "equal": {"status": "ok", "result.n_points": n_points, "result.reliable": True},
            "slope": {"value": value, "abs_tol": tol, "or_residual": True}}


def _bs_verify(m, d, ell, why):
    exponent = min(m, d) + ell - 1
    return {"command": "bs-verify-monomial", "why": why,
            "equal": {"status": "ok", "result.holds": True, "result.ell": ell, "result.d": d,
                      "result.exponent": exponent, "result.counterexample": None}}


def _newton(names, gens, why):
    exps = monomial_exponents(gens, names)
    return {"command": "newton-closure", "why": why,
            "equal": {"status": "ok"},
            "closure": {"variables": names,
                        "exponents": [list(e) for e in newton_closure_exponents(exps)]}}


def _germ_mu(generators, vmax, lmax):
    S = Semigroup(generators, limit=lmax * (vmax + 40) + 120)
    mu, maximizers = huneke_mu(S, vmax, lmax)
    return {"command": "germ mu",
            "why": "maximum of N - ell + 1 over every ideal of the semigroup, by set arithmetic",
            "equal": {"status": "ok", "result.mu": mu, "result.vmax": vmax, "result.lmax": lmax},
            "one_of": {"result.witness": maximizers}}


def _germ_exponent(generators, shifts, ell, mode):
    S = Semigroup(generators, limit=400)
    N, witness = bs_exponent(S, shifts, ell, mode)
    return {"command": "germ bs-exponent",
            "why": "least N with the test set inside the power, by set arithmetic",
            "equal": {"status": "ok", "result.exponent": N, "result.ell": ell,
                      "result.mode": mode, "result.minimality_witness": witness}}


def _acceptance_blocks() -> list[dict]:
    zw = ["z", "w"]
    tp = ["x", "y", "z2", "w2"]
    S25 = Semigroup((2, 5), limit=400)
    return [
        _resolve_graded(zw, ["-w^2 + z^5"], [1, 1], [1] + [0] * 9 + [-1], True,
                        "hypersurface of weighted degree 10"),
        _strata(1, 1, [1, 1], [[0, 0]], "plane cusp: singular only at the origin"),
        _check_cm(True, 1, 1, "hypersurfaces are Cohen-Macaulay"),
        _verdict("check-normal", False, {"r": 0, "codim": 1},
                 "the cusp is singular in codimension 1"),
        _verdict("check-bs", False, {"r": 0, "codim": 1},
                 "the singular point meets V(z) in codimension 1 < 2", m=1),
        _loja(2.5, 1e-9, 70, "|w| = |z|^(5/2) along (t^2, t^5)"),
        _loja(3.0, 0.05, 70,
              "|z^3| = |t|^6 and |z| + |w| = |t|^2 (1 + |t|^3), so the slope is 3 "
              "up to a bias below 0.05 at these radii"),
        _bs_verify(2, 2, 1, "Briancon-Skoda"),
        _bs_verify(2, 2, 2, "Briancon-Skoda"),
        _newton(zw, ["z^2", "w^2"], "minimal lattice points of the Newton polyhedron"),
        {"command": "germ member", "why": "5 - 2 = 3 is a gap of <2,5>",
         "equal": {"status": "ok", "result.s": 5,
                   "result.member": S25.contains(5 - 2)}},
        {"command": "germ closure-member",
         "why": "closure of A^2 is {s in S : s >= 4}",
         "equal": {"status": "ok", "result.s": 5, "result.power": 2,
                   "result.member": bool(S25.above(4) >> 5 & 1)}},
        _germ_exponent((2, 5), [2], 1, "power"),
        _germ_exponent((2, 5), [2], 2, "power"),
        _germ_exponent((2, 5), [2], 1, "closure-power"),
        _germ_mu((2, 5), 12, 4),
        _germ_exponent((2, 3), [2], 1, "power"),
        _germ_mu((2, 3), 12, 4),
        _resolve_graded(tp, ["x*z2", "x*w2", "y*z2", "y*w2"], [1, 4, 4, 1],
                        [1, 0, -4, 4, -1], True,
                        "two planes meeting in a point: Betti 1,4,4,1"),
        _strata(2, 2, [1, 4, 4, 1], [[0, 0], [1, 0]],
                "two planes: singular and non-Cohen-Macaulay exactly at the origin"),
        _check_cm(False, 1, 2, "two planes meeting in a point have depth 1"),
        _verdict("check-normal", False, {"r": 1, "codim": 2},
                 "the non-Cohen-Macaulay point has codimension 2 < 3"),
        _strata(2, 1, [1, 1], [[0, 0]], "quadric cone: isolated singularity"),
        _check_cm(True, 2, 2, "hypersurfaces are Cohen-Macaulay"),
        _verdict("check-normal", True, None, "the quadric cone is normal"),
        _verdict("check-bs", True, None,
                 "the vertex meets V(a) in codimension 2 >= 2", m=1),
    ]


def _resolve_blocks() -> list[dict]:
    rnc4 = ["a", "b", "c", "d", "e"]
    xyzw = ["x", "y", "z", "w"]
    ng = ["x2", "y2", "z2"]
    qc = ["x^2 - y*z", "y^2 - x*w", "x*z^2 - w^3"]
    qc_hf = hilbert_function(qc, xyzw, 8)
    qc_ci = complete_intersection_numerator([2, 2, 3])
    if numerator_from_hilbert_function(qc_hf, 4) != qc_ci + [0] * (9 - len(qc_ci)):
        raise AssertionError("x^2-yz, y^2-xw, xz^2-w^3 is not a complete intersection")
    rnc4_gens = ["a*c - b^2", "a*d - b*c", "a*e - b*d", "b*d - c^2", "b*e - c*d",
                 "c*e - d^2"]
    return [
        _strata(2, 2, [1, 3, 2], [[0, 0]],
                "cone over the twisted cubic: Cohen-Macaulay (Eagon-Northcott 1,3,2), "
                "singular only at the vertex"),
        _resolve_graded(rnc4, rnc4_gens, [1, 6, 8, 3], [1, 0, -6, 8, -3], False,
                        "Eagon-Northcott: Betti 1,6,8,3"),
        _resolve_graded(xyzw, ["x^2", "y^2", "z^2", "w^2"], [1, 4, 6, 4, 1],
                        complete_intersection_numerator([2, 2, 2, 2]), True,
                        "Koszul complex on a regular sequence"),
        _resolve_graded(xyzw, qc, [1, 3, 3, 1], qc_ci, True,
                        "complete intersection of degrees 2,2,3 (Hilbert function by "
                        "linear algebra up to degree 8)"),
        _verdict("check-normal", False, {"r": 1, "codim": 2},
                 "two planes: the non-Cohen-Macaulay point has codimension 2 < 3"),
        {"command": "resolve",
         "why": "any free resolution of R/I has Euler characteristic 0 and length <= 3",
         "equal": {"status": "ok", "result.graded": False, "result.certified": True},
         "euler_characteristic": 0, "max_levels": 4,
         "complex": {"variables": ng,
                     "generators": ["x2^2 - y2^3", "x2*z2 - y2^4", "z2^2 - x2*y2^5"]}},
    ]


def _search_blocks() -> list[dict]:
    xyz = ["x", "y", "z"]
    return [
        _bs_verify(4, 3, 3, "Briancon-Skoda"),
        _newton(xyz, ["x^6", "y^7", "z^8", "x^2*y^2*z^2"],
                "minimal lattice points of the Newton polyhedron"),
        _bs_verify(5, 4, 2, "Briancon-Skoda"),
        _germ_mu((5, 7, 9), 20, 4),
        _germ_mu((4, 6, 9), 20, 4),
        _loja(2.5, 1e-9, 21000, "|w| = |z|^(5/2) along (t^2, t^5)"),
    ]


BLOCKS_BY_WORKLOAD = {"acceptance": _acceptance_blocks, "resolve": _resolve_blocks,
            "search": _search_blocks}


def build_expected(workload: str) -> dict:
    session = os.path.join("workloads", f"{workload}.bsw")
    with open(os.path.join(HERE, session), encoding="utf-8") as fh:
        lines = command_lines(fh.read())
    blocks = BLOCKS_BY_WORKLOAD[workload]()
    if [b["command"] for b in blocks] != [kind for _, kind in lines]:
        raise AssertionError(f"{workload}: expected blocks do not follow the session")
    for block, (line, _) in zip(blocks, lines):
        block["line"] = line
    return {"workload": workload, "session": session, "blocks": blocks}


def expected_path(workload: str) -> str:
    return os.path.join(EXPECTED_DIR, f"{workload}.json")


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


def main(argv) -> int:
    if argv not in (["--write"], ["--check"]):
        print("usage: oracles.py --write | --check", file=sys.stderr)
        return 2
    stale = []
    for w in WORKLOADS:
        text = _dump(build_expected(w))
        path = expected_path(w)
        if argv == ["--write"]:
            os.makedirs(EXPECTED_DIR, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            with open(path, encoding="utf-8") as fh:
                if fh.read() != text:
                    stale.append(path)
    for path in stale:
        print(f"stale: {path}", file=sys.stderr)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
