"""Brute-force oracles, kept independent of the library's enumeration paths.

Divisor sets come from raw range scans and direct exact-division tests, never
from the adapters' factor-and-combine or norm-equation machinery, so these
stay meaningful as cross-checks.  The n^2 divides matrix, the pairwise T0
and nestedness loops, the per-point isolated check and the fp trial-division
factorizer are the library's earlier implementations, kept as references for
the irreducible-step build, the O(n) checks, the irreducibles that
``isolated_points`` reads from each seed's listing and the finite-field
factorizer, as is sympy's ``gf_factor``, which the Berlekamp factorizer
replaced, and the unit search that the gauss quadrant rotation replaced.
``conj_product_divide`` is the earlier gauss and zs5 exact division, through
``mul`` by the conjugate.  The
gcd-intersection partner search and its frozenset intersection are the
earlier versions of the fragment-column search, and the irreducible-step
oracle, which divides each point by every earlier irreducible point, is the
earlier build of the quotient-table build.  The every-bit scan of a point
set is the earlier ``PointSet.classes``, which now walks only the set bits.
The exponent-box oracle calls no ring at all: it reads a UFD fragment off
the componentwise order on exponent vectors.  The unit lists are written
out by hand, and the closure, interior and open-set oracles of a point set
divide its fragment's points directly instead of reading the fragment's
tables.
"""

from itertools import combinations, product
from math import isqrt

from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor

from divtop import checks as C
from divtop.checks import FAILS, HOLDS, WITNESS, CheckReport
from divtop.errors import ParameterError
from divtop.rings import Gauss, Poly, PPow, Root5
from divtop.topology import PointSet, build_fragment


def int_divisors(n: int) -> list:
    n = abs(n)
    return [d for d in range(2, n + 1) if n % d == 0]


def int_is_prime(n: int) -> bool:
    n = abs(n)
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))


def gauss_divisor_classes(ring, a) -> set:
    bound = isqrt(a.norm)
    out = set()
    for re in range(-bound, bound + 1):
        for im in range(-bound, bound + 1):
            g = Gauss(re, im)
            if g.norm <= 1:
                continue
            if ring.divide(a, g) is not None:
                out.add(ring.canonical_class(g))
    return out


def zs5_divisor_classes(ring, a) -> set:
    xb = isqrt(a.norm)
    yb = isqrt(a.norm // 5)
    out = set()
    for x in range(-xb, xb + 1):
        for y in range(-yb, yb + 1):
            g = Root5(x, y)
            if g.norm <= 1:
                continue
            if ring.divide(a, g) is not None:
                out.add(ring.canonical_class(g))
    return out


def conj_product_divide(ring, numer, denom):
    """numer/denom for gauss or zs5 as numer * conj(denom) over the norm of
    denom, or None when that is not integral: the library's earlier
    ``divide`` for both rings."""
    n = denom.norm
    t = ring.mul(numer, type(denom)(denom[0], -denom[1]))
    if t[0] % n == 0 and t[1] % n == 0:
        return type(denom)(t[0] // n, t[1] // n)
    return None


def units(ring) -> tuple:
    """Every unit of a ring with finitely many, written out; on valp, whose
    units are all associates of 1, the one unit p^0."""
    if ring.tag == "z":
        return (1, -1)
    if ring.tag == "gauss":
        return (Gauss(1, 0), Gauss(0, 1), Gauss(-1, 0), Gauss(0, -1))
    if ring.tag == "fp":
        return tuple(Poly(ring.p, (c,)) for c in range(1, ring.p))
    if ring.tag == "zs5":
        return (Root5(1, 0), Root5(-1, 0))
    if ring.tag == "valp":
        return (PPow(ring.p, 0),)
    raise ValueError(ring.tag)


def gauss_canonical_by_units(ring, e):
    """The first-quadrant associate (re > 0, im >= 0) found by trying every
    unit: the library's earlier canonical associate for gauss."""
    for u in units(ring):
        c = ring.mul(u, e)
        if c.re > 0 and c.im >= 0:
            return c
    raise ParameterError("zero has no canonical associate")


def monics(p: int, d: int):
    """Every monic polynomial of degree exactly d over F_p, in counting order."""
    for n in range(p**d):
        coeffs = []
        v = n
        for _ in range(d):
            v, c = divmod(v, p)
            coeffs.append(c)
        yield Poly(p, tuple(coeffs) + (1,))


def poly_divisor_classes(ring, a) -> set:
    # a divisor c of a or its cofactor a/c has degree at most deg(a)/2, so
    # monic candidates up to that degree find both
    out = {ring.canonical_class(a)}
    for deg in range(1, a.degree // 2 + 1):
        for cand in monics(ring.p, deg):
            q = ring.divide(a, cand)
            if q is not None:
                out |= {ring.canonical_class(cand), ring.canonical_class(q)}
    return out


def fp_trial_factor(ring, a) -> list:
    """Monic irreducible factors of a, sorted, by peeling off the first monic
    proper divisor in (degree, counting) order: the library's earlier
    trial-division factorizer."""
    out = []
    rest = ring.canonical(a)
    while True:
        cands = (c for d in range(1, rest.degree // 2 + 1) for c in monics(ring.p, d))
        f = next((c for c in cands if ring.divide(rest, c) is not None), None)
        if f is None:
            break
        out.append(f)
        rest = ring.canonical(ring.divide(rest, f))
    out.append(rest)
    return sorted(out, key=ring.sort_key)


def fp_sympy_factor(ring, a) -> list:
    """Monic irreducible factors of a, with multiplicity and sorted, from
    sympy's ``gf_factor``: the library's earlier finite-field factorizer.
    sympy's dense lists run high degree first."""
    _, factors = gf_factor(list(reversed(a.coeffs)), ring.p, ZZ)
    out = [Poly(ring.p, tuple(map(int, f[::-1]))) for f, k in factors for _ in range(k)]
    return sorted(out, key=ring.sort_key)


def fp_rabin_irreducible(ring, f) -> bool:
    """Rabin's test on the adapter's own arithmetic: f of degree n is
    irreducible iff x^(p^n) = x mod f and gcd(x^(p^(n/q)) - x, f) is a unit
    for every prime q dividing n."""
    n = f.degree

    def rem(h):  # h mod f
        return ring.poly(ring._long_division(h.coeffs, f.coeffs)[1])

    x = rem(ring.poly([0, 1]))

    def frobenius(h):  # h^p mod f by square and multiply
        out, base, e = ring.one(), h, ring.p
        while e:
            if e & 1:
                out = rem(ring.mul(out, base))
            base, e = rem(ring.mul(base, base)), e >> 1
        return out

    powers = [x]  # powers[k] = x^(p^k) mod f
    for _ in range(n):
        powers.append(frobenius(powers[-1]))
    minus_x = ring.poly([0, -1])
    for q in (q for q in range(2, n + 1) if n % q == 0 and int_is_prime(q)):
        g = ring._gcd(f, ring.add(powers[n // q], minus_x))
        if not ring.is_unit(g):
            return False
    return powers[n] == x


def divisor_classes_oracle(ring, a) -> set:
    if ring.tag == "z":
        return {ring.canonical_class(d) for d in int_divisors(a)}
    if ring.tag == "gauss":
        return gauss_divisor_classes(ring, a)
    if ring.tag == "zs5":
        return zs5_divisor_classes(ring, a)
    if ring.tag == "fp":
        return poly_divisor_classes(ring, a)
    if ring.tag == "valp":
        return {ring.canonical_class(PPow(ring.p, j)) for j in range(1, a.k + 1)}
    raise ValueError(ring.tag)


def transitive_reduction_oracle(fragment) -> set:
    """Covering pairs recomputed from scratch over the point reps."""
    ring = fragment.ring
    pts = fragment.points
    strictly_divides = {
        (i, j)
        for i in range(len(pts))
        for j in range(len(pts))
        if i != j and ring.divides(pts[i].rep, pts[j].rep)
    }
    out = set()
    for i, j in strictly_divides:
        if not any((i, k) in strictly_divides and (k, j) in strictly_divides for k in range(len(pts))):
            out.add((i, j))
    return out


def down_sets_oracle(fragment) -> set:
    """All divisor-closed subsets by filtering the full powerset."""
    n = len(fragment.points)
    ring = fragment.ring
    divs = []
    for j in range(n):
        mask = 0
        for i in range(n):
            if i == j or ring.divides(fragment.points[i].rep, fragment.points[j].rep):
                mask |= 1 << i
        divs.append(mask)
    out = set()
    for bits in range(1 << n):
        if all(divs[j] & ~bits == 0 for j in range(n) if bits >> j & 1):
            out.add(bits)
    return out


def point_index_oracle(fragment) -> dict:
    """Each point's position, keyed by the whole class (ring, rep and text)."""
    return {c: i for i, c in enumerate(fragment.points)}


def point_set_classes_oracle(s) -> tuple:
    """The classes of point set s, by testing every bit of its mask in point
    order."""
    pts = s.fragment.points
    return tuple(pts[i] for i in range(len(pts)) if s.bits >> i & 1)


def complement(s) -> PointSet:
    """The points of s's fragment that are not in s."""
    return PointSet(s.fragment, ~s.bits & s.fragment.full_bits)


def closure_oracle(s) -> PointSet:
    """The points that some point of s divides: the up-set of s."""
    ring, pts = s.fragment.ring, s.fragment.points
    members = [pts[i].rep for i in range(len(pts)) if s.bits >> i & 1]
    return PointSet(s.fragment, sum(
        1 << j for j, q in enumerate(pts) if any(ring.divides(p, q.rep) for p in members)
    ))


def interior_oracle(s) -> PointSet:
    """The points of s whose every divisor in the fragment lies in s: the
    largest open set inside s."""
    ring, pts = s.fragment.ring, s.fragment.points
    return PointSet(s.fragment, sum(
        1 << j for j, q in enumerate(pts)
        if s.bits >> j & 1
        and all(s.bits >> i & 1 for i, p in enumerate(pts) if ring.divides(p.rep, q.rep))
    ))


def is_open_oracle(s) -> bool:
    """True when s holds every divisor in the fragment of each of its points."""
    return interior_oracle(s) == s


def divisibility_oracle(ring, points) -> tuple:
    """Columns and rows of the divides matrix by n^2 direct tests."""
    n = len(points)
    cols = [0] * n
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if i == j or ring.divides(points[i].rep, points[j].rep):
                cols[j] |= 1 << i
                rows[i] |= 1 << j
    return tuple(cols), tuple(rows)


def irreducible_step_oracle(ring, points) -> tuple:
    """Columns, rows and sorted covering pairs by dividing every point by
    every irreducible point visited before it: n * (#irreducible points)
    exact divisions, the build's earlier cost."""
    index = {c.rep: i for i, c in enumerate(points)}
    cols = [1 << i for i in range(len(points))]
    covers = []
    atoms = []
    for v in sorted(range(len(points)), key=lambda i: ring.sort_key(points[i].rep)):
        v_rep = points[v].rep
        before = len(covers)
        for q in atoms:
            w = ring.divide(v_rep, q)
            if w is not None:
                u = index[ring.canonical(w)]
                covers.append((u, v))
                cols[v] |= cols[u]
        if len(covers) == before:
            atoms.append(v_rep)
    rows = [1 << i for i in range(len(points))]
    for u, v in reversed(covers):
        rows[u] |= rows[v]
    return tuple(cols), tuple(rows), tuple(sorted(covers))


def exponent_boxes(tops) -> set:
    """Every nonzero exponent vector lying componentwise below one of
    ``tops``: in a UFD, the divisor classes of the seeds prod q_i^f_i."""
    return {g for f in tops for g in product(*(range(k + 1) for k in f)) if any(g)}


def exponent_order_oracle(vectors) -> tuple:
    """Columns, rows and sorted covering pairs of the componentwise order on
    ``vectors``, a down-closed set in point order.  A point's column is its
    sub-box, and it covers the points one below it in one place."""
    index = {g: i for i, g in enumerate(vectors)}
    n = len(vectors)
    cols, rows, covers = [0] * n, [0] * n, []
    for j, g in enumerate(vectors):
        for d in product(*(range(k + 1) for k in g)):
            if any(d):
                cols[j] |= 1 << index[d]
                rows[index[d]] |= 1 << j
        for t, k in enumerate(g):
            d = g[:t] + (k - 1,) + g[t + 1:]
            if k and any(d):
                covers.append((index[d], j))
    return tuple(cols), tuple(rows), tuple(sorted(covers))


def covering_pairs_oracle(cols, rows) -> set:
    """Pairs i -> j of a divides matrix with no point strictly between."""
    out = set()
    for i in range(len(rows)):
        for j in range(len(rows)):
            if j != i and rows[i] >> j & 1:
                if rows[i] & cols[j] & ~(1 << i) & ~(1 << j) == 0:
                    out.add((i, j))
    return out


def t0_oracle(fragment) -> CheckReport:
    """check_t0 by the pairwise loop over every pair (i, j), i < j."""
    pts = fragment.points
    example = None
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            p, q = pts[i], pts[j]
            if not fragment.specializes(p, q):
                sep, inside, outside = fragment.basic_open(q), q, p
            elif not fragment.specializes(q, p):
                sep, inside, outside = fragment.basic_open(p), p, q
            else:
                return CheckReport(
                    "t0", FAILS, (p, q), {"reason": "mutually dividing distinct points"}
                )
            if example is None:
                example = {
                    "pair": [outside.text, inside.text],
                    "separating_open": list(sep.texts()),
                    "contains": inside.text,
                }
    n = len(pts)
    details = {"pairs_checked": n * (n - 1) // 2}
    if example is not None:
        details["example"] = example
    return CheckReport("t0", HOLDS, (), details)


def nested_oracle(fragment) -> CheckReport:
    """check_nested by comparing the basic opens of every pair (i, j), i < j."""
    pts = fragment.points
    valuation = fragment.ring.is_valuation
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            oi, oj = fragment.basic_open(pts[i]), fragment.basic_open(pts[j])
            if not (oi <= oj or oj <= oi):
                return CheckReport(
                    "nested",
                    FAILS,
                    (pts[i], pts[j]),
                    {
                        "open_left": list(oi.texts()),
                        "open_right": list(oj.texts()),
                        "ring_is_valuation": valuation,
                    },
                )
    return CheckReport(
        "nested", HOLDS, (), {"points": len(pts), "ring_is_valuation": valuation}
    )


def isolated_oracle(fragment) -> CheckReport:
    """isolated_points by asking the ring about every point."""
    pts = fragment.points
    isolated = tuple(p for p in pts if len(fragment.basic_open(p)) == 1)
    irred = tuple(p for p in pts if fragment.ring.is_irreducible(p.rep))
    match = isolated == irred
    diff = set(isolated) ^ set(irred)
    witnesses = isolated if match else tuple(p for p in pts if p in diff)
    return CheckReport(
        "isolated",
        HOLDS if match else FAILS,
        witnesses,
        {
            "isolated": [p.text for p in isolated],
            "irreducible": [p.text for p in irred],
            "match": match,
        },
    )


def gcd_intersection(ring, a, b) -> CheckReport:
    """The gcd-intersection runner on the seeds a and b, called as README's
    quick start calls it."""
    return C.PROPS["gcd-intersection"][1](ring, [a, b], 0, lambda: build_fragment(ring, [a]))


def basis_intersection_oracle(ring, a, b) -> CheckReport:
    """gcd_intersection with frozenset divisor sets: on a ring without gcd,
    a member whose own divisor set is the whole intersection generates it."""
    if ring.has_gcd:
        return gcd_intersection(ring, a, b)
    inter = ring.divisor_classes(a.rep) & ring.divisor_classes(b.rep)
    details = {"left": a.text, "right": b.text, "intersection": sorted(c.text for c in inter)}
    for g in sorted(inter, key=ring.class_sort_key):
        if ring.divisor_classes(g.rep) == inter:
            details["basic"] = True
            details["generator"] = g.text
            return CheckReport("gcd-intersection", HOLDS, (), details)
    details["basic"] = not inter
    if inter:
        witnesses = tuple(sorted(inter, key=ring.class_sort_key))
        return CheckReport("gcd-intersection", WITNESS, witnesses, details)
    return CheckReport("gcd-intersection", HOLDS, (), details)


def intersection_pair_oracle(ring, classes) -> tuple:
    """The gcd-intersection pair: the first two seeds, or one seed with the
    first product of two non-associated irreducible divisors (each found by
    the ring's test) whose intersection with it is non-basic, else itself."""
    if len(classes) >= 2:
        return classes[0], classes[1]
    a = classes[0]
    if not ring.has_gcd:
        irr = sorted(
            (c for c in ring.divisor_classes(a.rep) if ring.is_irreducible(c.rep)),
            key=ring.class_sort_key,
        )
        for q1, q2 in combinations(irr, 2):
            b = ring.mul_class(q1, q2)
            if basis_intersection_oracle(ring, a, b).verdict == WITNESS:
                return a, b
    return a, a
