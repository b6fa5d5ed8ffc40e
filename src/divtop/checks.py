"""Executable checks and witness constructors over fragments.

Universal statements about the full (infinite) class space are rendered here
as either fragment-level verifications (T0, isolated points, nestedness,
density) or finite witness constructions that follow the relevant
contradiction or separation argument (T1 failure, non-regularity,
non-compactness, the strictly growing basic-open chain).  Every entry point
returns a CheckReport whose contents are deterministic for fixed inputs.

``PROPS`` is the paper's prop table: for each prop, the verdict the paper
predicts (``expected_verdict``) and the runner that produces its report
from a ring, the seed classes, a chain length and the seeds' fragment.
"""

from __future__ import annotations

from itertools import combinations
from typing import Mapping, NamedTuple, Sequence

from .errors import ParameterError, SizeGuard
from .rings import POINT_CAP, ClassId, Ring
from .topology import ENUM_CAP, Fragment, PointSet, build_fragment

DENSE_OPEN_CAP = 12

HOLDS = "holds"
FAILS = "fails"
WITNESS = "witness-produced"


class CheckReport(NamedTuple):
    check: str
    verdict: str
    witnesses: tuple
    details: Mapping

    def witness_texts(self) -> list:
        return [w.text for w in self.witnesses]


def _texts(s) -> list:
    if isinstance(s, PointSet):
        return list(s.texts())
    return sorted(c.text for c in s)


# ---------------------------------------------------------------------------
# separation


def check_t0(fragment: Fragment) -> CheckReport:
    """Every pair of distinct points is separated by some basic open.

    Basic opens are down-sets of a preorder, so two points fail to be
    separated exactly when their basic opens coincide: T0 holds when the
    columns are pairwise distinct, which one set of them shows.  Otherwise
    the check keys the columns in a dict and reports the first pair that
    coincides, in (i, j) order.
    """
    pts, cols = fragment.points, fragment.cols
    if len(set(cols)) < len(cols):
        first = {}
        pairs = ((first.setdefault(col, j), j) for j, col in enumerate(cols))
        clash = min(ij for ij in pairs if ij[0] != ij[1])
        return CheckReport(
            "t0",
            FAILS,
            (pts[clash[0]], pts[clash[1]]),
            {"reason": "mutually dividing distinct points"},
        )
    n = len(pts)
    details = {"pairs_checked": n * (n - 1) // 2}
    if n > 1:
        p, q = pts[0], pts[1]
        if not fragment.specializes(p, q):
            # p does not divide q, so the basic open at q misses p
            sep, inside, outside = fragment.basic_open(q), q, p
        else:
            sep, inside, outside = fragment.basic_open(p), p, q
        details["example"] = {
            "pair": [outside.text, inside.text],
            "separating_open": _texts(sep),
            "contains": inside.text,
        }
    return CheckReport("t0", HOLDS, (), details)


def t1_failure_witness(ring: Ring, a: ClassId) -> CheckReport:
    """The pair ([a], [a^2]) cannot be T1-separated: every open around the
    square also contains a."""
    a2 = ring.mul_class(a, a)
    fragment = build_fragment(ring, [a2])
    square_in_closure = a2 in fragment.closure(fragment.point_set([a]))
    a_in_min_open = a in fragment.basic_open(a2)
    opens_checked = 0
    exhaustive = True
    if len(fragment) <= ENUM_CAP:
        for o in fragment.enumerate_opens():
            opens_checked += 1
            if a2 in o and a not in o:
                exhaustive = False
    verdict = WITNESS if (square_in_closure and a_in_min_open and exhaustive) else FAILS
    return CheckReport(
        "t1",
        verdict,
        (a, a2),
        {
            "square": a2.text,
            "square_in_closure_of_point": square_in_closure,
            "point_in_minimal_open_of_square": a_in_min_open,
            "opens_enumerated": opens_checked,
        },
    )


def isolated_points(fragment: Fragment) -> CheckReport:
    """Points whose basic open is a singleton; must coincide with the
    irreducible representatives, which the ring's factorization gives."""
    isolated, irred = fragment.isolated(), fragment.irreducible()
    match = isolated.bits == irred.bits
    # on a mismatch the symmetric difference is the witness (in point order)
    witnesses = PointSet(fragment, isolated.bits if match else isolated.bits ^ irred.bits)
    return CheckReport(
        "isolated",
        HOLDS if match else FAILS,
        witnesses.classes(),
        {
            "isolated": list(isolated.texts()),
            "irreducible": list(irred.texts()),
            "match": match,
        },
    )


# ---------------------------------------------------------------------------
# nestedness and basis laws


def check_nested(fragment: Fragment) -> CheckReport:
    """All basic opens comparable under inclusion <=> total divisibility.

    U_i lies in U_j exactly when i divides j, so the points whose basic opens
    are incomparable with U_i are those outside row(i) | col(i).  The first
    failing pair (i, j) has the lowest i with any such point, and then all of
    them lie above i, since a lower one would have failed first.
    """
    pts = fragment.points
    valuation = fragment.ring.is_valuation
    for i, (row, col) in enumerate(zip(fragment.rows, fragment.cols)):
        apart = ~(row | col) & fragment.full_bits
        if apart:
            j = (apart & -apart).bit_length() - 1
            return CheckReport(
                "nested",
                FAILS,
                (pts[i], pts[j]),
                {
                    "open_left": _texts(fragment.basic_open(pts[i])),
                    "open_right": _texts(fragment.basic_open(pts[j])),
                    "ring_is_valuation": valuation,
                },
            )
    return CheckReport(
        "nested",
        HOLDS,
        (),
        {"points": len(pts), "ring_is_valuation": valuation},
    )


def _gcd_intersection(ring: Ring, classes: Sequence[ClassId], n: int, fragment) -> CheckReport:
    """The gcd-intersection prop on U_a & U_b, for seeds a and b.  On a gcd
    ring, b is a again if there is one seed, and U_a & U_b is U_gcd(a, b), or
    empty without a gcd; it is read from divisor listings held to
    ``POINT_CAP``.

    Without gcd it is read from a fragment that holds a.  Every member of
    U_a & U_b divides a, so it is a point there, and the intersection is the
    points of col(a) that divide b.  It is basic exactly when one of its
    points has it as its column.  One seed a: b is the first product q1*q2
    of two non-associated irreducible divisors, in sort order, whose
    intersection with a is non-basic (the interesting case such rings exist
    to show), or a itself when there is none.  If b divides a, U_a & U_b =
    U_b is basic.  If not, it is not: a generator g would be divisible by q1
    and q2 and divide b, so g ~ b would divide a.  So b is the first product
    that is no point of a's fragment, and the verdict below is recomputed."""
    ring.claim(*classes)
    a, b = classes[0], classes[:2][-1]
    if ring.has_gcd:
        inter = ring.divisor_classes(a.rep) & ring.divisor_classes(b.rep)
        details = {"left": a.text, "right": b.text, "intersection": _texts(inter)}
        g = ring.gcd_class(a.rep, b.rep)
        details["gcd"] = None if g is None else g.text
        ok = inter == (frozenset() if g is None else ring.divisor_classes(g.rep))
        return CheckReport("gcd-intersection", HOLDS if ok else FAILS, () if ok else (a, b), details)
    # only a's points are read, and they are in text order in any fragment
    frag = fragment() if len(classes) <= 2 else build_fragment(ring, classes[:1])
    if len(classes) == 1:
        irr = sorted(frag.isolated(), key=ring.class_sort_key)
        products = (ring.mul_class(q1, q2) for q1, q2 in combinations(irr, 2))
        b = next((b for b in products if b not in frag), a)
    inter = frag.point_set(g for g in frag.basic_open(a) if ring.divides(g.rep, b.rep))
    details = {"left": a.text, "right": b.text, "intersection": _texts(inter)}
    g = next((g for g in inter if frag.basic_open(g).bits == inter.bits), None)
    details["basic"] = g is not None or not inter
    if g is not None:
        details["generator"] = g.text
    witnesses = () if details["basic"] else tuple(sorted(inter, key=ring.class_sort_key))
    return CheckReport("gcd-intersection", WITNESS if witnesses else HOLDS, witnesses, details)


# ---------------------------------------------------------------------------
# density


def density_check(ring: Ring, samples: Sequence[ClassId]) -> CheckReport:
    """Every sampled basic open contains an irreducible class."""
    samples = list(samples)
    ring.claim(*samples)
    finds = []
    missing = []
    for a in samples:
        q = ring.factor(a.rep)[0]
        if not ring.divides(q.rep, a.rep):
            missing.append(a)
        else:
            finds.append([a.text, q.text])
    verdict = HOLDS if not missing else FAILS
    return CheckReport(
        "density",
        verdict,
        tuple(missing),
        {"checked": len(samples), "finds": finds},
    )


def dense_open_check(fragment: Fragment) -> CheckReport:
    """Dense opens all contain the isolated points, and their intersection is
    dense again (one-fragment Baire echo)."""
    if len(fragment) > DENSE_OPEN_CAP:
        raise SizeGuard(f"{len(fragment)} points exceeds the dense-open cap {DENSE_OPEN_CAP}")
    iso = fragment.isolated()
    full = fragment.full_set()
    dense_opens = []
    total = 0
    for o in fragment.enumerate_opens():
        total += 1
        if fragment.closure(o) == full:
            dense_opens.append(o)
    all_contain = all(iso <= o for o in dense_opens)
    inter = full
    for o in dense_opens:
        inter = inter & o
    inter_dense = fragment.closure(inter) == full
    ok = all_contain and inter_dense
    return CheckReport(
        "dense-open",
        HOLDS if ok else FAILS,
        () if ok else tuple(iso.classes()),
        {
            "opens": total,
            "dense_opens": len(dense_opens),
            "isolated": _texts(iso),
            "dense_opens_contain_isolated": all_contain,
            "intersection_of_dense_opens": _texts(inter),
            "intersection_dense": inter_dense,
        },
    )


# ---------------------------------------------------------------------------
# connectivity and neighborhood witnesses


def ultraconnected_witness(ring: Ring, a: ClassId, b: ClassId) -> CheckReport:
    """The product class lies in the closure of both singletons."""
    ab = ring.mul_class(a, b)
    left = ring.divides(a.rep, ab.rep)
    right = ring.divides(b.rep, ab.rep)
    verdict = WITNESS if (left and right) else FAILS
    return CheckReport(
        "ultra",
        verdict,
        (ab,),
        {
            "left": a.text,
            "right": b.text,
            "product": ab.text,
            "product_in_closure_of_left": left,
            "product_in_closure_of_right": right,
        },
    )


def no_disjoint_nbhd_witness(
    ring: Ring, a: ClassId, b: ClassId, c: ClassId
) -> CheckReport:
    """{[ab]} and {[ac]} are separated yet share every open neighborhood pair:
    both minimal opens contain the divisors of a."""
    ring.claim(a, b, c)
    for x in (a, b, c):
        if not ring.is_irreducible(x.rep):
            raise ParameterError(f"{x.text} is not irreducible in {ring.name}")
    if len({a, b, c}) < 3:
        raise ParameterError("inputs must be pairwise non-associated")
    ab = ring.mul_class(a, b)
    ac = ring.mul_class(a, c)
    separated = not ring.divides(ab.rep, ac.rep) and not ring.divides(ac.rep, ab.rep)
    dab = ring.divisor_classes(ab.rep)
    dac = ring.divisor_classes(ac.rep)
    da = ring.divisor_classes(a.rep)
    common_contains_ua = da <= (dab & dac)
    verdict = WITNESS if (separated and common_contains_ua) else FAILS
    return CheckReport(
        "sep-nbhd",
        verdict,
        (ab, ac),
        {
            "separated_pair": [ab.text, ac.text],
            "separated": separated,
            "minimal_open_intersection": _texts(dab & dac),
            "contains_basic_open_of": a.text,
            "common_point": a.text,
        },
    )


def _sep_nbhd(ring: Ring, classes: Sequence[ClassId], n: int, fragment) -> CheckReport:
    iso = fragment().isolated().classes()
    if len(iso) < 3:
        raise ParameterError(
            "sep-nbhd needs three non-associated irreducibles; "
            f"the seed fragment only has {len(iso)}"
        )
    return no_disjoint_nbhd_witness(ring, *iso[:3])


def non_regular_witness(ring: Ring, a: ClassId) -> CheckReport:
    """{[a]} is not closed: its closure picks up the square."""
    a2 = ring.mul_class(a, a)
    fragment = build_fragment(ring, [a2])
    singleton = fragment.point_set([a])
    cl = fragment.closure(singleton)
    closed = fragment.is_closed(singleton)
    not_closed = not closed and a2 in cl
    verdict = WITNESS if not_closed else FAILS
    return CheckReport(
        "regular",
        verdict,
        (a, a2),
        {
            "closure_of_singleton": _texts(cl),
            "singleton_closed": closed,
        },
    )


def non_compact_witness(ring: Ring, x: ClassId, family: Sequence[ClassId]) -> CheckReport:
    """x^2 never divides x back, while closures of finitely many singletons
    still meet in the product class."""
    ring.claim(x, *family)
    if not family:
        raise ParameterError("family of classes is empty")
    x2 = ring.mul_class(x, x)
    escapes = not ring.divides(x2.rep, x.rep)
    prod = family[0]
    for c in family[1:]:
        prod = ring.mul_class(prod, c)
    hits = all(ring.divides(c.rep, prod.rep) for c in family)
    details = {
        "point": x.text,
        "square": x2.text,
        "square_divides_point": not escapes,
        "family": [c.text for c in family],
        "common_point": prod.text,
        "common_point_in_every_closure": hits,
    }
    verdict = WITNESS if escapes and hits else FAILS
    return CheckReport("compact", verdict, (x, x2), details)


# ---------------------------------------------------------------------------
# chain conditions


def noetherian_chain(ring: Ring, a: ClassId, n: int) -> CheckReport:
    """Basic opens of a, a^2, ..., a^n grow strictly at every step."""
    if n < 2:
        raise ParameterError("chain length must be >= 2")
    # a, ..., a^n are n distinct points of one fragment: refuse before
    # computing them
    if n > POINT_CAP:
        raise ParameterError(f"chain length must be <= {POINT_CAP}")
    # the build of a^n lists the divisors of every a^k; listing them at
    # k = 2, 4, 8, ... with 2k <= n refuses a power past a guard before
    # more than k further powers are multiplied out
    powers = [a]
    for k in range(2, n + 1):
        powers.append(ring.mul_class(powers[-1], a))
        if k & (k - 1) == 0 and 2 * k <= n:
            ring._listing(powers[-1].rep)
    fragment = build_fragment(ring, [powers[-1]])
    sizes = [len(fragment.basic_open(p)) for p in powers]
    strict = all(s < t for s, t in zip(sizes, sizes[1:]))
    steps_escape = all(
        not ring.divides(powers[k + 1].rep, powers[k].rep) for k in range(n - 1)
    )
    verdict = WITNESS if (strict and steps_escape) else FAILS
    return CheckReport(
        "chain",
        verdict,
        (a,),
        {
            "chain": [f"U_{p.text}" for p in powers],
            "sizes": sizes,
            "strictly_increasing": strict,
            "no_step_divides_back": steps_escape,
        },
    )


def maximal_basic_open(fragment: Fragment, subfamily: Sequence[ClassId]) -> CheckReport:
    """Inclusion-maximal members of a finite family of basic opens."""
    subfamily = list(subfamily)
    if not subfamily:
        raise ParameterError("subfamily of basic opens is empty")
    opens = [(p, fragment.basic_open(p)) for p in subfamily]
    maximal = {p for p, o in opens if not any(o.bits != q.bits and o <= q for _, q in opens)}
    maximal = sorted(maximal, key=fragment.index_of)
    return CheckReport(
        "maximal",
        WITNESS,
        tuple(maximal),
        {
            "family": [p.text for p in subfamily],
            "maximal": [p.text for p in maximal],
        },
    )


# ---------------------------------------------------------------------------
# the prop table

# every prop in help order: (its expected verdict or a function of the ring
# giving it, its runner (ring, classes, n, fragment)); n is the chain length,
# fragment() the seeds' fragment, classes[:2][-1] the second seed or the first
PROPS = {
    "t0": (HOLDS, lambda ring, cs, n, frag: check_t0(frag())),
    "t1": (WITNESS, lambda ring, cs, n, frag: t1_failure_witness(ring, cs[0])),
    "isolated": (HOLDS, lambda ring, cs, n, frag: isolated_points(frag())),
    "nested": (
        lambda ring: HOLDS if ring.is_valuation else FAILS,
        lambda ring, cs, n, frag: check_nested(frag()),
    ),
    "gcd-intersection": (lambda ring: HOLDS if ring.has_gcd else WITNESS, _gcd_intersection),
    "density": (HOLDS, lambda ring, cs, n, frag: density_check(ring, cs)),
    "dense-open": (HOLDS, lambda ring, cs, n, frag: dense_open_check(frag())),
    "ultra": (WITNESS, lambda ring, cs, n, frag: ultraconnected_witness(ring, cs[0], cs[:2][-1])),
    "sep-nbhd": (WITNESS, _sep_nbhd),
    "regular": (WITNESS, lambda ring, cs, n, frag: non_regular_witness(ring, cs[0])),
    "compact": (WITNESS, lambda ring, cs, n, frag: non_compact_witness(ring, cs[0], cs)),
    "chain": (WITNESS, lambda ring, cs, n, frag: noetherian_chain(ring, cs[0], n)),
    "maximal": (WITNESS, lambda ring, cs, n, frag: maximal_basic_open(frag(), cs)),
}


def expected_verdict(prop: str, ring: Ring) -> str:
    """The verdict the paper predicts for ``prop`` on ``ring``."""
    verdict = PROPS[prop][0]
    return verdict(ring) if callable(verdict) else verdict
