"""Adapter arithmetic against spec-style examples and brute-force oracles."""

import math
import random
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_div, gf_irreducible_p, gf_mul

from divtop.errors import FragmentTooLarge, ParameterError, SizeGuard
from divtop import rings
from divtop.rings import RING_TAGS, RINGS, Gauss, PolynomialRing, PPow, Ring, Root5, make_ring
from divtop.topology import build_fragment

from oracles import (
    conj_product_divide,
    divisor_classes_oracle,
    fp_rabin_irreducible,
    fp_sympy_factor,
    fp_trial_factor,
    gauss_canonical_by_units,
    int_divisors,
    int_is_prime,
    units,
)
# the rings that key ELEMENTS: make_ring returns a new ring on every call
from strategies import ELEMENTS, F2, F3, F5, G, RING_ELEMENTS, S5, V3, Z

V2 = make_ring("valp", 2)
F13, F17 = make_ring("fp", 13), make_ring("fp", 17)
# (x^3+9x^2+8x+6)(x^4+10x^3+9x^2+3x+7) over F_13: root-free, so Berlekamp
# splits it into two factors
TWO13 = "x^7+6x^6+3x^5+x^4+10x^3+11x^2+9x+3"
# F_p edge cases of factoring and of the irreducibility test
FP_EDGES = (
    (F2, F2.parse("x^4+x^3+1")),  # irreducible; x^p has lower degree than f
    (F3, F3.parse("x^6+1")),  # (x^2+1)^3: root-free with f' = 0
    (F17, F17.parse("x^4+6x^2+9")),  # (x^2+3)^2: a square-free part of lower degree
    (F13, F13.parse(TWO13)),
)

ALL_RINGS = (Z, G, F2, F3, S5, V2)


def sample_elements(ring, rng, count):
    out = []
    while len(out) < count:
        if ring.tag == "z":
            e = rng.randint(-400, 400)
        elif ring.tag == "gauss":
            e = Gauss(rng.randint(-9, 9), rng.randint(-9, 9))
        elif ring.tag == "zs5":
            e = Root5(rng.randint(-9, 9), rng.randint(-4, 4))
        elif ring.tag == "fp":
            e = ring.poly([rng.randrange(ring.p) for _ in range(rng.randint(2, 5))])
        else:
            e = PPow(ring.p, rng.randint(1, 12))
        if not ring.is_zero(e) and not ring.is_unit(e):
            out.append(e)
    return out


# ---------------------------------------------------------------------------
# canonical associates


def test_canonical_int_sign():
    assert Z.canonical_class(-6).rep == 6
    assert Z.canonical_class(6) == Z.canonical_class(-6)


def test_canonical_gauss_quadrant():
    # oracle: among the four associates exactly one is canonical and all are
    # mutually dividing
    e = Gauss(-1, -1)
    associates = [G.mul(u, e) for u in units(G)]
    hits = [a for a in associates if a.re > 0 and a.im >= 0]
    assert hits == [Gauss(1, 1)]
    for a in associates:
        assert G.divides(a, e) and G.divides(e, a)
    assert G.canonical_class(e).rep == Gauss(1, 1)


GAUSS_PARTS = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**100), 2**100))


@given(st.builds(Gauss, GAUSS_PARTS, GAUSS_PARTS).filter(lambda e: e.norm))
@example(Gauss(7, 0))
@example(Gauss(0, 7))
@example(Gauss(-7, 0))
@example(Gauss(0, -7))
@example(Gauss(-(2**64) - 1, 2**70))
@example(Gauss(2**64 + 1, -(2**64) - 1))
def test_gauss_canonical_matches_unit_search(e):
    c = G.canonical(e)
    assert type(c) is Gauss
    assert c == gauss_canonical_by_units(G, e)


def test_gauss_canonical_rejects_zero():
    with pytest.raises(ParameterError, match="^zero has no canonical associate$"):
        G.canonical(Gauss(0, 0))


def test_equal_reps_of_two_rings_stay_distinct_classes():
    # the value types are tuples, so a gauss and a zs5 rep can compare equal;
    # the classes still differ by ring, and a fragment refuses the stranger
    g = G.canonical_class(Gauss(1, 1))
    s = S5.canonical_class(Root5(1, 1))
    assert g.rep == s.rep == (1, 1)
    assert g != s and len({g, s}) == 2 and len({g: 1, s: 2}) == 2
    assert s not in build_fragment(G, [g])
    with pytest.raises(ParameterError, match="^a class of zs5 does not belong to gauss$"):
        build_fragment(G, [g, s])
    with pytest.raises(ParameterError, match="^a class of gauss does not belong to zs5$"):
        build_fragment(S5, [g])


def test_canonical_poly_monic():
    # oracle: exhaustive unit multiplication over F_3^*
    e = F3.parse("2x+1")
    monic = [F3.mul(u, e) for u in units(F3) if F3.mul(u, e).coeffs[-1] == 1]
    assert monic == [F3.parse("x+2")]
    assert F3.canonical_class(e).text == "x+2"


def test_canonical_idempotent_and_unit_sound():
    rng = random.Random(11)
    for ring in ALL_RINGS:
        for e in sample_elements(ring, rng, 25):
            c = ring.canonical_class(e)
            assert ring.canonical_class(c.rep) == c
            for u in units(ring):
                assert ring.canonical_class(ring.mul(u, e)) == c


def test_canonical_rejects_zero_and_units():
    with pytest.raises(ParameterError, match="^zero is not a class representative in z$"):
        Z.canonical_class(0)
    with pytest.raises(ParameterError, match="^-1 is a unit of z$"):
        Z.canonical_class(-1)
    with pytest.raises(ParameterError, match="^zero is not a class representative in gauss$"):
        G.canonical_class(Gauss(0, 0))
    with pytest.raises(ParameterError, match="^-1i is a unit of gauss$"):
        G.canonical_class(Gauss(0, -1))
    with pytest.raises(ParameterError, match=r"^p\^0 is a unit of valp\(2\)$"):
        V2.canonical_class(PPow(2, 0))


# ---------------------------------------------------------------------------
# divisibility


def test_divides_examples():
    assert Z.divides(2, 6)
    assert not S5.divides(Root5(2, 0), Root5(1, 1))
    assert not S5.divides(Root5(2, 0), Root5(1, -1))
    assert G.divides(Gauss(1, 1), Gauss(2, 0))
    assert G.divide(Gauss(1, 1), Gauss(1, 1)) == Gauss(1, 0)


def test_divides_zero_divisor():
    with pytest.raises(ParameterError, match="^zero divides nothing in z$"):
        Z.divides(0, 6)
    with pytest.raises(ParameterError, match="^polynomial division by zero$"):
        F2.divide(F2.parse("x"), F2.poly([]))


def test_an_element_of_another_p_is_refused():
    F5, V5 = make_ring("fp", 5), make_ring("valp", 5)
    with pytest.raises(ParameterError, match=r"^an element of fp\(3\) used in fp\(5\)$"):
        F5.mul(F3.parse("x"), F5.parse("x"))
    with pytest.raises(ParameterError, match=r"^an element of valp\(3\) used in valp\(5\)$"):
        V5.divide(PPow(5, 2), PPow(3, 1))


def test_zs5_adds_and_valp_refuses_to_add():
    assert S5.add(Root5(1, 2), Root5(-3, 1)) == Root5(-2, 3)
    with pytest.raises(ParameterError, match="^valp classes carry no additive structure$"):
        V2.add(PPow(2, 1), PPow(2, 2))


def test_divides_norm_obstruction():
    # norms 4 and 6: no element of norm 4 can divide one of norm 6
    assert Root5(2, 0).norm == 4 and Root5(1, 1).norm == 6


@given(a=st.integers(-500, 500).filter(lambda v: abs(v) > 1),
       b=st.integers(-500, 500).filter(lambda v: abs(v) > 1))
def test_divides_matches_classes(a, b):
    both = Z.divides(a, b) and Z.divides(b, a)
    assert both == (Z.canonical_class(a) == Z.canonical_class(b))


@st.composite
def pair_divisions(draw):
    # (ring, numer, denom) on gauss or zs5, parts small or past 64 bits;
    # half the numerators are multiples of the denominator
    ring, kind = draw(st.sampled_from([(G, Gauss), (S5, Root5)]))
    elems = st.builds(kind, GAUSS_PARTS, GAUSS_PARTS)
    denom = draw(elems.filter(lambda e: not ring.is_zero(e)))
    numer = draw(elems)
    if draw(st.booleans()):
        numer = ring.mul(numer, denom)
    return ring, numer, denom


@given(pair_divisions())
@example((S5, Root5(6, 0), Root5(1, 1)))
@example((S5, Root5(6, 0), Root5(2, 0)))
@example((S5, Root5(0, 0), Root5(2, -1)))
@example((G, Gauss(2, 0), Gauss(1, -1)))
@example((G, Gauss(-(2**64) - 1, 2**70), Gauss(0, -1)))
@settings(max_examples=300, deadline=None)
def test_pair_divide_against_conj_product(case):
    ring, numer, denom = case
    q = ring.divide(numer, denom)
    assert q == conj_product_divide(ring, numer, denom)
    if q is not None:
        assert type(q) is type(denom)
        assert ring.mul(denom, q) == numer


@pytest.mark.parametrize(
    "ring, numer, denom",
    [
        (G, Gauss(6, 0), Root5(1, 1)),
        (G, Root5(6, 0), Gauss(1, 1)),
        (S5, Root5(6, 0), Gauss(1, 1)),
        (S5, Gauss(6, 0), Root5(1, 1)),
        (S5, Root5(6, 0), (1, 1)),
        (G, 6, Gauss(1, 1)),
    ],
)
def test_pair_divide_refuses_an_element_of_another_type(ring, numer, denom):
    # the fields are read by name, so a pair of another type raises
    with pytest.raises(AttributeError):
        ring.divide(numer, denom)


def test_mutual_divisibility_is_class_equality_everywhere():
    rng = random.Random(7)
    for ring in ALL_RINGS:
        es = sample_elements(ring, rng, 12)
        for a in es:
            for b in es:
                both = ring.divides(a, b) and ring.divides(b, a)
                assert both == (ring.canonical_class(a) == ring.canonical_class(b))


# ---------------------------------------------------------------------------
# divisor enumeration


def test_divisor_classes_int_12():
    assert {c.rep for c in Z.divisor_classes(12)} == {2, 3, 4, 6, 12}


def test_divisor_classes_zs5_6():
    got = {c.text for c in S5.divisor_classes(Root5(6, 0))}
    assert got == {"2", "3", "1+1s", "1-1s", "6"}


def test_divisor_classes_valp():
    got = {c.text for c in V2.divisor_classes(PPow(2, 3))}
    assert got == {"p", "p^2", "p^3"}


@given(RING_ELEMENTS)
@example((G, G.product([Gauss(1, 1)] * 5 + [Gauss(3, 0)])))
@example((F3, F3.parse("x^6+2x^5+x^4")))  # x^4 (x+1)^2
@example((V3, PPow(3, 9)))
@example((Z, 2**6 * 3**3 * 5))
@example((S5, Root5(6, 0)))  # N = 36: 1+s and 1-s have norm exactly sqrt(N)
@example((S5, Root5(3, 2)))  # an atom of prime norm 29
@example((S5, Root5(-252, -252)))
@settings(max_examples=150, deadline=None)
def test_divisor_classes_against_oracle(ring_elem):
    ring, e = ring_elem
    want = divisor_classes_oracle(ring, e)
    assert ring.divisor_classes(e) == want, (ring.name, e)
    # the cap is a ring rule, so both sides of it are reached by moving it
    with mock.patch.object(rings, "POINT_CAP", len(want)):
        assert ring.divisor_classes(e) == want
    with mock.patch.object(rings, "POINT_CAP", len(want) - 1):
        with pytest.raises(FragmentTooLarge, match=f"^{len(want)} points exceeds the cap"):
            ring.divisor_classes(e)


@given(RING_ELEMENTS)
@example((G, G.product([Gauss(1, 1)] * 5 + [Gauss(3, 0)])))
@example((F3, F3.parse("x^6+2x^5+x^4")))  # x^4 (x+1)^2
@example((V3, PPow(3, 9)))
@example((Z, 2**6 * 3**3 * 5))
@example((S5, Root5(6, 0)))
@settings(max_examples=150, deadline=None)
def test_listing_holds_each_class_once_after_its_divisors(ring_elem):
    # the build walks each listing as it comes, so no class may come before
    # one of its divisors; two classes that divide each other are one class
    ring, e = ring_elem
    listed = ring._listing(e)[0]
    assert len(set(listed)) == len(listed)
    assert set(map(ring._class, listed)) == ring.divisor_classes(e) == divisor_classes_oracle(ring, e)
    for i, c in enumerate(listed):
        assert not any(ring.divides(c, d) for d in listed[:i]), (ring.name, e, ring.fmt(c))


@given(RING_ELEMENTS)
@example((G, G.product([Gauss(1, 1)] * 5 + [Gauss(3, 0)])))
@example((F3, F3.parse("x^6+2x^5+x^4")))  # x^4 (x+1)^2
@example((V3, PPow(3, 9)))
@example((S5, Root5(6, 0)))  # 2 * 3 = (1+s)(1-s)
@example((S5, Root5(18, -36)))
@settings(max_examples=150, deadline=None)
def test_listing_gives_the_irreducible_divisors(ring_elem):
    # the build keeps what each listing gives, and the isolated check reads
    # its irreducible points from it
    ring, e = ring_elem
    listed, atoms = ring._listing(e)
    found = list(atoms())
    assert len(set(found)) == len(found)
    assert set(found) == {r for r in listed if ring.is_irreducible(r)}


def test_over_cap_listing_is_refused_before_any_class_is_made(monkeypatch):
    # every listing is held to the cap, a library call without a fragment
    # too; in a UFD the count follows from the factor exponents, and the
    # enumeration starts from one(), which factoring never calls
    ring = make_ring("gauss")
    started = []
    one = type(ring).one
    monkeypatch.setattr(type(ring), "one", lambda self: started.append(1) or one(self))
    make = Ring._class
    monkeypatch.setattr(Ring, "_class", lambda self, rep: started.append(rep) or make(self, rep))
    with pytest.raises(FragmentTooLarge, match="^5183 points exceeds the cap 4096$"):
        ring.divisor_classes(Gauss(-5323500, -5323500))
    assert started == []


def test_divisor_classes_targeted_hard_cases():
    # elements with several factorizations or split/ramified structure
    for e in (Root5(6, 0), Root5(2, 2), Root5(4, 2), Root5(9, 0), Root5(3, 3), Root5(6, 6)):
        assert S5.divisor_classes(e) == divisor_classes_oracle(S5, e), e
    for e in (Gauss(10, 0), Gauss(5, 0), Gauss(9, 0), Gauss(3, 3), Gauss(0, 8)):
        assert G.divisor_classes(e) == divisor_classes_oracle(G, e), e


def test_zs5_two_factorizations_element():
    # 4+2s is 2*(2+s) and also -(1-s)^2; its divisor set sees both routes
    got = {c.text for c in S5.divisor_classes(Root5(4, 2))}
    assert got == {"2", "1-1s", "2+1s", "4+2s"}
    factors = S5.factor(Root5(4, 2))
    assert [c.text for c in factors] == ["2", "2+1s"]


def test_divisor_classes_contain_self_and_are_transitive():
    rng = random.Random(17)
    for ring in ALL_RINGS:
        for e in sample_elements(ring, rng, 8):
            classes = ring.divisor_classes(e)
            assert ring.canonical_class(e) in classes
            for d in classes:
                assert ring.divisor_classes(d.rep) <= classes


def test_divisor_classes_take_a_class_representative():
    # a unit has no non-unit divisor, and zero is no class: both are refused
    # as every class operation refuses them, not listed
    for ring in ALL_RINGS:
        with pytest.raises(ParameterError, match=f"^{re.escape(ring.fmt(ring.one()))} is a unit of "):
            ring.divisor_classes(ring.one())
    for ring in (Z, G, F2, S5):
        with pytest.raises(ParameterError, match="^zero is not a class representative in "):
            ring.divisor_classes(ring.parse("0"))


def test_divisor_enumeration_guards():
    with pytest.raises(SizeGuard):
        Z.divisor_classes(10**13)
    with pytest.raises(SizeGuard):
        F2.divisor_classes(F2.poly([1] * 14))
    with pytest.raises(SizeGuard):
        S5.divisor_classes(Root5(10**5, 1))


# ---------------------------------------------------------------------------
# irreducibility


def test_irreducible_examples():
    assert Z.is_irreducible(7)
    assert not Z.is_irreducible(9)
    assert S5.is_irreducible(Root5(2, 0))
    assert S5.is_irreducible(Root5(3, 0))
    assert S5.is_irreducible(Root5(1, 1))
    assert not S5.is_irreducible(Root5(6, 0))
    assert F2.is_irreducible(F2.parse("x^2+x+1"))
    assert not F2.is_irreducible(F2.parse("x^2+1"))
    assert V2.is_irreducible(PPow(2, 1))
    assert not V2.is_irreducible(PPow(2, 2))


def test_irreducible_means_no_proper_divisor_class():
    rng = random.Random(19)
    for ring in ALL_RINGS:
        for e in sample_elements(ring, rng, 10):
            only_self = ring.divisor_classes(e) == {ring.canonical_class(e)}
            assert ring.is_irreducible(e) == only_self


@given(n=st.integers(2, 3000))
def test_int_irreducible_is_primality(n):
    assert Z.is_irreducible(n) == int_is_prime(n)


def test_zs5_irreducible_not_prime_witness():
    # 2 is irreducible yet divides the product (1+s)(1-s) = 6 without dividing
    # either factor
    two = Root5(2, 0)
    assert S5.is_irreducible(two)
    assert S5.divides(two, Root5(6, 0))
    assert not S5.divides(two, Root5(1, 1))
    assert not S5.divides(two, Root5(1, -1))
    assert S5.mul_class(
        S5.canonical_class(Root5(1, 1)), S5.canonical_class(Root5(1, -1))
    ) == S5.canonical_class(Root5(6, 0))


# ---------------------------------------------------------------------------
# factorization


def test_factor_examples():
    assert [c.rep for c in Z.factor(12)] == [2, 2, 3]
    assert [c.text for c in S5.factor(Root5(6, 0))] == ["2", "3"]
    assert [c.text for c in F2.factor(F2.parse("x^2+x"))] == ["x", "x+1"]
    assert [c.text for c in V2.factor(PPow(2, 3))] == ["p", "p", "p"]


def test_factor_soundness():
    rng = random.Random(23)
    for ring in ALL_RINGS:
        for e in sample_elements(ring, rng, 10):
            factors = ring.factor(e)
            assert factors
            for c in factors:
                assert ring.is_irreducible(c.rep)
            prod = ring.product(c.rep for c in factors)
            assert ring.canonical_class(prod) == ring.canonical_class(e)


def test_factor_deterministic():
    a = Root5(2, 4)  # norm 84
    assert S5.factor(a) == S5.factor(Root5(-2, -4))


@given(RING_ELEMENTS)
@example((S5, Root5(6, 6)))
@example((F3, F3.parse("x^6+2x^5+x^4")))  # x^4 (x+1)^2
@example(FP_EDGES[0])
@example(FP_EDGES[1])
@example(FP_EDGES[2])
@example(FP_EDGES[3])
@settings(max_examples=100, deadline=None)
def test_factor_against_oracle(ring_elem):
    # each factor has no proper divisor class, the product is e's class, and
    # the least factor is e's least proper divisor class (the first one peeled)
    ring, e = ring_elem
    factors = ring.factor(e)
    for c in factors:
        assert divisor_classes_oracle(ring, c.rep) == {c}
    assert ring.canonical_class(ring.product(c.rep for c in factors)) == ring.canonical_class(e)
    proper = divisor_classes_oracle(ring, e) - {ring.canonical_class(e)}
    if proper:
        assert factors[0] == min(proper, key=ring.class_sort_key)


def test_fp_factor_guards():
    for op in (F2.factor, F2.is_irreducible):
        with pytest.raises(SizeGuard, match="degree 13 exceeds the fp bound 12"):
            op(F2.poly([1] * 14))


@pytest.mark.parametrize(
    "tag, p, shown",
    [("fp", 2.0, "a float"), ("valp", 3.0, "a float"), ("fp", True, "a bool"), ("fp", "5", "'5'")],
    ids=["fp-2.0", "valp-3.0", "fp-True", "fp-5"],
)
def test_make_ring_refuses_a_p_that_is_not_an_int(tag, p, shown):
    # 2.0 == 2 and 3.0 == 3 pass the bound and the primality test, so the
    # type of p is tested before either
    bound = "17" if tag == "fp" else "10^120"
    message = "^" + re.escape(f"ring {tag} needs a prime p <= {bound}, got {shown}") + "$"
    with pytest.raises(ParameterError, match=message):
        RINGS[tag](p)
    with pytest.raises(ParameterError, match=message):
        make_ring(tag, p)


@pytest.mark.parametrize("tag", RING_TAGS)
def test_make_ring_takes_p_exactly_on_fp_and_valp(tag):
    if tag in ("fp", "valp"):
        assert make_ring(tag, 5).name == f"{tag}(5)"
        with pytest.raises(ParameterError, match=f"^ring {tag} needs a prime p$"):
            make_ring(tag)
    else:
        assert make_ring(tag).name == tag
        with pytest.raises(ParameterError, match=f"^p does not apply to ring {tag}$"):
            make_ring(tag, 5)


FP_LARGE = tuple(make_ring("fp", p) for p in (5, 7, 13, 17))


def _fp_elements(ring):
    # a generic polynomial of degree <= 6, or a product of a few small atoms
    # drawn with repetition, so square-free splitting has repeated factors
    poly = st.lists(st.integers(0, ring.p - 1), min_size=2, max_size=4).map(ring.poly)
    atoms = st.lists(poly, min_size=1, max_size=3)
    products = atoms.flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=6)
    ).map(ring.product)
    generic = st.lists(st.integers(0, ring.p - 1), min_size=2, max_size=7).map(ring.poly)
    return st.one_of(generic, products).filter(lambda e: 1 <= e.degree <= 6)


FP_LARGE_ELEMENTS = st.one_of(
    *(_fp_elements(ring).map(lambda e, ring=ring: (ring, e)) for ring in FP_LARGE)
)


@given(FP_LARGE_ELEMENTS)
@example((FP_LARGE[0], FP_LARGE[0].parse("x^6+2x^5+x^4")))  # x^4 (x+1)^2 over F_5
@example((FP_LARGE[3], FP_LARGE[3].parse("x^6+16x^3+1")))
@settings(max_examples=150, deadline=None)
def test_fp_factor_against_trial_division(ring_elem):
    ring, e = ring_elem
    state = random.getstate()
    factors = ring.factor(e)
    irreducible = ring.is_irreducible(e)
    assert random.getstate() == state  # the adapters leave Python's generator alone
    assert [c.rep for c in factors] == fp_trial_factor(ring, e)
    assert irreducible == (len(factors) == 1)


# x^12 + x + 2 is irreducible over F_17; trial division scanned about 2.6e7
# monic candidates to show that
DEG12 = "x^12+x+2"


def test_fp_degree_12_irreducible():
    f = F17.parse(DEG12)
    assert fp_rabin_irreducible(F17, f)
    assert F17.is_irreducible(f)
    assert [c.text for c in F17.factor(f)] == [DEG12]


def test_fp_product_of_two_sextics():
    g, h = F17.parse("x^6+2x+3"), F17.parse("x^6+x^3+2")
    for f in (g, h):
        assert fp_trial_factor(F17, f) == [f]
    assert not F17.is_irreducible(F17.mul(g, h))
    assert [c.rep for c in F17.factor(F17.mul(g, h))] == [g, h]


FP_ALL = tuple(make_ring("fp", p) for p in (2, 3, 5, 7, 11, 13, 17))
# (x+5)^2 (x+6)^2 (x+7)(x+9)(x+10)(x^2+12x+2): six distinct factors for
# the split, five of them linear
SPLIT13 = "x^9+8x^8+7x^7+12x^6+10x^5+x^4+6x^3+6x^2+10x+10"
# four irreducibles over F_2, more factors than p: a null vector takes only
# two values mod them, so the split needs more than one
MANY2 = F2.product(F2.parse(t) for t in ("x^2+x+1", "x^3+x+1", "x^3+x^2+1", "x^4+x+1"))
TWELVE_LINEAR = F17.product(F17.poly([-s, 1]) for s in range(1, 13))
# without a root in F_17, so factoring goes on to Berlekamp: (x^2+3)(x^2+5),
# and an irreducible
ROOT_FREE_QUARTICS = ("x^4+8x^2+15", "x^4+3x+1")


@st.composite
def fp_factor_cases(draw):
    # a product of atoms drawn with repetition, times a p-th power when its
    # degree fits, of degree at most 12
    ring = draw(st.sampled_from(FP_ALL))

    def poly(degree):
        low = draw(st.lists(st.integers(0, ring.p - 1), min_size=1, max_size=degree))
        return ring.poly(low + [draw(st.integers(1, ring.p - 1))])

    f = ring.one()
    if ring.p <= ring.DEG_MAX and draw(st.booleans()):
        f = ring.product([poly(ring.DEG_MAX // ring.p)] * ring.p)
    pool = [poly(3) for _ in range(draw(st.integers(1, 3)))]
    for g in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8)):
        if f.degree + g.degree <= ring.DEG_MAX:
            f = ring.mul(f, g)
    return ring, f


@given(fp_factor_cases())
@example((F17, TWELVE_LINEAR))
@example((F13, F13.parse(SPLIT13)))
@example((F17, F17.parse(ROOT_FREE_QUARTICS[0])))
@example((F17, F17.parse(ROOT_FREE_QUARTICS[1])))
@example((F2, MANY2))
@settings(max_examples=300, deadline=None)
def test_fp_factor_against_sympy(ring_elem):
    ring, e = ring_elem
    assert [c.rep for c in ring.factor(e)] == fp_sympy_factor(ring, e)


@pytest.mark.parametrize(
    "ring, text, factors",
    [
        (F17, DEG12, [DEG12]),
        (F2, "x^8+x^4+1", ["x^2+x+1"] * 4),
        (F3, "x^9+x^6+x^3+1", ["x+1"] * 3 + ["x^2+1"] * 3),
    ],
    ids=["deg12-f17", "fourth-power-f2", "cubes-f3"],
)
def test_fp_factor_fixed_cases(ring, text, factors):
    e = ring.parse(text)
    assert [c.text for c in ring.factor(e)] == factors
    assert [c.rep for c in ring.factor(e)] == fp_sympy_factor(ring, e)


FP_GF = tuple(make_ring("fp", p) for p in (2, 3, 5, 13, 17))


@st.composite
def fp_operand_pairs(draw):
    # two polynomials of degree at most 12, zero among them
    ring = draw(st.sampled_from(FP_GF))
    coeffs = st.lists(st.integers(0, ring.p - 1), max_size=13)
    return ring, ring.poly(draw(coeffs)), ring.poly(draw(coeffs))


def _dense(ring, e) -> list:
    """e in sympy's dense form, high degree first, once e is in normal form:
    coefficients in [0, p) and no trailing zero."""
    assert all(0 <= c < ring.p for c in e.coeffs)
    assert not e.coeffs or e.coeffs[-1]
    return list(reversed(e.coeffs))


@given(fp_operand_pairs())
@example((F2, F2.poly([]), F2.poly([1, 1])))
@example((F17, F17.poly([3, 0, 16]), F17.poly([])))
@example((F5, F5.poly([4, 0, 1]), F5.poly([4, 1])))  # (x+1)(x+4) by x+4, monic
@example((F5, F5.poly([4, 0, 1]), F5.poly([3, 2])))  # by 2x+3 = 2(x+4)
@example((F5, F5.poly([4, 0, 1]), F5.poly([1, 0, 3])))  # by 3x^2+1: deg num = deg den
@settings(max_examples=300, deadline=None)
def test_fp_primitives_against_galoistools(case):
    ring, a, b = case
    f, g, p = _dense(ring, a), _dense(ring, b), ring.p
    assert _dense(ring, ring.mul(a, b)) == gf_mul(f, g, p, ZZ)
    assert _dense(ring, ring.add(a, b)) == gf_add(f, g, p, ZZ)
    if g:
        # the quotient digits come reduced, the remainder in normal form
        q, r = ring._long_division(a.coeffs, b.coeffs)
        q, r = rings.Poly(ring.p, tuple(q)), rings.Poly(ring.p, tuple(r))
        gq, gr = gf_div(f, g, p, ZZ)
        assert [_dense(ring, q), _dense(ring, r)] == [gq, gr]
        exact = ring.divide(a, b)
        assert (exact is None) if gr else (_dense(ring, exact) == gq)
        # a multiple of b divides exactly, by a monic or a non-monic b
        assert ring.divide(ring.mul(a, b), b) == a


@given(
    st.one_of(
        fp_factor_cases(),
        FP_LARGE_ELEMENTS,
        fp_operand_pairs().map(lambda case: case[:2]).filter(lambda case: case[1].degree >= 1),
    )
)
@example((F17, F17.parse(ROOT_FREE_QUARTICS[0])))
@example((F17, F17.parse(ROOT_FREE_QUARTICS[1])))
@example(FP_EDGES[0])
@example(FP_EDGES[1])
@example(FP_EDGES[2])
@example(FP_EDGES[3])
@settings(max_examples=300, deadline=None)
def test_fp_irreducible_against_rabin(ring_elem):
    ring, e = ring_elem
    assert ring.is_irreducible(e) == fp_rabin_irreducible(ring, e)


def test_zs5_listing_solves_only_norms_up_to_the_square_root(monkeypatch):
    # each divisor c of a is found from c or from a/c, whichever has the
    # smaller norm; solving for every divisor of N took 440 calls and 61264
    # steps of the y loop
    solved = []
    norm_solutions = type(S5)._norm_solutions
    monkeypatch.setattr(
        type(S5), "_norm_solutions", staticmethod(lambda d: solved.append(d) or norm_solutions(d))
    )
    a = Root5(7560, 0)
    assert len(S5._divisor_reps(a)[0]) == 671
    assert all(d * d <= a.norm for d in solved)
    assert len(solved) == 221
    assert sum(math.isqrt(d // 5) + 1 for d in solved) == 3339


def test_fp_split_stops_once_the_factor_degrees_add_up(monkeypatch):
    # roots find the five linear factors of SPLIT13, and the quadratic left
    # needs no gcd.  TWO13 takes one gcd for its square-free part and one at
    # each of the two roots of the minimal polynomial of v mod f, where a
    # scan of s in F_13 took 13 after the first
    calls = []
    gcd = PolynomialRing._gcd
    monkeypatch.setattr(
        PolynomialRing, "_gcd", lambda self, a, b: calls.append(1) or gcd(self, a, b)
    )
    factors = [c.text for c in F13.factor(F13.parse(SPLIT13))]
    assert factors == ["x+5", "x+5", "x+6", "x+6", "x+7", "x+9", "x+10", "x^2+12x+2"]
    assert len(calls) == 0
    factors = [c.text for c in F13.factor(F13.parse(TWO13))]
    assert factors == ["x^3+9x^2+8x+6", "x^4+10x^3+9x^2+3x+7"]
    assert len(calls) == 3


def test_berlekamp_stops_once_it_has_r_factors(monkeypatch):
    # three root-free quadratics over F_5, so r = 3, and the first
    # nonconstant null vector splits f into all three at the roots of one
    # minimal polynomial.  The stop is read after the next null vector:
    # 3 calls in all.  Without it that vector is tried on each of the three
    # factors, 3 minimal polynomials more, for the same factors
    calls = []
    null_vector = PolynomialRing._null_vector
    monkeypatch.setattr(
        PolynomialRing, "_null_vector", lambda self, *a: calls.append(1) or null_vector(self, *a)
    )
    factors = [c.text for c in F5.factor(F5.parse("x^6+x^5+x^4+x^2+x+1"))]
    assert factors == ["x^2+2", "x^2+3", "x^2+x+1"]
    assert len(calls) == 3


def test_berlekamp_builds_only_the_rows_it_reads(monkeypatch):
    # row 0 of Q is 1 and row 1 is x^p mod f, one remainder; rows 2..n-1
    # cost one product and one remainder each, so a degree-7 f takes 5
    # products and 6 remainders, and at rank n - 1 no more.  The earlier
    # loop also multiplied 1 by x^p and built a row n, 7 and 8
    f = F13.parse("x^7+10x+1")
    assert gf_irreducible_p([1, 0, 0, 0, 0, 0, 10, 1], 13, ZZ)
    calls = []
    for name in ("_product", "_long_division"):
        method = getattr(PolynomialRing, name)
        monkeypatch.setattr(
            PolynomialRing,
            name,
            lambda self, a, b, name=name, method=method: calls.append(name) or method(self, a, b),
        )
    assert F13._berlekamp(f) == [f]
    assert calls.count("_product") == 5 and calls.count("_long_division") == 6


def test_a_linear_polynomial_is_irreducible_without_berlekamp(monkeypatch):
    calls = []
    berlekamp = PolynomialRing._berlekamp
    monkeypatch.setattr(
        PolynomialRing, "_berlekamp", lambda self, f: calls.append(f) or berlekamp(self, f)
    )
    assert F17.is_irreducible(F17.parse("x+3"))
    assert [c.text for c in F17.factor(F17.parse("5x+15"))] == ["x+3"]
    # every linear factor is a root, and a root-free rest of degree 2 is
    # irreducible; the split of SPLIT13 took one Berlekamp call
    assert [c.rep for c in F17.factor(TWELVE_LINEAR)] == [
        F17.poly([-s, 1]) for s in range(12, 0, -1)
    ]
    assert len(F13.factor(F13.parse(SPLIT13))) == 8
    assert calls == []
    # a root-free rest of degree 4 still goes to Berlekamp
    assert [c.text for c in F17.factor(F17.parse(ROOT_FREE_QUARTICS[0]))] == ["x^2+3", "x^2+5"]
    assert len(calls) == 1


def test_zs5_factor_enumerates_divisors_once(monkeypatch):
    calls = []
    divisor_reps = type(S5)._divisor_reps

    def counted(self, *args):
        calls.append(args)
        return divisor_reps(self, *args)

    monkeypatch.setattr(type(S5), "_divisor_reps", counted)
    factors = S5.factor(Root5(7560, 0))
    assert len(calls) == 1
    assert [c.text for c in factors] == ["2", "2", "2", "1s", "1s", "2-1s", "2+1s", "3", "7"]


# ---------------------------------------------------------------------------
# gcd / lcm


def test_gcd_examples():
    assert Z.gcd_class(12, 18).rep == 6
    assert Z.gcd_class(4, 9) is None
    assert F2.gcd_class(F2.parse("x^2+x"), F2.parse("x^2+1")).text == "x+1"
    assert V3.gcd_class(PPow(3, 2), PPow(3, 5)).text == "p^2"


def test_gcd_missing_on_zs5():
    with pytest.raises(ParameterError, match="^zs5 has no gcd$"):
        S5.gcd_class(Root5(6, 0), Root5(2, 2))


@given(
    st.sampled_from([G, F2, F3]).flatmap(
        lambda ring: st.tuples(st.just(ring), ELEMENTS[ring], ELEMENTS[ring])
    )
)
@settings(max_examples=100, deadline=None)
def test_euclidean_gcd_against_oracle(ring_a_b):
    # the gcd's divisor classes are exactly the common divisor classes
    ring, a, b = ring_a_b
    g = ring.gcd_class(a, b)
    common = divisor_classes_oracle(ring, a) & divisor_classes_oracle(ring, b)
    assert (set() if g is None else divisor_classes_oracle(ring, g.rep)) == common


@given(a=st.integers(2, 2000), b=st.integers(2, 2000))
@settings(max_examples=60)
def test_gcd_contract_int(a, b):
    g = Z.gcd_class(a, b)
    if g is None:
        assert math.gcd(a, b) == 1
    else:
        assert Z.divides(g.rep, a) and Z.divides(g.rep, b)
        for d in int_divisors(math.gcd(a, b)):
            assert Z.divides(d, g.rep)


def test_gcd_contract_sampled():
    rng = random.Random(29)
    for ring in (G, F2, F3, V2):
        es = sample_elements(ring, rng, 8)
        for a in es:
            for b in es:
                g = ring.gcd_class(a, b)
                common = ring.divisor_classes(a) & ring.divisor_classes(b)
                if g is None:
                    assert not common
                else:
                    assert ring.divides(g.rep, a) and ring.divides(g.rep, b)
                    for d in common:
                        assert ring.divides(d.rep, g.rep)


# ---------------------------------------------------------------------------
# class products


def test_mul_class_examples():
    assert Z.mul_class(Z.canonical_class(2), Z.canonical_class(3)).rep == 6
    ci = G.canonical_class(Gauss(1, 1))
    assert G.mul_class(ci, ci).text == "2"
    prod = S5.mul_class(
        S5.canonical_class(Root5(1, 1)), S5.canonical_class(Root5(1, -1))
    )
    assert prod.text == "6"


def test_mul_class_ring_mismatch():
    with pytest.raises(ParameterError, match="^a class of gauss does not belong to z$"):
        Z.mul_class(Z.canonical_class(2), G.canonical_class(Gauss(1, 1)))
    with pytest.raises(ParameterError, match=r"^a class of fp\(3\) does not belong to fp\(2\)$"):
        F2.mul_class(
            F3.canonical_class(F3.parse("x")), F3.canonical_class(F3.parse("x"))
        )


def test_mul_class_representative_independent():
    a1 = Z.canonical_class(-4)
    a2 = Z.canonical_class(4)
    b = Z.canonical_class(-9)
    assert Z.mul_class(a1, b) == Z.mul_class(a2, b) == Z.canonical_class(36)


# ---------------------------------------------------------------------------
# capability metadata


def test_make_ring_validation():
    with pytest.raises(ValueError):
        make_ring("fp", 19)  # beyond the modulus cap
    with pytest.raises(ValueError):
        make_ring("fp", 4)
    with pytest.raises(ValueError):
        make_ring("valp", 4)
    with pytest.raises(ParameterError, match=r"^unknown ring tag 'nope'$"):
        make_ring("nope")
    with pytest.raises(ParameterError) as info:
        make_ring("q" * 10**6)  # named by its length, not echoed
    assert len(str(info.value).encode()) < 200


def test_capability_table():
    assert Z.has_gcd and Z.is_ufd
    assert not Z.is_valuation and len(units(Z)) == 2
    assert len(units(G)) == 4
    assert len(units(F3)) == 2
    assert len(units(make_ring("fp", 5))) == 4
    assert not S5.has_gcd and not S5.is_ufd
    assert len(units(S5)) == 2
    # the written-out unit lists are units, one associate of 1 each
    for ring in ALL_RINGS:
        listed = units(ring)
        assert ring.one() in listed and all(ring.is_unit(u) for u in listed)
        assert len({ring.canonical(u) for u in listed}) == 1
    assert V2.is_valuation and V2.has_gcd and V2.is_ufd
    assert not V2.finite_units
    for ring in (Z, G, F2, F3, S5):
        assert not ring.is_valuation and ring.finite_units
